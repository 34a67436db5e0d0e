"""A small predicate language over partition parts and multiplicities.

Atoms are integer-linear comparisons over indexed symbols (``L2``,
``Klast``, ``Lsecondlast``, ``L[i]`` under a quantifier), parity tests
``odd(x)`` / ``even(x)``, comparisons against ``dim``, and single-level
``forall i:`` / ``exists i:`` quantifiers whose body may test the index
itself (``i = 1``, ``i = dim``).  Connectives are ``and``, ``or``,
``not`` with parentheses; a quantifier body extends as far right as
possible, so parenthesize it when it sits inside a conjunction.

Out-of-range indices (``L3`` on a two-part partition) make the
containing atom false rather than raising, which keeps every predicate
total on valid partitions.

Two evaluation routes exist on purpose: :meth:`SetPredicate.member`
walks the tree, while calling the predicate uses a compiled closure.
They are cross-checked by the test suite.  The same code generator
also fuses several predicates into one counting sweep
(:func:`compile_columns`), which every counting path uses.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Iterable, NoReturn, Sequence

from .core import InputError, Partition, Record


class DslError(InputError):
    """Base class for predicate-language errors; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DslSyntaxError(DslError):
    """Malformed predicate text."""


class UnknownSymbolError(DslError):
    """An identifier is not a recognized symbol."""


# --- AST -------------------------------------------------------------

class Sym(Record):
    """An indexed symbol: a part, a multiplicity, ``dim`` or the bound index.

    ``index`` is a positive integer counted from the front (1 is the
    first part), a negative integer counted from the end (-1 is the
    last, -2 the second to last), or "bound" for the quantifier
    variable; it is None, the default, for kinds "dim" and "idx".
    """

    __slots__ = ("kind", "index")
    _defaults = {"index": None}


class LinExpr(Record):
    """The int-linear combination ``terms``, (int, Sym) pairs, plus the int ``const``, 0 by default."""

    __slots__ = ("terms", "const")
    _defaults = {"const": 0}


# The nodes: Lit.value, Parity.odd and Quant.forall (False for exists) are
# bools; Parity.sym is a Sym; Cmp compares the LinExprs lhs and rhs by an op
# in _CMP; Not.item and Quant.body are nodes, And.items and Or.items tuples.
class Lit(Record):
    __slots__ = ("value",)


class Cmp(Record):
    __slots__ = ("lhs", "op", "rhs")


class Parity(Record):
    __slots__ = ("sym", "odd")


class Not(Record):
    __slots__ = ("item",)


class And(Record):
    __slots__ = ("items",)


class Or(Record):
    __slots__ = ("items",)


class Quant(Record):
    __slots__ = ("forall", "body")


Node = Lit | Cmp | Parity | Not | And | Or | Quant


# --- reference evaluation ---------------------------------------------

def _sym_value(sym: Sym, L, K, m: int, i: int | None) -> int | None:
    """A symbol's value, or None when it is out of range or unbound."""
    if sym.kind == "dim":
        return m
    if sym.kind == "idx":
        return i
    idx = sym.index
    j = i if idx == "bound" else idx if idx > 0 else m + 1 + idx
    if j is None or j < 1 or j > m:
        return None
    return L[j - 1] if sym.kind == "L" else K[j - 1]


def _lin_value(expr: LinExpr, L, K, m: int, i: int | None) -> int | None:
    total = expr.const
    for coef, sym in expr.terms:
        v = _sym_value(sym, L, K, m, i)
        if v is None:
            return None
        total += coef * v
    return total


_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def evaluate(node: Node, L, K, m: int, i: int | None = None) -> bool:
    """Tree-walking evaluation; the reference semantics."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Cmp):
        lv = _lin_value(node.lhs, L, K, m, i)
        rv = _lin_value(node.rhs, L, K, m, i)
        if lv is None or rv is None:
            return False
        return _CMP[node.op](lv, rv)
    if isinstance(node, Parity):
        v = _sym_value(node.sym, L, K, m, i)
        return v is not None and v % 2 == (1 if node.odd else 0)
    if isinstance(node, Not):
        return not evaluate(node.item, L, K, m, i)
    if isinstance(node, And):
        return all(evaluate(item, L, K, m, i) for item in node.items)
    if isinstance(node, Or):
        return any(evaluate(item, L, K, m, i) for item in node.items)
    if isinstance(node, Quant):
        gen = (evaluate(node.body, L, K, m, j) for j in range(1, m + 1))
        return all(gen) if node.forall else any(gen)
    raise TypeError(f"unknown node {node!r}")


# --- compilation to Python source ----------------------------------------

_BOUND_NAMES = {"L": "Li", "K": "Ki"}


def _emit_sym(sym: Sym) -> tuple[str | None, str]:
    if sym.kind == "dim":
        return None, "m"
    if sym.kind == "idx":
        return None, "i"
    idx = sym.index
    if idx == "bound":
        return None, _BOUND_NAMES[sym.kind]
    # a Python subscript counts from the end as a negative index does;
    # only the first and the last position exist in every partition
    guard = f"m >= {abs(idx)}" if abs(idx) > 1 else None
    return guard, f"{sym.kind}[{idx - 1 if idx > 0 else idx}]"


def _emit_lin(expr: LinExpr) -> tuple[list[str], str]:
    guards: list[str] = []
    pieces: list[str] = []
    for coef, sym in expr.terms:
        g, v = _emit_sym(sym)
        if g is not None:
            guards.append(g)
        pieces.append(v if coef == 1 else f"{coef}*{v}")
    if expr.const or not pieces:
        pieces.append(str(expr.const))
    return guards, " + ".join(pieces)


def _uses(name: str, source: str) -> bool:
    return re.search(rf"\b{name}\b", source) is not None


class _Emitter:
    """Python source for predicate trees; the one code generator.

    Expressions read the current partition as ``L`` (parts), ``K``
    (multiplicities) and ``m`` (its dimension, ``len(L)``).  Each
    quantifier becomes a helper function that loops over the parts
    and returns at the first index that decides it; only plain callables
    become names bound in the generated namespace.
    """

    def __init__(self):
        self.namespace: dict = {}
        self.helpers: list[str] = []

    def bind(self, obj) -> str:
        name = f"_fn{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def expr(self, node: Node) -> str:
        if isinstance(node, Lit):
            return "True" if node.value else "False"
        if isinstance(node, Cmp):
            lg, lv = _emit_lin(node.lhs)
            rg, rv = _emit_lin(node.rhs)
            op = "==" if node.op == "=" else node.op
            clauses = sorted(set(lg + rg)) + [f"({lv}) {op} ({rv})"]
            return "(" + " and ".join(clauses) + ")"
        if isinstance(node, Parity):
            g, v = _emit_sym(node.sym)
            test = f"({v}) % 2 == {1 if node.odd else 0}"
            return f"({g} and {test})" if g else f"({test})"
        if isinstance(node, Not):
            return f"(not {self.expr(node.item)})"
        if isinstance(node, And):
            return "(" + " and ".join(self.expr(item) for item in node.items) + ")"
        if isinstance(node, Or):
            return "(" + " or ".join(self.expr(item) for item in node.items) + ")"
        if isinstance(node, Quant):
            return self._quant(node) + "(L, K, m)"
        raise TypeError(f"unknown node {node!r}")

    def _quant(self, node: Quant) -> str:
        body = self.expr(node.body)
        seqs = [seq for seq, name in _BOUND_NAMES.items() if _uses(name, body)]
        if not seqs:
            loop = "for i in range(1, m + 1):"
        else:
            target = "(" + ", ".join(_BOUND_NAMES[seq] for seq in seqs) + ")"
            source = seqs[0] if len(seqs) == 1 else "zip(L, K)"
            if _uses("i", body):
                loop = f"for i, {target} in enumerate({source}, 1):"
            else:
                loop = f"for {target} in {source}:"
        name = f"_q{len(self.helpers)}"
        test, decided = (f"not {body}", "False") if node.forall else (body, "True")
        self.helpers.append(
            f"def {name}(L, K, m):\n"
            f"    {loop}\n"
            f"        if {test}:\n"
            f"            return {decided}\n"
            f"    return {node.forall}\n"
        )
        return name

    def build(self, name: str, source: str):
        exec("\n".join(self.helpers + [source]), self.namespace)
        return self.namespace[name]


def compile_node(root: Node) -> Callable[[tuple, tuple, int], bool]:
    """Compile the tree to a closure over (parts, mults, dim)."""
    emitter = _Emitter()
    body = emitter.expr(root)
    return emitter.build("_pred", f"def _pred(L, K, m):\n    return {body}\n")


def raw_test(pred) -> Callable[[Sequence, Sequence, int], bool]:
    """Any membership test as a (parts, mults, dim) test on a raw partition.

    Parts and multiplicities may be tuples or the enumerator's working
    lists.  A :class:`SetPredicate` gives its compiled closure, which
    only indexes, measures and iterates them, so it reads both alike.
    Any other ``Partition -> bool`` callable is handed each partition
    wrapped, unvalidated, as a Partition of its own tuples, so one it
    keeps never shares a list the enumerator goes on changing (``tuple``
    of a tuple returns it as is); nothing is compiled for it.  This is
    the one place that decides how a test reads a raw partition.
    """
    if isinstance(pred, SetPredicate):
        return pred.fn
    wrap = Partition._wrap
    return lambda L, K, m: pred(wrap(tuple(L), tuple(K)))


def compile_columns(preds: Sequence) -> Callable[[Iterable], tuple[int, ...]]:
    """Compile several membership tests into one counting sweep.

    Each column is a :class:`SetPredicate`, whose tree is inlined into
    the loop, or a plain ``Partition -> bool`` callable, which is called
    through :func:`raw_test`.  The result, ``_sweep(it)``, loops once
    over an iterable of (parts, mults) pairs and returns how many of
    them each column accepts, in column order.
    """
    emitter = _Emitter()
    tests = []
    for pred in preds:
        if isinstance(pred, SetPredicate):
            tests.append(emitter.expr(pred.root))
        else:
            tests.append(emitter.bind(raw_test(pred)) + "(L, K, m)")
    counters = [f"c{j}" for j in range(len(tests))]
    lines = ["def _sweep(it):"]
    lines += [f"    {c} = 0" for c in counters]
    lines += ["    for L, K in it:", "        m = len(L)"]
    for c, test in zip(counters, tests):
        lines += [f"        if {test}:", f"            {c} += 1"]
    lines.append("    return (" + "".join(f"{c}, " for c in counters) + ")")
    return emitter.build("_sweep", "\n".join(lines) + "\n")


# --- formatting --------------------------------------------------------

# The words for symbol positions, read by the parser and printed back
# by the formatter for the positions counted from the end.
_POSITION_WORDS = {"first": 1, "last": -1, "secondlast": -2}
_POSITION_NAMES = {idx: word for word, idx in _POSITION_WORDS.items() if idx < 0}


def _format_sym(sym: Sym) -> str:
    if sym.kind == "dim":
        return "dim"
    if sym.kind == "idx":
        return "i"
    idx = sym.index
    if idx == "bound":
        return f"{sym.kind}[i]"
    return f"{sym.kind}{_POSITION_NAMES.get(idx, idx)}"


def _format_lin(expr: LinExpr) -> str:
    out = ""
    for coef, sym in expr.terms:
        mag = abs(coef)
        piece = _format_sym(sym) if mag == 1 else f"{mag}*{_format_sym(sym)}"
        if not out:
            out = piece if coef > 0 else f"-{piece}"
        else:
            out += f" + {piece}" if coef > 0 else f" - {piece}"
    c = expr.const
    if not out:
        return str(c)
    if c:
        out += f" + {c}" if c > 0 else f" - {-c}"
    return out


def format_node(node: Node, level: int = 0) -> str:
    """Canonical text; parse(format(x)) reproduces x for every node kind."""
    if isinstance(node, Lit):
        return "true" if node.value else "false"
    if isinstance(node, Cmp):
        return f"{_format_lin(node.lhs)} {node.op} {_format_lin(node.rhs)}"
    if isinstance(node, Parity):
        return f"{'odd' if node.odd else 'even'}({_format_sym(node.sym)})"
    if isinstance(node, Not):
        return f"not {format_node(node.item, 3)}"
    if isinstance(node, And):
        text = " and ".join(format_node(item, 2) for item in node.items)
        return f"({text})" if level > 2 else text
    if isinstance(node, Or):
        text = " or ".join(format_node(item, 1) for item in node.items)
        return f"({text})" if level > 1 else text
    if isinstance(node, Quant):
        text = f"{'forall' if node.forall else 'exists'} i: {format_node(node.body, 0)}"
        return f"({text})" if level > 0 else text
    raise TypeError(f"unknown node {node!r}")


# --- the public predicate object ----------------------------------------

class SetPredicate:
    """A membership test for a set of partitions.

    Calling the predicate on a Partition uses the compiled closure;
    :meth:`member` uses the reference evaluator.  Predicates combine
    with ``&``, ``|`` and ``~``.  The root is never changed, so the
    compiled closure and the hash, which hashes the whole tree, are each
    computed once and kept.
    """

    __slots__ = ("root", "_fn", "_hash")

    def __init__(self, root: Node):
        self.root = root
        self._fn = None
        self._hash = None

    @property
    def fn(self) -> Callable[[tuple, tuple, int], bool]:
        """The compiled (parts, mults, dim) -> bool closure."""
        if self._fn is None:
            self._fn = compile_node(self.root)
        return self._fn

    def __call__(self, p: Partition) -> bool:
        return self.fn(p.parts, p.mults, len(p.parts))

    def member(self, p: Partition) -> bool:
        """Reference evaluation, independent of the compiler."""
        return evaluate(self.root, p.parts, p.mults, len(p.parts))

    def source(self) -> str:
        return format_node(self.root)

    def __and__(self, other: "SetPredicate") -> "SetPredicate":
        return SetPredicate(And(_flatten(And, (self.root, other.root))))

    def __or__(self, other: "SetPredicate") -> "SetPredicate":
        return SetPredicate(Or(_flatten(Or, (self.root, other.root))))

    def __invert__(self) -> "SetPredicate":
        return SetPredicate(Not(self.root))

    def __eq__(self, other) -> bool:
        return isinstance(other, SetPredicate) and self.root == other.root

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.root)
        return self._hash

    def __repr__(self) -> str:
        return f"SetPredicate({self.source()!r})"


TRUE = SetPredicate(Lit(True))
FALSE = SetPredicate(Lit(False))


# --- parser --------------------------------------------------------------

# whitespace, then one token; any other character is the group "bad"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op><=|>=|<|>|=|\(|\)|\[|\]|:|\*|\+|-)|(?P<bad>\S))"
)

_KEYWORDS = {
    "and", "or", "not", "forall", "exists", "odd", "even", "true", "false",
}

_SYM_RE = re.compile(rf"^([LK])(\d+|{'|'.join(_POSITION_WORDS)})?$")


def _flatten(cls, items):
    # associative connectives are kept flat so equivalent texts parse
    # to identical trees
    flat = []
    for item in items:
        if isinstance(item, cls):
            flat.extend(item.items)
        else:
            flat.append(item)
    return tuple(flat)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise DslSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str, resolve=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.bound: str | None = None
        # optional hook mapping a set name to an AST root, so callers
        # can splice registered sets into predicate text; it returns None
        # for a name it does not know and raises InputError for a name it
        # knows but refuses
        self.resolve = resolve

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str, *texts: str) -> bool:
        """Whether the next token is of ``kind`` and, if given, one of ``texts``."""
        tok = self.peek()
        return tok is not None and tok[0] == kind and (not texts or tok[1] in texts)

    def fail(self, message: str) -> NoReturn:
        """Raise a syntax error at the next token, or at the end of the text."""
        tok = self.peek()
        raise DslSyntaxError(message, tok[2] if tok else len(self.text))

    def advance(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        if not self.at("op", op):
            self.fail(f"expected {op!r}")
        self.pos += 1

    def parse(self) -> Node:
        node = self.parse_or()
        tok = self.peek()
        if tok is not None:
            self.fail(f"unexpected trailing {tok[1]!r}")
        return node

    def _chain(self, word: str, cls, parse_item) -> Node:
        items = [parse_item()]
        while self.at("ident", word):
            self.advance()
            items.append(parse_item())
        return items[0] if len(items) == 1 else cls(_flatten(cls, items))

    def parse_or(self) -> Node:
        return self._chain("or", Or, self.parse_and)

    def parse_and(self) -> Node:
        return self._chain("and", And, self.parse_not)

    def parse_not(self) -> Node:
        if self.at("ident", "not"):
            self.advance()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Node:
        if self.at("op", "("):
            self.advance()
            node = self.parse_or()
            self.expect_op(")")
            return node
        if self.at("ident", "true", "false"):
            return Lit(self.advance()[1] == "true")
        if self.at("ident", "odd", "even"):
            odd = self.advance()[1] == "odd"
            self.expect_op("(")
            sym = self.parse_sym()
            self.expect_op(")")
            return Parity(sym, odd)
        if self.at("ident", "forall", "exists"):
            return self.parse_quant()
        if self.resolve is not None and self.at("ident") and self.names_set(self.peek()[1]):
            return self.parse_named_set()
        return self.parse_cmp()

    def names_set(self, text: str) -> bool:
        """Whether an identifier names a set rather than a symbol: it is no
        keyword, not ``dim``, not the bound index and no ``_SYM_RE`` match."""
        return (
            text not in _KEYWORDS
            and text not in ("dim", self.bound)
            and _SYM_RE.match(text) is None
        )

    def parse_named_set(self) -> Node:
        _, name, where = self.advance()
        arg = self.tokens[self.pos + 1: self.pos + 3]
        if (
            self.at("op", "(")
            and len(arg) == 2
            and arg[0][0] == "int"
            and arg[1][:2] == ("op", ")")
        ):
            self.pos += 3
            name = f"{name}({arg[0][1]})"
        try:
            root = self.resolve(name)
        except InputError as exc:
            raise UnknownSymbolError(str(exc), where) from None
        if root is None:
            raise UnknownSymbolError(f"unknown symbol or set name {name!r}", where)
        return root

    def parse_quant(self) -> Node:
        _, word, where = self.advance()
        if self.bound is not None:
            raise DslSyntaxError("nested quantifiers are not supported", where)
        tok = self.advance()
        if tok[0] != "ident" or tok[1] in _KEYWORDS:
            raise DslSyntaxError("expected an index variable name", tok[2])
        self.expect_op(":")
        self.bound = tok[1]
        try:
            body = self.parse_or()
        finally:
            self.bound = None
        return Quant(forall=(word == "forall"), body=body)

    def parse_cmp(self) -> Node:
        lhs = self.parse_sum()
        if not self.at("op", *_CMP):
            self.fail("expected a comparison operator")
        op = self.advance()[1]
        return Cmp(lhs, op, self.parse_sum())

    def parse_sum(self) -> LinExpr:
        terms: list[tuple[int, Sym]] = []
        const = 0
        while True:
            sign = 1
            if self.at("op", "+", "-"):
                sign = -1 if self.advance()[1] == "-" else 1
            coef, sym = self.parse_term()
            if sym is None:
                const += sign * coef
            else:
                terms.append((sign * coef, sym))
            if not self.at("op", "+", "-"):
                return LinExpr(tuple(terms), const)

    def parse_term(self) -> tuple[int, Sym | None]:
        if not self.at("int"):
            return 1, self.parse_sym()
        coef = int(self.advance()[1])
        if self.at("op", "*"):
            self.advance()
        elif not self.at("ident") or self.peek()[1] in _KEYWORDS:
            return coef, None
        return coef, self.parse_sym()

    def parse_sym(self) -> Sym:
        kind, text, where = self.advance()
        if kind != "ident":
            raise DslSyntaxError(f"expected a symbol, got {text!r}", where)
        if self.names_set(text):
            raise UnknownSymbolError(f"unknown symbol {text!r}", where)
        if text in _KEYWORDS:
            raise DslSyntaxError(f"unexpected keyword {text!r}", where)
        if text == "dim":
            return Sym("dim")
        if text == self.bound:
            return Sym("idx")
        base, rest = _SYM_RE.match(text).groups()
        if rest is None:
            if not self.at("op", "["):
                raise UnknownSymbolError(
                    f"bare {base!r} needs an index like {base}1 or {base}[i]", where
                )
            self.advance()
            var = self.advance()
            if var[0] != "ident" or var[1] != self.bound:
                raise UnknownSymbolError(
                    f"index variable {var[1]!r} is not bound by a quantifier", var[2]
                )
            self.expect_op("]")
            return Sym(base, "bound")
        idx = _POSITION_WORDS.get(rest) or int(rest)
        if idx == 0:
            raise DslSyntaxError("indices start at 1", where)
        return Sym(base, idx)


def parse_predicate(text: str) -> SetPredicate:
    """Parse predicate text into a :class:`SetPredicate`."""
    return SetPredicate(_Parser(text).parse())
