"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from tripart import Partition
from tripart.dsl import And, Cmp, LinExpr, Lit, Not, Or, Parity, Quant, Sym


def weak_sequences(max_part=30, max_len=12):
    """Non-increasing positive integer tuples."""
    return st.lists(
        st.integers(1, max_part), min_size=1, max_size=max_len
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))


def partitions(max_part=30, max_len=12):
    return weak_sequences(max_part, max_len).map(Partition.from_weak_sequence)


def _symbols(in_quantifier):
    fixed = st.builds(Sym, st.sampled_from("LK"),
                      st.sampled_from((1, 2, 3, 4, -1, -2)))
    options = [fixed, st.just(Sym("dim"))]
    if in_quantifier:
        # the bound index itself and the parts/multiplicities it points at
        options += [st.just(Sym("idx")), st.builds(Sym, st.sampled_from("LK"), st.just("bound"))]
    return st.one_of(options)


def _lin_exprs(in_quantifier):
    coefs = st.integers(-3, 3).filter(bool)
    terms = st.lists(st.tuples(coefs, _symbols(in_quantifier)), max_size=3).map(tuple)
    return st.builds(LinExpr, terms, st.integers(-6, 6))


def _flat(cls, items):
    # the parser keeps associative connectives flat, so generated trees do too
    out = []
    for item in items:
        out.extend(item.items if isinstance(item, cls) else (item,))
    return cls(tuple(out))


def _trees(atoms):
    def extend(children):
        pairs = st.lists(children, min_size=2, max_size=3)
        return st.one_of(
            st.builds(Not, children),
            pairs.map(lambda items: _flat(And, items)),
            pairs.map(lambda items: _flat(Or, items)),
        )

    return st.recursive(atoms, extend, max_leaves=6)


def _atoms(in_quantifier):
    return st.one_of(
        st.builds(Cmp, _lin_exprs(in_quantifier), st.sampled_from(("<", "<=", "=", ">=", ">")),
                  _lin_exprs(in_quantifier)),
        st.builds(Parity, _symbols(in_quantifier), st.booleans()),
        st.builds(Lit, st.booleans()),
    )


def quantifier_bodies():
    """Quantifier-free trees that may test the bound index (``i = 1``, ``i = dim``)."""
    index_tests = st.builds(
        Cmp, st.just(LinExpr(((1, Sym("idx")),))), st.sampled_from(("=", "<", ">")),
        st.sampled_from((LinExpr((), 1), LinExpr(((1, Sym("dim")),)), LinExpr((), 2))),
    )
    entry_tests = st.one_of(
        st.builds(Parity, st.builds(Sym, st.sampled_from("LK"), st.just("bound")), st.booleans()),
        st.builds(Cmp, st.builds(lambda seq: LinExpr(((1, Sym(seq, "bound")),)), st.sampled_from("LK")),
                  st.sampled_from(("=", ">=")), st.sampled_from((LinExpr((), 1), LinExpr((), 2)))),
    )
    # "i = 1 or K[i] = 1": an index test guarding a test of the entry at i
    guarded = st.builds(lambda a, b: Or((a, b)), index_tests, entry_tests)
    return _trees(st.one_of(guarded, index_tests, entry_tests, _atoms(True)))


def predicate_trees():
    """Random predicate ASTs in the grammar: comparisons, parity, connectives
    and one-level ``forall``/``exists``."""
    quantifiers = st.builds(Quant, st.booleans(), quantifier_bodies())
    return _trees(st.one_of(_atoms(False), quantifiers))
