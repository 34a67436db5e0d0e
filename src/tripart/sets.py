"""Named partition sets: the builtin registry and cylinder predicates.

Every named set carries a dimension-two and a dimension-at-least-three
defining condition (they frequently coincide once ``Llast`` is read
literally, since the smallest part of a two-part partition *is* the
second part).  Sets over all dimensions, like distinct-parts ``D`` and
odd-parts ``O``, use a single quantified form instead.

Cylinder sets follow a branch word under the iterated triangle map.  In
each dimension a cylinder is a cone, one strict inequality per letter,
built as a predicate tree; the tests check it against a walk of the
map.  The length-one and length-two words also have intrinsic registry
entries; their equivalence is a theorem, checked exhaustively by the
test suite rather than assumed.
"""

from __future__ import annotations

import re
from typing import Sequence

from .core import InputError, Record, _above, _below, check_whole
from .dsl import And, Cmp, LinExpr, Or, SetPredicate, Sym, _Parser, parse_predicate


class UnknownSetError(InputError, KeyError):
    """No registered set has this name."""


class SetParameterError(UnknownSetError):
    """A parameterized family name whose parameter is out of range, like ``GaussG(0)``:
    every family name takes d >= ``_FAMILY_LOW``, though ``gauss_set(0)`` is valid on
    purpose, the band ``gauss_step_image(d, d)`` builds on, which ``Delta0`` already names."""

    def __str__(self) -> str:
        # the reason itself, not the quoted key a KeyError prints
        return self.args[0]


class EmptyWordError(InputError):
    """Cylinder words need at least one letter."""


class RegistryEntry(Record):
    """A named set: defining text per dimension regime, or one uniform form; an absent form is None."""

    __slots__ = ("name", "dim2", "dim3", "uniform", "note")
    _defaults = {"dim2": None, "dim3": None, "uniform": None, "note": ""}

    def combined_source(self) -> str:
        if self.uniform is not None:
            return self.uniform
        return f"(dim = 2 and ({self.dim2})) or (dim >= 3 and ({self.dim3}))"

    def predicate(self) -> SetPredicate:
        return parse_predicate(self.combined_source())


_ENTRIES = [
    RegistryEntry("Delta0", "2*L2 > L1", "L2 + Llast > L1",
                  note="largest part below second + smallest"),
    RegistryEntry("Delta1", "2*L2 < L1", "L2 + Llast < L1",
                  note="largest part above second + smallest"),
    RegistryEntry("DeltaD", "2*L2 = L1", "L2 + Llast = L1",
                  note="largest part equals second + smallest"),
    RegistryEntry("Delta00", "2*L2 > L1 and 2*L1 > 3*L2",
                  "L2 + Llast > L1 and 2*L2 < L1 + L3",
                  note="branch word 00, intrinsic form"),
    RegistryEntry("Delta01", "2*L2 > L1 and 2*L1 < 3*L2",
                  "L2 + Llast > L1 and 2*L2 > L1 + L3",
                  note="branch word 01, intrinsic form"),
    RegistryEntry("Delta10", "2*L2 < L1 and L1 < 3*L2",
                  "L2 + Llast < L1 and L1 < L2 + 2*Llast",
                  note="branch word 10, intrinsic form"),
    RegistryEntry("Delta11", "L1 > 3*L2", "L1 > L2 + 2*Llast",
                  note="branch word 11, intrinsic form"),
    RegistryEntry("M0", "K1 > K2", "K1 > Klast",
                  note="first multiplicity exceeds last"),
    RegistryEntry("M1", "K1 < K2", "K1 < Klast",
                  note="last multiplicity exceeds first"),
    RegistryEntry("T0Delta00", "2*L2 > L1 and K1 > K2",
                  "L2 + Llast > L1 and K1 > Klast",
                  note="one-step image of Delta00"),
    RegistryEntry("T0Delta01", "2*L2 < L1 and K1 > K2",
                  "L2 + Llast < L1 and K1 > Klast",
                  note="one-step image of Delta01"),
    RegistryEntry("T1Delta10", "2*L2 > L1 and K1 < K2",
                  "L2 + Llast > L1 and K1 < Klast",
                  note="one-step image of Delta10"),
    RegistryEntry("T1Delta11", "2*L2 < L1 and K1 < K2",
                  "L2 + Llast < L1 and K1 < Klast",
                  note="one-step image of Delta11"),
    RegistryEntry("T0T0Delta00", "K2 < K1 and K1 < 2*K2",
                  "Ksecondlast < Klast and Klast < K1",
                  note="two-step image of Delta00"),
    RegistryEntry("T1T0Delta01", "K1 < K2 and K2 < 2*K1",
                  "K1 < Klast and Klast < 2*K1",
                  note="two-step image of Delta01"),
    RegistryEntry("T0T1Delta10", "2*K2 < K1",
                  "Klast < Ksecondlast and Klast < K1",
                  note="two-step image of Delta10"),
    RegistryEntry("T1T1Delta11", "2*K1 < K2", "2*K1 < Klast",
                  note="two-step image of Delta11"),
    RegistryEntry("D", uniform="forall i: K[i] = 1",
                  note="distinct parts (all multiplicities one)"),
    RegistryEntry("E0", uniform="dim >= 2 and K1 = 2 and (forall i: i = 1 or K[i] = 1)",
                  note="distinct except the largest part, which repeats twice"),
    RegistryEntry("E1", uniform="dim >= 2 and Klast = 2 and (forall i: i = dim or K[i] = 1)",
                  note="distinct except the smallest part, which repeats twice"),
    RegistryEntry("ED", uniform=("dim >= 2 and K1 = 2 and Klast = 2"
                                 " and (forall i: i = 1 or i = dim or K[i] = 1)"),
                  note="distinct except both extreme parts, each repeating twice"),
    RegistryEntry("O", uniform="forall i: odd(L[i])",
                  note="all parts odd"),
    RegistryEntry("F0", uniform=("dim >= 2 and even(Llast) and K1 > Klast"
                                 " and (forall i: i = dim or odd(L[i]))"),
                  note="odd parts except an even smallest, with K1 > Klast"),
    RegistryEntry("F1", uniform=("dim >= 2 and even(L1) and K1 < Klast"
                                 " and (forall i: i = 1 or odd(L[i]))"),
                  note="odd parts except an even largest, with K1 < Klast"),
]

_REGISTRY = {entry.name: entry for entry in _ENTRIES}

# parameterized family -> the name of its builder below, looked up when
# builtin runs, so a builder wrapped after import is the one called
_FAMILIES = {"Delta0Off": "delta0_offset", "Delta1Off": "delta1_offset", "GaussG": "gauss_set"}
_FAMILY_LOW = 1  # the least parameter a family name takes; see SetParameterError

_PARAM_RE = re.compile(rf"^({'|'.join(_FAMILIES)})\((\d+)\)$")

_predicate_cache: dict[str, SetPredicate] = {}


def names() -> list[str]:
    """Registered set names (parameterized families excluded)."""
    return [entry.name for entry in _ENTRIES]


def entry(name: str) -> RegistryEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSetError(name) from None


def delta0_offset(d: int) -> SetPredicate:
    """Partitions with L2 + Llast exceeding L1 by exactly d (d >= 1)."""
    check_whole(d, 1, "offset d must be >= 1, got {!r}")
    return parse_predicate(f"dim >= 2 and L2 + Llast = L1 + {d}")


def delta1_offset(d: int) -> SetPredicate:
    """Partitions with L1 exceeding L2 + Llast by exactly d (d >= 1)."""
    check_whole(d, 1, "offset d must be >= 1, got {!r}")
    return parse_predicate(f"dim >= 2 and L1 = L2 + Llast + {d}")


def gauss_set(d: int) -> SetPredicate:
    """The band L1 - L2 - d*Llast > 0 > L1 - L2 - (d+1)*Llast.

    For d = 0 this degenerates to the below-diagonal cone, which is why
    iterating the second branch d times lands there (``gauss_step_image(d, d)``
    builds on it); the name ``GaussG(0)`` is refused, as ``Delta0`` names that set.
    """
    check_whole(d, 0, "d must be >= 0, got {!r}")
    return parse_predicate(
        f"dim >= 2 and L1 - L2 - {d}*Llast > 0 and L1 - L2 - {d + 1}*Llast < 0"
    )


def builtin(name: str) -> SetPredicate:
    """Look up a registered set, including parameterized names like GaussG(2); a family
    name takes d >= ``_FAMILY_LOW``, so ``GaussG(0)`` is refused though ``gauss_set(0)``
    is not (see :class:`SetParameterError`)."""
    cached = _predicate_cache.get(name)
    if cached is not None:
        return cached
    if name in _REGISTRY:
        pred = _REGISTRY[name].predicate()
    else:
        m = _PARAM_RE.match(name)
        if m is None:
            raise UnknownSetError(name)
        family, d = m.group(1), int(m.group(2))
        if d < _FAMILY_LOW:
            raise SetParameterError(f"set {name}: parameter must be >= {_FAMILY_LOW}")
        pred = globals()[_FAMILIES[family]](d)
    _predicate_cache[name] = pred
    return pred


def parse_set_expression(text: str) -> SetPredicate:
    """Parse predicate text that may also reference registered set names.

    ``"D and Delta0"`` or ``"GaussG(2) and K1 = 1"`` work here; plain
    :func:`tripart.dsl.parse_predicate` knows nothing about the registry.
    A name that is not registered is an unknown symbol; a family name
    with a bad parameter, like ``GaussG(0)``, keeps builtin's reason.
    """

    def resolve(name: str):
        if name not in _REGISTRY and _PARAM_RE.match(name) is None:
            return None
        return builtin(name).root

    return SetPredicate(_Parser(text, resolve=resolve).parse())


def registry_json() -> list[dict]:
    """The registry as documentation-friendly JSON."""
    out = []
    for e in _ENTRIES:
        out.append({
            "name": e.name,
            "dim2": e.dim2 if e.uniform is None else e.uniform,
            "dim3": e.dim3 if e.uniform is None else e.uniform,
            "uniform": e.uniform is not None,
            "note": e.note,
        })
    return out


class _Form(tuple):
    """Coefficients of a linear form in L1..Lm; forms subtract elementwise."""

    def __sub__(self, other):
        return _Form(a - b for a, b in zip(self, other))


def _cone(word: tuple[int, ...], m: int, syms: dict[int, Sym]) -> tuple[Cmp, ...]:
    """Each letter's class test in dimension m, as an atom ``c.L > 0``.

    Position j holds a linear form in L1..Lm, and each letter steps the
    forms with the map's own moves, ``core._below`` and ``core._above``,
    after its class test reads positions 1, 2 and last.  A test reading
    a position that ``syms`` does not name is a KeyError.
    """
    vecs = tuple(_Form(int(i == j) for j in range(m)) for i in range(m))
    atoms = []
    for letter in word:
        below = [b + z - a for a, b, z in zip(vecs[0], vecs[1], vecs[-1])]
        sign = 1 if letter == 0 else -1
        terms = tuple((sign * c, syms[j]) for j, c in enumerate(below) if c)
        atoms.append(Cmp(LinExpr(terms), ">", LinExpr(())))
        vecs = (_below if letter == 0 else _above)(vecs)
    return tuple(atoms)


def cylinder(word: Sequence[int]) -> SetPredicate:
    """The set of partitions following the branch word under iteration.

    Its class must match each letter in turn (the diagonal matches
    neither) as that letter's branch applies.  For a word of length k,
    :func:`_cone` gives one ``dim = m`` form per m in 2..k and one
    ``dim >= k+1`` form, which reads only ``L1..L(k+1)`` and ``Llast``.
    """
    letters = tuple(word)
    if not letters:
        raise EmptyWordError("cylinder words need at least one letter")
    for letter in letters:
        if type(letter) is not int or letter not in (0, 1):
            raise InputError(f"cylinder letters must be 0 or 1, got {letter!r}")
    k = len(letters)
    syms = {j: Sym("L", j + 1) for j in range(k + 1)}
    dim = LinExpr(((1, Sym("dim")),))
    pieces = [And((Cmp(dim, "=", LinExpr((), m)),) + _cone(letters, m, syms))
              for m in range(2, k + 1)]
    # a dimension large enough that the tests read no later position
    wide = _cone(letters, 2 * k + 2, syms | {2 * k + 1: Sym("L", -1)})
    pieces.append(And((Cmp(dim, ">=", LinExpr((), k + 1)),) + wide))
    return SetPredicate(pieces[0] if k == 1 else Or(tuple(pieces)))
