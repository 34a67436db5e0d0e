"""Enumeration-backed verification of partition identities.

Everything here counts by exhaustive enumeration; nothing trusts a
closed form.  Every theorem verifier is a declaration checked by one
shared checker: named set columns, counted together in one enumeration
pass per n; optional named arithmetic columns, functions of n such as
the odd-divisor count, appended after them; and linear relations
``lhs = sum(rhs)`` between column names.  Reports carry per-n counts, a
verdict per relation and, on failure, the first counterexample n with
both sides; a failed set-versus-set relation also names the partitions
in only one of the two sets, so a falsified claim is diagnosable.
"""

from __future__ import annotations

from typing import Sequence

from .core import _DELTA0, _DELTA1, _DELTA_D, InputError, Partition, Record, check_whole
from .dsl import SetPredicate, compile_columns, parse_predicate
from .enumeration import filter_partitions, iter_raw
from .sets import builtin, delta0_offset, delta1_offset, gauss_set
from . import trimap


class NonPositiveOffsetError(InputError):
    """The offset parameter d must be at least 1."""


class BranchMismatchError(ValueError):
    """A route letter disagrees with the classification of a partition."""


class NotInjectiveError(ValueError):
    """Two domain members hit the same image."""


class NotOntoError(ValueError):
    """The image set differs from the declared codomain."""


class EqualityCheck(Record):
    """One asserted per-n equality with its verdict.  A failure sets ``first_failure``,
    the first failing n, and the int count of each side there; ``only_lhs`` and
    ``only_rhs`` are tuples of the Partitions that lie in one side only."""

    __slots__ = ("label", "passed", "first_failure", "lhs_count", "rhs_count",
                 "only_lhs", "only_rhs")
    _defaults = {"first_failure": None, "lhs_count": None, "rhs_count": None,
                 "only_lhs": (), "only_rhs": ()}

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "passed": self.passed,
            "first_failure": self.first_failure,
            "lhs_count": self.lhs_count,
            "rhs_count": self.rhs_count,
            "only_lhs": [str(p) for p in self.only_lhs],
            "only_rhs": [str(p) for p in self.only_rhs],
        }


class CountReport(Record):
    """Per-n counts of named sets plus equality verdicts.  ``rows`` holds one tuple
    of int counts per n, in the order of the names in ``columns``; ``checks`` is a
    tuple of EqualityChecks and ``notes`` one of strings."""

    __slots__ = ("n_lo", "n_hi", "columns", "rows", "checks", "notes")
    _defaults = {"notes": ()}

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "checks": [check.to_json() for check in self.checks],
            "notes": list(self.notes),
            "passed": self.passed,
        }


def count_set(pred, n: int) -> int:
    """Number of partitions of n in the set: p_S(n) by brute force."""
    return compile_columns([pred])(iter_raw(n))[0]


def count_columns(preds: Sequence, n_lo: int, n_hi: int) -> list[tuple[int, ...]]:
    """Counts of several sets in one enumeration pass per n, for n_lo <= n <= n_hi;
    an empty range is an :class:`InputError`, as it is for every verifier."""
    check_whole(n_lo, 1, "n_lo must be at least 1, got {!r}")
    check_whole(n_hi, n_lo, f"n_hi must be at least n_lo={n_lo}, got {{!r}}")
    sweep = compile_columns(preds)
    return [sweep(iter_raw(n)) for n in range(n_lo, n_hi + 1)]


def odd_divisor_count(n: int) -> int:
    """Number of odd divisors of n, by trial division."""
    return sum(1 for d in range(1, n + 1, 2) if n % d == 0)


def _unpaired_distinct_count(n: int) -> int:
    """1 + [3 divides n]: the families (n)x[1] and (2a,a)x[1,1] with n = 3a."""
    return 1 + (n % 3 == 0)


def _equal(lhs: str, rhs: str):
    """The relation column lhs = column rhs, labelled by the column names."""
    return (f"{lhs} = {rhs}", lhs, (rhs,))


# the arithmetic decompositions, by column name
_DISTINCT = ("D = 1 + E0 + E1 + ED + [3|n]", "D", ("corr", "E0", "E1", "ED"))
_ODD = ("O = oddDivisors + F0 + F1", "O", ("oddDiv", "F0", "F1"))


def _builtins(*names: str) -> list:
    """Registered sets as ``(name, set)`` columns."""
    return [(name, builtin(name)) for name in names]


_N_MAX = "n_max must be at least 1, got {!r}"


def _check(columns, relations, n_max: int, arithmetic=()) -> CountReport:
    """Count the set columns, then test every relation for 1 <= n <= n_max.

    ``columns`` are ``(name, set)`` pairs, counted together in one
    enumeration pass per n; ``arithmetic`` holds ``(name, f)`` pairs whose
    values f(n) are appended after them.  A relation ``(label, lhs, rhs)``
    asserts that the column named lhs equals the sum of the columns named
    in rhs.  Its first failing n is reported with both sides; when both
    sides are single set columns, the partitions on only one side are
    named too.  An ``n_max`` below 1 is an :class:`InputError`: an empty
    range would pass every relation vacuously.
    """
    check_whole(n_max, 1, _N_MAX)
    names = tuple(name for name, _ in (*columns, *arithmetic))
    where = {name: i for i, name in enumerate(names)}
    preds = [pred for _, pred in columns]
    rows = [
        counted + tuple(f(n) for _, f in arithmetic)
        for n, counted in enumerate(count_columns(preds, 1, n_max), 1)
    ]
    checks = []
    for label, lhs_name, rhs_names in relations:
        lhs, rhs = where[lhs_name], [where[name] for name in rhs_names]
        for n, row in enumerate(rows, 1):
            total = sum(row[j] for j in rhs)
            if row[lhs] != total:
                only_lhs = only_rhs = ()
                if len(rhs) == 1 and max(lhs, rhs[0]) < len(preds):
                    # n may lie above the desk ceiling when the caller raised it
                    left = filter_partitions(n, preds[lhs], ceiling=n).items
                    right = filter_partitions(n, preds[rhs[0]], ceiling=n).items
                    left_set, right_set = set(left), set(right)
                    only_lhs = tuple(p for p in left if p not in right_set)
                    only_rhs = tuple(p for p in right if p not in left_set)
                checks.append(EqualityCheck(
                    label, passed=False, first_failure=n, lhs_count=row[lhs],
                    rhs_count=total, only_lhs=only_lhs, only_rhs=only_rhs,
                ))
                break
        else:
            checks.append(EqualityCheck(label, passed=True))
    return CountReport(1, n_max, names, tuple(rows), tuple(checks))


def verify_equicount(a, b, n_max: int, names: tuple[str, str] = ("A", "B")) -> CountReport:
    """Check p_A(n) = p_B(n) for 1 <= n <= n_max."""
    # keyed apart, since the two names may be the same text
    report = _check([("A", a), ("B", b)], [(f"{names[0]} = {names[1]}", "A", ("B",))], n_max)
    return report._replace(columns=tuple(names))


def _offset_image0(d: int) -> SetPredicate:
    return parse_predicate(f"dim >= 2 and K1 > Klast and Lsecondlast = Llast + {d}")


def _offset_image1(d: int) -> SetPredicate:
    return parse_predicate(f"dim >= 2 and K1 < Klast and L1 = L2 + {d}")


def _check_offset(d: int, n_max: int) -> None:
    check_whole(d, 1, "d must be >= 1, got {!r}", NonPositiveOffsetError)
    check_whole(n_max, 1, _N_MAX)
    # the offset sets and GaussG(d) have no member below n = d + 3
    if d > n_max:
        raise InputError(f"d must not exceed n_max, got d={d} and n_max={n_max};"
                         " every count would be 0")


def verify_offset_theorem(d: int, n_max: int) -> CountReport:
    """Both halves of the offset identity for one d.

    Partitions with L2 + Llast = L1 + d are equinumerous with those
    having K1 > Klast and Lsecondlast = Llast + d; partitions with
    L1 = L2 + Llast + d with those having K1 < Klast and L1 = L2 + d.
    """
    _check_offset(d, n_max)
    off0, gap0, off1, gap1 = f"Delta0Off({d})", f"M0&gap({d})", f"Delta1Off({d})", f"M1&gap({d})"
    columns = [(off0, delta0_offset(d)), (gap0, _offset_image0(d)),
               (off1, delta1_offset(d)), (gap1, _offset_image1(d))]
    return _check(columns, [_equal(off0, gap0), _equal(off1, gap1)], n_max)


def verify_cylinder_theorems(n_max: int, steps: int | None = None) -> CountReport:
    """Equicounts for the four length-two branch words.

    ``steps`` limits the report to the one-step or two-step images;
    the default checks both, eight verdicts in all.  The image of
    ``Delta<word>`` after k letters is the registered set named by the
    branches applied, last first: ``T1T0Delta01`` for two steps on 01.
    Any other ``steps`` raises :class:`~tripart.core.InputError`.
    """
    if steps is not None and (type(steps) is not int or steps not in (1, 2)):
        raise InputError(f"steps must be 1 or 2, or None for both; got {steps!r}")
    wanted = (1, 2) if steps is None else (steps,)
    columns, relations = [], []
    for word in ("00", "01", "10", "11"):
        base = "Delta" + word
        images = ["".join("T" + c for c in word[step - 1::-1]) + base for step in wanted]
        columns += _builtins(base, *images)
        relations += [_equal(base, image) for image in images]
    return _check(columns, relations, n_max)


def gauss_step_image(d: int, p: int) -> SetPredicate:
    """Image of the d-band under p applications of the second branch."""
    return gauss_set(d - p) & parse_predicate(f"{p}*K1 < Klast")


def gauss_final_image(d: int) -> SetPredicate:
    """Image of the d-band under the full route: d second-branch steps, one first.

    In dimension two the two multiplicity constraints collapse onto the
    same pair, giving (d+1)*K2 < K1.
    """
    return parse_predicate(
        f"(dim = 2 and {d + 1}*K2 < K1)"
        f" or (dim >= 3 and {d}*Klast < Ksecondlast and Klast < K1)"
    )


def verify_gauss_theorem(d: int, n_max: int) -> CountReport:
    """Equicounts along the band route for one d.

    Checks the d-band against each p-step image (0 <= p <= d) and the
    final image.  For p < d the p-step image still lies above the
    diagonal, so composing the first branch there is inapplicable; the
    report notes the observed count of applicable members instead of
    asserting anything about that composite.
    """
    _check_offset(d, n_max)
    band = f"GaussG({d})"
    shown = [(band, gauss_set(d))]
    shown += [(f"T1^{p}({band})", gauss_step_image(d, p)) for p in range(0, d + 1)]
    shown.append((f"T0T1^{d}({band})", gauss_final_image(d)))
    # hidden columns, counted in the same sweep, feeding the applicability notes
    below = builtin("Delta0")
    hidden = [(f"T1^{p}({band}) & Delta0", gauss_step_image(d, p) & below) for p in range(0, d)]
    report = _check(shown + hidden, [_equal(band, name) for name, _ in shown[1:]], n_max)
    width = len(shown)
    notes = tuple(
        f"T0 after T1^{p} (p < d): image stays above the diagonal; "
        f"{sum(row[width + p] for row in report.rows)} applicable members for n <= {n_max}"
        for p in range(0, d)
    )
    return report._replace(columns=report.columns[:width],
                           rows=tuple(row[:width] for row in report.rows), notes=notes)


def verify_distinct_theorem(n_max: int) -> CountReport:
    """Distinct-parts decomposition with arithmetic correction terms.

    Per n: |D| = 1 + |E0| + |E1| + |ED| + [3 divides n].  The leading 1
    counts (n)x[1] and the divisibility term counts (2a,a)x[1,1], n = 3a,
    which TD sends to (a)x[3], outside ED.  No route pairs either family
    with an E set, so both are computed arithmetically, not by enumeration.
    """
    return _check(_builtins("D", "E0", "E1", "ED"), [_DISTINCT], n_max,
                  arithmetic=[("corr", _unpaired_distinct_count)])


def verify_odd_theorem(n_max: int) -> CountReport:
    """Odd-parts decomposition: |O| = (odd divisors of n) + |F0| + |F1|."""
    return _check(_builtins("O", "F0", "F1"), [_ODD], n_max,
                  arithmetic=[("oddDiv", odd_divisor_count)])


def verify_euler_chain(n_max: int) -> CountReport:
    """The full three-way chain: distinct = odd = both decompositions."""
    return _check(
        _builtins("D", "O", "E0", "E1", "ED", "F0", "F1"), [_equal("D", "O"), _DISTINCT, _ODD],
        n_max, arithmetic=[("corr", _unpaired_distinct_count), ("oddDiv", odd_divisor_count)],
    )


class BijectionCertificate(Record):
    """An explicit size-preserving pairing between two sets at one n.  ``route`` is
    a tuple of route letters, 0, 1 or "D"; ``pairs`` holds one tuple ``(source,
    branches, image)`` per domain member: two Partitions and the Branches fired."""

    __slots__ = ("n", "domain_name", "codomain_name", "route", "pairs")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "domain": self.domain_name,
            "codomain": self.codomain_name,
            "route": [str(r) for r in self.route],
            "pairs": [
                {
                    "source": str(src),
                    "branches": [str(b) for b in branches],
                    "image": str(img),
                }
                for src, branches, img in self.pairs
            ],
        }


# What each route letter requires and does: the class its partition must
# be in, the branch it records and the map branch it applies.  Each
# branch refuses a partition outside its class, so certification
# classifies once per step, inside the branch.
_ROUTE = {
    0: (_DELTA0, trimap.Branch.T0, trimap.apply_t0),
    1: (_DELTA1, trimap.Branch.T1, trimap.apply_t1),
    "D": (_DELTA_D, trimap.Branch.TD, trimap.apply_td),
}
_ROUTE_TEXT = {"0": 0, "1": 1, "d": "D", "D": "D"}


def parse_route(text: str) -> tuple:
    """Parse a route word like "0", "01" or "d" into route letters."""
    route = tuple(_ROUTE_TEXT.get(ch, ch) for ch in text)
    _route_steps(route)
    if not route:
        raise InputError("empty route")
    return route


def _route_steps(route: tuple) -> list:
    """Each letter's ``_ROUTE`` entry; by exact type, so True and 1.0 are no letters."""
    for letter in route:
        if type(letter) not in (int, str) or letter not in _ROUTE:
            raise InputError(f"route letters are 0, 1 or d; got {letter!r}")
    return [_ROUTE[letter] for letter in route]


def certify_bijection(
    domain,
    codomain,
    route: Sequence,
    n: int,
    names: tuple[str, str] = ("domain", "codomain"),
    *,
    ceiling: int | None = None,
) -> BijectionCertificate:
    """Apply the route to every domain member and verify a bijection.

    Fails loudly: a route letter disagreeing with a classification, a
    collision, or an image set differing from the codomain each raise,
    naming the offending partition.  ``ceiling`` is passed to
    :func:`~tripart.enumeration.filter_partitions` for both sets.
    """
    route = tuple(route)
    steps = _route_steps(route)
    sources = filter_partitions(n, domain, ceiling=ceiling)
    target = filter_partitions(n, codomain, ceiling=ceiling)
    branches = tuple(branch for _, branch, _ in steps)
    pairs = []
    # keyed on (parts, mults): tuples hash and compare in C, Partitions
    # through Partition's Python __hash__ and __eq__
    seen: dict[tuple, Partition] = {}
    for p in sources:
        current = p
        for expected, _, apply in steps:
            try:
                current = apply(current)
            except trimap.WrongBranchError:
                raise BranchMismatchError(
                    f"{current} (reached from {p}) is {current.classify()}, "
                    f"but the route letter asks for {expected}"
                ) from None
        key = (current.parts, current.mults)
        if key in seen:
            raise NotInjectiveError(
                f"{p} and {seen[key]} both map to {current}"
            )
        seen[key] = p
        pairs.append((p, branches, current))
    target_keys = {(q.parts, q.mults) for q in target}
    for _, _, img in pairs:
        if (img.parts, img.mults) not in target_keys:
            raise NotOntoError(f"image {img} lies outside {names[1]} at n={n}")
    for q in target:
        if (q.parts, q.mults) not in seen:
            raise NotOntoError(f"{names[1]} member {q} is not hit at n={n}")
    return BijectionCertificate(n, names[0], names[1], route, tuple(pairs))
