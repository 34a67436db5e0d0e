"""Enumeration-backed verification of partition identities.

Everything here counts by exhaustive enumeration; nothing trusts a
closed form.  Reports carry per-n counts, a verdict per asserted
equality and, on failure, the first counterexample n together with the
symmetric difference of the two filtered sets so a falsified claim is
immediately diagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Partition, PartitionClass
from .dsl import SetPredicate, compile_columns, parse_predicate
from .enumeration import filter_partitions, iter_raw
from .sets import builtin, gauss_set
from . import trimap


class NonPositiveOffsetError(ValueError):
    """The offset parameter d must be at least 1."""


class BranchMismatchError(ValueError):
    """A route letter disagrees with the classification of a partition."""


class NotInjectiveError(ValueError):
    """Two domain members hit the same image."""


class NotOntoError(ValueError):
    """The image set differs from the declared codomain."""


@dataclass(frozen=True)
class EqualityCheck:
    """One asserted per-n equality with its verdict."""

    label: str
    passed: bool
    first_failure: int | None = None
    lhs_count: int | None = None
    rhs_count: int | None = None
    only_lhs: tuple[Partition, ...] = ()
    only_rhs: tuple[Partition, ...] = ()

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


@dataclass(frozen=True)
class CountReport:
    """Per-n counts of named sets plus equality verdicts."""

    n_lo: int
    n_hi: int
    columns: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    checks: tuple[EqualityCheck, ...]
    notes: tuple[str, ...] = ()

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
    """Counts of several sets in one enumeration pass per n."""
    sweep = compile_columns(preds)
    return [sweep(iter_raw(n)) for n in range(n_lo, n_hi + 1)]


def odd_divisor_count(n: int) -> int:
    """Number of odd divisors of n, by trial division."""
    return sum(1 for d in range(1, n + 1, 2) if n % d == 0)


def _symmetric_difference(a, b, n):
    left = filter_partitions(n, a)
    right = filter_partitions(n, b)
    right_set = set(right.items)
    left_set = set(left.items)
    only_a = tuple(p for p in left if p not in right_set)
    only_b = tuple(p for p in right if p not in left_set)
    return only_a, only_b


def _set_equality_check(label, a, b, col_a, col_b, rows, n_lo) -> EqualityCheck:
    for offset, row in enumerate(rows):
        if row[col_a] != row[col_b]:
            n = n_lo + offset
            only_a, only_b = _symmetric_difference(a, b, n)
            return EqualityCheck(
                label,
                passed=False,
                first_failure=n,
                lhs_count=row[col_a],
                rhs_count=row[col_b],
                only_lhs=only_a,
                only_rhs=only_b,
            )
    return EqualityCheck(label, passed=True)


def verify_equicount(a, b, n_max: int, names: tuple[str, str] = ("A", "B")) -> CountReport:
    """Check p_A(n) = p_B(n) for 1 <= n <= n_max."""
    rows = tuple(count_columns([a, b], 1, n_max))
    check = _set_equality_check(f"{names[0]} = {names[1]}", a, b, 0, 1, rows, 1)
    return CountReport(1, n_max, tuple(names), rows, (check,))


def _offset_image0(d: int) -> SetPredicate:
    return parse_predicate(f"dim >= 2 and K1 > Klast and Lsecondlast = Llast + {d}")


def _offset_image1(d: int) -> SetPredicate:
    return parse_predicate(f"dim >= 2 and K1 < Klast and L1 = L2 + {d}")


def verify_offset_theorem(d: int, n_max: int) -> CountReport:
    """Both halves of the offset identity for one d.

    Partitions with L2 + Llast = L1 + d are equinumerous with those
    having K1 > Klast and Lsecondlast = Llast + d; partitions with
    L1 = L2 + Llast + d with those having K1 < Klast and L1 = L2 + d.
    """
    if d < 1:
        raise NonPositiveOffsetError(f"d must be >= 1, got {d}")
    from .sets import delta0_offset, delta1_offset

    preds = [delta0_offset(d), _offset_image0(d), delta1_offset(d), _offset_image1(d)]
    columns = (
        f"Delta0Off({d})", f"M0&gap({d})",
        f"Delta1Off({d})", f"M1&gap({d})",
    )
    rows = tuple(count_columns(preds, 1, n_max))
    checks = (
        _set_equality_check(f"{columns[0]} = {columns[1]}",
                            preds[0], preds[1], 0, 1, rows, 1),
        _set_equality_check(f"{columns[2]} = {columns[3]}",
                            preds[2], preds[3], 2, 3, rows, 1),
    )
    return CountReport(1, n_max, columns, rows, checks)


_CYLINDER_IMAGES = {
    "00": ("T0Delta00", "T0T0Delta00"),
    "01": ("T0Delta01", "T1T0Delta01"),
    "10": ("T1Delta10", "T0T1Delta10"),
    "11": ("T1Delta11", "T1T1Delta11"),
}


def verify_cylinder_theorems(n_max: int, steps: int | None = None) -> CountReport:
    """Equicounts for the four length-two branch words.

    ``steps`` limits the report to the one-step or two-step images;
    the default checks both, eight verdicts in all.
    """
    wanted = (1, 2) if steps is None else (steps,)
    preds = []
    columns = []
    plan = []  # (word, base_col, image_col, image_name)
    for word in ("00", "01", "10", "11"):
        base = builtin("Delta" + word)
        base_col = len(preds)
        preds.append(base)
        columns.append("Delta" + word)
        for step in wanted:
            image_name = _CYLINDER_IMAGES[word][step - 1]
            plan.append((word, base_col, len(preds), image_name))
            preds.append(builtin(image_name))
            columns.append(image_name)
    rows = tuple(count_columns(preds, 1, n_max))
    checks = tuple(
        _set_equality_check(
            f"Delta{word} = {image_name}",
            preds[base_col], preds[image_col], base_col, image_col, rows, 1,
        )
        for word, base_col, image_col, image_name in plan
    )
    return CountReport(1, n_max, tuple(columns), rows, checks)


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
    if d < 1:
        raise NonPositiveOffsetError(f"d must be >= 1, got {d}")
    base = gauss_set(d)
    preds = [base]
    columns = [f"GaussG({d})"]
    for p in range(0, d + 1):
        preds.append(gauss_step_image(d, p))
        columns.append(f"T1^{p}(GaussG({d}))")
    preds.append(gauss_final_image(d))
    columns.append(f"T0T1^{d}(GaussG({d}))")
    reported = len(preds)
    # extra columns (not reported) feeding the general-p applicability notes
    below = builtin("Delta0")
    for p in range(0, d):
        preds.append(gauss_step_image(d, p) & below)
    full_rows = count_columns(preds, 1, n_max)
    rows = tuple(row[:reported] for row in full_rows)
    checks = tuple(
        _set_equality_check(f"{columns[0]} = {columns[j]}",
                            preds[0], preds[j], 0, j, rows, 1)
        for j in range(1, reported)
    )
    notes = []
    for p in range(0, d):
        applicable = sum(row[reported + p] for row in full_rows)
        notes.append(
            f"T0 after T1^{p} (p < d): image stays above the diagonal; "
            f"{applicable} applicable members for n <= {n_max}"
        )
    return CountReport(1, n_max, tuple(columns), rows, checks, tuple(notes))


def verify_distinct_theorem(n_max: int) -> CountReport:
    """Distinct-parts decomposition with arithmetic correction terms.

    Per n: |D| = 1 + |E0| + |E1| + |ED| + [3 divides n].  The leading 1
    counts (n)x[1] and the divisibility term counts (n/3)x[3]; both are
    dimension-one families the map never reaches, so they are computed
    arithmetically rather than by enumeration.
    """
    preds = [builtin("D"), builtin("E0"), builtin("E1"), builtin("ED")]
    rows = []
    checks_fail = None
    for offset, counted in enumerate(count_columns(preds, 1, n_max)):
        n = offset + 1
        corr = 1 + (1 if n % 3 == 0 else 0)
        rows.append(counted + (corr,))
        rhs = counted[1] + counted[2] + counted[3] + corr
        if checks_fail is None and counted[0] != rhs:
            checks_fail = (n, counted[0], rhs)
    label = "D = 1 + E0 + E1 + ED + [3|n]"
    if checks_fail is None:
        check = EqualityCheck(label, passed=True)
    else:
        n, lhs, rhs = checks_fail
        check = EqualityCheck(label, passed=False, first_failure=n,
                              lhs_count=lhs, rhs_count=rhs)
    return CountReport(1, n_max, ("D", "E0", "E1", "ED", "corr"), tuple(rows), (check,))


def verify_odd_theorem(n_max: int) -> CountReport:
    """Odd-parts decomposition: |O| = (odd divisors of n) + |F0| + |F1|."""
    preds = [builtin("O"), builtin("F0"), builtin("F1")]
    rows = []
    fail = None
    for offset, counted in enumerate(count_columns(preds, 1, n_max)):
        n = offset + 1
        divisors = odd_divisor_count(n)
        rows.append(counted + (divisors,))
        rhs = divisors + counted[1] + counted[2]
        if fail is None and counted[0] != rhs:
            fail = (n, counted[0], rhs)
    label = "O = oddDivisors + F0 + F1"
    if fail is None:
        check = EqualityCheck(label, passed=True)
    else:
        check = EqualityCheck(label, passed=False, first_failure=fail[0],
                              lhs_count=fail[1], rhs_count=fail[2])
    return CountReport(1, n_max, ("O", "F0", "F1", "oddDiv"), tuple(rows), (check,))


def verify_euler_chain(n_max: int) -> CountReport:
    """The full three-way chain: distinct = odd = both decompositions."""
    preds = [builtin("D"), builtin("O"), builtin("E0"), builtin("E1"),
             builtin("ED"), builtin("F0"), builtin("F1")]
    columns = ("D", "O", "E0", "E1", "ED", "F0", "F1", "corr", "oddDiv")
    rows = []
    fails: dict[str, tuple] = {}
    for offset, counted in enumerate(count_columns(preds, 1, n_max)):
        n = offset + 1
        corr = 1 + (1 if n % 3 == 0 else 0)
        divisors = odd_divisor_count(n)
        rows.append(counted + (corr, divisors))
        d_count, o_count, e0, e1, ed, f0, f1 = counted
        if "D = O" not in fails and d_count != o_count:
            fails["D = O"] = (n, d_count, o_count)
        rhs_d = corr + e0 + e1 + ed
        if "D = 1 + E0 + E1 + ED + [3|n]" not in fails and d_count != rhs_d:
            fails["D = 1 + E0 + E1 + ED + [3|n]"] = (n, d_count, rhs_d)
        rhs_o = divisors + f0 + f1
        if "O = oddDivisors + F0 + F1" not in fails and o_count != rhs_o:
            fails["O = oddDivisors + F0 + F1"] = (n, o_count, rhs_o)
    checks = []
    for label in ("D = O", "D = 1 + E0 + E1 + ED + [3|n]", "O = oddDivisors + F0 + F1"):
        if label in fails:
            n, lhs, rhs = fails[label]
            checks.append(EqualityCheck(label, passed=False, first_failure=n,
                                        lhs_count=lhs, rhs_count=rhs))
        else:
            checks.append(EqualityCheck(label, passed=True))
    return CountReport(1, n_max, columns, tuple(rows), tuple(checks))


@dataclass(frozen=True)
class BijectionCertificate:
    """An explicit size-preserving pairing between two sets at one n."""

    n: int
    domain_name: str
    codomain_name: str
    route: tuple
    pairs: tuple[tuple[Partition, tuple[trimap.Branch, ...], Partition], ...]

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


_ROUTE_CLASS = {
    0: PartitionClass.DELTA0,
    1: PartitionClass.DELTA1,
    "D": PartitionClass.DELTA_D,
}

_ROUTE_APPLY = {
    0: (trimap.Branch.T0, trimap.apply_t0),
    1: (trimap.Branch.T1, trimap.apply_t1),
    "D": (trimap.Branch.TD, trimap.apply_td),
}


def parse_route(text: str) -> tuple:
    """Parse a route word like "0", "01" or "d" into route letters."""
    route = []
    for ch in text:
        if ch == "0":
            route.append(0)
        elif ch == "1":
            route.append(1)
        elif ch in ("d", "D"):
            route.append("D")
        else:
            raise ValueError(f"route letters are 0, 1 or d; got {ch!r}")
    if not route:
        raise ValueError("empty route")
    return tuple(route)


def certify_bijection(
    domain,
    codomain,
    route: Sequence,
    n: int,
    names: tuple[str, str] = ("domain", "codomain"),
) -> BijectionCertificate:
    """Apply the route to every domain member and verify a bijection.

    Fails loudly: a route letter disagreeing with a classification, a
    collision, or an image set differing from the codomain each raise,
    naming the offending partition.
    """
    route = tuple(route)
    sources = filter_partitions(n, domain)
    target = filter_partitions(n, codomain)
    pairs = []
    seen: dict[Partition, Partition] = {}
    for p in sources:
        current = p
        branches = []
        for letter in route:
            expected = _ROUTE_CLASS[letter]
            actual = current.classify()
            if actual is not expected:
                raise BranchMismatchError(
                    f"{current} (reached from {p}) is {actual}, "
                    f"but the route letter asks for {expected}"
                )
            branch, fn = _ROUTE_APPLY[letter]
            branches.append(branch)
            current = fn(current)
        if current in seen:
            raise NotInjectiveError(
                f"{p} and {seen[current]} both map to {current}"
            )
        seen[current] = p
        pairs.append((p, tuple(branches), current))
    target_set = set(target.items)
    for _, _, img in pairs:
        if img not in target_set:
            raise NotOntoError(f"image {img} lies outside {names[1]} at n={n}")
    image_set = set(seen)
    for q in target:
        if q not in image_set:
            raise NotOntoError(f"{names[1]} member {q} is not hit at n={n}")
    return BijectionCertificate(n, names[0], names[1], route, tuple(pairs))
