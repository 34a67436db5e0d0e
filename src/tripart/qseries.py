"""Generating-function coefficients with enumeration as the arbiter.

Coefficients are exact integers throughout.  Each counting series can
be computed along at least two independent routes: a truncated product
or closed-form expansion here, and a brute-force count of the matching
set (:func:`set_series`).  The test suite holds the routes equal
coefficientwise; a closed form disagreeing with enumeration is a bug,
never a tolerance.  Every product, whether of factors (1 + q^e) or
1/(1 - q^e), is multiplied out by :func:`expand_product` alone.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .core import ContractError, InputError, Record, check_whole
from .enumeration import iter_raw
from .dsl import compile_columns


class SeriesCoeffs(Record):
    """Coefficients c0..cN of a truncated formal power series in q, a tuple of ints."""

    __slots__ = ("coeffs",)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "SeriesCoeffs") -> "SeriesCoeffs":
        return SeriesCoeffs(tuple(a + b for a, b in self._pairs(other)))

    def __sub__(self, other: "SeriesCoeffs") -> "SeriesCoeffs":
        return SeriesCoeffs(tuple(a - b for a, b in self._pairs(other)))

    def _pairs(self, other: "SeriesCoeffs"):
        """The coefficients of both series side by side; their truncation orders must agree."""
        if len(self.coeffs) != len(other.coeffs):
            raise ContractError("series have different truncation orders")
        return zip(self.coeffs, other.coeffs)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": list(self.coeffs)}


_ORDER = "truncation order N must be non-negative, got {!r}"


def expand_partition_gf(N: int) -> SeriesCoeffs:
    """Coefficients of prod_m 1/(1-q^m): c_n = p(n), with c_0 = 1.

    Pure product expansion, independent of the enumerator.
    """
    check_whole(N, 0, _ORDER)
    return expand_product(((-1, m) for m in range(1, N + 1)), N)


def expand_product(factors: Iterable[tuple[int, int]], N: int) -> SeriesCoeffs:
    """Truncated product over (sign, exponent) factor descriptions.

    sign +1 multiplies by (1 + q^e); sign -1 multiplies by 1/(1 - q^e).
    Exponents must be positive; factors beyond the truncation order are
    inert and simply skipped.  Any other sign is an :class:`InputError`.
    """
    check_whole(N, 0, _ORDER)
    c = [1] + [0] * N
    for sign, e in factors:
        if type(sign) is not int or sign not in (1, -1):
            raise InputError(f"sign must be +1 or -1, got {sign!r}")
        check_whole(e, 1, "exponent must be positive, got {!r}")
        if e > N:
            continue
        # both factors add c[j - e] to c[j]: (1 + q^e) from the top down, so
        # each term is counted once, 1/(1 - q^e) from the bottom up
        for j in range(N, e - 1, -1) if sign > 0 else range(e, N + 1):
            c[j] += c[j - e]
    return SeriesCoeffs(tuple(c))


def distinct_parts_product(N: int) -> SeriesCoeffs:
    """prod_k (1 + q^k): counts partitions into distinct parts."""
    check_whole(N, 0, _ORDER)
    return expand_product(((1, k) for k in range(1, N + 1)), N)


def odd_parts_product(N: int) -> SeriesCoeffs:
    """prod_k 1/(1 - q^(2k+1)): counts partitions into odd parts."""
    check_whole(N, 0, _ORDER)
    return expand_product(((-1, k) for k in range(1, N + 1, 2)), N)


def _divisor_sieve(N: int, step: int) -> SeriesCoeffs:
    # c_n = number of divisors of n among 1, 1 + step, 1 + 2*step, ...
    check_whole(N, 0, _ORDER)
    c = [0] * (N + 1)
    for m in range(1, N + 1, step):
        for j in range(m, N + 1, m):
            c[j] += 1
    return SeriesCoeffs(tuple(c))


def divisor_series(N: int) -> SeriesCoeffs:
    """c_n = number of divisors of n (c_0 = 0); sum_m q^m/(1-q^m)."""
    return _divisor_sieve(N, 1)


def odd_divisor_series(N: int) -> SeriesCoeffs:
    """c_n = number of odd divisors of n; sum_k q^(2k+1)/(1-q^(2k+1))."""
    return _divisor_sieve(N, 2)


def ones_series(N: int) -> SeriesCoeffs:
    """1/(1-q): every coefficient 1, counting the family (n)x[1]."""
    return expand_product([(-1, 1)], N)


def multiples_series(step: int, N: int) -> SeriesCoeffs:
    """sum_k q^(step*k), k >= 1: indicator of positive multiples."""
    check_whole(N, 0, _ORDER)
    check_whole(step, 1, "step must be positive, got {!r}")
    return SeriesCoeffs(tuple(1 if n and n % step == 0 else 0 for n in range(N + 1)))


def set_series(pred, N: int) -> SeriesCoeffs:
    """c_n = p_S(n) by enumeration; the semantic ground truth."""
    return set_series_many([pred], N)[0]


def set_series_many(preds: Sequence, N: int) -> list[SeriesCoeffs]:
    """Series with c_0 = 0 for several sets in one enumeration pass; a set is a
    ``SetPredicate`` or any ``Partition -> bool`` callable, as for ``count_columns``."""
    check_whole(N, 0, _ORDER)
    sweep = compile_columns(preds)
    rows = [(0,) * len(preds)] + [sweep(iter_raw(n)) for n in range(1, N + 1)]
    return [SeriesCoeffs(col) for col in zip(*rows)]


def expand_E_series(which: str, N: int) -> SeriesCoeffs:
    """Closed-form series for the three near-distinct families.

    E0 (largest part doubled): sum over largest part v >= 2 of
    q^(2v) * (prod_{j<v}(1+q^j) - 1); the -1 removes the empty choice
    of smaller parts, which would be the dimension-one (v)x[2].

    E1 (smallest part doubled): sum over smallest part s >= 1 of
    q^(2s) * (prod_{j>s}(1+q^j) - 1).

    ED (both doubled): sum over s < v of q^(2s+2v) * prod_{s<j<v}(1+q^j).
    """
    check_whole(N, 0, _ORDER)
    # each term: (base exponent, parts that may join once, whether the
    # empty choice of them counts)
    if which == "E0":
        terms = ((2 * v, range(1, v), False) for v in range(2, N // 2 + 1))
    elif which == "E1":
        terms = ((2 * s, range(s + 1, N + 1), False) for s in range(1, N // 2 + 1))
    elif which == "ED":
        terms = ((2 * s + 2 * v, range(s + 1, v), True)
                 for s in range(1, N // 4 + 1) for v in range(s + 1, (N - 2 * s) // 2 + 1))
    else:
        raise InputError(f"which must be E0, E1 or ED, got {which!r}")
    acc = [0] * (N + 1)
    for base, free, empty in terms:
        prod = expand_product(((1, j) for j in free), N - base)
        for t in range(0 if empty else 1, N - base + 1):
            acc[base + t] += prod[t]
    return SeriesCoeffs(tuple(acc))


def support_series(
    condition: Callable[[tuple[int, ...]], bool],
    N: int,
    *,
    min_dim: int = 1,
    max_dim: int | None = None,
) -> SeriesCoeffs:
    """Sum of prod_i q^(l_i)/(1-q^(l_i)) over strictly decreasing supports.

    The condition sees the support (the distinct parts, decreasing);
    multiplicities stay free, which is exactly what the geometric
    factors encode.  This is the constrained-sum route for sets whose
    definition touches only the parts, independent of the enumerator.
    """
    check_whole(N, 0, _ORDER)
    acc = [0] * (N + 1)

    def recurse(prefix: tuple[int, ...], max_next: int) -> None:
        depth, base = len(prefix), sum(prefix)
        if depth >= min_dim and (max_dim is None or depth <= max_dim):
            if condition(prefix):
                poly = expand_product(((-1, v) for v in prefix), N - base)
                for t, c in enumerate(poly.coeffs):
                    acc[base + t] += c
        if max_dim is not None and depth >= max_dim:
            return
        for v in range(min(max_next, N - base), 0, -1):
            recurse(prefix + (v,), v - 1)

    recurse((), N)
    return SeriesCoeffs(tuple(acc))
