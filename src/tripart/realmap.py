"""The slow triangle map on the real cone, over exact rationals.

The cone consists of strictly decreasing positive coordinate tuples.
Off the diagonal (first coordinate equal to second plus last, twice
the second in dimension two) the map either rotates the first
coordinate's excess to the back or shaves the last coordinate off the
front; on the diagonal it is undefined.  Those two moves are
``core._below`` and ``core._above``, the ones the partition map applies
to parts.  Exact rationals keep the trichotomy decidable, which matters
because the tests construct diagonal points deliberately; ints count as
exact coordinates and stay ints.

In dimension two the map computes continued fractions: runs of
second-branch steps count a digit the way the Farey map does, and a
rational input reaches the diagonal in finitely many steps.  The map is
linear and the trichotomy compares linear forms, so scaling a point by
a positive number changes neither its classes nor its digits; the
digits are read off the integer multiple of the point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import (
    _DELTA0, _DELTA_D, ContractError, InputError, PartitionClass, Record, _above, _below,
    check_whole, classify_parts,
)


class ConePointError(InputError):
    """Coordinates are not strictly decreasing positive rationals."""


class OnDiagonalError(ContractError):
    """The map is undefined where the first coordinate equals second + last."""


class BadRatioError(InputError):
    """Digit extraction needs x1 > x2 > 0."""


class ConePoint(Record):
    """A point of the cone: m >= 2 strictly decreasing positive rationals.

    An ``int`` coordinate stays an int and any other goes through
    ``Fraction``, so an integer point walks the map in int arithmetic.
    Equality, hashing and ``str`` agree with the point built from the
    same values as Fractions.  A bool is no coordinate.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction | int, ...]):
        coords = tuple(c if type(c) in (int, Fraction) else _rational(c) for c in coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 2:
            raise ConePointError("a cone point needs at least two coordinates")
        if coords[-1] <= 0:
            raise ConePointError("coordinates must be positive")
        for a, b in zip(coords, coords[1:]):
            if a <= b:
                raise ConePointError(
                    f"coordinates must strictly decrease; saw {a} before {b}"
                )

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


def _rational(c) -> Fraction:
    if type(c) is bool:
        raise ConePointError(f"a coordinate must be a rational, not a bool; got {c!r}")
    return Fraction(c)


def classify_cone(x: ConePoint) -> PartitionClass:
    """Exact trichotomy of the first coordinate against second + last."""
    return classify_parts(x.coords)


def apply_slow(x: ConePoint) -> ConePoint:
    """One step of the slow map; undefined on the diagonal."""
    cls = classify_cone(x)
    if cls is _DELTA_D:
        raise OnDiagonalError(f"({x}) lies on the diagonal")
    return ConePoint((_below if cls is _DELTA0 else _above)(x.coords))


def orbit(
    x: ConePoint, max_steps: int
) -> tuple[list[tuple[PartitionClass, ConePoint]], bool]:
    """Iterate the slow map until the diagonal or the step budget.

    Returns the steps as ``(class, image)`` pairs and whether the walk
    stopped on the diagonal (rather than by running out of budget).
    ``max_steps``, an int of at least 0, is checked when called.
    """
    check_whole(max_steps, 0, "max_steps must be >= 0, got {!r}")
    steps: list[tuple[PartitionClass, ConePoint]] = []
    for _ in range(max_steps):
        cls = classify_cone(x)
        if cls is _DELTA_D:
            return steps, True
        x = apply_slow(x)
        steps.append((cls, x))
    return steps, False


def cf_digits_via_map(x1, x2, max_steps: int | None = None) -> list[int]:
    """Continued-fraction digits of x2/x1 read off the slow map.

    Each maximal run of r second-branch steps closed by a first-branch
    step contributes the digit r + 1.  A rational ratio reaches the
    diagonal, where the remaining ratio is exactly one half; the
    pending run then closes with digit r + 2.  The walk starts from
    (x1, x2) times the lcm of their denominators, an integer point
    (a, b) with the same classes and digits.  Each step lowers the
    coordinate sum by a positive integer, so by default the walk goes
    to the diagonal, which it reaches within a + b steps.  Given a
    ``max_steps`` that runs out first, it returns the digits collected
    so far (a prefix).
    """
    x1, x2 = Fraction(x1), Fraction(x2)
    if not (x1 > x2 > 0):
        raise BadRatioError(f"need x1 > x2 > 0, got {x1}, {x2}")
    scale = lcm(x1.denominator, x2.denominator)
    a = x1.numerator * (scale // x1.denominator)
    b = x2.numerator * (scale // x2.denominator)
    steps, on_diagonal = orbit(ConePoint((a, b)), a + b if max_steps is None else max_steps)
    digits: list[int] = []
    run = 0
    for cls, _ in steps:
        if cls is _DELTA0:
            digits.append(run + 1)
            run = 0
        else:
            run += 1
    if on_diagonal:
        digits.append(run + 2)
    return digits
