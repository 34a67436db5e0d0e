"""The triangle map on partitions.

For a partition (l1,...,lm)x[k1,...,km] of dimension at least two the
map dispatches on the trichotomy l1 versus l2 + lm (2*l2 in dimension
two):

* below the threshold (DELTA0):
  (l2,...,lm, l1-l2) x [k1+k2, k3,...,km, k1]
* above it (DELTA1):
  (l1-lm, l2,...,lm) x [k1,...,k_{m-1}, k1+km]
* on it (DELTA_D), dimension >= 3:
  (l2,...,lm) x [k1+k2, k3,...,k_{m-1}, k1+km]
* on it, dimension two, i.e. (2*l2, l2) x [k1, k2]:
  (l2) x [2*k1+k2]

The part moves of the first two branches are the slow map's own,
``core._below`` and ``core._above``; the multiplicities move here.
All four branches preserve size.  The first two preserve dimension and
are bijections onto the multiplicity-side sets k1 > km and k1 < km
respectively, with explicit inverses; the diagonal branch drops the
dimension by one and is injective on parts but not on multiplicities.
"""

from __future__ import annotations

import enum

from .core import (
    _DELTA0, _DELTA1, _DELTA_D, _DIM1, ContractError, Partition, Record, _above, _below,
    check_whole,
)


class WrongBranchError(ContractError):
    """A branch map was applied outside its domain."""


class DimensionOneError(ContractError):
    """The map is undefined on partitions with a single distinct part."""


class NotInM0Error(ContractError):
    """Inverting the first branch needs k1 > km."""


class NotInM1Error(ContractError):
    """Inverting the second branch needs k1 < km."""


class Branch(enum.Enum):
    T0 = "T0"
    T1 = "T1"
    TD = "TD"

    def __str__(self) -> str:
        return self.value


class MapStep(Record):
    """One application of the map, with the branch that fired."""

    __slots__ = ("source", "branch", "image")

    def __init__(self, source: Partition, branch: Branch, image: Partition):
        # one per step of an orbit: set the fields here, not in a loop
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "image", image)


class Orbit(Record):
    """A forward orbit: a tuple of MapSteps, chained until dimension one or the budget."""

    __slots__ = ("start", "steps", "terminal")


def apply_t0(p: Partition) -> Partition:
    """First branch; requires l1 < l2 + lm (2*l2 when dim 2)."""
    if p.classify() is not _DELTA0:
        raise WrongBranchError(f"{p} is not below the diagonal")
    k = p.mults
    return Partition(_below(p.parts), (k[0] + k[1],) + k[2:] + (k[0],))


def apply_t1(p: Partition) -> Partition:
    """Second branch; requires l1 > l2 + lm (2*l2 when dim 2)."""
    if p.classify() is not _DELTA1:
        raise WrongBranchError(f"{p} is not above the diagonal")
    k = p.mults
    return Partition(_above(p.parts), k[:-1] + (k[0] + k[-1],))


def apply_td(p: Partition) -> Partition:
    """Diagonal branch; requires l1 = l2 + lm.  Drops dimension by one."""
    if p.classify() is not _DELTA_D:
        raise WrongBranchError(f"{p} is not on the diagonal")
    parts, k = p.parts, p.mults
    if len(parts) == 2:
        return Partition((parts[1],), (2 * k[0] + k[1],))
    return Partition(parts[1:], (k[0] + k[1],) + k[2:-1] + (k[0] + k[-1],))


def apply_t(p: Partition) -> MapStep:
    """Apply the map, recording which branch fired."""
    cls = p.classify()
    if cls is _DIM1:
        raise DimensionOneError(f"{p} has dimension one")
    if cls is _DELTA0:
        return MapStep(p, Branch.T0, apply_t0(p))
    if cls is _DELTA1:
        return MapStep(p, Branch.T1, apply_t1(p))
    return MapStep(p, Branch.TD, apply_td(p))


def image(p: Partition) -> Partition:
    """Plain-output convenience wrapper around :func:`apply_t`."""
    return apply_t(p).image


def apply_t0_inverse(p: Partition) -> Partition:
    """Invert the first branch; requires k1 > km.

    (l1+lm, l1, l2,...,l_{m-1}) x [km, k1-km, k2,...,k_{m-1}].
    The result always lands strictly below the diagonal.
    """
    if not (p.dimension >= 2 and p.mults[0] > p.mults[-1]):
        raise NotInM0Error(f"{p} does not satisfy k1 > km")
    parts = (p.parts[0] + p.parts[-1],) + p.parts[:-1]
    mults = (p.mults[-1], p.mults[0] - p.mults[-1]) + p.mults[1:-1]
    return Partition(parts, mults)


def apply_t1_inverse(p: Partition) -> Partition:
    """Invert the second branch; requires k1 < km.

    (l1+lm, l2,...,lm) x [k1,...,k_{m-1}, km-k1].
    The result always lands strictly above the diagonal.
    """
    if not (p.dimension >= 2 and p.mults[0] < p.mults[-1]):
        raise NotInM1Error(f"{p} does not satisfy k1 < km")
    parts = (p.parts[0] + p.parts[-1],) + p.parts[1:]
    mults = p.mults[:-1] + (p.mults[-1] - p.mults[0],)
    return Partition(parts, mults)


def orbit(p: Partition, max_steps: int) -> Orbit:
    """Iterate the map until dimension one or ``max_steps`` steps, an int >= 0 checked here."""
    check_whole(max_steps, 0, "max_steps must be >= 0, got {!r}")
    steps: list[MapStep] = []
    current = p
    while len(steps) < max_steps and current.dimension >= 2:
        step = apply_t(current)
        steps.append(step)
        current = step.image
    return Orbit(p, tuple(steps), current)


def td_part_injectivity_check(a: Partition, b: Partition) -> bool:
    """True unless equal diagonal images come from different part vectors.

    Property-test helper: equal images under the diagonal branch must
    force equal part vectors (multiplicities may differ).  An argument
    off the diagonal raises :func:`apply_td`'s ``WrongBranchError``.
    """
    if apply_td(a) != apply_td(b):
        return True
    return a.parts == b.parts
