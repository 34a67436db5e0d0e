"""Exhaustive generation of partitions of n: the brute-force oracle.

Partitions stream in canonical order, descending lexicographic on the
expanded part sequence, so (n)x[1] comes first and (1)x[n] last.  A
pentagonal-number recurrence provides an independent count so the
enumerator can be cross-checked.

One flat generator produces every partition.  It keeps the current
partition as two lists, distinct parts (decreasing) and their
multiplicities, and steps to the next one in canonical order by the
successor rule in multiplicity form (Zoghbi and Stojmenovic's ZS1):
pop the trailing 1s, take one copy off the last part v > 1, then append
v-1 with multiplicity q and the remainder r < v-1 if r > 0, where q and
r divide the freed amount (the copy of v plus the popped 1s) by v-1.
Each step costs O(1) amortised, plus the two tuples it yields.  A
filtered listing tests the working lists before building those tuples,
so a partition the test rejects costs no tuples at all.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .core import InputError, Partition, Record, check_whole

#: Largest n enumerated without an explicit override.  p(60) is just
#: under a million partitions; anything bigger deserves a conscious
#: decision from the caller.
DESK_CEILING = 60


class NonPositiveSizeError(InputError):
    """Enumeration target n must be at least 1."""


class DeskCeilingError(InputError):
    """n exceeds the ceiling in force, or a given ceiling is not a positive integer."""


class PartitionList(Record):
    """All partitions of ``n`` (possibly filtered), in canonical order."""

    __slots__ = ("n", "items")

    def __init__(self, n: int, items: tuple[Partition, ...]):
        super().__init__(n, items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


_SIZE = "n must be a positive integer, got {!r}"


def _check_n(n: int, ceiling: int | None) -> None:
    check_whole(n, 1, _SIZE, NonPositiveSizeError)
    limit = DESK_CEILING if ceiling is None else ceiling
    check_whole(limit, 1, "ceiling must be a positive integer, got {!r}", DeskCeilingError)
    if n > limit:
        raise DeskCeilingError(
            f"n={n} exceeds the desk ceiling {limit}; pass a larger ceiling to override"
        )


def iter_raw(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (parts, mults) tuples of every partition of n, canonical order.

    n is checked when called; the tuples are not validated and no
    Partition objects are built: this is the hot path that the
    verification engine runs millions of times.
    """
    check_whole(n, 1, _SIZE, NonPositiveSizeError)
    return _successors(n)


def _successors(n: int, test: Callable[[list, list, int], bool] | None = None):
    """Yield (parts, mults) tuples of the partitions of n, canonical order.

    This is the one enumerator.  With a ``test``, each partition is first
    offered as ``test(parts, mults, len(parts))`` on the working lists,
    which the next step mutates, and its tuples are built only when the
    test accepts; a test must not keep the lists it is given.
    """
    parts = [n]
    mults = [1]
    pop_part = parts.pop
    pop_mult = mults.pop
    add_part = parts.append
    add_mult = mults.append
    while True:
        if test is None or test(parts, mults, len(parts)):
            yield tuple(parts), tuple(mults)
        if parts[-1] == 1:
            if len(parts) == 1:
                return
            pop_part()
            freed = pop_mult()
        else:
            freed = 0
        v = parts[-1]
        freed += v
        if mults[-1] == 1:
            pop_part()
            pop_mult()
        else:
            mults[-1] -= 1
        v -= 1
        q = freed // v
        add_part(v)
        add_mult(q)
        r = freed - q * v
        if r:
            add_part(r)
            add_mult(1)


def _shared(pairs):
    """Wrap each (parts, mults) pair, storing equal tuples once per call.

    Like ``Partition._wrap``, it builds without validating, but it sets
    the two slots through their descriptors, which skips a method call
    and two ``object.__setattr__`` lookups per partition.
    """
    new = object.__new__
    set_parts = Partition.parts.__set__
    set_mults = Partition.mults.__set__
    share = {}.setdefault
    for parts, mults in pairs:
        p = new(Partition)
        set_parts(p, share(parts, parts))
        set_mults(p, share(mults, mults))
        yield p


def iter_partitions(n: int, *, ceiling: int | None = None) -> Iterator[Partition]:
    """Stream every partition of n in canonical order; n is checked when called.

    Equal tuples are stored once: every parts and multiplicity tuple
    passes through one dict per call, so partitions that share a parts
    tuple (or a multiplicity tuple) hold the same object.  A kept
    listing is then mostly ``Partition`` slots; the 966,467 partitions
    of 60 have only 83,176 distinct tuples of each kind.  The price is
    paid by a caller that streams and keeps nothing: it still holds the
    dict, every distinct tuple, until the generator ends, so streaming
    n = 60 peaks at about 35 MB where it took 16 MB unshared.
    """
    _check_n(n, ceiling)
    return _shared(_successors(n))


def partitions_of(n: int, *, ceiling: int | None = None) -> PartitionList:
    """All partitions of n as a list, canonical order, complete."""
    return PartitionList(n, tuple(iter_partitions(n, ceiling=ceiling)))


_pcache = [1]  # p(0) = 1


def count_partitions(n: int) -> int:
    """p(n) by the pentagonal-number recurrence, independent of the enumerator."""
    check_whole(n, 1, _SIZE, NonPositiveSizeError)
    while len(_pcache) <= n:
        j = len(_pcache)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > j:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * _pcache[j - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= j:
                total += sign * _pcache[j - g2]
            k += 1
        _pcache.append(total)
    return _pcache[n]


def filter_partitions(
    n: int,
    pred: Callable[[Partition], bool],
    *,
    ceiling: int | None = None,
) -> PartitionList:
    """Partitions of n satisfying ``pred``, canonical order preserved.

    ``pred`` is tested through :func:`tripart.dsl.raw_test` on the
    enumerator's working lists, and only the members become tuples and
    Partitions, whose equal tuples are stored once as in
    :func:`iter_partitions`.  ``ceiling`` overrides
    :data:`DESK_CEILING`, the largest n enumerated by default.
    """
    from .dsl import raw_test  # only a filtered listing needs the predicate language

    _check_n(n, ceiling)
    return PartitionList(n, tuple(_shared(_successors(n, raw_test(pred)))))
