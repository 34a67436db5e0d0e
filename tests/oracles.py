"""Independent brute-force oracles the package is checked against.

Everything here is written from first principles with different
algorithms and no package imports, so tests compare two genuinely
separate routes.
"""

from itertools import groupby


def expanded_partitions(n):
    """All partitions of n as non-increasing expanded tuples.

    Iterative successor algorithm: decrement the last entry above one,
    then redistribute the remainder greedily.  Yields in descending
    lexicographic order.
    """
    if n < 1:
        return
    current = (n,)
    while True:
        yield current
        i = len(current) - 1
        while i >= 0 and current[i] == 1:
            i -= 1
        if i < 0:
            return
        head = current[:i] + (current[i] - 1,)
        rest = n - sum(head)
        cap = head[-1]
        tail = []
        while rest > 0:
            take = min(cap, rest)
            tail.append(take)
            rest -= take
        current = head + tuple(tail)


def to_part_mult(expanded):
    """Group an expanded tuple into (parts, mults)."""
    parts = []
    mults = []
    for v, grp in groupby(expanded):
        parts.append(v)
        mults.append(sum(1 for _ in grp))
    return tuple(parts), tuple(mults)


def part_mult_partitions(n):
    """All partitions of n in (parts, mults) form via the oracle generator."""
    for expanded in expanded_partitions(n):
        yield to_part_mult(expanded)


def classify_tag(parts):
    """'dim1' / 'd0' / 'd1' / 'dd' straight from the defining comparison."""
    if len(parts) == 1:
        return "dim1"
    if len(parts) == 2:
        threshold = 2 * parts[1]
    else:
        threshold = parts[1] + parts[-1]
    if parts[0] < threshold:
        return "d0"
    if parts[0] > threshold:
        return "d1"
    return "dd"


def slow_step(parts, mults, letter):
    """One off-diagonal step of the map: letter 0 below, 1 above."""
    if letter == 0:
        # below the diagonal: drop the largest part, append L1 - L2
        return (parts[1:] + (parts[0] - parts[1],),
                (mults[0] + mults[1],) + mults[2:] + (mults[0],))
    # above the diagonal: the largest part loses the smallest
    return (parts[0] - parts[-1],) + parts[1:], mults[:-1] + (mults[0] + mults[-1],)


def follows_word(parts, mults, word):
    """Whether the partition follows the branch word under the slow map.

    Walks the map itself: each letter must match the current class
    ('d0' for 0, 'd1' for 1), then that branch steps the partition.
    """
    for letter in word:
        if classify_tag(parts) != ("d0", "d1")[letter]:
            return False
        parts, mults = slow_step(parts, mults, letter)
    return True


def is_distinct(parts, mults):
    return all(k == 1 for k in mults)


def is_all_odd(parts, mults):
    return all(v % 2 == 1 for v in parts)


def is_e0(parts, mults):
    return len(parts) >= 2 and mults[0] == 2 and all(k == 1 for k in mults[1:])


def is_e1(parts, mults):
    return len(parts) >= 2 and mults[-1] == 2 and all(k == 1 for k in mults[:-1])


def is_ed(parts, mults):
    return (
        len(parts) >= 2
        and mults[0] == 2
        and mults[-1] == 2
        and all(k == 1 for k in mults[1:-1])
    )


def is_f0(parts, mults):
    return (
        len(parts) >= 2
        and parts[-1] % 2 == 0
        and all(v % 2 == 1 for v in parts[:-1])
        and mults[0] > mults[-1]
    )


def is_f1(parts, mults):
    return (
        len(parts) >= 2
        and parts[0] % 2 == 0
        and all(v % 2 == 1 for v in parts[1:])
        and mults[0] < mults[-1]
    )


def count_matching(n, member):
    """Count partitions of n whose (parts, mults) satisfy the test."""
    return sum(1 for parts, mults in part_mult_partitions(n) if member(parts, mults))


def euclid_cf(p, q):
    """Continued-fraction digits of p/q in (0, 1) by the Euclidean algorithm.

    Returns [a1, a2, ...] with p/q = 1/(a1 + 1/(a2 + ...)).
    """
    assert 0 < p < q
    digits = []
    a, b = q, p
    while b:
        digits.append(a // b)
        a, b = b, a % b
    return digits


def canonical_cf(digits):
    """Collapse a trailing 1 so both classical forms compare equal."""
    out = list(digits)
    if len(out) > 1 and out[-1] == 1:
        last = out.pop()
        out[-1] += last
    return out
