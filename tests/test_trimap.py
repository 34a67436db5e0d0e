"""The triangle map: branches, inverses, orbits, diagonal behavior."""

import pytest
from hypothesis import given, settings

from tripart import (
    Branch,
    Partition,
    PartitionClass,
    apply_t,
    apply_t0,
    apply_t0_inverse,
    apply_t1,
    apply_t1_inverse,
    apply_td,
    orbit,
    td_part_injectivity_check,
)
from tripart import trimap
from tripart.enumeration import iter_partitions
from tripart.trimap import (
    DimensionOneError,
    NotInM0Error,
    NotInM1Error,
    WrongBranchError,
    image,
)

import oracles
from strategies import partitions

P = Partition.from_text


def _merged(parts, mults):
    # concatenate a weakly decreasing part/mult listing that may carry
    # one repeated value into a valid partition
    seq = [v for v, k in zip(parts, mults) for _ in range(k)]
    return Partition.from_weak_sequence(seq)


def _pretend_t0(p):
    # apply the below-diagonal formula regardless of class, then merge
    parts = p.parts[1:] + (p.parts[0] - p.parts[1],)
    mults = (p.mults[0] + p.mults[1],) + p.mults[2:] + (p.mults[0],)
    return _merged(parts, mults)


def _pretend_t1(p):
    parts = (p.parts[0] - p.parts[-1],) + p.parts[1:]
    mults = p.mults[:-1] + (p.mults[0] + p.mults[-1],)
    return _merged(parts, mults)


def test_t0_examples():
    assert apply_t0(P("(6,5,4,2)x[1,1,1,1]")) == P("(5,4,2,1)x[2,1,1,1]")
    assert apply_t0(P("(6,5)x[1,1]")) == P("(5,1)x[2,1]")
    assert apply_t0(P("(4,3)x[2,1]")) == P("(3,1)x[3,2]")


def test_t1_examples():
    assert apply_t1(P("(9,5,4,2)x[1,1,1,1]")) == P("(7,5,4,2)x[1,1,1,2]")
    assert apply_t1(P("(5,1)x[2,1]")) == P("(4,1)x[2,3]")
    assert apply_t1(P("(3,1)x[3,2]")) == P("(2,1)x[3,5]")


def test_td_examples():
    assert apply_td(P("(6,5,4,1)x[1,1,1,1]")) == P("(5,4,1)x[2,1,2]")
    assert apply_td(P("(6,3)x[1,1]")) == P("(3)x[3]")


def test_td_collision_pair():
    # same parts, different multiplicities, identical diagonal image;
    # the image is pinned by the concatenation derivation, not assumed
    a = P("(11,8,6,3)x[2,3,4,5]")
    b = P("(11,8,6,3)x[1,4,4,6]")
    img = apply_td(a)
    assert img == apply_td(b)
    assert img == _pretend_t0(a) == _pretend_t1(a)
    assert img == _pretend_t0(b) == _pretend_t1(b)
    assert img == P("(8,6,3)x[5,4,7]")
    assert img.size == a.size == b.size == 85


def test_wrong_branch_errors():
    with pytest.raises(WrongBranchError):
        apply_t0(P("(9,5,4,2)x[1,1,1,1]"))
    with pytest.raises(WrongBranchError):
        apply_t1(P("(6,5,4,2)x[1,1,1,1]"))
    with pytest.raises(WrongBranchError):
        apply_td(P("(6,5)x[1,1]"))
    with pytest.raises(WrongBranchError):
        apply_t0(P("(7)x[1]"))


def test_dispatch_examples():
    step = apply_t(P("(5,4,2)x[1,1,1]"))
    assert step.branch is Branch.T0
    assert step.image == P("(4,2,1)x[2,1,1]")
    step = apply_t(P("(4,2,1)x[2,1,1]"))
    assert step.branch is Branch.T1
    assert step.image == P("(3,2,1)x[2,1,3]")
    with pytest.raises(DimensionOneError):
        apply_t(P("(1)x[7]"))
    assert image(P("(6,3)x[1,1]")) == P("(3)x[3]")


def test_inverse_examples():
    assert apply_t0_inverse(P("(5,4,2,1)x[2,1,1,1]")) == P("(6,5,4,2)x[1,1,1,1]")
    assert apply_t0_inverse(P("(5,1)x[2,1]")) == P("(6,5)x[1,1]")
    with pytest.raises(NotInM0Error):
        apply_t0_inverse(P("(4,2,1)x[1,1,1]"))
    assert apply_t1_inverse(P("(7,5,4,2)x[1,1,1,2]")) == P("(9,5,4,2)x[1,1,1,1]")
    assert apply_t1_inverse(P("(2,1)x[3,5]")) == P("(3,1)x[3,2]")
    with pytest.raises(NotInM1Error):
        apply_t1_inverse(P("(3,1)x[2,2]"))


def test_size_preserved_exhaustive():
    for n in range(2, 26):
        for p in iter_partitions(n):
            if p.dimension >= 2:
                assert apply_t(p).image.size == n


def test_dimension_law_exhaustive():
    for n in range(2, 26):
        for p in iter_partitions(n):
            if p.dimension < 2:
                continue
            step = apply_t(p)
            if step.branch is Branch.TD:
                assert step.image.dimension == p.dimension - 1
            else:
                assert step.image.dimension == p.dimension


def test_branch_images_land_in_multiplicity_sets():
    for n in range(2, 21):
        for p in iter_partitions(n):
            cls = p.classify()
            if cls is PartitionClass.DELTA0:
                q = apply_t0(p)
                assert q.mults[0] > q.mults[-1]
            elif cls is PartitionClass.DELTA1:
                q = apply_t1(p)
                assert q.mults[0] < q.mults[-1]


def test_bijection_round_trips_exhaustive():
    for n in range(2, 26):
        delta0_images = set()
        delta1_images = set()
        m0 = []
        m1 = []
        for p in iter_partitions(n):
            cls = p.classify()
            if cls is PartitionClass.DELTA0:
                q = apply_t0(p)
                assert apply_t0_inverse(q) == p
                delta0_images.add(q)
            elif cls is PartitionClass.DELTA1:
                q = apply_t1(p)
                assert apply_t1_inverse(q) == p
                delta1_images.add(q)
            if p.dimension >= 2:
                if p.mults[0] > p.mults[-1]:
                    m0.append(p)
                elif p.mults[0] < p.mults[-1]:
                    m1.append(p)
        assert delta0_images == set(m0)
        assert delta1_images == set(m1)
        for q in m0:
            assert apply_t0(apply_t0_inverse(q)) == q
        for q in m1:
            assert apply_t1(apply_t1_inverse(q)) == q


def _split_largest(parts, mults):
    """The diagonal move written out: each copy of l1 = l2 + lm splits into l2 and lm."""
    expanded = [v for v, k in zip(parts, mults) for _ in range(k)]
    largest = expanded.count(parts[0])
    expanded = expanded[largest:] + [parts[1], parts[-1]] * largest
    return oracles.to_part_mult(sorted(expanded, reverse=True))


def test_letter_moves_match_the_oracle():
    # every raw move and raw inverse of the letter table, on every
    # partition of n <= 24 from the oracle enumerator
    letters = trimap._LETTERS
    diagonal_dims = set()
    for n in range(1, 25):
        for parts, mults in oracles.part_mult_partitions(n):
            tag = oracles.classify_tag(parts)
            for letter, wanted in ((0, "d0"), (1, "d1")):
                if tag == wanted:
                    _, _, _, move, inverse = letters[letter]
                    stepped = move(parts, mults)
                    assert stepped == oracles.slow_step(parts, mults, letter), (parts, mults)
                    assert inverse(*stepped) == (parts, mults)
            if tag == "dd":
                diagonal_dims.add(min(len(parts), 3))
                assert letters["D"][3](parts, mults) == _split_largest(parts, mults)
            if len(parts) >= 2 and mults[0] != mults[-1]:
                # k1 > km is the image of letter 0, k1 < km that of letter 1
                letter = 0 if mults[0] > mults[-1] else 1
                _, _, _, move, inverse = letters[letter]
                source = inverse(parts, mults)
                assert oracles.classify_tag(source[0]) == ("d0", "d1")[letter]
                assert move(*source) == (parts, mults)
    assert diagonal_dims == {2, 3}


def test_boundary_concatenation_coherence():
    # on the diagonal, both off-diagonal formulas merge to the same
    # image, and that image is what the diagonal branch returns
    for n in range(3, 31):
        for p in iter_partitions(n):
            if p.dimension >= 2 and p.classify() is PartitionClass.DELTA_D:
                q = apply_td(p)
                assert _pretend_t0(p) == q
                assert _pretend_t1(p) == q


def test_td_part_injectivity_examples():
    a = P("(11,8,6,3)x[2,3,4,5]")
    b = P("(11,8,6,3)x[1,4,4,6]")
    assert td_part_injectivity_check(a, b)
    assert td_part_injectivity_check(a, a)
    with pytest.raises(WrongBranchError):
        td_part_injectivity_check(P("(6,5)x[1,1]"), a)
    with pytest.raises(WrongBranchError, match=r"\(6,5\)x\[1,1\] is not on the diagonal"):
        td_part_injectivity_check(a, P("(6,5)x[1,1]"))
    # different images: nothing to compare, even with different part vectors
    c = P("(4,2)x[1,1]")
    assert apply_td(a) != apply_td(c)
    assert td_part_injectivity_check(a, c)


def test_td_part_injectivity_exhaustive():
    # group diagonal partitions by image: every collision class shares
    # one part vector, and the first/last multiplicity sums survive
    for n in range(3, 31):
        groups = {}
        for p in iter_partitions(n):
            if p.dimension >= 2 and p.classify() is PartitionClass.DELTA_D:
                groups.setdefault(apply_td(p), []).append(p)
        for img, members in groups.items():
            first = members[0]
            for other in members[1:]:
                assert td_part_injectivity_check(first, other)
                assert other.parts == first.parts
                if first.dimension >= 3:
                    # the image multiplicities pin both extreme sums
                    assert (other.mults[0] + other.mults[1]
                            == first.mults[0] + first.mults[1])
                    assert (other.mults[0] + other.mults[-1]
                            == first.mults[0] + first.mults[-1])
                else:
                    assert (2 * other.mults[0] + other.mults[1]
                            == 2 * first.mults[0] + first.mults[1])


def test_orbit_examples():
    result = orbit(P("(6,5)x[1,1]"), 2)
    assert [(str(s.branch), str(s.image)) for s in result.steps] == [
        ("T0", "(5,1)x[2,1]"),
        ("T1", "(4,1)x[2,3]"),
    ]
    assert result.terminal == P("(4,1)x[2,3]")

    result = orbit(P("(7)x[1]"), 10)
    assert result.steps == ()
    assert result.terminal == P("(7)x[1]")

    result = orbit(P("(6,3)x[1,1]"), 10)
    assert len(result.steps) == 1
    assert result.steps[0].branch is Branch.TD
    assert result.terminal == P("(3)x[3]")
    assert result.terminal.dimension == 1


def test_orbit_ends_within_its_distinct_part_sum():
    # T0, T1 and TD lower the sum of the distinct parts by L2, Llast and
    # L1, so a budget of that sum less one reaches dimension one
    for n in range(1, 26):
        for p in iter_partitions(n):
            result = orbit(p, sum(p.parts) - 1)
            assert result.terminal.dimension == 1, p
            distinct_sums = [sum(p.parts)] + [sum(s.image.parts) for s in result.steps]
            assert all(a > b for a, b in zip(distinct_sums, distinct_sums[1:])), p
            assert len(result.steps) <= max(n - 2, 0), p


def test_orbit_rejects_negative_budget():
    with pytest.raises(ValueError):
        orbit(P("(2,1)x[1,1]"), -1)


@given(partitions(max_part=20, max_len=8))
@settings(max_examples=150)
def test_orbit_chains_and_preserves_size(p):
    result = orbit(p, 500)
    current = p
    for step in result.steps:
        assert step.source == current
        assert step.image.size == p.size
        current = step.image
    assert result.terminal == current
    assert result.terminal.dimension == 1
