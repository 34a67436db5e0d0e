"""The slow map on the real cone and its continued-fraction reading."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tripart import PartitionClass
from tripart.realmap import (
    BadRatioError,
    ConePoint,
    ConePointError,
    OnDiagonalError,
    apply_slow,
    cf_digits_via_map,
    classify_cone,
    orbit,
)

import oracles

F = Fraction


def test_cone_point_validation():
    with pytest.raises(ConePointError):
        ConePoint((F(3),))
    with pytest.raises(ConePointError):
        ConePoint((F(2), F(3)))
    with pytest.raises(ConePointError):
        ConePoint((F(2), F(2)))
    with pytest.raises(ConePointError):
        ConePoint((F(2), F(0)))
    point = ConePoint((F(7, 2), F(1)))
    assert point.dimension == 2
    assert str(point) == "7/2,1"


def test_classify_examples():
    assert classify_cone(ConePoint((F(3), F(2)))) is PartitionClass.DELTA0
    assert classify_cone(ConePoint((F(7, 2), F(1)))) is PartitionClass.DELTA1
    assert classify_cone(ConePoint((F(3), F(2), F(1)))) is PartitionClass.DELTA_D


def test_apply_slow_examples():
    assert apply_slow(ConePoint((F(3), F(2)))).coords == (F(2), F(1))
    assert apply_slow(ConePoint((F(7, 2), F(1)))).coords == (F(5, 2), F(1))
    with pytest.raises(OnDiagonalError):
        apply_slow(ConePoint((F(3), F(2), F(1))))


def test_apply_slow_stays_in_cone():
    rng = random.Random(7)
    for m in (2, 3, 4):
        for _ in range(400):
            coords = sorted(
                {F(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(m)},
                reverse=True,
            )
            if len(coords) < m:
                continue
            point = ConePoint(tuple(coords))
            if classify_cone(point) is PartitionClass.DELTA_D:
                continue
            before = max(point.coords)
            after = apply_slow(point)
            assert max(after.coords) < before
            assert after.dimension == m


def test_constructed_diagonal_points_classify_exactly():
    rng = random.Random(11)
    for _ in range(200):
        a = F(rng.randint(2, 500), rng.randint(1, 50))
        c = a * F(rng.randint(1, 9), 10)
        if not 0 < c < a:
            continue
        point = ConePoint((a + c, a, c))
        assert classify_cone(point) is PartitionClass.DELTA_D


def test_cf_digit_examples():
    assert cf_digits_via_map(7, 3) == [2, 3]
    assert cf_digits_via_map(2, 1) == [2]
    assert cf_digits_via_map(3, 2) == [1, 2]
    assert cf_digits_via_map(5, 2) == [2, 2]
    assert cf_digits_via_map(4, 1) == [4]
    for n in range(2, 12):
        digits = cf_digits_via_map(n + 1, n)
        assert digits[0] == 1  # the first step leaves the else-branch untaken


def test_cf_digits_match_euclid():
    assert oracles.euclid_cf(3, 7) == [2, 3]
    rng = random.Random(23)
    for _ in range(50):
        q = rng.randint(2, 400)
        p = rng.randint(1, q - 1)
        got = oracles.canonical_cf(cf_digits_via_map(q, p))
        want = oracles.canonical_cf(oracles.euclid_cf(p, q))
        assert got == want, (p, q)


def test_cf_digits_match_euclid_on_rationals():
    # non-integer inputs with different denominators, as the benchmark draws
    assert cf_digits_via_map(F(413, 79), F(7, 3)) == oracles.euclid_cf(79, 177) == [2, 4, 6, 3]
    rng = random.Random(29)
    for _ in range(200):
        # x2/x1 has a denominator below 10**4, so its digits sum to less
        # than 10**4 and the walk takes fewer steps than that
        x1, x2 = (F(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(2))
        if x1 == x2:
            continue
        x1, x2 = max(x1, x2), min(x1, x2)
        ratio = x2 / x1
        got = oracles.canonical_cf(cf_digits_via_map(x1, x2))
        want = oracles.canonical_cf(oracles.euclid_cf(ratio.numerator, ratio.denominator))
        assert got == want, (x1, x2)


def test_cf_digits_walk_to_the_diagonal_by_default():
    # walks of more than 10,000 steps: without a budget the walk goes
    # to the diagonal however long it is
    assert cf_digits_via_map(F(255, 169), F(940, 623)) == oracles.euclid_cf(31772, 31773)
    for x1, x2 in ((F(12_345, 2), F(1, 2)), (F(10_001, 3), F(10_000, 3)),
                   (F(9_999, 7), F(1, 11)), (20_001, 2)):
        ratio = F(x2) / x1
        want = oracles.euclid_cf(ratio.numerator, ratio.denominator)
        assert sum(want) > 10_000, (x1, x2)
        assert cf_digits_via_map(x1, x2) == want, (x1, x2)


def test_integer_cone_orbits_reach_the_diagonal_within_their_sum():
    # a step lowers the coordinate sum by the second or the last
    # coordinate, a positive integer, so every integer point of the cone
    # reaches the diagonal with a budget of its coordinate sum
    for m in (2, 3, 4):
        for coords in combinations(range(20, 0, -1), m):
            steps, on_diagonal = orbit(ConePoint(coords), sum(coords))
            assert on_diagonal, coords
            assert len(steps) < sum(coords) - 2, coords


def test_cf_digits_ignore_a_common_scale():
    rng = random.Random(31)
    for _ in range(100):
        x2 = F(rng.randint(1, 999), rng.randint(1, 999))
        x1 = x2 + F(rng.randint(1, 999), rng.randint(1, 999))
        c = F(rng.randint(1, 999), rng.randint(1, 999))
        assert cf_digits_via_map(c * x1, c * x2) == cf_digits_via_map(x1, x2), (x1, x2, c)


def test_cf_budget_returns_prefix():
    digits = cf_digits_via_map(89, 55, max_steps=3)
    full = cf_digits_via_map(89, 55)
    assert digits == full[: len(digits)]
    assert len(digits) < len(full)
    x1, x2 = F(413, 79), F(7, 3)
    full = cf_digits_via_map(x1, x2)
    steps, _ = orbit(ConePoint((x1, x2)), 10_000)
    for budget in range(len(steps) + 1):
        digits = cf_digits_via_map(x1, x2, max_steps=budget)
        assert digits == full[: len(digits)], budget
        assert len(digits) < len(full), budget
    assert cf_digits_via_map(x1, x2, max_steps=len(steps) + 1) == full


def test_int_coordinates_stay_ints():
    ints, fractions = ConePoint((7, 2)), ConePoint((F(7), F(2)))
    assert all(type(c) is int for c in ints.coords)
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert str(ints) == str(fractions) == "7,2"
    int_steps, int_stop = orbit(ints, 50)
    fraction_steps, fraction_stop = orbit(fractions, 50)
    assert int_stop and fraction_stop
    assert [cls for cls, _ in int_steps] == [cls for cls, _ in fraction_steps]
    assert [str(x) for _, x in int_steps] == [str(x) for _, x in fraction_steps]
    assert all(type(c) is int for _, x in int_steps for c in x.coords)


def test_orbit_stops_on_diagonal_or_budget():
    start = ConePoint((F(7, 2), F(1)))
    steps, on_diagonal = orbit(start, 50)
    assert on_diagonal
    assert classify_cone(steps[-1][1]) is PartitionClass.DELTA_D
    point = start
    for cls, image in steps:
        assert cls is classify_cone(point)
        point = apply_slow(point)
        assert image == point
    # a budget shorter than the walk stops it first, on the same prefix
    assert orbit(start, len(steps) - 1) == (steps[:-1], False)
    # a point on the diagonal takes no step
    assert orbit(ConePoint((F(3), F(2), F(1))), 5) == ([], True)


def test_bad_ratio():
    with pytest.raises(BadRatioError):
        cf_digits_via_map(3, 3)
    with pytest.raises(BadRatioError):
        cf_digits_via_map(2, 5)
    with pytest.raises(BadRatioError):
        cf_digits_via_map(2, 0)


def test_rational_coercion():
    assert cf_digits_via_map(F(7, 2), F(3, 2)) == oracles.canonical_cf(
        oracles.euclid_cf(3, 7)
    )


def test_cone_and_partition_trichotomy_agree():
    # the parts of a partition are a cone point; both must classify alike
    from tripart import iter_partitions

    seen = set()
    for n in range(1, 21):
        for p in iter_partitions(n):
            if p.dimension >= 2:
                cls = classify_cone(ConePoint(p.parts))
                assert cls is p.classify(), p
                seen.add(cls)
    assert seen == {PartitionClass.DELTA0, PartitionClass.DELTA1, PartitionClass.DELTA_D}


def test_cone_and_partition_moves_agree():
    # off the diagonal the partition map moves the parts as the cone map
    # moves its point, and both match the oracle's own step
    from tripart import apply_t, iter_partitions

    for n in range(1, 21):
        for p in iter_partitions(n):
            tag = oracles.classify_tag(p.parts)
            if p.dimension < 2 or tag == "dd":
                continue
            expected = oracles.slow_step(p.parts, p.mults, ("d0", "d1").index(tag))
            image = apply_t(p).image
            assert (image.parts, image.mults) == expected, p
            assert apply_slow(ConePoint(p.parts)).coords == expected[0], p
