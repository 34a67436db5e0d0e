"""Enumerator correctness: counts, completeness, order, filtering."""

import tracemalloc
from pathlib import Path

import pytest

from tripart import (
    Partition,
    TRUE,
    builtin,
    count_partitions,
    filter_partitions,
    iter_partitions,
    partitions_of,
    parse_set_expression,
)
from tripart.enumeration import DeskCeilingError, NonPositiveSizeError, iter_raw

import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_ground_truth_counts():
    assert count_partitions(4) == 5
    assert count_partitions(7) == 15
    assert count_partitions(11) == 56
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(7)) == 15
    assert len(partitions_of(11)) == 56


def test_n_equals_one():
    assert partitions_of(1).items == (Partition((1,), (1,)),)


def test_partitions_of_seven():
    items = set(partitions_of(7))
    assert Partition((3, 2), (1, 2)) in items
    assert Partition((1,), (7,)) in items
    assert len(items) == 15


def test_counts_match_enumerator():
    for n in range(1, 31):
        assert len(partitions_of(n)) == count_partitions(n)


def test_classical_count_values():
    known = {10: 42, 20: 627, 30: 5604, 40: 37338, 50: 204226, 60: 966467}
    for n, value in known.items():
        assert count_partitions(n) == value


def test_every_item_has_size_n():
    for n in (5, 9, 13):
        assert all(p.size == n for p in partitions_of(n))


def test_completeness_and_order_vs_oracle():
    # expanded sequences agree elementwise with an independent
    # successor-based generator, which also pins the canonical order
    for n in range(1, 26):
        ours = [p.expand() for p in partitions_of(n)]
        theirs = list(oracles.expanded_partitions(n))
        assert ours == theirs


def test_raw_and_wrapped_streams_match_oracle_in_order():
    for n in range(1, 31):
        theirs = list(oracles.part_mult_partitions(n))
        assert list(iter_raw(n)) == theirs
        assert [(p.parts, p.mults) for p in iter_partitions(n)] == theirs


def test_raw_stream_lengths_match_recurrence():
    for n in range(1, 51):
        assert sum(1 for _ in iter_raw(n)) == count_partitions(n)
    with pytest.raises(NonPositiveSizeError):
        iter_raw(0)


def test_canonical_order_endpoints():
    listing = partitions_of(11)
    assert listing[0] == Partition((11,), (1,))
    assert listing[-1] == Partition((1,), (11,))
    expanded = [p.expand() for p in listing]
    assert expanded == sorted(expanded, reverse=True)


def test_filter_true_is_everything():
    for n in (1, 5, 12):
        assert filter_partitions(n, TRUE).items == partitions_of(n).items


def test_filter_examples():
    delta01 = builtin("Delta01")
    assert set(filter_partitions(11, delta01)) == {
        Partition((6, 5), (1, 1)),
        Partition((5, 4, 2), (1, 1, 1)),
        Partition((4, 3), (2, 1)),
    }
    assert set(filter_partitions(11, parse_set_expression("D and Delta0"))) == {
        Partition((7, 4), (1, 1)),
        Partition((6, 5), (1, 1)),
        Partition((5, 4, 2), (1, 1, 1)),
    }
    assert len(filter_partitions(2, builtin("Delta1"))) == 0


def test_filter_matches_oracle_in_order():
    # set predicates read the enumerator's working lists, the plain
    # callable a Partition; both must list exactly the reference
    # members, in order
    from tripart.identities import gauss_final_image, gauss_step_image
    from tripart.sets import cylinder, gauss_set, names

    plain = lambda p: p.size % 3 == 0 or p.mults[-1] > p.mults[0]  # noqa: E731
    preds = [builtin(name) for name in names()] + [cylinder((0, 1, 1))]
    for d in (1, 2, 3):
        preds += [gauss_set(d), gauss_final_image(d)]
        preds += [gauss_step_image(d, p) for p in range(1, d + 1)]
    for n in range(1, 21):
        reference = [Partition(parts, mults) for parts, mults in oracles.part_mult_partitions(n)]
        for pred in preds:
            expected = [p for p in reference if pred.member(p)]
            assert list(filter_partitions(n, pred)) == expected, (n, pred)
        assert list(filter_partitions(n, plain)) == [p for p in reference if plain(p)], n


def test_filter_plain_callable_receives_partitions():
    seen = []

    def record(p):
        seen.append(p)
        return p.dimension == 2

    listing = filter_partitions(9, record)
    assert all(type(p) is Partition for p in seen)
    # every Partition handed out keeps its own tuples: none shares the
    # lists that the enumerator went on changing after the call
    assert all(type(p.parts) is tuple and type(p.mults) is tuple for p in seen)
    assert all(p.size == 9 for p in seen)
    assert seen == list(partitions_of(9))
    assert list(listing) == [p for p in seen if p.dimension == 2]


def test_filter_desk_ceiling():
    for pred in (builtin("Delta0"), lambda p: True):
        with pytest.raises(DeskCeilingError):
            filter_partitions(61, pred)
        with pytest.raises(DeskCeilingError):
            filter_partitions(6, pred, ceiling=5)
    assert len(filter_partitions(6, builtin("D"), ceiling=6)) == 4


def test_size_errors():
    with pytest.raises(NonPositiveSizeError):
        partitions_of(0)
    with pytest.raises(NonPositiveSizeError):
        count_partitions(-3)


def test_desk_ceiling():
    with pytest.raises(DeskCeilingError):
        partitions_of(61)
    with pytest.raises(DeskCeilingError):
        partitions_of(5, ceiling=4)
    assert len(partitions_of(5, ceiling=5)) == 7


def test_iter_partitions_checks_n_when_called():
    # as iter_raw, partitions_of and filter_partitions do: before any next()
    with pytest.raises(NonPositiveSizeError):
        iter_partitions(0)
    with pytest.raises(DeskCeilingError):
        iter_partitions(61)
    with pytest.raises(DeskCeilingError):
        iter_partitions(5, ceiling=4)


def test_bool_is_not_a_size():
    # True == 1, but a listing of True would print as (True)x[True]
    for call in (iter_raw, iter_partitions, partitions_of, count_partitions,
                 lambda n: filter_partitions(n, TRUE)):
        with pytest.raises(NonPositiveSizeError, match="got True"):
            call(True)


def test_streaming_generator():
    gen = iter_partitions(40)
    first = next(gen)
    assert first == Partition((40,), (1,))
    assert iter(gen) is gen


def test_golden_fixture_eleven():
    lines = FIXTURES.joinpath("partitions_11.txt").read_text().splitlines()
    fixture = [Partition.from_text(line) for line in lines if line.strip()]
    assert len(fixture) == 56
    assert len(set(fixture)) == 56
    assert all(p.size == 11 for p in fixture)
    assert set(fixture) == set(partitions_of(11))


def test_listings_store_each_distinct_tuple_once():
    # one object per distinct parts or mults value, across both fields
    for listing in (partitions_of(30), filter_partitions(30, builtin("Delta1"))):
        tuples = [t for p in listing for t in (p.parts, p.mults)]
        assert len(listing) > 1000
        assert len({id(t) for t in tuples}) == len(set(tuples))


def test_listing_memory_per_partition():
    # a slotted Partition and shared tuples hold p(36) = 17,977 partitions
    # in about 87 bytes each (CPython 3.10 to 3.13); an instance dict and
    # two fresh tuples per partition took 240 to 310
    tracemalloc.start()
    try:
        listing = partitions_of(36)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(listing) == count_partitions(36)
    assert held / len(listing) < 120
