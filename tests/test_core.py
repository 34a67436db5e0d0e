"""Partition construction, normalization, size, dimension, classification."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from tripart import (
    EmptyPartitionError,
    LengthMismatchError,
    NonDecreasingPartsError,
    NonPositiveEntryError,
    NotSortedError,
    Partition,
    PartitionClass,
    PartitionError,
    make_partition,
)
from tripart.enumeration import iter_partitions

from strategies import partitions


def test_construction_basic():
    p = make_partition([6, 5, 4, 2], [1, 1, 1, 1])
    assert p.size == 17
    assert p.dimension == 4


def test_equal_parts_rejected():
    with pytest.raises(NonDecreasingPartsError):
        make_partition([3, 3], [1, 1])


def test_single_part():
    p = make_partition([7], [1])
    assert p.size == 7
    assert p.dimension == 1


def test_increasing_parts_rejected():
    with pytest.raises(NonDecreasingPartsError):
        make_partition([2, 5], [1, 1])


def test_validation_errors():
    with pytest.raises(EmptyPartitionError):
        make_partition([], [])
    with pytest.raises(LengthMismatchError):
        make_partition([3, 2], [1])
    with pytest.raises(NonPositiveEntryError):
        make_partition([3, 0], [1, 1])
    with pytest.raises(NonPositiveEntryError):
        make_partition([3, 2], [1, -1])
    with pytest.raises(NonPositiveEntryError):
        make_partition([3.5], [1])
    # True == 1, but it prints as "True", which from_text cannot read back
    for parts, mults in (([True], [3]), ([2], [True]), ([2, True], [1, 1])):
        with pytest.raises(NonPositiveEntryError, match="True is not a positive integer"):
            make_partition(parts, mults)
    with pytest.raises(NonPositiveEntryError, match="part True is not"):
        Partition.from_json({"parts": [True], "mults": [3]})


def test_from_weak_sequence_examples():
    assert Partition.from_weak_sequence([3, 2, 2]) == Partition((3, 2), (1, 2))
    assert Partition.from_weak_sequence([5]) == Partition((5,), (1,))
    assert Partition.from_weak_sequence([2, 2, 1, 1, 1]) == Partition((2, 1), (2, 3))


def test_from_weak_sequence_errors():
    with pytest.raises(NotSortedError):
        Partition.from_weak_sequence([1, 2])
    with pytest.raises(NonPositiveEntryError):
        Partition.from_weak_sequence([2, 0])
    with pytest.raises(NonPositiveEntryError, match="part True is not"):
        Partition.from_weak_sequence([2, True])
    with pytest.raises(EmptyPartitionError):
        Partition.from_weak_sequence([])


def test_size_examples():
    assert Partition((2, 1), (2, 3)).size == 7
    assert Partition((1,), (11,)).size == 11
    p = Partition((11, 8, 6, 3), (2, 3, 4, 5))
    assert p.size == 85
    assert p.size == sum(p.expand())


def test_dimension_examples():
    assert Partition((5, 4, 2), (1, 1, 1)).dimension == 3
    assert Partition((7,), (1,)).dimension == 1
    assert Partition((3, 2, 1), (1, 1, 6)).dimension == 3


def test_classify_examples():
    assert Partition((6, 5, 4, 2), (1, 1, 1, 1)).classify() is PartitionClass.DELTA0
    assert Partition((9, 5, 4, 2), (1, 1, 1, 1)).classify() is PartitionClass.DELTA1
    assert Partition((6, 3), (4, 1)).classify() is PartitionClass.DELTA_D
    assert Partition((7,), (1,)).classify() is PartitionClass.DIM1


def test_classify_trichotomy_exhaustive():
    # DIM1 exactly in dimension one; otherwise exactly one class per the
    # comparison, with the dim-2 threshold read as twice the second part
    for n in range(1, 41):
        for p in iter_partitions(n):
            cls = p.classify()
            if p.dimension == 1:
                assert cls is PartitionClass.DIM1
                continue
            if p.dimension == 2:
                threshold = 2 * p.parts[1]
            else:
                threshold = p.parts[1] + p.parts[-1]
            if p.parts[0] < threshold:
                assert cls is PartitionClass.DELTA0
            elif p.parts[0] > threshold:
                assert cls is PartitionClass.DELTA1
            else:
                assert cls is PartitionClass.DELTA_D


@given(partitions())
def test_expand_round_trip(p):
    assert Partition.from_weak_sequence(list(p.expand())) == p
    assert p.size == sum(p.expand())


def test_text_form():
    p = Partition((5, 4, 2), (1, 1, 1))
    assert str(p) == "(5,4,2)x[1,1,1]"
    assert Partition.from_text("(5,4,2)x[1,1,1]") == p
    assert Partition.from_text(" (5,4,2) × [1,1,1] ") == p


def test_text_form_rejects_garbage():
    for bad in ("", "(5,4,2)", "5,4,2x[1,1,1]", "(5,,2)x[1,1]", "(a)x[1]"):
        with pytest.raises(PartitionError):
            Partition.from_text(bad)
    with pytest.raises(NonDecreasingPartsError):
        Partition.from_text("(3,3)x[1,1]")


@given(partitions())
def test_text_round_trip_random(p):
    assert Partition.from_text(str(p)) == p
    assert eval(repr(p)) == p


@given(st.one_of(partitions(), partitions(max_part=60, max_len=24),
                 partitions(max_part=10**6, max_len=16)))
def test_text_form_is_the_joined_parts_and_mults(p):
    # the per-dimension template gives exactly the text of joining str()
    # of each part and each multiplicity, in dimensions 1 to 24
    text = "({})x[{}]".format(",".join(str(v) for v in p.parts),
                              ",".join(str(k) for k in p.mults))
    assert str(p) == text
    assert Partition.from_text(str(p)) == p


def test_json_round_trip():
    p = Partition((4, 2, 1), (2, 1, 1))
    assert p.to_json() == {"parts": [4, 2, 1], "mults": [2, 1, 1]}
    assert Partition.from_json(p.to_json()) == p


def test_partitions_hashable_and_frozen():
    p = Partition((3, 1), (1, 2))
    assert len({p, Partition((3, 1), (1, 2))}) == 1
    with pytest.raises(AttributeError):
        p.parts = (2,)


def test_partition_has_slots_and_no_instance_dict():
    built = Partition((4, 2, 1), (2, 1, 1))
    wrapped = next(p for p in iter_partitions(11) if p.mults == (2, 1, 1))
    assert Partition.__slots__ == ("parts", "mults")
    for p in (built, wrapped):
        assert not hasattr(p, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.parts = (8,)
        # a name that is not a field is refused the same way
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.note = "no room"
    assert built == wrapped == Partition.from_text("(4,2,1)x[2,1,1]")
    assert hash(built) == hash(wrapped)
    assert built != Partition((4, 2, 1), (1, 2, 1))


def test_slotted_partition_pickles_and_copies():
    for p in iter_partitions(7):
        copies = [pickle.loads(pickle.dumps(p, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.deepcopy(p), copy.copy(p)]
        for other in copies:
            assert type(other) is Partition
            assert (other.parts, other.mults) == (p.parts, p.mults)
            assert other == p and hash(other) == hash(p)
            assert not hasattr(other, "__dict__")
