"""The frozen value classes other than Partition: each behaves as the
``@dataclass(frozen=True)`` it replaces, on the ``core.Record`` base."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from tripart.core import Partition, Record
from tripart.dsl import And, Cmp, LinExpr, Lit, Not, Or, Parity, Quant, Sym
from tripart.enumeration import partitions_of
from tripart.identities import BijectionCertificate, CountReport, EqualityCheck
from tripart.qseries import SeriesCoeffs
from tripart.realmap import ConePoint, ConePointError
from tripart.sets import RegistryEntry
from tripart.trimap import Branch, apply_t, orbit

P = Partition((3, 1), (1, 1))
Q = Partition((2, 1), (1, 2))


def _build():
    """(instance, its repr as the dataclass printed it) for each class."""
    return [
        (Sym("L", -1), "Sym(kind='L', index=-1)"),
        (LinExpr(((2, Sym("K", 1)),), 3), "LinExpr(terms=((2, Sym(kind='K', index=1)),), const=3)"),
        (Lit(True), "Lit(value=True)"),
        (Cmp(LinExpr(((1, Sym("dim")),)), ">=", LinExpr((), 2)),
         "Cmp(lhs=LinExpr(terms=((1, Sym(kind='dim', index=None)),), const=0), op='>=',"
         " rhs=LinExpr(terms=(), const=2))"),
        (Parity(Sym("L", "bound"), True), "Parity(sym=Sym(kind='L', index='bound'), odd=True)"),
        (Not(Lit(False)), "Not(item=Lit(value=False))"),
        (And((Lit(True), Lit(False))), "And(items=(Lit(value=True), Lit(value=False)))"),
        (Or((Lit(True), Lit(False))), "Or(items=(Lit(value=True), Lit(value=False)))"),
        (Quant(forall=False, body=Parity(Sym("idx"), False)),
         "Quant(forall=False, body=Parity(sym=Sym(kind='idx', index=None), odd=False))"),
        (partitions_of(3),
         "PartitionList(n=3, items=(Partition.from_text('(3)x[1]'),"
         " Partition.from_text('(2,1)x[1,1]'), Partition.from_text('(1)x[3]')))"),
        (EqualityCheck("A = B", False, 4, 1, 2, (P,), ()),
         "EqualityCheck(label='A = B', passed=False, first_failure=4, lhs_count=1, rhs_count=2,"
         " only_lhs=(Partition.from_text('(3,1)x[1,1]'),), only_rhs=())"),
        (CountReport(1, 2, ("A", "B"), ((0, 0), (1, 1)), (EqualityCheck("A = B", True),), ("a note",)),
         "CountReport(n_lo=1, n_hi=2, columns=('A', 'B'), rows=((0, 0), (1, 1)),"
         " checks=(EqualityCheck(label='A = B', passed=True, first_failure=None, lhs_count=None,"
         " rhs_count=None, only_lhs=(), only_rhs=()),), notes=('a note',))"),
        (BijectionCertificate(4, "A", "B", (Branch.T1,), ((P, (Branch.T1,), Q),)),
         "BijectionCertificate(n=4, domain_name='A', codomain_name='B', route=(<Branch.T1: 'T1'>,),"
         " pairs=((Partition.from_text('(3,1)x[1,1]'), (<Branch.T1: 'T1'>,),"
         " Partition.from_text('(2,1)x[1,2]')),))"),
        (SeriesCoeffs((1, 1, 2, 3)), "SeriesCoeffs(coeffs=(1, 1, 2, 3))"),
        (ConePoint((Fraction(7, 2), 1)), "ConePoint(coords=(Fraction(7, 2), 1))"),
        (RegistryEntry("X", "2*L2 > L1", "L2 + Llast > L1", note="a note"),
         "RegistryEntry(name='X', dim2='2*L2 > L1', dim3='L2 + Llast > L1', uniform=None,"
         " note='a note')"),
        (apply_t(P),
         "MapStep(source=Partition.from_text('(3,1)x[1,1]'), branch=<Branch.T1: 'T1'>,"
         " image=Partition.from_text('(2,1)x[1,2]'))"),
        (orbit(P, 5),
         "Orbit(start=Partition.from_text('(3,1)x[1,1]'), steps=(MapStep(source="
         "Partition.from_text('(3,1)x[1,1]'), branch=<Branch.T1: 'T1'>, image="
         "Partition.from_text('(2,1)x[1,2]')), MapStep(source=Partition.from_text('(2,1)x[1,2]'),"
         " branch=<Branch.TD: 'TD'>, image=Partition.from_text('(1)x[4]'))),"
         " terminal=Partition.from_text('(1)x[4]'))"),
    ]


CASES = _build()
CLASSES = [type(obj) for obj, _ in CASES]


def test_every_record_class_is_covered():
    # the 18 classes here and Partition are every Record subclass in the package
    assert len(set(CLASSES)) == 18
    defined = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("tripart.")}
    assert defined == set(CLASSES) | {Partition}


@pytest.mark.parametrize("index", range(len(CASES)), ids=[cls.__name__ for cls in CLASSES])
def test_record_behaves_as_a_frozen_dataclass(index):
    obj, text = CASES[index]
    again, _ = _build()[index]
    cls = type(obj)
    # equal and hashed by value
    assert obj is not again and obj == again and hash(obj) == hash(again)
    assert len({obj, again}) == 1
    # another class with the same fields and values is not equal
    twin_cls = type("Twin", (Record,), {"__slots__": cls.__slots__})
    twin = twin_cls(*(getattr(obj, name) for name in cls.__slots__))
    assert obj != twin and twin != obj
    assert repr(obj) == text
    assert not hasattr(obj, "__dict__")
    field = cls.__slots__[0]
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.stray = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    assert obj == again
    copies = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(obj), copy.deepcopy(obj)]
    for other in copies:
        assert type(other) is cls and other == obj and repr(other) == text
    # _replace, as dataclasses.replace: no change, or a field set to its own value, is a copy
    value = getattr(obj, field)
    assert obj._replace() == obj
    assert obj._replace(**{field: value}) == obj
    with pytest.raises(TypeError):
        obj._replace(no_such_field=1)


def test_replace_builds_through_init():
    report = CountReport(1, 2, ("A", "B"), ((0, 0), (1, 1)), ())
    assert report._replace(columns=("A",), notes=("n",)) == CountReport(
        1, 2, ("A",), ((0, 0), (1, 1)), (), ("n",))
    # a replaced field is validated like a built one
    point = ConePoint((3, 2))
    assert point._replace(coords=(5, 1)) == ConePoint((5, 1))
    with pytest.raises(ConePointError):
        point._replace(coords=(1, 2))


def _package_records():
    """Every Record subclass the package defines, at any depth."""
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("tripart.") and cls not in found:
                found.add(cls)
                todo.append(cls)
    return found


@pytest.mark.parametrize("index", range(len(CASES)), ids=[cls.__name__ for cls in CLASSES])
def test_record_binds_fields_by_keyword(index):
    obj, _ = CASES[index]
    cls = type(obj)
    values = [getattr(obj, name) for name in cls.__slots__]
    assert cls(**dict(zip(cls.__slots__, values))) == obj
    # any split between positions and keywords
    for k in range(len(values) + 1):
        assert cls(*values[:k], **dict(zip(cls.__slots__[k:], values[k:]))) == obj


@pytest.mark.parametrize("index", range(len(CASES)), ids=[cls.__name__ for cls in CLASSES])
def test_record_defaults_come_last(index):
    obj, _ = CASES[index]
    cls = type(obj)
    defaults = cls._defaults
    required = len(cls.__slots__) - len(defaults)
    assert list(defaults) == list(cls.__slots__[required:])
    values = [getattr(obj, name) for name in cls.__slots__[:required]]
    assert cls(*values) == obj._replace(**defaults)


def test_defaults_examples():
    assert Sym("dim") == Sym("dim", None) == Sym(kind="dim")
    assert LinExpr(()) == LinExpr((), 0)
    assert CountReport(1, 2, (), (), ()).notes == ()
    check = EqualityCheck("A = B", True)
    assert (check.first_failure, check.lhs_count, check.rhs_count) == (None, None, None)
    assert (check.only_lhs, check.only_rhs) == ((), ())
    assert RegistryEntry("X") == RegistryEntry("X", None, None, None, "")
    assert RegistryEntry("X", uniform="dim >= 2").dim2 is None


class Pair(Record):
    __slots__ = ("first", "second")


# a call each Record rejects: a field missing, an unknown keyword, a field
# given by position and keyword, and one value too many
_BAD_CALLS = {
    "missing": lambda cls, values: cls(**dict(zip(cls.__slots__[1:], values[1:]))),
    "unknown": lambda cls, values: cls(*values, no_such_field=1),
    "repeated": lambda cls, values: cls(*values, **{cls.__slots__[0]: values[0]}),
    "too_many": lambda cls, values: cls(*values, None),
}


@pytest.mark.parametrize("call", _BAD_CALLS.values(), ids=list(_BAD_CALLS))
@pytest.mark.parametrize("index", range(len(CASES)), ids=[cls.__name__ for cls in CLASSES])
def test_record_rejects_a_bad_call_naming_the_class(index, call):
    obj, _ = CASES[index]
    cls = type(obj)
    with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
        call(cls, [getattr(obj, name) for name in cls.__slots__])


@pytest.mark.parametrize("call", _BAD_CALLS.values(), ids=list(_BAD_CALLS))
def test_slots_only_subclass_rejects_a_bad_call(call):
    with pytest.raises(TypeError, match=r"\bPair\(\)"):
        call(Pair, [1, 2])


def test_slots_only_subclass_binds_by_keyword():
    assert Pair(1, 2) == Pair(second=2, first=1) == Pair(1, second=2)
    assert repr(Pair(1, 2)) == "Pair(first=1, second=2)"


def test_bad_call_messages():
    with pytest.raises(TypeError, match=r"^Sym\(\) got multiple values for argument 'kind'$"):
        Sym("L", kind="K")
    with pytest.raises(TypeError, match=r"^Sym\(\) got an unexpected keyword argument 'name'$"):
        Sym("L", name="K")
    with pytest.raises(TypeError, match=r"^Sym\(\) takes 2 values but 3 were given$"):
        Sym("L", 1, 2)
    with pytest.raises(TypeError, match=r"^Sym\(\) missing a value for 'kind'$"):
        Sym(index=1)
    with pytest.raises(TypeError, match=r"^Pair\(\) missing a value for 'first', 'second'$"):
        Pair()


def test_only_validating_records_define_init():
    records = _package_records()
    assert records == set(CLASSES) | {Partition}
    own_init = {cls.__name__ for cls in records if "__init__" in vars(cls)}
    assert own_init == {"Partition", "MapStep", "ConePoint"}
