"""Integer partitions in part-by-multiplicity form.

A partition of n is stored as strictly decreasing parts with positive
multiplicities: 7 = 2+2+1+1+1 becomes (2,1)x[2,3].  The size is the dot
product of parts and multiplicities and the dimension is the number of
distinct parts.  Partitions of dimension at least two split into three
classes by comparing the largest part with the sum of the second and
smallest parts (read as twice the second part in dimension two); the
triangle map dispatches on that trichotomy.  The two off-diagonal moves
of the slow map on decreasing vectors are defined here too, and so are
the two bases of the library's errors: ``InputError`` for input that is
wrong and ``ContractError`` for an operation applied outside its
contract.  The CLI maps the first to exit 2 and the second to exit 3.
``Record`` is the base of ``Partition`` and of every other frozen value
class in the package.
"""

from __future__ import annotations

import enum
import re
from itertools import groupby


class InputError(ValueError):
    """The caller's input is wrong: malformed, out of range or unknown."""


class ContractError(ValueError):
    """An operation was applied outside its contract, e.g. the wrong map branch."""


def check_whole(value, low: int, message: str, error=InputError) -> None:
    """Raise ``error(message.format(value))`` unless ``value`` is an int,
    not a bool, of at least ``low``: the one rule for every size, order,
    offset, step budget and ceiling."""
    if type(value) is not int or value < low:
        raise error(message.format(value))


class PartitionError(InputError):
    """Invalid partition data."""


class EmptyPartitionError(PartitionError):
    """No parts were given."""


class LengthMismatchError(PartitionError):
    """Parts and multiplicities have different lengths."""


class NonPositiveEntryError(PartitionError):
    """A part or multiplicity is zero or negative."""


class NonDecreasingPartsError(PartitionError):
    """Parts are not strictly decreasing."""


class NotSortedError(PartitionError):
    """A weak part sequence is not non-increasing."""


class PartitionClass(enum.Enum):
    """Which branch of the triangle map applies to a partition."""

    DELTA0 = "Delta0"
    DELTA1 = "Delta1"
    DELTA_D = "DeltaD"
    DIM1 = "Dim1"

    def __str__(self) -> str:
        return self.value


# Module names for the members: reading PartitionClass.X costs about as
# much as the comparison itself, and every map step classifies.
_DELTA0, _DELTA1, _DELTA_D, _DIM1 = (
    PartitionClass.DELTA0, PartitionClass.DELTA1, PartitionClass.DELTA_D, PartitionClass.DIM1
)


def classify_parts(xs) -> PartitionClass:
    """The trichotomy of a strictly decreasing sequence of numbers.

    DIM1 for a single entry; otherwise the first entry is compared with
    the second plus the last.  In dimension two the second entry is the
    last, so the threshold is twice the second, as required.  Partition
    parts, raw part tuples and rational cone points all classify here.
    """
    if len(xs) == 1:
        return _DIM1
    threshold = xs[1] + xs[-1]
    if xs[0] < threshold:
        return _DELTA0
    if xs[0] > threshold:
        return _DELTA1
    return _DELTA_D


def _below(xs):
    """The slow map's move below the diagonal: (x2..xm, x1-x2).

    Like :func:`classify_parts`, it takes any decreasing tuple whose
    entries subtract: partition parts, rational cone coordinates or the
    linear forms that derive cylinders.
    """
    return xs[1:] + (xs[0] - xs[1],)


def _above(xs):
    """The slow map's move above the diagonal: (x1-xm, x2..xm); see :func:`_below`."""
    return (xs[0] - xs[-1],) + xs[1:]


class _Templates(dict):
    """Dimension m -> ``build(m)``, a ``%s`` template with m slots for the
    parts and then m for the multiplicities, built on first use.

    Filling one template with ``parts + mults`` takes well under half the
    time of joining the parts and multiplicities, and ``%s`` formats an
    int exactly as ``str`` does.
    """

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, m: int) -> str:
        template = self[m] = self._build(m)
        return template


# "(%s,...)x[%s,...]" with m slots in each bracket
_TEXT_TEMPLATES = _Templates(lambda m: "({0})x[{0}]".format(",".join(["%s"] * m)))

_TEXT_RE = re.compile(r"^\((\d+(?:,\d+)*)\)\s*[x×]\s*\[(\d+(?:,\d+)*)\]$")


class Record:
    """Base of the package's frozen value classes, in place of ``@dataclass(frozen=True)``.

    A subclass names its fields in ``__slots__`` and takes them, in that
    order, in its own ``__init__``.  The base gives equality (same class,
    equal fields), the hash of the field tuple, the dataclass repr
    ``Name(field=value, ...)``, pickle and copy through ``__init__``,
    :meth:`_replace`, and ``dataclasses.FrozenInstanceError`` on any
    assignment.  Nothing is generated at import, so importing the package
    does not import ``dataclasses``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _replace(self, **changes):
        """A copy with ``changes`` applied, as ``dataclasses.replace`` makes."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through __init__: restoring slot state would go through
        # the frozen __setattr__
        return type(self), self._values()

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # only this error path needs the module

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class Partition(Record):
    """A partition as strictly decreasing parts with positive multiplicities.

    Construction validates; it never sorts or merges silently.  Use
    :meth:`from_weak_sequence` to normalize a plain non-increasing list
    of parts with repeats.  Instances have slots and no ``__dict__``:
    a listing of p(60) partitions keeps nearly a million of them, and
    the two tuples are all that one holds.  ``__init__``, ``__eq__`` and
    ``__hash__`` are written out for speed; validation stays in
    ``__post_init__``, which ``__init__`` calls.
    """

    __slots__ = ("parts", "mults")

    def __init__(self, parts: tuple[int, ...], mults: tuple[int, ...]):
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "mults", mults)
        self.__post_init__()

    def __post_init__(self):
        parts = tuple(self.parts)
        mults = tuple(self.mults)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "mults", mults)
        if not parts and not mults:
            raise EmptyPartitionError("a partition needs at least one part")
        if len(parts) != len(mults):
            raise LengthMismatchError(
                f"{len(parts)} parts but {len(mults)} multiplicities"
            )
        for v in parts:
            if type(v) is not int or v < 1:
                raise NonPositiveEntryError(f"part {v!r} is not a positive integer")
        for k in mults:
            if type(k) is not int or k < 1:
                raise NonPositiveEntryError(
                    f"multiplicity {k!r} is not a positive integer"
                )
        for a, b in zip(parts, parts[1:]):
            if a <= b:
                raise NonDecreasingPartsError(
                    f"parts must strictly decrease; saw {a} before {b}"
                    + (" (concatenate equal parts first)" if a == b else "")
                )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parts, self.mults) == (other.parts, other.mults)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts, self.mults))

    @classmethod
    def from_weak_sequence(cls, parts_with_repeats) -> "Partition":
        """Normalize a non-increasing sequence of positive parts.

        Equal runs are concatenated into one part with a multiplicity,
        so [3, 2, 2] becomes (3,2)x[1,2].
        """
        seq = list(parts_with_repeats)
        for v in seq:
            check_whole(v, 1, "part {!r} is not a positive integer", NonPositiveEntryError)
        for a, b in zip(seq, seq[1:]):
            if a < b:
                raise NotSortedError(f"sequence must be non-increasing; saw {a} before {b}")
        runs = [(v, len(list(run))) for v, run in groupby(seq)]
        return cls(tuple(v for v, _ in runs), tuple(k for _, k in runs))

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the canonical text form, e.g. ``(5,4,2)x[1,1,1]``."""
        m = _TEXT_RE.match(text.strip())
        if m is None:
            raise PartitionError(f"cannot parse partition literal {text!r}")
        parts = tuple(int(v) for v in m.group(1).split(","))
        mults = tuple(int(v) for v in m.group(2).split(","))
        return cls(parts, mults)

    @classmethod
    def from_json(cls, obj: dict) -> "Partition":
        """Build from the machine form ``{"parts": [...], "mults": [...]}``."""
        return cls(tuple(obj["parts"]), tuple(obj["mults"]))

    @classmethod
    def _wrap(cls, parts: tuple[int, ...], mults: tuple[int, ...]) -> "Partition":
        # Validation-free constructor for enumeration hot paths; the
        # caller guarantees the invariants hold.
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        object.__setattr__(p, "mults", mults)
        return p

    @property
    def size(self) -> int:
        """Dot product of parts and multiplicities."""
        return sum(v * k for v, k in zip(self.parts, self.mults))

    @property
    def dimension(self) -> int:
        """Number of distinct parts."""
        return len(self.parts)

    def expand(self) -> tuple[int, ...]:
        """The plain non-increasing part sequence with repeats."""
        out: list[int] = []
        for v, k in zip(self.parts, self.mults):
            out.extend([v] * k)
        return tuple(out)

    def classify(self) -> PartitionClass:
        """Place the partition in the triangle-map trichotomy."""
        return classify_parts(self.parts)

    def to_json(self) -> dict:
        return {"parts": list(self.parts), "mults": list(self.mults)}

    def __str__(self) -> str:
        return _TEXT_TEMPLATES[len(self.parts)] % (self.parts + self.mults)

    def __repr__(self) -> str:
        return f"Partition.from_text({str(self)!r})"


def make_partition(parts, mults) -> Partition:
    """Validated construction from two integer sequences."""
    return Partition(tuple(parts), tuple(mults))
