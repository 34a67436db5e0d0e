"""Triangle-map partition toolkit.

Exact enumeration of integer partitions in part-by-multiplicity form,
the piecewise triangle map with its branch inverses, a predicate
language naming every set of interest, an enumeration-backed identity
verification engine, q-series coefficient routes, and the slow map on
the real cone over exact rationals.

``import tripart`` loads no submodule: each public name below is
imported from its module the first time it is read (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("EmptyPartitionError", "LengthMismatchError", "NonDecreasingPartsError",
                     "NonPositiveEntryError", "NotSortedError", "Partition", "PartitionClass",
                     "PartitionError", "make_partition"), "core"),
    **dict.fromkeys(("SetPredicate", "parse_predicate", "TRUE"), "dsl"),
    **dict.fromkeys(("DESK_CEILING", "PartitionList", "count_partitions", "filter_partitions",
                     "iter_partitions", "partitions_of"), "enumeration"),
    **dict.fromkeys(("builtin", "cylinder", "delta0_offset", "delta1_offset", "gauss_set",
                     "parse_set_expression"), "sets"),
    **dict.fromkeys(("Branch", "MapStep", "Orbit", "apply_t", "apply_t0", "apply_t0_inverse",
                     "apply_t1", "apply_t1_inverse", "apply_td", "orbit",
                     "td_part_injectivity_check"), "trimap"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
        globals()[name] = value  # later reads find it without this hook
        return value
    if name in _HOMES.values():
        # a module that the package's own names come from; importing it
        # also binds it here
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES})
