"""One input rule: every size, order, offset, step budget and ceiling is an
int of at least its lowest value, and no bool or float is a letter or an option.

A bool is an int subclass, so ``True`` would pass a bare range check as 1
and ``2.5`` would pass as a number; each site below rejects both with its
own error class and a message that names the value.
"""

import pytest

from tripart import TRUE, Partition, builtin
from tripart import realmap, trimap
from tripart.core import InputError
from tripart.enumeration import (
    DeskCeilingError, NonPositiveSizeError, count_partitions, filter_partitions, iter_partitions,
    iter_raw, partitions_of,
)
from tripart.identities import (
    NonPositiveOffsetError, certify_bijection, verify_cylinder_theorems, verify_euler_chain,
    verify_gauss_theorem, verify_offset_theorem,
)
from tripart.qseries import (
    distinct_parts_product, divisor_series, expand_partition_gf, expand_product, multiples_series,
    odd_parts_product, ones_series, set_series,
)
from tripart.realmap import ConePoint, ConePointError, cf_digits_via_map
from tripart.sets import cylinder, delta0_offset, delta1_offset, gauss_set

_SIZE = "n must be a positive integer, got "
_ORDER = "truncation order N must be non-negative, got "

# site -> (call on the value, lowest value accepted, error class, message before the value)
_SITES = {
    "iter_raw": (iter_raw, 1, NonPositiveSizeError, _SIZE),
    "iter_partitions": (iter_partitions, 1, NonPositiveSizeError, _SIZE),
    "partitions_of": (partitions_of, 1, NonPositiveSizeError, _SIZE),
    "filter_partitions": (lambda v: filter_partitions(v, TRUE), 1, NonPositiveSizeError, _SIZE),
    "count_partitions": (count_partitions, 1, NonPositiveSizeError, _SIZE),
    "ceiling": (lambda v: partitions_of(1, ceiling=v), 1, DeskCeilingError,
                "ceiling must be a positive integer, got "),
    "n_max": (verify_euler_chain, 1, InputError, "n_max must be at least 1, got "),
    "offset d": (lambda v: verify_offset_theorem(v, 5), 1, NonPositiveOffsetError,
                 "d must be >= 1, got "),
    "gauss d": (lambda v: verify_gauss_theorem(v, 5), 1, NonPositiveOffsetError,
                "d must be >= 1, got "),
    "expand_partition_gf": (expand_partition_gf, 0, InputError, _ORDER),
    "distinct_parts_product": (distinct_parts_product, 0, InputError, _ORDER),
    "odd_parts_product": (odd_parts_product, 0, InputError, _ORDER),
    "ones_series": (ones_series, 0, InputError, _ORDER),
    "divisor_series": (divisor_series, 0, InputError, _ORDER),
    "set_series": (lambda v: set_series(TRUE, v), 0, InputError, _ORDER),
    "step": (lambda v: multiples_series(v, 5), 1, InputError, "step must be positive, got "),
    "exponent": (lambda v: expand_product([(1, v)], 5), 1, InputError,
                 "exponent must be positive, got "),
    "delta0_offset": (delta0_offset, 1, InputError, "offset d must be >= 1, got "),
    "delta1_offset": (delta1_offset, 1, InputError, "offset d must be >= 1, got "),
    "gauss_set": (gauss_set, 0, InputError, "d must be >= 0, got "),
    "trimap.orbit": (lambda v: trimap.orbit(Partition.from_text("(6,5)x[1,1]"), v), 0,
                     InputError, "max_steps must be >= 0, got "),
    "realmap.orbit": (lambda v: realmap.orbit(ConePoint((7, 2)), v), 0, InputError,
                      "max_steps must be >= 0, got "),
    "cf_digits_via_map": (lambda v: cf_digits_via_map(7, 2, max_steps=v), 0, InputError,
                          "max_steps must be >= 0, got "),
}


@pytest.mark.parametrize("bad", [lambda low: True, lambda low: 2.5, lambda low: low - 1],
                         ids=["True", "2.5", "low-1"])
@pytest.mark.parametrize("site", _SITES)
def test_each_whole_number_site_rejects_a_bool_a_float_and_too_low(site, bad):
    call, low, error, message = _SITES[site]
    value = bad(low)
    with pytest.raises(error) as caught:
        call(value)
    assert type(caught.value) is error
    assert str(caught.value) == message + repr(value)


@pytest.mark.parametrize("call, error, value", [
    (lambda: certify_bijection(builtin("Delta0"), builtin("M0"), (False,), 11), InputError, False),
    (lambda: certify_bijection(builtin("Delta0"), builtin("M0"), (1.0,), 11), InputError, 1.0),
    (lambda: cylinder((0, True)), InputError, True),
    (lambda: cylinder((1.0,)), InputError, 1.0),
    (lambda: verify_cylinder_theorems(5, steps=True), InputError, True),
    (lambda: expand_product([(True, 2)], 4), InputError, True),
    (lambda: ConePoint((3, True)), ConePointError, True),
], ids=["route False", "route 1.0", "cylinder True", "cylinder 1.0", "steps True",
        "sign True", "cone point True"])
def test_no_bool_or_float_is_a_letter_option_sign_or_coordinate(call, error, value):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value).endswith(repr(value))

