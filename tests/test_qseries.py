"""Series coefficients along independent routes."""

import pytest

from tripart import builtin, count_partitions, parse_predicate
from tripart.core import ContractError, InputError
from tripart.identities import count_columns, count_set, odd_divisor_count
from tripart.qseries import (
    distinct_parts_product,
    divisor_series,
    expand_E_series,
    expand_partition_gf,
    expand_product,
    multiples_series,
    odd_divisor_series,
    odd_parts_product,
    ones_series,
    set_series,
    set_series_many,
    support_series,
)

import oracles


def test_partition_gf_values():
    series = expand_partition_gf(11)
    assert series[0] == 1
    assert series[7] == 15
    assert series[11] == 56
    assert expand_partition_gf(0).coeffs == (1,)


def test_partition_gf_matches_recurrence():
    series = expand_partition_gf(40)
    for n in range(1, 41):
        assert series[n] == count_partitions(n)


def test_expand_product_distinct_and_odd():
    assert distinct_parts_product(11)[11] == 12
    assert odd_parts_product(11)[11] == 12
    assert expand_product([], 5).coeffs == (1, 0, 0, 0, 0, 0)
    # a factor beyond the truncation order is skipped
    assert expand_product([(1, 6), (-1, 9)], 5).coeffs == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        expand_product([(1, 0)], 5)


_SERIES_OF_ORDER = {
    "partition_gf": expand_partition_gf,
    "distinct": distinct_parts_product,
    "odd": odd_parts_product,
    "divisor": divisor_series,
    "odd_divisor": odd_divisor_series,
    "ones": ones_series,
    "product": lambda N: expand_product([(1, 1)], N),
    "multiples": lambda N: multiples_series(3, N),
    "set": lambda N: set_series(builtin("D"), N),
    "set_many": lambda N: set_series_many([builtin("D"), builtin("O")], N)[1],
    "E0": lambda N: expand_E_series("E0", N),
    "support": lambda N: support_series(lambda parts: True, N),
}


@pytest.mark.parametrize("name", _SERIES_OF_ORDER)
def test_negative_order_is_an_input_error(name):
    series = _SERIES_OF_ORDER[name]
    with pytest.raises(InputError, match="truncation order N must be non-negative, got -1$"):
        series(-1)
    assert len(series(0)) == 1


@pytest.mark.parametrize("sign", [0, 2, 5, -2])
def test_expand_product_rejects_other_signs(sign):
    # also for a factor beyond the truncation order, which would be skipped
    for e in (1, 9):
        with pytest.raises(InputError, match=rf"sign must be \+1 or -1, got {sign}$"):
            expand_product([(1, 2), (sign, e)], 5)


def test_products_match_oracle_counts():
    d = distinct_parts_product(20)
    o = odd_parts_product(20)
    for n in range(1, 21):
        assert d[n] == oracles.count_matching(n, oracles.is_distinct)
        assert o[n] == oracles.count_matching(n, oracles.is_all_odd)


def test_divisor_series():
    series = divisor_series(12)
    assert series[1] == 1
    assert series[6] == 4
    assert series[12] == 6
    dim1 = parse_predicate("dim = 1")
    for n in range(1, 31):
        assert divisor_series(31)[n] == count_set(dim1, n)


def test_odd_divisor_series():
    series = odd_divisor_series(30)
    for n in range(1, 31):
        assert series[n] == odd_divisor_count(n)


def test_set_series_examples():
    assert set_series(builtin("E0"), 11)[11] == 3
    assert set_series(builtin("O"), 11)[11] == 12
    assert set_series(builtin("E0"), 11)[0] == 0


def test_set_series_many_matches_count_columns():
    from tripart.sets import cylinder, names

    preds = [builtin(name) for name in names()] + [cylinder((0, 1, 1))]
    series = set_series_many(preds, 16)
    rows = count_columns(preds, 1, 16)
    for j, column in enumerate(series):
        assert column.coeffs == (0,) + tuple(row[j] for row in rows)
    assert [s.coeffs for s in set_series_many(preds[:2], 0)] == [(0,), (0,)]
    # a plain callable is a set here too, as it is for count_columns
    def two_parts(p):
        return p.dimension == 2

    [plain] = set_series_many([two_parts], 16)
    assert plain.coeffs == (0,) + tuple(row[0] for row in count_columns([two_parts], 1, 16))


def test_disjoint_cover_sums_to_p():
    dim1 = parse_predicate("dim = 1")
    series = set_series_many(
        [builtin("Delta0"), builtin("Delta1"), builtin("DeltaD"), dim1], 30
    )
    total = series[0] + series[1] + series[2] + series[3]
    for n in range(1, 31):
        assert total[n] == count_partitions(n)


def test_e_series_closed_forms_match_enumeration():
    for N in (*range(25), 30):
        for which in ("E0", "E1", "ED"):
            closed = expand_E_series(which, N)
            counted = set_series(builtin(which), N)
            assert closed.coeffs == counted.coeffs, (which, N)


def test_e_series_values():
    assert expand_E_series("E0", 11)[3] == 0
    assert expand_E_series("E0", 11)[5] == 1    # smallest member (2,1)x[2,1]
    assert expand_E_series("E1", 11)[11] == 8
    assert expand_E_series("E1", 11)[4] == 1    # smallest member (2,1)x[1,2]
    assert expand_E_series("ED", 11)[11] == 0
    assert expand_E_series("ED", 11)[6] == 1    # smallest member (2,1)x[2,2]
    with pytest.raises(ValueError):
        expand_E_series("E2", 5)


def test_distinct_series_chain():
    N = 30
    lhs = distinct_parts_product(N)
    rhs = (
        ones_series(N)
        + expand_E_series("E0", N)
        + expand_E_series("E1", N)
        + expand_E_series("ED", N)
        + multiples_series(3, N)
    )
    assert lhs.coeffs == rhs.coeffs


def test_odd_series_chain():
    N = 30
    lhs = odd_parts_product(N)
    f_series = set_series_many([builtin("F0"), builtin("F1")], N)
    rhs = odd_divisor_series(N) + f_series[0] + f_series[1]
    # the chain counts partitions, so it starts at n = 1
    assert lhs.coeffs[1:] == rhs.coeffs[1:]


def test_support_series_dimension_counts():
    # sum over supports of geometric factors = count of fixed-dimension
    # partitions; dimension one is the divisor series
    one = support_series(lambda parts: True, 30, min_dim=1, max_dim=1)
    assert one.coeffs == divisor_series(30).coeffs
    for N in range(26):
        for m in (1, 2, 3):
            series = support_series(lambda parts: True, N, min_dim=m, max_dim=m)
            dim_m = parse_predicate(f"dim = {m}")
            assert series.coeffs == set_series(dim_m, N).coeffs, (m, N)


def test_support_series_cone_sets():
    conditions = {
        "Delta0": lambda q: len(q) >= 2 and q[0] < q[1] + q[-1],
        "Delta1": lambda q: len(q) >= 2 and q[0] > q[1] + q[-1],
        "DeltaD": lambda q: len(q) >= 2 and q[0] == q[1] + q[-1],
    }
    for name, cond in conditions.items():
        series = support_series(cond, 25, min_dim=2)
        assert series.coeffs == set_series(builtin(name), 25).coeffs, name


def test_support_series_cylinders():
    def c00(q):
        if len(q) == 2:
            return q[0] < 2 * q[1] and 3 * q[1] < 2 * q[0]
        return len(q) >= 3 and q[0] < q[1] + q[-1] and 2 * q[1] < q[0] + q[2]

    def c11(q):
        if len(q) == 2:
            return q[0] > 3 * q[1]
        return len(q) >= 3 and q[0] > q[1] + 2 * q[-1]

    assert support_series(c00, 25, min_dim=2).coeffs == set_series(builtin("Delta00"), 25).coeffs
    assert support_series(c11, 25, min_dim=2).coeffs == set_series(builtin("Delta11"), 25).coeffs


def test_series_arithmetic_guards():
    with pytest.raises(ValueError):
        ones_series(5) + ones_series(6)
    with pytest.raises(ContractError, match="series have different truncation orders"):
        ones_series(5) - ones_series(6)
    with pytest.raises(ValueError):
        multiples_series(0, 5)
    assert (ones_series(3) - ones_series(3)).coeffs == (0, 0, 0, 0)
    assert len(ones_series(3)) == 4


@pytest.mark.parametrize("step", [0, -2])
def test_multiples_series_names_a_bad_step(step):
    with pytest.raises(InputError, match=rf"^step must be positive, got {step}$"):
        multiples_series(step, 5)


def test_series_json():
    payload = divisor_series(3).to_json()
    assert payload == {"order": 3, "coeffs": [0, 1, 2, 2]}
