"""The verification engine: counts, theorem verifiers, certificates."""

import pytest

from tripart import Branch, Partition, apply_t0, apply_t1, apply_td, builtin, parse_set_expression
from tripart.core import InputError
from tripart.enumeration import DeskCeilingError, filter_partitions
from tripart.identities import (
    BranchMismatchError,
    NonPositiveOffsetError,
    NotInjectiveError,
    NotOntoError,
    certify_bijection,
    count_columns,
    count_set,
    gauss_final_image,
    gauss_step_image,
    odd_divisor_count,
    parse_route,
    verify_cylinder_theorems,
    verify_distinct_theorem,
    verify_equicount,
    verify_euler_chain,
    verify_gauss_theorem,
    verify_odd_theorem,
    verify_offset_theorem,
)

from tripart.sets import gauss_set

import oracles

P = Partition.from_text


def test_count_set_examples():
    assert count_set(builtin("Delta01"), 11) == 3
    assert count_set(builtin("D"), 11) == 12
    assert count_set(builtin("O"), 1) == 1


def test_counts_match_oracle():
    table = [
        ("D", oracles.is_distinct),
        ("O", oracles.is_all_odd),
        ("E0", oracles.is_e0),
        ("E1", oracles.is_e1),
        ("ED", oracles.is_ed),
        ("F0", oracles.is_f0),
        ("F1", oracles.is_f1),
    ]
    for n in (3, 7, 11, 18):
        for name, fn in table:
            assert count_set(builtin(name), n) == oracles.count_matching(n, fn), name


def test_count_columns_matches_count_set():
    preds = [builtin("D"), builtin("Delta0"), builtin("M1")]
    rows = count_columns(preds, 1, 15)
    for offset, row in enumerate(rows):
        n = offset + 1
        assert row == tuple(count_set(p, n) for p in preds)


def test_count_columns_mixed_columns_match_reference():
    # every registry set, a map-driven cylinder and a plain callable
    from tripart.sets import cylinder, names

    preds = [builtin(name) for name in names()] + [cylinder((0, 1, 1))]
    plain = lambda p: p.size % 3 == 0 or p.mults[-1] > p.mults[0]  # noqa: E731
    rows = count_columns(preds + [plain], 1, 16)
    for n, row in enumerate(rows, 1):
        members = [Partition._wrap(parts, mults) for parts, mults in oracles.part_mult_partitions(n)]
        expected = [sum(1 for p in members if pred.member(p)) for pred in preds]
        expected.append(sum(1 for p in members if plain(p)))
        assert row == tuple(expected), n
        assert count_set(plain, n) == expected[-1]


@pytest.mark.parametrize("n_lo, n_hi, message", [
    (5, 2, "n_hi must be at least n_lo=5, got 2"),
    (0, -1, "n_lo must be at least 1, got 0"),
    (True, 3, "n_lo must be at least 1, got True"),
])
def test_count_columns_rejects_an_empty_range(n_lo, n_hi, message):
    # an empty range would count nothing and let every relation pass
    with pytest.raises(InputError) as caught:
        count_columns([builtin("D")], n_lo, n_hi)
    assert str(caught.value) == message


def test_equicount_passes():
    report = verify_equicount(builtin("Delta0"), builtin("M0"), 25, ("Delta0", "M0"))
    assert report.passed
    assert report.columns == ("Delta0", "M0")
    report = verify_equicount(builtin("Delta1"), builtin("M1"), 25, ("Delta1", "M1"))
    assert report.passed


def test_equicount_failure_reporting():
    report = verify_equicount(builtin("D"), builtin("M0"), 12, ("D", "M0"))
    assert not report.passed
    check = report.checks[0]
    assert check.first_failure == 1
    assert check.lhs_count == 1
    assert check.rhs_count == 0
    assert P("(1)x[1]") in check.only_lhs
    assert check.only_rhs == ()


def test_offset_theorem():
    for d in (1, 3):
        report = verify_offset_theorem(d, 25)
        assert report.passed, d
    with pytest.raises(NonPositiveOffsetError):
        verify_offset_theorem(0, 10)
    # trivially equal at zero where both sides are empty
    report = verify_offset_theorem(1, 2)
    assert report.passed
    assert report.rows[1][:2] == (0, 0)


def test_cylinder_theorems():
    report = verify_cylinder_theorems(25)
    assert report.passed
    assert len(report.checks) == 8
    idx = {name: i for i, name in enumerate(report.columns)}
    row11 = report.rows[10]
    assert row11[idx["Delta01"]] == 3
    assert row11[idx["T0Delta01"]] == 3
    assert row11[idx["T1T0Delta01"]] == 3


def test_cylinder_theorems_step_slice():
    one = verify_cylinder_theorems(15, steps=1)
    two = verify_cylinder_theorems(15, steps=2)
    assert len(one.checks) == 4
    assert len(two.checks) == 4
    assert one.passed and two.passed
    assert [check.label for check in one.checks] == [
        "Delta00 = T0Delta00", "Delta01 = T0Delta01",
        "Delta10 = T1Delta10", "Delta11 = T1Delta11",
    ]
    assert [check.label for check in two.checks] == [
        "Delta00 = T0T0Delta00", "Delta01 = T1T0Delta01",
        "Delta10 = T0T1Delta10", "Delta11 = T1T1Delta11",
    ]
    # each slice is the full report restricted to its own columns and checks
    both = verify_cylinder_theorems(15)
    for part in (one, two):
        keep = [both.columns.index(name) for name in part.columns]
        assert part.rows == tuple(tuple(row[i] for i in keep) for row in both.rows)
        assert part.checks == tuple(c for c in both.checks if c in part.checks)
    assert both.checks == tuple(c for pair in zip(one.checks, two.checks) for c in pair)


@pytest.mark.parametrize("steps", [0, 3, -1])
def test_cylinder_theorems_reject_other_step_counts(steps):
    with pytest.raises(InputError, match=rf"got {steps}$"):
        verify_cylinder_theorems(8, steps=steps)


_VERIFIERS = {
    "euler": verify_euler_chain,
    "distinct": verify_distinct_theorem,
    "odd": verify_odd_theorem,
    "cylinder": verify_cylinder_theorems,
    "offset": lambda n: verify_offset_theorem(1, n),
    "gauss": lambda n: verify_gauss_theorem(1, n),
    # D = M0 is false, so a pass here could only be vacuous
    "equicount": lambda n: verify_equicount(builtin("D"), builtin("M0"), n),
}


@pytest.mark.parametrize("name", _VERIFIERS)
@pytest.mark.parametrize("n_max", [0, -3])
def test_empty_range_is_an_input_error(name, n_max):
    with pytest.raises(InputError, match=rf"n_max must be at least 1, got {n_max}$"):
        _VERIFIERS[name](n_max)


@pytest.mark.parametrize("verify, d, n_max", [
    (verify_offset_theorem, 5, 3), (verify_offset_theorem, 2, 1),
    (verify_gauss_theorem, 4, 2), (verify_gauss_theorem, 3, 2),
])
def test_offset_above_n_max_is_an_input_error(verify, d, n_max):
    # no member below n = d + 3, so every count would be 0 and the verdict vacuous
    with pytest.raises(InputError, match=rf"got d={d} and n_max={n_max}; every count would be 0$"):
        verify(d, n_max)


def test_gauss_theorem():
    for d in (1, 2):
        report = verify_gauss_theorem(d, 25)
        assert report.passed, d
        assert len(report.checks) == d + 2
        assert len(report.notes) == d
        assert all("0 applicable members" in note for note in report.notes)
    with pytest.raises(NonPositiveOffsetError):
        verify_gauss_theorem(0, 10)


def test_gauss_small_n_all_zero():
    report = verify_gauss_theorem(1, 3)
    assert report.passed
    assert all(v == 0 for row in report.rows for v in row)


def test_distinct_theorem():
    report = verify_distinct_theorem(30)
    assert report.passed
    assert report.columns == ("D", "E0", "E1", "ED", "corr")
    assert report.rows[10] == (12, 3, 8, 0, 1)    # n = 11
    assert report.rows[2] == (2, 0, 0, 0, 2)      # n = 3
    assert report.rows[0] == (1, 0, 0, 0, 1)      # n = 1


def test_odd_theorem():
    report = verify_odd_theorem(30)
    assert report.passed
    idx = {name: i for i, name in enumerate(report.columns)}
    row11 = report.rows[10]
    assert row11[idx["O"]] == 12
    assert row11[idx["oddDiv"]] == 2
    assert row11[idx["F0"]] + row11[idx["F1"]] == 10
    assert report.rows[0] == (1, 0, 0, 1)         # n = 1
    row9 = report.rows[8]
    assert row9[idx["oddDiv"]] == 3
    assert row9[idx["O"]] == 3 + row9[idx["F0"]] + row9[idx["F1"]]


def test_euler_chain():
    report = verify_euler_chain(30)
    assert report.passed
    assert len(report.checks) == 3
    idx = {name: i for i, name in enumerate(report.columns)}
    row7 = report.rows[6]
    assert row7[idx["D"]] == row7[idx["O"]] == 5


def test_odd_divisor_count():
    assert odd_divisor_count(1) == 1
    assert odd_divisor_count(9) == 3
    assert odd_divisor_count(11) == 2
    assert odd_divisor_count(12) == 2
    assert odd_divisor_count(16) == 1


def test_report_json():
    report = verify_distinct_theorem(5)
    payload = report.to_json()
    assert payload["passed"] is True
    assert payload["columns"][0] == "D"
    assert len(payload["rows"]) == 5


def test_certify_distinct_to_e0():
    cert = certify_bijection(
        parse_set_expression("D and Delta0"), builtin("E0"), (0,), 11,
        names=("D&Delta0", "E0"),
    )
    mapping = {str(src): str(img) for src, _, img in cert.pairs}
    assert mapping == {
        "(7,4)x[1,1]": "(4,3)x[2,1]",
        "(6,5)x[1,1]": "(5,1)x[2,1]",
        "(5,4,2)x[1,1,1]": "(4,2,1)x[2,1,1]",
    }


def test_certify_full_cone():
    cert = certify_bijection(builtin("Delta0"), builtin("M0"), (0,), 20)
    assert len(cert.pairs) == count_set(builtin("Delta0"), 20)
    # certification success implies the counts agree at that n
    report = verify_equicount(builtin("Delta0"), builtin("M0"), 20)
    assert report.rows[19][0] == report.rows[19][1] == len(cert.pairs)


def test_certify_wrong_codomain():
    with pytest.raises(NotOntoError):
        certify_bijection(builtin("Delta0"), builtin("M1"), (0,), 11)


def test_certify_branch_mismatch():
    with pytest.raises(BranchMismatchError):
        certify_bijection(builtin("Delta1"), builtin("M0"), (0,), 11)


def test_certify_branch_mismatch_mid_route():
    # the second letter fails, so the message names the partition reached
    # after one step as well as the domain member it came from
    with pytest.raises(BranchMismatchError) as info:
        certify_bijection(builtin("Delta0"), builtin("T0T0Delta00"), (0, 0), 11)
    assert str(info.value) == (
        "(5,1)x[2,1] (reached from (6,5)x[1,1]) is Delta1, "
        "but the route letter asks for Delta0"
    )


def test_certify_branch_mismatch_in_dimension_one():
    with pytest.raises(BranchMismatchError) as info:
        certify_bijection(parse_set_expression("dim = 1"), builtin("M0"), (0,), 7)
    assert str(info.value) == (
        "(7)x[1] (reached from (7)x[1]) is Dim1, but the route letter asks for Delta0"
    )


def test_certify_branch_mismatch_at_the_third_letter():
    # (5,3)x[1,1] -> (3,2)x[2,1] -> (2,1)x[3,2], which lies on the diagonal
    with pytest.raises(BranchMismatchError) as info:
        certify_bijection(builtin("Delta00"), builtin("T0T0Delta00"), (0, 0, 0), 8)
    assert str(info.value) == (
        "(2,1)x[3,2] (reached from (5,3)x[1,1]) is DeltaD, "
        "but the route letter asks for Delta0"
    )


def test_certify_builds_one_partition_per_pair(monkeypatch):
    # the route is walked on raw tuples; only each image is validated
    domain, codomain = builtin("Delta00"), builtin("T0T0Delta00")
    builds = []
    validate = Partition.__post_init__

    def counted(self):
        builds.append(self)
        validate(self)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    cert = certify_bijection(domain, codomain, (0, 0), 20)
    assert len(cert.pairs) == 5
    assert builds == [image for _, _, image in cert.pairs]


def test_certify_not_injective():
    # two diagonal partitions of 9 share parts (3,2,1) and an image
    from tripart.dsl import TRUE

    with pytest.raises(NotInjectiveError):
        certify_bijection(builtin("DeltaD"), TRUE, ("D",), 9)


def test_certify_rejects_bad_route_letter():
    # checked up front, so an empty domain cannot hide a bad letter
    from tripart.dsl import FALSE

    for domain in (builtin("Delta0"), FALSE):
        with pytest.raises(ValueError, match="route letters are 0, 1 or d; got 2"):
            certify_bijection(domain, builtin("M0"), (2,), 5)


def test_certify_diagonal_route():
    cert = certify_bijection(
        parse_set_expression("D and DeltaD and dim >= 3"), builtin("ED"), ("D",), 10,
        names=("D&DeltaD&dim>=3", "ED"),
    )
    assert {str(s) for s, _, _ in cert.pairs} == {
        "(5,4,1)x[1,1,1]", "(5,3,2)x[1,1,1]", "(4,3,2,1)x[1,1,1,1]",
    }
    assert {str(i) for _, _, i in cert.pairs} == {
        "(4,1)x[2,2]", "(3,2)x[2,2]", "(3,2,1)x[2,1,2]",
    }


def test_parse_route():
    assert parse_route("01d") == (0, 1, "D")
    assert parse_route("D") == ("D",)
    with pytest.raises(ValueError):
        parse_route("2")
    with pytest.raises(ValueError):
        parse_route("")


CYLINDER_ROUTES = [
    ("Delta00", (0,), "T0Delta00"),
    ("Delta01", (0,), "T0Delta01"),
    ("Delta10", (1,), "T1Delta10"),
    ("Delta11", (1,), "T1Delta11"),
    ("Delta00", (0, 0), "T0T0Delta00"),
    ("Delta01", (0, 1), "T1T0Delta01"),
    ("Delta10", (1, 0), "T0T1Delta10"),
    ("Delta11", (1, 1), "T1T1Delta11"),
]


def test_cylinder_image_sets_are_exact():
    # the one- and two-step image sets are not merely equinumerous with
    # the cylinders: the routes biject onto them, at every size
    for domain, route, codomain in CYLINDER_ROUTES:
        for n in range(2, 41):
            certify_bijection(builtin(domain), builtin(codomain), route, n,
                              names=(domain, codomain))


def _oracle_pairs(domain, route, n):
    """Route pairs built from the oracle enumerator and reference membership."""
    steps = {0: (Branch.T0, apply_t0), 1: (Branch.T1, apply_t1), "D": (Branch.TD, apply_td)}
    pairs = []
    for parts, mults in oracles.part_mult_partitions(n):
        source = Partition(parts, mults)
        if not domain.member(source):
            continue
        image, branches = source, []
        for letter in route:
            branch, apply = steps[letter]
            branches.append(branch)
            image = apply(image)
        pairs.append((source, tuple(branches), image))
    return pairs


def test_certify_pairs_match_oracle():
    routes = [(builtin(dom), route, builtin(cod)) for dom, route, cod in CYLINDER_ROUTES]
    for d in (1, 2, 3):
        routes += [(gauss_set(d), (1,) * p, gauss_step_image(d, p)) for p in range(d + 1)]
        routes.append((gauss_set(d), (1,) * d + (0,), gauss_final_image(d)))
    for domain, route, codomain in routes:
        for n in range(1, 17):
            expected = _oracle_pairs(domain, route, n)
            cert = certify_bijection(domain, codomain, route, n)
            assert list(cert.pairs) == expected, (domain, route, n)
            reference = (Partition(parts, mults) for parts, mults in oracles.part_mult_partitions(n))
            members = {q for q in reference if codomain.member(q)}
            assert {image for _, _, image in expected} == members, (codomain, n)


def test_certify_above_desk_ceiling_raises():
    with pytest.raises(DeskCeilingError):
        certify_bijection(builtin("Delta01"), builtin("T0Delta01"), (0,), 61)


def test_offset_images_are_exact():
    from tripart.identities import _offset_image0, _offset_image1
    from tripart.sets import delta0_offset, delta1_offset

    for d in (1, 2, 3):
        for n in range(2, 29):
            certify_bijection(delta0_offset(d), _offset_image0(d), (0,), n)
            certify_bijection(delta1_offset(d), _offset_image1(d), (1,), n)


def test_distinct_family_routes():
    # the near-distinct families are exactly the branch images of the
    # distinct partitions in each class
    d = builtin("D")
    for n in range(2, 33):
        certify_bijection(d & builtin("Delta0"), builtin("E0"), (0,), n)
        certify_bijection(d & builtin("Delta1"), builtin("E1"), (1,), n)
        certify_bijection(
            parse_set_expression("D and DeltaD and dim >= 3"),
            builtin("ED"), ("D",), n,
        )


def test_odd_family_routes():
    o = builtin("O")
    for n in range(2, 33):
        certify_bijection(o & builtin("Delta0"), builtin("F0"), (0,), n)
        certify_bijection(o & builtin("Delta1"), builtin("F1"), (1,), n)
        # no diagonal branch exists here: an all-odd partition cannot
        # satisfy L1 = L2 + Llast
        assert count_set(o & builtin("DeltaD"), n) == 0


def test_arithmetic_columns_count_explicit_families():
    # the partitions no route pairs are the ones the arithmetic columns
    # count: 1 + [3|n] for D, the odd divisors of n for O
    unpaired_d = parse_set_expression("D and (dim = 1 or (DeltaD and dim = 2))")
    dim_one_o = parse_set_expression("O and dim = 1")
    for n in range(1, 41):
        expected = [P(f"({n})x[1]")]
        if n % 3 == 0:
            expected.append(P(f"({2 * n // 3},{n // 3})x[1,1]"))
        assert list(filter_partitions(n, unpaired_d)) == expected, n
        assert set(filter_partitions(n, dim_one_o)) == {
            P(f"({d})x[{n // d}]") for d in range(1, n + 1, 2) if n % d == 0}, n


# --- failure paths of the arithmetic relations ----------------------------
# Each relation is broken on purpose by swapping a set or an arithmetic
# column; the report must name the first failing n with both sides while
# the untouched relations of the chain still pass.

import tripart.identities as identities_module
import tripart.enumeration as enumeration_module
from tripart.dsl import parse_predicate

DISTINCT = "D = 1 + E0 + E1 + ED + [3|n]"
ODD = "O = oddDivisors + F0 + F1"


def _checks(report):
    return {check.label: check for check in report.checks}


def test_distinct_relation_failure(monkeypatch):
    real = identities_module.builtin
    monkeypatch.setattr(identities_module, "builtin",
                        lambda name: real("ED" if name == "E0" else name))
    for report in (verify_distinct_theorem(20), verify_euler_chain(20)):
        check = _checks(report)[DISTINCT]
        assert not check.passed and not report.passed
        # n = 5: D has (5), (4,1), (3,2); E0 has (2,1)x[2,1] but ED is empty
        assert (check.first_failure, check.lhs_count, check.rhs_count) == (5, 3, 2)
    others = _checks(verify_euler_chain(20))
    assert others["D = O"].passed and others[ODD].passed


def test_odd_relation_failure(monkeypatch):
    # count every divisor instead of the odd ones
    monkeypatch.setattr(identities_module, "odd_divisor_count",
                        lambda n: sum(1 for d in range(1, n + 1) if n % d == 0))
    for report in (verify_odd_theorem(20), verify_euler_chain(20)):
        check = _checks(report)[ODD]
        assert not check.passed and not report.passed
        # n = 2: O holds only (1)x[2], but 2 has two divisors
        assert (check.first_failure, check.lhs_count, check.rhs_count) == (2, 1, 2)
    others = _checks(verify_euler_chain(20))
    assert others["D = O"].passed and others[DISTINCT].passed


def _drop_all_ones_from_o(monkeypatch):
    # O loses (1)x[n] and the odd-divisor column loses the divisor 1 that
    # counts it, so only D = O breaks
    real_builtin = identities_module.builtin
    real_divisors = identities_module.odd_divisor_count
    not_all_ones = parse_predicate("dim >= 2 or L1 > 1")
    monkeypatch.setattr(
        identities_module, "builtin",
        lambda name: real_builtin(name) & not_all_ones if name == "O" else real_builtin(name),
    )
    monkeypatch.setattr(identities_module, "odd_divisor_count", lambda n: real_divisors(n) - 1)


def test_distinct_equals_odd_failure(monkeypatch):
    _drop_all_ones_from_o(monkeypatch)
    checks = _checks(verify_euler_chain(20))
    check = checks["D = O"]
    assert not check.passed
    assert (check.first_failure, check.lhs_count, check.rhs_count) == (1, 1, 0)
    assert checks[DISTINCT].passed and checks[ODD].passed


def test_set_relation_failure_names_counterexamples(monkeypatch):
    # D = O relates two set columns, so its failure lists both one-sided sets
    _drop_all_ones_from_o(monkeypatch)
    check = _checks(verify_euler_chain(20))["D = O"]
    assert check.only_lhs == (P("(1)x[1]"),)
    assert check.only_rhs == ()


def test_equicount_counterexamples_are_the_symmetric_difference():
    for text_a, text_b, first in (
        ("D", "Delta0", 1),
        ("Delta00", "T1Delta10", 7),
        ("Delta0 and L1 > 4", "M0 and L1 > 4", 8),
    ):
        a, b = parse_set_expression(text_a), parse_set_expression(text_b)
        check = verify_equicount(a, b, 12).checks[0]
        assert check.first_failure == first
        members = [Partition._wrap(parts, mults)
                   for parts, mults in oracles.part_mult_partitions(first)]
        assert check.only_lhs == tuple(p for p in members if a.member(p) and not b.member(p))
        assert check.only_rhs == tuple(p for p in members if b.member(p) and not a.member(p))
        assert check.only_lhs or check.only_rhs


def test_equicount_counterexamples_with_a_plain_callable():
    # a plain callable column goes through Partition wrapping, the set
    # predicate through its compiled closure; both name the same sides
    distinct_above_two = lambda p: all(k == 1 for k in p.mults) and p.parts[-1] > 2  # noqa: E731
    a, b = distinct_above_two, parse_set_expression("D and Llast > 2")
    assert verify_equicount(a, b, 12).passed
    b = builtin("Delta0")
    check = verify_equicount(a, b, 12).checks[0]
    n = check.first_failure
    members = [Partition._wrap(parts, mults) for parts, mults in oracles.part_mult_partitions(n)]
    assert check.only_lhs == tuple(p for p in members if a(p) and not b.member(p))
    assert check.only_rhs == tuple(p for p in members if b.member(p) and not a(p))
    assert check.only_lhs or check.only_rhs


def test_counterexamples_above_the_desk_ceiling(monkeypatch):
    # a raised ceiling lets a relation first fail above the default one;
    # naming its counterexamples must not stop at that default
    monkeypatch.setattr(enumeration_module, "DESK_CEILING", 2)
    check = verify_equicount(builtin("Delta0"), builtin("Delta1"), 9).checks[0]
    assert (check.first_failure, check.lhs_count, check.rhs_count) == (4, 0, 1)
    assert check.only_lhs == ()
    assert check.only_rhs == (P("(3,1)x[1,1]"),)


def test_equicount_with_repeated_names_compares_both_sets():
    # two different sets that share a name are still two columns
    report = verify_equicount(builtin("D"), builtin("Delta0"), 6, names=("X", "X"))
    check = report.checks[0]
    assert report.columns == ("X", "X")
    assert (check.label, check.passed, check.first_failure) == ("X = X", False, 1)
    assert (check.lhs_count, check.rhs_count) == (1, 0)
    assert check.only_lhs == (P("(1)x[1]"),) and check.only_rhs == ()
