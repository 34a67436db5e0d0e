"""Registry contents, cylinder sets, parameterized families."""

import itertools

import pytest

from tripart import Partition, builtin, cylinder, gauss_set, parse_set_expression
from tripart.core import InputError
from tripart.dsl import UnknownSymbolError
from tripart.enumeration import iter_partitions
from tripart.sets import (
    EmptyWordError,
    SetParameterError,
    UnknownSetError,
    delta0_offset,
    delta1_offset,
    entry,
    names,
    registry_json,
)
from tripart.trimap import apply_t

import oracles

P = Partition.from_text

EXPECTED_NAMES = [
    "Delta0", "Delta1", "DeltaD",
    "Delta00", "Delta01", "Delta10", "Delta11",
    "M0", "M1",
    "T0Delta00", "T0Delta01", "T1Delta10", "T1Delta11",
    "T0T0Delta00", "T1T0Delta01", "T0T1Delta10", "T1T1Delta11",
    "D", "E0", "E1", "ED", "O", "F0", "F1",
]


def test_registry_names():
    got = names()
    assert sorted(got) == sorted(EXPECTED_NAMES)
    assert len(set(got)) == len(got)
    for name in got:
        builtin(name)  # resolves
        entry(name)


def test_unknown_set():
    with pytest.raises(UnknownSetError):
        builtin("Zeta")
    with pytest.raises(UnknownSetError):
        entry("Zeta")
    with pytest.raises(UnknownSetError):
        builtin("GaussG(0)")


def test_member_examples():
    assert builtin("Delta11")(P("(5,1)x[1,6]"))
    assert not builtin("GaussG(1)")(P("(9,5,4,2)x[1,1,1,1]"))
    assert builtin("E0")(P("(4,2,1)x[2,1,1]"))
    assert not builtin("D")(P("(1)x[11]"))
    assert builtin("D")(P("(11)x[1]"))
    assert builtin("O")(P("(3)x[4]"))
    assert not builtin("O")(P("(4)x[3]"))


def test_f_sets():
    f0 = builtin("F0")
    assert f0(P("(5,3,2)x[2,1,1]"))       # even smallest, K1 > Klast
    assert not f0(P("(5,3,2)x[1,1,1]"))   # K1 = Klast
    assert not f0(P("(5,4,2)x[2,1,1]"))   # a middle part is even
    f1 = builtin("F1")
    assert f1(P("(4,3,1)x[1,1,2]"))
    assert not f1(P("(4,3,1)x[2,1,1]"))


def test_dim2_specialization():
    # entries with distinct columns dispatch on dimension
    assert builtin("Delta00")(P("(7,4)x[1,1]"))       # 2*4 > 7 and 2*7 > 3*4
    assert not builtin("Delta00")(P("(5,4)x[1,1]"))   # 2*5 < 3*4
    assert builtin("Delta01")(P("(5,4)x[1,1]"))
    assert builtin("T0T0Delta00")(P("(5,2)x[3,2]"))   # 2 < 3 < 4
    assert not builtin("T0T0Delta00")(P("(5,2)x[4,2]"))
    assert builtin("T0T1Delta10")(P("(5,2)x[3,1]"))   # 2*1 < 3
    assert not builtin("T0T1Delta10")(P("(5,2)x[2,1]"))


def test_registry_against_naive_oracle():
    # the simple shape sets agree with first-principles membership
    checks = [
        ("D", oracles.is_distinct),
        ("O", oracles.is_all_odd),
        ("E0", oracles.is_e0),
        ("E1", oracles.is_e1),
        ("ED", oracles.is_ed),
        ("F0", oracles.is_f0),
        ("F1", oracles.is_f1),
    ]
    preds = [(builtin(name), fn) for name, fn in checks]
    for n in range(1, 21):
        for parts, mults in oracles.part_mult_partitions(n):
            p = Partition(parts, mults)
            for pred, fn in preds:
                assert pred(p) == fn(parts, mults), (str(p), pred)


def test_cylinder_examples():
    assert cylinder((0, 1))(P("(6,5)x[1,1]"))
    assert not cylinder((0, 0))(P("(6,5)x[1,1]"))
    assert not cylinder((0, 1))(P("(7)x[1]"))


def test_cylinder_cones_match_map_walk():
    # the derived cones against the oracle's walk of the map: every word
    # of length <= 4 to n = 24, and the length-2 words on to n = 40
    words = [w for k in range(1, 5) for w in itertools.product((0, 1), repeat=k)]
    preds = {w: cylinder(w) for w in words}
    for n in range(1, 41):
        checked = words if n <= 24 else [w for w in words if len(w) == 2]
        for parts, mults in oracles.part_mult_partitions(n):
            p = Partition._wrap(parts, mults)
            for w in checked:
                want = oracles.follows_word(parts, mults, w)
                assert preds[w].fn(parts, mults, len(parts)) == want, (w, str(p))
                assert preds[w].member(p) == want, (w, str(p))


def test_cylinder_word_validation():
    with pytest.raises(EmptyWordError):
        cylinder(())
    with pytest.raises(ValueError):
        cylinder((0, 2))


def test_cylinder_length_one_is_base_cone():
    zero = cylinder((0,))
    one = cylinder((1,))
    d0 = builtin("Delta0")
    d1 = builtin("Delta1")
    for n in range(1, 31):
        for p in iter_partitions(n):
            assert zero(p) == d0(p)
            assert one(p) == d1(p)


def test_cylinder_11_matches_intrinsic():
    dyn = cylinder((1, 1))
    intr = builtin("Delta11")
    for n in range(1, 31):
        for p in iter_partitions(n):
            assert dyn(p) == intr(p), str(p)


def test_gauss_band_is_ones_then_zero_cylinder():
    for d in (1, 2, 3):
        band = gauss_set(d)
        word = cylinder((1,) * d + (0,))
        for n in range(1, 26):
            for p in iter_partitions(n):
                assert band(p) == word(p), (d, str(p))


def test_cover_and_exceptional_diagonal_images():
    # a below-diagonal partition is in word 00 or 01 unless its image
    # lands on the diagonal; same on the other side
    d0, d1, dd = builtin("Delta0"), builtin("Delta1"), builtin("DeltaD")
    c00, c01 = builtin("Delta00"), builtin("Delta01")
    c10, c11 = builtin("Delta10"), builtin("Delta11")
    for n in range(2, 41):
        for p in iter_partitions(n):
            if p.dimension < 2:
                continue
            if d0(p):
                hit_diag = apply_t(p).image.classify().value == "DeltaD"
                assert c00(p) + c01(p) == (0 if hit_diag else 1), str(p)
            elif d1(p):
                hit_diag = apply_t(p).image.classify().value == "DeltaD"
                assert c10(p) + c11(p) == (0 if hit_diag else 1), str(p)
            else:
                assert dd(p)
                assert not (c00(p) or c01(p) or c10(p) or c11(p))


def test_parameterized_sets():
    assert builtin("GaussG(2)").root == gauss_set(2).root
    assert builtin("Delta0Off(3)").root == delta0_offset(3).root
    assert builtin("Delta1Off(1)").root == delta1_offset(1).root
    assert delta0_offset(1)(P("(5,4,2)x[1,1,1]"))    # 4+2 = 5+1
    assert not delta0_offset(2)(P("(5,4,2)x[1,1,1]"))
    assert delta1_offset(3)(P("(9,5,1)x[1,1,1]"))    # 9 = 5+1+3
    with pytest.raises(ValueError):
        delta0_offset(0)
    with pytest.raises(InputError, match="offset d must be >= 1"):
        delta1_offset(0)
    with pytest.raises(ValueError):
        gauss_set(-1)


def test_gauss_zero_is_below_diagonal_cone():
    base = gauss_set(0)
    d0 = builtin("Delta0")
    for n in range(1, 21):
        for p in iter_partitions(n):
            assert base(p) == d0(p)


def test_parse_set_expression():
    pred = parse_set_expression("D and Delta0")
    assert pred(P("(7,4)x[1,1]"))
    assert not pred(P("(7,4)x[2,1]"))
    pred = parse_set_expression("GaussG(1) and K1 = 1")
    assert pred(P("(5,2)x[1,2]"))      # 5-2-2 > 0 > 5-2-4
    assert not pred(P("(7,2)x[1,2]"))  # 7-2-4 = 1, not below zero
    with pytest.raises(Exception):
        parse_set_expression("NoSuchSet and D")


def test_registry_json_shape():
    info = registry_json()
    assert [row["name"] for row in info] == names()
    for row in info:
        assert set(row) == {"name", "dim2", "dim3", "uniform", "note"}


def test_bad_family_parameter_keeps_its_reason():
    with pytest.raises(SetParameterError) as caught:
        builtin("Delta1Off(0)")
    assert str(caught.value) == "set Delta1Off(0): parameter must be >= 1"
    with pytest.raises(UnknownSymbolError) as caught:
        parse_set_expression("D and GaussG(0)")
    assert caught.value.position == 6
    assert str(caught.value) == "set GaussG(0): parameter must be >= 1 (at position 6)"
    with pytest.raises(UnknownSymbolError, match="unknown symbol or set name 'Zeta'"):
        parse_set_expression("D and Zeta")
