"""Predicate language: parsing, semantics, compilation, round trips."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tripart import Partition, builtin, parse_predicate
from tripart.dsl import (
    DslSyntaxError,
    FALSE,
    Not,
    SetPredicate,
    TRUE,
    UnknownSymbolError,
    compile_columns,
    compile_node,
    evaluate,
    format_node,
    parse_predicate as parse,
)
from tripart.enumeration import iter_partitions

from strategies import partitions, predicate_trees

P = Partition.from_text


def _agree_everywhere(a, b, n_max=12):
    for n in range(1, n_max + 1):
        for p in iter_partitions(n):
            if a(p) != b(p):
                return False
    return True


def test_parse_below_diagonal_form():
    assert _agree_everywhere(parse("L1 < L2 + Llast"), builtin("Delta0"))


def test_parse_multiplicity_form():
    assert _agree_everywhere(parse("K1 > Klast"), builtin("M0"))


def test_parse_quantified_odd():
    assert _agree_everywhere(parse("forall i: odd(L[i])"), builtin("O"))


def test_syntax_error_with_position():
    with pytest.raises(DslSyntaxError) as err:
        parse("L1 <")
    assert err.value.position == 4
    with pytest.raises(DslSyntaxError):
        parse("L1 < L2 and")
    with pytest.raises(DslSyntaxError):
        parse("(L1 < L2")
    with pytest.raises(DslSyntaxError):
        parse("L1 < L2) or true")
    with pytest.raises(DslSyntaxError):
        parse("")


S, U = DslSyntaxError, UnknownSymbolError

# (text, class, message, position) through parse_predicate, and the outcome
# through parse_set_expression where the registry hook makes it differ
PARSE_ERRORS = [
    ("", S, "unexpected end of input", 0, None),
    ("L1 <", S, "unexpected end of input", 4, None),
    ("(L1 < 2", S, "expected ')'", 7, None),
    ("L1 < 2)", S, "unexpected trailing ')'", 6, None),
    ("L1 2", S, "expected a comparison operator", 3, None),
    ("L1 # 2", S, "unexpected character '#'", 3, None),
    ("forall i: forall j: K[j] = 1", S, "nested quantifiers are not supported", 10, None),
    ("forall and: L1 = 1", S, "expected an index variable name", 7, None),
    ("forall i L1 = 1", S, "expected ':'", 9, None),
    ("forall i:", S, "unexpected end of input", 9, None),
    ("K[i] = 1", U, "index variable 'i' is not bound by a quantifier", 2, None),
    ("forall i: L[j] = 1", U, "index variable 'j' is not bound by a quantifier", 12, None),
    ("L = 1", U, "bare 'L' needs an index like L1 or L[i]", 0, None),
    ("L0 = 1", S, "indices start at 1", 0, None),
    ("Lmiddle = 1", U, "unknown symbol 'Lmiddle'", 0,
     (U, "unknown symbol or set name 'Lmiddle'", 0)),
    ("odd(3)", S, "expected a symbol, got '3'", 4, None),
    ("odd(L1", S, "expected ')'", 6, None),
    ("L1 - -L2 > 0", S, "expected a symbol, got '-'", 5, None),
    ("2 * and", S, "unexpected keyword 'and'", 4, None),
    ("L1 < 2 and", S, "unexpected end of input", 10, None),
    ("not", S, "unexpected end of input", 3, None),
    ("true false", S, "unexpected trailing 'false'", 5, None),
    ("dim", S, "expected a comparison operator", 3, None),
    ("GaussG(x)", U, "unknown symbol 'GaussG'", 0,
     (U, "unknown symbol or set name 'GaussG'", 0)),
    ("GaussG(2", U, "unknown symbol 'GaussG'", 0,
     (U, "unknown symbol or set name 'GaussG'", 0)),
    ("D and", U, "unknown symbol 'D'", 0, (S, "unexpected end of input", 5)),
    ("Zeta > 1", U, "unknown symbol 'Zeta'", 0,
     (U, "unknown symbol or set name 'Zeta'", 0)),
    # what the tokenizer skips and where it stops
    ("   ", S, "unexpected end of input", 3, None),
    ("L1 < @", S, "unexpected character '@'", 5, None),
    ("@L1", S, "unexpected character '@'", 0, None),
    ("L1 < 2 $", S, "unexpected character '$'", 7, None),
    ("K1 \u00e9 2", S, "unexpected character '\u00e9'", 3, None),
    ("D and Zeta(1)", U, "unknown symbol 'D'", 0,
     (U, "unknown symbol or set name 'Zeta(1)'", 6)),
]


@pytest.mark.parametrize("text, cls, message, position, in_sets", PARSE_ERRORS)
def test_parse_error_outcomes(text, cls, message, position, in_sets):
    from tripart.sets import parse_set_expression

    routes = [(parse, (cls, message, position)),
              (parse_set_expression, in_sets or (cls, message, position))]
    for route, (want_cls, want_message, want_position) in routes:
        with pytest.raises(want_cls) as err:
            route(text)
        assert type(err.value) is want_cls, route.__name__
        assert str(err.value) == f"{want_message} (at position {want_position})", route.__name__
        assert err.value.position == want_position, route.__name__


@pytest.mark.parametrize("text, source", [
    ("\tL1\n<\r2", "L1 < 2"),
    ("L1\xa0< 2", "L1 < 2"),
    ("L1\u2003<\u3000 2", "L1 < 2"),
    ("L1\x1c< 2", "L1 < 2"),
    ("L1 < 2  ", "L1 < 2"),
    ("L1 < \u0663", "L1 < 3"),  # an Arabic-Indic three is a digit
])
def test_any_unicode_space_separates_tokens(text, source):
    from tripart.sets import parse_set_expression

    for route in (parse, parse_set_expression):
        assert route(text).source() == source, route.__name__


def test_unknown_symbols():
    with pytest.raises(UnknownSymbolError):
        parse("Zeta > 1")
    with pytest.raises(UnknownSymbolError):
        parse("L[i] = 1")  # unbound index variable
    with pytest.raises(UnknownSymbolError):
        parse("Lmiddle = 1")
    with pytest.raises(UnknownSymbolError):
        parse("K = 1")


def test_nested_quantifier_rejected():
    with pytest.raises(DslSyntaxError):
        parse("forall i: exists j: K[i] = K[j]")


def test_out_of_range_atom_is_false():
    pred = parse("L3 > 0")
    two = P("(2,1)x[1,1]")
    assert not pred(two)
    assert parse("not L3 > 0")(two)  # negation of a false atom
    three = P("(3,2,1)x[1,1,1]")
    assert pred(three)


def test_secondlast_on_dimension_one():
    pred = parse("Ksecondlast = 1")
    assert not pred(P("(5)x[1]"))
    assert pred(P("(5,2)x[1,3]"))


def test_dim_comparisons():
    pred = parse("dim >= 3")
    assert pred(P("(3,2,1)x[1,1,1]"))
    assert not pred(P("(3,2)x[1,1]"))


def test_index_guards_in_quantifier():
    pred = parse("forall i: i = 1 or K[i] = 1")
    assert pred(P("(4,3)x[2,1]"))
    assert pred(P("(4,3)x[1,1]"))
    assert not pred(P("(4,3)x[1,2]"))
    pred = parse("exists i: K[i] >= 3")
    assert pred(P("(4,1)x[1,3]"))
    assert not pred(P("(4,1)x[2,2]"))
    pred = parse("forall i: i = dim or odd(L[i])")
    assert pred(P("(3,2)x[1,1]"))
    assert not pred(P("(4,3)x[1,1]"))


def test_literals_and_operators():
    assert TRUE(P("(1)x[1]"))
    assert not FALSE(P("(1)x[1]"))
    assert parse("true")(P("(1)x[1]"))
    combined = parse("K1 = 1") & parse("L1 = 3")
    assert combined(P("(3)x[1]"))
    assert not combined(P("(3)x[2]"))
    either = parse("L1 = 9") | parse("dim = 1")
    assert either(P("(4)x[2]"))
    assert not (~parse("dim = 1"))(P("(4)x[2]"))


def test_multiplication_forms():
    a = parse("2*L2 > L1")
    b = parse("2 L2 > L1")
    c = parse("2L2 > L1")
    p, q = P("(3,2)x[1,1]"), P("(5,2)x[1,1]")
    for pred in (a, b, c):
        assert pred(p) and not pred(q)
    assert a.root == b.root == c.root


def test_first_alias_and_negative_terms():
    assert parse("Lfirst = 5")(P("(5,2)x[1,1]"))
    pred = parse("L1 - L2 - 2*Llast < 0")
    assert pred(P("(4,3)x[1,1]"))
    assert not pred(P("(9,2)x[1,1]"))
    assert parse("-L1 + 6 > 0")(P("(5)x[1]"))
    assert parse("0 - 2 < L1")(P("(1)x[1]"))


def test_format_parse_round_trip():
    samples = [
        "L1 < L2 + Llast",
        "K1 > Klast",
        "forall i: odd(L[i])",
        "not (L1 = 2 or odd(K2)) and dim >= 3",
        "-2*L1 + 3 < K2 - 1",
        "exists i: even(K[i])",
        "(dim = 2 and 2*L2 > L1) or (dim >= 3 and L2 + Llast > L1)",
        "K1 = 2 and (forall i: i = 1 or K[i] = 1)",
        "true or not false",
        "L1 - L2 - 3*Llast > 0 and L1 - L2 - 4*Llast < 0",
    ]
    for text in samples:
        once = parse(text)
        again = parse(once.source())
        assert once.root == again.root, text
        assert again.source() == once.source()
        assert once == again and hash(once) == hash(again)
        assert once != once.root
        assert repr(once) == f"SetPredicate({once.source()!r})"


def test_registry_sources_round_trip():
    from tripart import sets

    preds = [builtin(name) for name in sets.names()]
    preds += [sets.cylinder(w) for k in range(1, 5) for w in itertools.product((0, 1), repeat=k)]
    for pred in preds:
        assert parse(pred.source()).root == pred.root, pred.source()


def test_compiled_matches_reference_on_registry():
    from tripart import sets
    from tripart.sets import cylinder

    preds = [builtin(name) for name in sets.names()]
    preds += [builtin("GaussG(1)"), builtin("Delta0Off(2)"), builtin("Delta1Off(1)")]
    preds += [cylinder((0,)), cylinder((1, 1)), cylinder((0, 1, 1))]
    for n in range(1, 13):
        for p in iter_partitions(n):
            for pred in preds:
                assert pred(p) == pred.member(p), (str(p), pred.source())


@given(partitions(max_part=15, max_len=6))
@settings(max_examples=200)
def test_compiled_matches_reference_random(p):
    battery = [
        parse("L1 < L2 + Llast"),
        parse("2*L2 > L1 + L3"),
        parse("forall i: i = 1 or K[i] = 1"),
        parse("exists i: even(L[i])"),
        parse("not Ksecondlast >= 2"),
        parse("dim = 2 or K1 - Klast > 1"),
    ]
    for pred in battery:
        assert pred(p) == pred.member(p), pred.source()


@given(predicate_trees(), st.lists(partitions(max_part=9, max_len=5), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_fuzz_compiled_matches_reference(tree, sample):
    single = compile_node(tree)
    counted = compile_columns([SetPredicate(tree), SetPredicate(Not(tree))])
    expected = 0
    for p in sample:
        want = evaluate(tree, p.parts, p.mults, len(p.parts))
        assert single(p.parts, p.mults, len(p.parts)) == want, (format_node(tree), str(p))
        expected += want
    rows = [(p.parts, p.mults) for p in sample]
    assert counted(rows) == (expected, len(sample) - expected), format_node(tree)


@given(predicate_trees())
@settings(max_examples=300, deadline=None)
def test_fuzz_format_parse_round_trip(tree):
    text = format_node(tree)
    assert parse(text).root == tree, text
