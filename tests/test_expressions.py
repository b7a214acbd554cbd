"""Ratio expression grammar: parsing, errors, and round trips."""

import pytest

from clustercones.expressions import RatioSyntaxError, parse_ratio, render_ratio

NAMES = {
    "p[124]": 0, "p[356]": 1, "p[123]": 2, "p[456]": 3,
    "x[1,1,1]": 4, "x[0,1,0]": 5, "x1": 6, "x2": 7, "f1": 8,
    "q[124|356]": 9,
}


def res(name):
    return NAMES.get(name)


def test_plucker_example():
    got = parse_ratio("p[124]*p[356]/(p[123]*p[456])", res)
    assert got == {0: 1, 1: 1, 2: -1, 3: -1}


def test_root_label_example_with_powers_and_spaces():
    got = parse_ratio("x[1,1,1]^2 / x[0,1,0]", res)
    assert got == {4: 2, 5: -1}


def test_slash_inverts_whole_group():
    assert parse_ratio("x1/(x2*f1)", res) == {6: 1, 7: -1, 8: -1}
    # left association: (x1/x2)*f1
    assert parse_ratio("x1/x2*f1", res) == {6: 1, 7: -1, 8: 1}
    assert parse_ratio("x1/(x2/f1)", res) == {6: 1, 7: -1, 8: 1}


def test_negative_and_merging_exponents():
    assert parse_ratio("x1^-2*x1^3", res) == {6: 1}
    assert parse_ratio("x1*x2/x1", res) == {7: 1}
    assert parse_ratio("(x1*x2)^2", res) == {6: 2, 7: 2}
    assert parse_ratio("x1/(x1)", res) == {}


def test_exotic_payload_characters():
    assert parse_ratio("q[124|356]/x1", res) == {9: 1, 6: -1}


PRIMED = {"a'": 0, "b''": 1, "b": 2, "p[12]'": 3}


def test_trailing_primes_belong_to_the_name():
    # a belt re-based from a seed that is not bipartite primes the names
    # of the nodes it mutated, once per move
    assert parse_ratio("a'*b/(b''*p[12]')", PRIMED.get) == {0: 1, 2: 1, 1: -1, 3: -1}
    assert parse_ratio("a'^2/b''^-1", PRIMED.get) == {0: 2, 1: 1}
    inv = {v: k for k, v in PRIMED.items()}
    for vec in ({0: 1, 1: -2}, {3: -1, 2: 1}, {0: -1, 1: -1, 3: 2}):
        assert parse_ratio(render_ratio(vec, inv.__getitem__), PRIMED.get) == vec
    # a prime only ends a name: it neither starts one nor stands alone
    for text, pos in (("'a", 0), ("a*'b", 2), ("a' '", 3), ("a'b", 2)):
        with pytest.raises(RatioSyntaxError) as info:
            parse_ratio(text, PRIMED.get)
        assert info.value.position == pos, text


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("x1*", 3),
        ("x1**x2", 3),
        ("(x1*x2", 6),
        ("x1)", 2),
        ("x1^", 3),
        ("x1^0", 3),
        ("x1^x2", 3),
        ("p[124", 1),
        ("p[]", 1),
        ("3*x1", 0),
        ("x1 @ x2", 3),
    ],
)
def test_syntax_error_positions(text, pos):
    with pytest.raises(RatioSyntaxError) as info:
        parse_ratio(text, res)
    assert info.value.position == pos
    assert str(pos) in str(info.value)


def test_unknown_name_position_and_annotation():
    with pytest.raises(RatioSyntaxError) as info:
        parse_ratio("x1*nope/x2", res)
    err = info.value
    assert err.position == 3
    assert "nope" in str(err)
    lines = err.annotate().splitlines()
    assert lines[0] == "x1*nope/x2"
    assert lines[1].startswith("   ^")


@pytest.mark.parametrize(
    "vector,text",
    [
        ({0: 1, 1: 1, 2: -1, 3: -1}, "p[124]*p[356]/(p[123]*p[456])"),
        ({4: 2, 5: -1}, "x[1,1,1]^2/x[0,1,0]"),
        ({6: -1, 7: -2}, "1/(x1*x2^2)"),
        ({6: 1}, "x1"),
        ({6: 1, 7: -1}, "x1/x2"),
        ({6: 1, 7: -2}, "x1/x2^2"),
        ({}, "1"),
    ],
)
def test_render(vector, text):
    inv = {v: k for k, v in NAMES.items()}
    assert render_ratio(vector, inv.__getitem__) == text


def test_round_trip_on_random_vectors():
    import random

    inv = {v: k for k, v in NAMES.items()}
    rng = random.Random(5)
    keys = list(NAMES.values())
    for _ in range(200):
        vec = {
            k: e
            for k in rng.sample(keys, rng.randint(0, len(keys)))
            if (e := rng.randint(-3, 3))
        }
        text = render_ratio(vec, inv.__getitem__)
        assert parse_ratio(text, res) == vec
