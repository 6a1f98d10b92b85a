"""File format parsing, rendering and round trips."""

import random

import pytest

from idealkit import (
    ParseError,
    PolyContext,
    RationalCone,
    dual_description,
    rees_cone,
    simis_cone,
)
from idealkit.formats import (
    canonical_digraph_source,
    canonical_ideal_source,
    cone_to_source,
    digraph_to_source,
    ideal_to_source,
    ideal_to_text,
    monomial_to_text,
    parse_cone_source,
    parse_digraph_source,
    parse_ideal_source,
    parse_monomial,
)

from oracles import random_ideal


@pytest.fixture(scope="module")
def ctx():
    return PolyContext.default(3)


# ---------------------------------------------------------------------------
# monomials

def test_monomial_round_trip(ctx):
    for text in ("x1^2*x3", "x2", "1", "x1*x2*x3"):
        assert monomial_to_text(parse_monomial(ctx, text)) == text


def test_monomial_merges_repeated_factors(ctx):
    assert parse_monomial(ctx, "x1*x1") == ctx.monomial("x1^2")


def test_monomial_errors(ctx):
    with pytest.raises(ParseError, match="unknown variable"):
        parse_monomial(ctx, "y1")
    with pytest.raises(ParseError):
        parse_monomial(ctx, "x1^")


# ---------------------------------------------------------------------------
# ideal files

def test_ideal_source_with_comments_and_blanks():
    I = parse_ideal_source("""
# a comment
x1*x2^2   # trailing note

x1^2*x3
""")
    assert I.context.n == 3
    assert ideal_to_text(I) == "(x1*x2^2, x1^2*x3)"


def test_ideal_text_matches_monomial_rendering():
    # ideals render straight from their exponent tuples
    rng = random.Random(3131)
    for _ in range(40):
        I = random_ideal(rng, n=rng.randint(1, 6), max_exp=3, max_gens=8)
        old = "(" + ", ".join(monomial_to_text(g) for g in I.generators) + ")"
        assert ideal_to_text(I) == old
        assert ideal_to_source(I).splitlines()[1:] == [
            monomial_to_text(g) for g in I.generators]


def test_ideal_context_inference_fills_gaps():
    I = parse_ideal_source("x1*x4\n")
    assert I.context.names == ("x1", "x2", "x3", "x4")


def test_ideal_vars_directive():
    I = parse_ideal_source("# vars: a b c\na*b^2\n")
    assert I.context.names == ("a", "b", "c")


def test_ideal_round_trip_fixed_point():
    src = "# vars: x1 x2 x3\nx2*x3^2\nx1*x2^2\nx1^2*x3\n"
    canon = canonical_ideal_source(src)
    assert canonical_ideal_source(canon) == canon
    # a canonical file is already a fixed point
    assert canonical_ideal_source(canon) == canon
    # shuffled generators normalize to the same canonical order
    shuffled = "# vars: x1 x2 x3\nx1^2*x3\nx2*x3^2\nx1*x2^2\n"
    assert canonical_ideal_source(shuffled) == canon


def test_ideal_parse_error_carries_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_ideal_source("x1*x2\nx2\nx^&\n")


# ---------------------------------------------------------------------------
# digraph files

def test_digraph_shorthand_and_json_agree():
    short = ("weights: x1=1 x2=2 x3=1 x4=1\n"
             "x2 -> x1\nx3 -> x2\nx3 -> x4\nx3 -> x1\n")
    js = """{
  "vertices": [
    {"id": "x1", "weight": 1}, {"id": "x2", "weight": 2},
    {"id": "x3", "weight": 1}, {"id": "x4", "weight": 1}
  ],
  "arcs": [["x2", "x1"], ["x3", "x2"], ["x3", "x4"], ["x3", "x1"]]
}"""
    a = parse_digraph_source(short)
    b = parse_digraph_source(js)
    assert a.edge_ideal() == b.edge_ideal()
    assert a.weights == b.weights


def test_digraph_round_trip_fixed_point():
    short = "weights: x1=1 x2=2\nx1 -> x2\n"
    canon = canonical_digraph_source(short)
    assert canonical_digraph_source(canon) == canon


def test_digraph_default_weight_is_one():
    D = parse_digraph_source("x1 -> x2\n")
    assert D.weights == (1, 1)


def test_digraph_semantic_errors_become_parse_errors():
    with pytest.raises(ParseError, match="distinct"):
        parse_digraph_source(
            '{"vertices": [{"id": "a"}, {"id": "a"}], "arcs": []}')


def test_digraph_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_digraph_source("x1 -> x2\nx2 => x3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_digraph_source("weights: x1=fast\nx1 -> x2\n")
    with pytest.raises(ParseError, match="line"):
        parse_digraph_source('{"vertices": [, "arcs": []}')


# ---------------------------------------------------------------------------
# cone files

def test_cone_file_round_trip():
    src = "# rays\n1 0\n1 2\n"
    cone = parse_cone_source(src)
    assert cone.rays == ((1, 0), (1, 2))
    assert cone.inequalities is None
    assert parse_cone_source(cone_to_source(cone)) == cone


def test_cone_file_both_sections():
    src = "# rays\n1 0\n0 1\n# inequalities\n1 0\n0 1\n"
    cone = parse_cone_source(src)
    assert cone.rays == ((0, 1), (1, 0))
    assert cone.inequalities == ((0, 1), (1, 0))


def test_cone_sections_must_describe_one_cone():
    # nonnegative rays under orthant inequalities: a smaller cone than the
    # inequalities cut out
    with pytest.raises(ParseError, match="different cones"):
        parse_cone_source("# rays\n1 0\n1 2\n# inequalities\n1 0\n0 1\n")
    with pytest.raises(ParseError, match="different cones"):
        parse_cone_source("# rays\n1 0 0\n0 1 0\n# inequalities\n"
                          "1 0 0\n0 1 0\n0 0 1\n")
    # non-extreme rays and redundant inequalities are fine
    cone = parse_cone_source("# rays\n1 0\n1 1\n0 1\n# inequalities\n"
                             "1 0\n0 1\n1 1\n")
    assert cone.rays == ((0, 1), (1, 0), (1, 1))
    # the rees and simis commands print files that parse back
    I = parse_ideal_source("x1*x2\nx2*x3\nx1*x3\n")
    for cone in (dual_description(rees_cone(I)), simis_cone(I)):
        assert parse_cone_source(cone_to_source(cone)) == cone


def test_cone_file_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_cone_source("1 0\n")
    with pytest.raises(ParseError, match="bad integer"):
        parse_cone_source("# rays\none zero\n")
    with pytest.raises(ParseError):
        parse_cone_source("# rays\n1 0\n1 2 3\n")
