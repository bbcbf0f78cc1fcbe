import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_lib import (
    COPRIME_DENOMINATORS,
    anti_line,
    concave_lift,
    dominant_terms,
    reference_corner_locus,
    reference_dual_subdivision,
    sparse_lift,
    tied_lift,
    tropical_line,
)
from tropcurve.bunch import bouquet_structure, bunch
from tropcurve.curve import TropicalCurve, canonical_form, validate
from tropcurve.geom import pt, vec
from tropcurve.newton import (
    convex_hull,
    newton_complex,
    newton_polygon,
    vertex_multiplicity,
)
from tropcurve.polyfront import (
    EmptyCurveError,
    PolyParseError,
    _cells,
    corner_locus,
    dual_subdivision,
    evaluate,
    parse,
    polynomial,
)


def test_parse_line():
    f = parse("0 + x + y")
    assert f.coefficients() == {(0, 0): 0, (1, 0): 0, (0, 1): 0}


def test_parse_four_terms():
    f = parse("1 + x + y + x*y")
    assert f.coefficients() == {(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): 0}


def test_parse_merges_duplicates():
    assert parse("x + x").coefficients() == {(1, 0): 0}
    assert parse("x + 2*x").coefficients() == {(1, 0): 2}
    assert parse("x + 2*x", convention="min").coefficients() == {(1, 0): 0}


def test_parse_rationals_powers_parens():
    f = parse("3/2*x^2*y + (-1)*x*y + 2")
    assert f.coefficients() == {
        (2, 1): Fraction(3, 2),
        (1, 1): -1,
        (0, 0): 2,
    }


def test_parse_tropical_product_of_constants():
    # multiplication is classical addition of coefficients
    assert parse("2*3*x").coefficients() == {(1, 0): 5}


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse("x + ")
    assert err.value.position == 4
    with pytest.raises(PolyParseError):
        parse("x^-1")
    with pytest.raises(PolyParseError):
        parse("x & y")
    with pytest.raises(PolyParseError):
        parse("1/0")


# Malformed texts with the message and position each one gets.
_PARSE_ERRORS = [
    ('x + ', "expected a term, found ''", 4),
    ('x^-1', 'negative exponent', 2),
    ('x & y', "unexpected character '&'", 2),
    ('1/0', 'zero denominator', 2),
    ('', "expected a term, found ''", 0),
    ('   ', "expected a term, found ''", 3),
    ('(1/2', "expected ')', found ''", 4),
    ('(x)', "expected 'number', found 'x'", 1),
    ('x y', "expected 'end', found 'y'", 2),
    ('x^', "expected 'number', found ''", 2),
    ('x^y', "expected 'number', found 'y'", 2),
    ('1/', "unexpected character '/'", 1),
    ('1/-2', "unexpected character '/'", 1),
    ('--1', "unexpected character '-'", 0),
    ('x**y', "expected a term, found '*'", 2),
    ('x ++ y', "expected a term, found '+'", 3),
    ('2 * ) ', "expected a term, found ')'", 4),
    ('3/2/5', "unexpected character '/'", 3),
    ('x^2^3', "expected 'end', found '^'", 3),
    ('(-)', "unexpected character '-'", 1),
    ('((1))', "expected 'number', found '('", 1),
    ('x + 1/00', 'zero denominator', 6),
    ('y^ -3', 'negative exponent', 3),
    ('0.5*x', "unexpected character '.'", 1),
    ('x + z', "unexpected character 'z'", 4),
    ('x*', "expected a term, found ''", 2),
    ('-', "unexpected character '-'", 0),
    ('^2', "expected a term, found '^'", 0),
    ('1 2', "expected 'end', found '2'", 2),
    ('+ x', "expected a term, found '+'", 0),
    ('x + y)', "expected 'end', found ')'", 5),
    ('(1 2)', "expected ')', found '2'", 3),
    ('x^(2)', "expected 'number', found '('", 2),
    ('(-1/3)*x^2*y + 4/0*x', 'zero denominator', 17),
    ('1e3', "unexpected character 'e'", 1),
    # a number is one token, '-'? digits ('/' digits)?, as in a curve file:
    # no space inside it, and an exponent is a plain non-negative integer
    ('3 / 2*x + y', "unexpected character '/'", 2),
    ('( - 1)*x + y', "unexpected character '-'", 2),
    ('- 1*x + y', "unexpected character '-'", 0),
    ('x^-0', 'negative exponent', 2),
    ('x^3/2', 'fractional exponent', 2),
    # numbers are ASCII digits: str.isdigit would take these
    ('0 + x^\u00b2 + y', "unexpected character '\u00b2'", 6),
    ('0 + x^\u0663 + y', "unexpected character '\u0663'", 6),
    ('\uff13*x + y', "unexpected character '\uff13'", 0),
    ('2\u00b9*x', "unexpected character '\u00b9'", 1),
]


@pytest.mark.parametrize("text, message, position", _PARSE_ERRORS)
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(PolyParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_evaluate_examples():
    f = parse("0 + x + y")
    assert evaluate(f, pt(-1, -1)) == 0
    assert evaluate(f, pt(2, 1)) == 2
    assert evaluate(f, pt(0, 0)) == 0
    assert len(dominant_terms(f, pt(0, 0))) == 3


def test_evaluate_min_convention():
    f = parse("0 + x + y", convention="min")
    assert evaluate(f, pt(2, 1)) == 0
    assert evaluate(f, pt(-3, 5)) == -3


def test_corner_locus_line():
    c = corner_locus(parse("0 + x + y"))
    assert validate(c).passed
    assert canonical_form(c) == canonical_form(tropical_line())


def test_corner_locus_min_line():
    c = corner_locus(parse("0 + x + y", convention="min"))
    assert validate(c).passed
    assert canonical_form(c) == canonical_form(anti_line())


def test_corner_locus_shifted_vertex():
    # max(1, x, y): ties at x = y = 1
    c = corner_locus(parse("1 + x + y"))
    assert c.vertices == (pt(1, 1),)


def test_corner_locus_conic():
    c = corner_locus(parse("0 + x + y + (-1)*x*y"))
    assert validate(c).passed
    assert len(c.edges) == 1
    assert newton_polygon(c) == convex_hull(
        [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 1)]
    )


def test_corner_locus_single_term_refused():
    with pytest.raises(EmptyCurveError):
        corner_locus(parse("7"))
    with pytest.raises(EmptyCurveError):
        corner_locus(parse("x^2*y"))


def test_corner_locus_collinear_support():
    c = corner_locus(parse("0 + x"))
    assert validate(c).passed
    assert len(c.vertices) == 1 and len(c.rays) == 2
    assert c.vertices[0] == pt(0, 0)
    # weight-2 line from a lattice-length-2 dual segment
    c2 = corner_locus(parse("0 + x^2"))
    assert validate(c2).passed
    assert all(r.weight == 2 for r in c2.rays)
    # two surviving breakpoints give two parallel lines
    c3 = corner_locus(parse("0 + x + (-5)*x^2"))
    assert validate(c3).passed
    assert len(c3.vertices) == 2


def smooth_cubic():
    # strictly concave non-separable lift: every lattice square splits
    coeffs = {}
    for i in range(4):
        for j in range(4 - i):
            coeffs[(i, j)] = -(i * i + i * j + j * j)
    return polynomial(coeffs)


def test_smooth_cubic_structure():
    c = corner_locus(smooth_cubic())
    assert validate(c).passed
    assert newton_polygon(c) == convex_hull([vec(0, 0), vec(3, 0), vec(0, 3)])
    # smooth: every vertex trivalent of multiplicity 1, one cycle
    assert len(c.vertices) == 9
    for v in c.vertices:
        assert vertex_multiplicity(c, v) == 1
    b = bunch(c)
    assert b.genus() == 1
    s = bouquet_structure(c, b)
    assert s.genus == 1


def test_duality_complex_equals_subdivision():
    polys = [
        parse("0 + x + y"),
        parse("0 + x + y + (-1)*x*y"),
        smooth_cubic(),
        parse("0 + 2*x + 2*y + 3*x*y + x^2 + y^2"),
    ]
    for f in polys:
        c = corner_locus(f)
        sub = dual_subdivision(f)
        nc = newton_complex(c)

        def normalize(vertex_set, edge_set):
            mx = min(v[0] for v in vertex_set)
            my = min(
                v[1] for v in vertex_set if v[0] == mx
            )
            return (
                {(x - mx, y - my) for x, y in vertex_set},
                {
                    tuple(sorted(((a[0] - mx, a[1] - my), (b[0] - mx, b[1] - my))))
                    for a, b in edge_set
                },
            )

        got = normalize(nc.vertex_set(), nc.edge_segments())
        want = normalize(sub.vertex_set(), sub.skeleton_edges())
        assert got == want


def test_newton_polygon_equals_support_hull():
    rng = random.Random(5)
    for _ in range(30):
        deg = rng.randint(1, 4)
        coeffs = {}
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                if rng.random() < 0.8:
                    coeffs[(i, j)] = Fraction(
                        rng.randint(-12, 12), rng.randint(1, 4)
                    )
        if len(coeffs) < 2:
            continue
        f = polynomial(coeffs)
        c = corner_locus(f)
        assert validate(c).passed, (coeffs, validate(c))
        assert newton_polygon(c) == convex_hull(
            [vec(i, j) for (i, j) in coeffs]
        ).normalized()


def test_gradient_jumps_across_edges():
    f = smooth_cubic()
    c = corner_locus(f)
    for e in c.edges[:4]:
        a, b = c.vertices[e.a], c.vertices[e.b]
        mid = (a + b) * Fraction(1, 2)
        assert len(dominant_terms(f, mid)) >= 2
        d = b - a
        n = pt(-d.y, d.x)
        eps = Fraction(1, 1000)
        left = dominant_terms(f, mid + n * eps)
        right = dominant_terms(f, mid - n * eps)
        assert left != right


# ---------------------------------------------------------------------------
# The gift-wrapped subdivision against the brute-force triple scan.
# ---------------------------------------------------------------------------


def assert_matches_reference(f):
    """dual_subdivision and corner_locus equal the triple-scan route, the
    curve with its scale and grid."""
    want = reference_dual_subdivision(f)
    assert dual_subdivision(f) == want
    c, ref = corner_locus(f), reference_corner_locus(f, want)
    assert c == ref
    assert (c._scale, c._grid) == (ref._scale, ref._grid)
    return want


@pytest.mark.parametrize("lift", [concave_lift, sparse_lift, tied_lift])
@pytest.mark.parametrize("convention", ["max", "min"])
def test_subdivision_matches_reference_on_seeded_lifts(lift, convention):
    rng = random.Random(f"{lift.__name__}:{convention}")
    for d in range(1, 8):
        assert_matches_reference(polynomial(lift(rng, d), convention))


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
        min_size=2,
        max_size=12,
    ),
    st.sampled_from(["max", "min"]),
)
def test_subdivision_matches_reference_on_random_subsets(coeffs, convention):
    assert_matches_reference(polynomial(coeffs, convention))


def test_all_equal_lift_is_one_cell():
    f = polynomial({(i, j): 0 for i in range(4) for j in range(4 - i)})
    (cell,) = assert_matches_reference(f).cells
    assert len(cell.members) == 10
    assert cell.polygon == convex_hull([vec(0, 0), vec(3, 0), vec(0, 3)])


def test_tied_unit_square_is_one_square_cell():
    (cell,) = assert_matches_reference(parse("0 + x + y + x*y")).cells
    assert cell.polygon.vertices == (vec(0, 0), vec(1, 0), vec(1, 1), vec(0, 1))
    assert cell.dual_vertex == pt(0, 0)


@pytest.mark.parametrize(
    "text",
    [
        # every term of the lex-min hull side at the same height
        "0 + x + x^2 + x^3 + y + (-3)*x*y + (-1)*y^2",
        # the steepest term from (0, 0) is inside that side, tied with the next
        "0 + 2*x + 4*x^2 + 4*x^3 + (-3)*x^4 + y^2",
        # the side's terms on one line in the lift: w is not the far end
        "0 + x + 2*x^2 + 3*x^3 + (-1)*y + 4*x*y^2 + y^3",
        # a diagonal side, with two interior terms tied at the top
        "0 + x*y + x^2*y^2 + (-1)*x^3*y^3 + (-1)*y + y^3",
    ],
)
def test_start_side_with_tied_interior_terms(text):
    for convention in ("max", "min"):
        assert_matches_reference(parse(text, convention))


@pytest.mark.parametrize("lift", [concave_lift, sparse_lift, tied_lift])
def test_subdivision_matches_reference_at_degree_8(lift):
    rng = random.Random(f"{lift.__name__}:8")
    assert_matches_reference(polynomial(lift(rng, 8)))


def _piecewise_linear(d: int, pieces) -> dict:
    """The concave lift -max(a*i + b*j + c) over the pieces on the degree-d
    triangle: a few large cells, each holding many terms, with terms
    inside the cells' sides."""
    return {
        (i, j): -max(a * i + b * j + c for a, b, c in pieces)
        for i in range(d + 1)
        for j in range(d + 1 - i)
    }


@pytest.mark.parametrize(
    "pieces",
    [
        [(1, 0, 0), (0, 1, 0)],  # two cells split along i = j
        [(1, 0, 0), (0, 1, 0), (0, 0, 2)],  # three cells meeting at (2, 2)
        [(1, 0, 0), (0, 0, 3), (-1, 1, 1), (1, 1, -4)],
        [(2, 1, 0), (1, 2, 0), (0, 0, 5)],
    ],
)
@pytest.mark.parametrize("convention", ["max", "min"])
def test_subdivision_matches_reference_on_coplanar_terms(pieces, convention):
    sign = 1 if convention == "max" else -1  # the same cells either way
    f = polynomial({e: sign * c for e, c in _piecewise_linear(6, pieces).items()}, convention)
    sub = assert_matches_reference(f)
    assert max(len(cell.members) for cell in sub.cells) >= 6

    def term_inside_a_side(cell):
        vs = cell.polygon.vertices
        return any(
            (b.x - a.x) * (t.y - a.y) == (b.y - a.y) * (t.x - a.x)
            for t in set(cell.members) - set(vs)
            for a, b in zip(vs, vs[1:] + vs[:1])
        )

    assert any(term_inside_a_side(cell) for cell in sub.cells)


def test_smooth_degree_20_subdivision():
    f = polynomial(concave_lift(random.Random(20), 20))
    sub = dual_subdivision(f)
    assert len(sub.cells) == 400
    assert all(cell.polygon.area2() == 1 for cell in sub.cells)
    c = corner_locus(f)
    assert (len(c.vertices), len(c.edges), len(c.rays)) == (400, 570, 60)


# ---------------------------------------------------------------------------
# corner_locus presets the curve's scale and grid (TropicalCurve._on_grid):
# both must equal what the curve computes from its vertex Points.
# ---------------------------------------------------------------------------


def _grid_of_points(c):
    ref = TropicalCurve(c.vertices, c.edges, c.rays)
    return ref._scale, ref._grid


@pytest.mark.parametrize("lift", [concave_lift, sparse_lift, tied_lift])
@pytest.mark.parametrize("convention", ["max", "min"])
def test_preset_grid_equals_the_points_on_seeded_lifts(lift, convention):
    rng = random.Random(f"{lift.__name__}:{convention}:grid")
    for d in range(2, 9):
        c = corner_locus(polynomial(lift(rng, d), convention))
        assert (c._scale, c._grid) == _grid_of_points(c)


@pytest.mark.parametrize(
    "text",
    ["0 + x", "0 + x^2", "0 + x + (-5)*x^2", "1/3 + (-1/7)*x*y + 2/5*x^2*y^2",
     "0 + 1/3*y^2 + (-1/7)*y^4"],
)
@pytest.mark.parametrize("convention", ["max", "min"])
def test_preset_grid_equals_the_points_on_collinear_supports(text, convention):
    c = corner_locus(parse(text, convention))
    assert (c._scale, c._grid) == _grid_of_points(c)


@pytest.mark.parametrize("convention", ["max", "min"])
def test_preset_grid_equals_the_points_with_coprime_denominators(convention):
    differs = set()  # what some curve's D differs from
    sign = 1 if convention == "max" else -1  # the same cells either way
    for coeffs in COPRIME_DENOMINATORS:
        f = polynomial({e: sign * c for e, c in coeffs.items()}, convention)
        c = corner_locus(f)
        assert (c._scale, c._grid) == _grid_of_points(c)
        assert_matches_reference(f)
        scale, cells = _cells(f)
        den = scale * math.lcm(*(nz for (_, _, nz), *_ in cells))
        if den != scale:
            differs.add("lift")
        if den != c._scale:
            differs.add("curve")
    assert differs == {"lift", "curve"}
