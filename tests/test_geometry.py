"""Tests for the planar line/circle construction and the circle solver."""

import math
import random
from itertools import permutations, product

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _oracles as oracles
from prismcat import catalog
from prismcat.catalog import check_entry
from prismcat.geometry import (
    TOLERANCES,
    UNIT_CIRCLE,
    Check,
    PlanarCircle,
    PlanarConfig,
    PlanarLine,
    RealizationError,
    Report,
    _worst,
    build_lines,
    measure_angle,
    realize,
    verify_config,
)
from prismcat.labelings import (
    Labeling,
    TriangleClass,
    classify_triangle,
    enumerate_catalog,
    scan_admissible,
)
from prismcat.moebius import build_generators

SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)


# ---------------------------------------------------------------------------
# lines


def test_line_requires_unit_normal():
    with pytest.raises(ValueError):
        PlanarLine(1.0, 1.0, 0.0)
    PlanarLine(1.0, 0.0, -0.5)  # unit normal is fine


def test_vertical_line_constructors():
    right = PlanarLine.vertical(-0.5)
    assert right.is_vertical
    assert (right.nx, right.ny) == (1.0, 0.0)
    assert right.d == -0.5
    with pytest.raises(ValueError):
        right.slope_intercept()


def test_slope_intercept_round_trip():
    line = PlanarLine.from_slope_intercept(2.0, -0.75, prism_above=True)
    slope, intercept = line.slope_intercept()
    assert math.isclose(slope, 2.0, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(intercept, -0.75, rel_tol=0, abs_tol=1e-15)
    # prism_above means the normal has positive y-component
    assert line.ny > 0
    assert line.signed_distance(0.0, 1.0) > 0
    below = PlanarLine.from_slope_intercept(2.0, -0.75, prism_above=False)
    assert below.signed_distance(0.0, 1.0) < 0


def test_signed_distance_is_euclidean_distance_with_sign():
    line = PlanarLine.from_slope_intercept(1.0, 0.0, prism_above=True)
    d = line.signed_distance(0.0, math.sqrt(2.0))
    assert math.isclose(d, 1.0, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# build_lines closed forms


def test_build_lines_red_branches():
    red2, _, _ = build_lines(Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2))
    assert red2.is_vertical and red2.d == 0.0
    red3, _, _ = build_lines(Labeling(2, 3, 3, 4, 6, 2, 2, 2, 2))
    assert red3.is_vertical and red3.d == -0.5
    with pytest.raises(ValueError):
        build_lines((2, 3, 4, 4, 6, 2, 2, 2, 2))


@pytest.mark.parametrize(
    "a4,a6,green_b,blue_b",
    [
        (3, 4, SQ3 / 3, -SQ6 / 3),
        (3, 5, SQ3 / 3, -2 * SQ3 / 3 * math.cos(math.pi / 5)),
        (4, 4, SQ6 / 3, -SQ6 / 3),
        (4, 5, SQ6 / 3, -2 * SQ3 / 3 * math.cos(math.pi / 5)),
        (5, 5, 2 * SQ3 / 3 * math.cos(math.pi / 5), -2 * SQ3 / 3 * math.cos(math.pi / 5)),
    ],
)
def test_build_lines_closed_forms_both_slopes_sqrt3_over_3(a4, a6, green_b, blue_b):
    # With both base angles pi/3 the green and blue slopes are -/+ sqrt(3)/3
    # and the intercepts depend only on a4 and a6.
    _, green, blue = build_lines((3, 3, 2, a4, 3, a6, 2, 2, 2))
    g_slope, g_int = green.slope_intercept()
    b_slope, b_int = blue.slope_intercept()
    assert abs(g_slope - (-SQ3 / 3)) <= 1e-12
    assert abs(b_slope - SQ3 / 3) <= 1e-12
    assert abs(g_int - green_b) <= 1e-12
    assert abs(b_int - blue_b) <= 1e-12


def test_build_lines_right_angle_at_bottom_gives_horizontal_green():
    _, green, blue = build_lines(Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2))
    g_slope, g_int = green.slope_intercept()
    assert abs(g_slope) <= 1e-15
    assert abs(g_int - math.cos(math.pi / 7)) <= 1e-15
    b_slope, b_int = blue.slope_intercept()
    assert abs(b_slope - SQ3) <= 1e-12
    assert abs(b_int) <= 1e-15


def test_green_intercept_grows_with_a4():
    intercepts = []
    for n in range(7, 13):
        _, green, _ = build_lines((2, 6, 2, n, 3, 2, 2, 2, 2))
        intercepts.append(green.slope_intercept()[1])
    assert intercepts == sorted(intercepts)
    assert intercepts[0] > 0


# ---------------------------------------------------------------------------
# construction equations of the top circle


def test_tangency_constraint_matches_shifted_line_form():
    # The blue line of (2,6,2,7,3,2,2,3,2) is y = sqrt(3)*x with the prism
    # above it; meeting the top circle at pi/a8 = pi/3 puts the center at
    # distance r*cos(pi/3) above it, y0 = sqrt(3)*x0 + r.
    top = realize((2, 6, 2, 7, 3, 2, 2, 3, 2)).top
    assert abs(top.cy - (SQ3 * top.cx + top.r)) <= 1e-15


def test_tangency_constraint_center_on_line_when_orthogonal():
    # At a7 = 2 the condition degenerates to "center lies on the green line",
    # here y = cos(pi/7).
    top = realize((2, 6, 2, 7, 3, 2, 2, 3, 2)).top
    assert abs(top.cy - math.cos(math.pi / 7)) <= 1e-15


def test_cocircle_constraint_matches_displayed_equations():
    # a9 = 2: x^2 + y^2 = 1 + r^2;  a9 = 3: x^2 + y^2 = 1 + r^2 + r.
    orth = realize((2, 6, 2, 7, 3, 2, 2, 3, 2)).top
    assert abs(orth.cx**2 + orth.cy**2 - 1 - orth.r**2) <= 1e-15
    third = realize((2, 3, 2, 4, 6, 2, 2, 2, 3)).top
    assert abs(third.cx**2 + third.cy**2 - 1 - third.r**2 - third.r) <= 1e-15


def test_constraint_domains():
    # Every construction angle pi/a lies in (0, pi/2], because realize
    # rejects labels below 2.
    for labels in [(2, 6, 2, 7, 3, 2, 1, 3, 2), (2, 6, 2, 7, 3, 2, 2, 3, 0)]:
        with pytest.raises(ValueError, match="labels must be integers >= 2"):
            realize(labels)


# ---------------------------------------------------------------------------
# measure_angle


def test_measure_angle_lines():
    v = PlanarLine.vertical(0.0)
    h = PlanarLine.from_slope_intercept(0.0, 1.0, prism_above=False)
    assert measure_angle(v, h) == pytest.approx(math.pi / 2, abs=1e-15)
    diag = PlanarLine.from_slope_intercept(1.0, 0.0, prism_above=True)
    assert measure_angle(v, diag) == pytest.approx(math.pi / 4, abs=1e-15)


def test_measure_angle_line_circle():
    v = PlanarLine.vertical(0.0)
    assert measure_angle(v, UNIT_CIRCLE) == pytest.approx(math.pi / 2, abs=1e-15)
    # A chord at distance cos(pi/6) meets the circle at pi/6.
    shifted = PlanarLine.vertical(-math.cos(math.pi / 6))
    assert measure_angle(shifted, UNIT_CIRCLE) == pytest.approx(
        math.pi / 6, abs=1e-15
    )
    far = PlanarLine.vertical(1.5)
    assert measure_angle(far, UNIT_CIRCLE) is None


def test_measure_angle_circles():
    # Orthogonal circles: distance^2 = r1^2 + r2^2.
    c = PlanarCircle(math.sqrt(2.0), 0.0, 1.0)
    assert measure_angle(UNIT_CIRCLE, c) == pytest.approx(math.pi / 2, abs=1e-15)
    tangent = PlanarCircle(2.0, 0.0, 1.0)
    assert measure_angle(UNIT_CIRCLE, tangent) == pytest.approx(0.0, abs=1e-7)
    assert measure_angle(UNIT_CIRCLE, PlanarCircle(5.0, 0.0, 1.0)) is None


def test_measure_angle_is_symmetric():
    v = PlanarLine.vertical(-0.3)
    c = PlanarCircle(0.4, 0.2, 0.9)
    assert measure_angle(v, c) == measure_angle(c, v)
    assert measure_angle(UNIT_CIRCLE, c) == measure_angle(c, UNIT_CIRCLE)


def test_measure_angle_invariant_under_rigid_motions():
    rng = random.Random(20260814)
    base_line = PlanarLine.from_slope_intercept(0.7, -0.2, prism_above=True)
    base_circle = PlanarCircle(0.3, 0.4, 0.8)
    reference = measure_angle(base_line, base_circle)
    for _ in range(25):
        alpha = rng.uniform(0, 2 * math.pi)
        tx, ty = rng.uniform(-3, 3), rng.uniform(-3, 3)
        ca, sa = math.cos(alpha), math.sin(alpha)
        nx = ca * base_line.nx - sa * base_line.ny
        ny = sa * base_line.nx + ca * base_line.ny
        moved_line = PlanarLine(nx, ny, base_line.d + nx * tx + ny * ty)
        cx = ca * base_circle.cx - sa * base_circle.cy + tx
        cy = sa * base_circle.cx + ca * base_circle.cy + ty
        moved_circle = PlanarCircle(cx, cy, base_circle.r)
        assert measure_angle(moved_line, moved_circle) == pytest.approx(
            reference, abs=1e-12
        )


# ---------------------------------------------------------------------------
# realize


def test_realize_right_angled_bottom_arrangement():
    # Arrangement (2,6,2,7,3,2,2,3,2): horizontal green line at cos(pi/7),
    # circle center x and radius in closed form.
    config = realize(Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2))
    c7 = math.cos(math.pi / 7)
    s314 = math.sin(3 * math.pi / 14)
    x_expected = (2 * SQ3 * c7 - math.sqrt(6 * s314 - 2)) / 4
    r_expected = (math.sqrt(18 * s314 - 6) - 2 * c7) / 4
    assert abs(config.top.cy - c7) <= 1e-10
    assert abs(config.top.cx - x_expected) <= 1e-10
    assert abs(config.top.r - r_expected) <= 1e-10
    # The published four-decimal values.
    assert config.top.cx == pytest.approx(0.4504, abs=5e-5)
    assert config.top.r == pytest.approx(0.1209, abs=5e-5)


def test_realize_diagonal_arrangement():
    # Arrangement (2,4,2,5,4,2,2,2,3): center (cos(pi/5), cos(pi/5)) and
    # radius (5^(1/4) - 1)/2.
    config = realize(Labeling(2, 4, 2, 5, 4, 2, 2, 2, 3))
    c5 = math.cos(math.pi / 5)
    r_expected = (5.0 ** 0.25 - 1.0) / 2.0
    assert abs(config.top.cx - c5) <= 1e-10
    assert abs(config.top.cy - c5) <= 1e-10
    assert abs(config.top.r - r_expected) <= 1e-10


def test_realize_output_verifies():
    for labels in [
        (2, 6, 2, 7, 3, 2, 2, 3, 2),
        (2, 3, 3, 5, 6, 2, 2, 2, 3),
        (2, 4, 3, 5, 4, 2, 3, 2, 2),
        (3, 3, 2, 5, 3, 5, 2, 3, 2),
    ]:
        lab = Labeling(*labels)
        config = realize(lab)
        report = verify_config(lab, config)
        assert report.ok
        assert report.max_residual() <= 1e-12


def test_realize_agrees_with_newton_solver():
    for labels in [
        (2, 6, 2, 7, 3, 2, 2, 3, 2),
        (2, 3, 2, 3, 6, 5, 2, 2, 3),
        (2, 4, 3, 5, 4, 2, 2, 3, 3),
        (3, 3, 2, 3, 3, 4, 5, 2, 2),
    ]:
        config = realize(Labeling(*labels))
        x, y, r = oracles.newton_circle(labels)
        assert abs(config.top.cx - x) <= 1e-9
        assert abs(config.top.cy - y) <= 1e-9
        assert abs(config.top.r - r) <= 1e-9


def test_realize_far_into_a_family():
    # Near-degenerate instances keep full precision thanks to the stable
    # quadratic split.
    lab = Labeling(2, 3, 2, 5000, 6, 2, 2, 2, 2)
    config = realize(lab)
    report = verify_config(lab, config)
    assert report.ok
    assert report.max_residual() <= 1e-11


def test_realize_rejects_inadmissible():
    with pytest.raises(ValueError, match="ideal triple"):
        realize((2, 3, 2, 7, 5, 2, 2, 3, 2))
    with pytest.raises(ValueError, match="prismatic circuit"):
        realize((2, 6, 2, 2, 3, 2, 2, 2, 2))


def test_realize_raises_when_the_one_root_fails_the_clearance_gate():
    # At n = 10^6 the red/top clearance is of order 1e-12, below the absolute
    # gate TOLERANCES["construction"] = 1e-10.  ROADMAP item 8 makes that gate
    # relative, which is expected to turn this into a pass.
    with pytest.raises(RealizationError, match=r"no valid top circle for \(2, 3, 2, 1000000,"):
        realize((2, 3, 2, 10**6, 6, 2, 2, 2, 2))


# ---------------------------------------------------------------------------
# the lemma of realize: a < 0 < c, so exactly one root is positive

# The cusp triples (a1, a2, a5): every ordering of the Euclidean triples.
CUSP_TRIPLES = sorted({p for t in ((2, 3, 6), (2, 4, 4), (3, 3, 3)) for p in permutations(t)})


def _green_blue(labels):
    """The green and blue lines of build_lines as (nx, ny, d) triples."""
    _, green, blue = build_lines(labels)
    return (green.nx, green.ny, green.d), (blue.nx, blue.ny, blue.d)


@pytest.fixture(scope="module")
def lemma_grid():
    """(labels, (a, c) from build_lines, (a, c) by the lemma) over cusp triples x a3 x 2..8."""
    rows = []
    for (a1, a2, a5), a3, a4, a6, a7, a8 in product(CUSP_TRIPLES, (2, 3), *[range(2, 9)] * 4):
        labels = (a1, a2, a3, a4, a5, a6, a7, a8, 2)
        ends = oracles.top_quadratic_ends(labels, *_green_blue(labels))
        rows.append((labels, ends, oracles.lemma_ends(labels)))
    return rows


def test_lemma_identities_hold_in_float64(lemma_grid):
    assert len(lemma_grid) == 10 * 2 * 7**4
    # Relative to max(1, |value|): |a| reaches 11.7 on this grid, where the
    # two sides differ by up to 1.6e-14, and at most 2.2e-15 relatively.
    for labels, (a, c), (lemma_a, lemma_c) in lemma_grid:
        for value, lemma in ((a, lemma_a), (c, lemma_c)):
            assert abs(value - lemma) <= 1e-14 * max(1.0, abs(value)), labels


def test_lemma_signs_follow_the_triangle_classes(lemma_grid):
    # a < 0 exactly when the top vertex (a5, a7, a8) is spherical, and c > 0
    # exactly when the circuit (a4, a5, a6) is hyperbolic.  On a Euclidean
    # triple D = 0, and the float sign is rounding noise.
    sign = {TriangleClass.SPHERICAL: -1, TriangleClass.HYPERBOLIC: 1}
    for labels, (a, c), _ in lemma_grid:
        _, _, _, a4, a5, a6, a7, a8, _ = labels
        for value, triple in ((a, (a5, a7, a8)), (c, (a4, a5, a6))):
            kind = classify_triangle(*triple)
            if kind is TriangleClass.EUCLIDEAN:
                assert abs(value) <= 1e-14, (labels, triple)
            else:
                assert value * sign[kind] > 0, (labels, triple)


def test_lemma_identities_hold_at_50_digits():
    with mpmath.workdps(50):
        for labels in scan_admissible(30):
            lines = oracles.closed_form_lines(labels, mpmath)
            a, c = oracles.top_quadratic_ends(labels, *lines, mpmath)
            lemma_a, lemma_c = oracles.lemma_ends(labels, mpmath)
            assert abs(a - lemma_a) <= 1e-45 and abs(c - lemma_c) <= 1e-45, labels


def test_every_admissible_labeling_has_one_positive_root():
    labelings = scan_admissible(30)
    assert len(labelings) == 374
    for labels in labelings:
        a, c = oracles.top_quadratic_ends(labels, *_green_blue(labels))
        assert a < 0 < c, labels


# ---------------------------------------------------------------------------
# the Gram matrix: realize against det G(x) = 0 from the labels alone


def test_realize_puts_red_and_top_at_the_root_of_the_gram_determinant():
    # The 78 standalone rows, and each family at free_min, +1, +10 and 500.
    targets = []
    for row in enumerate_catalog():
        if not row.family:
            targets.append(row.labeling)
            continue
        values = {row.free_min, row.free_min + 1, row.free_min + 10, 500}
        targets += [row.instantiate(n) for n in sorted(values)]
    assert len(targets) == 126
    eps = 2.0**-52
    for labels in targets:
        config = realize(labels)
        faces = [oracles.face_vector(config[i]) for i in range(5)]
        products = [[oracles.lorentz(u, v) for v in faces] for u in faces]
        x = products[0][4]
        # Unit vectors whose products on the nine edges are the signed
        # cosines of G(x): this fixes the sign convention.
        expected = oracles.gram_matrix(labels, x)
        for i, j in product(range(5), repeat=2):
            assert abs(products[i][j] - expected[i][j]) <= TOLERANCES["angle"], (labels, i, j)
        [root] = [root for root in oracles.gram_roots(labels) if root > 1]
        # Error model: the red line is exact (x = 0 or x = -1/2), and x is
        # its product with the top circle, whose center and radius end
        # realize's chain of about twenty roundings (cosines, the 2x2 solve,
        # the quadratic) and the face vector's and product's four more.  At
        # eps/2 each, with condition numbers near 1, that is 12 eps x, which
        # 16 eps x covers.  Measured: at most 7.2 eps x, on
        # [3 3 2 3 3 4 4 2 2].  Relative to x - 1 the worst is 9.8e-11, on
        # [2 3 2 500 6 4 2 2 2], where x - 1 = 2.0e-6: one ulp of x.
        assert abs(x - root) <= 16 * eps * x, (labels, x, root)


# ---------------------------------------------------------------------------
# float64 against the same code at 50 digits (oracles.digits)


def test_float64_faces_agree_with_50_digit_faces():
    # The 78 standalone rows, and each family at free_min, +1, +10, 500,
    # 2000 and 4500.  Every face number of float64's realize lies within 1e-14
    # of realize's at 50 digits (3.0e-15 measured at worst), so the drift
    # row's tolerance, TOLERANCES["angle"] = 1e-9, has more than 5 orders of
    # headroom over float64's error.  At 50 digits every check of every one passes.
    targets = []
    for row in enumerate_catalog():
        if not row.family:
            targets.append(row.labeling)
            continue
        values = {row.free_min, row.free_min + 1, row.free_min + 10, 500, 2000, 4500}
        targets += [row.instantiate(n) for n in sorted(values)]
    assert len(targets) == 150
    floats = [realize(labels) for labels in targets]
    with oracles.digits(50):
        for labels, config in zip(targets, floats):
            precise = realize(labels)
            assert precise.a3_branch == config.a3_branch
            pairs = zip(config[:5], precise[:5])  # the faces, three numbers each
            gap = max(abs(a - b) for face, exact in pairs for a, b in zip(face, exact))
            assert gap <= 1e-14, (labels, gap)
            report = check_entry(precise, build_generators(labels, precise))
            assert report.ok, (labels, report.failures())


def test_float64_angles_sit_at_the_floor_of_their_stored_faces():
    # A face stores cos(pi/n) as an offset close to 1, and rounding that one
    # number moves the angle by up to (eps/2) n/pi.  The float64 faces of
    # each family at n = 10^3, 10^4 and 10^5, read exactly and measured at
    # 50 digits, keep all nine angles within that floor of pi/a_i (at 0.33
    # to 0.42 of it, on a4 of [2 3 2 n 6 2 2 2 2]).  So reordering float64's
    # operations can move where float64 stops by a small factor at most.
    eps = 2.0**-52
    families = [row for row in enumerate_catalog() if row.family]
    assert len(families) == 12
    for n in (10**3, 10**4, 10**5):
        labelings = [row.instantiate(n) for row in families]
        floats = [realize(labels) for labels in labelings]
        floor = eps / 2 * n / math.pi
        with oracles.digits(50):
            for labels, config in zip(labelings, floats):
                exact = PlanarConfig(
                    *(type(face)(*map(mpmath.mpf, face)) for face in config[:5]),
                    config.a3_branch,
                )
                report = verify_config(labels, exact)
                assert report.max_residual() <= floor, (labels, report.max_residual(), floor)


def test_verify_config_flags_perturbed_radius():
    lab = Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2)
    config = realize(lab)
    bumped = PlanarConfig(
        red=config.red,
        green=config.green,
        blue=config.blue,
        back=config.back,
        top=PlanarCircle(config.top.cx, config.top.cy, config.top.r + 1e-3),
        a3_branch=config.a3_branch,
    )
    report = verify_config(lab, bumped)
    assert not report.ok
    # a7 = 2 pins the center to the green line, so only the blue tangency
    # and the unit-circle intersection notice a radius change.
    broken = {row.edge for row in oracles.rows(report) if not row.ok}
    assert broken == {"a8", "a9"}
    assert report.failures() == ["configuration fails on a8, a9"]


def test_verify_config_reports_missing_intersections_as_failures():
    lab = Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2)
    config = realize(lab)
    detached = PlanarConfig(
        red=config.red,
        green=config.green,
        blue=config.blue,
        back=config.back,
        top=PlanarCircle(5.0, 5.0, 0.05),
        a3_branch=config.a3_branch,
    )
    report = verify_config(lab, detached)
    assert not report.ok
    assert report.max_residual() == math.inf
    assert {r.edge for r in oracles.rows(report) if not r.ok} >= {"a7", "a8", "a9"}


def test_report_rows_share_one_residual_rule():
    records = (
        Check("angle", ("a1", "a2"), (1e-12, math.inf), (1e-9, 1e-9), "[x]"),
        Check("relation", ("a2",), (2e-7,), (1e-7,), "[x]"),
        Check("relation", ("a4",), (5e-7,), (1e-6,), "[y]"),
    )
    report = Report(records, errors=("[z]: realization failed",), entries_checked=3)
    assert [row.ok for row in oracles.rows(report)] == [True, False, False, True]
    assert not report.ok
    assert report.max_residual("relation") == 5e-7
    assert report.max_residual("trace") == 0.0
    assert report.max_residual() == math.inf
    assert report.failures() == [
        "[x]: configuration fails on a2",
        "[x]: relations fail on a2",
        "[z]: realization failed",
    ]
    assert Report((records[0]._replace(residuals=(1e-12, 0.0)), records[2])).ok
    # Every comparison with NaN is false: a NaN residual must still be the
    # worst, wherever it comes among the edges.
    names, values = ("M1", "M2", "M3"), (1.0, math.nan, 2.0)
    drifts = Report((Check("determinant", names, values, (1e-10,) * 3),))
    assert math.isnan(drifts.max_residual("determinant")) and math.isnan(drifts.max_residual())
    assert drifts.failures() == ["M1, M2, M3 determinant drifts by nan"]
    # Each record makes its own message, naming each failed edge once, even
    # when two records share an entry and stage, as a row stored twice does.
    twice = Report((records[1], records[1]))
    assert twice.failures() == ["[x]: relations fail on a2"] * 2


# Residual lists that mix NaN, both infinities, zeros of both signs and
# negatives with any other float, in any order.
SPECIAL_RESIDUALS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]
RESIDUAL_LISTS = st.lists(st.one_of(st.sampled_from(SPECIAL_RESIDUALS), st.floats()))


@given(RESIDUAL_LISTS)
@example([])
@example([math.inf, -math.inf])
@example([-math.inf, 1.0, math.inf, math.nan])
@example([-0.0, 0.0])
@example([1e308, 1e308, -math.inf])
def test_worst_is_max_with_nan_above_every_number(residuals):
    # The plain form: a key puts any NaN above every number.
    expected = max(residuals, key=lambda r: (r != r, r), default=0.0)
    assert repr(_worst(residuals)) == repr(expected)


def test_report_names_a_failed_stage_it_has_no_text_for():
    report = Report((Check("order", ("a4", "a5"), (1.0, 0.0), (1e-9, 1e-9)),))
    assert not report.ok
    assert report.max_residual("order") == 1.0
    assert report.failures() == ["order checks fail on a4"]
    tagged = Report((Check("certificate", ("M1",), (math.inf,), (0.0,), "[x]"),))
    assert tagged.failures() == ["[x]: certificate checks fail on M1"]


@pytest.mark.parametrize(
    "record,message",
    [
        (
            Check("angle", ("a1",), (0.0, 1.0), (1e-9, 1e-9), "[x]"),
            "[x]: the angle record has 1 edges, 2 residuals and 2 bounds",
        ),
        (
            Check("angle", ("a1", "a2"), (0.0, 1.0), (1e-9,)),
            "the angle record has 2 edges, 2 residuals and 1 bounds",
        ),
    ],
    ids=["short-edges", "short-tol"],
)
def test_a_record_whose_fields_differ_in_length_holds_no_verdict(record, message):
    # A short edge list would fail on an unnamed edge, and a short tol would
    # pass the residuals it has no bound for.
    report = Report((record,))
    with pytest.raises(ValueError) as failures:
        report.failures()
    assert str(failures.value) == message
    with pytest.raises(ValueError, match="the angle record has"):
        report.ok


def test_config_requires_a_known_red_line_branch():
    config = realize(Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2))
    with pytest.raises(ValueError, match="a3 branch"):
        PlanarConfig(config.red, config.green, config.blue, config.back, config.top, 5)


def test_angle_tolerance_constant_is_exposed():
    # One table holds every bound, and the catalog records that same object.
    assert TOLERANCES["angle"] == 1e-9
    assert catalog.TOLERANCES is TOLERANCES
    assert list(TOLERANCES.items()) == [
        ("construction", 1e-10),
        ("angle", 1e-9),
        ("relation", 1e-7),
        ("relation_large_power", 1e-6),
        ("large_exponent", 100),
        ("trace", 1e-8),
        ("determinant", 1e-10),
    ]


def test_circle_requires_positive_radius():
    with pytest.raises(ValueError):
        PlanarCircle(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PlanarCircle(0.0, 0.0, -1.0)
