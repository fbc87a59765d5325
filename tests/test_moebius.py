"""Tests for the matrix generators and the numerical relation checks."""

import cmath
import itertools
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import _oracles as oracles
import prismcat
from prismcat import catalog as cat
from prismcat.catalog import check_entry
from prismcat.geometry import TOLERANCES, PlanarCircle, PlanarConfig, realize
from prismcat.labelings import EDGE_NAMES, Labeling, enumerate_catalog
from prismcat.moebius import (
    WORD_NAMES,
    GeneratorSet,
    MoebiusMatrix,
    build_generators,
    relation_tolerance,
    rotation_matrix,
    trace_check,
    traces,
    verify_relations,
)


# ---------------------------------------------------------------------------
# MoebiusMatrix


def entries(m):
    return (m.a, m.b, m.c, m.d)


def act(m, w):
    """The Moebius action w -> (a*w + b)/(c*w + d) of ``m`` at a finite point."""
    return (m.a * w + m.b) / (m.c * w + m.d)


def test_matrix_accessors_and_det():
    m = MoebiusMatrix(1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)
    assert (m.a, m.b, m.c, m.d) == (1, 2, 3, 4)
    assert m.det == 1 * 4 - 2 * 3


def test_tuple_operators_do_not_act_on_a_matrix():
    m = MoebiusMatrix(1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)
    for op in (lambda: m + m, lambda: m + (1,), lambda: m * 2, lambda: 2 * m, lambda: m * m):
        with pytest.raises(TypeError):
            op()


def test_matrix_shape_is_validated():
    with pytest.raises(TypeError):
        MoebiusMatrix(1 + 0j, 0j, 0j)
    with pytest.raises(TypeError):
        MoebiusMatrix(1 + 0j, 0j, 0j, 1 + 0j, 0j)


def test_matmul_and_inverse():
    m = MoebiusMatrix(2 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)
    prod = m @ m.inv()
    assert prod.distance_to_identity() <= 1e-15
    assert (m.inv() @ m).distance_to_identity() <= 1e-15


def test_pow_identities():
    m = MoebiusMatrix(1 + 0j, 1 + 0j, 0j, 1 + 0j)
    assert m.pow(0).distance_to_identity() == 0
    assert entries(m.pow(3)) == entries(m @ m @ m)
    with pytest.raises(ValueError):
        m.pow(-1)


def test_distance_to_identity_handles_both_signs():
    eye = MoebiusMatrix.identity()
    neg = MoebiusMatrix(-1 + 0j, 0j, 0j, -1 + 0j)
    assert eye.distance_to_identity() == 0
    assert neg.distance_to_identity() == 0


def test_distance_is_zero_up_to_sign_and_symmetric():
    m = MoebiusMatrix(0.3 - 1.2j, 2.5 + 0j, -0.7j, 1e-3 + 4j)
    b = MoebiusMatrix(0.1 + 0j, 2 + 1j, 3 + 0j, -4j)
    negated = MoebiusMatrix(*(-z for z in m))
    assert m.distance(m) == m.distance(negated) == negated.distance(m) == 0.0
    # Unnormalized: twice a matrix is as far from it as the matrix is from 0.
    doubled = MoebiusMatrix(*(2 * z for z in m))
    assert m.distance(doubled) == m.distance(MoebiusMatrix(0j, 0j, 0j, 0j)) > 0
    for x, y in itertools.permutations((m, b, negated, doubled, MoebiusMatrix.identity()), 2):
        assert x.distance(y) == y.distance(x)
    # The nearer of M - B and M + B: |M - I| = sqrt(61) and |M + I| = 5 here.
    assert MoebiusMatrix(-4 + 0j, 0j, 0j, -5 + 0j).distance(MoebiusMatrix.identity()) == 5.0


def test_import_does_not_load_numpy():
    src = Path(prismcat.__file__).resolve().parents[1]
    code = (
        "import sys, prismcat, prismcat.cli; "
        "print([name in sys.modules for name in "
        "('numpy', 'mpmath', 'logging', 'dataclasses', 'inspect')])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=src,
        timeout=60,
    )
    assert result.stdout.strip() == "[False, False, False, False, False]"


def _readme_library_example() -> str:
    readme = (Path(prismcat.__file__).resolve().parents[2] / "README.md").read_text()
    return readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_package_exports_the_readme_library_names():
    example = _readme_library_example()
    imported = example.split("from prismcat import (", 1)[1].split(")", 1)[0]
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert sorted(prismcat.__all__) == sorted(names)
    assert all(hasattr(prismcat, name) for name in prismcat.__all__)


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_library_example(), "README.md", "exec"), {})
    # Each of the 90 rows prints its worst relation residual and no failures.
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 90
    assert all(line.endswith(" []") and float(line.split()[0]) < 1e-6 for line in lines)


# ---------------------------------------------------------------------------
# MoebiusMatrix.pow against independent powers


def exact_distance_of_power(m, n, dps=60):
    """PSL2 distance of m**n to the identity, powering m's float64 entries exactly."""
    with mpmath.workdps(dps):
        mat = mpmath.matrix([[m.a, m.b], [m.c, m.d]]) ** n
        mat /= mpmath.sqrt(mpmath.det(mat))
        eye = mpmath.eye(2)
        return float(min(mpmath.mnorm(mat - eye, "f"), mpmath.mnorm(mat + eye, "f")))


@pytest.mark.parametrize("n", [10**2, 10**3, 10**4])
def test_pow_residual_matches_exact_power(n):
    gens, _ = gens_for((2, 3, 2, n, 6, 2, 2, 2, 2))
    edge, _, base, exponent = oracles.word_bases(gens)[3]
    assert (edge, exponent) == ("a4", n)
    residual = base.pow(n).distance_to_identity()
    assert residual == pytest.approx(exact_distance_of_power(base, n), rel=0.01)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 10**4, 10**6])
def test_pow_of_parabolic_is_exact(n):
    m = MoebiusMatrix(1 + 0j, 1 + 0j, 0j, 1 + 0j)
    assert entries(m.pow(n)) == (1, n, 0, 1)


@pytest.mark.parametrize(
    "m",
    [
        MoebiusMatrix(1.5 + 0.5j, -0.3 + 2j, 0.7 - 1j, 2.2 + 0.1j),
        MoebiusMatrix(2 + 0j, 1 + 0j, 1 + 0j, 3 + 0j),
        MoebiusMatrix(-1 + 0j, 1 + 0j, 0j, -1 + 0j),
        MoebiusMatrix(1 + 0j, 2j, 2 + 0j, 4j),
    ],
    ids=["loxodromic", "hyperbolic", "parabolic", "singular"],
)
def test_pow_matches_repeated_products(m):
    if m.det == 0:  # the closed form divides by sqrt(det M)
        assert m.pow(0) == MoebiusMatrix.identity()
        for n in range(1, 13):
            with pytest.raises(ZeroDivisionError):
                m.pow(n)
        return
    product = MoebiusMatrix.identity()
    for n in range(13):
        power = m.pow(n)
        diff = [x - y for x, y in zip(entries(power), entries(product))]
        scale = math.sqrt(sum(abs(v) ** 2 for v in entries(product)))
        assert math.sqrt(sum(abs(v) ** 2 for v in diff)) <= 1e-13 * scale, n
        product = product @ m


def test_pow_overflow_is_a_failed_relation():
    with pytest.raises(OverflowError):
        MoebiusMatrix(3 + 0j, 0j, 0j, 1 / 3 + 0j).pow(1000)
    gens, _ = gens_for((2, 3, 2, 1000, 6, 2, 2, 2, 2))
    stretched = GeneratorSet(
        labeling=gens.labeling,
        m1=MoebiusMatrix(40 + 0j, 0j, 0j, 1 / 40 + 0j),
        m2=gens.m2,
        m3=gens.m3,
        m4=gens.m4,
        theta1=gens.theta1,
        theta2=gens.theta2,
        fixed1=gens.fixed1,
        fixed2=gens.fixed2,
    )
    report = verify_relations(stretched)
    a4 = oracles.rows(report)[3]
    assert a4.edge == "a4" and a4.residual == math.inf and not a4.ok
    assert not report.ok


# ---------------------------------------------------------------------------
# rotation_matrix


def test_rotation_about_origin_is_diagonal():
    m = rotation_matrix(0.0, math.pi / 2)
    assert abs(m.a - 1j) <= 1e-15
    assert abs(m.d - (-1j)) <= 1e-15
    assert m.b == 0 and m.c == 0
    cw = rotation_matrix(0.0, -math.pi / 2)
    assert abs(cw.a - (-1j)) <= 1e-15
    assert (m @ cw.inv()).distance_to_identity() <= 1e-9  # half-turns agree in PSL2


def test_rotation_fixes_center_and_infinity():
    center = 0.3 + 0.9j
    m = rotation_matrix(center, math.pi / 5)
    assert abs(act(m, center) - center) <= 1e-15
    assert m.c == 0  # upper triangular: fixes infinity


@pytest.mark.parametrize("counterclockwise", [True, False])
def test_rotation_turns_by_twice_the_half_angle(counterclockwise):
    # A positive half-angle turns counter-clockwise, a negative one clockwise.
    center = 0.5 + 0.25j
    theta = math.pi / 7 if counterclockwise else -math.pi / 7
    m = rotation_matrix(center, theta)
    moved = act(m, center + 1.0) - center
    assert abs(moved - cmath.exp(2j * theta)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 12, 500])
def test_rotation_has_the_right_order(n):
    m = rotation_matrix(1.0 - 2.0j, math.pi / n)
    assert m.pow(n).distance_to_identity() <= relation_tolerance(n)
    if n > 2:
        assert m.pow(n - 1).distance_to_identity() > 1e-3


def test_rotation_half_angle_domain():
    for theta in (0.0, -0.0, math.pi, -math.pi, 4.0, math.nan):
        with pytest.raises(ValueError):
            rotation_matrix(0.0, theta)


def test_relation_tolerance_tiers():
    large = TOLERANCES["large_exponent"]
    assert relation_tolerance(2) == TOLERANCES["relation"] == 1e-7
    assert relation_tolerance(large) == TOLERANCES["relation"]
    assert relation_tolerance(large + 1) == TOLERANCES["relation_large_power"] == 1e-6


# ---------------------------------------------------------------------------
# build_generators


def gens_for(labels):
    lab = Labeling(*labels)
    config = realize(lab)
    return build_generators(lab, config), config


def test_m1_is_inversion_when_red_is_the_axis():
    gens, _ = gens_for((2, 6, 2, 7, 3, 2, 2, 3, 2))
    assert entries(gens.m1) == (0, -1, 1, 0)
    # maps the unit circle to itself
    for ang in (0.3, 1.9, 4.4):
        w = cmath.exp(1j * ang)
        assert abs(abs(act(gens.m1, w)) - 1.0) <= 1e-14


def test_m1_pairs_unit_circles_when_red_is_shifted():
    gens, _ = gens_for((2, 3, 3, 4, 6, 2, 2, 2, 2))
    assert entries(gens.m1) == (-1, -1, 1, 0)
    # maps the unit circle to the unit circle centered at -1
    for ang in (0.3, 1.9, 4.4):
        w = cmath.exp(1j * ang)
        assert abs(abs(act(gens.m1, w) + 1.0) - 1.0) <= 1e-14


def test_rotation_centers_lie_on_the_red_line():
    gens2, config2 = gens_for((2, 6, 2, 7, 3, 2, 2, 3, 2))
    assert abs(gens2.fixed1.real) <= 1e-15
    assert abs(gens2.fixed2.real) <= 1e-15
    slope, intercept = config2.green.slope_intercept()
    assert abs(gens2.fixed1 - complex(0.0, intercept)) <= 1e-15

    gens3, config3 = gens_for((2, 4, 3, 5, 4, 2, 2, 2, 2))
    assert abs(gens3.fixed1.real + 0.5) <= 1e-15
    assert abs(gens3.fixed2.real + 0.5) <= 1e-15
    slope, intercept = config3.blue.slope_intercept()
    assert abs(gens3.fixed2 - complex(-0.5, -0.5 * slope + intercept)) <= 1e-14


def test_generators_fix_their_centers():
    gens, _ = gens_for((3, 3, 2, 4, 3, 5, 3, 2, 2))
    assert abs(act(gens.m2, gens.fixed1) - gens.fixed1) <= 1e-10
    assert abs(act(gens.m3, gens.fixed2) - gens.fixed2) <= 1e-10


def test_m2_and_m3_turn_in_opposite_senses():
    gens, _ = gens_for((2, 4, 2, 5, 4, 2, 2, 2, 3))
    probe = 1.0
    turn2 = (act(gens.m2, gens.fixed1 + probe) - gens.fixed1) / probe
    turn3 = (act(gens.m3, gens.fixed2 + probe) - gens.fixed2) / probe
    assert abs(turn2 - cmath.exp(-2j * gens.theta1)) <= 1e-12
    assert abs(turn3 - cmath.exp(2j * gens.theta2)) <= 1e-12


@pytest.mark.parametrize(
    "labels",
    [(2, 4, 2, 5, 4, 2, 2, 2, 3), (2, 4, 3, 5, 4, 2, 2, 2, 2)],
)
def test_m4_maps_top_circle_to_its_mirror_image(labels):
    gens, config = gens_for(labels)
    cx, cy, r = config.top.cx, config.top.cy, config.top.r
    mirrored_cx = -cx if config.a3_branch == 2 else -1.0 - cx
    for ang in (0.3, 1.7, 4.0):
        w = complex(cx, cy) + r * cmath.exp(1j * ang)
        image = act(gens.m4, w)
        assert abs(abs(image - complex(mirrored_cx, cy)) - r) <= 1e-12


def test_generators_are_products_of_two_face_reflections():
    # M1..M4 are R_red o R_f for f = back, green, blue, top, by the
    # reflection form written out in _oracles, on every standalone row and
    # on each family at free_min, +1, +10, 500 and 10**4.  The largest
    # entrywise distance is about 2.9e-13, on M4.
    items = enumerate_catalog()
    labelings = [item.labeling for item in items if not item.family]
    for item in (item for item in items if item.family):
        lo = item.free_min
        labelings += [item.instantiate(n) for n in (lo, lo + 1, lo + 10, 500, 10**4)]
    assert len(labelings) == 78 + 12 * 5
    for lab in labelings:
        gens, config = gens_for(lab)
        for face, m in zip(("back", "green", "blue", "top"), (gens.m1, gens.m2, gens.m3, gens.m4)):
            expected = oracles.reflection_generator(config.red, getattr(config, face))
            assert oracles.psl2_distance(oracles.unit_determinant(tuple(m)), expected) <= 1e-12


def test_check_entry_fails_unverified_config():
    # build_generators does not measure its configuration; check_entry's angle
    # rows do.  Doubling the top radius keeps its center on the green line
    # (a7 = 2 still holds) and breaks the angles with blue (a8) and back (a9).
    lab = Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2)
    config = realize(lab)
    broken = PlanarConfig(
        red=config.red,
        green=config.green,
        blue=config.blue,
        back=config.back,
        top=PlanarCircle(config.top.cx, config.top.cy, config.top.r * 2),
        a3_branch=config.a3_branch,
    )
    report = check_entry(broken, build_generators(lab, broken))
    assert [r.edge for r in oracles.rows(report) if r.stage == "angle" and not r.ok] == ["a8", "a9"]
    assert report.failures()[0] == "configuration fails on a8, a9"


# ---------------------------------------------------------------------------
# relations and traces


def test_words_cover_all_nine_edges_with_label_exponents():
    gens, _ = gens_for((2, 3, 2, 3, 6, 5, 2, 2, 3))
    words = oracles.word_bases(gens)
    assert [w[0] for w in words] == [f"a{i}" for i in range(1, 10)]
    assert [w[3] for w in words] == [2, 3, 2, 3, 6, 5, 2, 2, 3]
    assert [w[1] for w in words] == list(WORD_NAMES) == [
        "M2",
        "M3",
        "M1",
        "M2^-1 M1",
        "M3^-1 M2",
        "M3^-1 M1",
        "M4^-1 M2",
        "M4^-1 M3",
        "M4^-1 M1",
    ]
    # Each base is the product its word names, bit for bit.
    m1, m2, m3, m4 = gens.m1, gens.m2, gens.m3, gens.m4
    assert [w[2] for w in words] == [
        m2, m3, m1,
        m2.inv() @ m1, m3.inv() @ m2, m3.inv() @ m1,
        m4.inv() @ m2, m4.inv() @ m3, m4.inv() @ m1,
    ]
    # The package measures each word on that base.
    assert verify_relations(gens).checks[0].residuals == tuple(
        base.pow(exponent).distance_to_identity() for _, _, base, exponent in words
    )
    assert [trace for trace, _ in traces(gens)] == [
        oracles.kernel_abs_trace(tuple(base)) for _, _, base, _ in words
    ]


def test_relations_hold_on_sample_entries():
    for labels in [
        (2, 6, 2, 7, 3, 2, 2, 3, 2),
        (2, 3, 3, 4, 6, 2, 2, 2, 3),
        (2, 4, 2, 3, 4, 3, 2, 2, 5),
        (3, 3, 2, 3, 3, 5, 5, 2, 2),
    ]:
        gens, _ = gens_for(labels)
        report = verify_relations(gens)
        assert report.ok
        assert report.max_residual() <= 1e-12
        assert len(report.checks) == 1 and len(oracles.rows(report)) == 9


def test_relations_hold_far_into_a_family():
    gens, _ = gens_for((2, 3, 2, 500, 6, 2, 2, 2, 2))
    report = verify_relations(gens)
    assert report.ok
    # the order-500 word gets the looser gate, everything else the strict one
    words = oracles.word_bases(gens)
    for row, (_, _, _, exponent) in zip(oracles.rows(report), words, strict=True):
        expected_tol = TOLERANCES["relation_large_power" if exponent > 100 else "relation"]
        assert row.tol == expected_tol
        assert row.residual <= expected_tol


def test_relabeling_a_family_member_by_one_fails_its_free_edge():
    # Generators built for n but labeled n - 1 or n + 1: check_entry reads the
    # labels from the generators, so its angle and relation rows on the free
    # edge compare the n configuration with the neighbouring order.  The
    # relation residual has cleared its tolerance by at least 1.9e6 times
    # wherever this was measured.  The trace row is not asserted: it catches
    # every such relabeling up to n = 1,000 and none at n = 2,000, since the
    # traces of orders n and n + 1 differ by only about 2 pi^2 / n^3 (the
    # large-n soundness gap of the trace stage).
    for row in enumerate_catalog():
        if not row.family:
            continue
        edge = f"a{row.free_slot + 1}"
        for n in sorted({row.free_min, 10, 100, 1000, 4000}):
            lab = row.instantiate(n)
            config = realize(lab)
            gens = build_generators(lab, config)
            for label in (n - 1, n + 1):
                relabeled = lab._replace(**{lab._fields[row.free_slot]: label})
                report = check_entry(config, gens._replace(labeling=relabeled))
                angle, relation = (
                    next(r for r in oracles.rows(report) if r.stage == stage and r.edge == edge)
                    for stage in ("angle", "relation")
                )
                assert not angle.ok, (relabeled, angle)
                assert relation.residual >= 1e6 * relation.tol, (relabeled, relation)


def test_families_verify_at_50_digits_where_float64_fails():
    # At n = 10^4 and 10^5 float64's a4 relation residuals (8.4e-6 and 7.4e-3)
    # miss their bound of 1e-6 on every family.  The same verify_catalog at
    # 50 digits, with only the numeric names rebound, passes all 24
    # labelings with a worst relation residual of about 2.4e-38.  At 50
    # digits a relabeling of the free edge to n - 1 or n + 1 still fails
    # that edge's relation row, as in float64 below n = 4,500.
    families = [row for row in enumerate_catalog() if row.family]
    samples = [10**4, 10**5]
    floats = cat.verify_catalog(families, samples=samples)
    assert len({row.entry for row in oracles.rows(floats) if not row.ok}) == 24
    with oracles.digits(50):
        report = cat.verify_catalog(families, samples=samples)
        assert report.ok, report.failures()
        assert report.entries_checked == 24
        assert report.max_residual("relation") <= 1e-30
        for row in families:
            edge = f"a{row.free_slot + 1}"
            for n in samples:
                lab = row.instantiate(n)
                config = realize(lab)
                gens = build_generators(lab, config)
                for label in (n - 1, n + 1):
                    relabeled = lab._replace(**{lab._fields[row.free_slot]: label})
                    rows = oracles.rows(check_entry(config, gens._replace(labeling=relabeled)))
                    relation = next(r for r in rows if r.stage == "relation" and r.edge == edge)
                    assert not relation.ok, (relabeled, relation)


def test_traces_match_elliptic_orders():
    gens, _ = gens_for((2, 4, 2, 5, 4, 3, 3, 2, 2))
    report = trace_check(gens)
    assert report.ok
    rows = zip(traces(gens), oracles.rows(report), oracles.word_bases(gens), strict=True)
    for (measured, expected), row, (_, _, _, exponent) in rows:
        assert expected == pytest.approx(2 * math.cos(math.pi / exponent), abs=1e-15)
        assert row.residual == abs(measured - expected) <= TOLERANCES["trace"]


def test_traces_read_inf_on_the_words_of_a_singular_generator():
    # A zeroed M3 leaves the words that contain it unmeasurable.  traces
    # reads them as inf, as trace_check does, and measures every other word
    # as on the untouched generators.
    gens, _ = gens_for((2, 3, 2, 2, 6, 4, 2, 2, 2))
    singular = traces(gens._replace(m3=MoebiusMatrix(0j, 0j, 0j, 0j)))
    failed = [edge for edge, (trace, _) in zip(EDGE_NAMES, singular) if trace == math.inf]
    assert failed == ["a2", "a5", "a6", "a8"]
    kept = [row for edge, row in zip(EDGE_NAMES, singular) if edge not in failed]
    assert kept == [row for edge, row in zip(EDGE_NAMES, traces(gens)) if edge not in failed]


def test_perturbed_top_matrix_breaks_only_its_relations():
    lab = Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2)
    config = realize(lab)
    gens = build_generators(lab, config)
    x, y, r = config.top.cx + 1e-3, config.top.cy, config.top.r
    bad_m4 = MoebiusMatrix(
        (-x + y * 1j) / r, (x * x + y * y) / r - r + 0j, 1.0 / r + 0j, (-x - y * 1j) / r
    )
    tampered = GeneratorSet(
        labeling=gens.labeling,
        m1=gens.m1,
        m2=gens.m2,
        m3=gens.m3,
        m4=bad_m4,
        theta1=gens.theta1,
        theta2=gens.theta2,
        fixed1=gens.fixed1,
        fixed2=gens.fixed2,
    )
    report = verify_relations(tampered)
    assert not report.ok
    failing = {r.edge for r in oracles.rows(report) if not r.ok}
    assert failing and failing <= {"a7", "a8", "a9"}
    passing = {r.edge for r in oracles.rows(report) if r.ok}
    assert passing >= {"a1", "a2", "a3", "a4", "a5", "a6"}


# ---------------------------------------------------------------------------
# The kernel's floats against its frozen first form (_oracles)


def _bit_identity_labelings():
    """The 90 catalog rows (families at free_min) and the family samples n = 7, 500, 10^4."""
    for item in enumerate_catalog():
        if not item.family:
            yield item.labeling
            continue
        for n in sorted({item.free_min, 7, 500, 10**4}):
            yield item.instantiate(n)


def _assert_kernel_is_frozen(m: MoebiusMatrix, n: int) -> None:
    power = m.pow(n)
    expected = oracles.kernel_pow(tuple(m), n)
    assert entries(power) == expected, (m, n)
    assert power.distance_to_identity() == oracles.kernel_distance_to_identity(expected)


def _abs_trace(base: MoebiusMatrix) -> float:
    """The |tr| the package measures for ``base``: the word of a3 is M1 alone."""
    eye = MoebiusMatrix.identity()
    gens = GeneratorSet(Labeling(*[2] * 9), base, eye, eye, eye, 0.0, 0.0, 0j, 0j)
    return traces(gens)[2][0]


def test_signs_of_zeros_do_not_change_a_relation_residual(monkeypatch):
    # A relation memo key compares with ==, under which -0.0 equals 0.0, so
    # a word whose zeros carry other signs reads the residual and |tr|
    # measured for the first one.  Every sign of every zero, on every word
    # of build_catalog(max_n=12) and of verify_catalog on it.
    words = set()
    verify = cat.verify_relations

    def recording(gens, *, entry="", memo=None):
        words.update((base, exponent) for _, _, base, exponent in oracles.word_bases(gens))
        return verify(gens, entry=entry, memo=memo)

    monkeypatch.setattr(cat, "verify_relations", recording)
    entries, _ = cat.build_catalog(enumerate_catalog(), max_n=12)
    cat.verify_catalog(entries)
    with_zeros = variants = 0
    for base, exponent in words:
        parts = [part for z in base for part in (z.real, z.imag)]
        zeros = [index for index, part in enumerate(parts) if part == 0.0]
        with_zeros += bool(zeros)
        expected = repr(base.pow(exponent).distance_to_identity()), repr(_abs_trace(base))
        for signs in itertools.product((0.0, -0.0), repeat=len(zeros)):
            for index, zero in zip(zeros, signs):
                parts[index] = zero
            flipped = MoebiusMatrix(*map(complex, parts[::2], parts[1::2]))
            measured = flipped.pow(exponent).distance_to_identity(), _abs_trace(flipped)
            assert tuple(map(repr, measured)) == expected, flipped
            variants += 1
    assert (len(words), with_zeros, variants) == (686, 330, 1988)


def test_kernel_floats_are_bit_identical_on_every_word():
    for lab in _bit_identity_labelings():
        gens, _ = gens_for(lab)
        # Every generator entry is a complex: from Python 3.14 a float entry
        # would multiply a complex componentwise, other operations than here.
        assert all(type(z) is complex for _, m in gens.named() for z in m), lab
        relations = oracles.rows(verify_relations(gens))
        rows = zip(oracles.word_bases(gens), relations, traces(gens), strict=True)
        for (edge, _, base, exponent), relation, (trace, _) in rows:
            _assert_kernel_is_frozen(base, exponent)
            power = oracles.kernel_pow(tuple(base), exponent)
            assert relation.residual == oracles.kernel_distance_to_identity(power), (lab, edge)
            assert trace == oracles.kernel_abs_trace(tuple(base)), (lab, edge)


@pytest.mark.parametrize(
    "m, exponents",
    [
        (MoebiusMatrix(1 + 0j, 2j, 2 + 0j, 4j), [*range(1, 13), 100]),
        (MoebiusMatrix(1 + 0j, 1 + 0j, 0j, 1 + 0j), [*range(13), 10**4, 10**6]),
        (MoebiusMatrix(-1 + 0j, 1 + 0j, 0j, -1 + 0j), [*range(13), 10**4, 10**6]),
        (MoebiusMatrix(2 + 0j, 1 + 0j, 0j, 2 + 0j), [*range(13), 100]),
    ],
    ids=["singular", "parabolic", "parabolic-negative", "parabolic-scaled"],
)
def test_kernel_floats_are_bit_identical_on_singular_and_parabolic_branches(m, exponents):
    a, b, c, d = m
    if m.det == 0:  # both divide by sqrt(det M) = 0
        for n in exponents:
            for power in (m.pow, lambda n: oracles.kernel_pow(tuple(m), n)):
                with pytest.raises(ZeroDivisionError):
                    power(n)
        return
    tau = (a + d) / (2 * cmath.sqrt(m.det))
    assert tau * tau == 1
    for n in exponents:
        _assert_kernel_is_frozen(m, n)
