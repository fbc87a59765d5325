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
from prismcat.geometry import PlanarCircle, PlanarConfig, realize
from prismcat.labelings import Labeling, enumerate_catalog
from prismcat.moebius import (
    DET_TOL,
    LARGE_EXPONENT,
    RELATION_TOL,
    RELATION_TOL_LARGE,
    TRACE_TOL,
    GeneratorSet,
    MoebiusMatrix,
    build_generators,
    relation_tolerance,
    rotation_matrix,
    trace_check,
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
    m = MoebiusMatrix.of(1, 2, 3, 4)
    assert (m.a, m.b, m.c, m.d) == (1, 2, 3, 4)
    assert m.det == 1 * 4 - 2 * 3


def test_tuple_operators_do_not_act_on_a_matrix():
    m = MoebiusMatrix.of(1, 2, 3, 4)
    for op in (lambda: m + m, lambda: m + (1,), lambda: m * 2, lambda: 2 * m, lambda: m * m):
        with pytest.raises(TypeError):
            op()


def test_matrix_shape_is_validated():
    m = MoebiusMatrix.of(1, 2.5, True, -3)
    assert entries(m) == (1, 2.5, 1, -3)
    assert all(type(v) is complex for v in entries(m))
    with pytest.raises(TypeError):
        MoebiusMatrix.of(1, 0, 0)
    with pytest.raises(TypeError):
        MoebiusMatrix.of(1, 0, 0, 1, 0)
    with pytest.raises(TypeError):
        MoebiusMatrix.of(1, 0, None, 1)


def test_matmul_and_inverse():
    m = MoebiusMatrix.of(2, 1, 1, 1)
    prod = m @ m.inv()
    assert prod.distance_to_identity() <= 1e-15
    assert (m.inv() @ m).distance_to_identity() <= 1e-15


def test_pow_identities():
    m = MoebiusMatrix.of(1, 1, 0, 1)
    assert m.pow(0).distance_to_identity() == 0
    assert entries(m.pow(3)) == entries(m @ m @ m)
    with pytest.raises(ValueError):
        m.pow(-1)


def test_distance_to_identity_handles_both_signs():
    eye = MoebiusMatrix.identity()
    neg = MoebiusMatrix.of(-1, 0, 0, -1)
    assert eye.distance_to_identity() == 0
    assert neg.distance_to_identity() == 0


def test_import_does_not_load_numpy():
    src = Path(prismcat.__file__).resolve().parents[1]
    code = (
        "import sys, prismcat, prismcat.cli; "
        "print([name in sys.modules for name in ('numpy', 'logging', 'dataclasses', 'inspect')])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=src,
        timeout=60,
    )
    assert result.stdout.strip() == "[False, False, False, False]"


def test_package_exports_the_readme_library_names():
    readme = (Path(prismcat.__file__).resolve().parents[2] / "README.md").read_text()
    example = readme.split("## Library", 1)[1].split("```python", 1)[1]
    imported = example.split("from prismcat import (", 1)[1].split(")", 1)[0]
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert sorted(prismcat.__all__) == sorted(names)
    assert all(hasattr(prismcat, name) for name in prismcat.__all__)


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
    edge, _, base, exponent = gens.words[3]
    assert (edge, exponent) == ("a4", n)
    residual = base.pow(n).distance_to_identity()
    assert residual == pytest.approx(exact_distance_of_power(base, n), rel=0.01)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 10**4, 10**6])
def test_pow_of_parabolic_is_exact(n):
    m = MoebiusMatrix.of(1, 1, 0, 1)
    assert entries(m.pow(n)) == (1, n, 0, 1)


@pytest.mark.parametrize(
    "m",
    [
        MoebiusMatrix.of(1.5 + 0.5j, -0.3 + 2j, 0.7 - 1j, 2.2 + 0.1j),
        MoebiusMatrix.of(2, 1, 1, 3),
        MoebiusMatrix.of(-1, 1, 0, -1),
        MoebiusMatrix.of(1, 2j, 2, 4j),
    ],
    ids=["loxodromic", "hyperbolic", "parabolic", "singular"],
)
def test_pow_matches_repeated_products(m):
    product = MoebiusMatrix.identity()
    for n in range(13):
        power = m.pow(n)
        diff = [x - y for x, y in zip(entries(power), entries(product))]
        scale = math.sqrt(sum(abs(v) ** 2 for v in entries(product)))
        assert math.sqrt(sum(abs(v) ** 2 for v in diff)) <= 1e-13 * scale, n
        product = product @ m


def test_pow_overflow_is_a_failed_relation():
    with pytest.raises(OverflowError):
        MoebiusMatrix.of(3, 0, 0, 1 / 3).pow(1000)
    gens, _ = gens_for((2, 3, 2, 1000, 6, 2, 2, 2, 2))
    stretched = GeneratorSet(
        labeling=gens.labeling,
        m1=MoebiusMatrix.of(40, 0, 0, 1 / 40),
        m2=gens.m2,
        m3=gens.m3,
        m4=gens.m4,
        theta1=gens.theta1,
        theta2=gens.theta2,
        fixed1=gens.fixed1,
        fixed2=gens.fixed2,
    )
    report = verify_relations(stretched)
    a4 = report.checks[3]
    assert a4.residual == math.inf and not a4.ok
    assert not report.ok


# ---------------------------------------------------------------------------
# rotation_matrix


def test_rotation_about_origin_is_diagonal():
    m = rotation_matrix(0.0, math.pi / 2)
    assert abs(m.a - 1j) <= 1e-15
    assert abs(m.d - (-1j)) <= 1e-15
    assert m.b == 0 and m.c == 0
    cw = rotation_matrix(0.0, math.pi / 2, ccw=False)
    assert abs(cw.a - (-1j)) <= 1e-15
    assert (m @ cw.inv()).distance_to_identity() <= 1e-9  # half-turns agree in PSL2


def test_rotation_fixes_center_and_infinity():
    center = 0.3 + 0.9j
    m = rotation_matrix(center, math.pi / 5)
    assert abs(act(m, center) - center) <= 1e-15
    assert m.c == 0  # upper triangular: fixes infinity


@pytest.mark.parametrize("ccw", [True, False])
def test_rotation_turns_by_twice_the_half_angle(ccw):
    center = 0.5 + 0.25j
    theta = math.pi / 7
    m = rotation_matrix(center, theta, ccw=ccw)
    moved = act(m, center + 1.0) - center
    expected = cmath.exp(2j * theta if ccw else -2j * theta)
    assert abs(moved - expected) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 12, 500])
def test_rotation_has_the_right_order(n):
    m = rotation_matrix(1.0 - 2.0j, math.pi / n)
    assert m.pow(n).distance_to_identity() <= relation_tolerance(n)
    if n > 2:
        assert m.pow(n - 1).distance_to_identity() > 1e-3


def test_rotation_half_angle_domain():
    with pytest.raises(ValueError):
        rotation_matrix(0.0, 0.0)
    with pytest.raises(ValueError):
        rotation_matrix(0.0, math.pi)


def test_relation_tolerance_tiers():
    assert relation_tolerance(2) == RELATION_TOL
    assert relation_tolerance(LARGE_EXPONENT) == RELATION_TOL
    assert relation_tolerance(LARGE_EXPONENT + 1) == RELATION_TOL_LARGE


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


def test_generator_determinants_are_unimodular():
    for labels in [
        (2, 6, 2, 7, 3, 2, 2, 3, 2),
        (2, 3, 3, 5, 6, 2, 2, 2, 3),
        (3, 3, 2, 5, 3, 5, 2, 3, 2),
    ]:
        gens, _ = gens_for(labels)
        for m in (gens.m1, gens.m2, gens.m3, gens.m4):
            assert abs(m.det - 1.0) <= DET_TOL


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
    report = check_entry(lab, broken, build_generators(lab, broken))
    assert [c.edge for c in report.checks if c.stage == "angle" and not c.ok] == ["a8", "a9"]
    assert report.failures()[0] == "configuration fails on a8, a9"


# ---------------------------------------------------------------------------
# relations and traces


def test_words_cover_all_nine_edges_with_label_exponents():
    gens, _ = gens_for((2, 3, 2, 3, 6, 5, 2, 2, 3))
    words = gens.words
    assert [w[0] for w in words] == [f"a{i}" for i in range(1, 10)]
    assert [w[3] for w in words] == [2, 3, 2, 3, 6, 5, 2, 2, 3]
    assert [w[1] for w in words] == [
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
        assert len(report.checks) == 9


def test_relations_hold_far_into_a_family():
    gens, _ = gens_for((2, 3, 2, 500, 6, 2, 2, 2, 2))
    report = verify_relations(gens)
    assert report.ok
    # the order-500 word gets the looser gate, everything else the strict one
    for check, (_, _, _, exponent) in zip(report.checks, gens.words):
        expected_tol = RELATION_TOL_LARGE if exponent > 100 else RELATION_TOL
        assert check.tol == expected_tol
        assert check.residual <= expected_tol


def test_traces_match_elliptic_orders():
    gens, _ = gens_for((2, 4, 2, 5, 4, 3, 3, 2, 2))
    report = trace_check(gens)
    assert report.ok
    for check, (_, _, _, exponent) in zip(report.checks, gens.words):
        assert check.expected == pytest.approx(2 * math.cos(math.pi / exponent), abs=1e-15)
        assert abs(check.measured - check.expected) <= TRACE_TOL


def test_perturbed_top_matrix_breaks_only_its_relations():
    lab = Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2)
    config = realize(lab)
    gens = build_generators(lab, config)
    x, y, r = config.top.cx + 1e-3, config.top.cy, config.top.r
    bad_m4 = MoebiusMatrix.of(
        (-x + y * 1j) / r, (x * x + y * y) / r - r, 1.0 / r, (-x - y * 1j) / r
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
    failing = {c.edge for c in report.checks if not c.ok}
    assert failing and failing <= {"a7", "a8", "a9"}
    passing = {c.edge for c in report.checks if c.ok}
    assert passing >= {"a1", "a2", "a3", "a4", "a5", "a6"}


def test_full_catalog_relations_and_traces():
    for item in enumerate_catalog():
        lab = item.instantiate(item.free_min) if item.family else item.labeling
        gens, _ = gens_for(tuple(lab))
        assert verify_relations(gens).ok, lab
        assert trace_check(gens).ok, lab


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
    if power.det != 0:
        assert power.distance_to_identity() == oracles.kernel_distance_to_identity(expected)


def test_signs_of_zeros_do_not_change_a_relation_residual(monkeypatch):
    # A relation memo key compares with ==, under which -0.0 equals 0.0, so
    # a word whose zeros carry other signs reads the residual measured for
    # the first one.  Every sign of every zero, on every word of
    # build_catalog(max_n=12) and of verify_catalog on it.
    words = set()
    verify = cat.verify_relations

    def recording(gens, *, entry="", memo=None):
        words.update((base, exponent) for _, _, base, exponent in gens.words)
        return verify(gens, entry=entry, memo=memo)

    monkeypatch.setattr(cat, "verify_relations", recording)
    entries, _ = cat.build_catalog(enumerate_catalog(), max_n=12)
    cat.verify_catalog(entries)
    with_zeros = variants = 0
    for base, exponent in words:
        parts = [part for z in base for part in (z.real, z.imag)]
        zeros = [index for index, part in enumerate(parts) if part == 0.0]
        with_zeros += bool(zeros)
        expected = repr(base.pow(exponent).distance_to_identity())
        for signs in itertools.product((0.0, -0.0), repeat=len(zeros)):
            for index, zero in zip(zeros, signs):
                parts[index] = zero
            flipped = MoebiusMatrix(*map(complex, parts[::2], parts[1::2]))
            assert repr(flipped.pow(exponent).distance_to_identity()) == expected, flipped
            variants += 1
    assert (len(words), with_zeros, variants) == (686, 330, 1988)


def test_kernel_floats_are_bit_identical_on_every_word():
    for lab in _bit_identity_labelings():
        gens, _ = gens_for(lab)
        relations = verify_relations(gens).checks
        traces = trace_check(gens).checks
        for (edge, _, base, exponent), relation, trace in zip(gens.words, relations, traces):
            _assert_kernel_is_frozen(base, exponent)
            power = oracles.kernel_pow(tuple(base), exponent)
            assert relation.measured == oracles.kernel_distance_to_identity(power), (lab, edge)
            assert trace.measured == oracles.kernel_abs_trace(tuple(base)), (lab, edge)


@pytest.mark.parametrize(
    "m, exponents",
    [
        (MoebiusMatrix.of(1, 2j, 2, 4j), [*range(1, 13), 100]),
        (MoebiusMatrix.of(1, 1, 0, 1), [*range(13), 10**4, 10**6]),
        (MoebiusMatrix.of(-1, 1, 0, -1), [*range(13), 10**4, 10**6]),
        (MoebiusMatrix.of(2, 1, 0, 2), [*range(13), 100]),
    ],
    ids=["singular", "parabolic", "parabolic-negative", "parabolic-scaled"],
)
def test_kernel_floats_are_bit_identical_on_singular_and_parabolic_branches(m, exponents):
    a, b, c, d = m
    if m.det != 0:
        tau = (a + d) / (2 * cmath.sqrt(m.det))
        assert tau * tau == 1
    for n in exponents:
        _assert_kernel_is_frozen(m, n)
