"""Acceptance gate: the ten headline checks, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line on the real
terminal (bypassing capture) so a full run produces a ten-line verification
log next to the usual pytest output.
"""

import json
import math
import os
import random
import time
from contextlib import contextmanager

import pytest

import _oracles as oracles
from prismcat.geometry import build_lines, measure_angle, realize, verify_config
from prismcat.labelings import (
    CuspType,
    Labeling,
    catalog_counts,
    enumerate_catalog,
    is_admissible,
    symmetry_mate,
)
from prismcat.moebius import (
    build_generators,
    relation_tolerance,
    trace_check,
    verify_relations,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_tables.json")

FAMILY_OFFSETS = (0, 1, 10)
FAMILY_LARGE = 500


@contextmanager
def criterion(capfd, number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    with capfd.disabled():
        print(f"[criterion {number:02d}] PASS  {description} ({elapsed:.2f}s)")


def sweep_labelings():
    """All 78 specific labelings plus each family at four sampled values."""
    labelings = []
    for item in enumerate_catalog():
        if item.family:
            values = [item.free_min + off for off in FAMILY_OFFSETS]
            values.append(FAMILY_LARGE)
            labelings.extend(item.instantiate(n) for n in values)
        else:
            labelings.append(item.labeling)
    return labelings


def test_c01_catalog_counts(capfd):
    with criterion(capfd, 1, "catalog counts 8+32 / 4+24 / 0+22 in under 1s"):
        start = time.perf_counter()
        items = enumerate_catalog()
        elapsed = time.perf_counter() - start
        counts = catalog_counts(items)
        assert counts[CuspType.C236] == (8, 32)
        assert counts[CuspType.C244] == (4, 24)
        assert counts[CuspType.C333] == (0, 22)
        assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"


def test_c02_catalog_matches_golden_tables(capfd):
    with criterion(capfd, 2, "catalog equals the golden tables row for row"):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        for cusp_code, rows in golden["cusps"].items():
            expected_families = {
                (tuple(r["labeling"]), r["free_min"])
                for r in rows
                if None in r["labeling"]
            }
            expected_specifics = {
                tuple(r["labeling"]) for r in rows if None not in r["labeling"]
            }
            got_families = set()
            got_specifics = set()
            for item in enumerate_catalog():
                if item.cusp.code != cusp_code:
                    continue
                if item.family:
                    got_families.add((item.slots, item.free_min))
                else:
                    got_specifics.add(item.slots)
            assert got_families == expected_families, cusp_code
            assert got_specifics == expected_specifics, cusp_code
            assert len(rows) == len(expected_families) + len(expected_specifics)


def test_c03_right_angled_fixture_closed_form(capfd):
    with criterion(
        capfd, 3, "arrangement 2 6 2 7 3 2 2 3 2 hits its closed-form circle"
    ):
        config = realize(Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2))
        c7 = math.cos(math.pi / 7)
        s = math.sin(3 * math.pi / 14)
        x_closed = (2 * math.sqrt(3) * c7 - math.sqrt(6 * s - 2)) / 4
        r_closed = (math.sqrt(18 * s - 6) - 2 * c7) / 4
        assert abs(config.top.cy - c7) <= 1e-10
        assert abs(config.top.cx - x_closed) <= 1e-10
        assert abs(config.top.r - r_closed) <= 1e-10
        assert abs(config.top.cx - 0.4504) <= 5e-5
        assert abs(config.top.r - 0.1209) <= 5e-5


def test_c04_diagonal_fixture_closed_form(capfd):
    with criterion(
        capfd, 4, "arrangement 2 4 2 5 4 2 2 2 3 hits its closed-form circle"
    ):
        config = realize(Labeling(2, 4, 2, 5, 4, 2, 2, 2, 3))
        c5 = math.cos(math.pi / 5)
        r_closed = (5.0 ** 0.25 - 1.0) / 2.0
        assert abs(config.top.cx - c5) <= 1e-10
        assert abs(config.top.cy - c5) <= 1e-10
        assert abs(config.top.r - r_closed) <= 1e-10


def test_c05_line_coefficient_table(capfd):
    with criterion(capfd, 5, "five published line pairs match at 1e-12"):
        sq3, sq6 = math.sqrt(3.0), math.sqrt(6.0)
        c5 = math.cos(math.pi / 5)
        table = {
            (3, 4): (sq3 / 3, -sq6 / 3),
            (3, 5): (sq3 / 3, -2 * sq3 / 3 * c5),
            (4, 4): (sq6 / 3, -sq6 / 3),
            (4, 5): (sq6 / 3, -2 * sq3 / 3 * c5),
            (5, 5): (2 * sq3 / 3 * c5, -2 * sq3 / 3 * c5),
        }
        for (a4, a6), (green_b, blue_b) in table.items():
            _, green, blue = build_lines((3, 3, 2, a4, 3, a6, 2, 2, 2))
            g_slope, g_int = green.slope_intercept()
            b_slope, b_int = blue.slope_intercept()
            assert abs(g_slope + sq3 / 3) <= 1e-12, (a4, a6)
            assert abs(b_slope - sq3 / 3) <= 1e-12, (a4, a6)
            assert abs(g_int - green_b) <= 1e-12, (a4, a6)
            assert abs(b_int - blue_b) <= 1e-12, (a4, a6)


def test_c06_angle_sweep(capfd):
    with criterion(
        capfd,
        6,
        "all 126 sweep configurations verify every edge angle at 1e-9 in under 10s",
    ):
        start = time.perf_counter()
        worst = 0.0
        labelings = sweep_labelings()
        assert len(labelings) == 78 + 12 * 4
        for lab in labelings:
            config = realize(lab)
            report = verify_config(lab, config)
            assert report.ok, lab
            worst = max(worst, report.max_residual())
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


def test_c07_relations_and_traces(capfd):
    with criterion(
        capfd,
        7,
        "group relations within 1e-7 (1e-6 for order-500 words), traces within 1e-8",
    ):
        for lab in sweep_labelings():
            config = realize(lab)
            gens = build_generators(lab, config)
            relations = verify_relations(gens)
            assert relations.ok, lab
            for check, (_, _, _, exponent) in zip(relations.checks, gens.words):
                assert check.residual <= relation_tolerance(exponent), (
                    lab,
                    check.edge,
                )
            traces = trace_check(gens)
            assert traces.ok, lab
            assert traces.max_residual() <= 1e-8, lab


def test_c08_generator_determinants(capfd):
    with criterion(capfd, 8, "all generator determinants within 1e-10 of one"):
        for lab in sweep_labelings():
            gens = build_generators(lab, realize(lab))
            for matrix in (gens.m1, gens.m2, gens.m3, gens.m4):
                assert abs(matrix.det - 1.0) <= 1e-10, lab


def test_c09_newton_oracle_agreement(capfd):
    with criterion(
        capfd, 9, "solver agrees with an independent Newton iteration at 1e-9 on 20 entries"
    ):
        rng = random.Random(90210)
        sample = rng.sample(sweep_labelings(), 20)
        for lab in sample:
            config = realize(lab)
            x, y, r = oracles.newton_circle(tuple(lab))
            assert abs(config.top.cx - x) <= 1e-9, lab
            assert abs(config.top.cy - y) <= 1e-9, lab
            assert abs(config.top.r - r) <= 1e-9, lab


def test_c10_mirror_symmetry_of_admissibility(capfd):
    with criterion(
        capfd,
        10,
        "admissibility is mirror-symmetric over the full grid of labels <= 10 in under 30s",
    ):
        start = time.perf_counter()
        # Tie the vectorized oracle to the production predicate...
        rng = random.Random(1014)
        slices = {}
        for _ in range(5000):
            labels = tuple(rng.randint(2, 10) for _ in range(9))
            key = labels[:2]
            if key not in slices:
                slices[key] = oracles.grid_admissible_slice(*key, 10)
            index = tuple(v - 2 for v in labels[2:])
            assert bool(slices[key][index]) == bool(is_admissible(Labeling(*labels)))
            assert bool(is_admissible(Labeling(*labels))) == bool(
                is_admissible(symmetry_mate(labels))
            )
        del slices
        # ...then sweep all 9^9 labelings against their mates.
        assert oracles.grid_symmetry_mismatches(10) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"grid sweep took {elapsed:.2f}s"


def test_sweep_red_top_disjointness_holds_everywhere(capfd):
    # Not one of the numbered criteria, but cheap insurance that the sweep
    # set never grazes the one forbidden tangency.
    for lab in sweep_labelings():
        config = realize(lab)
        assert measure_angle(config.red, config.top) is None
        gap = config.red.signed_distance(config.top.cx, config.top.cy) - config.top.r
        assert gap > 1e-10
