"""End-to-end tests of the command-line interface."""

import argparse
import cmath
import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
import _tampers as tampers
from prismcat import catalog as cat
from prismcat import cli, geometry
from prismcat.cli import main
from prismcat.labelings import (
    EXPECTED_COUNTS, brief, enumerate_catalog, is_admissible, symmetry_mate
)
from prismcat.moebius import MoebiusMatrix, build_generators

# The FAIL text of the generator record, up to its edges and residual.
_REBUILD = "stored generators disagree with a rebuild from the stored faces on"

FIX1 = ["2", "6", "2", "7", "3", "2", "2", "3", "2"]
# Far into a family, where the float64 generators miss the a4 relation's
# bound of 1e-6.
FAR = ["2", "3", "2", "5000", "6", "2", "2", "2", "2"]


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_to_stdout(dump, capsys):
    assert main(["enumerate"]) == 0
    captured = capsys.readouterr()
    # stdout carries the bytes of the -o file
    assert captured.out == dump
    doc = json.loads(captured.out)
    assert doc["schema"] == "prism-catalog/1"
    assert len(doc["entries"]) == 90
    assert "12 families, 78 specific" in captured.err
    assert "C236: 8 + 32" in captured.err
    assert "C244: 4 + 24" in captured.err
    assert "C333: 0 + 22" in captured.err


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "catalog.json"
    assert main(["enumerate", "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "12 families, 78 specific" in captured.out
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 90


def test_enumerate_cusp_filter(capsys):
    assert main(["enumerate", "--cusp", "244"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == 28
    assert all(r["cusp"] == "244" for r in doc["entries"])


def test_enumerate_with_instances(capsys):
    assert main(["enumerate", "--cusp", "244", "--max-n", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    patterns = [r for r in doc["entries"] if r["family"]]
    instances = [r for r in doc["entries"] if r["family_n"] is not None]
    assert len(patterns) == 4
    assert len(instances) == 4 * 3  # free_min 6, expanded to 6, 7, 8
    assert all(r["config"] is not None for r in instances)


def test_enumerate_reports_failed_entries_and_still_writes(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cat.TOLERANCES, "relation", 1e-20)
    reports = []
    build_entry = cat.build_entry

    def recorded_build_entry(*args, **kwargs):
        entry, report = build_entry(*args, **kwargs)
        reports.append(report)
        return entry, report

    monkeypatch.setattr(cat, "build_entry", recorded_build_entry)
    out = tmp_path / "catalog.json"
    assert main(["enumerate", "--max-n", "7", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert "12 families, 78 specific" in captured.out
    failures = captured.err.splitlines()
    doc = json.loads(out.read_text())
    built = [r for r in doc["entries"] if not r["family"]]
    assert len(failures) == len(built) == len(reports) > 78
    assert all(line.startswith("FAIL [") and ": relations fail on " in line for line in failures)
    assert "FAIL [2 6 2 7 3 2 2 3 2]: relations fail on a1, a2, a3, a4, a5, a6, a7, a8, a9" in failures
    # The dump records the bound its relation rows were held to.
    assert doc["provenance"]["tolerances"]["relation"] == 1e-20
    relations = [
        row for report in reports for row in oracles.rows(report) if row.stage == "relation"
    ]
    assert len(relations) == 9 * len(built)
    assert {row.tol for row in relations} == {1e-20}


def test_enumerate_reports_a_count_mismatch_and_still_writes(tmp_path, monkeypatch, capsys):
    rows = enumerate_catalog()
    dropped = next(row for row in rows if not row.family)
    monkeypatch.setattr(cli, "enumerate_catalog", lambda: [row for row in rows if row != dropped])
    out = tmp_path / "catalog.json"
    assert main(["enumerate", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert len(json.loads(out.read_text())["entries"]) == 89
    assert "12 families, 77 specific" in captured.out
    families, specific = EXPECTED_COUNTS[dropped.cusp]
    assert captured.err == (
        f"count mismatch for C{dropped.cusp.code}: got {families} families"
        f" + {specific - 1} specific, expected {families} + {specific}\n"
    )


def test_enumerate_rejects_bad_cusp():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--cusp", "777"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# realize


def test_realize_prints_configuration(capsys):
    assert main(["realize", *FIX1]) == 0
    out = capsys.readouterr().out
    assert "labeling: 2 6 2 7 3 2 2 3 2" in out
    assert "cusp: 236" in out
    assert "vertical line x = 0" in out
    # 15 significant digits
    assert "0.900968867902419" in out
    assert "0.450400326800139" in out
    assert "0.120852618138951" in out
    assert "circle center (0, 0) radius 1" in out


def test_realize_prints_a_tiny_intercept_with_its_sign(capsys):
    # The green line of this labeling crosses the y-axis at +6.1e-17 (cos(pi/2)
    # in floating point), which prints with "+", not as "- 6.1e-17".
    assert main(["realize", "2", "3", "2", "2", "6", "4", "2", "2", "2"]) == 0
    green = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("green:"))
    assert green == (
        "green: y = -6.12323399573677e-17*x + 6.12323399573677e-17"
        "  (normal [-6.12323399573677e-17, -1], offset -6.12323399573677e-17)"
    )


def test_realize_writes_svg_and_json(tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    json_path = tmp_path / "out.json"
    code = main(
        ["realize", *FIX1, "--svg", str(svg_path), "--json", str(json_path)]
    )
    assert code == 0
    capsys.readouterr()
    assert svg_path.read_text().startswith("<?xml")
    doc = json.loads(json_path.read_text())
    assert len(doc["entries"]) == 1
    assert doc["entries"][0]["labeling"] == [2, 6, 2, 7, 3, 2, 2, 3, 2]


@pytest.mark.parametrize(
    "command,printed",
    [("realize", "labeling: 2 3 2 5000 6 2 2 2 2"), ("matrices", "a4: (M2^-1 M1)^5000")],
)
def test_built_entry_failure_exits_1(tmp_path, capsys, command, printed):
    path = tmp_path / "entry.json"
    assert main([command, *FAR, "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["FAIL [2 3 2 5000 6 2 2 2 2]: relations fail on a4"]
    assert printed in captured.out
    assert json.loads(path.read_text())["entries"][0]["labeling"][3] == 5000


def test_realize_inadmissible_is_a_domain_error(capsys):
    code = main(["realize", "2", "3", "2", "7", "5", "2", "2", "3", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: labeling is not admissible: ideal triple not Euclidean:"
        " (a1, a2, a5) = (2, 3, 5) is spherical\n"
    )


def test_realize_rejects_wrong_arity():
    with pytest.raises(SystemExit) as exc:
        main(["realize", "2", "6", "2"])
    assert exc.value.code == 2


def test_realize_rejects_labels_below_two(capsys):
    code = main(["realize", "2", "6", "2", "7", "3", "2", "2", "3", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# matrices


def test_matrices_prints_generators_and_relations(capsys):
    assert main(["matrices", *FIX1]) == 0
    out = capsys.readouterr().out
    for name in ("M1", "M2", "M3", "M4"):
        assert f"{name} = [[" in out
    assert "relations:" in out
    assert "a4: (M2^-1 M1)^7" in out
    assert "traces:" in out
    assert out.count(" ok") >= 18  # nine relations and nine traces


def test_matrices_output_is_deterministic(capsys):
    main(["matrices", *FIX1])
    first = capsys.readouterr().out
    main(["matrices", *FIX1])
    second = capsys.readouterr().out
    assert first == second


def test_matrices_measures_each_word_once(monkeypatch, capsys):
    # The relation lines and the trace lines read one memo: each of the nine
    # words is powered once, and each of the three inverted generators
    # (M2, M3 and M4, the later face of some word) is inverted once.
    calls = {"pow": 0, "inv": 0}
    for name in calls:
        method = getattr(MoebiusMatrix, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(MoebiusMatrix, name, counted)
    assert main(["matrices", "2", "4", "3", "5", "4", "2", "2", "2", "2"]) == 0
    capsys.readouterr()
    assert calls == {"pow": 9, "inv": 3}


def test_matrices_json(tmp_path, capsys):
    path = tmp_path / "entry.json"
    assert main(["matrices", *FIX1, "--json", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    gens = doc["entries"][0]["generators"]
    assert gens["m1"][0][1] == {"re": -1.0, "im": 0.0}


# ---------------------------------------------------------------------------
# verify


def _dump(tmp_path_factory, *args):
    """The text of the file that ``enumerate`` writes with ``args``."""
    path = tmp_path_factory.mktemp("dump") / "catalog.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", *args, "-o", str(path)]) == 0
    return path.read_text()


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """The ``enumerate`` dump."""
    return _dump(tmp_path_factory)


@pytest.fixture(scope="module")
def dump_12(tmp_path_factory):
    """The ``enumerate --max-n 12`` dump."""
    return _dump(tmp_path_factory, "--max-n", "12")


@pytest.fixture(scope="module")
def dump_244(tmp_path_factory):
    """The ``enumerate --cusp 244 --max-n 6`` dump."""
    return _dump(tmp_path_factory, "--cusp", "244", "--max-n", "6")


@pytest.fixture
def catalog(tmp_path, dump):
    """``dump`` written to a file."""
    path = tmp_path / "catalog.json"
    path.write_text(dump)
    return path


@pytest.fixture(scope="module")
def small_dump():
    """A dump of a family row, one of its instances and two standalone rows."""
    items = enumerate_catalog()
    family = next(item for item in items if item.family)
    standalone = [item for item in items if not item.family][:2]
    entries, failures = cat.build_catalog([family, *standalone], max_n=family.free_min)
    assert failures == [] and len(entries) == 4
    return cat.dumps_catalog(entries)


@pytest.fixture
def small_catalog(tmp_path, small_dump):
    """``small_dump`` written to a file."""
    path = tmp_path / "catalog.json"
    path.write_text(small_dump)
    return path


def test_verify_passes_on_enumerated_catalog(catalog, capsys):
    assert main(["verify", str(catalog)]) == 0
    out = capsys.readouterr().out
    assert "checked 126 configurations" in out
    assert "max angle residual" in out
    assert out.strip().endswith("PASS")


def test_verify_with_samples(catalog, capsys):
    assert main(["verify", str(catalog), "--sample", "7", "12"]) == 0
    out = capsys.readouterr().out
    # free_min 6 and 7 families both admit n = 7 and n = 12
    assert "checked 102 configurations" in out


def test_verify_fails_every_family_at_a_million(catalog, capsys):
    # At n = 10^6 each family's top circle fails realize's absolute red/top
    # clearance gate.  ROADMAP item 8 makes that gate relative, which is
    # expected to turn these into passes.
    assert main(["verify", str(catalog), "--sample", "1000000"]) == 1
    captured = capsys.readouterr()
    failures = captured.err.splitlines()
    assert len(failures) == 12
    assert all(" at n=1000000: realization failed: no valid top circle" in f for f in failures)
    assert "checked 90 configurations" in captured.out


def test_verify_flags_corruption_and_names_entry(dump, catalog, capsys):
    def edit(doc):
        tampers.first_standalone(doc)["config"]["top"]["radius"] += 1e-3

    victim = tampers.first_standalone(tampers.write(dump, edit, catalog))
    assert main(["verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    label_text = " ".join(str(v) for v in victim["labeling"])
    assert label_text in captured.err
    assert captured.out.strip().endswith("FAIL")


def _bump_first_m2(doc):
    tampers.first_standalone(doc)["generators"]["m2"][0][0]["re"] += 1e-4


def _bump_last_m1(doc):
    # verify measures each distinct relation word once per run; every earlier
    # row on the last standalone row's a3 branch measured its unedited M1, so
    # the edited M1 must be measured afresh and fail.
    row = [r for r in doc["entries"] if not r["family"]][-1]
    row["generators"]["m1"][0][0]["re"] += 1e-4


def _nan_red_offset(doc):
    row = next(r for r in doc["entries"] if r["labeling"] == [2, 3, 2, 2, 6, 4, 2, 2, 2])
    row["config"]["red"]["offset"] = math.nan


def _nan_first_m2(doc):
    tampers.first_standalone(doc)["generators"]["m2"][0][0]["re"] = math.nan


def _vertical(face, line):
    """Store a vertical ``face`` line in the first standalone row."""
    return tampers.on_first_standalone(lambda row: row["config"].update({face: line}))


def _conjugated_by(t):
    """Conjugation by the Moebius map of ``t``: M -> t M t^-1, which keeps every relation."""
    return tampers.moved_matrices(lambda m: t @ m @ t.inv())


@pytest.mark.parametrize(
    "tamper,failure,summary",
    [
        (
            tampers.TAMPERS["flipped_red"].edit,
            "[2 3 2 2 6 4 2 2 2]: stored configuration drifts from recomputation on red"
            " by 2.000e+00",
            "max config drift:      2.000e+00",
        ),
        (
            _bump_first_m2,
            "[2 3 2 2 6 4 2 2 2]: relations fail on a1, a5, a7",
            "max relation residual: 9.486e-04",
        ),
        (
            _bump_last_m1,
            "[3 3 2 5 3 5 2 3 2]: relations fail on a3, a4, a6, a9",
            "max relation residual: 1.316e-03",
        ),
        # NaN compares false with every residual, so the summary must not
        # skip it in favour of the valid rows around it.  A NaN offset
        # measures the red line's angles against the circles as NaN, not 0.
        (
            _nan_red_offset,
            "[2 3 2 2 6 4 2 2 2]: stored configuration drifts from recomputation on red by nan",
            "max angle residual:    nan\nmax config drift:      nan",
        ),
        (
            _nan_first_m2,
            "[2 3 2 2 6 4 2 2 2]: M2 determinant drifts by nan",
            "max determinant drift: nan",
        ),
        # A stored infinity equals its recomputation, but inf - inf is NaN,
        # so the two disagree edge by edge.
        (
            tampers.TAMPERS["inf"].edit,
            "[2 3 2 2 6 4 2 2 2]: stored residuals disagree with recomputation on"
            " angles a7, angles a8, angles a9",
            "max angle residual:    inf\nmax config drift:      6.153e+00",
        ),
        # A vertical green or blue line meets the red line nowhere, so the
        # rotation center it gives is NaN, and so is the rotation about it.
        (
            _vertical("green", {"normal": [1.0, 0.0], "offset": 0.3}),
            f"[2 3 2 2 6 4 2 2 2]: {_REBUILD} M2, fixed1 by nan",
            "max config drift:      1.446e+00",
        ),
        (
            _vertical("blue", {"normal": [-1.0, 0.0], "offset": 0.0}),
            f"[2 3 2 2 6 4 2 2 2]: {_REBUILD} M3, fixed2 by nan",
            "max config drift:      1.225e+00",
        ),
        # Moving all four stored matrices together keeps their determinants,
        # relations and traces, but the moved ones are no longer what the
        # stored faces build.  Negating them keeps the same elements of PSL2,
        # so it passes.
        (
            _conjugated_by(MoebiusMatrix(1 + 0j, 0.3 + 0.2j, 0j, 1 + 0j)),
            f"[2 3 2 2 6 4 2 2 2]: {_REBUILD} M1, M2, M3, M4 by 7.211e-01",
            "max config drift:      0.000e+00",
        ),
        (
            _conjugated_by(MoebiusMatrix(cmath.exp(0.25j), 0j, 0j, cmath.exp(-0.25j))),
            f"[2 3 2 2 6 4 2 2 2]: {_REBUILD} M1, M3, M4 by 6.998e-01",
            "max config drift:      0.000e+00",
        ),
        (
            _conjugated_by(MoebiusMatrix(1.5 + 0j, 0j, 0j, 1 / 1.5 + 0j)),
            f"[2 3 2 2 6 4 2 2 2]: {_REBUILD} M1, M3, M4 by 1.768e+00",
            "max config drift:      0.000e+00",
        ),
        (
            tampers.TAMPERS["conjugated"].edit,
            f"[2 3 2 2 6 4 2 2 2]: {_REBUILD} M3 by 2.449e+00",
            "max config drift:      0.000e+00",
        ),
        (
            tampers.moved_matrices(MoebiusMatrix.inv),
            f"[2 3 2 2 6 4 2 2 2]: {_REBUILD} M3, M4 by 2.828e+00",
            "max config drift:      0.000e+00",
        ),
        (
            tampers.TAMPERS["negated"].edit,
            None,
            "max relation residual: 3.678e-10\nmax config drift:      0.000e+00",
        ),
    ],
    ids=[
        "flipped-red", "first-m2", "last-m1", "nan-red", "nan-m2", "stored-infinity",
        "vertical-green", "vertical-blue", "translated", "rotated", "dilated",
        "complex-conjugated", "inverted", "negated-passes",
    ],
)
def test_verify_fails_a_tampered_row_of_the_enumerate_dump(
    dump, catalog, capsys, tamper, failure, summary
):
    tampers.write(dump, tamper, catalog)
    assert main(["verify", str(catalog)]) == (1 if failure else 0)
    captured = capsys.readouterr()
    failures = captured.err.splitlines()
    assert f"FAIL {failure}" in failures if failure else failures == []
    assert set(summary.splitlines()) <= set(captured.out.splitlines())
    assert "Traceback" not in captured.err
    assert captured.out.strip().endswith("FAIL" if failure else "PASS")


@pytest.fixture(scope="module")
def tampered_files(tmp_path_factory, dump):
    """What ``tests/_tampers.py`` writes from the ``enumerate`` dump: its directory and lines."""
    directory = tmp_path_factory.mktemp("tampers")
    source = directory / "cat.json"
    source.write_text(dump)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        tampers.main([str(source), str(directory / "out")])
    return directory / "out", out.getvalue().splitlines()


@pytest.mark.parametrize("name", tampers.TAMPERS)
def test_verify_exits_with_the_code_of_each_tampered_catalog(name, tampered_files, capsys):
    # What the CI smoke step checks of each file that the script writes: its
    # printed exit code, and no traceback.
    directory, lines = tampered_files
    code = tampers.TAMPERS[name].code
    assert f"{name} {code}" in lines
    assert main(["verify", str(directory / f"{name}.json")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "face,move,angles",
    [
        ("red", lambda f: f.update(offset=f["offset"] + 1e-8), ("a3",)),
        ("back", lambda f: f.update(radius=f["radius"] * (1 + 1e-8)), ("a6", "a9")),
    ],
    ids=["red-offset", "back-radius"],
)
def test_verify_fails_a_moved_face_that_the_rebuild_does_not_read(
    dump, catalog, capsys, face, move, angles
):
    # build_generators reads neither the red nor the back face, so with the
    # matrices untouched the generator record passes; drift fails the row.
    edit = tampers.on_first_standalone(lambda r: move(r["config"][face]))
    doc = tampers.write(dump, edit, catalog)
    row = tampers.first_standalone(doc)
    assert main(["verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    tag = f"FAIL {cat.label_tag(row['labeling'])}:"
    assert captured.err.splitlines() == [
        f"{tag} stored configuration drifts from recomputation on {face} by 1.000e-08",
        f"{tag} configuration fails on {', '.join(angles)}",
        f"{tag} stored residuals disagree with recomputation on"
        f" {', '.join(f'angles {edge}' for edge in angles)}",
    ]
    assert captured.out.strip().endswith("FAIL")


def test_verify_prints_every_line_of_a_stored_infinity(dump, catalog, capsys):
    doc = tampers.write(dump, tampers.TAMPERS["inf"].edit, catalog)
    row = next(r for r in doc["entries"] if r["labeling"] == [2, 3, 2, 2, 6, 4, 2, 2, 2])
    assert row["verification"]["angles"][6:] == [math.inf] * 3
    assert main(["verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "checked 126 configurations\n"
        "max angle residual:    inf\n"
        "max relation residual: 3.678e-10\n"
        "max trace residual:    2.087e-14\n"
        "max determinant drift: 2.842e-14\n"
        "max config drift:      6.153e+00\n"
        "FAIL\n"
    )
    tag = "FAIL [2 3 2 2 6 4 2 2 2]:"
    assert captured.err == (
        f"{tag} stored configuration drifts from recomputation on top by 6.153e+00\n"
        f"{tag} configuration fails on a7, a8, a9\n"
        f"{tag} {_REBUILD} M4 by 4.878e+01\n"
        f"{tag} stored residuals disagree with recomputation on angles a7, angles a8,"
        " angles a9\n"
    )


def test_verify_rejects_unknown_schema(dump, catalog, capsys):
    tampers.write(dump, lambda doc: doc.update(schema="other/1"), catalog)
    assert main(["verify", str(catalog)]) == 2
    assert "schema" in capsys.readouterr().err


def _assert_rejected(path, capsys, index, field):
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: catalog entry {index}: field '{field}'")
    assert "Traceback" not in err


def test_verify_rejects_entry_without_cusp(dump, catalog, capsys):
    doc = tampers.write(dump, tampers.on_first_standalone(lambda r: r.pop("cusp")), catalog)
    _assert_rejected(catalog, capsys, tampers.first_index(doc), "cusp")


@pytest.mark.parametrize(
    "family,corrupt,field",
    [
        (True, lambda r: r.update(free_slot=None), "free_slot"),
        (True, lambda r: r.update(free_slot=20), "free_slot"),
        (True, lambda r: r.update(free_min="6"), "free_min"),
        (False, lambda r: r.update(family=True), "family"),
        (False, lambda r: r["generators"].update(theta1="x"), "generators"),
        (False, lambda r: r.update(family_n=999, free_min=3), "free_min"),
        (True, lambda r: r.update(family_n=r["free_min"]), "family_n"),
        (True, lambda r: r.update(family=False), "family_n"),
        (True, lambda r: r.update(family="false"), "family"),
        (False, lambda r: r["generators"]["fixed2"].update(re=10**400), "generators"),
        (False, lambda r: r["generators"]["m1"][0][1].update(im=False), "generators"),
        (False, lambda r: r["generators"]["fixed1"].update(im=False), "generators"),
        (False, lambda r: r["generators"]["m2"][1][0].update(re=True), "generators"),
        (False, lambda r: r["config"].update(a3_branch=2.0), "config"),
        (True, lambda r: r.update(config=False), "config"),
        (True, lambda r: r.update(generators=0), "generators"),
        (True, lambda r: r.update(verification=[]), "verification"),
        (True, lambda r: r.update(config={}), "config"),
        (False, lambda r: r.update(config=False), "config"),
        (False, lambda r: r.update(generators={}), "generators"),
        (False, lambda r: r.update(verification=0), "verification"),
        (True, lambda r: r.update(free_min=None), "free_min"),
        (False, lambda r: r["config"]["red"]["normal"].append(0.0), "config"),
        (False, lambda r: r["config"]["top"]["center"].append(0.0), "config"),
        (False, lambda r: r["generators"]["m1"][1].append({"re": 0.0, "im": 0.0}), "generators"),
        (False, lambda r: r["generators"]["m1"].append(r["generators"]["m1"][0]), "generators"),
        (False, lambda r: r.update(free_slot=3), "family_n"),
        (False, lambda r: r.update(free_min=6), "free_min"),
        (True, lambda r: r.update(labeling=[None, *r["labeling"][1:]]), "free_slot"),
        (True, lambda r: r.update(free_slot=0), "free_slot"),
    ],
    ids=[
        "free-slot-null",
        "free-slot-20",
        "free-min-string",
        "standalone-family",
        "theta1-string",
        "standalone-family-n",
        "family-family-n",
        "family-false",
        "family-string",
        "fixed2-huge",
        "m1-im-false",
        "fixed1-im-false",
        "m2-re-true",
        "a3-branch-float",
        "family-config-false",
        "family-generators-0",
        "family-verification-list",
        "family-config-object",
        "standalone-config-false",
        "standalone-generators-object",
        "standalone-verification-0",
        "family-free-min-null",
        "normal-three-numbers",
        "center-three-numbers",
        "m1-row-three-entries",
        "m1-three-rows",
        "standalone-free-slot",
        "standalone-free-min",
        "family-second-null-label",
        "family-slot-at-a-label",
    ],
)
def test_verify_rejects_malformed_family_and_generator_fields(
    dump, catalog, capsys, family, corrupt, field
):
    # Some edits change the row's family field, so the index is the unedited dump's.
    index = tampers.first_index(json.loads(dump), family)
    tampers.write(dump, lambda doc: corrupt(doc["entries"][index]), catalog)
    _assert_rejected(catalog, capsys, index, field)


def test_verify_rejects_a_family_row_that_carries_a_standalone_payload(dump, catalog, capsys):
    doc = tampers.write(dump, tampers.TAMPERS["family_payload"].edit, catalog)
    _assert_rejected(catalog, capsys, tampers.first_index(doc, True), "config")


@pytest.mark.parametrize(
    "corrupt,field",
    [
        (lambda r: r.update(family_n=r["family_n"] + 1), "family_n"),
        (lambda r: r.update(free_min=r["family_n"] + 5), "family_n"),
        (lambda r: r.update(family_n=None), "family_n"),
        (lambda r: r.update(free_min=None), "free_min"),
        (lambda r: r.update(free_slot=9), "free_slot"),
    ],
    ids=["family-n-plus-1", "free-min-above", "family-n-null", "free-min-null", "slot-9"],
)
def test_verify_rejects_inconsistent_instance_rows(dump_244, tmp_path, capsys, corrupt, field):
    rows = json.loads(dump_244)["entries"]
    index = next(i for i, r in enumerate(rows) if r["family_n"] is not None)
    path = tmp_path / "catalog.json"
    tampers.write(dump_244, lambda doc: corrupt(doc["entries"][index]), path)
    _assert_rejected(path, capsys, index, field)


def test_verify_rejects_duplicate_rows(dump, catalog, capsys):
    rows = json.loads(dump)["entries"]
    tampers.write(dump, lambda doc: doc.update(entries=doc["entries"] * 2), catalog)
    assert main(["verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    tags = [" ".join("n" if v is None else str(v) for v in r["labeling"]) for r in rows]
    assert captured.err.splitlines() == [f"FAIL [{tag}]: the row is stored 2 times" for tag in tags]
    assert "checked 252 configurations" in captured.out
    assert captured.out.strip().endswith("FAIL")


def test_verify_names_each_failed_edge_of_a_row_stored_twice_once_per_copy(
    dump, catalog, capsys
):
    # Both copies carry one tag, and each copy's records make their own
    # lines: each names its failed edges once.
    tampers.write(dump, tampers.TAMPERS["twice"].edit, catalog)
    assert main(["verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    tag = "[2 3 2 2 6 4 2 2 2]"
    copy = [
        f"FAIL {tag}: stored configuration drifts from recomputation on top by 1.000e-03",
        f"FAIL {tag}: configuration fails on a9",
        f"FAIL {tag}: {_REBUILD} M4 by 3.739e-03",
    ]
    assert captured.err.splitlines() == [
        *copy,
        *copy,
        f"FAIL {tag}: the row is stored 2 times",
        f"FAIL {tag}: stored residuals disagree with recomputation on angles a9",
        f"FAIL {tag}: stored residuals disagree with recomputation on angles a9",
    ]
    assert "checked 127 configurations" in captured.out
    assert captured.out.strip().endswith("FAIL")


def _assert_named_failures(path, capsys, expected):
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"FAIL {line}" for line in expected]
    assert captured.out.strip().endswith("FAIL")


@pytest.mark.parametrize(
    "corrupt,edge",
    [
        (lambda g: g.update(theta1=g["theta1"] + 1e-6), "theta1 by 1.000e-06"),
        (lambda g: g.update(theta2=g["theta2"] * (1 + 1e-9)), "theta2 by 1.047e-09"),
        (lambda g: g.update(fixed1={"re": 5.0, "im": 5.0}), "fixed1 by 7.071e+00"),
        (lambda g: g["fixed2"].update(im=g["fixed2"]["im"] + 1e-8), "fixed2 by 1.000e-08"),
    ],
    ids=["theta1", "theta2", "fixed1", "fixed2"],
)
def test_verify_flags_tampered_generator_parameters(dump, catalog, capsys, corrupt, edge):
    edit = tampers.on_first_standalone(lambda r: corrupt(r["generators"]))
    doc = tampers.write(dump, edit, catalog)
    victim = tampers.first_standalone(doc)
    label_text = " ".join(str(v) for v in victim["labeling"])
    expected = f"[{label_text}]: {_REBUILD} {edge}"
    _assert_named_failures(catalog, capsys, [expected])


def _generator_record(path, labeling):
    report = cat.verify_catalog(cat.load_catalog(str(path)))
    tag = cat.label_tag(labeling)
    return next(c for c in report.checks if c.stage == "generator" and c.entry == tag)


def test_verify_reads_a_one_ulp_move_of_theta1_on_the_generator_record(dump, catalog, capsys):
    # The stored generators no longer equal their rebuild, so the record is
    # measured: it reads exactly the ulp, which is within its bound, and the
    # printed summary does not change.
    assert main(["verify", str(catalog)]) == 0
    untouched = capsys.readouterr().out
    theta1 = tampers.first_standalone(json.loads(dump))["generators"]["theta1"]
    doc = tampers.write(dump, tampers.TAMPERS["ulp_theta1"].edit, catalog)
    record = _generator_record(catalog, tampers.first_standalone(doc)["labeling"])
    assert dict(zip(record.edges, record.residuals)) == {
        "M1": 0.0, "M2": 0.0, "M3": 0.0, "M4": 0.0,
        "theta1": math.ulp(theta1), "theta2": 0.0, "fixed1": 0.0, "fixed2": 0.0,
    }
    assert main(["verify", str(catalog)]) == 0
    assert capsys.readouterr().out == untouched


def test_verify_measures_a_one_ulp_move_of_m2_as_its_distance(dump, catalog, capsys):
    def edit(doc):
        entry = tampers.first_standalone(doc)["generators"]["m2"][0][1]
        entry["re"] = math.nextafter(entry["re"], math.inf)

    victim = tampers.first_standalone(tampers.write(dump, edit, catalog))
    stored = cat.entry_from_json(victim)
    moved = stored.generators.m2
    rebuilt = build_generators(stored.generators.labeling, stored.config).m2
    assert moved.distance(rebuilt) > 0.0
    record = _generator_record(catalog, victim["labeling"])
    assert record.residuals == (0.0, moved.distance(rebuilt), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_verify_flags_cusp_that_disagrees_with_labeling(dump, catalog, capsys):
    def edit(doc):
        victim = tampers.first_standalone(doc)
        assert victim["cusp"] == "236"
        victim["cusp"] = "333"

    victim = tampers.first_standalone(tampers.write(dump, edit, catalog))
    label_text = " ".join(str(v) for v in victim["labeling"])
    expected = f"[{label_text}]: stored cusp 333 is not the labeling's cusp 236"
    _assert_named_failures(catalog, capsys, [expected])


def test_verify_checks_family_cusp_on_every_sample(dump, catalog, capsys):
    def edit(doc):
        victim = tampers.first_family(doc)
        assert victim["cusp"] == "236" and victim["free_min"] == 6
        victim["cusp"] = "244"

    victim = tampers.first_family(tampers.write(dump, edit, catalog))
    label_text = " ".join("n" if v is None else str(v) for v in victim["labeling"])
    _assert_named_failures(
        catalog,
        capsys,
        [
            f"[{label_text}] at n={n}: stored cusp 244 is not the labeling's cusp 236"
            for n in (6, 7, 16, 500)
        ],
    )


INSTANCE = [2, 3, 2, 7, 6, 2, 2, 2, 2]
PATTERN = [2, 3, 2, None, 6, 2, 2, 2, 2]
tag = cat.label_tag
_HUGE = 10**3999
# A label of 301 digits, which still converts to a float.
_FLOAT_HUGE = 10**300
# A run of more digits than brief shows in full.
_LONG_RUN = re.compile(r"\d{41}")
_INADMISSIBLE = "labeling is not admissible: "
_DEGENERATE = ": the labeling is degenerate or not realizable with one cusp"


def _set_free_min(doc):
    row = next(r for r in doc["entries"] if r["labeling"] == INSTANCE)
    assert row["free_min"] == 6
    row["free_min"] = 7


def _claim_the_first_slot(doc):
    # Slot 0 holds a 2, so the row passes as an instance of a family whose
    # pattern nobody stored.
    row = next(r for r in doc["entries"] if r["labeling"] == INSTANCE[:3] + [6] + INSTANCE[4:])
    row.update(free_slot=0, family_n=2, free_min=2)


def _drop(doc, labelings):
    doc["entries"] = [r for r in doc["entries"] if r["labeling"] not in labelings]


def _drop_pattern(doc):
    _drop(doc, [PATTERN])


def _set_huge_pattern_free_min(doc):
    next(r for r in doc["entries"] if r["labeling"] == PATTERN)["free_min"] = _HUGE


@pytest.mark.parametrize(
    "corrupt,expected",
    [
        (_set_free_min, [f"{tag(INSTANCE)}: free_min 7 differs from 6 in its family row"]),
        (
            _claim_the_first_slot,
            [f"{tag(INSTANCE[:3] + [6] + INSTANCE[4:])}: its family row"
             f" {tag([None] + INSTANCE[1:3] + [6] + INSTANCE[4:])} is not stored"],
        ),
        (
            _drop_pattern,
            [
                f"{tag(INSTANCE[:3] + [n] + INSTANCE[4:])}: its family row"
                f" {tag(PATTERN)} is not stored"
                for n in range(6, 13)
            ],
        ),
        (
            _set_huge_pattern_free_min,
            [
                f"{tag(INSTANCE[:3] + [n] + INSTANCE[4:])}: free_min 6 differs from"
                f" {brief(_HUGE)} in its family row"
                for n in range(6, 13)
            ]
            + [
                f"{tag(PATTERN)} at n={brief(n)}: arithmetic failed: OverflowError:"
                " int too large to convert to float"
                for n in (_HUGE, _HUGE + 1, _HUGE + 10)
            ],
        ),
    ],
    ids=["free-min-7", "first-slot", "no-family-row", "huge-family-free-min"],
)
def test_verify_flags_instances_that_disagree_with_their_family_row(
    dump_12, tmp_path, capsys, corrupt, expected
):
    path = tmp_path / "catalog.json"
    tampers.write(dump_12, corrupt, path)
    _assert_named_failures(path, capsys, expected)


@pytest.mark.parametrize(
    "labels", [[2, 3, 2, 2, 6, 4, 2, 2, 2], PATTERN], ids=["labeling", "family-pattern"]
)
def test_verify_flags_a_row_stored_with_its_mirror_image(dump, catalog, capsys, labels):
    mate = list(symmetry_mate(labels))

    def edit(doc):
        if None in labels:
            row = next(r for r in doc["entries"] if r["labeling"] == labels)
            doc["entries"].append(dict(row, labeling=mate, free_slot=mate.index(None)))
        else:
            doc["entries"].append(cat.entry_to_json(cat.build_entry(mate)[0]))

    tampers.write(dump, edit, catalog)
    expected = f"{tag(labels)}: its mirror image {tag(mate)} is stored too"
    _assert_named_failures(catalog, capsys, [expected])


# The 8 family rows whose free_min comes from the fold rule, each with the
# least slot value at which its pattern is admissible, below that free_min.
_FOLDED = [
    ([2, 3, 2, None, 6, 2, 2, 2, 2], 4),
    ([2, 3, 2, None, 6, 3, 2, 2, 2], 3),
    ([2, 3, 2, None, 6, 4, 2, 2, 2], 2),
    ([2, 3, 2, None, 6, 5, 2, 2, 2], 2),
    ([2, 4, 2, None, 4, 2, 2, 2, 2], 5),
    ([2, 4, 2, None, 4, 2, 2, 3, 2], 5),
    ([2, 4, 2, None, 4, 3, 2, 2, 2], 3),
    ([2, 4, 2, None, 4, 3, 2, 3, 2], 3),
]


@pytest.mark.parametrize(
    "pattern,lowest", _FOLDED, ids=["".join(str(v or "n") for v in p) for p, _ in _FOLDED]
)
def test_verify_flags_a_standalone_row_inside_a_lowered_family(
    dump, catalog, capsys, pattern, lowest
):
    # Lowered to its admissibility threshold, the family covers stored
    # standalone rows (or their mirror images), and the counts stop being a
    # classification.  With those rows removed the file passes: completeness
    # has no rule.
    doc = json.loads(dump)
    row = next(r for r in doc["entries"] if r["labeling"] == pattern)
    slot = row["free_slot"]

    def member(n):
        return tuple(pattern[:slot] + [n] + pattern[slot + 1 :])

    assert is_admissible(member(lowest)) and (lowest == 2 or not is_admissible(member(lowest - 1)))
    assert row["free_min"] > lowest
    members = {member(n): n for n in range(lowest, row["free_min"])}
    expected, inside = [], []
    for stored in (r["labeling"] for r in doc["entries"] if not r["family"]):
        for labels in dict.fromkeys((tuple(stored), tuple(symmetry_mate(stored)))):
            if labels in members:
                which = "it" if list(labels) == stored else f"its mirror image {tag(labels)}"
                expected.append(
                    f"{tag(stored)}: {which} is a member of family {tag(pattern)}"
                    f" (n = {members[labels]})"
                )
                inside.append(stored)
    assert expected
    tampers.write(dump, tampers.lowered(pattern, lowest), catalog)
    _assert_named_failures(catalog, capsys, expected)
    tampers.write(catalog.read_text(), lambda doc: _drop(doc, inside), catalog)
    assert main(["verify", str(catalog)]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_verify_flags_a_standalone_row_whose_mirror_image_is_in_a_family(dump, catalog, capsys):
    # [2 3 2 4 6 2 2 2 2] stored as its mirror image: with the family lowered to
    # free_min 4, the mirror image of the stored row is a member.  Outside the
    # family, at its own free_min 6, the same file passes.
    labels = [2, 3, 2, 4, 6, 2, 2, 2, 2]
    mate = list(symmetry_mate(labels))

    def mirrored(doc):
        index = next(i for i, r in enumerate(doc["entries"]) if r["labeling"] == labels)
        doc["entries"][index] = cat.entry_to_json(cat.build_entry(mate)[0])

    def lowered(doc):
        tampers.TAMPERS["lowered"].edit(doc)
        _drop(doc, [[2, 3, 2, 5, 6, 2, 2, 2, 2]])

    tampers.write(dump, mirrored, catalog)
    assert main(["verify", str(catalog)]) == 0
    capsys.readouterr()
    tampers.write(catalog.read_text(), lowered, catalog)
    expected = f"{tag(mate)}: its mirror image {tag(labels)} is a member of family {tag(PATTERN)}"
    _assert_named_failures(catalog, capsys, [expected + " (n = 4)"])


def test_the_partition_rule_passes_over_a_null_label_of_a_standalone_row(
    small_dump, small_catalog, capsys
):
    # A null label of a row with no free slot is no family's free slot: the
    # row fails to realize, and the partition rule compares no label with it.
    for index in range(9):

        def null_label(doc, index=index):
            next(r for r in doc["entries"] if r["free_slot"] is None)["labeling"][index] = None

        doc = tampers.write(small_dump, null_label, small_catalog)
        row = next(r for r in doc["entries"] if r["free_slot"] is None)
        assert main(["verify", str(small_catalog)]) == 1
        failures = capsys.readouterr().err.splitlines()
        assert failures[0].startswith(
            f"FAIL {tag(row['labeling'])}: realization failed: edge labels must be integers"
        ), failures


def test_verify_accepts_a_labeling_that_is_its_own_mirror_image(tmp_path, capsys):
    labels = [3, 3, 2, 4, 3, 4, 2, 2, 2]
    assert list(symmetry_mate(labels)) == labels
    path = str(tmp_path / "self_mate.json")
    assert main(["realize", *map(str, labels), "--json", path]) == 0
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


@pytest.mark.parametrize(
    "fields", [("config",), ("generators",), ("verification",), ("config", "generators")]
)
def test_verify_requires_the_payload_of_non_family_rows(dump, catalog, capsys, fields):
    edit = tampers.on_first_standalone(lambda r: r.update(dict.fromkeys(fields)))
    victim = tampers.first_standalone(tampers.write(dump, edit, catalog))
    label_text = " ".join(str(v) for v in victim["labeling"])
    expected = f"[{label_text}]: entry stores no {', '.join(fields)}"
    _assert_named_failures(catalog, capsys, [expected])


@pytest.mark.parametrize(
    "field,index,value,disagree",
    [
        ("relations", 0, 123.0, "relations a1"),
        ("angles", 8, 2e-9, "angles a9"),
        ("traces", 3, -2e-8, "traces a4"),
        ("angles", 0, 5e-10, None),
    ],
    ids=["relation-123", "angle-over-tol", "trace-negative", "angle-within-tol"],
)
def test_verify_reads_stored_residuals(dump, catalog, capsys, field, index, value, disagree):
    def edit(doc):
        tampers.first_standalone(doc)["verification"][field][index] += value

    victim = tampers.first_standalone(tampers.write(dump, edit, catalog))
    if disagree is None:  # within the row's tolerance
        assert main(["verify", str(catalog)]) == 0
        return
    label_text = " ".join(str(v) for v in victim["labeling"])
    expected = f"[{label_text}]: stored residuals disagree with recomputation on {disagree}"
    _assert_named_failures(catalog, capsys, [expected])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda v: v["relations"].pop(),
        lambda v: v["traces"].append(0.0),
        lambda v: v["angles"].__setitem__(0, "x"),
        lambda v: v.pop("angles"),
        lambda v: v["angles"].__setitem__(0, 10**400),
    ],
    ids=["8-relations", "10-traces", "string-angle", "no-angles", "huge-angle"],
)
def test_verify_rejects_malformed_verification(dump, catalog, capsys, corrupt):
    edit = tampers.on_first_standalone(lambda r: corrupt(r["verification"]))
    doc = tampers.write(dump, edit, catalog)
    _assert_rejected(catalog, capsys, tampers.first_index(doc), "verification")


def test_verify_rejects_short_labeling(dump, catalog, capsys):
    edit = tampers.on_first_standalone(lambda r: r.update(labeling=[2, 3]))
    doc = tampers.write(dump, edit, catalog)
    _assert_rejected(catalog, capsys, tampers.first_index(doc), "labeling")


def test_verify_rejects_malformed_config(dump, catalog, capsys):
    edit = tampers.on_first_standalone(lambda r: r.update(config={"red": 1}))
    doc = tampers.write(dump, edit, catalog)
    _assert_rejected(catalog, capsys, tampers.first_index(doc), "config")


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda c: c["red"].update(offset="x"), "TypeError: expected a number, got 'x'"),
        (
            lambda c: c["top"]["center"].__setitem__(0, None),
            "TypeError: expected a number, got None",
        ),
        (lambda c: c["back"]["center"].__setitem__(1, []), "TypeError: expected a number, got []"),
        (
            lambda c: c["green"]["normal"].__setitem__(0, 10**400),
            "OverflowError: int too large to convert to float",
        ),
        # NaN fails every comparison, so the unit-length check must not be one
        # that a NaN passes.
        (
            lambda c: c["green"]["normal"].__setitem__(0, math.nan),
            "ValueError: line normal must have unit length, got nan",
        ),
    ],
    ids=[
        "red-offset-string",
        "top-center-null",
        "back-center-list",
        "green-normal-huge",
        "green-normal-nan",
    ],
)
def test_verify_rejects_a_line_or_circle_that_is_not_numbers(
    small_dump, small_catalog, capsys, corrupt, message
):
    edit = tampers.on_first_standalone(lambda r: corrupt(r["config"]))
    doc = tampers.write(small_dump, edit, small_catalog)
    index = tampers.first_index(doc)
    assert main(["verify", str(small_catalog)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: catalog entry {index}: field 'config' is malformed ({message})\n"


def test_verify_rejects_a_label_that_is_not_an_integer(small_dump, small_catalog, capsys):
    edit = tampers.on_first_standalone(lambda r: r["labeling"].__setitem__(0, [2]))
    doc = tampers.write(small_dump, edit, small_catalog)
    _assert_rejected(small_catalog, capsys, tampers.first_index(doc), "labeling")


def test_verify_fails_a_label_below_two(small_dump, small_catalog, capsys):
    edit = tampers.on_first_standalone(lambda r: r["labeling"].__setitem__(0, 1))
    victim = tampers.first_standalone(tampers.write(small_dump, edit, small_catalog))
    assert main(["verify", str(small_catalog)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"FAIL {tag(victim['labeling'])}: realization failed:")


def test_verify_says_why_a_stored_labeling_is_not_admissible(small_dump, small_catalog, capsys):
    def edit(doc):
        victim = next(r for r in doc["entries"] if r["labeling"] == [2, 3, 2, 2, 6, 4, 2, 2, 2])
        victim["labeling"][4] = 5

    tampers.write(small_dump, edit, small_catalog)
    reason = "ideal triple not Euclidean: (a1, a2, a5) = (2, 3, 5) is spherical"
    line = f"[2 3 2 2 5 4 2 2 2]: realization failed: {_INADMISSIBLE}{reason}"
    _assert_named_failures(small_catalog, capsys, [line])


def test_verify_shows_a_label_of_40_digits_in_full_in_tag_and_message(dump, catalog, capsys):
    edit = tampers.on_first_standalone(lambda r: r["labeling"].__setitem__(0, -(10**39)))
    tampers.write(dump, edit, catalog)
    assert main(["verify", str(catalog)]) == 1
    labels = "-1" + "0" * 39, "3", "2", "2", "6", "4", "2", "2", "2"
    assert capsys.readouterr().err == (
        f"FAIL [{' '.join(labels)}]: realization failed:"
        f" edge labels must be integers >= 2, got ({', '.join(labels)})\n"
    )


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda doc: doc.pop("entries"), "catalog field 'entries' is missing"),
        (
            lambda doc: doc.update(entries={"0": {}}),
            "catalog field 'entries' is malformed (TypeError: expected a list, got {'0': {}})",
        ),
        (
            lambda doc: doc.update(entries=5),
            "catalog field 'entries' is malformed (TypeError: expected a list, got 5)",
        ),
        (lambda doc: doc.update(entries=[5]), "catalog entry 0: expected an object, got 5"),
        (lambda doc: doc.update(entries=[[]]), "catalog entry 0: expected an object, got []"),
    ],
    ids=["missing", "object", "number", "entry-number", "entry-list"],
)
def test_verify_rejects_malformed_entries_field(dump, catalog, capsys, corrupt, message):
    tampers.write(dump, corrupt, catalog)
    assert main(["verify", str(catalog)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda doc: doc.pop("provenance"), "is missing"),
        (lambda doc: doc.update(provenance="prismcat"), "is malformed (TypeError: expected an"),
        (lambda doc: doc["provenance"].pop("tool"), "is malformed (KeyError: 'tool')"),
        (
            lambda doc: doc["provenance"].update(tool=5),
            "is malformed (TypeError: expected a string, got 5)",
        ),
        (
            lambda doc: doc["provenance"].update(tolerances=[]),
            "is malformed (TypeError: expected an object, got [])",
        ),
        (
            lambda doc: doc["provenance"]["tolerances"].update(angle="1e-9"),
            "is malformed (TypeError: expected a number, got '1e-9')",
        ),
    ],
    ids=["missing", "string", "no-tool", "tool-number", "tolerances-list", "tolerance-string"],
)
def test_verify_rejects_a_missing_or_malformed_provenance(
    small_dump, small_catalog, capsys, corrupt, message
):
    tampers.write(small_dump, corrupt, small_catalog)
    assert main(["verify", str(small_catalog)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: catalog field 'provenance' {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "provenance,failures",
    [
        (
            {"tool": "other"},
            ["FAIL provenance: tool 'other' is not 'prismcat'"],
        ),
        (
            {"tolerances": {**cat.TOLERANCES, "angle": 1.0, "extra": 2.0}},
            [
                "FAIL provenance: recorded tolerances differ on angle 1.0 (expected 1e-09),"
                " 'extra' 2.0 (expected none)"
            ],
        ),
        (
            {"tool": "other", "tolerances": {"angle": 1e-09}},
            [
                "FAIL provenance: tool 'other' is not 'prismcat'",
                "FAIL provenance: recorded tolerances differ on construction missing"
                " (expected 1e-10), relation missing (expected 1e-07), relation_large_power"
                " missing (expected 1e-06), large_exponent missing (expected 100), trace"
                " missing (expected 1e-08), determinant missing (expected 1e-10)",
            ],
        ),
    ],
    ids=["tool", "tolerances", "both"],
)
def test_verify_fails_a_provenance_of_another_tool_or_tolerances(
    small_dump, small_catalog, capsys, provenance, failures
):
    tampers.write(small_dump, lambda doc: doc["provenance"].update(provenance), small_catalog)
    assert main(["verify", str(small_catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == failures
    assert captured.out.strip().endswith("FAIL")


def test_verify_does_not_compare_the_provenance_version(small_dump, small_catalog, capsys):
    expected = (main(["verify", str(small_catalog)]), capsys.readouterr())
    for edit in (lambda p: p.update(version="0.0.0-other"), lambda p: p.pop("version")):
        tampers.write(small_dump, lambda doc: edit(doc["provenance"]), small_catalog)
        assert (main(["verify", str(small_catalog)]), capsys.readouterr()) == expected
    assert expected[0] == 0 and expected[1].err == ""


@pytest.mark.parametrize("sample", ["3", "-5"])
def test_verify_fails_when_no_sample_reaches_a_family(small_dump, small_catalog, capsys, sample):
    # A file of family rows only: every family bound is 6 or 7, so nothing
    # is realized or checked.
    tampers.write(
        small_dump,
        lambda doc: doc.update(entries=[row for row in doc["entries"] if row["family"]]),
        small_catalog,
    )
    assert main(["verify", str(small_catalog), "--sample", sample]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "FAIL no labeling to check: every sample is below its family's bound\n"
    )
    assert captured.out.startswith("checked 0 configurations\n")
    assert captured.out.endswith("\nFAIL\n")


def test_verify_fails_an_empty_catalog(small_dump, small_catalog, capsys):
    tampers.write(small_dump, lambda doc: doc.update(entries=[]), small_catalog)
    assert main(["verify", str(small_catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "FAIL the catalog has no entries\n"
    assert "checked 0 configurations" in captured.out
    assert captured.out.strip().endswith("FAIL")


def test_verify_rejects_non_object_document(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text("[]")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a catalog is a JSON object")
    assert "got list" in err


def test_verify_rejects_a_document_nested_too_deeply(small_dump, tmp_path, capsys):
    # The decoder gives up on deep nesting with a RecursionError; Python 3.13
    # decodes 3,000 levels, and then the entry is not an object.
    path = tmp_path / "catalog.json"
    path.write_text("[" * 100_000)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: the catalog is nested too deeply to read\n"
    doc = json.dumps({**json.loads(small_dump), "entries": "@"})
    path.write_text(doc.replace('"@"', "[" * 3000 + "]" * 3000))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_DEEP = "@"  # stands in the document for a list nested 900 levels deep


@pytest.mark.parametrize(
    "row,path,value,field",
    [
        ("family", ["cusp"], "2" * 10**6, "cusp"),
        ("family", ["free_slot"], _DEEP, "free_slot"),
        ("family", ["family"], _DEEP, "family"),
        ("family", ["cusp"], _DEEP, "cusp"),
        ("standalone", ["labeling", 0], _DEEP, "labeling"),
        ("standalone", ["config", "green", "normal", 0], _DEEP, "config"),
        ("instance", ["free_slot"], 10**3999, "free_slot"),
        (None, ["provenance", "tool"], "p" * 10**6, None),
    ],
    ids=[
        "long-cusp",
        "deep-free-slot",
        "deep-family",
        "deep-cusp",
        "deep-label",
        "deep-normal",
        "huge-instance-free-slot",
        "long-tool",
    ],
)
def test_verify_names_a_bad_value_briefly(small_dump, tmp_path, capsys, row, path, value, field):
    doc = json.loads(small_dump)
    rows = doc["entries"]
    index = {
        "family": tampers.first_index(doc, True),
        "standalone": next(i for i, r in enumerate(rows) if r["config"] and r["free_slot"] is None),
        "instance": next(i for i, r in enumerate(rows) if r["family_n"] is not None),
    }.get(row)
    parent = doc if row is None else rows[index]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file = tmp_path / "catalog.json"
    file.write_text(json.dumps(doc).replace(f'"{_DEEP}"', "[" * 900 + "]" * 900))
    if row is None:
        code, start = 1, "FAIL provenance: tool 'ppp"
    else:
        code, start = 2, f"error: catalog entry {index}: field '{field}' "
    assert main(["verify", str(file)]) == code
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(start)
    assert len(line) <= 200


def _stored_disagreement(edges):
    """The residual fields and edges of a stored-residual line: relations, then traces."""
    return ", ".join(f"{field} {edge}" for field in ("relations", "traces") for edge in edges)


def test_verify_reports_singular_generator(dump, catalog, capsys):
    # A singular M3 leaves the words that contain it unmeasurable: they read
    # inf, so they fail, and disagree with the residuals the row stores.  It
    # is as far from the rebuilt M3 as that is from 0.
    doc = tampers.write(dump, tampers.TAMPERS["singular"].edit, catalog)
    assert main(["verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    label_text = " ".join(str(v) for v in tampers.first_standalone(doc)["labeling"])
    stored = _stored_disagreement(("a2", "a5", "a6", "a8"))
    assert captured.err.splitlines() == [
        f"FAIL [{label_text}]: {_REBUILD} M3 by 2.000e+00",
        f"FAIL [{label_text}]: M3 determinant drifts by 1.000e+00",
        f"FAIL [{label_text}]: relations fail on a2, a5, a6, a8",
        f"FAIL [{label_text}]: trace checks fail on a2, a5, a6, a8",
        f"FAIL [{label_text}]: stored residuals disagree with recomputation on {stored}",
    ]
    assert "checked 126 configurations" in captured.out
    assert captured.out.strip().endswith("FAIL")


@pytest.mark.parametrize(
    "corrupt,rebuild,determinant",
    [
        (
            lambda r: r["generators"]["m1"][0][1].update(re=5e-324),
            "1.000e+00",
            ["M1 determinant drifts by 1.000e+00"],
        ),
        (lambda r: r["generators"]["m1"][1][1].update(re=1e308), "1.000e+308", []),
    ],
    ids=["m1-subnormal", "m1-1e308"],
)
def test_verify_reports_an_extreme_stored_m1_as_record_fail_lines(
    small_dump, small_catalog, capsys, corrupt, rebuild, determinant
):
    # The words that contain M1 meet a determinant that underflows to 0, so
    # they cannot be measured and read inf.  M1 = [[0, -1], [1, 1e308]] keeps
    # its determinant 1, so only its words and its rebuild fail; the rebuilt
    # M1 is [[0, -1], [1, 0]], 1 and 1e308 from the two stored ones.
    doc = tampers.write(small_dump, tampers.on_first_standalone(corrupt), small_catalog)
    victim = tampers.first_standalone(doc)
    assert main(["verify", str(small_catalog)]) == 1
    captured = capsys.readouterr()
    words = ("a3", "a4", "a6", "a9")
    lines = [
        f"{_REBUILD} M1 by {rebuild}",
        *determinant,
        f"relations fail on {', '.join(words)}",
        f"trace checks fail on {', '.join(words)}",
        f"stored residuals disagree with recomputation on {_stored_disagreement(words)}",
    ]
    prefix = f"FAIL {tag(victim['labeling'])}: "
    assert captured.err.splitlines() == [prefix + line for line in lines]
    assert "checked 7 configurations" in captured.out


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["config"]["top"]["center"].__setitem__(0, -1e308),
        lambda r: r["config"]["top"].update(radius=1e308),
    ],
    ids=["top-center-minus-1e308", "top-radius-1e308"],
)
def test_verify_reports_an_arithmetic_failure_as_a_fail_line(
    small_dump, small_catalog, capsys, corrupt
):
    doc = tampers.write(small_dump, tampers.on_first_standalone(corrupt), small_catalog)
    victim = tampers.first_standalone(doc)
    assert main(["verify", str(small_catalog)]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"FAIL {tag(victim['labeling'])}: arithmetic failed: OverflowError: ")
    assert "checked 7 configurations" in captured.out


def test_verify_reports_a_free_slot_too_large_for_a_float(dump, catalog, capsys):
    huge = 10**400
    doc = tampers.write(dump, lambda doc: tampers.first_family(doc).update(free_min=huge), catalog)
    assert main(["verify", str(catalog)]) == 1
    pattern = tag(tampers.first_family(doc)["labeling"])
    assert capsys.readouterr().err.splitlines() == [
        f"FAIL {pattern} at n={brief(n)}: arithmetic failed: OverflowError:"
        " int too large to convert to float"
        for n in (huge, huge + 1, huge + 10)
    ]
    assert main(["verify", str(catalog), "--sample", str(huge)]) == 1
    failures = capsys.readouterr().err.splitlines()
    assert len(failures) == 12
    expected = f" at n={brief(huge)}: arithmetic failed: OverflowError: "
    assert all(expected in line for line in failures)


@pytest.mark.parametrize(
    "field,slot,value",
    [
        *(("labeling", slot, _HUGE) for slot in range(9)),
        ("labeling", 0, -_HUGE),
        ("free_min", None, _HUGE),
        ("--sample", None, _HUGE),
        # A float holds these, so realize's gate rejects them: it names the
        # labeling in its message.
        ("labeling", 3, _FLOAT_HUGE),
        ("--sample", None, _FLOAT_HUGE),
    ],
    ids=[
        *(f"a{slot + 1}" for slot in range(9)), "a1-negative", "free-min", "sample",
        "a4-float", "sample-float",
    ],
)
def test_verify_shows_a_huge_integer_briefly(dump, catalog, capsys, field, slot, value):
    def edit(doc):
        if field == "labeling":
            tampers.first_standalone(doc)["labeling"][slot] = value
        elif field == "free_min":
            tampers.first_family(doc)["free_min"] = value

    tampers.write(dump, edit, catalog)
    sample = ["--sample", str(value)] if field == "--sample" else []
    assert main(["verify", str(catalog), *sample]) == 1
    lines = capsys.readouterr().err.splitlines()
    # realize's prefix of an inadmissible labeling, and its text after the
    # labels of one that fails its gate, are the texts beyond the bound.
    texts = [line.replace(_INADMISSIBLE, "").replace(_DEGENERATE, "") for line in lines]
    assert lines and max(map(len, texts)) <= 200
    assert not any(_LONG_RUN.search(line) for line in lines)


def test_realize_shows_a_huge_label_briefly(capsys):
    labels = ["2", "3", "2", str(_FLOAT_HUGE), "6", "2", "2", "2", "2"]
    assert main(["realize", *labels]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: no valid top circle for (2, 3, 2, {brief(_FLOAT_HUGE)}, 6,")
    assert not _LONG_RUN.search(err)


def test_realize_rejects_a_label_too_large_for_a_float(capsys):
    for huge in (10**399, 10**400):
        assert main(["realize", "2", "3", "2", str(huge), "6", "2", "2", "2", "2"]) == 2
        assert capsys.readouterr().err == "error: int too large to convert to float\n"


def _nodes(node, path=()):
    """The path of every node of a JSON tree, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, (*path, key))


_ODD_VALUES = [None, True, False, "x", [], {}, [1], {"a": 1}, 0, -1, 2, 1.5, 2.0]
_ODD_VALUES += [10**400, -(10**400)]
_ODD_VALUES += [1e308, -1e308, 5e-324, math.nan, math.inf]
_DELETE = object()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_verify_exits_cleanly_after_any_one_edit(small_dump, tmp_path_factory, data):
    doc = json.loads(small_dump)
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    deletable = [_DELETE] if path and isinstance(parent, dict) else []
    value = data.draw(st.sampled_from(_ODD_VALUES + deletable))
    if value is _DELETE:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = value
    else:
        doc = value
    file = tmp_path_factory.getbasetemp() / "edited.json"
    file.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", str(file)])
    assert code in (0, 1, 2)
    if code == 2:
        # Only a file the decoder rejects exits 2: a well-typed one fails by entry.
        first = err.getvalue().partition("\n")[0]
        decoder = ("error: catalog ", "error: a catalog is", "error: unsupported catalog schema")
        assert first.startswith(decoder), first


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# a new stage


@pytest.mark.parametrize(
    "position, stored_only", [(1, False), (3, True), (6, False)], ids=["second", "stored", "last"]
)
def test_a_stage_is_one_measurement_one_table_row_and_one_stages_row(
    catalog, capsys, monkeypatch, position, stored_only
):
    # A dummy stage that reads how far a1 is above 2, with a bound of 0.5: it
    # fails on every labeling with a1 = 3, the largest a1 in the catalog.
    def dummy(config, gens, fresh, memo, tag):
        return geometry.Check("dummy", ("a1",), (float(gens.labeling.a1 - 2),), (0.5,), tag)

    measures = list(cat._MEASURES)
    measures.insert(position, (dummy, stored_only))
    monkeypatch.setattr(cat, "_MEASURES", tuple(measures))
    stage = ("a1 is off by {residual:.3e}", "dummy residual", None)
    monkeypatch.setitem(geometry.STAGES, "dummy", stage)

    report = cat.verify_catalog(cat.load_catalog(str(catalog)))
    stored = ["drift", "angle", "generator", "determinant", "relation", "trace"]
    stored.insert(position, "dummy")
    sample = [s for s in stored if s not in ("drift", "generator", "dummy" if stored_only else "")]
    targets = [
        (tag, [check.stage for check in checks])
        for tag, checks in itertools.groupby(report.checks, key=lambda check: check.entry)
    ]
    assert len(targets) == 126
    assert sum(" at n=" not in tag and stages == stored for tag, stages in targets) == 78
    assert sum(" at n=" in tag and stages == sample for tag, stages in targets) == 48
    failed = [
        f"{check.entry}: a1 is off by {check.residuals[0]:.3e}"
        for check in report.checks
        if check.stage == "dummy" and check.residuals[0] > 0.5
    ]
    assert failed and [line for line in report.failures() if " a1 is off " in line] == failed

    assert main(["verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert "max dummy residual:    1.000e+00" in captured.out.splitlines()
    assert [line for line in captured.err.splitlines() if " a1 is off " in line] == [
        f"FAIL {line}" for line in failed
    ]


# ---------------------------------------------------------------------------
# the output contract across commits


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("enumerate", "f6301f87a631b0bda35c1ab1bf63029a0ddeaf7651192abc9e502a7eda1623a8"),
        (
            "enumerate --max-n 12",
            "0132ad72666fc4e081d64e01c7df50480bbc902d6dd163821e0fd94bfce1b117",
        ),
        (
            "matrices 2 4 3 5 4 2 2 2 2",
            "75bf0f6719b5bbaf3e7a29a9e47d2bc4447815f4eaaa6b2c0cf134b43301251c",
        ),
        (
            "enumerate -o FILE && verify FILE",
            "0b98f78d51f3f9d7584a6a38b8c04f391b48f5d7448c5a641cf567b9054fdeb5",
        ),
        (
            "enumerate --max-n 12 -o FILE && verify FILE",
            "b5d4e7eb381c53345758adc776442ae2350382e0292c8af0b02dbe6d49765402",
        ),
        (
            "enumerate -o FILE && verify FILE --sample 7 12 500",
            "5854226dca41dab201bd727aee82b71f247498e03102cb05fd642f81345105b6",
        ),
        (
            "matrices 2 6 2 7 3 2 2 3 2",
            "0bd82d17ce81e76ae0a45bf54bd81964378b9368de6b9350ff158b94a360ac68",
        ),
    ],
)
def test_stdout_keeps_its_bytes_across_commits(argv, digest, dump, dump_12, tmp_path, capsys):
    """The SHA-256 of each command's stdout, the same on Python 3.10 to 3.13.

    A change to the code under these commands must keep these bytes; only a
    deliberate change of the output contract updates a digest.  The catalog
    embeds ``prismcat.__version__`` in its provenance, so a version bump
    changes the two ``enumerate`` digests.  Where commands are joined by
    ``&&``, the first writes the catalog FILE the second reads, and only the
    second one's stdout is hashed; FILE holds the module's dump of that
    ``enumerate`` command, which is the text the command writes.
    """
    path = tmp_path / "catalog.json"
    writer, _, command = argv.rpartition(" && ")
    if writer:
        path.write_text({"enumerate -o FILE": dump, "enumerate --max-n 12 -o FILE": dump_12}[writer])
    assert main([str(path) if w == "FILE" else w for w in command.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "tamper, args, digest",
    [
        (
            None,
            ["--sample", "1000", "4500", "5000"],
            "d34b35f530e4229dda23f2ed0ea2e278ee9717109e8c177087c982264ad40c89",
        ),
        (
            "every_stage",
            [],
            "8c5c01cb914a6f0816e2974377be33e5c746fabf10deb3ea08245155c733f9b8",
        ),
    ],
    ids=["deep-samples", "every-stage"],
)
def test_failing_verify_keeps_its_bytes_across_commits(
    tamper, args, digest, dump, catalog, capsys
):
    """The SHA-256 of stdout then stderr of a ``verify`` of the ``enumerate`` dump that exits 1.

    ``tamper``, if given, names the row of ``tampers.TAMPERS`` whose edit the dump gets first.
    """
    if tamper:
        tampers.write(dump, tampers.TAMPERS[tamper].edit, catalog)
    assert main(["verify", str(catalog), *args]) == 1
    captured = capsys.readouterr()
    assert hashlib.sha256((captured.out + captured.err).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the parser

# main must parse each argv below as the parser of every command does: the
# usage argvs ask for help or are usage errors, the parser accepts the valid
# ones.  FILE is a small catalog, OUT a file to write and MISSING a path that
# is not there.
USAGE_ARGVS = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["-x"],
    ["bogus"], ["verif"],
    ["enumerate", "-h"], ["realize", "-h"], ["matrices", "-h"], ["verify", "-h"],
    ["verify", "--he"],
    ["verify"], ["enumerate", "--max-n"], ["realize", *FIX1[:8]], ["matrices", "--json"],
    ["verify", "FILE", "--sample", "x"], ["enumerate", "--cusp", "999"],
    ["verify", "x.json", "--bogus"], ["realize", *FIX1, "2"], ["enumerate", "verify"],
]
VALID_ARGVS = [
    ["verify", "--", "FILE"],
    ["verify", "MISSING"],
    ["realize", "2", "3", "2", "7", "5", "2", "2", "3", "2"],
    ["enumerate", "--cusp", "244", "-o", "OUT"],
    ["realize", *FIX1, "--json", "OUT"],
    ["matrices", *FIX1],
    ["verify", "FILE"],
    ["verify", "FILE", "--sample", "7"],
]


@pytest.fixture
def place_argv(small_catalog, tmp_path):
    """Put the paths of FILE, OUT and MISSING into an argv."""
    paths = {
        "FILE": str(small_catalog),
        "OUT": str(tmp_path / "out.json"),
        "MISSING": str(tmp_path / "missing.json"),
    }
    return lambda argv: [paths.get(arg, arg) for arg in argv]


def _outcome(argv, capsys):
    """The exit code, or the SystemExit code, stdout and stderr of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    return (code, *capsys.readouterr())


def _argv_id(argv):
    return " ".join(argv) or "no-argument"


def _count_parsers(monkeypatch):
    """The list that every ArgumentParser built from now on is appended to."""
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    return parsers


# build_parser without its cache: a fresh parser each call.
_fresh_parser = cli.build_parser.__wrapped__


@pytest.mark.parametrize("argv", USAGE_ARGVS + VALID_ARGVS, ids=_argv_id)
def test_main_parses_as_the_parser_of_every_command(argv, place_argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = place_argv(argv)
    got = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "build_parser", _fresh_parser)
    assert got == _outcome(argv, capsys)


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=_argv_id)
def test_main_gives_the_arguments_of_the_parser_of_every_command(argv, place_argv):
    argv = place_argv(argv)
    assert vars(cli.build_parser().parse_args(argv)) == vars(_fresh_parser().parse_args(argv))


# main runs each argv `calls` times in one process, from a cold cache.
@pytest.mark.parametrize(
    "argv,code,calls",
    [
        (["verify", "FILE", "--sample", "7"], 0, 2),
        (["enumerate", "--cusp", "333", "-o", "OUT"], 0, 2),
        (["realize", *FIX1], 0, 2),
        (["matrices", *FIX1], 0, 2),
        ([], ("SystemExit", 2), 5),
        (["-h"], ("SystemExit", 0), 5),
        (["bogus"], ("SystemExit", 2), 5),
    ],
)
def test_main_builds_the_full_parser_once_then_none(
    argv, code, calls, place_argv, monkeypatch, capsys
):
    monkeypatch.setenv("COLUMNS", "80")
    argv = place_argv(argv)
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "build_parser", _fresh_parser)
        expected = _outcome(argv, capsys)
    assert expected[0] == code

    parsers = _count_parsers(monkeypatch)
    _fresh_parser()
    full = len(parsers)
    del parsers[:]
    cli.build_parser.cache_clear()
    assert _outcome(argv, capsys) == expected
    # The first call builds the one full parser, whatever command argv names.
    assert len(parsers) == full
    assert [_outcome(argv, capsys) for _ in range(calls - 1)] == [expected] * (calls - 1)
    assert len(parsers) == full


# A sequence of main calls in one process: valid commands and usage errors.
SEQUENCE_ARGVS = [
    ["verify", "FILE", "--sample", "7"],
    ["bogus"],
    ["-h"],
    ["verify", "x.json", "--bogus"],
    ["realize", *FIX1],
]


def test_main_reuses_one_parser_across_calls(place_argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [place_argv(argv) for argv in SEQUENCE_ARGVS]
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "build_parser", _fresh_parser)
        expected = [_outcome(argv, capsys) for argv in argvs]

    parsers = _count_parsers(monkeypatch)
    cli.build_parser.cache_clear()
    first = _outcome(argvs[0], capsys)
    built = len(parsers)
    rest = [_outcome(argv, capsys) for argv in argvs[1:] + argvs]
    assert [first, *rest] == expected * 2
    # The first call builds the parser and its subcommands; no later call builds any.
    assert built > 0 and len(parsers) == built


# The usage line of each command, as a usage error prints it.  The tests
# above compare main with a fresh parser, so only a literal catches a renamed
# or reordered argument.  The full -h text differs between Pythons; these
# lines do not.
USAGE_LINES = {
    "enumerate --max-n":
        "usage: prismcat enumerate [-h] [--max-n N] [--cusp {236,244,333}] [-o FILE]",
    "realize 2": "usage: prismcat realize [-h] [--svg FILE] [--json FILE] a a a a a a a a a",
    "matrices 2": "usage: prismcat matrices [-h] [--json FILE] a a a a a a a a a",
    "verify": "usage: prismcat verify [-h] [--sample N [N ...]] FILE",
}


@pytest.mark.parametrize("argv,usage", USAGE_LINES.items(), ids=list(USAGE_LINES))
def test_each_command_keeps_its_usage_line(argv, usage, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(argv.split(), capsys)
    assert (code, out) == (("SystemExit", 2), "")
    assert err.splitlines()[0] == usage


def test_main_reads_sys_argv_without_an_argv(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(["matrices", *FIX1], capsys)
    monkeypatch.setattr(sys, "argv", ["prismcat", "matrices", *FIX1])
    assert _outcome(None, capsys) == expected
    monkeypatch.setattr(sys, "argv", ["prismcat", "verify", "x.json", "--bogus"])
    code, out, err = _outcome(None, capsys)
    assert (code, out) == (("SystemExit", 2), "")
    assert err.startswith("usage: prismcat [-h] {enumerate,realize,matrices,verify} ...\n")
