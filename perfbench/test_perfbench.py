"""Tests of the benchmark's own tracing, output checks and input generation."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_op_records_every_layer_of_its_workload(name, tmp_path):
    result = worker.run_session(name, seed=3, count=2, workdir=tmp_path, trace=True)
    layers = result["layers"]
    for span in workloads.LAYERS[name]:
        assert layers[f"{span}.calls"] > 0, span
    if name == "enumerate":
        assert layers["catalog.dump_catalog.bytes"] > 0
    else:
        assert layers["catalog.load_catalog.bytes"] > 0
        assert layers["catalog.verify_catalog.checked"] > 0
    # cli.self plus every span's self time adds up to the op wall time.
    total_self = layers["cli.self_s"] + sum(layers[f"{s}.self_s"] for s in spans.SPAN_NAMES)
    assert total_self == pytest.approx(sum(result["latencies_s"]), abs=1e-9)
    # The tracer put every binding back.
    from prismcat import catalog, cli, geometry, labelings, moebius

    assert cli.is_admissible is labelings.is_admissible
    assert catalog.realize is geometry.realize
    assert moebius.MoebiusMatrix.__dict__["pow"].__module__ == "prismcat.moebius"


def test_self_time_subtracts_direct_children():
    recorded = [
        ("outer", -1, 0.0, 10.0),
        ("inner", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("inner", 0, 5.0, 7.0),
        ("outer", -1, 11.0, 12.0),
    ]
    stats, top = spans.self_times(recorded)
    assert stats == {"outer": (2, 6.0), "inner": (2, 4.0), "leaf": (1, 1.0)}
    assert top == 11.0


def _enumerate_op(tmp_path):
    workload = workloads.Enumerate(tmp_path, seed=1)
    argv = workload.setup(worker.load_cli(), 1)[0]
    workload.prepare(argv)
    rc, stdout, _, _ = worker.run_op(worker.load_cli(), argv)
    return workload, rc, stdout


def test_enumerate_catalog_with_a_row_removed_fails(tmp_path):
    workload, rc, stdout = _enumerate_op(tmp_path)
    assert not workload.check(rc, stdout).failed

    payload = json.loads(workload.output.read_text())
    del payload["entries"][-1]
    workload.output.write_text(json.dumps(payload, indent=2) + "\n")
    outcome = workloads.Enumerate(tmp_path, seed=1).check(rc, stdout)
    assert outcome.failed and outcome.wrong
    assert "counts" in outcome.reason


def test_enumerate_bytes_must_match_the_first_op(tmp_path):
    workload, rc, stdout = _enumerate_op(tmp_path)
    assert not workload.check(rc, stdout).failed
    workload.output.write_bytes(workload.output.read_bytes().replace(b"  ", b"\t", 1))
    outcome = workload.check(rc, stdout)
    assert outcome.failed and "bytes" in outcome.reason


VERIFY_STDOUT = """checked 206 configurations
max angle residual:    1.000e-15
max relation residual: 2.000e-09
max trace residual:    3.000e-15
max determinant drift: 4.000e-16
max config drift:      0.000e+00
{verdict}
"""


def _verify_workload(tmp_path):
    workload = workloads.Verify(tmp_path, seed=1)
    workload.expected_checked = 206
    workload.max_order = 500
    return workload


def test_verify_fail_verdict_counts_as_failed(tmp_path):
    workload = _verify_workload(tmp_path)
    passing = workload.check(0, VERIFY_STDOUT.format(verdict="PASS"))
    assert not passing.failed
    assert passing.residual_ratio == pytest.approx(2e-9 / 1e-6)

    outcome = workload.check(1, VERIFY_STDOUT.format(verdict="FAIL"))
    assert outcome.failed and not outcome.wrong


def test_verify_pass_with_wrong_count_is_wrong(tmp_path):
    workload = _verify_workload(tmp_path)
    stdout = VERIFY_STDOUT.format(verdict="PASS").replace("checked 206", "checked 205")
    outcome = workload.check(0, stdout)
    assert outcome.failed and outcome.wrong


def test_op_exception_counts_as_failed(tmp_path):
    def broken(argv):
        raise KeyError("cusp")

    rc, stdout, stderr, _ = worker.run_op(broken, ["verify", "x"])
    assert rc is None and "KeyError" in stderr
    outcome = _verify_workload(tmp_path).check(rc, stdout)
    assert outcome.failed and not outcome.wrong


def test_family_n_values_are_a_seeded_order_of_one_grid():
    values = workloads.family_n_values(5, 600)
    assert values == workloads.family_n_values(5, 600)
    other = workloads.family_n_values(6, 600)
    assert values != other and sorted(values) == sorted(other)
    assert min(values) == workloads.FAMILY_N_MIN and max(values) == workloads.FAMILY_N_MAX
    # Log-uniform: about as many values in [7, 264] as in [264, 10^4].
    below = sum(n < 264.6 for n in values)
    assert abs(below - 300) <= 2


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
