"""Closed-loop benchmark of the prismcat command line.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run drives ``prismcat.cli.main(argv)``
in-process with one client on one workload (see workloads.py), checks every
op's output against references the benchmark holds itself, and prints, as
the last line of stdout, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment: Python and numpy versions, CPU count, pinned thread variables,
seed and op counts.

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing: op latency median and 90th percentile, throughput, the share of ops
that pass, the worst residual over its README bound, peak RSS of the
measuring process, and set-up time (fresh interpreter start until the first
op is done, median over several interpreters started one after another).
With ``--trace 1`` the same op list runs once untraced and once traced, each
in a fresh process, and the metrics are per-op layer totals from spans
around prismcat's public functions (see spans.py) plus the tracing overhead.

Times are wall-clock times scaled to a reference CPU speed by a calibration
workload timed after every op in the same process (see worker.py); the
environment line gives the raw medians and calibration times too.

Every workload runs in fresh processes, one after another, with numpy's
thread pools pinned to one thread.  The op count is fixed by the workload
and ``--seconds``, not by a time budget, so that counts and residuals repeat
exactly for a given seed.  ``correct`` is false when an op exits 0 while its
output contradicts a reference; ops that the program itself reports as
failing count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Fixed string hashing, so that set iteration order inside prismcat, and with
# it the work each op does, is the same in every process.
HASH_SEED = "0"

# Ops per second of each workload's loop, with the gc.collect(), calibration
# and output check between ops, on a 2-CPU x86-64 container; the op count of
# a run is this times --seconds.
NOMINAL_OPS_PER_S = {"enumerate": 5, "verify": 4, "family_deep": 32}
# The first op belongs to set-up; 110 measured ops leave 11 beyond the p90.
MIN_OPS = 111
MIN_TRACED_OPS = 31
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_rate": "ratio",
    "max_residual_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
_SPAN_METRICS = {
    "labelings.enumerate_catalog": ("self_ms",),
    "labelings.scan_admissible": ("self_ms",),
    "labelings.is_admissible": ("calls", "self_ms"),
    "moebius.verify_relations": ("calls", "self_ms"),
    "moebius.pow": ("calls", "self_ms"),
    "moebius.trace_check": ("self_ms",),
    "moebius.build_generators": ("self_ms",),
    "geometry.realize": ("calls", "self_ms"),
    "geometry.build_lines": ("self_ms",),
    "geometry.verify_config": ("calls", "self_ms"),
    "catalog.dumps_catalog": ("self_ms",),
    "catalog.load_catalog": ("self_ms",),
    "catalog.build_entry": ("calls", "self_ms"),
    "catalog.build_catalog": ("self_ms",),
    "catalog.verify_catalog": ("self_ms",),
}
PER_LAYER = {
    f"{span}.{kind}": "ms" if kind == "self_ms" else "count"
    for span, kinds in _SPAN_METRICS.items()
    for kind in kinds
}
PER_LAYER.update({
    "labelings.is_admissible.admitted_ratio": "ratio",
    "moebius.pow.products": "count",
    "geometry.verify_config.calls_per_entry": "ratio",
    "catalog.dump_catalog.bytes": "bytes",
    "catalog.load_catalog.bytes": "bytes",
    "catalog.verify_catalog.checked": "count",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
})


class BenchError(RuntimeError):
    """A worker process failed; the run has no result."""


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS, round(seconds * NOMINAL_OPS_PER_S[workload]))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONHASHSEED"] = HASH_SEED
    # Workers write no bytecode caches, so that nothing lands outside the
    # checkout and every set-up compiles prismcat the same way.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args: argparse.Namespace, ops: int, workdir: Path, deadline: float,
           *flags: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    spawned_at = time.perf_counter()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--ops", str(ops),
        "--workdir", str(workdir), "--spawned-at", repr(spawned_at), *flags,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(measure: dict, setup_samples: list[float]) -> dict[str, float]:
    latencies = measure["latencies_s"]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": _ms(statistics.median(latencies)),
        "op_p90_ms": _ms(statistics.quantiles(latencies, n=10)[-1]),
        "ok_rate": 1.0 - measure["failed"] / measure["attempted"],
        "max_residual_ratio": measure["max_residual_ratio"],
        "peak_rss_mb": measure["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    totals = traced["layers"]
    ops = len(traced["latencies_s"])
    metrics: dict[str, float] = {}
    for span, kinds in _SPAN_METRICS.items():
        if "calls" in kinds:
            metrics[f"{span}.calls"] = totals[f"{span}.calls"] / ops
        metrics[f"{span}.self_ms"] = _ms(totals[f"{span}.self_s"]) / ops
    admissible_calls = totals["labelings.is_admissible.calls"]
    entries = totals["catalog.build_entry.calls"] + totals["catalog.verify_catalog.checked"]
    metrics.update({
        "labelings.is_admissible.admitted_ratio":
            totals["labelings.is_admissible.admitted"] / admissible_calls,
        "moebius.pow.products": totals["moebius.pow.products"] / ops,
        "geometry.verify_config.calls_per_entry":
            totals["geometry.verify_config.calls"] / entries,
        "catalog.dump_catalog.bytes": totals["catalog.dump_catalog.bytes"] / ops,
        "catalog.load_catalog.bytes": totals["catalog.load_catalog.bytes"] / ops,
        "catalog.verify_catalog.checked": totals["catalog.verify_catalog.checked"] / ops,
        "cli.self_ms": _ms(totals["cli.self_s"]) / ops,
        "trace.overhead_ms": _ms(
            statistics.median(traced["latencies_s"])
            - statistics.median(untraced["latencies_s"])
        ),
    })
    return metrics


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    """The result line and the environment record of one run."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.trace:
        ops = max(MIN_TRACED_OPS, op_count(args.workload, args.seconds) // 2)
        untraced = _spawn(args, ops, workdir, deadline)
        traced = _spawn(args, ops, workdir, deadline, "--trace")
        measured, setups = [untraced, traced], []
        metrics, units = per_layer(untraced, traced), PER_LAYER
    else:
        ops = op_count(args.workload, args.seconds)
        # The first interpreter warms the file cache; its set-up time is not
        # kept.
        _spawn(args, ops, workdir, deadline, "--setup-only")
        setups = [
            _spawn(args, ops, workdir, deadline, "--setup-only")
            for _ in range(SETUP_SAMPLES - 1)
        ]
        measure = _spawn(args, ops, workdir, deadline)
        measured = [measure]
        samples = [r["setup_s"] for r in setups + measured]
        metrics, units = end_to_end(measure, samples), END_TO_END
    result = {
        "correct": not any(r["wrong"] for r in measured + setups),
        "attempted": sum(r["attempted"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    first = measured[0]
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_vars": THREAD_VARS,
        "pythonhashseed": HASH_SEED,
        "ops_per_process": ops,
        "measured_ops": [len(r["latencies_s"]) for r in measured],
        "setup_samples": 0 if args.trace else SETUP_SAMPLES,
        "calibration_ms": [_ms(r["calibration_s"]) for r in measured],
        "raw_op_p50_ms": [_ms(statistics.median(r["raw_latencies_s"])) for r in measured],
        "raw_setup_s": (
            statistics.median(r["raw_setup_s"] for r in setups + measured)
            if setups else None
        ),
        "failure_examples": [e for r in measured for e in r["failure_examples"]],
    }
    return result, environment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the prismcat CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "prismcat" / "cli.py").is_file():
        print(f"error: no prismcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result, environment = run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
