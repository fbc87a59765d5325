"""One run of one workload in a fresh interpreter; started by run.py.

Imports prismcat from the checkout's ``src``, builds the workload's inputs,
then runs its op list as a closed loop with one client: each op calls
``prismcat.cli.main(argv)`` in-process with stdout and stderr sent to a sink,
after a full ``gc.collect()`` outside the timed span.  The first op ends the
set-up; the remaining ops are the measured ones.  Prints one JSON object with
the per-op timings, the check outcomes and, when traced, the per-op layer
totals.

Times are scaled to a reference CPU speed.  The effective speed of a shared
host changes in phases of a second to minutes, by up to a third, which moves
raw wall times of identical runs further apart than any useful regression
bound.  So a fixed calibration workload (``calibrate``) is timed after every
op, and each op's wall time, with its layer times, is multiplied by
``CALIBRATION_REFERENCE_S`` over the median of the ``CALIBRATION_WINDOW``
calibrations nearest to it.  Set-up time is scaled by the calibration after
the first op.  The raw times are returned as well.

    python3 perfbench/worker.py --workload verify --seed 1 --ops 120 \\
        --workdir DIR --spawned-at PERF_COUNTER [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Typical calibrate() time on a 2-CPU x86-64 container; it sets the unit of
# the scaled times, which read close to raw wall times on that host.
CALIBRATION_REFERENCE_S = 0.006
# Calibrations per scale factor.  Wider windows average out the calibration's
# own jitter but blur the sharp speed changes that short ops see; five kept
# the p90 steadiest across the three workloads.
CALIBRATION_WINDOW = 5
_CALIBRATION_DOC = {
    "entries": [
        {"labeling": [2, 3, 2, i, 6, 2, 2, 2, 2], "re": i * 0.1234567, "im": -i / 7.0}
        for i in range(60)
    ]
}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def calibrate() -> float:
    """Wall seconds of a fixed workload that does not involve prismcat.

    Object creation, method calls, float and complex arithmetic, a dict and a
    JSON round trip: the kinds of work prismcat's ops spend their time on.
    The collector is off, so the time does not depend on the heap's size.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0.0
        items = []
        for i in range(2500):
            point = _Point(i * 0.5, complex(i, 1.0).imag)
            items.append((point, i))
            total += point.norm()
        table = {i: point for point, i in items}
        text = json.dumps(_CALIBRATION_DOC, indent=2)
        total += len(table) + len(json.loads(text)["entries"])
        return time.perf_counter() - start
    finally:
        gc.enable()


def load_cli() -> Callable:
    """``prismcat.cli.main`` imported from this checkout's sources."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from prismcat import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"prismcat was imported from {cli.__file__}, not from {src}")
    return cli.main


def run_op(cli_main: Callable, argv: list[str]) -> tuple[Optional[int], str, str, float]:
    """Exit code (None after an exception), stdout, stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_session(
    name: str,
    seed: int,
    count: int,
    workdir: Path,
    *,
    trace: bool = False,
    setup_only: bool = False,
    spawned_at: Optional[float] = None,
) -> dict:
    """Set up one workload and run its op list; see the module docstring."""
    if spawned_at is None:
        spawned_at = time.perf_counter()
    cli_main = load_cli()
    workload = workloads.make(name, workdir, seed)
    ops = workload.setup(cli_main, count)
    if setup_only:
        ops = ops[:1]

    tracer = spans.Tracer() if trace else None
    measured: list[tuple[float, dict, dict, float]] = []
    calibrations: list[float] = []
    failed = wrong = 0
    worst = 0.0
    reasons: list[str] = []
    raw_setup_s = None
    if tracer is not None:
        tracer.install()
    try:
        for index, argv in enumerate(ops):
            workload.prepare(argv)
            gc.collect()
            rc, stdout, stderr, elapsed = run_op(cli_main, argv)
            if index == 0:
                raw_setup_s = time.perf_counter() - spawned_at
            stats, counters, top = {}, {}, 0.0
            if tracer is not None:
                recorded, counters = tracer.take()
                stats, top = spans.self_times(recorded)
            if index == 0:
                # Set-up time is scaled by this reading alone, so steady it.
                calibrations.append(statistics.median(calibrate() for _ in range(3)))
            else:
                calibrations.append(calibrate())
                measured.append((elapsed, stats, counters, top))
            outcome = workload.check(rc, stdout)
            failed += outcome.failed
            wrong += outcome.wrong
            if outcome.residual_ratio > worst:
                worst = outcome.residual_ratio
            if outcome.failed and len(reasons) < 3:
                last = stderr.strip().splitlines()[-1:]
                reasons.append(f"{' '.join(argv)}: {outcome.reason} {''.join(last)}".strip())
    finally:
        if tracer is not None:
            tracer.uninstall()

    half = CALIBRATION_WINDOW // 2
    scales = [
        CALIBRATION_REFERENCE_S / statistics.median(calibrations[max(0, i - half) : i + half + 1])
        for i in range(1, len(calibrations))
    ]
    latencies = [elapsed * scale for (elapsed, *_), scale in zip(measured, scales)]
    layers = {f"{n}.calls": 0 for n in spans.SPAN_NAMES}
    layers.update({f"{n}.self_s": 0.0 for n in spans.SPAN_NAMES})
    layers.update(dict.fromkeys(spans.COUNTER_NAMES, 0))
    layers["cli.self_s"] = 0.0
    for (elapsed, stats, counters, top), scale in zip(measured, scales):
        for span_name, (calls, self_s) in stats.items():
            layers[f"{span_name}.calls"] += calls
            layers[f"{span_name}.self_s"] += self_s * scale
        for key, value in counters.items():
            layers[key] += value
        layers["cli.self_s"] += (elapsed - top) * scale

    numpy = sys.modules.get("numpy")
    return {
        "workload": name,
        "seed": seed,
        "setup_s": raw_setup_s * CALIBRATION_REFERENCE_S / calibrations[0],
        "latencies_s": latencies,
        "raw_setup_s": raw_setup_s,
        "raw_latencies_s": [elapsed for elapsed, *_ in measured],
        "calibration_s": statistics.median(calibrations),
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "max_residual_ratio": worst,
        "failure_examples": reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers if trace else None,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_session(
        args.workload,
        args.seed,
        args.ops,
        args.workdir,
        trace=args.trace,
        setup_only=args.setup_only,
        spawned_at=args.spawned_at,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
