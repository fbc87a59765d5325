"""The three workloads: their inputs, the CLI argv of each op, and output checks.

Every reference an op is checked against is held here, taken from the
README, and not imported from prismcat:

* ``enumerate`` -- ``prismcat enumerate -o FILE``.  The per-cusp family and
  specific counts must be 8+32 / 4+24 / 0+22, every stored residual must be
  within the README tolerance table, and the file bytes must equal those of
  the run's first op.
* ``verify`` -- ``prismcat verify FILE`` on a catalog written once at set-up
  by ``prismcat enumerate --max-n 12``.  The verdict must be ``PASS`` and
  ``checked N`` must equal the non-family rows plus the distinct default
  samples of each family row.
* ``family_deep`` -- ``prismcat verify FAMILIES --sample n`` on the 12 family
  pattern rows, filtered at set-up out of the enumerate output.  Each op
  checks one n of a log-uniform grid on [7, 10^4]; every family must be
  checked and the op must pass.

An op fails on a non-zero exit, an exception, or a failed check.  An op that
exits 0 while its output contradicts a reference is also *wrong*: the
program claimed a success it did not deliver.

The enumerate and verify commands read no input but the fixed catalog, so
their op lists are the same for every seed; the seed sets the order of the
family_deep sample values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

WORKLOADS = ("enumerate", "verify", "family_deep")

# README: "12 families plus 78 specific labelings".
EXPECTED_COUNTS = {"236": (8, 32), "244": (4, 24), "333": (0, 22)}
EXPECTED_SUMMARY = "12 families, 78 specific (C236: 8 + 32; C244: 4 + 24; C333: 0 + 22)"
EXPECTED_FAMILIES = 12
# The 90 rows plus each family expanded from its bound (6 or 7) up to 12.
EXPECTED_MAX12_ENTRIES = 170

# README tolerance table.
ANGLE_BOUND = 1e-9
RELATION_BOUND = 1e-7
RELATION_BOUND_LARGE = 1e-6
LARGE_ORDER = 100
TRACE_BOUND = 1e-8
DET_BOUND = 1e-10

# README: verify spot-checks each family at the bound, the bound plus 1 and
# 10, and 500.
DEFAULT_SAMPLE_OFFSETS = (0, 1, 10)
DEFAULT_SAMPLE_LARGE = 500

FAMILY_N_MIN = 7
FAMILY_N_MAX = 10_000

# Functions each workload must reach; the traced run records calls of each.
LAYERS = {
    "enumerate": (
        "labelings.enumerate_catalog", "labelings.scan_admissible",
        "labelings.is_admissible", "geometry.realize", "geometry.build_lines",
        "geometry.verify_config", "moebius.build_generators",
        "moebius.verify_relations", "moebius.trace_check", "moebius.pow",
        "catalog.build_entry", "catalog.build_catalog", "catalog.dumps_catalog",
    ),
    "verify": (
        "labelings.is_admissible", "geometry.realize", "geometry.build_lines",
        "geometry.verify_config", "moebius.build_generators",
        "moebius.verify_relations", "moebius.trace_check", "moebius.pow",
        "catalog.load_catalog", "catalog.verify_catalog",
    ),
}
LAYERS["family_deep"] = LAYERS["verify"]

_VERIFY_LINE = re.compile(
    r"^max (angle residual|relation residual|trace residual|determinant drift):\s+(\S+)$",
    re.MULTILINE,
)
_CHECKED_LINE = re.compile(r"^checked (\d+) configurations$", re.MULTILINE)


class SetupError(RuntimeError):
    """The workload's input could not be produced."""


@dataclass(frozen=True)
class Outcome:
    """The checked result of one op."""

    failed: bool
    wrong: bool
    residual_ratio: float
    reason: str = ""


def relation_bound(order: int) -> float:
    return RELATION_BOUND if order <= LARGE_ORDER else RELATION_BOUND_LARGE


def family_n_values(seed: int, count: int) -> list[int]:
    """``count`` free-slot values, log-uniform on [7, 10^4], in seeded order.

    The values are the midpoints of ``count`` equal strata of the log range,
    with the two ends pinned to 7 and 10^4; the seed shuffles their order.
    Which ops fail, and the run's worst residual, do not fall monotonically
    with n, so drawing the values themselves would make the failure count
    and ``max_residual_ratio`` differ from seed to seed.
    """
    lo, hi = math.log(FAMILY_N_MIN), math.log(FAMILY_N_MAX)
    width = (hi - lo) / count
    values = [round(math.exp(lo + (i + 0.5) * width)) for i in range(count)]
    values[0], values[-1] = FAMILY_N_MIN, FAMILY_N_MAX
    random.Random(seed).shuffle(values)
    return values


def _verify_ratio(stdout: str, max_order: int) -> float:
    """Worst residual printed by ``verify`` over its README bound.

    The relation residual is held to the bound of the highest order the op
    checks, since the printed maximum does not name its word.
    """
    bounds = {
        "angle residual": ANGLE_BOUND,
        "relation residual": relation_bound(max_order),
        "trace residual": TRACE_BOUND,
        "determinant drift": DET_BOUND,
    }
    ratios = [float(value) / bounds[key] for key, value in _VERIFY_LINE.findall(stdout)]
    return max(ratios) if len(ratios) == len(bounds) else math.nan


def _verdict(rc, stdout: str, expected_checked: int, max_order: int) -> Outcome:
    ratio = _verify_ratio(stdout, max_order)
    lines = stdout.strip().splitlines()
    checked = _CHECKED_LINE.search(stdout)
    problems = []
    if not lines or lines[-1] != "PASS":
        problems.append(f"verdict {lines[-1] if lines else None!r}")
    if checked is None or int(checked.group(1)) != expected_checked:
        problems.append(
            f"checked {checked.group(1) if checked else None}, expected {expected_checked}"
        )
    if math.isnan(ratio):
        problems.append("residual lines missing")
    return _outcome(rc, problems, ratio)


def _outcome(rc, problems: list[str], ratio: float) -> Outcome:
    if rc != 0:
        problems.insert(0, f"exit code {rc}")
    return Outcome(
        failed=bool(problems),
        wrong=rc == 0 and bool(problems),
        residual_ratio=ratio,
        reason="; ".join(problems),
    )


def _run_setup(cli_main: Callable, argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli_main(argv)
    if rc != 0:
        raise SetupError(f"prismcat {' '.join(argv)} exited {rc}: {sink.getvalue()[-500:]}")


class Enumerate:
    def __init__(self, workdir: Path, seed: int) -> None:
        self.output = workdir / "catalog.json"
        self.first_bytes: bytes | None = None

    def setup(self, cli_main: Callable, count: int) -> list[list[str]]:
        return [["enumerate", "-o", str(self.output)] for _ in range(count)]

    def prepare(self, argv: Sequence[str]) -> None:
        self.output.unlink(missing_ok=True)

    def check(self, rc, stdout: str) -> Outcome:
        problems: list[str] = []
        ratio = math.nan
        if stdout.strip() != EXPECTED_SUMMARY:
            problems.append(f"summary {stdout.strip()!r}")
        try:
            data = self.output.read_bytes()
            counts, ratio = _scan_catalog(json.loads(data)["entries"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return _outcome(rc, problems + [f"unreadable output: {exc!r}"], ratio)
        if counts != EXPECTED_COUNTS:
            problems.append(f"counts {counts}")
        if ratio > 1.0:
            problems.append(f"a stored residual exceeds its bound ({ratio:.3g}x)")
        if self.first_bytes is None:
            if not problems:
                self.first_bytes = data
        elif data != self.first_bytes:
            problems.append("file bytes differ from the first op's")
        return _outcome(rc, problems, ratio)


def _scan_catalog(entries: list[dict]) -> tuple[dict[str, tuple[int, int]], float]:
    """Per-cusp (families, specific) counts and the worst stored residual ratio."""
    counts: dict[str, list[int]] = {}
    ratios = [0.0]
    for entry in entries:
        pair = counts.setdefault(entry["cusp"], [0, 0])
        if entry["family"]:
            pair[0] += 1
            continue
        if entry["family_n"] is None:
            pair[1] += 1
        verification = entry["verification"]
        ratios += [r / ANGLE_BOUND for r in verification["angles"]]
        ratios += [
            r / relation_bound(order)
            for r, order in zip(verification["relations"], entry["labeling"])
        ]
        ratios += [r / TRACE_BOUND for r in verification["traces"]]
    return {cusp: tuple(pair) for cusp, pair in counts.items()}, max(ratios)


class Verify:
    def __init__(self, workdir: Path, seed: int) -> None:
        self.catalog = workdir / "catalog-max12.json"
        self.expected_checked = 0
        self.max_order = 0

    def setup(self, cli_main: Callable, count: int) -> list[list[str]]:
        _run_setup(cli_main, ["enumerate", "--max-n", "12", "-o", str(self.catalog)])
        entries = json.loads(self.catalog.read_text(encoding="utf-8"))["entries"]
        counts, _ = _scan_catalog(entries)
        if counts != EXPECTED_COUNTS or len(entries) != EXPECTED_MAX12_ENTRIES:
            raise SetupError(f"enumerate --max-n 12 gave {len(entries)} entries, {counts}")
        for entry in entries:
            if entry["family"]:
                fm = entry["free_min"]
                samples = {fm + off for off in DEFAULT_SAMPLE_OFFSETS}
                samples.add(max(DEFAULT_SAMPLE_LARGE, fm))
                self.expected_checked += len(samples)
                self.max_order = max(self.max_order, *samples)
            else:
                self.expected_checked += 1
                self.max_order = max(self.max_order, *entry["labeling"])
        return [["verify", str(self.catalog)] for _ in range(count)]

    def prepare(self, argv: Sequence[str]) -> None:
        pass

    def check(self, rc, stdout: str) -> Outcome:
        return _verdict(rc, stdout, self.expected_checked, self.max_order)


class FamilyDeep:
    def __init__(self, workdir: Path, seed: int) -> None:
        self.families = workdir / "families.json"
        self.seed = seed
        self.free_min: list[int] = []
        self.fixed_max = 0
        self.sample = 0

    def setup(self, cli_main: Callable, count: int) -> list[list[str]]:
        full = self.families.with_name("catalog-full.json")
        _run_setup(cli_main, ["enumerate", "-o", str(full)])
        payload = json.loads(full.read_text(encoding="utf-8"))
        full.unlink()
        payload["entries"] = [e for e in payload["entries"] if e["family"]]
        if len(payload["entries"]) != EXPECTED_FAMILIES:
            raise SetupError(f"enumerate gave {len(payload['entries'])} family rows")
        self.families.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        self.free_min = [e["free_min"] for e in payload["entries"]]
        self.fixed_max = max(v for e in payload["entries"] for v in e["labeling"] if v)
        return [
            ["verify", str(self.families), "--sample", str(n)]
            for n in family_n_values(self.seed, count)
        ]

    def prepare(self, argv: Sequence[str]) -> None:
        self.sample = int(argv[argv.index("--sample") + 1])

    def check(self, rc, stdout: str) -> Outcome:
        n = self.sample
        expected = sum(1 for fm in self.free_min if fm <= n)
        return _verdict(rc, stdout, expected, max(n, self.fixed_max))


def make(name: str, workdir: Path, seed: int):
    return {"enumerate": Enumerate, "verify": Verify, "family_deep": FamilyDeep}[name](
        workdir, seed
    )

