"""Command-line interface.

Four subcommands cover the pipeline: ``enumerate`` writes the catalog as
JSON, ``realize`` solves a single labeling and reports the configuration,
``matrices`` prints the generators with their relation residuals, and
``verify`` re-checks a previously written catalog file.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage or
domain errors (bad arguments, inadmissible labelings).  ``enumerate``,
``realize`` and ``matrices`` build entries and check each one once; a failed
check is a ``FAIL [labels]: ...`` line on stderr and exit code 1, after the
output is written.

The parser is built once per process, on the first ``main`` call, and every
later call parses with it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterable, Optional, Sequence

from . import catalog as cat
from .geometry import STAGES, RealizationError, Report, _worst
from .labelings import (
    EXPECTED_COUNTS,
    CuspType,
    Labeling,
    catalog_counts,
    enumerate_catalog,
    # Not called here, since realize decides admissibility; perfbench's tracer
    # test checks that this binding is restored.
    is_admissible,  # noqa: F401
)
from .moebius import WORD_NAMES, traces
from .svg import write_svg


def _sig(value: float) -> str:
    return f"{value:.15g}"


def _cpx(z: complex) -> str:
    return f"{_sig(z.real)}{'+' if z.imag >= 0 else '-'}{_sig(abs(z.imag))}i"


def _matrix_lines(name: str, m) -> str:
    return f"{name} = [[{_cpx(m.a)}, {_cpx(m.b)}], [{_cpx(m.c)}, {_cpx(m.d)}]]"


def _print_config(entry: cat.CatalogEntry, out) -> None:
    config = entry.config
    print("labeling:", " ".join(str(v) for v in entry.labeling), file=out)
    print("cusp:", entry.cusp.code, file=out)
    red_x = config.red.d * config.red.nx
    print(f"{'red:':<7}vertical line x = {_sig(red_x)}", file=out)
    for name in ("green", "blue"):
        line = getattr(config, name)
        slope, intercept = line.slope_intercept()
        sign = "+" if intercept >= 0 else "-"
        print(
            f"{name + ':':<7}y = {_sig(slope)}*x {sign} {_sig(abs(intercept))}"
            f"  (normal [{_sig(line.nx)}, {_sig(line.ny)}], offset {_sig(line.d)})",
            file=out,
        )
    for name in ("back", "top"):
        circle = getattr(config, name)
        center = f"({_sig(circle.cx)}, {_sig(circle.cy)})"
        print(f"{name + ':':<7}circle center {center} radius {_sig(circle.r)}", file=out)


def _print_failures(failures: Iterable[str]) -> int:
    """Print each failure as a FAIL line on stderr; the exit code, 1 if there were any."""
    code = 0
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
        code = 1
    return code


def _build(args: argparse.Namespace) -> tuple[cat.CatalogEntry, Report, dict]:
    """The entry of ``args.labels``, its report and word memo; written to ``args.json`` if given."""
    memo: dict = {}
    entry, report = cat.build_entry(Labeling(*args.labels), memo=memo)
    if args.json:
        cat.dump_catalog([entry], args.json)
    return entry, report, memo


def cmd_enumerate(args: argparse.Namespace) -> int:
    shown = [CuspType.from_code(args.cusp)] if args.cusp else list(CuspType)
    rows = [row for row in enumerate_catalog() if row.cusp in shown]
    entries, failures = cat.build_catalog(rows, max_n=args.max_n)

    # build_catalog keeps each row as one pattern or standalone entry, so the
    # rows give the entries' counts.
    counts = catalog_counts(rows)
    parts = "; ".join(f"C{c.code}: {counts[c][0]} + {counts[c][1]}" for c in shown)
    families = sum(counts[c][0] for c in shown)
    specific = sum(counts[c][1] for c in shown)
    summary = f"{families} families, {specific} specific ({parts})"

    if args.output:
        cat.dump_catalog(entries, args.output)
        print(summary)
    else:
        cat.dump_catalog(entries, sys.stdout)
        print(summary, file=sys.stderr)

    code = _print_failures(failures)
    for c in shown:
        got, expected = counts[c], EXPECTED_COUNTS[c]
        if got != expected:
            print(
                f"count mismatch for C{c.code}: got {got[0]} families"
                f" + {got[1]} specific, expected {expected[0]} + {expected[1]}",
                file=sys.stderr,
            )
            return 1
    return code


def cmd_realize(args: argparse.Namespace) -> int:
    entry, report, _ = _build(args)
    _print_config(entry, sys.stdout)
    if args.svg:
        write_svg(entry.config, args.svg, entry.labeling)
    return _print_failures(report.failures())


def cmd_matrices(args: argparse.Namespace) -> int:
    """Print the generators, and each relation word against the relation and trace records."""
    entry, report, memo = _build(args)
    gens = entry.generators
    for name, matrix in gens.named():
        print(_matrix_lines(name, matrix))
    checks = {check.stage: check for check in report.checks}
    relations, traced = checks["relation"], checks["trace"]
    print("relations:")
    rows = zip(relations.edges, WORD_NAMES, gens.labeling, relations.residuals, relations.tol)
    for edge, word, exponent, residual, tol in rows:
        status = "ok" if residual <= tol else "FAIL"
        print(f"  {edge}: ({word})^{exponent}  residual {residual:.3e}  {status}")
    print("traces:")
    rows = zip(traced.edges, WORD_NAMES, traces(gens, memo=memo), traced.residuals, traced.tol)
    for edge, word, (measured, expected), residual, tol in rows:
        status = "ok" if residual <= tol else "FAIL"
        print(
            f"  {edge}: |tr {word}| = {_sig(measured)}"
            f"  expected {_sig(expected)}  residual {residual:.3e}  {status}"
        )
    return _print_failures(report.failures())


def cmd_verify(args: argparse.Namespace) -> int:
    report = cat.verify_catalog(cat.load_catalog(args.catalog), samples=args.sample)
    print(f"checked {report.entries_checked} configurations")
    # Report.max_residual(stage) of each named stage, from one walk over the records.
    residuals: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for check in report.checks:
        residuals.setdefault(check.stage, []).extend(check.residuals)
    for stage, (_, name, _) in STAGES.items():
        if name:
            print(f"max {name + ':':<19}{_worst(residuals[stage]):.3e}")
    code = _print_failures(report.failures())
    print("FAIL" if code else "PASS")
    return code


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``prismcat`` and its subcommands."""
    parser = argparse.ArgumentParser(
        prog="prismcat",
        description=(
            "Enumerate, realize and verify hyperbolic triangular prisms "
            "with one ideal vertex."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="write the catalog as JSON")
    p_enum.add_argument("--max-n", type=int, default=None, metavar="N",
                        help="expand each family into instances up to N")
    p_enum.add_argument("--cusp", choices=[c.code for c in CuspType], default=None,
                        help="restrict to one cusp type")
    p_enum.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write JSON here instead of stdout")
    p_enum.set_defaults(func=cmd_enumerate)

    p_real = sub.add_parser("realize", help="solve one labeling")
    p_real.add_argument("labels", type=int, nargs=9, metavar="a")
    p_real.add_argument("--svg", default=None, metavar="FILE",
                        help="write an SVG rendering of the configuration")
    p_real.add_argument("--json", default=None, metavar="FILE",
                        help="write the full catalog entry as JSON")
    p_real.set_defaults(func=cmd_realize)

    p_mat = sub.add_parser("matrices", help="print generators and relations")
    p_mat.add_argument("labels", type=int, nargs=9, metavar="a")
    p_mat.add_argument("--json", default=None, metavar="FILE",
                       help="write the full catalog entry as JSON")
    p_mat.set_defaults(func=cmd_matrices)

    p_ver = sub.add_parser("verify", help="re-verify a catalog file")
    p_ver.add_argument("catalog", metavar="FILE")
    p_ver.add_argument("--sample", type=int, nargs="+", default=None, metavar="N",
                       help="free-slot values for spot-checking families"
                            " (values below a family's bound are skipped)")
    p_ver.set_defaults(func=cmd_verify)
    return parser


_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OverflowError, RealizationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
