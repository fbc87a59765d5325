"""Catalog entries and their JSON persistence (schema ``prism-catalog/1``).

An entry bundles a labeling with everything the pipeline derives from it: the
planar configuration, the four generators, and the verification residuals.
Family rows carry only the pattern (free slot as ``null``) plus its lower
bound -- a one-parameter family has no single realization -- while expanded
family instances and standalone labelings carry the full payload.  Complex
numbers serialize as ``{"re": ..., "im": ...}`` pairs and floats rely on
shortest round-trip repr, so parsing a dump reproduces every double bit for
bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import IO, Callable, Iterable, Optional, Sequence, Union

from . import geometry, moebius
from .geometry import PlanarCircle, PlanarConfig, PlanarLine, realize, verify_config
from .labelings import (
    CUSP_ORDER,
    CatalogItem,
    CuspType,
    Labeling,
    enumerate_catalog,
)
from .moebius import (
    GeneratorSet,
    MoebiusMatrix,
    build_generators,
    trace_check,
    verify_relations,
)

SCHEMA = "prism-catalog/1"
TOOL_NAME = "prismcat"

# Thresholds the pipeline was verified against, recorded in every dump.
TOLERANCES: dict[str, float] = {
    "construction": geometry.CONSTRUCTION_TOL,
    "angle": geometry.ANGLE_TOL,
    "relation": moebius.RELATION_TOL,
    "relation_large_power": moebius.RELATION_TOL_LARGE,
    "large_exponent": moebius.LARGE_EXPONENT,
    "trace": moebius.TRACE_TOL,
    "determinant": moebius.DET_TOL,
}

# Default free-slot values at which a family is spot-checked: the bound, its
# two nearest successors of interest, and a deliberately large power.
FAMILY_SAMPLE_OFFSETS = (0, 1, 10)
FAMILY_SAMPLE_LARGE = 500


@dataclass(frozen=True)
class Verification:
    """The nine angle, relation and trace residuals of a verified entry."""

    angles: tuple[float, ...]
    relations: tuple[float, ...]
    traces: tuple[float, ...]


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog record: a family pattern, a family instance, or a standalone.

    ``labeling`` holds nine labels with ``None`` in the free slot of a family
    pattern.  Instances keep their parent's ``free_slot``/``free_min`` and
    record the substituted value in ``family_n``.
    """

    labeling: tuple[Optional[int], ...]
    cusp: CuspType
    family: bool
    free_slot: Optional[int] = None
    free_min: Optional[int] = None
    family_n: Optional[int] = None
    config: Optional[PlanarConfig] = None
    generators: Optional[GeneratorSet] = None
    verification: Optional[Verification] = None

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (
            CUSP_ORDER.index(self.cusp),
            tuple(0 if v is None else v for v in self.labeling),
        )


def build_entry(labeling: Sequence[int], **metadata) -> CatalogEntry:
    """Run the full pipeline on one labeling and bundle the results."""
    lab = Labeling(*labeling)
    config = realize(lab)
    gens = build_generators(lab, config)
    verification = Verification(
        angles=tuple(check.residual for check in verify_config(lab, config).checks),
        relations=tuple(check.residual for check in verify_relations(gens).checks),
        traces=tuple(check.residual for check in trace_check(gens).checks),
    )
    return CatalogEntry(
        labeling=tuple(lab),
        cusp=CuspType.of(lab),
        family=False,
        config=config,
        generators=gens,
        verification=verification,
        **metadata,
    )


def build_catalog(
    items: Optional[Sequence[CatalogItem]] = None,
    max_n: Optional[int] = None,
    cusp: Optional[CuspType] = None,
) -> list[CatalogEntry]:
    """Catalog entries for the given items (default: the full enumeration).

    Family items become pattern rows; with ``max_n`` each family additionally
    expands into fully verified instances for free_min..max_n.  Standalone
    items always carry the full payload.
    """
    if items is None:
        items = enumerate_catalog()
    entries: list[CatalogEntry] = []
    for item in items:
        if cusp is not None and item.cusp is not cusp:
            continue
        if item.family:
            entries.append(
                CatalogEntry(
                    labeling=item.slots,
                    cusp=item.cusp,
                    family=True,
                    free_slot=item.free_slot,
                    free_min=item.free_min,
                )
            )
            if max_n is not None:
                for n in range(item.free_min, max_n + 1):
                    entries.append(
                        build_entry(
                            item.instantiate(n),
                            free_slot=item.free_slot,
                            free_min=item.free_min,
                            family_n=n,
                        )
                    )
        else:
            entries.append(build_entry(item.labeling))
    entries.sort(key=CatalogEntry.sort_key)
    return entries


# ---------------------------------------------------------------------------
# JSON encoding


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _complex_from(d: dict) -> complex:
    return complex(d["re"], d["im"])


def _matrix_json(m: MoebiusMatrix) -> list:
    return [[_complex_json(m.a), _complex_json(m.b)], [_complex_json(m.c), _complex_json(m.d)]]


def _matrix_from(rows: list) -> MoebiusMatrix:
    return MoebiusMatrix.of(
        _complex_from(rows[0][0]),
        _complex_from(rows[0][1]),
        _complex_from(rows[1][0]),
        _complex_from(rows[1][1]),
    )


def _line_json(line: PlanarLine) -> dict:
    return {"normal": [line.nx, line.ny], "offset": line.d}


def _line_from(d: dict) -> PlanarLine:
    return PlanarLine(d["normal"][0], d["normal"][1], d["offset"])


def _circle_json(circle: PlanarCircle) -> dict:
    return {"center": [circle.cx, circle.cy], "radius": circle.r}


def _circle_from(d: dict) -> PlanarCircle:
    return PlanarCircle(d["center"][0], d["center"][1], d["radius"])


def _config_json(config: PlanarConfig) -> dict:
    return {
        "a3_branch": config.a3_branch,
        "red": _line_json(config.red),
        "green": _line_json(config.green),
        "blue": _line_json(config.blue),
        "back": _circle_json(config.back),
        "top": _circle_json(config.top),
    }


def _config_from(d: dict) -> PlanarConfig:
    return PlanarConfig(
        red=_line_from(d["red"]),
        green=_line_from(d["green"]),
        blue=_line_from(d["blue"]),
        back=_circle_from(d["back"]),
        top=_circle_from(d["top"]),
        a3_branch=d["a3_branch"],
    )


def _generators_json(gens: GeneratorSet) -> dict:
    return {
        "m1": _matrix_json(gens.m1),
        "m2": _matrix_json(gens.m2),
        "m3": _matrix_json(gens.m3),
        "m4": _matrix_json(gens.m4),
        "theta1": gens.theta1,
        "theta2": gens.theta2,
        "fixed1": _complex_json(gens.fixed1),
        "fixed2": _complex_json(gens.fixed2),
    }


def _generators_from(d: dict, labeling: Labeling, top: PlanarCircle) -> GeneratorSet:
    return GeneratorSet(
        labeling=labeling,
        m1=_matrix_from(d["m1"]),
        m2=_matrix_from(d["m2"]),
        m3=_matrix_from(d["m3"]),
        m4=_matrix_from(d["m4"]),
        theta1=d["theta1"],
        theta2=d["theta2"],
        fixed1=_complex_from(d["fixed1"]),
        fixed2=_complex_from(d["fixed2"]),
        top=top,
    )


def entry_to_json(entry: CatalogEntry) -> dict:
    record: dict = {
        "labeling": list(entry.labeling),
        "cusp": entry.cusp.code,
        "family": entry.family,
        "free_slot": entry.free_slot,
        "free_min": entry.free_min,
        "family_n": entry.family_n,
        "config": _config_json(entry.config) if entry.config else None,
        "generators": _generators_json(entry.generators) if entry.generators else None,
        "verification": None,
    }
    if entry.verification:
        record["verification"] = {
            "angles": list(entry.verification.angles),
            "relations": list(entry.verification.relations),
            "traces": list(entry.verification.traces),
        }
    return record


def _decode_field(record: dict, name: str, decode: Callable, optional: bool = False):
    """``decode(record[name])``, with any failure a ValueError naming the field.

    An optional field that is absent or empty decodes to None.
    """
    value = record.get(name)
    if optional and not value:
        return None
    if name not in record:
        raise ValueError(f"field {name!r} is missing")
    try:
        return decode(value)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r} is malformed ({type(exc).__name__}: {exc})") from exc


def _labeling_from(values: list) -> tuple[Optional[int], ...]:
    labels = tuple(values)
    if len(labels) != 9:
        raise ValueError(f"expected 9 labels, got {len(labels)}")
    return labels


def _verification_from(d: dict) -> Verification:
    return Verification(
        angles=tuple(d["angles"]),
        relations=tuple(d["relations"]),
        traces=tuple(d["traces"]),
    )


def entry_from_json(record: dict) -> CatalogEntry:
    """Decode one catalog record; a malformed field raises ValueError naming it."""
    if not isinstance(record, dict):
        raise ValueError(f"expected an object, got {type(record).__name__}")
    labeling = _decode_field(record, "labeling", _labeling_from)
    config = _decode_field(record, "config", _config_from, optional=True)
    generators = None
    if record.get("generators"):
        if config is None:
            raise ValueError("generators without a configuration")
        generators = _decode_field(
            record,
            "generators",
            lambda d: _generators_from(d, Labeling(*labeling), config.top),
        )
    return CatalogEntry(
        labeling=labeling,
        cusp=_decode_field(record, "cusp", CuspType.from_code),
        family=_decode_field(record, "family", bool),
        free_slot=record.get("free_slot"),
        free_min=record.get("free_min"),
        family_n=record.get("family_n"),
        config=config,
        generators=generators,
        verification=_decode_field(record, "verification", _verification_from, optional=True),
    )


def catalog_to_json(entries: Iterable[CatalogEntry]) -> dict:
    from . import __version__

    return {
        "schema": SCHEMA,
        "provenance": {
            "tool": TOOL_NAME,
            "version": __version__,
            "tolerances": TOLERANCES,
        },
        "entries": [entry_to_json(entry) for entry in entries],
    }


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(value, newline: str, out: Callable[[str], None]) -> None:
    """Pass ``value`` to ``out`` in pieces, as ``json.dumps(value, indent=2)``.

    ``newline`` is a line break followed by the indentation of the line
    ``value`` starts on.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        out(_NONFINITE.get(text, text))
    elif isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, list):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_catalog(entries: Iterable[CatalogEntry]) -> str:
    """The catalog document as JSON text indented by two spaces, ending in a newline.

    The text is the same, byte for byte, as ``json.dumps(doc, indent=2)``
    plus a newline.  It is not made by that call because, with ``indent``
    set, CPython before 3.13 bypasses its C encoder for the pure-Python
    one, which spends most of its time resuming nested generators; on
    CPython 3.11 the recursive writer above takes about two thirds of its
    time for the same text.
    """
    pieces: list[str] = []
    _write_json(catalog_to_json(entries), "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def dump_catalog(entries: Iterable[CatalogEntry], fp: Union[str, IO[str]]) -> None:
    text = dumps_catalog(entries)
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        fp.write(text)


def load_catalog(fp: Union[str, IO[str]]) -> list[CatalogEntry]:
    if isinstance(fp, str):
        with open(fp, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.load(fp)
    if not isinstance(payload, dict):
        raise ValueError(
            "a catalog is a JSON object with fields 'schema' and 'entries', "
            f"got {type(payload).__name__}"
        )
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported catalog schema {payload.get('schema')!r}; expected {SCHEMA!r}"
        )
    if "entries" not in payload:
        raise ValueError("catalog field 'entries' is missing")
    records = payload["entries"]
    if not isinstance(records, list):
        raise ValueError(f"catalog field 'entries' must be a list, got {type(records).__name__}")
    entries = []
    for index, record in enumerate(records):
        try:
            entries.append(entry_from_json(record))
        except ValueError as exc:
            raise ValueError(f"catalog entry {index}: {exc}") from exc
    return entries


# ---------------------------------------------------------------------------
# Verification sweep


@dataclass(frozen=True)
class SweepReport:
    """Result of re-verifying a catalog file end to end."""

    entries_checked: int
    max_angle: float
    max_relation: float
    max_trace: float
    max_det_drift: float
    max_config_drift: float
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _family_samples(free_min: int, samples: Optional[Sequence[int]]) -> list[int]:
    if samples is None:
        values = [free_min + off for off in FAMILY_SAMPLE_OFFSETS]
        values.append(max(FAMILY_SAMPLE_LARGE, free_min))
    else:
        values = [n for n in samples if n >= free_min]
    return sorted(set(values))


def verify_catalog(
    entries: Sequence[CatalogEntry],
    samples: Optional[Sequence[int]] = None,
) -> SweepReport:
    """Re-realize and re-verify every entry of a catalog.

    Standalone and instance entries are checked four ways: the stored
    configuration must reproduce all nine edge angles, a fresh realization
    must agree with the stored circle (config drift), the stored generators
    must satisfy all nine relations and trace identities, and their
    determinants must still be 1.  Family pattern rows are spot-checked at
    the sampled free-slot values (default: free_min, +1, +10, and 500).
    """
    checked = 0
    max_angle = max_relation = max_trace = max_det = max_drift = 0.0
    failures: list[str] = []

    def check_full(lab: Labeling, tag: str, entry: Optional[CatalogEntry]) -> None:
        nonlocal checked, max_angle, max_relation, max_trace, max_det, max_drift
        checked += 1
        try:
            fresh = realize(lab)
        except (ValueError, geometry.RealizationError) as exc:
            failures.append(f"{tag}: realization failed: {exc}")
            return
        if entry is not None and entry.config is not None:
            stored = entry.config
            report = verify_config(lab, stored)
            max_angle = max(max_angle, report.max_residual)
            if not report.ok:
                bad = ", ".join(c.name for c in report.failures())
                failures.append(f"{tag}: stored configuration fails on {bad}")
            drift = max(
                abs(stored.top.cx - fresh.top.cx),
                abs(stored.top.cy - fresh.top.cy),
                abs(stored.top.r - fresh.top.r),
            )
            max_drift = max(max_drift, drift)
            if drift > geometry.ANGLE_TOL:
                failures.append(f"{tag}: stored circle drifts from recomputation by {drift:.3e}")
            gens = entry.generators
            if gens is None:
                failures.append(f"{tag}: entry has no generators")
                return
        else:
            report = verify_config(lab, fresh)
            max_angle = max(max_angle, report.max_residual)
            if not report.ok:
                failures.append(f"{tag}: realization fails angle verification")
            gens = build_generators(lab, fresh)
        singular = []
        for name, matrix in (("M1", gens.m1), ("M2", gens.m2), ("M3", gens.m3), ("M4", gens.m4)):
            det = matrix.det
            drift = abs(det - 1.0)
            max_det = max(max_det, drift)
            if drift > moebius.DET_TOL:
                failures.append(f"{tag}: {name} determinant drifts by {drift:.3e}")
            if det == 0:
                singular.append(name)
        if singular:
            # The relation words need the inverses of the generators.
            failures.append(
                f"{tag}: {', '.join(singular)} singular, so relations and traces"
                " cannot be checked"
            )
            return
        relations = verify_relations(gens)
        max_relation = max(max_relation, relations.max_residual)
        if not relations.ok:
            bad = ", ".join(c.edge for c in relations.checks if not c.ok)
            failures.append(f"{tag}: relations fail on {bad}")
        traces = trace_check(gens)
        max_trace = max(max_trace, traces.max_residual)
        if not traces.ok:
            bad = ", ".join(c.edge for c in traces.checks if not c.ok)
            failures.append(f"{tag}: trace checks fail on {bad}")

    for entry in entries:
        label_text = " ".join("n" if v is None else str(v) for v in entry.labeling)
        if entry.family:
            assert entry.free_slot is not None and entry.free_min is not None
            for n in _family_samples(entry.free_min, samples):
                values = list(entry.labeling)
                values[entry.free_slot] = n
                check_full(Labeling(*values), f"[{label_text}] at n={n}", None)
        else:
            check_full(Labeling(*entry.labeling), f"[{label_text}]", entry)

    return SweepReport(
        entries_checked=checked,
        max_angle=max_angle,
        max_relation=max_relation,
        max_trace=max_trace,
        max_det_drift=max_det,
        max_config_drift=max_drift,
        failures=tuple(failures),
    )
