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
import math
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import IO, Callable, Iterable, Optional, Sequence, Union

from . import geometry, moebius
from .geometry import (
    Check,
    PlanarCircle,
    PlanarConfig,
    PlanarLine,
    Report,
    realize,
    verify_config,
)
from .labelings import (
    CatalogEntry,
    CuspType,
    Labeling,
    catalog_order,
    symmetry_mate,
)
from .moebius import (
    GeneratorSet,
    MoebiusMatrix,
    build_generators,
    rotation_parameters,
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


# The stages whose residuals an entry stores, by the field they are stored in,
# in the order check_entry runs them.
VERIFIED_STAGES = {"angles": "angle", "relations": "relation", "traces": "trace"}


def label_tag(labeling: Sequence[Optional[int]]) -> str:
    """How failure messages name an entry: its labels in brackets, n for a free slot."""
    return "[" + " ".join("n" if v is None else str(v) for v in labeling) + "]"


def check_entry(
    config: PlanarConfig, gens: GeneratorSet, *, entry: str = "", memo: dict | None = None
) -> Report:
    """Every check of one realized labeling, ``gens.labeling``, as rows of one report.

    The nine edge angles of the configuration, the generators' rotation
    half-angles and centers recomputed from it, the four determinants, and
    the nine relation words and trace identities.  The relation words need
    the generators' inverses, so a singular generator ends the report with
    an error instead of those two stages.  Every row carries ``entry`` as
    its entry tag, and the error starts with it the way a failure of a
    tagged row does.  ``memo`` goes to ``verify_relations``.
    """
    lab = gens.labeling
    checks = list(verify_config(lab, config, entry=entry).checks)
    for name, expected in rotation_parameters(lab, config).items():
        residual = abs(getattr(gens, name) - expected)
        checks.append(Check("generator", name, residual, 0.0, geometry.CONSTRUCTION_TOL, entry))
    singular = []
    for name, matrix in gens.named():
        det = matrix.det
        checks.append(Check("determinant", name, abs(det - 1.0), 0.0, moebius.DET_TOL, entry))
        if det == 0:
            singular.append(name)
    if singular:
        error = f"{', '.join(singular)} singular, so relations and traces cannot be checked"
        return Report(tuple(checks), errors=(f"{entry}: {error}" if entry else error,))
    checks += verify_relations(gens, entry=entry, memo=memo).checks
    checks += trace_check(gens, entry=entry).checks
    return Report(tuple(checks))


def _stored_rows(report: Report) -> dict[str, list[Check]]:
    """The report's rows whose residuals an entry stores, by field, in one pass.

    The fields come in ``VERIFIED_STAGES`` order and each field's rows in
    report order.
    """
    rows: dict[str, list[Check]] = {field: [] for field in VERIFIED_STAGES}
    by_stage = {stage: rows[field] for field, stage in VERIFIED_STAGES.items()}
    for check in report.checks:
        group = by_stage.get(check.stage)
        if group is not None:
            group.append(check)
    return rows


def build_entry(
    labeling: Sequence[int], *, memo: dict | None = None, **metadata
) -> tuple[CatalogEntry, Report]:
    """Run the full pipeline on one labeling: the entry, and the report of its checks.

    The entry stores the report's angle, relation and trace residuals.  It is
    built whether or not the report passes.  The report's rows and errors
    carry the entry's ``label_tag``.  ``memo`` goes to ``check_entry``.
    """
    lab = Labeling(*labeling)
    config = realize(lab)
    gens = build_generators(lab, config)
    report = check_entry(config, gens, entry=label_tag(lab), memo=memo)
    entry = CatalogEntry(
        labeling=tuple(lab),
        cusp=CuspType.of(lab),
        family=False,
        config=config,
        generators=gens,
        verification={
            field: tuple(check.residual for check in rows)
            for field, rows in _stored_rows(report).items()
        },
        **metadata,
    )
    return entry, report


def build_catalog(
    rows: Sequence[CatalogEntry],
    max_n: Optional[int] = None,
    cusp: Optional[CuspType] = None,
) -> tuple[list[CatalogEntry], list[str]]:
    """Catalog entries for the given rows, such as ``enumerate_catalog()``.

    Family rows are kept as they are; with ``max_n`` each family additionally
    expands into built instances for free_min..max_n.  Standalone rows are
    built with the full payload.  Returns the entries in catalog order and
    the failures of the built ones, each tagged with its entry's labels.
    The built entries share one relation-word memo.
    """
    entries: list[CatalogEntry] = []
    failures: list[str] = []
    memo: dict = {}

    def add(labeling: Labeling, **metadata) -> None:
        entry, report = build_entry(labeling, memo=memo, **metadata)
        entries.append(entry)
        failures.extend(report.failures())

    for row in rows:
        if cusp is not None and row.cusp is not cusp:
            continue
        if not row.family:
            add(row.labeling)
            continue
        entries.append(row)
        if max_n is not None:
            for n in range(row.free_min, max_n + 1):
                add(row.instantiate(n), free_slot=row.free_slot, free_min=row.free_min, family_n=n)
    entries.sort(key=lambda entry: catalog_order(entry.cusp, entry.labeling))
    return entries, failures


# ---------------------------------------------------------------------------
# JSON encoding


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _complex_from(d: dict) -> complex:
    return complex(_number(d["re"]), _number(d["im"]))


def _matrix_json(m: MoebiusMatrix) -> list:
    return [[_complex_json(m.a), _complex_json(m.b)], [_complex_json(m.c), _complex_json(m.d)]]


def _matrix_from(rows: list) -> MoebiusMatrix:
    return MoebiusMatrix(
        _complex_from(rows[0][0]),
        _complex_from(rows[0][1]),
        _complex_from(rows[1][0]),
        _complex_from(rows[1][1]),
    )


def _line_json(line: PlanarLine) -> dict:
    return {"normal": [line.nx, line.ny], "offset": line.d}


def _line_from(d: dict) -> PlanarLine:
    return PlanarLine(_number(d["normal"][0]), _number(d["normal"][1]), _number(d["offset"]))


def _circle_json(circle: PlanarCircle) -> dict:
    return {"center": [circle.cx, circle.cy], "radius": circle.r}


def _circle_from(d: dict) -> PlanarCircle:
    return PlanarCircle(_number(d["center"][0]), _number(d["center"][1]), _number(d["radius"]))


def _config_json(config: PlanarConfig) -> dict:
    lines = {name: _line_json(getattr(config, name)) for name in ("red", "green", "blue")}
    circles = {name: _circle_json(getattr(config, name)) for name in ("back", "top")}
    return {"a3_branch": config.a3_branch, **lines, **circles}


def _config_from(d: dict) -> PlanarConfig:
    return PlanarConfig(
        red=_line_from(d["red"]),
        green=_line_from(d["green"]),
        blue=_line_from(d["blue"]),
        back=_circle_from(d["back"]),
        top=_circle_from(d["top"]),
        a3_branch=_integer(d["a3_branch"]),
    )


def _generators_json(gens: GeneratorSet) -> dict:
    matrices = {name.lower(): _matrix_json(matrix) for name, matrix in gens.named()}
    fixed = {"fixed1": _complex_json(gens.fixed1), "fixed2": _complex_json(gens.fixed2)}
    return {**matrices, "theta1": gens.theta1, "theta2": gens.theta2, **fixed}


def _number(value) -> float:
    """``value`` if it is a float or an int; OverflowError for an int too large for a float."""
    if type(value) is not float:
        if type(value) is not int:
            raise TypeError(f"expected a number, got {value!r}")
        float(value)  # OverflowError if it is too large
    return value


def _integer(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _boolean(value) -> bool:
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _generators_from(d: dict, labeling: Labeling) -> GeneratorSet:
    return GeneratorSet(
        labeling=labeling,
        m1=_matrix_from(d["m1"]),
        m2=_matrix_from(d["m2"]),
        m3=_matrix_from(d["m3"]),
        m4=_matrix_from(d["m4"]),
        theta1=_number(d["theta1"]),
        theta2=_number(d["theta2"]),
        fixed1=_complex_from(d["fixed1"]),
        fixed2=_complex_from(d["fixed2"]),
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
            field: list(residuals) for field, residuals in entry.verification.items()
        }
    return record


def _decode_field(record: dict, name: str, decode: Callable, optional: bool = False):
    """``decode(record[name])``, with any failure a ValueError naming the field.

    An optional field that is absent or null decodes to None.
    """
    value = record.get(name)
    if optional and value is None:
        return None
    if name not in record:
        raise ValueError(f"field {name!r} is missing")
    try:
        return decode(value)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {name!r} is malformed ({type(exc).__name__}: {exc})") from exc


def _labeling_from(values: list) -> tuple[Optional[int], ...]:
    labels = tuple(values)
    if len(labels) != 9:
        raise ValueError(f"expected 9 labels, got {len(labels)}")
    for label in labels:
        if label is not None and type(label) is not int:
            raise ValueError(f"a label must be an integer or null, got {label!r}")
    return labels


def _verification_from(d: dict) -> dict[str, tuple[float, ...]]:
    verification = {field: tuple(map(_number, d[field])) for field in VERIFIED_STAGES}
    for field, residuals in verification.items():
        if len(residuals) != 9:
            raise ValueError(f"{field!r} holds {len(residuals)} residuals, expected 9")
    return verification


def _family_fields(record: dict, labeling: tuple[Optional[int], ...]) -> dict:
    """``family``, ``free_slot``, ``free_min`` and ``family_n``, checked.

    A family row names the one null label of its labeling as its free slot,
    has a bound and no ``family_n``.  Any other row is a standalone row, with
    all three null, or a family instance, with all three set: ``family_n`` is
    the label in its free slot and is at least ``free_min``.
    """
    fields = {name: record.get(name) for name in ("free_slot", "free_min", "family_n")}
    for name, value in fields.items():
        if value is not None and type(value) is not int:
            raise ValueError(f"field {name!r} must be an integer or null, got {value!r}")
    fields["family"] = _decode_field(record, "family", _boolean)
    slot, free_min, family_n = fields["free_slot"], fields["free_min"], fields["family_n"]
    if fields["family"]:
        free = [index for index, label in enumerate(labeling) if label is None]
        if not free:
            raise ValueError("field 'family' is true, but the labeling has no null label")
        if [slot] != free:
            raise ValueError(
                "field 'free_slot' must index the one null label of a family labeling"
                f" (null at {free}), got {slot!r}"
            )
        if free_min is None:
            raise ValueError("field 'free_min' must be an integer in a family row, got None")
        if family_n is not None:
            raise ValueError(f"field 'family_n' must be null in a family row, got {family_n}")
    elif slot is None:
        for name in ("free_min", "family_n"):
            if fields[name] is not None:
                raise ValueError(
                    f"field {name!r} must be null in a row whose 'free_slot' is null,"
                    f" got {fields[name]}"
                )
    else:
        if not 0 <= slot < len(labeling):
            raise ValueError(f"field 'free_slot' must index a label, got {slot}")
        if family_n is None or family_n != labeling[slot]:
            raise ValueError(
                f"field 'family_n' must be the label in free slot {slot}"
                f" ({labeling[slot]!r}), got {family_n!r}"
            )
        if free_min is None:
            raise ValueError("field 'free_min' must be an integer in a family instance, got None")
        if family_n < free_min:
            raise ValueError(f"field 'family_n' is {family_n}, below the row's free_min {free_min}")
    return fields


def entry_from_json(record: dict) -> CatalogEntry:
    """Decode one catalog record; a malformed field raises ValueError naming it,
    as does a ``config``, ``generators`` or ``verification`` in a family row."""
    if not isinstance(record, dict):
        raise ValueError(f"expected an object, got {type(record).__name__}")
    labeling = _decode_field(record, "labeling", _labeling_from)
    cusp = _decode_field(record, "cusp", CuspType.from_code)
    family_fields = _family_fields(record, labeling)
    decoders = {
        "config": _config_from,
        "generators": lambda d: _generators_from(d, Labeling(*labeling)),
        "verification": _verification_from,
    }
    payload = {
        name: _decode_field(record, name, read, optional=True) for name, read in decoders.items()
    }
    if family_fields["family"]:
        for name, value in payload.items():
            if value is not None:
                raise ValueError(f"field {name!r} must be null in a family row")
    return CatalogEntry(labeling=labeling, cusp=cusp, **family_fields, **payload)


def catalog_to_json(entries: Iterable[CatalogEntry]) -> dict:
    from . import __version__

    return {
        "schema": SCHEMA,
        "provenance": {
            "tool": TOOL_NAME,
            "version": __version__,
            "tolerances": dict(TOLERANCES),
        },
        "entries": [entry_to_json(entry) for entry in entries],
    }


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _leaf(value):
    """A leaf as ``%s`` fills it in: a finite float or an int as itself, else its JSON text."""
    if type(value) is float and value - value == 0.0 or type(value) is int:
        return value
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _plain(values) -> bool:
    """Whether ``values`` are all finite floats, which ``%s`` writes as ``json.dumps`` does."""
    if not {float}.issuperset(map(type, values)):
        return False
    total = sum(values)
    return total - total == 0.0  # a NaN or an infinity makes the sum one


def _write_template(value, newline: str) -> str:
    """``json.dumps(value, indent=2)`` as a ``%`` template, ``%s`` at each leaf.

    ``newline`` is a line break followed by the indentation of the line
    ``value`` starts on.  Filled with the leaves ``_leaves`` collects, the
    template gives the JSON text.
    """
    inner = newline + "  "
    if isinstance(value, dict):
        items = [
            encode_basestring_ascii(key).replace("%", "%%") + ": " + _write_template(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_write_template(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return "%s"


def _leaves(value, leaves: list, shape: list) -> None:
    """Append the leaves of ``value`` to ``leaves`` in the order they are written.

    Each leaf is appended as ``_leaf`` gives it.  For each dict or list,
    ``shape`` gets the number of leaves before it and its keys or its
    length, which together fix where every leaf sits.
    """
    if isinstance(value, dict):
        shape += len(leaves), tuple(value)
        items = value.values()
    else:
        shape += len(leaves), len(value)
        if _plain(value):
            leaves += value
            return
        items = value
    for item in items:
        if isinstance(item, (dict, list, tuple)):
            _leaves(item, leaves, shape)
        else:
            leaves.append(_leaf(item))


def _face_numbers(config: PlanarConfig) -> list[float]:
    """The numbers of a configuration's faces, three a face, red, green, blue, back, top."""
    return [*config.red, *config.green, *config.blue, *config.back, *config.top]


def _row_leaves(entry: CatalogEntry) -> tuple[tuple, list]:
    """The shape key and the leaves of ``entry_to_json(entry)``, read off the typed fields.

    Only the labeling and the residuals, whose shapes can vary, are walked by ``_leaves``.
    """
    leaves: list = []
    shape: list = []
    _leaves(entry.labeling, leaves, shape)
    config, gens = entry.config, entry.generators
    head = entry.cusp.code, entry.family, entry.free_slot, entry.free_min, entry.family_n
    leaves += map(_leaf, (*head, None if config is None else config.a3_branch))
    numbers = [] if config is None else _face_numbers(config)
    if gens is not None:
        for z in (*gens.m1, *gens.m2, *gens.m3, *gens.m4):
            numbers += z.real, z.imag
        fixed1, fixed2 = gens.fixed1, gens.fixed2
        numbers += gens.theta1, gens.theta2, fixed1.real, fixed1.imag, fixed2.real, fixed2.imag
    leaves += numbers if _plain(numbers) else map(_leaf, numbers)
    if gens is None:
        leaves.append("null")
    residuals: list = []
    if entry.verification:
        _leaves(entry.verification, leaves, residuals)
    else:
        leaves.append("null")
    return (tuple(shape), config is None, gens is None, tuple(residuals)), leaves


def dumps_catalog(entries: Iterable[CatalogEntry]) -> str:
    """The catalog document as JSON text indented by two spaces, ending in a newline.

    The text is the same, byte for byte, as ``json.dumps(doc, indent=2)``
    plus a newline.  It is not made by that call because, with ``indent``
    set, CPython before 3.13 bypasses its C encoder for the pure-Python
    one, which spends most of its time resuming nested generators.  Rows of
    one shape differ only in their leaves, so each shape's template is
    written once, from ``entry_to_json`` of its first row, and each row
    fills it with the leaves ``_row_leaves`` reads off its entry.  The
    document is filled the same way, with the rows' text as its leaves.
    """
    templates: dict[tuple, str] = {}
    rows = []
    for entry in entries:
        key, leaves = _row_leaves(entry)
        template = templates.get(key)
        if template is None:
            # A row starts two levels in: the document, then its entries list.
            template = templates[key] = _write_template(entry_to_json(entry), "\n    ")
        rows.append(template % tuple(leaves))
    # The entries are the document's last field, so their leaves come last.
    doc = catalog_to_json(())
    leaves = []
    _leaves(doc, leaves, [])
    doc["entries"] = rows
    return _write_template(doc, "\n") % (*leaves, *rows) + "\n"


def dump_catalog(entries: Iterable[CatalogEntry], fp: Union[str, IO[str]]) -> None:
    text = dumps_catalog(entries)
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        fp.write(text)


def _provenance_from(d: dict) -> dict:
    """The ``tool`` and ``tolerances`` of a provenance object, type-checked.

    ``version`` is not read: a dump verifies under any version of the tool.
    """
    if not isinstance(d, dict):
        raise TypeError(f"expected an object, got {type(d).__name__}")
    tool, tolerances = d["tool"], d["tolerances"]
    if type(tool) is not str:
        raise TypeError(f"'tool' must be a string, got {tool!r}")
    if not isinstance(tolerances, dict):
        raise TypeError(f"'tolerances' must be an object, got {type(tolerances).__name__}")
    return {"tool": tool, "tolerances": {name: _number(v) for name, v in tolerances.items()}}


class Catalog(list):
    """The entries ``load_catalog`` decoded, and the document's ``provenance``."""

    def __init__(self, entries: Iterable[CatalogEntry], provenance: dict) -> None:
        super().__init__(entries)
        self.provenance = provenance


def load_catalog(fp: Union[str, IO[str]]) -> Catalog:
    """Decode a catalog document; a malformed one raises ValueError naming its field.

    The result is the list of entries, with the document's checked
    ``provenance`` (its ``tool`` and ``tolerances``) as an attribute.
    """
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
    try:
        provenance = _decode_field(payload, "provenance", _provenance_from)
    except ValueError as exc:
        raise ValueError(f"catalog {exc}") from exc
    entries = []
    for index, record in enumerate(records):
        try:
            entries.append(entry_from_json(record))
        except ValueError as exc:
            raise ValueError(f"catalog entry {index}: {exc}") from exc
    return Catalog(entries, provenance)


# ---------------------------------------------------------------------------
# Verification sweep


def _check_target(
    entry: CatalogEntry, lab: Labeling, tag: str, memo: dict
) -> tuple[list[Check], list[str]]:
    """The rows and the errors of one labeling ``verify_catalog`` checks for ``entry``."""
    try:
        fresh = realize(lab)
    except (ValueError, geometry.RealizationError) as exc:
        return [], [f"{tag}: realization failed: {exc}"]
    checks: list[Check] = []
    errors = []
    cusp = CuspType.of(lab)
    if cusp is not entry.cusp:
        errors.append(
            f"{tag}: stored cusp {entry.cusp.code} is not the labeling's cusp {cusp.code}"
        )
    if entry.family:
        config, gens = fresh, build_generators(lab, fresh)
    else:
        missing = [
            name
            for name in ("config", "generators", "verification")
            if getattr(entry, name) is None
        ]
        if missing:
            return checks, [*errors, f"{tag}: entry stores no {', '.join(missing)}"]
        config, gens = entry.config, entry.generators
        # Three numbers a face, then the a3 branch; the first NaN, else the
        # first worst, is named.
        diffs = [abs(a - b) for a, b in zip(_face_numbers(config), _face_numbers(fresh))]
        diffs.append(abs(config.a3_branch - fresh.a3_branch))
        worst = max(range(len(diffs)), key=lambda i: (math.isnan(diffs[i]), diffs[i]))
        where = PlanarConfig._fields[worst // 3]
        checks.append(Check("drift", where, diffs[worst], 0.0, geometry.ANGLE_TOL, tag))
    report = check_entry(config, gens, entry=tag, memo=memo)
    checks += report.checks
    if not entry.family:
        disagree = []
        for field, rows in _stored_rows(report).items():
            stored = entry.verification.get(field, ())
            if len(stored) != 9:
                errors.append(f"{tag}: entry stores {len(stored)} {field} residuals, expected 9")
                continue
            disagree += (
                f"{field} {check.edge}"
                for check, value in zip(rows, stored)
                if not abs(value - check.residual) <= check.tol
            )
        if disagree:
            errors.append(
                f"{tag}: stored residuals disagree with recomputation on {', '.join(disagree)}"
            )
    return checks, errors + list(report.errors)


def _provenance_errors(provenance: dict) -> list[str]:
    """How a loaded ``provenance`` differs from this tool's name and ``TOLERANCES``."""
    errors = []
    if provenance["tool"] != TOOL_NAME:
        errors.append(f"provenance: tool {provenance['tool']!r} is not {TOOL_NAME!r}")
    recorded = provenance["tolerances"]
    names = [*TOLERANCES, *(name for name in recorded if name not in TOLERANCES)]
    differ = [
        f"{name} {recorded.get(name, 'missing')} (expected {TOLERANCES.get(name, 'none')})"
        for name in names
        if recorded.get(name) != TOLERANCES.get(name)
    ]
    if differ:
        errors.append(f"provenance: recorded tolerances differ on {', '.join(differ)}")
    return errors


def verify_catalog(
    entries: Sequence[CatalogEntry], samples: Optional[Sequence[int]] = None
) -> Report:
    """Re-realize and re-verify every entry of a catalog.

    Standalone and instance entries must store a configuration, generators
    and residuals.  They go through ``check_entry`` with the stored
    configuration and generators, a fresh realization must agree with the
    stored faces and ``a3_branch`` (config drift), and each stored residual
    must equal the recomputed one to within that row's tolerance.  Family
    pattern rows are spot-checked with ``check_entry`` on fresh realizations
    at the sampled free-slot values (default: free_min, +1, +10, and 500).
    Each checked labeling must also have the entry's cusp type.  No
    labeling or family pattern may be stored in more than one row, nor
    together with its mirror image (``symmetry_mate``) when that differs
    from it.  A family instance must have its family's pattern row in the
    catalog, with the same ``free_min``, and a catalog with no entries
    fails.  The ``provenance`` of a ``Catalog``, as ``load_catalog`` returns
    it, must name this tool and record ``TOLERANCES``.  The report's rows
    carry their entry's tag, and ``entries_checked`` counts the labelings
    checked.  The checked labelings share one relation-word memo, so a word
    that repeats across them is measured once.
    """
    checks: list[Check] = []
    stored = Counter(entry.labeling for entry in entries)
    errors = _provenance_errors(entries.provenance) if isinstance(entries, Catalog) else []
    errors += [
        f"{label_tag(labeling)}: the row is stored {count} times"
        for labeling, count in stored.items()
        if count > 1
    ]
    position = {labeling: index for index, labeling in enumerate(stored)}
    for labeling, index in position.items():
        mate = symmetry_mate(labeling)
        if position.get(mate, index) > index:
            errors.append(
                f"{label_tag(labeling)}: its mirror image {label_tag(mate)} is stored too"
            )
    pattern_free_min = {entry.labeling: entry.free_min for entry in entries if entry.family}
    for entry in entries:
        slot = entry.free_slot
        if entry.family or slot is None:
            continue
        pattern = entry.labeling[:slot] + (None,) + entry.labeling[slot + 1 :]
        if pattern not in pattern_free_min:
            errors.append(
                f"{label_tag(entry.labeling)}: its family row {label_tag(pattern)} is not stored"
            )
        elif pattern_free_min[pattern] != entry.free_min:
            errors.append(
                f"{label_tag(entry.labeling)}: free_min {entry.free_min} differs from"
                f" {pattern_free_min[pattern]} in its family row"
            )
    if not entries:
        errors.append("the catalog has no entries")
    # Each labeling to check: a stored row's own, or a family row's samples.
    targets = []
    for entry in entries:
        if not entry.family:
            targets.append((entry, Labeling(*entry.labeling), label_tag(entry.labeling)))
            continue
        if samples is None:
            values = [entry.free_min + offset for offset in FAMILY_SAMPLE_OFFSETS]
            values.append(max(FAMILY_SAMPLE_LARGE, entry.free_min))
        else:
            values = [n for n in samples if n >= entry.free_min]
        targets += (
            (entry, entry.instantiate(n), f"{label_tag(entry.labeling)} at n={n}")
            for n in sorted(set(values))
        )
    memo: dict = {}
    for entry, lab, tag in targets:
        try:
            target_checks, target_errors = _check_target(entry, lab, tag, memo)
        except ArithmeticError as exc:
            errors.append(f"{tag}: arithmetic failed: {type(exc).__name__}: {exc}")
            continue
        checks += target_checks
        errors += target_errors
    return Report(tuple(checks), tuple(errors), len(targets))
