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
from typing import IO, Callable, Iterable, Optional, Sequence, Union

from . import geometry
from .geometry import (
    STAGES,
    TOLERANCES,
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
    brief,
    catalog_order,
    symmetry_mate,
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

# Default free-slot values at which a family is spot-checked: the bound, its
# two nearest successors of interest, and a deliberately large power.
FAMILY_SAMPLE_OFFSETS = (0, 1, 10)
FAMILY_SAMPLE_LARGE = 500


def label_tag(labeling: Sequence[Optional[int]]) -> str:
    """How failure messages name an entry: its labels in brackets, n for a free slot."""
    return "[" + " ".join("n" if v is None else brief(v) for v in labeling) + "]"


def check_entry(
    config: PlanarConfig, gens: GeneratorSet, *, entry: str = "", memo: dict | None = None
) -> Report:
    """Every check of one realized labeling, ``gens.labeling``, as one record a stage.

    The nine edge angles of the configuration; each generator against
    ``build_generators`` of the configuration, in ``GeneratorSet`` order (M1..M4
    by ``MoebiusMatrix.distance``, the half-angles and centers by their absolute
    difference); the four determinants; and the nine relation words and trace
    identities: five records, whatever the generators.  A word that cannot be
    measured (a singular generator) has infinite residuals.  Every record
    carries ``entry`` as its entry tag.  ``memo`` goes to both
    ``verify_relations`` and ``trace_check``, so each word is measured once for
    the two; ``None`` gives them one new dict.
    """
    lab = gens.labeling
    built = build_generators(lab, config)
    names, matrices = zip(*gens.named())
    parameters = GeneratorSet._fields[5:]  # theta1, theta2, fixed1, fixed2
    rebuilt = tuple(matrix.distance(other) for matrix, other in zip(matrices, built[1:5]))
    rebuilt += tuple(abs(stored - other) for stored, other in zip(gens[5:], built[5:]))
    drifts = tuple(abs(matrix.det - 1.0) for matrix in matrices)
    if memo is None:
        memo = {}
    return Report((
        *verify_config(lab, config, entry=entry).checks,
        Check("generator", names + parameters, rebuilt, (TOLERANCES["construction"],) * 8, entry),
        Check("determinant", names, drifts, (TOLERANCES["determinant"],) * 4, entry),
        *verify_relations(gens, entry=entry, memo=memo).checks,
        *trace_check(gens, entry=entry, memo=memo).checks,
    ))


def stored_checks(report: Report) -> dict[str, Check]:
    """The records of one entry's report whose residuals the entry stores, by field.

    The fields come in ``STAGES`` order.
    """
    by_stage = {check.stage: check for check in report.checks}
    return {field: by_stage[stage] for stage, (_, _, field) in STAGES.items() if field}


def build_entry(
    labeling: Sequence[int], *, memo: dict | None = None
) -> tuple[CatalogEntry, Report]:
    """Run the full pipeline on one labeling: the entry, and the report of its checks.

    The entry stores the residuals of the report's angle, relation and trace
    records.  It is built whether or not the report passes.  The report's
    records carry the entry's ``label_tag``.  ``memo`` goes to ``check_entry``.
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
        verification={field: check.residuals for field, check in stored_checks(report).items()},
    )
    return entry, report


def build_catalog(
    rows: Iterable[CatalogEntry], max_n: Optional[int] = None
) -> tuple[list[CatalogEntry], list[str]]:
    """Catalog entries for exactly the given rows, such as ``enumerate_catalog()``.

    Family rows are kept as they are; with ``max_n`` each family also expands
    into built instances for free_min..max_n, stamped with its ``free_slot``
    and ``free_min``.  Standalone rows are built with the full payload.
    Returns the entries in catalog order and the failures of the built ones,
    each tagged with its entry's labels.  They share one relation-word memo.
    """
    entries: list[CatalogEntry] = []
    failures: list[str] = []
    memo: dict = {}

    def build(labeling: Labeling) -> CatalogEntry:
        entry, report = build_entry(labeling, memo=memo)
        failures.extend(report.failures())
        return entry

    for row in rows:
        if not row.family:
            entries.append(build(row.labeling))
            continue
        entries.append(row)
        for n in range(row.free_min, max_n + 1) if max_n is not None else ():
            instance = build(row.instantiate(n))
            slot, free_min = row.free_slot, row.free_min
            entries.append(instance._replace(free_slot=slot, free_min=free_min, family_n=n))
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
    (a, b), (c, d) = rows
    return MoebiusMatrix(_complex_from(a), _complex_from(b), _complex_from(c), _complex_from(d))


def _line_json(line: PlanarLine) -> dict:
    return {"normal": [line.nx, line.ny], "offset": line.d}


def _line_from(d: dict) -> PlanarLine:
    nx, ny = d["normal"]
    return PlanarLine(_number(nx), _number(ny), _number(d["offset"]))


def _circle_json(circle: PlanarCircle) -> dict:
    return {"center": [circle.cx, circle.cy], "radius": circle.r}


def _circle_from(d: dict) -> PlanarCircle:
    cx, cy = d["center"]
    return PlanarCircle(_number(cx), _number(cy), _number(d["radius"]))


def _config_json(config: PlanarConfig) -> dict:
    lines = {name: _line_json(getattr(config, name)) for name in ("red", "green", "blue")}
    circles = {name: _circle_json(getattr(config, name)) for name in ("back", "top")}
    return {"a3_branch": config.a3_branch, **lines, **circles}


def _config_from(d: dict) -> PlanarConfig:
    lines = [_line_from(d[name]) for name in ("red", "green", "blue")]
    circles = [_circle_from(d[name]) for name in ("back", "top")]
    return PlanarConfig(*lines, *circles, _typed(d["a3_branch"], int))


def _generators_json(gens: GeneratorSet) -> dict:
    matrices = {name.lower(): _matrix_json(matrix) for name, matrix in gens.named()}
    fixed = {"fixed1": _complex_json(gens.fixed1), "fixed2": _complex_json(gens.fixed2)}
    return {**matrices, "theta1": gens.theta1, "theta2": gens.theta2, **fixed}


# What a decoded JSON value of each type is called in a message.
_KINDS = {
    int: "an integer", bool: "true or false", str: "a string", dict: "an object", list: "a list"
}


def _typed(value, kind: type):
    """``value`` if its type is exactly ``kind``, one of ``_KINDS``; else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"expected {_KINDS[kind]}, got {brief(value)}")
    return value


def _number(value) -> float:
    """``value`` if it is a float or an int; OverflowError for an int too large for a float."""
    if type(value) is not float:
        if type(value) is not int:
            raise TypeError(f"expected a number, got {brief(value)}")
        float(value)  # OverflowError if it is too large
    return value


def _generators_from(d: dict, labeling: Labeling) -> GeneratorSet:
    matrices = map(_matrix_from, (d["m1"], d["m2"], d["m3"], d["m4"]))
    return GeneratorSet(
        labeling, *matrices, _number(d["theta1"]), _number(d["theta2"]),
        _complex_from(d["fixed1"]), _complex_from(d["fixed2"]),
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
        if label is not None:
            _typed(label, int)
    return labels


def _verification_from(d: dict) -> dict[str, tuple[float, ...]]:
    fields = [field for _, _, field in STAGES.values() if field]
    verification = {field: tuple(map(_number, d[field])) for field in fields}
    for field, residuals in verification.items():
        if len(residuals) != 9:
            raise ValueError(f"{field!r} holds {len(residuals)} residuals, expected 9")
    return verification


# An entry's payload fields, and those each kind of row must set and must leave
# null, as the README's family-field rules give them.  A standalone row or a
# family instance may leave out its payload: ``verify`` fails it as storing none.
_PAYLOAD = CatalogEntry._fields[-3:]
_ROW_FIELDS = {
    "family row": (("free_min",), ("family_n", *_PAYLOAD)),
    "standalone row": ((), ("free_min", "family_n")),
    "family instance": (("free_min", "family_n"), ()),
}


def entry_from_json(record: dict) -> CatalogEntry:
    """Decode one catalog record; a malformed field raises ValueError naming it.

    A family row has ``family`` true and its ``free_slot`` at the one null
    label, a standalone row has no free slot, and any other row is a family
    instance: its ``family_n`` is the label in its free slot and at least its
    ``free_min``.  A record that is not an object raises TypeError.
    """
    _typed(record, dict)
    labeling = _decode_field(record, "labeling", _labeling_from)
    cusp = _decode_field(record, "cusp", CuspType.from_code)
    fields = {
        name: _decode_field(record, name, lambda value: _typed(value, int), optional=True)
        for name in ("free_slot", "free_min", "family_n")
    }
    fields["family"] = _decode_field(record, "family", lambda value: _typed(value, bool))
    slot, free_min, family_n = fields["free_slot"], fields["free_min"], fields["family_n"]
    if fields["family"]:
        kind = "family row"
        free = [index for index, label in enumerate(labeling) if label is None]
        if not free:
            raise ValueError("field 'family' is true, but the labeling has no null label")
        if [slot] != free:
            raise ValueError(
                f"field 'free_slot' must index the one null label of a {kind}"
                f" (null at {free}), got {brief(slot)}"
            )
    elif slot is None:
        kind = "standalone row"
    else:
        kind = "family instance"
        if not 0 <= slot < len(labeling):
            raise ValueError(f"field 'free_slot' must index a label, got {brief(slot)}")
        if family_n != labeling[slot]:
            raise ValueError(
                f"field 'family_n' must be the label in free slot {slot}"
                f" ({brief(labeling[slot])}), got {brief(family_n)}"
            )
    must_set, must_be_null = _ROW_FIELDS[kind]
    for name in must_set:
        if record.get(name) is None:
            raise ValueError(f"field {name!r} must be set in a {kind}")
    for name in must_be_null:
        if record.get(name) is not None:
            raise ValueError(f"field {name!r} must be null in a {kind}, got {brief(record[name])}")
    if kind == "family instance" and family_n < free_min:
        raise ValueError(
            f"field 'family_n' is {brief(family_n)}, below the row's free_min {brief(free_min)}"
        )
    decoders = {
        "config": _config_from,
        "generators": lambda d: _generators_from(d, Labeling(*labeling)),
        "verification": _verification_from,
    }
    for name, read in decoders.items():
        fields[name] = _decode_field(record, name, read, optional=True)
    return CatalogEntry(labeling=labeling, cusp=cusp, **fields)


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


_ENCODE = json.JSONEncoder(separators=("\n", ":")).encode


def _spell(leaves: list) -> tuple[str, ...]:
    """The JSON text of each leaf, as ``json.dumps`` writes it, from one call to json's encoder.

    json escapes a line break inside a string, so each line of its text is one leaf.
    """
    return tuple(_ENCODE(leaves)[1:-1].split("\n")) if leaves else ()


def _write_template(value, newline: str) -> str:
    """``json.dumps(value, indent=2)`` as a ``%`` template, ``%s`` at each leaf.

    ``newline`` is a line break followed by the indentation of the line
    ``value`` starts on; ``json.dumps({key: 0})`` spells each key.  Filled with
    the texts ``_spell`` gives the leaves ``_leaves`` collects, it is the JSON text.
    """
    inner = newline + "  "
    if isinstance(value, dict):
        items = [
            json.dumps({key: 0})[1:-4].replace("%", "%%") + ": " + _write_template(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_write_template(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return "%s"


def _leaves(value, leaves: list, shape: list) -> None:
    """Append the leaves of ``value`` to ``leaves`` in the order they are written.

    For each dict or list, ``shape`` gets the number of leaves before it and
    its length or its keys' ``repr``, which fix where every leaf sits and how each
    key is spelled (``1``, ``True`` and ``1.0`` are one key to Python, three to json).
    """
    if isinstance(value, dict):
        shape += len(leaves), tuple(map(repr, value))
        items = value.values()
    else:
        shape += len(leaves), len(value)
        if {float}.issuperset(map(type, value)):  # a list of floats holds no container
            leaves += value
            return
        items = value
    for item in items:
        if isinstance(item, (dict, list, tuple)):
            _leaves(item, leaves, shape)
        else:
            leaves.append(item)


def _row_leaves(entry: CatalogEntry) -> tuple[tuple, list]:
    """The shape key and the leaves of ``entry_to_json(entry)``, read off the typed fields."""
    leaves: list = []
    shape: list = []
    config, gens = entry.config, entry.generators
    numbers = []
    if config is not None:
        numbers += *config.red, *config.green, *config.blue, *config.back, *config.top
    if gens is None:
        numbers.append(None)
    else:
        for z in (*gens.m1, *gens.m2, *gens.m3, *gens.m4):
            numbers += z.real, z.imag
        fixed1, fixed2 = gens.fixed1, gens.fixed2
        numbers += gens.theta1, gens.theta2, fixed1.real, fixed1.imag, fixed2.real, fixed2.imag
    head = entry.cusp.code, entry.family, entry.free_slot, entry.free_min, entry.family_n
    # The a3 branch is the config's first leaf, and a null config's only one.
    a3_branch = None if config is None else config.a3_branch
    _leaves((entry.labeling, *head, a3_branch, numbers, entry.verification or None), leaves, shape)
    return tuple(shape), leaves


def dumps_catalog(entries: Iterable[CatalogEntry]) -> str:
    """The catalog document as JSON text indented by two spaces, ending in a newline.

    The text is the same, byte for byte, as ``json.dumps(doc, indent=2)``
    plus a newline.  json writes the document, and the rows' texts go into
    its empty ``entries`` list, its last field.  json does not write the rows
    because, with ``indent`` set, CPython before 3.13 bypasses its C encoder
    for the pure-Python one, which spends most of its time resuming nested
    generators.  Rows of one shape differ only in their leaves, so each
    shape's template is written once, from ``entry_to_json`` of its first
    row, and each row fills it with the texts that one call to json's C
    encoder (``_spell``) gives the leaves ``_row_leaves`` reads off its entry.

    From 3.13 on, json writes the same text as fast.  So once
    ``requires-python`` reaches 3.13, the body becomes ``json.dumps(doc,
    indent=2)`` plus a newline, with ``doc = catalog_to_json(entries)``.
    ``_ENCODE``, ``_spell``, ``_write_template``, ``_leaves`` and
    ``_row_leaves`` then go.
    """
    templates: dict[tuple, str] = {}
    rows = []
    for entry in entries:
        key, leaves = _row_leaves(entry)
        template = templates.get(key)
        if template is None:
            # A row starts two levels in: the document, then its entries list.
            template = templates[key] = _write_template(entry_to_json(entry), "\n    ")
        rows.append(template % _spell(leaves))
    # json ends the document in its last field, the empty entries list, and a brace.
    text = json.dumps(catalog_to_json(()), indent=2) + "\n"
    if rows:  # one join splices the rows in, so the text is built once, beside them
        rows[0] = text[: -len("[]\n}\n")] + "[\n    " + rows[0]
        rows[-1] += "\n  ]\n}\n"
        text = ",\n    ".join(rows)
    return text


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
    _typed(d, dict)
    tool, tolerances = _typed(d["tool"], str), _typed(d["tolerances"], dict)
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
    try:
        if isinstance(fp, str):
            with open(fp, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        else:
            payload = json.load(fp)
    except RecursionError:
        raise ValueError("the catalog is nested too deeply to read") from None
    if not isinstance(payload, dict):
        raise ValueError(
            "a catalog is a JSON object with fields 'schema' and 'entries', "
            f"got {type(payload).__name__}"
        )
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported catalog schema {brief(payload.get('schema'))}; expected {SCHEMA!r}"
        )
    try:
        records = _decode_field(payload, "entries", lambda value: _typed(value, list))
        provenance = _decode_field(payload, "provenance", _provenance_from)
    except ValueError as exc:
        raise ValueError(f"catalog {exc}") from exc
    entries = []
    for index, record in enumerate(records):
        try:
            entries.append(entry_from_json(record))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"catalog entry {index}: {exc}") from exc
    return Catalog(entries, provenance)


# ---------------------------------------------------------------------------
# Verification sweep


def _check_target(
    entry: CatalogEntry, lab: Labeling, tag: str, memo: dict
) -> tuple[list[Check], list[str]]:
    """The records and the errors of one labeling ``verify_catalog`` checks for ``entry``."""
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
        missing = [name for name in _PAYLOAD if getattr(entry, name) is None]
        if missing:
            return checks, [*errors, f"{tag}: entry stores no {', '.join(missing)}"]
        config, gens = entry.config, entry.generators
        drifts = (*map(math.dist, config[:5], fresh[:5]), abs(config.a3_branch - fresh.a3_branch))
        tol = (TOLERANCES["angle"],) * len(drifts)
        checks.append(Check("drift", PlanarConfig._fields, drifts, tol, tag))
    report = check_entry(config, gens, entry=tag, memo=memo)
    checks += report.checks
    if not entry.family:
        disagree = []
        for field, check in stored_checks(report).items():
            stored = entry.verification.get(field, ())
            if len(stored) != 9:
                errors.append(f"{tag}: entry stores {len(stored)} {field} residuals, expected 9")
                continue
            # Equal finite residuals agree on every edge; an infinite one
            # is compared below, where inf - inf is NaN and disagrees.
            if stored == check.residuals and math.isfinite(sum(stored)):
                continue
            compared = zip(stored, check.edges, check.residuals, check.tol)
            disagree += (
                f"{field} {edge}" for value, edge, residual, tol in compared
                if not abs(value - residual) <= tol
            )
        if disagree:
            errors.append(
                f"{tag}: stored residuals disagree with recomputation on {', '.join(disagree)}"
            )
    return checks, errors


def _provenance_errors(provenance: dict) -> list[str]:
    """How a loaded ``provenance`` differs from this tool's name and ``TOLERANCES``."""
    errors = []
    if provenance["tool"] != TOOL_NAME:
        errors.append(f"provenance: tool {brief(provenance['tool'])} is not {TOOL_NAME!r}")
    recorded = provenance["tolerances"]
    differ = [
        f"{name} {brief(recorded[name]) if name in recorded else 'missing'} (expected {value})"
        for name, value in TOLERANCES.items()
        if recorded.get(name) != value
    ]
    extra = [name for name in recorded if name not in TOLERANCES]
    differ += [f"{brief(name)} {brief(recorded[name])} (expected none)" for name in extra]
    if differ:
        errors.append(f"provenance: recorded tolerances differ on {', '.join(differ)}")
    return errors


def verify_catalog(
    entries: Iterable[CatalogEntry], samples: Optional[Iterable[int]] = None
) -> Report:
    """Re-realize and re-verify every entry of a catalog.

    Standalone and instance entries must store a configuration, generators
    and residuals.  They go through ``check_entry`` with the stored
    configuration and generators, each stored face must lie within the
    ``drift`` bound of a fresh realization's, by its Euclidean distance, and
    so must ``a3_branch``; and each stored residual must equal the
    recomputed one to within that edge's tolerance.  Family
    pattern rows are spot-checked with ``check_entry`` on fresh realizations
    at the sampled free-slot values (default: free_min, +1, +10, and 500).
    Each checked labeling must also have the entry's cusp type.  No
    labeling or family pattern may be stored in more than one row, nor
    together with its mirror image (``symmetry_mate``) when that differs
    from it.  A family instance must have its family's pattern row in the
    catalog, with the same ``free_min``.  A catalog with no entries fails,
    and so does one that gives no labeling to check (family rows only, with
    every sample below its bound).  The ``provenance`` of a ``Catalog``, as
    ``load_catalog`` returns it, must name this tool and record
    ``TOLERANCES``.  ``entries`` and ``samples`` are each read once, so any
    iterable will do.  The report's records carry their entry's tag, and
    ``entries_checked`` counts the labelings checked.  They share one
    relation-word memo, so a word that repeats across them is measured once.
    """
    errors = _provenance_errors(entries.provenance) if isinstance(entries, Catalog) else []
    sampled = None if samples is None else sorted(set(samples))
    stored: Counter = Counter()
    pattern_free_min = {}
    instances = []
    # Each labeling to check: a stored row's own, or a family row's samples.
    targets = []
    for entry in entries:
        stored[entry.labeling] += 1
        tag = label_tag(entry.labeling)
        if not entry.family:
            if entry.free_slot is not None:
                instances.append((entry, tag))
            targets.append((entry, Labeling(*entry.labeling), tag))
            continue
        pattern_free_min[entry.labeling] = entry.free_min
        if sampled is None:
            values = [entry.free_min + offset for offset in FAMILY_SAMPLE_OFFSETS]
            values = sorted({*values, max(FAMILY_SAMPLE_LARGE, entry.free_min)})
        else:
            values = [n for n in sampled if n >= entry.free_min]
        targets += ((entry, entry.instantiate(n), f"{tag} at n={brief(n)}") for n in values)
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
    for entry, tag in instances:
        slot = entry.free_slot
        pattern = entry.labeling[:slot] + (None,) + entry.labeling[slot + 1 :]
        if pattern not in pattern_free_min:
            errors.append(f"{tag}: its family row {label_tag(pattern)} is not stored")
        elif pattern_free_min[pattern] != entry.free_min:
            errors.append(
                f"{tag}: free_min {brief(entry.free_min)} differs from"
                f" {brief(pattern_free_min[pattern])} in its family row"
            )
    if not stored:
        errors.append("the catalog has no entries")
    elif not targets:
        errors.append("no labeling to check: every sample is below its family's bound")
    checks: list[Check] = []
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
