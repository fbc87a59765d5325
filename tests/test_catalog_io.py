"""Tests for catalog construction, JSON round-tripping and re-verification."""

import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracles
from prismcat import catalog as cat
from prismcat import geometry, moebius
from prismcat.geometry import PlanarConfig, Report
from prismcat.moebius import MoebiusMatrix
from prismcat.labelings import (
    EDGE_FACES, EDGE_NAMES, CuspType, Labeling, brief, catalog_order, enumerate_catalog
)


# The stages whose residuals an entry stores, by the field that stores them.
_STORED = {field: stage for stage, (_, _, field) in geometry.STAGES.items() if field}


@pytest.fixture(scope="module")
def full_entries():
    entries, failures = cat.build_catalog(enumerate_catalog())
    assert failures == []
    return entries


def test_build_catalog_shape(full_entries):
    assert len(full_entries) == 90
    families = [e for e in full_entries if e.family]
    specifics = [e for e in full_entries if not e.family]
    assert len(families) == 12 and len(specifics) == 78
    for entry in families:
        assert entry.labeling.count(None) == 1
        assert entry.labeling[entry.free_slot] is None
        assert entry.free_min in (6, 7)
        assert entry.config is None and entry.generators is None
    for entry in specifics:
        assert None not in entry.labeling
        assert entry.family_n is None
        assert entry.config is not None
        assert entry.generators is not None
        assert len(entry.verification["angles"]) == 9
        assert len(entry.verification["relations"]) == 9
        assert len(entry.verification["traces"]) == 9


def test_check_entry_rows_and_stored_residuals(full_entries):
    entry = next(e for e in full_entries if not e.family)
    report = cat.check_entry(entry.config, entry.generators)
    assert report.ok and report.entries_checked == 1
    # One record a stage, and one row an edge.
    stages = ["angle", "generator", "determinant", "relation", "trace"]
    assert [check.stage for check in report.checks] == stages
    counts = {"angle": 9, "generator": 8, "determinant": 4, "relation": 9, "trace": 9}
    assert [row.stage for row in oracles.rows(report)] == [
        stage for stage in stages for _ in range(counts[stage])
    ]
    # The generators are rebuilt by the same float operations, in GeneratorSet order.
    generator = report.checks[1]
    assert generator.edges == ("M1", "M2", "M3", "M4", "theta1", "theta2", "fixed1", "fixed2")
    assert report.max_residual("generator") == 0.0
    checks = cat.stored_checks(report)
    assert list(checks) == list(_STORED)
    for field, stage in _STORED.items():
        residuals = tuple(r.residual for r in oracles.rows(report) if r.stage == stage)
        assert entry.verification[field] == residuals == checks[field].residuals


@pytest.mark.parametrize("labels", [(2, 6, 2, 7, 3, 2, 2, 3, 2), [2, 6, 2, 7, 3, 2, 2, 3, 2]])
def test_check_entry_reads_the_labels_of_its_generators(labels):
    # realize and build_generators take any nine-label sequence; check_entry
    # reads the labels from the generators, so it needs no labels of its own.
    config = geometry.realize(labels)
    gens = moebius.build_generators(labels, config)
    assert gens.labeling == Labeling(*labels)
    report = cat.check_entry(config, gens)
    assert report.ok
    assert report.checks[0].residuals == tuple(
        abs(geometry.measure_angle(getattr(config, f), getattr(config, g)) - math.pi / a)
        for (f, g), a in zip(EDGE_FACES, labels, strict=True)
    )


def test_label_tag_shows_a_label_of_more_than_40_digits_briefly():
    # label_tag names each label through brief, which shows at most 40 digits in full.
    longest = 10**40 - 1
    for full in (longest, -longest):
        assert brief(full) == str(full)
    assert cat.label_tag([2, None, longest, -longest]) == f"[2 n {longest} -{longest}]"
    for huge in (10**40, -(10**40)):
        assert len(brief(huge)) == 40 and "..." in brief(huge)
        assert cat.label_tag([huge, 3]) == f"[{brief(huge)} 3]"
    assert cat.label_tag([10**40 + 1]) != cat.label_tag([10**40])


def test_entry_rows_and_errors_carry_the_entry_tag(full_entries):
    entry = next(e for e in full_entries if not e.family)
    tag = cat.label_tag(entry.labeling)
    _, report = cat.build_entry(entry.labeling)
    assert {check.entry for check in report.checks} == {tag}
    # A zeroed M3 fails its rebuild (by the rebuilt M3's own norm, 2), its
    # determinant and the words that contain it, on records that carry the tag.
    zero = MoebiusMatrix(0j, 0j, 0j, 0j)
    gens = entry.generators._replace(m3=zero)
    report = cat.check_entry(entry.config, gens, entry=tag)
    assert {check.entry for check in report.checks} == {tag} and report.errors == ()
    assert report.failures() == [
        f"{tag}: stored generators disagree with a rebuild from the stored faces on M3"
        " by 2.000e+00",
        f"{tag}: M3 determinant drifts by 1.000e+00",
        f"{tag}: relations fail on a2, a5, a6, a8",
        f"{tag}: trace checks fail on a2, a5, a6, a8",
    ]


_M1_WORDS = ("a3", "a4", "a6", "a9")


@pytest.mark.parametrize(
    "change,failed",
    [
        (lambda gens: gens, ()),
        (lambda gens: gens._replace(m3=MoebiusMatrix(0j, 0j, 0j, 0j)), ("a2", "a5", "a6", "a8")),
        (lambda gens: gens._replace(m1=gens.m1._replace(b=5e-324 + 0j)), _M1_WORDS),
        (lambda gens: gens._replace(m1=gens.m1._replace(d=1e308 + 0j)), _M1_WORDS),
    ],
    ids=["untouched", "m3-zeroed", "m1-subnormal", "m1-1e308"],
)
def test_a_word_that_cannot_be_measured_reads_inf(full_entries, change, failed):
    # A zero determinant (M3's own, or one that underflows in an M1 word's
    # base or power) leaves the word unmeasurable: it fails with an infinite
    # relation residual, and an infinite or huge trace residual, while every
    # stage keeps its record and every other word its residual.
    entry = next(e for e in full_entries if not e.family)
    gens = change(entry.generators)
    report = cat.check_entry(entry.config, gens)
    assert [check.stage for check in report.checks] == [
        "angle", "generator", "determinant", "relation", "trace"
    ]
    assert report.errors == ()
    relation, trace = report.checks[3:]
    assert moebius.verify_relations(gens) == Report((relation,))
    assert moebius.trace_check(gens) == Report((trace,))
    untouched = entry.verification
    for check, field in ((relation, "relations"), (trace, "traces")):
        assert len(check.residuals) == 9
        assert [
            edge for edge, residual, tol in zip(check.edges, check.residuals, check.tol)
            if not residual <= tol
        ] == list(failed)
        for edge, residual, kept in zip(check.edges, check.residuals, untouched[field]):
            assert residual == kept if edge not in failed else residual > 1e161
    assert all(relation.residuals[EDGE_NAMES.index(edge)] == math.inf for edge in failed)


def _count_work(monkeypatch) -> dict[str, int]:
    """Count verify_config calls, through every binding of it, and matrix inversions."""
    counts = {"verify_config": 0, "inv": 0}
    verify_config, inv = geometry.verify_config, MoebiusMatrix.inv

    def counted_verify_config(*args, **kwargs):
        counts["verify_config"] += 1
        return verify_config(*args, **kwargs)

    def counted_inv(self):
        counts["inv"] += 1
        return inv(self)

    for module in (geometry, moebius, cat):
        for name, value in list(vars(module).items()):
            if value is verify_config:
                monkeypatch.setattr(module, name, counted_verify_config)
    monkeypatch.setattr(MoebiusMatrix, "inv", counted_inv)
    return counts


def _count_records(monkeypatch) -> dict[str, int]:
    """Count the Check records built from now on."""
    records = {"built": 0}
    new = geometry.Check.__new__

    def counted_new(cls, *args, **kwargs):
        records["built"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(geometry.Check, "__new__", counted_new)
    return records


def test_each_entry_is_measured_once(full_entries, monkeypatch):
    # One angle measurement, and one build of the relation words (three
    # inversions), per built entry and per configuration verify checks.
    # A stored entry as verify reads it: freshly loaded, no words built yet.
    stored = next(e for e in full_entries if not e.family)
    stored = cat.load_catalog(io.StringIO(cat.dumps_catalog([stored])))[0]
    family = next(e for e in full_entries if e.family)
    counts = _count_work(monkeypatch)

    entry, report = cat.build_entry(stored.labeling)
    assert report.ok and counts == {"verify_config": 1, "inv": 3}
    counts.update(verify_config=0, inv=0)
    records = _count_records(monkeypatch)
    report = cat.verify_catalog([stored])
    assert report.ok
    assert counts == {"verify_config": 1, "inv": 3}
    # Each record is built once, already tagged with its entry: one for
    # each stage, and one for the drift of the stored faces.
    assert records["built"] == len(report.checks) == 6
    # Every stage has its row in the table of stages, and every row its stage.
    assert {check.stage for check in report.checks} == set(geometry.STAGES)
    counts.update(verify_config=0, inv=0)
    report = cat.verify_catalog([family], samples=[family.free_min])
    assert report.ok and report.entries_checked == 1
    assert counts == {"verify_config": 1, "inv": 3}


@pytest.fixture(scope="module")
def max12_entries():
    """``build_catalog(max_n=12)`` as built, and as ``load_catalog`` reads its dump back."""
    entries, failures = cat.build_catalog(enumerate_catalog(), max_n=12)
    assert failures == []
    return entries, cat.load_catalog(io.StringIO(cat.dumps_catalog(entries)))


def _without_a_shared_memo(monkeypatch) -> None:
    """Make every relation and trace check of the catalog module measure each word afresh."""
    for name in ("verify_relations", "trace_check"):

        def fresh(gens, *, entry="", memo=None, check=getattr(cat, name)):
            return check(gens, entry=entry)

        monkeypatch.setattr(cat, name, fresh)


def _flip_zero_signs(entries) -> tuple[cat.Catalog, int]:
    """The entries' dump, loaded with the sign of every zero matrix entry
    flipped in every other stored row, and the number of zeros flipped."""
    doc = json.loads(cat.dumps_catalog(entries))
    flipped = 0
    for row in [row for row in doc["entries"] if not row["family"]][::2]:
        for name in ("m1", "m2", "m3", "m4"):
            for z in (z for matrix_row in row["generators"][name] for z in matrix_row):
                for part in ("re", "im"):
                    if z[part] == 0.0:
                        z[part] = math.copysign(0.0, -math.copysign(1.0, z[part]))
                        flipped += 1
    return cat.load_catalog(io.StringIO(json.dumps(doc))), flipped


def test_a_shared_memo_changes_no_row(max12_entries, monkeypatch):
    # Every target of the sweep and every built entry, bit for bit: repr
    # tells -0.0 from 0.0 and shows every digit of a float.  A memo key
    # compares generators with ==, under which -0.0 equals 0.0, so the
    # sweep also runs on the dump with the zeros of every other stored row
    # flipped: a word reads the residuals measured for generators whose
    # zeros carry other signs.
    built, loaded = max12_entries
    zeros_flipped, flipped = _flip_zero_signs(loaded)
    assert flipped == 1094
    catalogs = (loaded, zeros_flipped)
    shared = [cat.verify_catalog(catalog) for catalog in catalogs]
    assert all(report.ok and report.entries_checked == 206 for report in shared)
    _without_a_shared_memo(monkeypatch)
    for catalog, report in zip(catalogs, shared):
        fresh = cat.verify_catalog(catalog)
        assert list(map(repr, report.checks)) == list(map(repr, fresh.checks))
        assert fresh.errors == ()
    fresh_built, _ = cat.build_catalog(enumerate_catalog(), max_n=12)
    assert [repr(e.verification) for e in fresh_built] == [repr(e.verification) for e in built]


def test_an_unmoved_row_gets_six_zero_drifts(max12_entries):
    # Each face of a stored row lies at distance 0.0 from its fresh realization.
    _, loaded = max12_entries
    drifts = [check for check in cat.verify_catalog(loaded).checks if check.stage == "drift"]
    assert len(drifts) == 158
    assert {(check.edges, check.residuals) for check in drifts} == {
        (PlanarConfig._fields, (0.0,) * 6)
    }


def test_a_stored_row_rebuilds_exactly_and_up_to_sign(max12_entries):
    # check_entry rebuilds a stored row's generators from its stored faces by
    # the float operations that built them, so all eight edges of the
    # generator record read 0.0.  They still do with any one stored matrix
    # negated, the same element of PSL2.
    _, loaded = max12_entries
    rows = [entry for entry in loaded if not entry.family]
    assert len(rows) == 158
    memo: dict = {}
    for entry in rows:
        gens = entry.generators
        negated = [
            gens._replace(**{name: MoebiusMatrix(*(-z for z in getattr(gens, name)))})
            for name in ("m1", "m2", "m3", "m4")
        ]
        for variant in (gens, *negated):
            generator = cat.check_entry(entry.config, variant, memo=memo).checks[1]
            assert generator.stage == "generator" and len(generator.edges) == 8
            assert generator.residuals == (0.0,) * 8, entry.labeling


def test_each_sweep_measures_each_distinct_word_once(max12_entries, monkeypatch):
    # 206 targets of nine words each are 1,854 words, 686 of them distinct.
    # The memo keys a word by its generator pair and exponent, and 5 of the
    # 686 bases are each reached from two pairs, so 691 words are powered;
    # a second sweep powers them all again, so no memo outlives its call.
    _, loaded = max12_entries
    calls = []
    pow_ = MoebiusMatrix.pow

    def counted_pow(self, n):
        calls.append(n)
        return pow_(self, n)

    monkeypatch.setattr(MoebiusMatrix, "pow", counted_pow)
    for _ in range(2):
        calls.clear()
        report = cat.verify_catalog(loaded)
        assert report.ok
        assert sum(row.stage == "relation" for row in oracles.rows(report)) == 1854
        assert len(calls) == 691


def test_build_catalog_cusp_filter():
    # The caller selects one cusp's rows and build_catalog builds exactly
    # them; each instance is stamped with its row's free slot and bound.
    rows = [row for row in enumerate_catalog() if row.cusp is CuspType.C244]
    entries, failures = cat.build_catalog(rows, max_n=8)
    assert failures == []
    families = {row.labeling: row for row in rows if row.family}
    assert [e for e in entries if e.family] == list(families.values())
    standalone = [e.labeling for e in entries if e.free_slot is None]
    assert standalone == [row.labeling for row in rows if not row.family]
    instances = [e for e in entries if e.family_n is not None]
    assert len(instances) == sum(8 - row.free_min + 1 for row in families.values())
    for inst in instances:
        slot = inst.free_slot
        row = families[inst.labeling[:slot] + (None,) + inst.labeling[slot + 1 :]]
        assert (inst.free_slot, inst.free_min) == (row.free_slot, row.free_min)
        assert inst.family_n == inst.labeling[slot] >= row.free_min
    assert len(entries) == len(rows) + len(instances) == 28 + 12
    assert all(e.cusp is CuspType.C244 for e in entries)


def test_build_catalog_expands_families():
    items = [i for i in enumerate_catalog() if i.family][:2]
    entries, _ = cat.build_catalog(items, max_n=8)
    patterns = [e for e in entries if e.family]
    instances = [e for e in entries if e.family_n is not None]
    assert len(patterns) == 2
    # free_min is 6 or 7, so 8 - free_min + 1 instances per family
    assert len(instances) == sum(8 - i.free_min + 1 for i in items)
    for inst in instances:
        assert inst.free_slot == 3
        assert inst.labeling[3] == inst.family_n
        assert inst.config is not None and inst.generators is not None


def test_entries_sorted_with_instances_interleaved():
    items = [i for i in enumerate_catalog() if i.family][:1]
    entries, _ = cat.build_catalog(items, max_n=9)
    keys = [catalog_order(e.cusp, e.labeling) for e in entries]
    assert keys == sorted(keys)
    # the pattern row (free slot counted as 0) precedes its instances
    assert entries[0].family


def test_json_round_trip_is_bit_exact(full_entries):
    text = cat.dumps_catalog(full_entries)
    loaded = cat.load_catalog(io.StringIO(text))
    assert cat.dumps_catalog(loaded) == text


def _assert_dumps_like_json_dumps(entries):
    expected = json.dumps(cat.catalog_to_json(entries), indent=2) + "\n"
    assert cat.dumps_catalog(entries) == expected


def test_dumps_catalog_matches_json_dumps():
    entries, _ = cat.build_catalog(enumerate_catalog(), max_n=12)
    _assert_dumps_like_json_dumps(entries)
    # The document with no rows keeps json's empty entries list.
    _assert_dumps_like_json_dumps([])


@pytest.fixture(scope="module")
def mixed_entries():
    """A family row, its instances at n = 6 and 7, and two standalone rows."""
    items = enumerate_catalog()
    family = next(item for item in items if item.family)
    standalone = [item for item in items if not item.family][:2]
    entries, failures = cat.build_catalog([family, *standalone], max_n=7)
    assert failures == []
    assert [e.family for e in entries].count(True) == 1
    assert sum(e.family_n is not None for e in entries) == 2
    return entries


class _Label(int):
    """An int whose ``str`` is not its JSON text; ``json.dumps`` writes ``int.__repr__``."""

    def __repr__(self) -> str:
        return f"_Label({int(self)})"

    __str__ = __repr__


def _short_verification(entries):
    entry = next(e for e in entries if e.verification)
    residuals = {field: values[:3] for field, values in entry.verification.items()}
    residuals["angles"] = ()
    return [entry._replace(verification=residuals)]


@pytest.mark.parametrize(
    "select",
    [
        lambda entries: entries,
        lambda entries: [],
        lambda entries: [
            e._replace(generators=e.generators._replace(theta1=3, theta2=-2**70))
            for e in entries
            if e.generators
        ],
        _short_verification,
        lambda entries: [
            e._replace(verification={"traces": (math.inf,)}) for e in entries
        ],
        # Rows that differ only in where their leaves sit, or in a key.
        lambda entries: [
            e._replace(verification={stage: (1.0,)})
            for e in entries
            for stage in ("angles", "traces", "50%", "%s", "\0")
        ],
        # Keys that are one key to Python and that json spells apart.
        lambda entries: [
            e._replace(verification={key: (1.0,)})
            for e in entries
            for key in (1, True, 1.0, 0, False, 0.0, -0.0, None, "1")
        ],
        lambda entries: [
            entries[0]._replace(labeling=labeling) for labeling in ((1, [2]), ([2], 1))
        ],
        lambda entries: [
            e._replace(labeling=tuple(map(_Label, e.labeling))) for e in entries if not e.family
        ],
        # A container in a scalar slot is laid out as json.dumps lays it out.
        lambda entries: [e._replace(free_slot=[3, [4.5]]) for e in entries],
        lambda entries: [
            e._replace(config=e.config._replace(a3_branch=[2, {"b": None}]))
            for e in entries
            if e.config
        ],
        lambda entries: [
            e._replace(generators=e.generators._replace(theta1=[0.5, [math.nan]]))
            for e in entries
            if e.generators
        ],
    ],
    ids=[
        "mixed",
        "empty",
        "int-in-float-field",
        "short-verification",
        "one-stage",
        "stage-names",
        "odd-keys",
        "nested-labels",
        "int-subclass-labels",
        "list-free-slot",
        "list-a3-branch",
        "list-theta1",
    ],
)
def test_dumps_catalog_matches_json_dumps_on_edge_rows(mixed_entries, select):
    _assert_dumps_like_json_dumps(select(mixed_entries))


def test_dumps_catalog_rejects_a_leaf_json_dumps_rejects(mixed_entries):
    entry = mixed_entries[0]
    rows = [entry._replace(labeling=(2, leaf, 2, 2, 2, 2, 2, 2, 2)) for leaf in (1j, {2})]
    rows.append(entry._replace(verification={(1, 2): (1.0,)}))
    messages = [
        "Object of type complex is not JSON serializable",
        "Object of type set is not JSON serializable",
        "keys must be str, int, float, bool or None, not tuple",
    ]
    for row, message in zip(rows, messages, strict=True):
        with pytest.raises(TypeError) as expected:
            json.dumps(cat.catalog_to_json([row]), indent=2)
        with pytest.raises(TypeError) as got:
            cat.dumps_catalog([row])
        assert str(got.value) == str(expected.value) == message


def test_dumps_catalog_calls_are_independent(full_entries, mixed_entries):
    catalogs = [full_entries, mixed_entries, _short_verification(mixed_entries), full_entries[:3]]
    texts = [cat.dumps_catalog(entries) for entries in catalogs]
    for entries, text in zip(catalogs, texts):
        assert text == json.dumps(cat.catalog_to_json(entries), indent=2) + "\n"


_NUMBERS = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.2250738585072e-308])
    | st.integers(min_value=-(2**70), max_value=2**70)
)
_RADII = st.floats(min_value=5e-324, allow_infinity=True) | st.integers(min_value=1)


def _with_numbers(value, draw, key=None):
    """``value`` with each number drawn anew, except line normals and circle radii."""
    if isinstance(value, dict):
        return {k: _with_numbers(item, draw, k) for k, item in value.items()}
    if isinstance(value, list):
        return value if key == "normal" else [_with_numbers(item, draw) for item in value]
    if type(value) is float:
        return draw(_RADII if key == "radius" else _NUMBERS)
    return value


@st.composite
def _catalogs(draw, pool):
    """Built rows as they are, and stored rows with drawn numbers and payloads."""
    entries = []
    for entry in draw(st.lists(st.sampled_from(pool), max_size=6)):
        if entry.family or draw(st.booleans()):
            entries.append(entry)
            continue
        entry = cat.entry_from_json(_with_numbers(cat.entry_to_json(entry), draw))
        stages = draw(st.lists(st.sampled_from(list(_STORED)), unique=True))
        verification = {s: tuple(draw(st.lists(_NUMBERS, max_size=10))) for s in stages}
        nulled = draw(st.lists(st.sampled_from(["config", "generators"]), unique=True))
        payload = {"verification": draw(st.sampled_from([entry.verification, verification]))}
        entries.append(entry._replace(**payload, **dict.fromkeys(nulled)))
    return entries


@settings(max_examples=60)
@given(data=st.data())
def test_dumps_catalog_matches_json_dumps_on_any_rows(mixed_entries, data):
    _assert_dumps_like_json_dumps(data.draw(_catalogs(mixed_entries)))


_TEXT = st.text(
    st.characters(min_codepoint=0, max_codepoint=sys.maxunicode)
    | st.sampled_from("\x00\x1f\x7f\"\\\n\t\u2028\xe9\u4e2d\U0001f600")
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda n: -n)
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.2250738585072e-308])
    | _TEXT
)
# A dict key is any scalar: json accepts a str, int, float, bool or None key.
_JSON_TREES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(_SCALARS, children, max_size=5)
    ),
    max_leaves=40,
)


def _nested(depth, leaf):
    value = leaf
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


@given(_JSON_TREES)
@example([])
@example({})
@example({"": [{}, [], [[]], {"a": {}}]})
@example(_nested(60, 1.5))
@example(_nested(61, [-0.0, math.nan]))
def test_indented_writer_matches_json_dumps(value):
    leaves = []
    cat._leaves([value], leaves, [])
    assert cat._write_template(value, "\n") % cat._spell(leaves) == json.dumps(value, indent=2)


def test_json_document_structure(full_entries):
    doc = json.loads(cat.dumps_catalog(full_entries[:3]))
    assert doc["schema"] == "prism-catalog/1"
    prov = doc["provenance"]
    assert prov["tool"] == "prismcat"
    assert set(prov["tolerances"]) == {
        "construction",
        "angle",
        "relation",
        "relation_large_power",
        "large_exponent",
        "trace",
        "determinant",
    }
    for record in doc["entries"]:
        assert set(record) == {
            "labeling",
            "cusp",
            "family",
            "free_slot",
            "free_min",
            "family_n",
            "config",
            "generators",
            "verification",
        }


def test_changing_a_document_leaves_later_dumps_unchanged(full_entries):
    text = cat.dumps_catalog(full_entries[:3])
    doc = cat.catalog_to_json(full_entries[:3])
    doc["provenance"]["tolerances"]["angle"] = 1.0
    doc["provenance"]["tolerances"]["extra"] = 2.0
    assert cat.dumps_catalog(full_entries[:3]) == text
    assert cat.TOLERANCES["angle"] == 1e-9 and "extra" not in cat.TOLERANCES


def test_complex_numbers_encode_as_re_im_pairs(full_entries):
    specific = next(e for e in full_entries if not e.family)
    record = cat.entry_to_json(specific)
    m1 = record["generators"]["m1"]
    assert isinstance(m1, list) and len(m1) == 2
    for row in m1:
        for cell in row:
            assert set(cell) == {"re", "im"}
    assert set(record["generators"]["fixed1"]) == {"re", "im"}
    top = record["config"]["top"]
    assert set(top) == {"center", "radius"}
    assert len(top["center"]) == 2


def test_family_rows_serialize_with_null_slot(full_entries):
    family = next(e for e in full_entries if e.family)
    record = cat.entry_to_json(family)
    assert record["family"] is True
    assert record["labeling"].count(None) == 1
    assert record["free_slot"] == 3
    assert record["free_min"] in (6, 7)
    assert record["config"] is None
    assert record["generators"] is None
    assert record["verification"] is None


def test_load_rejects_unknown_schema(full_entries):
    doc = json.loads(cat.dumps_catalog(full_entries[:1]))
    doc["schema"] = "something-else/2"
    with pytest.raises(ValueError, match="schema"):
        cat.load_catalog(io.StringIO(json.dumps(doc)))


def test_dump_and_load_via_path(tmp_path, full_entries):
    path = str(tmp_path / "catalog.json")
    cat.dump_catalog(full_entries[:5], path)
    loaded = cat.load_catalog(path)
    assert len(loaded) == 5
    assert loaded[0] == full_entries[0]


# ---------------------------------------------------------------------------
# verify_catalog


def test_verify_catalog_passes_on_fresh_entries(full_entries):
    report = cat.verify_catalog(full_entries)
    assert report.ok
    # 78 specifics plus 12 families sampled at 4 values each
    assert report.entries_checked == 78 + 12 * 4
    assert report.max_residual("angle") <= 1e-9
    assert report.max_residual("relation") <= 1e-6
    assert report.max_residual("trace") <= 1e-8
    assert report.max_residual("determinant") <= 1e-10
    assert report.max_residual("drift") <= 1e-9


def test_verify_catalog_fails_an_empty_catalog():
    # An empty iterator is as empty as an empty list.
    for entries in ([], iter([])):
        report = cat.verify_catalog(entries)
        assert report.errors == ("the catalog has no entries",)
        assert report.checks == () and report.entries_checked == 0 and not report.ok
    # The empty catalog fails only for having no entries, whatever the samples.
    assert cat.verify_catalog([], samples=[3]).errors == ("the catalog has no entries",)


def test_verify_catalog_reads_a_one_shot_iterator_of_entries(full_entries):
    # Every stored row's residuals are tampered; read once, each is still checked.
    tampered = [
        e if e.family else e._replace(verification={**e.verification, "angles": (1.0,) * 9})
        for e in full_entries
    ]
    report = cat.verify_catalog(iter(tampered))
    assert not report.ok
    assert report.entries_checked == 78 + 12 * 4
    assert len(report.failures()) == 78
    assert all("disagree with recomputation on angles a1," in f for f in report.failures())


def test_verify_catalog_compares_the_provenance_of_a_loaded_catalog(full_entries):
    # The loaded Catalog carries its provenance, so the library call reaches
    # the verdict the verify command prints.  A plain list has none to compare.
    doc = json.loads(cat.dumps_catalog(full_entries[:1]))
    doc["provenance"]["tool"] = "other"
    loaded = cat.load_catalog(io.StringIO(json.dumps(doc)))
    report = cat.verify_catalog(loaded)
    assert report.errors == ("provenance: tool 'other' is not 'prismcat'",)
    assert not report.ok
    assert cat.verify_catalog(list(loaded)).ok


def _readme_tolerance_rows() -> list[tuple[str, list[str], list[float]]]:
    """The README's tolerance table: each row's check, its TOLERANCES entries and its bounds."""
    readme = (Path(cat.__file__).resolve().parents[2] / "README.md").read_text()
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith(("| check", "| -")):
            continue
        check, entries, bounds = (cell.strip() for cell in line.strip("|").split("|"))
        names = [name.strip(" `") for name in entries.split("/")]
        rows.append((check, names, [float(bound) for bound in bounds.split("/")]))
    return rows


def test_readme_tolerance_table_names_the_bound_each_stage_reads(monkeypatch):
    rows = _readme_tolerance_rows()
    assert len(rows) == 7
    for check, names, bounds in rows:
        assert [cat.TOLERANCES[name] for name in names] == bounds, check
    relation = next(check for check, _, _ in rows if "(`relation`)" in check)
    assert f"order <= {cat.TOLERANCES['large_exponent']} / above" in relation
    # Each bound made distinct and read back from the rows: a row's tol names
    # the entry its stage read when it ran.
    lab = Labeling(2, 3, 2, 500, 6, 2, 2, 2, 2)
    entry, _ = cat.build_entry(lab)
    bounds = [name for name in cat.TOLERANCES if name != "large_exponent"]
    for index, name in enumerate(bounds, 1):
        monkeypatch.setitem(cat.TOLERANCES, name, cat.TOLERANCES[name] * (1 + index / 64))
    read = {cat.TOLERANCES[name]: name for name in bounds}
    stages: dict[str, set] = {}
    for row in oracles.rows(cat.verify_catalog([entry])):
        stages.setdefault(row.stage, set()).add(read[row.tol])
    for check, names, _ in rows:
        stage = check.rsplit("(`", 1)[1].rstrip("`)")
        if stage == "realize":
            # realize's gates reject this labeling once their bound exceeds its clearance.
            rejects = []
            for name in bounds:
                with monkeypatch.context() as patch:
                    patch.setitem(cat.TOLERANCES, name, 10.0)
                    try:
                        geometry.realize(lab)
                    except geometry.RealizationError:
                        rejects.append(name)
            assert rejects == names
        else:
            assert stages.pop(stage) == set(names), stage
    assert stages == {}


@pytest.mark.parametrize(
    "cut, failures",
    [
        (
            lambda v: {field: residuals[:3] for field, residuals in v.items()},
            [f"entry stores 3 {field} residuals, expected 9" for field in _STORED],
        ),
        (
            lambda v: {"traces": v["traces"]},
            [
                "entry stores 0 angles residuals, expected 9",
                "entry stores 0 relations residuals, expected 9",
            ],
        ),
    ],
    ids=["three-each", "traces-only"],
)
def test_verify_catalog_fails_a_row_with_short_or_partial_residuals(full_entries, cut, failures):
    # The decoder rejects such rows in a file; a row built in the library is
    # checked by verify_catalog itself, which names the entry.
    row = next(e for e in full_entries if not e.family)
    row = row._replace(verification=cut(row.verification))
    report = cat.verify_catalog([row])
    tag = cat.label_tag(row.labeling)
    assert report.failures() == [f"{tag}: {failure}" for failure in failures]


def test_verify_catalog_sample_values_below_bound_are_skipped(full_entries):
    families = [e for e in full_entries if e.family]
    # A one-shot iterator of samples is read once, for every family.
    for samples in ([3, 8, 12], iter([3, 8, 12])):
        report = cat.verify_catalog(families, samples=samples)
        # every family bound is 6 or 7, so the 3 never applies
        assert report.entries_checked == 2 * len(families) == 24
        assert report.ok


def test_verify_catalog_fails_when_no_sample_reaches_a_family(full_entries):
    # Every family bound is 6 or 7, so these samples leave nothing to check.
    families = [e for e in full_entries if e.family]
    for samples in ([3, 5], [-5], [], iter([3])):
        report = cat.verify_catalog(families, samples=samples)
        assert report.errors == ("no labeling to check: every sample is below its family's bound",)
        assert report.checks == () and report.entries_checked == 0 and not report.ok


def test_verify_catalog_flags_corrupted_radius(full_entries):
    text = cat.dumps_catalog(full_entries)
    doc = json.loads(text)
    victim = next(r for r in doc["entries"] if not r["family"])
    victim["config"]["top"]["radius"] += 1e-3
    entries = cat.load_catalog(io.StringIO(json.dumps(doc)))
    report = cat.verify_catalog(entries)
    assert not report.ok
    label_text = " ".join(str(v) for v in victim["labeling"])
    assert any(label_text in failure for failure in report.failures())
    assert report.max_residual("drift") >= 1e-4


@pytest.mark.parametrize("face", ["red", "green"])
def test_verify_catalog_flags_a_stored_line_with_its_normal_flipped(full_entries, face):
    # Negating a line's normal and offset keeps the line and every angle it
    # makes with another face, so only the comparison of the stored faces
    # with a fresh realization sees the change.
    doc = json.loads(cat.dumps_catalog(full_entries))
    victim = next(r for r in doc["entries"] if r["labeling"] == [2, 3, 2, 2, 6, 4, 2, 2, 2])
    line = victim["config"][face]
    line.update(normal=[-v for v in line["normal"]], offset=-line["offset"])
    report = cat.verify_catalog(cat.load_catalog(io.StringIO(json.dumps(doc))))
    assert report.failures() == [
        f"[2 3 2 2 6 4 2 2 2]: stored configuration drifts from recomputation on {face}"
        " by 2.000e+00"
    ]


def test_verify_catalog_names_a_nan_face_in_the_drift_row(full_entries):
    # The drift record holds each face's distance from a fresh realization.
    # A NaN offset makes the red face's distance NaN, which fails and which
    # the summary shows; a top radius moved by 1e-12 reads 1e-12 on the top
    # face and passes, within the drift bound of 1e-9.
    tag = "[2 3 2 2 6 4 2 2 2]"
    tampers = [
        ("red", lambda config: config["red"].update(offset=math.nan), "nan"),
        ("top", lambda config: config["top"].update(radius=config["top"]["radius"] + 1e-12),
         "1.000e-12"),
    ]
    for face, tamper, shown in tampers:
        doc = json.loads(cat.dumps_catalog(full_entries))
        victim = next(r for r in doc["entries"] if r["labeling"] == [2, 3, 2, 2, 6, 4, 2, 2, 2])
        tamper(victim["config"])
        report = cat.verify_catalog(cat.load_catalog(io.StringIO(json.dumps(doc))))
        [drift] = [c for c in report.checks if c.stage == "drift" and c.entry == tag]
        assert drift.edges == PlanarConfig._fields
        assert [e for e, residual in zip(drift.edges, drift.residuals) if residual != 0.0] == [face]
        residual = drift.residuals[drift.edges.index(face)]
        assert f"{residual:.3e}" == f"{report.max_residual('drift'):.3e}" == shown
        failure = f"{tag}: stored configuration drifts from recomputation on {face} by {shown}"
        if face == "red":
            assert failure in report.failures()
        else:
            assert report.ok


def test_verify_catalog_flags_tampered_generator(full_entries):
    text = cat.dumps_catalog(full_entries)
    doc = json.loads(text)
    victim = next(r for r in doc["entries"] if not r["family"])
    victim["generators"]["m2"][0][0]["re"] += 1e-4
    entries = cat.load_catalog(io.StringIO(json.dumps(doc)))
    report = cat.verify_catalog(entries)
    assert not report.ok
    label_text = " ".join(str(v) for v in victim["labeling"])
    assert any(
        label_text in failure and "relation" in failure
        for failure in report.failures()
    )
