"""Tests for triangle classification, admissibility and the enumeration."""

import json
import math
import os
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _oracles as oracles
from prismcat import catalog, geometry, labelings
from prismcat.catalog import build_catalog
from prismcat.labelings import (
    EDGE_FACES,
    EDGE_NAMES,
    EXPECTED_COUNTS,
    PRISMATIC_CIRCUIT,
    SCAN_BOUND,
    VERTEX_TRIPLES,
    VERTICES,
    CuspType,
    Labeling,
    TriangleClass,
    canonicalize,
    catalog_counts,
    catalog_order,
    classify_triangle,
    enumerate_catalog,
    is_admissible,
    scan_admissible,
    symmetry_mate,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_tables.json")


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# classify_triangle


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((2, 3, 3), TriangleClass.SPHERICAL),
        ((2, 3, 4), TriangleClass.SPHERICAL),
        ((2, 3, 5), TriangleClass.SPHERICAL),
        ((2, 2, 7), TriangleClass.SPHERICAL),
        ((2, 3, 6), TriangleClass.EUCLIDEAN),
        ((2, 4, 4), TriangleClass.EUCLIDEAN),
        ((3, 3, 3), TriangleClass.EUCLIDEAN),
        ((2, 3, 7), TriangleClass.HYPERBOLIC),
        ((3, 3, 4), TriangleClass.HYPERBOLIC),
        ((7, 7, 7), TriangleClass.HYPERBOLIC),
    ],
)
def test_classify_triangle_fixtures(triple, expected):
    assert classify_triangle(*triple) is expected


def test_classify_matches_angle_sum_reference():
    # 1/p + 1/q + 1/r compared with 1, in exact arithmetic.
    for p, q, r in product(range(2, 26), repeat=3):
        total = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
        if total > 1:
            expected = TriangleClass.SPHERICAL
        elif total == 1:
            expected = TriangleClass.EUCLIDEAN
        else:
            expected = TriangleClass.HYPERBOLIC
        assert classify_triangle(p, q, r) is expected


def test_classify_is_symmetric():
    assert (
        classify_triangle(2, 3, 7)
        is classify_triangle(3, 7, 2)
        is classify_triangle(7, 2, 3)
    )


def test_classify_rejects_labels_below_two():
    with pytest.raises(ValueError):
        classify_triangle(1, 3, 3)
    with pytest.raises(ValueError):
        classify_triangle(2, 0, 3)
    with pytest.raises(ValueError, match="max_label must be >= 2"):
        scan_admissible(1)


def test_classify_large_labels_stay_exact():
    # Large labels where float angle sums would lose the equality case.
    n = 10**8
    assert classify_triangle(2, 3, n) is TriangleClass.HYPERBOLIC
    assert classify_triangle(n, n, n) is TriangleClass.HYPERBOLIC
    assert classify_triangle(2, 2, n) is TriangleClass.SPHERICAL


# ---------------------------------------------------------------------------
# vertex triples and admissibility


def test_vertex_triples_structure():
    triples = VERTEX_TRIPLES
    assert len(triples) == 6
    indices = [t[0] for t in triples]
    assert (0, 1, 4) in indices  # the ideal vertex
    euclidean = [t for t in triples if t[1] is TriangleClass.EUCLIDEAN]
    assert len(euclidean) == 1 and euclidean[0][0] == (0, 1, 4)
    spherical = [t for t in triples if t[1] is TriangleClass.SPHERICAL]
    assert len(spherical) == 5
    # Each edge index appears exactly twice across the six vertices.
    flat = [i for tri in indices for i in tri]
    assert sorted(set(flat)) == list(range(9))
    assert all(flat.count(i) == 2 for i in range(9))
    # The prismatic circuit is the vertical-face cycle, not a vertex.
    assert PRISMATIC_CIRCUIT not in indices


def test_derived_incidence_tables_match_the_hand_written_ones():
    # VERTEX_TRIPLES, PRISMATIC_CIRCUIT and the mirror permutation are derived
    # from EDGE_FACES and VERTICES; _oracles writes each out by hand.
    assert [(edges, required.value) for edges, required in VERTEX_TRIPLES] == list(
        oracles._VERTEX_TRIPLES
    )
    assert PRISMATIC_CIRCUIT == oracles._CIRCUIT
    assert labelings._MATE_PERMUTATION == oracles._MATE
    assert EDGE_NAMES == tuple(f"a{i}" for i in range(1, 10))
    assert geometry.EDGE_FACES is EDGE_FACES
    # The ideal vertex is the face triple (red, green, blue), whose edges
    # carry the cusp.
    assert VERTICES[0] == ("red", "green", "blue") and VERTEX_TRIPLES[0][0] == (0, 1, 4)


def test_admissible_catalog_member():
    result = is_admissible(Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2))
    assert result
    assert result.ok and result.reason is None


def test_inadmissible_when_ideal_triple_not_euclidean():
    # (a1, a2, a5) = (2, 3, 5) is spherical.
    result = is_admissible(Labeling(2, 3, 2, 7, 5, 2, 2, 3, 2))
    assert not result
    assert "ideal triple not Euclidean" in result.reason
    assert result.triple == (0, 1, 4)


def test_inadmissible_when_finite_vertex_not_spherical():
    # (a1, a3, a4) = (3, 3, 3) is Euclidean at a genuine vertex.
    result = is_admissible(Labeling(3, 3, 3, 3, 3, 3, 3, 3, 3))
    assert not result
    assert "must be spherical" in result.reason


def test_inadmissible_when_circuit_not_hyperbolic():
    # Fix a valid labeling, then shrink a4 so (a4, a5, a6) = (2, 3, 2)
    # becomes spherical while every vertex stays admissible.
    result = is_admissible(Labeling(2, 6, 2, 2, 3, 2, 2, 2, 2))
    assert not result
    assert "prismatic circuit" in result.reason
    assert result.triple == (3, 4, 5)


def test_is_admissible_matches_exact_reference():
    for labels in product(range(2, 6), repeat=4):
        a4, a6, a8, a9 = labels
        candidate = (2, 4, 2, a4, 4, a6, 2, a8, a9)
        assert bool(is_admissible(Labeling(*candidate))) == oracles.brute_admissible(
            candidate
        )


def _assert_matches_loop_forms(labels) -> None:
    """is_admissible and CuspType.of equal their loop forms exactly, errors included."""
    try:
        expected = oracles.loop_is_admissible(labels)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            is_admissible(labels)
        return
    result = is_admissible(labels)
    assert (result.ok, result.reason, result.triple) == expected
    try:
        cusp = oracles.loop_cusp_of(labels)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            CuspType.of(Labeling(*labels))
    else:
        assert CuspType.of(Labeling(*labels)).value == cusp


def test_is_admissible_matches_loop_form_on_the_scan():
    for lab in scan_admissible(SCAN_BOUND):
        _assert_matches_loop_forms(lab)
        _assert_matches_loop_forms(symmetry_mate(lab))


def test_the_sign_table_decides_each_condition_as_classify_triangle():
    # is_admissible decides each of its seven conditions by the sign of
    # q*r + p*r + p*q - p*q*r against its row of _SIGN_TABLE.  The row agrees
    # with classify_triangle on every triple of labels 2..7 or 10^4, so the
    # verdict agrees on every labeling with those labels: each condition
    # reads only its own triple.
    values = [*range(2, SCAN_BOUND + 1), 10**4]
    conditions = [*VERTEX_TRIPLES, (PRISMATIC_CIRCUIT, TriangleClass.HYPERBOLIC)]
    assert [(edges, required) for *_, edges, required in labelings._SIGN_TABLE] == conditions
    for i, j, k, sign, edges, required in labelings._SIGN_TABLE:
        assert (i, j, k) == edges
        for p, q, r in product(values, repeat=3):
            excess = q * r + p * r + p * q - p * q * r
            got = classify_triangle(p, q, r)
            assert ((excess > 0) - (excess < 0) == sign) == (got is required), (edges, p, q, r)


def test_is_admissible_matches_loop_form_at_ten_thousand():
    # Each family member at n = 10^4, and each labeling one label away from
    # it, keeps its verdict, reason and triple.
    for row in enumerate_catalog():
        if row.family:
            member = row.instantiate(10**4)
            _assert_matches_loop_forms(member)
            for slot, value in product(range(9), range(2, SCAN_BOUND + 1)):
                _assert_matches_loop_forms(member[:slot] + (value,) + member[slot + 1 :])


@given(st.lists(st.integers(1, 40), min_size=9, max_size=9))
@example([2, 6, 2, 7, 3, 2, 2, 3, 2])  # admissible
@example([2, 3, 2, 7, 5, 2, 2, 3, 2])  # ideal triple not Euclidean
@example([3, 3, 3, 3, 3, 3, 3, 3, 3])  # a finite vertex not spherical
@example([2, 6, 2, 2, 3, 2, 2, 2, 2])  # prismatic circuit not hyperbolic
@example([2, 3, 6, 2, 2, 2, 2, 2, 1])  # a label below 2
def test_is_admissible_matches_loop_form(labels):
    _assert_matches_loop_forms(labels)


def test_is_admissible_validates_input():
    with pytest.raises(ValueError):
        is_admissible((2, 3, 6))  # wrong arity
    with pytest.raises(ValueError):
        is_admissible((2, 3, 6, 2, 2, 2, 2, 2, 1))  # label below 2


# ---------------------------------------------------------------------------
# symmetry


def test_symmetry_mate_swaps_expected_slots():
    lab = Labeling(2, 3, 2, 4, 6, 5, 2, 3, 2)
    mate = symmetry_mate(lab)
    assert mate == Labeling(3, 2, 2, 5, 6, 4, 3, 2, 2)


def test_symmetry_mate_is_involution():
    for lab in scan_admissible(8):
        assert symmetry_mate(symmetry_mate(lab)) == lab


def test_canonicalize_picks_lex_min_and_is_idempotent():
    lab = Labeling(6, 2, 2, 2, 3, 7, 3, 2, 2)
    canon = canonicalize(lab)
    assert canon == min(tuple(lab), tuple(symmetry_mate(lab)))
    assert canonicalize(canon) == canon
    assert canonicalize(symmetry_mate(lab)) == canon


def test_mate_preserves_admissibility_small_grid():
    for labels in product(range(2, 7), repeat=3):
        a4, a7, a9 = labels
        candidate = Labeling(2, 6, 2, a4, 3, 2, a7, 2, a9)
        assert bool(is_admissible(candidate)) == bool(
            is_admissible(symmetry_mate(candidate))
        )


def test_cusp_type_of_reads_ideal_triple():
    assert CuspType.of(Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2)) is CuspType.C236
    assert CuspType.of(Labeling(2, 4, 2, 5, 4, 2, 2, 2, 3)) is CuspType.C244
    assert CuspType.of(Labeling(3, 3, 2, 4, 3, 5, 3, 2, 2)) is CuspType.C333
    assert CuspType.from_code("244") is CuspType.C244
    for code in ("235", 244, ["244"]):
        with pytest.raises(ValueError, match="unknown cusp type"):
            CuspType.from_code(code)
    assert CuspType.C333.code == "333"


# ---------------------------------------------------------------------------
# scan against the brute-force reference


def test_scan_matches_brute_force_quotient():
    raw = oracles.brute_scan(10)
    scanned = {tuple(l) for l in scan_admissible(10)}
    assert {min(l, oracles.mate(l)) for l in raw} == scanned
    # Every raw labeling's mate is raw-admissible too.
    assert all(oracles.mate(l) in raw for l in raw)


def _vinberg_verdicts(candidates) -> tuple[dict[bool, list[str]], float, float]:
    """Assert that Vinberg's criterion agrees with is_admissible on each labeling.

    Returns each labeling's prismatic circuit class under the criterion's
    verdict, the largest |eigenvalue| read as zero and the smallest read as
    nonzero.
    """
    # Vinberg (1985): five faces meeting at these angles bound a hyperbolic
    # polyhedron when a Gram matrix G(x) of rank 4 has signature (3, 1).
    # x is the product of the red and top faces, which do not meet, so it is
    # the cosh of their distance: x > 1.  So det G(x) = 0 must have a root
    # x > 1 at which G has three positive eigenvalues and one negative.
    # That criterion reads no triangle rule.  The signature counts an
    # eigenvalue outside +-1e-9 as nonzero.
    circuits = {True: [], False: []}
    zero, nonzero = 0.0, math.inf
    for labels in sorted(candidates):
        signatures = []
        for x in oracles.gram_roots(labels, dps=30):
            if x > 1:
                spectrum = oracles.gram_spectrum(labels, x)
                zero = max(zero, *(abs(v) for v in spectrum if abs(v) <= 1e-9))
                nonzero = min(nonzero, *(abs(v) for v in spectrum if abs(v) > 1e-9))
                signs = [(v > 1e-9) - (v < -1e-9) for v in spectrum]
                signatures.append((signs.count(1), signs.count(-1)))
        vinberg = (3, 1) in signatures
        assert vinberg == bool(is_admissible(labels)), (labels, signatures)
        circuit = (labels[i] for i in oracles._CIRCUIT)
        circuits[vinberg].append(oracles.angle_sum_class(*circuit))
    return circuits, zero, nonzero


def test_vinberg_criterion_decides_the_classification():
    # On every labeling <= 8 whose six vertex triples pass, Vinberg's
    # criterion holds exactly where is_admissible's circuit rule does.  The
    # 454 others have a spherical (413) or Euclidean (41) prismatic circuit.
    candidates = {min(lab, oracles.mate(lab)) for lab in oracles.brute_scan(8, circuit=False)}
    assert len(candidates) == 564
    circuits, zero, nonzero = _vinberg_verdicts(candidates)
    assert len(circuits[True]) == 110 and set(circuits[True]) == {"hyperbolic"}
    assert sorted(circuits[False]) == ["euclidean"] * 41 + ["spherical"] * 413
    # Measured, the zero eigenvalue is at most 1.6e-15 and every other at
    # least 0.37, so no rounding can move an eigenvalue across the cut.
    assert zero <= 1e-12 and nonzero >= 0.1


def test_vinberg_criterion_decides_labels_far_above_the_scan_bound():
    # The SCAN_BOUND lemma says a label of 7 stands for every larger one.
    # Raise one label at a time of each labeling <= 7 whose vertex triples
    # pass to 9, 12, 30 or 1000, and keep the results whose vertex triples
    # still pass: Vinberg's criterion decides each as is_admissible does.
    base = {min(lab, oracles.mate(lab)) for lab in oracles.brute_scan(7, circuit=False)}
    assert len(base) == 530
    raised = {
        min(new, oracles.mate(new))
        for lab in base
        for slot in range(9)
        for value in (9, 12, 30, 1000)
        for new in [lab[:slot] + (value,) + lab[slot + 1 :]]
        if all(
            oracles.angle_sum_class(*(new[i] for i in triple)) == required
            for triple, required in oracles._VERTEX_TRIPLES
        )
    }
    assert len(raised) == 136
    circuits, zero, nonzero = _vinberg_verdicts(raised)
    # A raised label makes no Euclidean circuit, since those have labels <= 6.
    assert len(circuits[True]) == 48 and set(circuits[True]) == {"hyperbolic"}
    assert circuits[False] == ["spherical"] * 88
    # Measured, the zero eigenvalue is at most 1.7e-15 and every other at
    # least 0.389.
    assert zero <= 1e-12 and nonzero >= 0.1


@pytest.mark.parametrize("bound", range(2, 8))
def test_scan_at_small_bounds_matches_brute_force_quotient(bound):
    # Below 6 some cusp triples exceed the bound, and the scan must not
    # return their labels.
    raw = oracles.brute_scan(bound)
    assert {tuple(l) for l in scan_admissible(bound)} == {min(l, oracles.mate(l)) for l in raw}


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_scan_loops_match_the_incidence_table(bound):
    # scan_admissible prunes a depth-first search with the conditions, and
    # is_admissible tests them one labeling at a time; both read the vertex
    # triples and the circuit derived from EDGE_FACES and VERTICES.  Every
    # labeling with labels <= bound, tested one by one, gives the scan's set
    # up to the mirror, so a wrong pruning rule shows here.
    raw = [lab for lab in product(range(2, bound + 1), repeat=9) if is_admissible(lab)]
    assert {tuple(lab) for lab in scan_admissible(bound)} == {
        min(lab, oracles.mate(lab)) for lab in raw
    }


def test_scan_results_are_canonical_and_admissible():
    for lab in scan_admissible(12):
        assert canonicalize(lab) == lab
        assert is_admissible(lab)


# ---------------------------------------------------------------------------
# the catalog


def golden_rows(cusp_code):
    """(families, specifics) for one cusp of the golden tables."""
    data = load_golden()
    families = set()
    specifics = set()
    for row in data["cusps"][cusp_code]:
        values = row["labeling"]
        if None in values:
            families.add((tuple(values), row["free_min"]))
        else:
            specifics.add(tuple(values))
    return families, specifics


def catalog_rows(items, cusp):
    families = set()
    specifics = set()
    for item in items:
        if item.cusp is not cusp:
            continue
        if item.family:
            families.add((item.labeling, item.free_min))
        else:
            specifics.add(item.labeling)
    return families, specifics


def test_catalog_counts():
    items = enumerate_catalog()
    counts = catalog_counts(items)
    assert counts[CuspType.C236] == (8, 32)
    assert counts[CuspType.C244] == (4, 24)
    assert counts[CuspType.C333] == (0, 22)
    assert len(items) == 90


def test_catalog_matches_golden_tables():
    items = enumerate_catalog()
    for cusp in CuspType:
        families, specifics = catalog_rows(items, cusp)
        expected_families, expected_specifics = golden_rows(cusp.code)
        assert families == expected_families, f"family rows differ for {cusp.code}"
        assert specifics == expected_specifics, f"specific rows differ for {cusp.code}"


def test_catalog_rows_are_admissible_and_canonical():
    for item in enumerate_catalog():
        if item.family:
            for n in (item.free_min, item.free_min + 1, item.free_min + 17, 1000):
                lab = item.instantiate(n)
                assert is_admissible(lab), (item.labeling, n)
                assert canonicalize(lab) == lab
        else:
            assert is_admissible(item.labeling)
            assert canonicalize(item.labeling) == item.labeling


def test_catalog_is_sorted_and_duplicate_free():
    items = enumerate_catalog()
    keys = [catalog_order(item.cusp, item.labeling) for item in items]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_free_slots_match_probe_oracle():
    # For every scanned labeling and slot, the slot is free by probing far
    # above the scan bound exactly when the catalog has a family through it.
    families = {(item.labeling, item.free_slot) for item in enumerate_catalog() if item.family}
    probed = set()
    for lab in scan_admissible(SCAN_BOUND):
        for slot in range(9):
            if oracles.probe_free_slot(tuple(lab), slot):
                probed.add((lab[:slot] + (None,) + lab[slot + 1 :], slot))
    assert probed == families


def test_enumerate_catalog_reads_free_slots_off_the_scan(monkeypatch):
    calls = 0
    original = labelings.is_admissible

    def counted(labeling):
        nonlocal calls
        calls += 1
        return original(labeling)

    monkeypatch.setattr(labelings, "is_admissible", counted)
    assert len(labelings.enumerate_catalog()) == 90
    # The family thresholds are read off the scan too.
    assert calls == 0


def test_family_free_slot_is_always_a4():
    for item in enumerate_catalog():
        if item.family:
            assert item.free_slot == 3
            assert item.labeling[3] is None


def test_family_bounds():
    bounds = {}
    for item in enumerate_catalog():
        if item.family:
            bounds[item.labeling] = item.free_min
    assert bounds[(2, 6, 2, None, 3, 2, 2, 2, 2)] == 7
    assert bounds[(2, 6, 2, None, 3, 2, 2, 5, 2)] == 7
    assert bounds[(2, 3, 2, None, 6, 2, 2, 2, 2)] == 6
    assert bounds[(2, 4, 2, None, 4, 3, 2, 3, 2)] == 6
    assert all(b in (6, 7) for b in bounds.values())


def test_family_instances_iterate_from_bound():
    # build_catalog expands a family from its bound, in catalog order.
    item = next(i for i in enumerate_catalog() if i.family)
    entries, failures = build_catalog([item], max_n=item.free_min + 2)
    assert failures == []
    instances = [e.labeling for e in entries if not e.family]
    assert instances == [item.instantiate(n) for n in range(item.free_min, item.free_min + 3)]
    assert instances[0][item.free_slot] == item.free_min


def test_instantiate_rejects_below_bound():
    item = next(i for i in enumerate_catalog() if i.free_min == 7)
    with pytest.raises(ValueError, match="free slot takes values >= 7, got 6"):
        item.instantiate(6)
    # A standalone row has no free slot.
    standalone = next(i for i in enumerate_catalog() if not i.family)
    with pytest.raises(ValueError, match="not a family"):
        standalone.instantiate(7)


def test_enumerate_catalog_rows_are_catalog_entries_without_payload():
    rows = enumerate_catalog()
    assert catalog.CatalogEntry is labelings.CatalogEntry
    assert all(type(row) is labelings.CatalogEntry for row in rows)
    assert sum(row.family for row in rows) == 12
    for name in ("family_n", "config", "generators", "verification"):
        assert all(getattr(row, name) is None for row in rows), name
    # A standalone row's labeling is the scan's Labeling, with its edge names.
    assert all(type(row.labeling) is Labeling for row in rows if not row.family)
    for row in rows:
        if row.family:
            assert (row.free_slot, row.labeling[row.free_slot]) == (3, None)
        else:
            assert (row.free_slot, row.free_min) == (None, None)


def test_below_bound_values_of_family_slots_appear_as_specifics():
    # (2,3,2,n,6,2,2,2,2) is a family for n >= 6; its admissible smaller
    # values n = 4, 5 must be listed as standalone rows.
    items = enumerate_catalog()
    specifics = {item.labeling for item in items if not item.family}
    assert (2, 3, 2, 4, 6, 2, 2, 2, 2) in specifics
    assert (2, 3, 2, 5, 6, 2, 2, 2, 2) in specifics
    assert (2, 3, 2, 6, 6, 2, 2, 2, 2) not in specifics


def test_families_stay_admissible_far_beyond_scan_bound():
    # Certificate that the free slot really is unbounded: in every family,
    # the free edge meets only triples whose other two labels are (2, 2) in
    # the spherical checks, and growing it only helps the hyperbolic one.
    for item in enumerate_catalog():
        if not item.family:
            continue
        lab = item.instantiate(max(item.free_min, 9))
        slot = item.free_slot
        for indices, required in VERTEX_TRIPLES:
            if slot not in indices:
                continue
            others = [lab[i] for i in indices if i != slot]
            assert required is TriangleClass.SPHERICAL
            assert sorted(others) == [2, 2]


def test_scan_finds_no_extra_rows_at_larger_bounds():
    # At bound 30 the scan adds only family instances, no new patterns.
    items = enumerate_catalog()
    family_patterns = [
        (item.labeling, item.free_slot) for item in items if item.family
    ]
    specifics = {item.labeling for item in items if not item.family}

    def in_family(lab):
        for pattern, slot in family_patterns:
            if all(
                lab[i] == pattern[i] for i in range(9) if i != slot
            ):
                return True
        return False

    for lab in scan_admissible(30):
        assert tuple(lab) in specifics or in_family(lab), lab


_RANK = {TriangleClass.HYPERBOLIC: 0, TriangleClass.EUCLIDEAN: 1, TriangleClass.SPHERICAL: 2}


def test_scan_bound_lemma_holds_exactly():
    # For w >= 7 the class of (p, q, w) is its class at w = 7, so a label
    # of 7 stands for every larger one and the scan to 7 decides every
    # labeling.  Checked against the exact angle sums.
    assert SCAN_BOUND == 7
    for p, q in product(range(2, 9), repeat=2):
        at_bound = oracles.angle_sum_class(p, q, 7)
        for w in range(7, 41):
            assert oracles.angle_sum_class(p, q, w) == at_bound, (p, q, w)
            assert classify_triangle(p, q, w).value == at_bound, (p, q, w)
        assert at_bound == ("spherical" if p == q == 2 else "hyperbolic")
    # At 6 the lemma fails: (2, 3, 6) is the Euclidean [2,3,6] cusp.
    assert classify_triangle(2, 3, 6) is TriangleClass.EUCLIDEAN
    assert classify_triangle(2, 3, 7) is TriangleClass.HYPERBOLIC


def test_classify_triangle_is_monotone_in_each_label():
    # Raising any label lowers the angle sum, so the class never moves up
    # from hyperbolic through Euclidean to spherical.
    for labels in product(range(2, 13), repeat=3):
        rank = _RANK[classify_triangle(*labels)]
        for slot in range(3):
            raised = list(labels)
            raised[slot] += 1
            assert _RANK[classify_triangle(*raised)] <= rank, (labels, slot)


def test_scan_to_larger_bounds_lowers_onto_the_scan_to_seven():
    # The lemma applied to whole labelings: lowering every label above 7 to 7
    # keeps each vertex and circuit class, so it maps the scan to 12 onto the
    # scan to 7, and raising a 7 in a scanned labeling stays admissible.
    scanned = scan_admissible(SCAN_BOUND)
    larger = scan_admissible(12)
    lowered = {canonicalize(tuple(min(v, 7) for v in lab)) for lab in larger}
    assert lowered == scanned
    for lab in scanned:
        raised = tuple(12 if v == 7 else v for v in lab)
        assert is_admissible(raised), lab


def test_automatic_conditions_hold_on_every_labeling():
    # The conditions is_admissible leaves out: with the scan to 7 standing
    # for every labeling, at most one vertical edge and at most one of a1,
    # a2 carries the label 2.  Families free only a4, from 6 or 7.
    for lab in scan_admissible(SCAN_BOUND):
        assert (lab.a4, lab.a5, lab.a6).count(2) <= 1, lab
        assert (lab.a1, lab.a2).count(2) <= 1, lab
    families = [item for item in enumerate_catalog() if item.family]
    assert {item.free_slot for item in families} == {3}
    assert {item.free_min for item in families} <= {6, 7}
