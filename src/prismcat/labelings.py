"""Combinatorics of dihedral-angle labelings for one-cusped triangular prisms.

A labeling assigns an integer n >= 2 to each of the nine edges of a triangular
prism, encoding a dihedral angle of pi/n along that edge.  Edges a1, a2, a3 run
around the bottom triangle, a4, a5, a6 are the vertical edges, and a7, a8, a9
run around the top triangle; the single ideal vertex is the apex where a1, a2
and a5 meet.  This module classifies angle triples, decides which labelings are
admissible (realizable by a hyperbolic prism with exactly one ideal vertex),
and enumerates the complete catalog up to the prism's mirror symmetry: twelve
one-parameter families plus 78 standalone configurations.
"""

from __future__ import annotations

import itertools
import operator
from enum import Enum
from typing import NamedTuple, Optional, Sequence


class TriangleClass(Enum):
    """Type of the triangle with angles pi/p, pi/q, pi/r."""

    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


class Labeling(NamedTuple):
    """The nine edge labels (a1, ..., a9) of a triangular prism.

    Indexing is zero-based (``labeling[3]`` is a4); attribute access uses the
    one-based edge names (``labeling.a4``).
    """

    a1: int
    a2: int
    a3: int
    a4: int
    a5: int
    a6: int
    a7: int
    a8: int
    a9: int


class CuspType(Enum):
    """Angle multiset at the ideal vertex.

    The three values are the only multisets of integers >= 2 whose angle sum
    pi/p + pi/q + pi/r equals pi, i.e. the only Euclidean triples.  They are
    defined in catalog order, which is also the order of their values.
    """

    C236 = (2, 3, 6)
    C244 = (2, 4, 4)
    C333 = (3, 3, 3)

    @property
    def code(self) -> str:
        """Compact digit string, e.g. ``"236"``."""
        return "".join(str(v) for v in self.value)

    @classmethod
    def from_code(cls, code: str) -> "CuspType":
        try:
            return _CUSP_BY_CODE[code]
        except (KeyError, TypeError):  # TypeError: an unhashable code read from JSON
            raise ValueError(
                f"unknown cusp type {code!r}; expected one of 236, 244, 333"
            ) from None

    @classmethod
    def of(cls, labeling: Labeling) -> "CuspType":
        """Cusp type of an admissible labeling, from its ideal-vertex triple."""
        ideal = tuple(sorted(_ideal(labeling)))
        try:
            return _CUSP_BY_TRIPLE[ideal]
        except KeyError:
            raise ValueError(f"ideal triple {ideal} is not Euclidean") from None


_CUSP_BY_CODE = {cusp.code: cusp for cusp in CuspType}
_CUSP_BY_TRIPLE = {cusp.value: cusp for cusp in CuspType}


# The prism's incidence, written once: the faces meeting along each edge
# a1..a9, index-aligned with Labeling, and the faces meeting at each vertex,
# the ideal one first.  The pair (red, top) is absent: those are the only two
# faces without a common edge, and a valid realization keeps them strictly
# disjoint.  Every other incidence table is derived from these two.
EDGE_FACES: tuple[tuple[str, str], ...] = (
    ("red", "green"),
    ("red", "blue"),
    ("red", "back"),
    ("green", "back"),
    ("green", "blue"),
    ("blue", "back"),
    ("green", "top"),
    ("blue", "top"),
    ("back", "top"),
)
VERTICES: tuple[tuple[str, str, str], ...] = (
    ("red", "green", "blue"),
    ("red", "green", "back"),
    ("red", "blue", "back"),
    ("green", "blue", "top"),
    ("green", "back", "top"),
    ("blue", "back", "top"),
)
EDGE_NAMES: tuple[str, ...] = tuple(f"a{edge + 1}" for edge in range(len(EDGE_FACES)))


def _edges_among(faces: Sequence[str]) -> tuple[int, ...]:
    """Indices of the edges both of whose faces are among ``faces``, ascending."""
    return tuple(i for i, pair in enumerate(EDGE_FACES) if set(pair) <= set(faces))


# The six vertices as (edge indices, required triangle class): the ideal apex
# (a1, a2, a5) must be Euclidean, the five finite vertices spherical.
VERTEX_TRIPLES: tuple[tuple[tuple[int, ...], TriangleClass], ...] = tuple(
    (_edges_among(faces), TriangleClass.SPHERICAL if k else TriangleClass.EUCLIDEAN)
    for k, faces in enumerate(VERTICES)
)
_ideal = operator.itemgetter(*VERTEX_TRIPLES[0][0])  # the ideal apex's three labels

# The prismatic 3-circuit: the one triple of pairwise adjacent faces that is
# not a vertex (green, blue, back).  Its edges are the three vertical ones,
# whose labels must form a hyperbolic triangle.
(PRISMATIC_CIRCUIT,) = (
    _edges_among(faces)
    for faces in itertools.combinations(sorted({face for faces in VERTICES for face in faces}), 3)
    if len(_edges_among(faces)) == 3 and set(faces) not in map(set, VERTICES)
)

# Catalog size constants: cusp -> (families, standalone labelings).
EXPECTED_COUNTS: dict[CuspType, tuple[int, int]] = {
    CuspType.C236: (8, 32),
    CuspType.C244: (4, 24),
    CuspType.C333: (0, 22),
}


def classify_triangle(p: int, q: int, r: int) -> TriangleClass:
    """Classify the triangle with angles pi/p, pi/q, pi/r.

    The sign of 1/p + 1/q + 1/r - 1 decides: spherical if positive, Euclidean
    if zero, hyperbolic if negative.  The comparison is performed in exact
    integer arithmetic (q*r + p*r + p*q versus p*q*r), so the Euclidean
    boundary is never subject to floating-point rounding.
    """
    if min(p, q, r) < 2:
        raise ValueError(f"triangle labels must be >= 2, got {(p, q, r)}")
    lhs = q * r + p * r + p * q
    rhs = p * q * r
    if lhs > rhs:
        return TriangleClass.SPHERICAL
    if lhs == rhs:
        return TriangleClass.EUCLIDEAN
    return TriangleClass.HYPERBOLIC


def _validate(labeling: Sequence[int]) -> None:
    if len(labeling) != 9:
        raise ValueError(f"a labeling has nine entries, got {len(labeling)}")
    for v in labeling:
        if not isinstance(v, int) or v < 2:
            raise ValueError(f"edge labels must be integers >= 2, got {tuple(labeling)}")


class Admissibility(NamedTuple):
    """Outcome of the admissibility test.  Truthy iff admissible.

    On failure, ``reason`` says which condition broke and ``triple`` holds the
    offending edge indices (zero-based).
    """

    ok: bool
    reason: Optional[str] = None
    triple: Optional[tuple[int, int, int]] = None

    def __bool__(self) -> bool:
        return self.ok


# The outcome of every admissible labeling; a tuple, so one instance serves all.
_ADMISSIBLE = Admissibility(True)

# Every condition is_admissible checks, in order, and the reason it gives when
# a condition of each required class fails.
_CONDITIONS = (*VERTEX_TRIPLES, (PRISMATIC_CIRCUIT, TriangleClass.HYPERBOLIC))
_FAILURE = {
    TriangleClass.EUCLIDEAN: "ideal triple not Euclidean: ({edges}) = {values} is {got}",
    TriangleClass.SPHERICAL: "vertex triple ({edges}) = {values} is {got}, must be spherical",
    TriangleClass.HYPERBOLIC: "prismatic circuit ({edges}) = {values} is {got}, must be hyperbolic",
}


def is_admissible(labeling: Sequence[int]) -> Admissibility:
    """Test whether a labeling is realizable by a one-cusped hyperbolic prism.

    Requires the ideal-vertex triple (a1, a2, a5) to be Euclidean, the five
    finite-vertex triples to be spherical, and the prismatic circuit
    (a4, a5, a6) to be hyperbolic.  The remaining realizability conditions of
    the general theory are automatic for this combinatorial type -- the prism
    has no prismatic 4-circuits, and with all angles at most pi/2, at most one
    vertical edge and at most one of a1, a2 can carry the label 2 -- so they
    are deliberately not checked.
    """
    _validate(labeling)
    for indices, required in _CONDITIONS:
        i, j, k = indices
        got = classify_triangle(labeling[i], labeling[j], labeling[k])
        if got is not required:
            edges = ", ".join(EDGE_NAMES[index] for index in indices)
            values = (labeling[i], labeling[j], labeling[k])
            reason = _FAILURE[required].format(edges=edges, values=values, got=got.value)
            return Admissibility(False, reason, indices)
    return _ADMISSIBLE


# Mirror symmetry of the prism: exchanging the green and blue faces, which
# swaps a1/a2, a4/a6 and a7/a8, relabels the same prism viewed in a mirror.
# _MATE_PERMUTATION[i] is the source index for output slot i.
_SWAP_GREEN_BLUE = {"green": "blue", "blue": "green"}
_MATE_PERMUTATION = tuple(
    _edges_among([_SWAP_GREEN_BLUE.get(face, face) for face in faces])[0] for faces in EDGE_FACES
)
_mirror = operator.itemgetter(*_MATE_PERMUTATION)


def symmetry_mate(labeling: Sequence[int]) -> Labeling:
    """The labeling of the mirror-image prism (swap a1/a2, a4/a6, a7/a8).

    An involution; admissibility is preserved because the vertex and circuit
    triples map onto each other under the swap.
    """
    return Labeling._make(_mirror(labeling))


def canonicalize(labeling: Sequence[int]) -> Labeling:
    """Lexicographically smaller of a labeling and its mirror image.

    The catalog stores only canonical representatives; canonicalize is
    idempotent.
    """
    lab = tuple(labeling)
    return Labeling._make(min(lab, _mirror(lab)))


class CatalogEntry(NamedTuple):
    """One catalog row: a family pattern, a family instance, or a standalone labeling.

    ``labeling`` holds nine labels with ``None`` in the free slot of a family
    pattern, and every substitution of that slot by an integer >=
    ``free_min`` is admissible.  Instances keep their parent's
    ``free_slot``/``free_min`` and record the substituted value in
    ``family_n``.  The payload -- ``config`` (a ``geometry.PlanarConfig``),
    ``generators`` (a ``moebius.GeneratorSet``) and the ``verification``
    residuals -- is None in a family row and in every row
    ``enumerate_catalog`` gives; ``catalog.build_entry`` fills it in.
    """

    labeling: tuple[Optional[int], ...]
    cusp: CuspType
    family: bool
    free_slot: Optional[int] = None
    free_min: Optional[int] = None
    family_n: Optional[int] = None
    config: Optional["PlanarConfig"] = None
    generators: Optional["GeneratorSet"] = None
    verification: Optional[dict[str, tuple[float, ...]]] = None

    def instantiate(self, n: int) -> Labeling:
        """The family member with the free slot set to n (n >= free_min)."""
        if not self.family:
            raise ValueError("not a family; there is no free slot to fill")
        if n < self.free_min:
            raise ValueError(f"free slot takes values >= {self.free_min}, got {n}")
        slot = self.free_slot
        return Labeling(*self.labeling[:slot], n, *self.labeling[slot + 1 :])


def catalog_order(
    cusp: CuspType, labels: Sequence[Optional[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sort key of a catalog row: its cusp's value, then its labels with a free slot as 0.

    The cusp values sort in the order ``CuspType`` defines them, and a family
    pattern precedes its instances.
    """
    return cusp.value, tuple(0 if v is None else v for v in labels)


# Finite scan bound before family folding: the smallest that decides every
# labeling.  For w >= 7 the class of a triple (p, q, w) does not depend on w:
# it is spherical if p = q = 2 and hyperbolic otherwise (1/2 + 1/3 + 1/7 < 1),
# and Euclidean triples have labels <= 6.  So a label of 7 stands for every
# value >= 7, and a labeling with labels above 7 is admissible exactly when
# it is with those labels lowered to 7 (Andreev 1970; Roeder-Hubbard-Dunbar
# 2007).  At 6 this fails: (2, 3, 6) is Euclidean, (2, 3, 7) hyperbolic.
SCAN_BOUND = 7

# scan_admissible sets the ideal apex's edges first, then the rest by index;
# _SCAN_CHECKS[d] holds the other conditions whose last edge is _SCAN_ORDER[d].
_APEX = VERTEX_TRIPLES[0][0]
_SCAN_ORDER = (*_APEX, *(edge for edge in range(9) if edge not in _APEX))
_SCAN_CHECKS = tuple(
    tuple(c for c in _CONDITIONS[1:] if max(c[0], key=_SCAN_ORDER.index) == edge)
    for edge in _SCAN_ORDER
)


def scan_admissible(max_label: int) -> set[Labeling]:
    """All admissible labelings with labels <= max_label, up to mirror symmetry.

    Depth-first search over the edges in ``_SCAN_ORDER``.  The ideal apex is
    seeded from the Euclidean triples with labels <= max_label, and each
    other condition prunes once its last edge is set, reading the triangle's
    class from a table ``classify_triangle`` fills once.  Raising a triple's
    last label only lowers its angle sum, so a failed spherical condition
    ends the loop at that depth; a failed hyperbolic one skips the value.
    """
    if max_label < 2:
        raise ValueError("max_label must be >= 2")
    found: set[Labeling] = set()
    rng = range(2, max_label + 1)
    cls = {labels: classify_triangle(*labels) for labels in itertools.product(rng, repeat=3)}
    labels = [0] * 9

    def extend(depth: int) -> None:
        if depth == 9:
            found.add(canonicalize(labels))
            return
        edge, checks = _SCAN_ORDER[depth], _SCAN_CHECKS[depth]
        for value in rng:
            labels[edge] = value
            for (i, j, k), required in checks:
                if cls[labels[i], labels[j], labels[k]] is not required:
                    break
            else:
                extend(depth + 1)
                continue
            if required is TriangleClass.SPHERICAL:
                break

    for seed in {seed for cusp in CuspType for seed in itertools.permutations(cusp.value)}:
        if max(seed) <= max_label:
            for edge, value in zip(_APEX, seed):
                labels[edge] = value
            extend(len(_APEX))
    return found


def enumerate_catalog() -> list[CatalogEntry]:
    """The complete catalog of admissible labelings, in canonical order.

    Scans all labelings with labels <= SCAN_BOUND = 7, reads the free slots
    off the scan, and folds family members into single rows.  By the lemma
    at SCAN_BOUND, every admissible labeling lowers to a scanned one, so the
    catalog is complete for all labels, not only up to the bound.

    A slot is free -- admissible for every value from some point on -- exactly
    when the labeling stays admissible with the slot set to SCAN_BOUND, that
    is, when that labeling lies in the scan closed under the mirror symmetry:
    by the same lemma, admissibility at 7 is admissibility at every larger
    value.  A labeling with a free slot is a member of the ray (pattern,
    slot), the pattern being the labeling with ``None`` in that slot.

    A family's lower bound is the larger of its admissibility threshold (the
    least slot value whose labeling lies in the closed scan) and one past the
    largest value the slot takes among same-cusp labelings that belong to no
    ray: above that point the free slot forces every other label, so family
    instances and standalone rows stay disjoint.

    Returns 12 families and 78 standalone rows, none with a payload: 8 + 32
    for cusp [2,3,6], 4 + 24 for [2,4,4], 0 + 22 for [3,3,3].
    """
    scanned = scan_admissible(SCAN_BOUND)
    closed = scanned | {symmetry_mate(lab) for lab in scanned}

    rays: set[tuple[tuple[Optional[int], ...], int]] = set()
    ray_members: set[Labeling] = set()
    for lab in scanned:
        for slot in range(9):
            head, tail = lab[:slot], lab[slot + 1 :]
            if head + (SCAN_BOUND,) + tail in closed:
                rays.add((head + (None,) + tail, slot))
                ray_members.add(lab)

    cusp_of = {lab: CuspType.of(lab) for lab in scanned}
    core = [(cusp_of[lab], lab) for lab in scanned - ray_members]

    rows: list[CatalogEntry] = []
    family_members: set[Labeling] = set()
    for pattern, slot in rays:
        head, tail = pattern[:slot], pattern[slot + 1 :]
        lo = next(v for v in range(2, SCAN_BOUND + 1) if head + (v,) + tail in closed)
        cusp = CuspType.of(Labeling(*head, lo, *tail))
        # One past the largest value the slot takes among core labelings of
        # the same cusp; above this, every admissible labeling is on a ray.
        fold = 1 + max((lab[slot] for c, lab in core if c is cusp), default=1)
        row = CatalogEntry(pattern, cusp, True, free_slot=slot, free_min=max(lo, fold))
        rows.append(row)
        for n in range(row.free_min, SCAN_BOUND + 1):
            member = row.instantiate(n)
            assert member in scanned, f"family gap: {member} missing from scan"
            family_members.add(member)

    for lab in scanned - family_members:
        rows.append(CatalogEntry(lab, cusp_of[lab], False))

    rows.sort(key=lambda row: catalog_order(row.cusp, row.labeling))
    return rows


def catalog_counts(rows: Sequence[CatalogEntry]) -> dict[CuspType, tuple[int, int]]:
    """Per-cusp (families, standalone) counts of a catalog."""
    counts = {cusp: [0, 0] for cusp in CuspType}
    for row in rows:
        counts[row.cusp][0 if row.family else 1] += 1
    return {cusp: (fams, specs) for cusp, (fams, specs) in counts.items()}
