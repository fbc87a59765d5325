"""Independent verification helpers used by the test suite.

Everything here is deliberately written from first principles -- plain
formula transcriptions and brute-force loops -- so that agreement with the
package is meaningful.  Nothing in this module calls back into the
package's enumeration or solving code.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional

import numpy as np

# ---------------------------------------------------------------------------
# Triangle classification via exact rationals


def angle_sum_class(p: int, q: int, r: int) -> str:
    """Classify by comparing 1/p + 1/q + 1/r with 1 using Fractions."""
    total = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
    if total > 1:
        return "spherical"
    if total == 1:
        return "euclidean"
    return "hyperbolic"


# ---------------------------------------------------------------------------
# Brute-force admissibility

# The six vertex triples as index triples, the required class of each, and
# the prismatic circuit.
_VERTEX_TRIPLES = (
    ((0, 1, 4), "euclidean"),
    ((0, 2, 3), "spherical"),
    ((1, 2, 5), "spherical"),
    ((4, 6, 7), "spherical"),
    ((3, 6, 8), "spherical"),
    ((5, 7, 8), "spherical"),
)
_CIRCUIT = (3, 4, 5)


def brute_admissible(labels: tuple[int, ...]) -> bool:
    for (i, j, k), required in _VERTEX_TRIPLES:
        if angle_sum_class(labels[i], labels[j], labels[k]) != required:
            return False
    i, j, k = _CIRCUIT
    return angle_sum_class(labels[i], labels[j], labels[k]) == "hyperbolic"


def brute_scan(max_label: int) -> set[tuple[int, ...]]:
    """Every admissible labeling with labels in [2, max_label], by raw loops."""
    found: set[tuple[int, ...]] = set()
    values = range(2, max_label + 1)
    # Nested filtering keeps this tractable without mirroring the package's
    # search order: fix the ideal triple first, then extend.
    for a1, a2, a5 in product(values, repeat=3):
        if angle_sum_class(a1, a2, a5) != "euclidean":
            continue
        for a3, a4, a6 in product(values, repeat=3):
            if angle_sum_class(a1, a3, a4) != "spherical":
                continue
            if angle_sum_class(a2, a3, a6) != "spherical":
                continue
            if angle_sum_class(a4, a5, a6) != "hyperbolic":
                continue
            for a7, a8, a9 in product(values, repeat=3):
                if angle_sum_class(a5, a7, a8) != "spherical":
                    continue
                if angle_sum_class(a4, a7, a9) != "spherical":
                    continue
                if angle_sum_class(a6, a8, a9) != "spherical":
                    continue
                found.add((a1, a2, a3, a4, a5, a6, a7, a8, a9))
    return found


# ---------------------------------------------------------------------------
# Vectorized admissibility over the full grid (for the symmetry check)

_MATE = (1, 0, 2, 5, 4, 3, 7, 6, 8)


def mate(labels: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(labels[i] for i in _MATE)


def _class_masks(p, q, r):
    """(spherical, euclidean, hyperbolic) masks for broadcast integer arrays."""
    s = q * r + p * r + p * q
    t = p * q * r
    return s > t, s == t, s < t


def grid_admissible_slice(a1: int, a2: int, max_label: int) -> np.ndarray:
    """Boolean admissibility over all (a3..a9) for fixed (a1, a2).

    Axes of the returned array are (a3, a4, a5, a6, a7, a8, a9), each running
    over 2..max_label.
    """
    v = np.arange(2, max_label + 1, dtype=np.int64)
    k = v.size

    def ax(values: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * 7
        shape[axis] = k
        return values.reshape(shape)

    a3, a4, a5 = ax(v, 0), ax(v, 1), ax(v, 2)
    a6, a7, a8, a9 = ax(v, 3), ax(v, 4), ax(v, 5), ax(v, 6)

    _, ideal, _ = _class_masks(a1, a2, a5)
    s134, _, _ = _class_masks(a1, a3, a4)
    s236, _, _ = _class_masks(a2, a3, a6)
    s578, _, _ = _class_masks(a5, a7, a8)
    s479, _, _ = _class_masks(a4, a7, a9)
    s689, _, _ = _class_masks(a6, a8, a9)
    _, _, h456 = _class_masks(a4, a5, a6)

    return ideal & s134 & s236 & s578 & s479 & s689 & h456


def grid_symmetry_mismatches(max_label: int) -> int:
    """Count labelings in [2, max_label]^9 whose mate differs in admissibility.

    The mate swaps a1<->a2, a4<->a6 and a7<->a8; on the (a3..a9) slice these
    are axes (1, 3) and (4, 5).
    """
    mismatches = 0
    for a1 in range(2, max_label + 1):
        for a2 in range(2, max_label + 1):
            original = grid_admissible_slice(a1, a2, max_label)
            mirrored = grid_admissible_slice(a2, a1, max_label)
            mirrored = mirrored.transpose(0, 3, 2, 1, 5, 4, 6)
            mismatches += int(np.count_nonzero(original != mirrored))
    return mismatches


# ---------------------------------------------------------------------------
# Newton solver for the tangent-circle system

# For a labeling (a1..a9) the top circle (x, y, r) satisfies:
#   green tangency:  -cos(t1) x - sin(t1) y - cos(p7) r + cos(p4) = 0
#   blue tangency:   -cos(t2) x + sin(t2) y - cos(p8) r + cos(p6) = 0
#   back co-circle:  x^2 + y^2 - 1 - r^2 - 2 cos(p9) r = 0
# with t1 = pi/a1, t2 = pi/a2, p_i = pi/a_i.  The green and blue unit
# normals and offsets follow from the line making angle pi/a1 (resp. pi/a2)
# with the vertical and angle pi/a4 (resp. pi/a6) with the unit circle.


def _newton_system(labels: tuple[int, ...]):
    a1, a2, _, a4, _, a6, a7, a8, a9 = labels
    t1, t2 = math.pi / a1, math.pi / a2
    c4, c6 = math.cos(math.pi / a4), math.cos(math.pi / a6)
    c7, c8, c9 = (math.cos(math.pi / a) for a in (a7, a8, a9))

    def residual(x: float, y: float, r: float) -> tuple[float, float, float]:
        f1 = -math.cos(t1) * x - math.sin(t1) * y - c7 * r + c4
        f2 = -math.cos(t2) * x + math.sin(t2) * y - c8 * r + c6
        f3 = x * x + y * y - 1.0 - r * r - 2.0 * c9 * r
        return f1, f2, f3

    def jacobian(x: float, y: float, r: float):
        return (
            (-math.cos(t1), -math.sin(t1), -c7),
            (-math.cos(t2), math.sin(t2), -c8),
            (2.0 * x, 2.0 * y, -2.0 * r - 2.0 * c9),
        )

    return residual, jacobian


def _solve3(jac, rhs) -> Optional[tuple[float, float, float]]:
    a = np.array(jac, dtype=float)
    b = np.array(rhs, dtype=float)
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    return float(sol[0]), float(sol[1]), float(sol[2])


def _newton_seeds(n_radial: int = 4, n_angular: int = 4) -> Iterator[tuple[float, float, float]]:
    for i in range(n_radial):
        r = 0.04 + 0.12 * i
        for j in range(n_angular):
            angle = math.radians(15 + 60 * j / max(n_angular - 1, 1))
            rho = 1.0 + 0.8 * r
            yield rho * math.cos(angle), rho * math.sin(angle), r


def newton_circles(labels: tuple[int, ...]) -> list[tuple[float, float, float]]:
    """All distinct positive-radius solutions Newton iteration converges to."""
    residual, jacobian = _newton_system(labels)
    solutions: list[tuple[float, float, float]] = []
    for seed in _newton_seeds():
        x, y, r = seed
        for _ in range(80):
            f = residual(x, y, r)
            if max(abs(c) for c in f) < 1e-14:
                break
            step = _solve3(jacobian(x, y, r), f)
            if step is None:
                break
            x, y, r = x - step[0], y - step[1], r - step[2]
            if not all(math.isfinite(v) for v in (x, y, r)):
                break
        else:
            continue
        if not all(math.isfinite(v) for v in (x, y, r)):
            continue
        if max(abs(c) for c in residual(x, y, r)) > 1e-12 or r <= 1e-6:
            continue
        if not any(
            abs(x - sx) < 1e-8 and abs(y - sy) < 1e-8 and abs(r - sr) < 1e-8
            for sx, sy, sr in solutions
        ):
            solutions.append((x, y, r))
    return solutions


def newton_circle(labels: tuple[int, ...]) -> tuple[float, float, float]:
    """The unique valid top circle: positive radius, clear of the red face."""
    a3 = labels[2]
    red_x = 0.0 if a3 == 2 else -0.5
    valid = [
        (x, y, r)
        for x, y, r in newton_circles(labels)
        if x - red_x - r > 1e-10
    ]
    if len(valid) != 1:
        raise AssertionError(
            f"expected exactly one valid circle for {labels}, found {valid}"
        )
    return valid[0]


# ---------------------------------------------------------------------------
# The top-radius quadratic and the Gram determinant
#
# ``lib`` is ``math`` for float64 or ``mpmath`` for its working precision.


def gram_determinant(x: int, y: int, z: int, lib=math):
    """D = 1 - cos^2 X - cos^2 Y - cos^2 Z - 2 cos X cos Y cos Z, X = pi/x, ...

    The Gram determinant of the triangle with angles pi/x, pi/y, pi/z:
    positive, zero or negative as the triangle is spherical, Euclidean or
    hyperbolic.
    """
    cx, cy, cz = (lib.cos(lib.pi / v) for v in (x, y, z))
    return 1 - cx * cx - cy * cy - cz * cz - 2 * cx * cy * cz


def closed_form_lines(labels: tuple[int, ...], lib=math):
    """The green and blue lines as (nx, ny, d), from the tangency equations above."""
    t1, t2 = lib.pi / labels[0], lib.pi / labels[1]
    green = (-lib.cos(t1), -lib.sin(t1), -lib.cos(lib.pi / labels[3]))
    blue = (-lib.cos(t2), lib.sin(t2), -lib.cos(lib.pi / labels[5]))
    return green, blue


def top_quadratic_ends(labels: tuple[int, ...], green, blue, lib=math):
    """(a, c) of the top radius's quadratic a*r^2 + b*r + c = 0.

    The green and blue tangencies n . (x, y) - cos(pi/a7 or pi/a8) r = d,
    solved by Cramer's rule, put the center at p + q*r; the back co-circle
    equation then gives a = |q|^2 - 1 and c = |p|^2 - 1.  ``green`` and
    ``blue`` are (nx, ny, d) triples.
    """
    (gx, gy, gd), (bx, by, bd) = green, blue
    c7, c8 = lib.cos(lib.pi / labels[6]), lib.cos(lib.pi / labels[7])
    det = gx * by - gy * bx
    px, py = (gd * by - bd * gy) / det, (gx * bd - bx * gd) / det
    qx, qy = (c7 * by - c8 * gy) / det, (gx * c8 - bx * c7) / det
    return qx * qx + qy * qy - 1, px * px + py * py - 1


def lemma_ends(labels: tuple[int, ...], lib=math):
    """(a, c) by the lemma: -D(a5, a7, a8) and -D(a4, a5, a6), over sin^2(pi/a5)."""
    _, _, _, a4, a5, a6, a7, a8, _ = labels
    sin2 = lib.sin(lib.pi / a5) ** 2
    return -gram_determinant(a5, a7, a8, lib) / sin2, -gram_determinant(a4, a5, a6, lib) / sin2


# ---------------------------------------------------------------------------
# Free slots by probing

# Far above every bounded label of the catalog (at most 6), and beyond the
# labelings scan's bound of 12.
FREE_SLOT_PROBES = (20, 21, 22)


def probe_free_slot(labels: tuple[int, ...], slot: int) -> bool:
    """True when the labeling stays admissible with the slot at every probe value."""
    return all(
        brute_admissible(labels[:slot] + (v,) + labels[slot + 1 :])
        for v in FREE_SLOT_PROBES
    )


# ---------------------------------------------------------------------------
# Loop forms of the admissibility test and the cusp lookup

# Plain transcriptions of labelings.is_admissible (one generic loop over the
# vertex triples) and CuspType.of (a scan of the Euclidean triples), with the
# classification done in Fractions.  The package's forms must agree with them
# exactly: the verdict, the failure message and the offending triple.

_EUCLIDEAN_TRIPLES = ((2, 3, 6), (2, 4, 4), (3, 3, 3))


def _edge_names(indices: tuple[int, ...]) -> str:
    return ", ".join(f"a{i + 1}" for i in indices)


def loop_is_admissible(labels) -> tuple[bool, Optional[str], Optional[tuple[int, int, int]]]:
    """(ok, reason, triple) of a labeling; raises ValueError for malformed input."""
    if len(labels) != 9:
        raise ValueError(f"a labeling has nine entries, got {len(labels)}")
    if any(not isinstance(v, int) or v < 2 for v in labels):
        raise ValueError(f"edge labels must be integers >= 2, got {tuple(labels)}")
    for indices, required in _VERTEX_TRIPLES:
        values = tuple(labels[i] for i in indices)
        got = angle_sum_class(*values)
        if got != required:
            if required == "euclidean":
                reason = f"ideal triple not Euclidean: ({_edge_names(indices)}) = {values} is {got}"
            else:
                reason = (
                    f"vertex triple ({_edge_names(indices)}) = {values} is {got},"
                    " must be spherical"
                )
            return False, reason, indices
    values = tuple(labels[i] for i in _CIRCUIT)
    got = angle_sum_class(*values)
    if got != "hyperbolic":
        reason = (
            f"prismatic circuit ({_edge_names(_CIRCUIT)}) = {values} is {got},"
            " must be hyperbolic"
        )
        return False, reason, _CIRCUIT
    return True, None, None


def loop_cusp_of(labels) -> tuple[int, int, int]:
    """The sorted ideal triple (a1, a2, a5); raises ValueError unless it is Euclidean."""
    ideal = tuple(sorted((labels[0], labels[1], labels[4])))
    for triple in _EUCLIDEAN_TRIPLES:
        if triple == ideal:
            return triple
    raise ValueError(f"ideal triple {ideal} is not Euclidean")


# ---------------------------------------------------------------------------
# The PSL2 kernel's float operations, frozen
#
# MoebiusMatrix.pow, distance_to_identity and the trace check's |tr| as they
# were first written, on plain (a, b, c, d) tuples: the determinant through
# a*d - b*c, the trace through a + d, each operation in the same order.  A
# faster kernel must agree with these bit for bit.


def kernel_pow(m: tuple, n: int) -> tuple:
    """M**n by the Chebyshev closed form, with its singular and parabolic branches."""
    a, b, c, d = m
    if n == 0:
        return (1 + 0j, 0j, 0j, 1 + 0j)
    det = a * d - b * c
    if det == 0:
        scale = (a + d) ** (n - 1)
        return (scale * a, scale * b, scale * c, scale * d)
    s = cmath.sqrt(det)
    tau = (a + d) / (2 * s)
    if tau * tau == 1:
        u_n1 = n * tau ** (n - 1)
        u_n2 = (n - 1) * tau ** (n - 2)
    else:
        theta = cmath.acos(tau)
        sin_theta = cmath.sin(theta)
        u_n1 = cmath.sin(n * theta) / sin_theta
        u_n2 = cmath.sin((n - 1) * theta) / sin_theta
    p = s ** (n - 1) * u_n1
    q = s**n * u_n2
    return (p * a - q, p * b, p * c, p * d - q)


def _frobenius(w: complex, x: complex, y: complex, z: complex) -> float:
    return math.hypot(w.real, w.imag, x.real, x.imag, y.real, y.imag, z.real, z.imag)


def kernel_distance_to_identity(m: tuple) -> float:
    """Frobenius distance to +-I after normalizing the determinant to 1."""
    s = cmath.sqrt(m[0] * m[3] - m[1] * m[2])
    a, b, c, d = m[0] / s, m[1] / s, m[2] / s, m[3] / s
    return min(_frobenius(a - 1, b, c, d - 1), _frobenius(a + 1, b, c, d + 1))


def kernel_abs_trace(m: tuple) -> float:
    """|tr M| / sqrt(det M), the trace check's measured value."""
    return abs((m[0] + m[3]) / cmath.sqrt(m[0] * m[3] - m[1] * m[2]))


# ---------------------------------------------------------------------------
# Generators as products of two face reflections
#
# The reflection in a line or circle of the boundary plane is z -> A(conj z)
# for a 2x2 matrix A, so the orientation-preserving R_red o R_f is the
# Moebius map A_red . conj(A_f).  Matrices are (a, b, c, d) tuples.


def face_reflection(face) -> tuple:
    """A with the reflection in ``face`` equal to z -> A(conj z).

    A line n . p = d, with nu = nx + i ny, reflects as z -> -nu^2 conj(z) + 2 d nu;
    a circle |z - c| = r inverts as z -> c + r^2 / (conj(z) - conj(c)).
    """
    if hasattr(face, "r"):
        c = complex(face.cx, face.cy)
        return (c, face.r**2 - abs(c) ** 2, 1 + 0j, -c.conjugate())
    nu = complex(face.nx, face.ny)
    return (-nu * nu, 2 * face.d * nu, 0j, 1 + 0j)


def unit_determinant(m: tuple) -> tuple:
    """``m`` divided by a square root of its determinant."""
    s = cmath.sqrt(m[0] * m[3] - m[1] * m[2])
    return tuple(z / s for z in m)


def reflection_generator(red, face) -> tuple:
    """M_f = A_red . conj(A_f), normalized to determinant 1."""
    a, b, c, d = face_reflection(red)
    e, f, g, h = (z.conjugate() for z in face_reflection(face))
    return unit_determinant((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


def psl2_distance(m: tuple, n: tuple) -> float:
    """Largest entry of m - n or of m + n, whichever is smaller: the distance up to sign."""
    return min(max(abs(x - y) for x, y in zip(m, n)), max(abs(x + y) for x, y in zip(m, n)))
