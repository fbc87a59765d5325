"""Matrix generators for the orientation-preserving prism reflection group.

Doubling the prism across a face turns pairs of reflections into orientation-
preserving isometries; four such side pairings M1..M4 generate the whole
orientation-preserving subgroup.  Acting on the boundary plane as Moebius
transformations w -> (a*w + b)/(c*w + d), they are 2x2 complex matrices of
determinant 1, identified with their negatives (elements of PSL2(C)).

M1 pairs the two hemispherical faces created by doubling across the red face
(for a3 = 2 it is w -> -1/w, preserving the unit circle); M2 and M3 are
rotations by 2*pi/a1 and 2*pi/a2 about the points where the green and blue
lines cross the red line; M4 reflects the top circle across the red line.
Each labeling imposes nine relations -- every edge contributes an elliptic
word whose order is the edge label -- and this module verifies them
numerically, together with the trace identity |tr| = 2*cos(pi/n) that a
well-formed elliptic element of order n must satisfy.

Each M_i is R_red o R_F, the reflection in the red face after the one in its
face F (back, green, blue, top).  ``build_generators`` writes these products in
closed form, and the ``generator`` stage holds stored generators to them.  Once
they agree, every relation word is the product of its edge's two reflections, a
rotation by twice their angle, so the angle rows decide the relations.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from .geometry import RED_LINE_X, TOLERANCES, Check, PlanarConfig, Report
from .labelings import EDGE_FACES, EDGE_NAMES, Labeling

def relation_tolerance(exponent: int) -> float:
    """PSL2-distance threshold for a relation word of the given order, from TOLERANCES."""
    if exponent <= TOLERANCES["large_exponent"]:
        return TOLERANCES["relation"]
    return TOLERANCES["relation_large_power"]


class MoebiusMatrix(NamedTuple):
    """A 2x2 complex matrix [[a, b], [c, d]] acting on the boundary plane.

    Taken up to sign (and, for the distance checks, up to scale).  The fields
    are complex.  A named tuple, to be cheap to build (a labeling builds about
    22), so it unpacks and compares as its 4 entries; ``+`` and ``*`` raise
    TypeError instead of acting on them.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    @classmethod
    def identity(cls) -> "MoebiusMatrix":
        return cls(1 + 0j, 0j, 0j, 1 + 0j)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __add__(self, other):  # not tuple concatenation or repetition
        return NotImplemented

    __radd__ = __mul__ = __rmul__ = __add__

    def __matmul__(self, other: "MoebiusMatrix") -> "MoebiusMatrix":
        a, b, c, d = self
        e, f, g, h = other
        return MoebiusMatrix(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self) -> "MoebiusMatrix":
        a, b, c, d = self
        det = a * d - b * c
        return MoebiusMatrix(d / det, -b / det, -c / det, a / det)

    def pow(self, n: int) -> "MoebiusMatrix":
        """The matrix power M**n (n >= 0) in closed form, at a cost independent of n.

        By Cayley-Hamilton, with s = sqrt(det M), N = M/s and
        tau = tr N / 2 = cos(theta), N**n = U_{n-1}(tau) N - U_{n-2}(tau) I,
        where U_{k-1}(cos theta) = sin(k theta) / sin(theta) is a Chebyshev
        polynomial of the second kind.  Hence
        M**n = s**(n-1) U_{n-1} M - s**n U_{n-2} I.  Parabolic matrices
        (tau = +-1, sin(theta) = 0) take the limit U_{k-1} = k tau**(k-1).
        Unlike repeated squaring, no rounding error accumulates with n: the
        result carries only the error of M's own entries.  Raises
        ZeroDivisionError on a singular matrix, and OverflowError when the
        power leaves the float range.
        """
        if n < 0:
            raise ValueError("exponent must be non-negative")
        if n == 0:
            return MoebiusMatrix.identity()
        a, b, c, d = self
        s = cmath.sqrt(a * d - b * c)
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
        q = s ** n * u_n2
        return MoebiusMatrix(p * a - q, p * b, p * c, p * d - q)

    def distance_to_identity(self) -> float:
        """Frobenius distance to +-I after normalizing the determinant to 1."""
        a, b, c, d = self
        s = cmath.sqrt(a * d - b * c)
        a, b, c, d = a / s, b / s, c / s, d / s
        return min(_frobenius(a - 1, b, c, d - 1), _frobenius(a + 1, b, c, d + 1))

    def distance(self, other: "MoebiusMatrix") -> float:
        """Frobenius norm of M - B or of M + B, whichever is smaller, for B = ``other``.

        Neither matrix is normalized, so a matrix is at distance 0 from itself
        and from its negative, the same element of PSL2.  Symmetric.
        """
        a, b, c, d = self
        e, f, g, h = other
        return min(_frobenius(a - e, b - f, c - g, d - h), _frobenius(a + e, b + f, c + g, d + h))


def _frobenius(w: complex, x: complex, y: complex, z: complex) -> float:
    """Frobenius norm of the 2x2 matrix [[w, x], [y, z]]."""
    return math.hypot(w.real, w.imag, x.real, x.imag, y.real, y.imag, z.real, z.imag)


def rotation_matrix(center: complex, theta: float) -> MoebiusMatrix:
    """Elliptic rotation by 2*theta about a point of the boundary plane.

    Fixes ``center`` and infinity: w -> center + e^{2i theta} (w - center),
    with matrix [[e^{i theta}, center*(e^{-i theta} - e^{i theta})],
    [0, e^{-i theta}]].  A positive half-angle ``theta`` turns
    counter-clockwise in the standard orientation of the plane, a negative
    one clockwise.  Raising it to the n-th power with |theta| = pi/n gives
    the identity in PSL2.
    """
    if not 0 < abs(theta) < math.pi:
        raise ValueError(f"rotation half-angle must satisfy 0 < |theta| < pi, got {theta!r}")
    e_plus = cmath.exp(1j * theta)
    e_minus = cmath.exp(-1j * theta)
    return MoebiusMatrix(e_plus, center * (e_minus - e_plus), 0j, e_minus)


# The faces in generator order: M1..M4 each pair the red face with back,
# green, blue and top, and red sorts last.  The word of edge (f, g) is
# M_later^-1 M_earlier, or M_earlier alone when the later face is red.
_GENERATOR_ORDER = ("back", "green", "blue", "top", "red")
_RED = _GENERATOR_ORDER.index("red")
_WORD_GENERATORS = tuple(sorted(map(_GENERATOR_ORDER.index, faces)) for faces in EDGE_FACES)
WORD_NAMES = tuple(
    f"M{earlier + 1}" if later == _RED else f"M{later + 1}^-1 M{earlier + 1}"
    for earlier, later in _WORD_GENERATORS
)


class GeneratorSet(NamedTuple):
    """The four side-pairing matrices of a realized labeling.

    ``fixed1`` and ``fixed2`` are the rotation centers of m2 and m3: the
    points where the green and blue lines meet the red line.
    """

    labeling: Labeling
    m1: MoebiusMatrix
    m2: MoebiusMatrix
    m3: MoebiusMatrix
    m4: MoebiusMatrix
    theta1: float
    theta2: float
    fixed1: complex
    fixed2: complex

    def named(self) -> tuple[tuple[str, MoebiusMatrix], ...]:
        """("M1", m1) .. ("M4", m4)."""
        return (("M1", self.m1), ("M2", self.m2), ("M3", self.m3), ("M4", self.m4))


def _line_x_intersection(line, x: float) -> complex:
    """The point of a line at the given x, as a complex number; NaN on a vertical line."""
    if line.is_vertical:
        return complex(math.nan, math.nan)
    slope, intercept = line.slope_intercept()
    return x + (slope * x + intercept) * 1j


def build_generators(labeling: Sequence[int], config: PlanarConfig) -> GeneratorSet:
    """Construct M1..M4 from a configuration: the one map from faces to generators.

    It reads the green, blue and top faces and the a3 branch of ``config``,
    and the labels a1 and a2.  Precondition: ``config`` realizes
    ``labeling``, as ``realize`` returns it or a catalog stores it.  Nothing
    here measures it again: the stages of ``catalog._MEASURES`` do.

    M1 = [[2h,-1],[1,0]], h = ``RED_LINE_X`` of the a3 branch, is w -> 2h - 1/w:
    inversion in the unit circle, then reflection in the red line x = h.  It
    swaps the inside and outside of the unit circle for a3 = 2 (h = 0) and
    pairs the unit sphere with the one centered at (-1, 0) for a3 = 3
    (h = -1/2).  M2 and M3 rotate by 2*pi/a1 and 2*pi/a2 in opposite senses
    about the points ``fixed1`` and ``fixed2`` where the green and blue lines
    cross the red line, with half-angles ``theta1`` = pi/a1 and ``theta2`` =
    pi/a2: M2 turns the prism side toward the red line, M3 away from it.  M4
    maps the top circle to its mirror image across the red line.
    """
    lab = labeling if isinstance(labeling, Labeling) else Labeling(*labeling)
    red_x = RED_LINE_X[config.a3_branch]
    theta1, theta2 = math.pi / lab.a1, math.pi / lab.a2
    fixed1 = _line_x_intersection(config.green, red_x)
    fixed2 = _line_x_intersection(config.blue, red_x)
    x, y, r = config.top.cx, config.top.cy, config.top.r

    m1 = MoebiusMatrix(2.0 * red_x + 0j, -1 + 0j, 1 + 0j, 0j)
    if config.a3_branch == 2:
        m4 = MoebiusMatrix(
            (-x + y * 1j) / r,
            (x * x + y * y) / r - r + 0j,
            1.0 / r + 0j,
            (-x - y * 1j) / r,
        )
    else:
        w = (-(x + 1.0) + y * 1j) / r
        m4 = MoebiusMatrix(w, w * (-x - y * 1j) - r, 1.0 / r + 0j, (-x - y * 1j) / r)

    m2 = rotation_matrix(fixed1, -theta1)
    m3 = rotation_matrix(fixed2, theta2)

    return GeneratorSet(lab, m1, m2, m3, m4, theta1, theta2, fixed1, fixed2)


def _word_residuals(gens: GeneratorSet, memo: dict | None) -> tuple[tuple[float, ...], ...]:
    """Each relation word's (relation residual, trace residual, |trace|), read from ``memo``.

    The one place a word is built, inverted, powered and traced.  Its base is
    M_later^-1 M_earlier, or M_earlier alone when the later face is red, and
    each generator is inverted at most once a call.  ``memo`` maps ``gens`` to
    the tuple this returns, so a second call is one lookup, and each word's
    ``(M_earlier, M_later or None, exponent)``, with ``None`` when the later
    face is red, to its three values.  A hit measures nothing; a miss
    measures the word and stores them.  A key matches only generators with
    equal entries, which give the same base up to the signs of its zeros,
    and such bases have the same values.  ``None`` stands for an empty memo.
    A word that cannot be measured, one whose inverse, base or power has
    determinant 0, reads ``(inf, inf, inf)``.
    """
    memo = {} if memo is None else memo
    if (measured := memo.get(gens)) is not None:
        return measured
    ms, inverses, measured = (gens.m1, gens.m2, gens.m3, gens.m4), {}, []
    for (earlier, later), exponent in zip(_WORD_GENERATORS, gens.labeling):
        key = ms[earlier], None if later == _RED else ms[later], exponent
        values = memo.get(key)
        if values is None:
            try:
                base = ms[earlier]
                if later != _RED:
                    if later not in inverses:
                        inverses[later] = ms[later].inv()
                    base = inverses[later] @ base
                try:
                    relation = base.pow(exponent).distance_to_identity()
                except OverflowError:  # only a non-elliptic base grows past the float range
                    relation = math.inf
                a, b, c, d = base
                trace = abs((a + d) / cmath.sqrt(a * d - b * c))
                values = relation, abs(trace - 2.0 * math.cos(math.pi / exponent)), trace
            except ZeroDivisionError:
                values = math.inf, math.inf, math.inf
            memo[key] = values
        measured.append(values)
    memo[gens] = measured = tuple(measured)
    return measured


def verify_relations(
    gens: GeneratorSet, *, entry: str = "", memo: dict | None = None
) -> Report:
    """Evaluate the nine relation words and their PSL2 distances to identity.

    The one record holds each word's distance as its residual, carries each
    word's tolerance for its order, and ``entry`` as its entry tag.  Pass one
    ``memo`` (see ``_word_residuals``) to every call of a sweep, and to
    ``trace_check`` too, and each distinct word is measured
    once; ``None`` (the default) measures every word.  A residual read from
    the memo is the one a fresh measurement gives, and a word that cannot be
    measured (a generator it inverts, or its base or power, is singular)
    reads ``inf``.
    """
    residuals, _, _ = zip(*_word_residuals(gens, memo))
    tols = tuple(map(relation_tolerance, gens.labeling))
    return Report((Check("relation", EDGE_NAMES, residuals, tols, entry),))


def traces(gens: GeneratorSet, *, memo: dict | None = None) -> list[tuple[float, float]]:
    """Each relation word's |trace| and the 2*cos(pi/n) that its order n gives it.

    An element of order n conjugate to a rotation by 2*pi/n has
    |trace| = 2*cos(pi/n) after determinant normalization, which confirms
    the relation exponents without computing any powers.  The |trace| is
    the one ``trace_check`` measures, and is ``inf`` for a word that cannot
    be measured.  ``memo`` is the memo of ``verify_relations``, after which
    this is one lookup; ``None`` (the default) measures every word.
    """
    return [
        (trace, 2.0 * math.cos(math.pi / exponent))
        for (_, _, trace), exponent in zip(_word_residuals(gens, memo), gens.labeling)
    ]


def trace_check(gens: GeneratorSet, *, entry: str = "", memo: dict | None = None) -> Report:
    """Check each relation base is elliptic of the right order via its trace.

    The one record holds each word's ``|trace| - 2*cos(pi/n)``, the two
    values ``traces`` gives, in absolute value, and carries ``entry`` as its
    entry tag.  ``memo`` is the memo of ``verify_relations``, after which
    this is one lookup; ``None`` (the default) measures every word.  A word
    that cannot be measured reads ``inf``, as in ``verify_relations``.
    """
    _, residuals, _ = zip(*_word_residuals(gens, memo))
    tol = (TOLERANCES["trace"],) * len(residuals)
    return Report((Check("trace", EDGE_NAMES, residuals, tol, entry),))
