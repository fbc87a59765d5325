"""Planar realization of admissible prism labelings.

A one-cusped prism in upper half-space is bounded by five geodesic planes:
three vertical planes over lines (the red, green and blue faces, which meet at
the ideal vertex) and two hemispheres over circles (the back face, normalized
to the unit circle, and the top face).  Since two planes meet at the same
angle as their traces in the boundary plane, realizing a labeling reduces to
placing three lines and two circles so that all nine prescribed intersection
angles come out right.  This module builds the lines in closed form, solves
for the top circle, and measures angles between arbitrary line/circle pairs as
an independent verification oracle.

Conventions: the red line is x = 0 when a3 = 2 and x = -1/2 when a3 = 3; the
prism sits in x >= 0, below the green line and above the blue line.  Each line
carries the unit normal pointing to its prism side, so the dihedral angle
against a circle is measured with the sign of that normal.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Optional, Sequence

from .labelings import EDGE_FACES, EDGE_NAMES, Labeling, brief, is_admissible

# The bound of every check, read by each check when it runs, recorded by every
# dump as ``provenance.tolerances`` and compared against by ``verify``.  A
# solved configuration and generators rebuilt from it are exact to
# ``construction``; edge angles and stored-face drift get a looser ``angle``.
# A relation word's PSL2 distance to the identity gets ``relation_large_power``
# above order ``large_exponent``: powers are taken in closed form
# (MoebiusMatrix.pow), so it measures the generators' own float64 error carried
# into the word -- growing about n**3 with the order n -- not powering error.
TOLERANCES: dict[str, float] = {
    "construction": 1e-10,
    "angle": 1e-9,
    "relation": 1e-7,
    "relation_large_power": 1e-6,
    "large_exponent": 100,
    "trace": 1e-8,
    "determinant": 1e-10,
}

# The red line's x for each a3 branch (see PlanarConfig and build_lines).
RED_LINE_X = {2: 0.0, 3: -0.5}


class RealizationError(RuntimeError):
    """No valid top circle exists: degenerate or unrealizable input."""


# PlanarLine, PlanarCircle and PlanarConfig check their values in __new__, which a
# NamedTuple body may not define; _make and _replace bypass it, and the check.
class _LineFields(NamedTuple):
    nx: float
    ny: float
    d: float


class PlanarLine(_LineFields):
    """A line in normal form n . p = d with unit normal (nx, ny).

    The normal points toward the prism side of the line, which fixes the sign
    convention for dihedral-angle measurement.  Vertical lines are exact
    (ny == 0), never large-slope approximations.
    """

    __slots__ = ()

    def __new__(cls, nx: float, ny: float, d: float) -> PlanarLine:
        norm = math.hypot(nx, ny)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"line normal must have unit length, got {norm!r}")
        return tuple.__new__(cls, (nx, ny, d))

    @classmethod
    def vertical(cls, x: float) -> "PlanarLine":
        """The line x = const, with the prism on its right."""
        return cls(1.0, 0.0, x)

    @classmethod
    def from_slope_intercept(
        cls, slope: float, intercept: float, prism_above: bool
    ) -> "PlanarLine":
        """The line y = slope*x + intercept, with the prism above or below."""
        scale = 1.0 / math.hypot(slope, 1.0)
        sign = 1.0 if prism_above else -1.0
        return cls(-sign * slope * scale, sign * scale, sign * intercept * scale)

    @property
    def is_vertical(self) -> bool:
        return self.ny == 0.0

    def slope_intercept(self) -> tuple[float, float]:
        """(slope, intercept) form; raises for vertical lines."""
        if self.is_vertical:
            raise ValueError("a vertical line has no slope-intercept form")
        return (-self.nx / self.ny, self.d / self.ny)

    def signed_distance(self, x: float, y: float) -> float:
        """Distance from (x, y) to the line, positive on the prism side."""
        return self.nx * x + self.ny * y - self.d


class _CircleFields(NamedTuple):
    cx: float
    cy: float
    r: float


class PlanarCircle(_CircleFields):
    """A circle with center (cx, cy) and radius r > 0."""

    __slots__ = ()

    def __new__(cls, cx: float, cy: float, r: float) -> PlanarCircle:
        if not r > 0:
            raise ValueError(f"circle radius must be positive, got {brief(r)}")
        return tuple.__new__(cls, (cx, cy, r))


UNIT_CIRCLE = PlanarCircle(0.0, 0.0, 1.0)


class _ConfigFields(NamedTuple):
    red: PlanarLine
    green: PlanarLine
    blue: PlanarLine
    back: PlanarCircle
    top: PlanarCircle
    a3_branch: int


class PlanarConfig(_ConfigFields):
    """Three lines and two circles realizing a labeling.

    ``back`` is always the unit circle; ``a3_branch`` records which red-line
    convention applies (x = 0 for a3 = 2, x = -1/2 for a3 = 3).
    """

    __slots__ = ()

    def __new__(cls, red, green, blue, back, top, a3_branch: int) -> PlanarConfig:
        if a3_branch not in RED_LINE_X:
            raise ValueError(f"a3 branch must be 2 or 3, got {brief(a3_branch)}")
        return tuple.__new__(cls, (red, green, blue, back, top, a3_branch))


def build_lines(labeling: Sequence[int]) -> tuple[PlanarLine, PlanarLine, PlanarLine]:
    """The red, green and blue lines of a labeling, in closed form.

    With theta1 = pi/a1 and theta2 = pi/a2, the green line is
    y = -cot(theta1) x + cos(pi/a4)/sin(theta1) and the blue line is
    y = cot(theta2) x - cos(pi/a6)/sin(theta2); both are independent of the
    red-line branch.  The red line is x = 0 (a3 = 2, orthogonal to the unit
    circle) or x = -1/2 (a3 = 3, meeting it at pi/3).
    """
    lab = labeling if isinstance(labeling, Labeling) else Labeling(*labeling)
    if lab.a3 not in RED_LINE_X:
        raise ValueError(f"a3 must be 2 or 3, got {lab.a3}")
    red = PlanarLine.vertical(RED_LINE_X[lab.a3])
    theta1 = math.pi / lab.a1
    theta2 = math.pi / lab.a2
    y1 = math.cos(math.pi / lab.a4) / math.sin(theta1)
    y2 = -math.cos(math.pi / lab.a6) / math.sin(theta2)
    green = PlanarLine.from_slope_intercept(
        -math.cos(theta1) / math.sin(theta1), y1, prism_above=False
    )
    blue = PlanarLine.from_slope_intercept(
        math.cos(theta2) / math.sin(theta2), y2, prism_above=True
    )
    return red, green, blue


def _line_line(line1: PlanarLine, line2: PlanarLine) -> float:
    return math.acos(min(abs(line1.nx * line2.nx + line1.ny * line2.ny), 1.0))


def _line_circle(line: PlanarLine, circle: PlanarCircle) -> float | None:
    offset = line.signed_distance(circle.cx, circle.cy)
    return None if abs(offset) > circle.r else math.acos(offset / circle.r)


def _circle_circle(circle1: PlanarCircle, circle2: PlanarCircle) -> float | None:
    d2 = (circle1.cx - circle2.cx) ** 2 + (circle1.cy - circle2.cy) ** 2
    cos_phi = (d2 - circle1.r**2 - circle2.r**2) / (2.0 * circle1.r * circle2.r)
    return None if abs(cos_phi) > 1.0 else math.acos(cos_phi)


# Each kernel by whether its faces are lines; each edge's PlanarConfig indices and kernel.
_KERNELS = {(True, True): _line_line, (True, False): _line_circle, (False, False): _circle_circle}
_EDGE_KERNELS = tuple(
    (i, j, _KERNELS[i < 3, j < 3])
    for i, j in (sorted(map(PlanarConfig._fields.index, faces)) for faces in EDGE_FACES)
)


def measure_angle(obj1: PlanarLine | PlanarCircle, obj2: PlanarLine | PlanarCircle) -> float | None:
    """Intersection angle of two lines/circles, or None when they are disjoint.

    Line/line uses the normals; line/circle and circle/circle measure the
    dihedral angle on the prism side -- the side a line's normal records, and
    the mutual exterior for two circles -- so a line through the far side of a
    circle, or a deeply overlapping circle pair, reads as an obtuse angle
    rather than its supplement.  Symmetric in its arguments, and independent
    of which intersection point is considered.  A dispatch over three kernels.
    """
    if isinstance(obj2, PlanarLine):
        obj1, obj2 = obj2, obj1
    return _KERNELS[isinstance(obj1, PlanarLine), isinstance(obj2, PlanarLine)](obj1, obj2)


class Check(NamedTuple):
    """One stage of one entry: each edge's residual against its bound.

    ``edges``, ``residuals`` and ``tol`` are index-aligned tuples.  An edge
    names what was measured within the stage (an edge "a1".."a9", a
    generator "M1".."M4", a generator parameter); its residual is
    ``|measured - expected|``, computed once where the stage measures, and
    it passes when the residual is within its own bound in ``tol``.  A
    measurement that could not be made (two disjoint faces, a relation word
    with a singular generator) has an infinite residual, so a stage always
    has its record.  ``entry`` tags the records of a catalog sweep with the
    entry they belong to.
    """

    stage: str
    edges: tuple[str, ...]
    residuals: tuple[float, ...]
    tol: tuple[float, ...]
    entry: str = ""


# Every stage, in the order of verify's summary: the text of its FAIL line
# (the edges that failed, and the worst residual among them), the name of its
# summary line or None, and the field an entry stores its residuals in or None.
# Report.failures names any other stage.
STAGES: dict[str, tuple[str, Optional[str], Optional[str]]] = {
    "angle": ("configuration fails on {edges}", "angle residual", "angles"),
    "relation": ("relations fail on {edges}", "relation residual", "relations"),
    "trace": ("trace checks fail on {edges}", "trace residual", "traces"),
    "determinant": ("{edges} determinant drifts by {residual:.3e}", "determinant drift", None),
    "drift": (
        "stored configuration drifts from recomputation on {edges} by {residual:.3e}",
        "config drift", None,
    ),
    "generator": (
        "stored generators disagree with a rebuild from the stored faces on {edges}"
        " by {residual:.3e}", None, None,
    ),
}


def _worst(residuals: Sequence[float]) -> float:
    """The largest residual, or the first NaN (plain ``max`` keeps one only first); 0 if none."""
    total = sum(residuals)  # NaN if a residual is NaN, and also where inf and -inf meet
    if total != total:
        return next((residual for residual in residuals if residual != residual), max(residuals))
    return max(residuals, default=0.0)


class Report(NamedTuple):
    """The records of one or more verification stages, in the order they ran.

    ``errors`` are failures that no record holds, such as an entry that
    cannot be realized; ``entries_checked`` counts the entries whose records
    the report holds.
    """

    checks: tuple[Check, ...]
    errors: tuple[str, ...] = ()
    entries_checked: int = 1

    @property
    def ok(self) -> bool:
        return not self.failures()

    def max_residual(self, stage: Optional[str] = None) -> float:
        """The worst residual of one stage, or of all (NaN if any is); 0 if there are none."""
        return _worst([
            residual
            for check in self.checks
            if stage is None or check.stage == stage
            for residual in check.residuals
        ])

    def failures(self) -> list[str]:
        """One message per record with a failed edge, then the errors.

        Raises ``ValueError`` for a record whose ``edges``, ``residuals`` and
        ``tol`` differ in length: it holds no verdict.
        """
        messages = []
        for check in self.checks:
            if not len(check.edges) == len(check.residuals) == len(check.tol):
                text = (
                    f"the {check.stage} record has {len(check.edges)} edges,"
                    f" {len(check.residuals)} residuals and {len(check.tol)} bounds"
                )
                raise ValueError(f"{check.entry}: {text}" if check.entry else text)
            if all(map(operator.le, check.residuals, check.tol)):  # NaN fails <=, as below
                continue
            failed = [
                (edge, residual)
                for edge, residual, tol in zip(check.edges, check.residuals, check.tol)
                if not residual <= tol
            ]
            text = STAGES.get(check.stage, ("{stage} checks fail on {edges}",))[0].format(
                stage=check.stage,
                edges=", ".join(edge for edge, _ in failed),
                residual=_worst([residual for _, residual in failed]),
            )
            messages.append(f"{check.entry}: {text}" if check.entry else text)
        return messages + list(self.errors)


def verify_config(labeling: Sequence[int], config: PlanarConfig, *, entry: str = "") -> Report:
    """Measure all nine edge angles of a configuration against pi/a_i.

    Uses the edge-to-face-pair table and the measurement oracle only -- none
    of the construction equations -- so it independently cross-checks
    realize().  A disjoint face pair is reported as an infinite residual on
    the named edge.  The one record carries ``entry`` as its entry tag.
    """
    residuals = []
    for (f, g, kernel), label in zip(_EDGE_KERNELS, labeling, strict=True):
        angle = kernel(config[f], config[g])
        residuals.append(math.inf if angle is None else abs(angle - math.pi / label))
    tol = (TOLERANCES["angle"],) * len(residuals)
    return Report((Check("angle", EDGE_NAMES, tuple(residuals), tol, entry),))


def realize(labeling: Sequence[int]) -> PlanarConfig:
    """Realize an admissible labeling as its planar line/circle configuration.

    Builds the three lines, then solves for the top circle (x0, y0, r).  It
    meets the green and blue lines at pi/a7 and pi/a8 when its center lies
    r*cos(phi) inside each line, n . (x0, y0) - r*cos(phi) = d, and it meets
    the unit circle at pi/a9 when x0^2 + y0^2 = 1 + r^2 + 2*r*cos(pi/a9).
    The two line conditions are linear in (x0, y0, r).  Their determinant is
    the sine of the green/blue angle, |det| = sin(pi/a5) >= 1/2, since an
    admissible a5 is 3, 4 or 6.  So the center is (x0, y0) = p + q*r, and the
    circle condition leaves one quadratic a*r^2 + b*r + c = 0.

    Lemma: exactly one root is positive.  Let D(x, y, z) = 1 - cos^2 X -
    cos^2 Y - cos^2 Z - 2 cos X cos Y cos Z with X = pi/x, Y = pi/y,
    Z = pi/z: the Gram determinant of the triangle with those angles, which
    is positive, zero or negative as the triangle is spherical, Euclidean or
    hyperbolic (Vinberg, Russian Math. Surveys 40, 1985; Andreev 1970).  Then

        a = |q|^2 - 1 = -D(a5, a7, a8) / sin^2(pi/a5),
        c = |p|^2 - 1 = -D(a4, a5, a6) / sin^2(pi/a5).

    Admissibility makes the top vertex (a5, a7, a8) spherical and the
    circuit (a4, a5, a6) hyperbolic, so a < 0 < c: the discriminant
    b^2 - 4ac is positive and the roots have the product c/a < 0.  The
    positive root comes from the stable split u = -b - sign(b)*sqrt(disc),
    as u/(2a) when u < 0 and as 2c/u otherwise.

    The root must satisfy all three conditions to TOLERANCES["construction"],
    and the red line must stay strictly clear of the top circle by more than
    it (red and top share no edge; tangency would mean a second ideal
    vertex).  The nine edge angles are the ``angle`` stage's, not measured here.

    Raises ValueError for an inadmissible labeling and RealizationError when
    the positive root fails either gate.
    """
    adm = is_admissible(labeling)
    if not adm.ok:
        raise ValueError(f"labeling is not admissible: {adm.reason}")
    lab = labeling if isinstance(labeling, Labeling) else Labeling(*labeling)
    red, green, blue = build_lines(lab)
    cos7 = math.cos(math.pi / lab.a7)
    cos8 = math.cos(math.pi / lab.a8)
    cos9 = math.cos(math.pi / lab.a9)

    # Solve the two line conditions for the center as (x0, y0) = p + q*r.
    det = green.nx * blue.ny - green.ny * blue.nx
    px = (green.d * blue.ny - blue.d * green.ny) / det
    py = (green.nx * blue.d - blue.nx * green.d) / det
    qx = (cos7 * blue.ny - cos8 * green.ny) / det
    qy = (green.nx * cos8 - blue.nx * cos7) / det

    # |p + q*r|^2 = 1 + r^2 + 2*cos9*r, as a quadratic in r.
    a = qx * qx + qy * qy - 1.0
    b = 2.0 * (px * qx + py * qy) - 2.0 * cos9
    c = px * px + py * py - 1.0
    sq = math.sqrt(b * b - 4.0 * a * c)
    u = -b - sq if b > 0 else sq - b
    r = u / (2.0 * a) if u < 0 else (2.0 * c) / u

    x0 = px + qx * r
    y0 = py + qy * r
    residual = max(
        abs(green.nx * x0 + green.ny * y0 - cos7 * r - green.d),
        abs(blue.nx * x0 + blue.ny * y0 - cos8 * r - blue.d),
        abs(x0 * x0 + y0 * y0 - (1.0 + r * r + 2.0 * cos9 * r)),
    )
    # Red and top must be strictly disjoint; tangency (within the
    # construction tolerance) is a degenerate second cusp.
    tol = TOLERANCES["construction"]
    if residual > tol or red.signed_distance(x0, y0) - r <= tol:
        labels = ", ".join(map(brief, lab))
        raise RealizationError(
            f"no valid top circle for ({labels}): the labeling is degenerate "
            "or not realizable with one cusp"
        )
    return PlanarConfig(red, green, blue, UNIT_CIRCLE, PlanarCircle(x0, y0, r), lab.a3)
