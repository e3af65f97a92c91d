"""Convex geometry of phase points on the unit circle.

The distinguishability questions reduce to: how close does the convex hull
of the points e^{i phi_k} come to the origin?  Distinct unit-circle points
are automatically in convex position, so the hull is just the points in
counter-clockwise order and the origin distance is an arc-length statement:
it is cos(min(spread, pi) / 2) for an occupied arc of length `spread`.
`hull_of_phases` is the one place that turns that distance into the
inside/outside verdict.  It works on the raw phases: no two are merged
into one vertex, and `tol` only rounds the distance of a hull that is one
point to 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import TWO_PI, VERDICT_TOL, require_finite, require_real, wrap_angle

# n phases that span at most (n - 1) times this are one point; rounding
# is ~1e-16
DEDUPE_TOL = 1e-10


@dataclass(frozen=True)
class HullResult:
    """The hull of the wrapped `phases` it was built from, whether it holds
    the origin, and the origin's distance to it with the nearest hull
    point.  `order` lists the indices of `phases` counter-clockwise, equal
    phases by index: from the smallest phase when the origin is inside,
    from just after the largest empty arc when it is outside, so that
    order[0] and order[-1] are then the angular extremes.  The arc spread
    behind the distance is not kept: `arc_spread` computes it.  When the
    hull is a chord, `extremes` holds the indices of its two ends, see
    `hull_of_phases`; for one phase, or a polygon around the origin, it is
    empty.  They are the one chord rule: every chord the probe draws is
    `extremes`."""

    phases: tuple[float, ...]
    order: tuple[int, ...]
    origin_inside: bool
    min_distance: float
    nearest_point: np.ndarray
    extremes: tuple[int, ...] = ()


def _finite_phases(phases) -> list[float]:
    """Phases as a list of wrapped floats; DomainError if empty, NaN or inf."""
    # a few phases per call: scalar wraps beat the ufunc round trip
    return [wrap_angle(x) for x in require_finite(phases, "phases").tolist()]


def _largest_gap(raw: list[float]) -> tuple[int, float]:
    """(i, spread) for ascending phases: the largest empty arc runs from
    raw[i] to raw[i+1] (mod len), and the rest of the circle is `spread`."""
    gaps = [b - a for a, b in zip(raw, raw[1:])] + [(raw[0] + TWO_PI) - raw[-1]]
    imax = max(range(len(raw)), key=gaps.__getitem__)
    return imax, TWO_PI - gaps[imax]


def arc_spread(phases) -> float:
    """Angular extent of the smallest closed arc covering all phases.

    Raises DomainError on empty input or a non-finite phase.
    """
    raw = sorted(_finite_phases(phases))
    if len(raw) == 1:
        return 0.0
    return _largest_gap(raw)[1]


def hull_of_phases(phases, tol: float = DEDUPE_TOL) -> HullResult:
    """Convex hull of points e^{i phi} with origin distance bookkeeping.

    The origin counts as inside when its distance to the hull,
    cos(min(spread, pi) / 2), is at most VERDICT_TOL; `min_distance` is 0
    then.  Everything comes from the raw phases, by three rules taken in
    this order:
    - a hull of one point: n phases that span at most (n - 1) * tol, as
      far as a run of them each within `tol` of the next reaches, report
      `min_distance` exactly 1.0, and a chord on indices (0, 1).  1.0 is
      within 1 - cos((n - 1) * tol / 2) of their exact distance, below
      1.2e-20 for four phases at DEDUPE_TOL, where the chord's own
      rounding can put it an ulp below 1.0;
    - a chord: a spread below pi, or a chord between the largest empty
      arc's two ends that passes within VERDICT_TOL of the origin.
      `extremes` names those two ends, each the lowest index among the
      phases equal to it: counter-clockwise below pi, where the chord
      realizes the hull's distance (outside, or in the verdict's band),
      and by phase from pi on;
    - a polygon around the origin otherwise, with no `extremes`.
    Raises DomainError on empty input, a phase that is not a finite real
    number, or a `tol` that is not a real number, finite and >= 0.
    """
    vals = _finite_phases(phases)
    if not (0.0 <= require_real(tol, "tol") < math.inf):  # written so that NaN fails
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    return _hull_of_phases(vals, tol)


def _hull_of_omega(om) -> HullResult:
    """Hull of the points e^{-i omega_k} for an array of finite phases; it
    decides every verdict and draws every figure."""
    # negation is exact, so this is hull_of_phases(-om) without its checks
    return _hull_of_phases([wrap_angle(-x) for x in om.tolist()])


def _hull_of_phases(vals: list[float], tol: float = DEDUPE_TOL) -> HullResult:
    """`hull_of_phases` of finite phases that their caller has wrapped to
    (-pi, pi], given as a list of floats, and a checked `tol`."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    imax, spread = _largest_gap([vals[i] for i in order])
    first = (imax + 1) % len(order)
    # the chord between the largest gap's two ends; its midpoint lies
    # |cos(spread / 2)| from the origin
    lo, hi = vals[order[first]], vals[order[imax]]
    point = (0.5 * (math.cos(lo) + math.cos(hi)), 0.5 * (math.sin(lo) + math.sin(hi)))
    # equal ends are equal phases, whatever the rounding of the spread
    if lo == hi or spread <= (len(vals) - 1) * tol:
        distance, extremes = 1.0, (0, 1) if len(vals) > 1 else ()
    elif spread < math.pi:
        distance, extremes = float(np.hypot(*point)), (vals.index(lo), vals.index(hi))
    else:
        distance = 0.0
        # a chord through the origin, its ends by phase; else a polygon
        through = math.hypot(*point) <= VERDICT_TOL
        extremes = (vals.index(min(lo, hi)), vals.index(max(lo, hi))) if through else ()
    inside = distance <= VERDICT_TOL
    if not inside:
        order = order[first:] + order[:first]
    return HullResult(
        phases=tuple(vals),
        order=tuple(order),
        origin_inside=inside,
        min_distance=0.0 if inside else distance,
        nearest_point=np.zeros(2) if inside else np.array(point),
        extremes=extremes,
    )
