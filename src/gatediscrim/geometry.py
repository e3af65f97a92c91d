"""Convex geometry of phase points on the unit circle.

The distinguishability questions reduce to: how close does the convex hull
of the points e^{i phi_k} come to the origin?  Distinct unit-circle points
are automatically in convex position, so the hull is just the points in
counter-clockwise order and the origin distance is an arc-length statement:
it is cos(min(spread, pi) / 2) for an occupied arc of length `spread`.
`hull_of_phases` is the one place that turns that distance into the
inside/outside verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHullError, DomainError
from .numerics import TWO_PI, VERDICT_TOL, require_finite, wrap_angle

# phases closer than this on the circle are one hull vertex; rounding is ~1e-16
DEDUPE_TOL = 1e-10


@dataclass(frozen=True)
class PhaseGroup:
    """A deduplicated phase value with the input indices mapped to it."""

    phase: float
    indices: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class HullResult:
    groups: list[PhaseGroup]
    origin_inside: bool
    min_distance: float
    nearest_point: np.ndarray
    spread: float = field(default=0.0)


def _finite_phases(phases) -> list[float]:
    """Phases as a list of wrapped floats; DomainError if empty, NaN or inf."""
    # a few phases per call: scalar wraps beat the ufunc round trip
    return [wrap_angle(x) for x in require_finite(phases, "phases").tolist()]


def dedupe_phases(phases, tol: float = DEDUPE_TOL) -> list[PhaseGroup]:
    """Merge phases closer than `tol` on the circle; order follows the circle.

    Groups are returned sorted by representative phase in (-pi, pi]; each
    keeps the original input indices and a circular-mean representative.
    Raises DomainError on empty input, a non-finite phase, or a `tol` that
    is negative or not finite.
    """
    return _dedupe(_finite_phases(phases), tol)[1]


def _dedupe(vals: list[float], tol: float):
    """(stable ascending order, merged groups) of wrapped phases."""
    if not (0.0 <= tol < math.inf):  # written so that NaN fails
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    order = sorted(range(len(vals)), key=vals.__getitem__)
    runs: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if vals[idx] - vals[runs[-1][-1]] <= tol:
            runs[-1].append(idx)
        else:
            runs.append([idx])
    # the circle closes: last run may wrap onto the first
    if len(runs) > 1 and (vals[runs[0][0]] + TWO_PI) - vals[runs[-1][-1]] <= tol:
        runs[0] = runs.pop() + runs[0]
    groups = []
    for run in runs:
        rep = vals[run[0]]
        if len(run) > 1:
            # circular mean of the run, taken about its first phase
            offsets = wrap_angle(np.array([vals[i] for i in run]) - rep)
            rep = wrap_angle(rep + float(np.mean(offsets)))
        groups.append(PhaseGroup(phase=rep, indices=tuple(sorted(run))))
    groups.sort(key=lambda g: g.phase)
    return order, groups


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
    then.  The largest empty arc, the spread and the chord come from the
    raw phases, so they do not depend on which near-equal phases merge into
    one group.  Inside, the groups (the hull's vertices) come out
    counter-clockwise from the smallest phase.  Outside, the ordering
    starts just after the largest empty arc, so groups[0] and groups[-1]
    are the angular extremes, whose chord realizes `min_distance`.
    Raises DomainError on empty input, a non-finite phase, or a `tol` that
    is negative or not finite.
    """
    vals = _finite_phases(phases)
    order, groups = _dedupe(vals, tol)
    if len(groups) == 1:
        g = groups[0]
        return HullResult(
            groups=[g],
            origin_inside=False,
            min_distance=1.0,
            nearest_point=np.array([math.cos(g.phase), math.sin(g.phase)]),
            spread=0.0,
        )
    imax, spread = _largest_gap([vals[i] for i in order])
    first = (imax + 1) % len(order)
    # the chord between the angular extremes; its midpoint lies
    # cos(spread / 2) from the origin
    lo, hi = vals[order[first]], vals[order[imax]]
    mid_x = 0.5 * (math.cos(lo) + math.cos(hi))
    mid_y = 0.5 * (math.sin(lo) + math.sin(hi))
    distance = float(np.hypot(mid_x, mid_y)) if spread < math.pi else 0.0
    if distance <= VERDICT_TOL:
        return HullResult(
            groups=groups,
            origin_inside=True,
            min_distance=0.0,
            nearest_point=np.zeros(2),
            spread=spread,
        )
    # the group holding the raw phase just after the largest gap opens the arc
    start = next(i for i, g in enumerate(groups) if order[first] in g.indices)
    groups = groups[start:] + groups[:start]
    return HullResult(
        groups=groups,
        origin_inside=False,
        min_distance=distance,
        nearest_point=np.array([mid_x, mid_y]),
        spread=spread,
    )


def midpoint_quad(hull: HullResult) -> list[np.ndarray]:
    """Midpoints of consecutive hull edges, cyclic; needs >= 2 vertices."""
    n = len(hull.groups)
    if n < 2:
        raise DegenerateHullError("midpoints need at least 2 distinct vertices")
    pts = [np.array([math.cos(g.phase), math.sin(g.phase)]) for g in hull.groups]
    return [0.5 * (pts[i] + pts[(i + 1) % n]) for i in range(n)]
