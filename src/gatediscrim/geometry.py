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
from .numerics import wrap_angle

TWO_PI = 2.0 * math.pi

# The verdict rule: the origin is inside the hull when its distance to the
# hull is at most VERDICT_TOL (criterion 3's bound).  Probes are held to the
# same bound on their achieved overlap and on their concurrence.
VERDICT_TOL = 1e-9
# phases closer than this on the circle are one hull vertex
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
class CirclePoint:
    phase: float

    @property
    def xy(self) -> np.ndarray:
        return np.array([math.cos(self.phase), math.sin(self.phase)])


@dataclass(frozen=True)
class HullResult:
    vertices: list[CirclePoint]
    groups: list[PhaseGroup]
    origin_inside: bool
    min_distance: float
    nearest_point: np.ndarray
    nearest_edge: tuple[int, int] | None
    spread: float = field(default=0.0)


def _finite_phases(phases) -> np.ndarray:
    """Phases as a wrapped 1-d array; DomainError on NaN or inf."""
    ph = np.atleast_1d(np.asarray(phases, dtype=float))
    # a few phases per call: the list check beats the ufunc round trip
    if not all(map(math.isfinite, ph.tolist())):
        raise DomainError(f"phases must be finite, got {ph.tolist()}")
    return wrap_angle(ph)


def dedupe_phases(phases, tol: float = DEDUPE_TOL) -> list[PhaseGroup]:
    """Merge phases closer than `tol` on the circle; order follows the circle.

    Groups are returned sorted by representative phase in (-pi, pi]; each
    keeps the original input indices and a circular-mean representative.
    Raises DomainError on a non-finite phase.
    """
    return _dedupe(_finite_phases(phases), tol)[2]


def _dedupe(ph: np.ndarray, tol: float):
    """(values, stable ascending order, merged groups) of wrapped phases."""
    vals = ph.tolist()
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
    offsets = [
        float(np.mean(wrap_angle(ph[run] - ph[run[0]]))) if len(run) > 1 else 0.0
        for run in runs
    ]
    reps = wrap_angle(ph[[run[0] for run in runs]] + offsets).tolist()
    groups = [
        PhaseGroup(phase=rep, indices=tuple(sorted(run)))
        for rep, run in zip(reps, runs)
    ]
    groups.sort(key=lambda g: g.phase)
    return vals, order, groups


def arc_spread(phases) -> float:
    """Angular extent of the smallest closed arc covering all phases.

    Raises DomainError on a non-finite phase.
    """
    ph = np.sort(_finite_phases(phases))
    if ph.size == 1:
        return 0.0
    gaps = np.diff(ph)
    wrap_gap = (ph[0] + TWO_PI) - ph[-1]
    return float(TWO_PI - max(float(np.max(gaps)), wrap_gap))


def hull_of_phases(phases, tol: float = DEDUPE_TOL) -> HullResult:
    """Convex hull of points e^{i phi} with origin distance bookkeeping.

    The origin counts as inside when its distance to the hull,
    cos(min(spread, pi) / 2), is at most VERDICT_TOL; `min_distance` is 0
    then.  The largest empty arc, the spread and the chord come from the
    raw phases, so they do not depend on which near-equal phases merge into
    one group.  Inside, vertices come out counter-clockwise from the
    smallest phase.  Outside, the ordering starts just after the largest
    empty arc, so vertices[0] and vertices[-1] are the angular extremes and
    `nearest_edge` is the chord (len-1, 0) that realizes `min_distance`.
    """
    vals, order, groups = _dedupe(_finite_phases(phases), tol)
    n = len(groups)
    if n == 1:
        g = groups[0]
        v = CirclePoint(g.phase)
        return HullResult(
            vertices=[v],
            groups=[g],
            origin_inside=False,
            min_distance=1.0,
            nearest_point=v.xy,
            nearest_edge=None,
            spread=0.0,
        )
    raw = [vals[i] for i in order]
    m = len(raw)
    # gap i sits between raw phase i and raw phase i+1 (mod m)
    gaps = [b - a for a, b in zip(raw, raw[1:])] + [(raw[0] + TWO_PI) - raw[-1]]
    imax = max(range(m), key=gaps.__getitem__)
    spread = TWO_PI - gaps[imax]
    first = (imax + 1) % m
    # the chord between the angular extremes; its midpoint lies
    # cos(spread / 2) from the origin
    chord_mid = 0.5 * (CirclePoint(raw[first]).xy + CirclePoint(raw[imax]).xy)
    distance = float(np.hypot(*chord_mid)) if spread < math.pi else 0.0
    if distance <= VERDICT_TOL:
        verts = [CirclePoint(g.phase) for g in groups]
        return HullResult(
            vertices=verts,
            groups=groups,
            origin_inside=True,
            min_distance=0.0,
            nearest_point=np.zeros(2),
            nearest_edge=None,
            spread=spread,
        )
    # the group holding the raw phase just after the largest gap opens the arc
    start = next(i for i, g in enumerate(groups) if order[first] in g.indices)
    groups = groups[start:] + groups[:start]
    verts = [CirclePoint(g.phase) for g in groups]
    return HullResult(
        vertices=verts,
        groups=groups,
        origin_inside=False,
        min_distance=distance,
        nearest_point=chord_mid,
        nearest_edge=(n - 1, 0),
        spread=spread,
    )


def midpoint_quad(hull: HullResult) -> list[np.ndarray]:
    """Midpoints of consecutive hull edges, cyclic; needs >= 2 vertices."""
    n = len(hull.vertices)
    if n < 2:
        raise DegenerateHullError("midpoints need at least 2 distinct vertices")
    pts = [v.xy for v in hull.vertices]
    return [0.5 * (pts[i] + pts[(i + 1) % n]) for i in range(n)]
