"""Convex geometry of phase points on the unit circle.

The distinguishability questions reduce to: how close does the convex hull
of the points e^{i phi_k} come to the origin?  Distinct unit-circle points
are automatically in convex position, so the hull is just the points in
counter-clockwise order and the origin distance is an arc-length statement:
it is cos(min(spread, pi) / 2) for an occupied arc of length `spread`.
`hull_of_phases` is the one place that turns that distance into the
inside/outside verdict, and its `groups` are the one grouping of
near-equal phases into hull vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import TWO_PI, VERDICT_TOL, require_finite, require_real, wrap_angle

# phases closer than this on the circle are one hull vertex; rounding is ~1e-16
DEDUPE_TOL = 1e-10


@dataclass(frozen=True)
class PhaseGroup:
    """A hull vertex: the circular mean `phase` of the input phases that
    merge into it (those within the hull's `tol`), and their `indices`."""

    phase: float
    indices: tuple[int, ...]


@dataclass(frozen=True)
class HullResult:
    """The hull's vertices (`groups`), whether it holds the origin, and the
    origin's distance to it with the nearest hull point.  The arc spread
    behind that distance is not kept: `arc_spread` computes it.  A hull of
    one group reports `min_distance` 1.0, see `hull_of_phases`.  When the
    spread is below pi and the hull has two or more groups, `extremes`
    holds the indices of the raw phases at the arc's two ends, in
    counter-clockwise order, each the lowest index among raw phases equal
    to it; otherwise it is empty."""

    groups: list[PhaseGroup]
    origin_inside: bool
    min_distance: float
    nearest_point: np.ndarray
    extremes: tuple[int, ...] = ()


def _finite_phases(phases) -> list[float]:
    """Phases as a list of wrapped floats; DomainError if empty, NaN or inf."""
    # a few phases per call: scalar wraps beat the ufunc round trip
    return [wrap_angle(x) for x in require_finite(phases, "phases").tolist()]


def _dedupe(vals: list[float], tol: float):
    """(stable ascending order, merged groups) of wrapped phases."""
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
            # circular mean of the run, taken about its first phase, whose
            # own offset is 0.0: for a run of up to 7 phases the sum is
            # numpy's mean, bit for bit
            offsets = [wrap_angle(vals[i] - rep) for i in run]
            rep = wrap_angle(rep + sum(offsets) / len(offsets))
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
    one group, with one exception: when all of them merge into one group,
    `min_distance` is 1.0 and `nearest_point` that group's point.  Its n
    raw phases span at most (n - 1) * tol, so 1.0 lies within
    1 - cos((n - 1) * tol / 2) of their exact distance, below 1.2e-20 for
    four phases at DEDUPE_TOL.  Inside, the groups (the hull's vertices)
    come out counter-clockwise from the smallest phase.  Outside, the ordering
    starts just after the largest empty arc, so groups[0] and groups[-1]
    are the angular extremes, whose chord realizes `min_distance`.
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
    order, groups = _dedupe(vals, tol)
    if len(groups) == 1:
        g = groups[0]
        return HullResult(
            groups=[g],
            origin_inside=False,
            min_distance=1.0,
            nearest_point=np.array([math.cos(g.phase), math.sin(g.phase)]),
        )
    imax, spread = _largest_gap([vals[i] for i in order])
    first = (imax + 1) % len(order)
    # the chord between the angular extremes; its midpoint lies
    # cos(spread / 2) from the origin
    lo, hi = vals[order[first]], vals[order[imax]]
    mid_x = 0.5 * (math.cos(lo) + math.cos(hi))
    mid_y = 0.5 * (math.sin(lo) + math.sin(hi))
    distance = float(np.hypot(mid_x, mid_y)) if spread < math.pi else 0.0
    # the chord's ends, each the lowest index among raw phases equal to it
    extremes = (vals.index(lo), vals.index(hi)) if spread < math.pi else ()
    if distance <= VERDICT_TOL:
        return HullResult(
            groups=groups,
            origin_inside=True,
            min_distance=0.0,
            nearest_point=np.zeros(2),
            extremes=extremes,
        )
    # the group holding the raw phase just after the largest gap opens the arc
    start = next(i for i, g in enumerate(groups) if order[first] in g.indices)
    groups = groups[start:] + groups[:start]
    return HullResult(
        groups=groups,
        origin_inside=False,
        min_distance=distance,
        nearest_point=np.array([mid_x, mid_y]),
        extremes=extremes,
    )

