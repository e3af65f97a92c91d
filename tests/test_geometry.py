import math
import struct

import numpy as np
import pytest

from gatediscrim import geometry, numerics, svg
from gatediscrim.geometry import arc_spread, hull_of_phases

import fingerprint
from conftest import polygon_origin_distance
from test_contract import keeps

PI = math.pi


def test_dedupe_wraps_across_pi():
    # two phases 2e-12 apart across the cut are not merged: the arc opens
    # at 0.5 and crosses the cut, and its far end is the phase past it
    h = hull_of_phases([PI - 1e-12, -PI + 1e-12, 0.5], tol=1e-9)
    assert not h.origin_inside
    assert h.order == (2, 0, 1) and h.extremes == (2, 1)
    assert h.min_distance == pytest.approx(math.cos((PI - 0.5) / 2), abs=1e-12)
    # within tol of each other, the three phases are one point
    assert hull_of_phases([PI - 1e-12, -PI + 1e-12, PI], tol=1e-9).min_distance == 1.0


def test_arc_spread_values():
    assert arc_spread([0.0, PI / 3, PI / 6, PI / 4]) == pytest.approx(PI / 3)
    assert arc_spread([0.0, PI, 0.0, PI]) == pytest.approx(PI)
    assert arc_spread([0.7, 0.7, 0.7, 0.7]) == pytest.approx(0.0)
    assert arc_spread([0.7]) == 0.0
    assert arc_spread([0.0, PI / 2, PI, -PI / 2]) == pytest.approx(1.5 * PI)


def test_contains_iff_spread(rng):
    for _ in range(3000):
        ph = rng.uniform(-PI, PI, size=4)
        distance = math.cos(min(arc_spread(ph), PI) / 2)
        assert hull_of_phases(ph).origin_inside == (distance <= geometry.VERDICT_TOL)


def test_hull_square():
    h = hull_of_phases([0.0, PI / 2, PI, -PI / 2])
    assert h.origin_inside
    assert h.min_distance == 0.0
    np.testing.assert_allclose(h.nearest_point, [0.0, 0.0])
    # inside, the order runs counter-clockwise from the smallest phase
    assert h.order == (3, 0, 1, 2) and h.extremes == ()
    assert h.phases == (0.0, PI / 2, PI, -PI / 2)


def test_hull_arc_example():
    h = hull_of_phases([0.0, PI / 3, PI / 6, PI / 4])
    assert not h.origin_inside
    assert h.min_distance == pytest.approx(math.cos(PI / 6), abs=1e-12)
    # outside, the order runs counter-clockwise from the arc start, so the
    # first and the last are the angular extremes, which the chord joins
    assert h.order == (0, 2, 3, 1)
    assert h.extremes == (0, 1)
    # also when the arc crosses the cut at pi
    assert hull_of_phases([3.0, -3.0, PI, -PI + 0.1]).order == (0, 2, 3, 1)


def test_hull_extremes_are_raw_phases():
    # below pi the extremes name the arc's raw ends, each the lowest index
    # among equal phases; one point's first two indices; from pi on, the
    # largest gap's ends by phase when their chord passes through the
    # origin, as an antipodal pair's does or a polygon's edge; none for one
    # phase or a polygon around the origin
    assert hull_of_phases([5e-11, 0.0, 1.0, 2.0 + 5e-11, 2.0]).extremes == (1, 3)
    assert hull_of_phases([1.0, 0.0, 1.0, 0.0]).extremes == (1, 0)
    band = hull_of_phases([0.0, 1.0, PI - 1e-9])
    assert band.origin_inside and band.extremes == (0, 2)
    assert hull_of_phases([0.3, 0.3 + 5e-11]).extremes == (0, 1)
    assert hull_of_phases([0.0, PI, 0.0, PI]).extremes == (0, 1)
    assert hull_of_phases([PI, 1.0, 2.0, 0.0]).extremes == (3, 0)
    assert hull_of_phases([0.3]).extremes == ()
    assert hull_of_phases([0.0, PI / 2, PI, -PI / 2]).extremes == ()


def test_hull_single_point():
    # n phases that span at most (n - 1) * tol are one point, at distance
    # exactly 1.0: an ulp-split set, and a run of phases each within tol of
    # the next, where the chord's hypot gives 1 - eps/2; a wider span is a
    # chord
    run = [0.3, 0.3 + 5e-11, 0.3 + 1e-10, 0.3 + 1.5e-10]
    for ph in ([0.3] * 4, [0.3, 0.3 + 5.6e-17, 0.3 - 5.6e-17, 0.3], [0.3, 0.3 + 5e-11], run):
        h = hull_of_phases(ph)
        assert not h.origin_inside and h.min_distance == 1.0
        assert h.extremes == (0, 1) and h.order == tuple(np.argsort(ph, kind="stable"))
    assert hull_of_phases([0.3]).min_distance == 1.0 and hull_of_phases([0.3]).extremes == ()
    # equal phases whose spread rounds to 8.9e-16, not 0, at any tol
    x = 2.0369109645005574
    assert hull_of_phases([x]).min_distance == 1.0 and hull_of_phases([x]).extremes == ()
    assert hull_of_phases([x, x], tol=0.0).min_distance == 1.0
    h = hull_of_phases([0.3, 0.3 + 1e-7])
    assert h.min_distance == pytest.approx(math.cos(5e-8), abs=1e-16) and h.min_distance < 1.0
    assert hull_of_phases([0.3, 0.3 + 5.6e-17], tol=0.0).extremes == (0, 1)


def test_hull_min_distance_law(rng):
    # outside: distance is cos(spread / 2); inside: zero
    for _ in range(500):
        ph = rng.uniform(-PI, PI, size=4)
        h = hull_of_phases(ph)
        s = arc_spread(ph)
        if h.origin_inside:
            assert h.min_distance == 0.0
        else:
            assert h.min_distance == pytest.approx(math.cos(s / 2), abs=1e-12)
            np.testing.assert_allclose(
                np.hypot(*h.nearest_point), h.min_distance, atol=1e-12
            )


def test_hull_matches_exact_projection(rng):
    # uniform sets, the near-pi and repeated-phase families, and 1 to 6
    # phases within DEDUPE_TOL of each other, across the cut too, at each tol
    sets = [*rng.uniform(-PI, PI, size=(1000, 4)), *fingerprint.near_pi_omegas(rng)]
    sets += [*fingerprint.repeated_omegas(rng, 50), *fingerprint.mixed_phase_sets(rng, 600)]
    for ph in sets:
        exact = polygon_origin_distance(ph)
        for tol in (geometry.DEDUPE_TOL, 0.0, 1e-3):
            h = hull_of_phases(ph, tol=tol)
            assert abs(exact - h.min_distance) <= 1e-9
            assert h.origin_inside == (h.min_distance == 0.0)


def test_polygon_origin_distance_oracle():
    # a repeated or nearly repeated triple spans no triangle around the origin
    assert polygon_origin_distance([0.3, 0.3, 0.3, 1.0]) == pytest.approx(
        math.cos(0.35), abs=1e-12
    )
    assert polygon_origin_distance([0.3, 0.3 + 1e-13, 0.3 - 1e-13, 1.0]) == (
        pytest.approx(math.cos(0.35), abs=1e-12)
    )
    assert polygon_origin_distance([0.0, 2.0, -2.0, 0.5]) == 0.0
    # an origin on a segment is found by the segment pass
    assert polygon_origin_distance([0.0, PI, 0.0, PI]) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [hull_of_phases, arc_spread])
def test_non_finite_phases_rejected(fn, bad):
    # a phase must be finite: NaN and inf are input errors, not angles
    keeps(fn, "phases", [bad, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("fn", [hull_of_phases, arc_spread])
@pytest.mark.parametrize("empty", [[], np.zeros(0), ()])
def test_empty_phases_rejected(fn, empty):
    keeps(fn, "phases", empty)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
@pytest.mark.parametrize("fn", [hull_of_phases])
def test_merge_tol_domain(fn, tol):
    # tol = nan used to merge nothing, silently
    keeps(fn, "merge tol", tol)


def test_figure_of_unwrapped_omega_is_the_figure_of_its_wrap():
    # render_hull_svg wraps its angles before the hull: wrapping is exact,
    # so any finite angles draw the figure of their wrap, byte for byte,
    # and the hull negates the wrapped phases as hull_of_phases(-om) would
    pi_edges = [PI, -PI, 3 * PI, -3 * PI, math.nextafter(PI, 4.0), math.nextafter(-PI, -4.0)]
    turns = [2 * PI, -2 * PI, 6 * PI, -4 * PI, 0.0, -0.0]
    near_1e3 = [1e3, -1e3, 1e3 + 0.5, math.nextafter(1e3, 2e3), -999.25, 1e3 + PI]
    rows = [pi_edges[:4], pi_edges[2:], turns[:4], turns[2:], near_1e3[:4], near_1e3[2:],
            [PI, 2 * PI, 1e3, -3 * PI], [-0.0, -PI, 1e3 - 0.5, 4 * PI + 1.0]]
    for om in rows:
        wrapped = [numerics.wrap_angle(x) for x in om]
        assert wrapped != om
        assert svg.render_hull_svg(om) == svg.render_hull_svg(wrapped), om
        got = geometry._hull_of_omega(wrapped)
        want = hull_of_phases([-x for x in om])
        assert [struct.pack("<d", x) for x in got.phases] == [
            struct.pack("<d", x) for x in want.phases], om
        assert (got.order, got.extremes, got.min_distance) == (
            want.order, want.extremes, want.min_distance)
