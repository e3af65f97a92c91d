import math

import numpy as np
import pytest

from gatediscrim import geometry
from gatediscrim.geometry import arc_spread, hull_of_phases

import fingerprint
from conftest import polygon_origin_distance
from test_contract import keeps

PI = math.pi


def test_dedupe_groups_and_indices():
    groups = hull_of_phases([0.0, PI, 0.0, PI]).groups
    assert len(groups) == 2
    assert groups[0].phase == pytest.approx(0.0)
    assert groups[0].indices == (0, 2)
    assert groups[1].indices == (1, 3)
    assert len(groups[1].indices) == 2


def test_dedupe_tolerance_merges():
    groups = hull_of_phases([0.0, 5e-10, 1.0], tol=1e-9).groups
    assert len(groups) == 2
    assert groups[0].indices == (0, 1)
    # representative is the circular mean of the merged run
    assert groups[0].phase == pytest.approx(2.5e-10, abs=1e-12)
    assert len(hull_of_phases([0.0, 5e-10, 1.0], tol=1e-12).groups) == 3


def test_dedupe_wraps_across_pi():
    groups = hull_of_phases([PI - 1e-12, -PI + 1e-12, 0.5], tol=1e-9).groups
    assert len(groups) == 2
    merged = [g for g in groups if len(g.indices) == 2][0]
    assert merged.indices == (0, 1)


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
    assert [g.phase for g in h.groups] == pytest.approx(
        [-PI / 2, 0.0, PI / 2, PI]
    )


def test_hull_arc_example():
    h = hull_of_phases([0.0, PI / 3, PI / 6, PI / 4])
    assert not h.origin_inside
    assert h.min_distance == pytest.approx(math.cos(PI / 6), abs=1e-12)
    # groups run counter-clockwise from the arc start, so the first and the
    # last are the angular extremes
    assert h.groups[0].phase == pytest.approx(0.0)
    assert h.groups[-1].phase == pytest.approx(PI / 3)
    assert h.extremes == (0, 1)


def test_hull_extremes_are_raw_phases():
    # below pi the extremes name raw phases, not a merged group's first
    # index, and the lowest index among equal ones; a lone group's first
    # two indices; each antipodal group's first index; none for one phase
    # or a polygon around the origin
    assert hull_of_phases([5e-11, 0.0, 1.0, 2.0 + 5e-11, 2.0]).extremes == (1, 3)
    assert hull_of_phases([1.0, 0.0, 1.0, 0.0]).extremes == (1, 0)
    band = hull_of_phases([0.0, 1.0, PI - 1e-9])
    assert band.origin_inside and band.extremes == (0, 2)
    assert hull_of_phases([0.3, 0.3 + 5e-11]).extremes == (0, 1)
    assert hull_of_phases([0.0, PI, 0.0, PI]).extremes == (0, 1)
    assert hull_of_phases([0.3]).extremes == ()
    assert hull_of_phases([0.0, PI / 2, PI, -PI / 2]).extremes == ()


def test_hull_single_point():
    h = hull_of_phases([0.3, 0.3, 0.3, 0.3])
    assert len(h.groups) == 1
    assert not h.origin_inside
    assert h.min_distance == pytest.approx(1.0)


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
    # phases that merge, across the cut too, at each merge tolerance
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


def test_hull_vertex_groups_align():
    h = hull_of_phases([0.5, -2.0, 0.5, 1.0])
    assert len(h.groups) == 3
    assert [g.phase for g in h.groups] == pytest.approx([-2.0, 0.5, 1.0])
    counts = sorted(len(g.indices) for g in h.groups)
    assert counts == [1, 1, 2]


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


def test_merge_tol_zero_merges_only_equal_phases():
    groups = hull_of_phases([0.5, 0.5, 0.5 + 1e-15, 2.0], tol=0.0).groups
    assert [g.indices for g in groups] == [(0, 1), (2,), (3,)]
    assert len(hull_of_phases([0.5, 0.5, 2.0], tol=0.0).groups[0].indices) == 2
