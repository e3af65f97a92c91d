"""The one-pass request pipeline reproduces the reference pipeline bit for bit.

`conftest.ref_*` is the relative_phases -> hull -> probe -> report pipeline
as it stood before each piece of work was done once per request.  Every
field of every report, probe and hull must come out exactly equal: same
dtype, same shape, same bytes (so a -0.0 against a 0.0 counts as a change).
"""

import math
import struct

import numpy as np
import pytest

from gatediscrim import canonical, discrimination, geometry
from gatediscrim.numerics import ID4, wrap_angle

from conftest import (
    ref_construct_probe,
    ref_discriminate,
    ref_hull,
    ref_relative_phases,
)

PI = math.pi


def same(a, b) -> bool:
    """Exact equality, down to the sign of zero."""
    if a is None or b is None:
        return a is b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and struct.pack("d", a) == struct.pack("d", b)
    return type(a) is type(b) and a == b


def assert_same_probe(p, q):
    for name in ("u", "psi_computational", "local_a", "local_b", "concurrence", "via_fallback"):
        assert same(getattr(p, name), getattr(q, name)), name


def assert_same_report(r, q):
    for name in (
        "omega",
        "fidelity",
        "p1",
        "p2",
        "error_probability",
        "perfectly_distinguishable",
        "case",
        "achieved_value",
    ):
        assert same(getattr(r, name), getattr(q, name)), name
    assert_same_probe(r.probe, q.probe)


def assert_same_hull(h, g):
    assert len(h.groups) == len(g.groups)
    for a, b in zip(h.groups, g.groups):
        assert same(a.phase, b.phase) and a.indices == b.indices
    for name in ("origin_inside", "min_distance", "nearest_point"):
        assert same(getattr(h, name), getattr(g, name)), name


def check_pair(u1, u2, p1=0.5):
    r = discrimination.discriminate(u1, u2, p1=p1)
    assert_same_report(r, ref_discriminate(u1, u2, p1=p1))
    assert same(canonical.relative_phases(u1, u2), ref_relative_phases(u1, u2))
    f, om = discrimination.fidelity(u1, u2)
    assert same(f, r.fidelity) and same(om, r.omega)
    assert discrimination.perfectly_distinguishable(u1, u2) is r.perfectly_distinguishable
    return r


def test_uniform_pairs_match_reference():
    rng = np.random.default_rng(8208)
    inside = 0
    for _ in range(2400):
        u1 = canonical.from_magic_phases(rng.uniform(-PI, PI, 4))
        u2 = canonical.from_magic_phases(rng.uniform(-PI, PI, 4))
        inside += check_pair(u1, u2, p1=float(rng.uniform())).perfectly_distinguishable
    # both hull cases are well represented
    assert 600 < inside < 1800


def _near_pi_omegas(rng):
    # spreads pi - d and pi + d for d from one ulp up to 1e-12
    deltas = [k * math.ulp(PI) for k in range(1, 9)]
    deltas += np.geomspace(1e-15, 1e-12, 12).tolist()
    for d in deltas:
        for sign in (-1.0, 1.0):
            a, b = sorted(rng.uniform(0.05, PI - 0.05, 2))
            yield np.array([0.0, a, b, PI + sign * d])
            # the same arc turned to a random place on the circle
            turn = rng.uniform(-PI, PI)
            yield wrap_angle(np.array([0.0, a, b, PI + sign * d]) + turn)


def test_spreads_within_1e12_of_pi_match_reference():
    rng = np.random.default_rng(314)
    for om in _near_pi_omegas(rng):
        spread = geometry.arc_spread(om)
        assert abs(spread - PI) <= 1.1e-12
        u2 = canonical.from_magic_phases(om)
        check_pair(ID4, u2)
        shift = canonical.from_magic_phases(np.full(4, rng.uniform(-PI, PI)))
        check_pair(shift, shift @ u2)
        assert_same_probe(discrimination.construct_probe(om), ref_construct_probe(om))


@pytest.mark.parametrize("pattern", ["2+2", "3+1", "4", "2+1+1"])
def test_repeated_phases_match_reference(pattern):
    # 2+1+1 gives the triangle hulls, whose double vertex pads the cycle
    rng = np.random.default_rng(22)
    for _ in range(300):
        x, y = rng.uniform(-PI, PI, 2)
        z = rng.uniform(-PI, PI) if pattern == "2+1+1" else None
        om = {
            "2+2": [x, y, x, y],
            "3+1": [x, x, y, x],
            "4": [x, x, x, x],
            "2+1+1": [x, y, x, z],
        }[pattern]
        om = rng.permutation(np.array(om))
        # equal, or split well inside the merge tolerance
        om = om + rng.choice([0.0, 1e-13, -3e-11], size=4)
        check_pair(ID4, canonical.from_magic_phases(om))
        assert_same_probe(discrimination.construct_probe(om), ref_construct_probe(om))
    # the antipodal 2+2 set: both gates perfectly distinguishable
    r = check_pair(ID4, canonical.from_magic_phases([0.0, PI, 0.0, PI]))
    assert r.perfectly_distinguishable


def test_inside_sets_construct_probe_matches_reference():
    # criterion 7's draw: uniform phase sets whose spread is at least pi
    rng = np.random.default_rng(707)
    batch = rng.uniform(-PI, PI, size=(8000, 4))
    ph = np.sort(wrap_angle(-batch), axis=1)
    gaps = np.diff(ph, axis=1)
    wrap_gap = ph[:, 0] + 2 * PI - ph[:, -1]
    spread = 2 * PI - np.maximum(gaps.max(axis=1), wrap_gap)
    inside = batch[spread >= PI]
    assert len(inside) >= 3000
    for om in inside[:3000]:
        assert_same_probe(discrimination.construct_probe(om), ref_construct_probe(om))


def test_hull_matches_reference():
    rng = np.random.default_rng(3003)
    for k in range(3003):
        n = 1 + k % 6
        ph = rng.uniform(-4.0, 4.0, n)
        if k % 3 == 0 and n > 1:
            # near-equal phases that merge, also across the -pi/pi cut
            ph[1:] = ph[0] + rng.choice([0.0, 5e-11, -9e-11, 2 * PI], size=n - 1)
        for tol in (geometry.DEDUPE_TOL, 0.0, 1e-3):
            assert_same_hull(geometry.hull_of_phases(ph, tol=tol), ref_hull(ph, tol=tol))
