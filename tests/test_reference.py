"""The edge families of the request pipeline against the references kept
in the tests.

Each phase set goes in against the identity and behind a shared shift
gate, and `check_pair` holds the pair to the exact hull distance of
`conftest.polygon_origin_distance` at criterion 1's bounds, and
`relative_phases` and `construct_probe` to `discriminate`.  The bytes of the same families are the `discriminate_edges` fingerprint corpus.
"""

import math

import numpy as np
import pytest

from gatediscrim import canonical, geometry
from gatediscrim.numerics import ID4

import fingerprint
from test_discrimination import check_pair

PI = math.pi


def check_set(rng, om):
    s, u = map(canonical.from_magic_phases, (np.full(4, rng.uniform(-PI, PI)), om))
    for u1, u2 in [(ID4, u), (s, s @ u)]:
        check_pair(u1, u2, float(rng.uniform()))


def test_spreads_within_1e12_of_pi_match_reference(rng):
    for om in fingerprint.near_pi_omegas(rng):
        assert abs(geometry.arc_spread(om) - PI) <= 1.1e-12
        check_set(rng, om)


@pytest.mark.parametrize("pattern", fingerprint.REPEATS)
def test_repeated_phases_match_reference(rng, pattern):
    for om in fingerprint.repeated_omegas(rng, 25, [pattern]):
        # with 2+2, the last is the antipodal set, at hull distance 0 and
        # so perfectly distinguishable
        check_set(rng, om)
