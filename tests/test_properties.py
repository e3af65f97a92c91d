"""Property tests: fidelity depends only on the set of phases up to a shift and a reflection."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gatediscrim import canonical, geometry
from gatediscrim.discrimination import fidelity
from gatediscrim.numerics import ID4

PI = math.pi

phases = st.lists(
    st.floats(min_value=-PI, max_value=PI, allow_nan=False), min_size=4, max_size=4
).map(np.array)
cfg = settings(deadline=None, database=None)


def _fid(om) -> float:
    return fidelity(ID4, canonical.from_magic_phases(om))[0]


def _same(f1: float, f2: float) -> bool:
    # equal to rounding, or both within the verdict rule's reach, where one
    # side may have been reported as 0
    return abs(f1 - f2) <= 1e-12 or max(f1, f2) <= geometry.VERDICT_TOL + 1e-12


@cfg
@given(phases, st.permutations(range(4)))
def test_fidelity_invariant_under_permutation(om, perm):
    assert _same(_fid(om), _fid(om[list(perm)]))


@cfg
@given(phases)
def test_fidelity_invariant_under_reflection(om):
    assert _same(_fid(om), _fid(-om))


@cfg
@given(phases, st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_fidelity_invariant_under_common_shift(om, shift):
    assert _same(_fid(om), _fid(om + shift))
