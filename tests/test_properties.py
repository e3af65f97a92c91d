"""Property tests: fidelity depends only on the set of phases up to a shift
and a reflection, and on neither gate's global phase; the interaction vector
does not see local dressing."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from gatediscrim import canonical, geometry
from gatediscrim.discrimination import fidelity
from gatediscrim.numerics import ID4

from conftest import dressed_gate

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
# two phases 1e-10 apart merge into one hull vertex before the shift only
@example(np.array([0.0, 0.0, 1.0, 1e-10]), 1.0)
def test_fidelity_invariant_under_common_shift(om, shift):
    assert _same(_fid(om), _fid(om + shift))


@cfg
@given(
    phases,
    phases,
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.booleans(),
)
def test_fidelity_invariant_under_global_phase(om1, om2, phi, on_first):
    u1, u2 = canonical.from_magic_phases(om1), canonical.from_magic_phases(om2)
    f = fidelity(u1, u2)[0]
    if on_first:
        u1 = np.exp(1j * phi) * u1
    else:
        u2 = np.exp(1j * phi) * u2
    assert _same(f, fidelity(u1, u2)[0])


@cfg
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_interaction_invariant_under_local_dressing(seed):
    rng = np.random.default_rng(seed)
    alpha = canonical.random_weyl_vector(rng)
    bare = canonical.extract_interaction(canonical.build_ud(alpha)).alpha
    dressed = canonical.extract_interaction(dressed_gate(rng, alpha)).alpha
    np.testing.assert_allclose(dressed, bare, atol=1e-8)
