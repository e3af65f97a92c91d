"""Property tests: fidelity depends only on the set of phases up to a shift
and a reflection, and on neither gate's global phase; the interaction vector
does not see local dressing; every gate-taking entry point accepts a gate
exactly when its unitarity residual is within the tolerance; the files'
complex encoder keeps each entry's value and sign in its input's shape."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from gatediscrim import canonical, discrimination, files, geometry, numerics, oracle
from gatediscrim.discrimination import discriminate
from gatediscrim.errors import NotUnitaryError
from gatediscrim.numerics import ID4

from conftest import dressed_gate

PI = math.pi

phases = st.lists(
    st.floats(min_value=-PI, max_value=PI, allow_nan=False), min_size=4, max_size=4
).map(np.array)
# the same examples on every run, as test_canonical's guard draws them
cfg = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def _fid(om) -> float:
    return discriminate(ID4, canonical.from_magic_phases(om)).fidelity


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
# two phases 1e-10 apart, within DEDUPE_TOL before the shift only
@example(np.array([0.0, 0.0, 1.0, 1e-10]), 1.0)
# spread pi - 1e-9: inside by the verdict, and its probe once missed
@example(np.array([1.0, PI, 0.5, 1e-9]), 0.0)
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
    f = discriminate(u1, u2).fidelity
    if on_first:
        u1 = np.exp(1j * phi) * u1
    else:
        u2 = np.exp(1j * phi) * u2
    assert _same(f, discriminate(u1, u2).fidelity)


@cfg
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_interaction_invariant_under_local_dressing(seed):
    rng = np.random.default_rng(seed)
    alpha = canonical.random_weyl_vector(rng)
    bare = canonical.extract_interaction(canonical.build_ud(alpha)).alpha
    dressed = canonical.extract_interaction(dressed_gate(rng, alpha)).alpha
    np.testing.assert_allclose(dressed, bare, atol=1e-8)


def _accepts(call) -> bool:
    try:
        call()
    except NotUnitaryError:
        return False
    return True


_SMALL_SEARCH = oracle.SearchConfig(grid_steps=8, refinement_rounds=0)
_PROBE = discrimination.construct_probe(np.zeros(4))
# squared scale 1 + r gives a unitarity residual of about |r|
residual = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=0.0, max_value=2.0))


@cfg
@given(phases, phases, residual, residual, st.sampled_from([None, 1e-10, 1e-6]))
# residual 8e-9: inside the default, and once rejected by the oracles at 1e-9
@example(np.zeros(4), canonical.lambda_phases((0.3, 0.2, 0.1)), (1.0, 0.8), (1.0, 0.0), None)
# three eigenvalues 3.7e-224 apart: the all-states oracle's triangle test once
# took their tiny triangle for one around the origin
@example(np.zeros(4), np.array([0.0, 7.324809469923222e-224, 0.0, 0.5]), (1.0, 0.0), (1.0, 0.0), None)
def test_entry_points_accept_exactly_the_unitary_gates(om1, om2, r1, r2, tol):
    t = numerics.GATE_TOL if tol is None else tol
    kw = {} if tol is None else {"tol": tol}
    gates = [
        math.sqrt(1.0 + sign * size * t) * canonical.from_magic_phases(om)
        for om, (sign, size) in zip((om1, om2), (r1, r2))
    ]
    # the rule itself, not a function under test: a gate is unitary within t
    ok = [float(numerics.unitarity_residual(u)) <= t for u in gates]
    pair_ok = all(ok)
    u1, u2 = gates
    pair_calls = [
        lambda: canonical.relative_phases(u1, u2, **kw),
        lambda: discriminate(u1, u2, **kw),
        lambda: oracle.helstrom_simulate(u1, u2, _PROBE, shots=10, **kw),
    ]
    if tol is None:
        # the oracles take no tol: they check at GATE_TOL
        pair_calls.append(lambda: oracle.min_over_product_states(u1, u2, _SMALL_SEARCH))
        pair_calls.append(lambda: oracle.min_over_all_states(u1, u2))
    for call in pair_calls:
        assert _accepts(call) == pair_ok
    with tempfile.TemporaryDirectory() as tmp:
        for i, (u, u_ok) in enumerate(zip(gates, ok)):
            path = Path(tmp) / f"gate{i}.json"
            files.write_document(files.matrix_document(u, "g"), path)
            for call in (
                lambda: canonical.extract_interaction(u, **kw),
                lambda: numerics.require_unitary(u, **kw),
                lambda: files.load_matrix_file(path, **kw),
            ):
                assert _accepts(call) == u_ok


def _entrywise(a):
    """[re, im] pairs of Python floats built one entry at a time."""
    if np.ndim(a) == 0:
        z = complex(a)
        return [float(z.real), float(z.imag)]
    return [_entrywise(x) for x in a]


def test_pairs_encodes_each_entry_in_the_input_shape():
    # repr tells -0.0 from 0.0, and a numpy float from a Python float
    assert repr(files.pairs([complex(-0.0, -0.0), 1j])) == "[[-0.0, -0.0], [0.0, 1.0]]"
    assert repr(files.pairs([[complex(0.0, -0.0)]])) == "[[[0.0, -0.0]]]"
    rng = np.random.default_rng(43)
    for shape in [(4,), (2,), (4, 4), (2, 3, 4)]:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a.real[rng.uniform(size=shape) < 0.2] = -0.0
        a.imag[rng.uniform(size=shape) < 0.2] = -0.0
        got = files.pairs(a)
        assert np.shape(got) == shape + (2,)
        assert repr(got) == repr(_entrywise(a))
    assert files.pairs(np.eye(2)) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
