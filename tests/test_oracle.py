import math
import tracemalloc

import numpy as np
import pytest

from gatediscrim import _kernels, canonical, oracle
from gatediscrim.discrimination import (
    concurrence,
    construct_probe,
    error_probability,
    fidelity,
)
from gatediscrim.errors import DomainError
from gatediscrim.numerics import ID4

from conftest import (
    polygon_origin_distance,
    random_magic_diag,
    random_unitary,
    ref_product_scan,
)

PI = math.pi


def test_search_config_validation():
    oracle.SearchConfig()  # defaults are legal
    oracle.SearchConfig(grid_steps=np.int64(8), refinement_rounds=np.int32(0))
    bad = [{"grid_steps": 7}, {"refinement_rounds": -1}]
    for field in ("grid_steps", "refinement_rounds"):
        bad += [{field: x} for x in (math.nan, math.inf, 8.5)]
    for kwargs in bad:
        with pytest.raises(DomainError):
            oracle.SearchConfig(**kwargs)


def test_search_config_rejects_bool_counts():
    for field in ("grid_steps", "refinement_rounds"):
        for x in (True, False, np.bool_(True)):
            with pytest.raises(DomainError):
                oracle.SearchConfig(**{field: x})


def test_helstrom_rejects_bool_shots_and_bad_seeds():
    probe = construct_probe(np.zeros(4))
    for shots in (True, False, np.bool_(True)):
        with pytest.raises(DomainError, match="shots"):
            oracle.helstrom_simulate(ID4, ID4, probe, shots=shots)
    for seed in (-1, 1.5, 2.0, math.nan, True, None, "3"):
        with pytest.raises(DomainError, match="seed"):
            oracle.helstrom_simulate(ID4, ID4, probe, seed=seed)
    # numpy integers and large seeds stay legal
    for seed in (np.int64(3), 0, 2**70):
        oracle.helstrom_simulate(ID4, ID4, probe, shots=10, seed=seed)


def test_product_search_matches_analytic_examples():
    # default configuration must land within grid-refinement resolution
    val, probe = oracle.min_over_product_states(ID4, canonical.build_ud((PI / 8, 0, 0)))
    assert abs(val - math.cos(PI / 8)) <= 1e-4
    assert concurrence(probe.u) <= 1e-9

    cfg = oracle.SearchConfig(grid_steps=24, refinement_rounds=10)

    val, _ = oracle.min_over_product_states(
        ID4, canonical.build_ud((PI / 4, PI / 4, 0.0)), cfg
    )
    assert val <= 2e-3

    val, _ = oracle.min_over_product_states(ID4, ID4, cfg)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_product_search_matches_analytic_random(rng):
    cfg = oracle.SearchConfig(grid_steps=20, refinement_rounds=8)
    for _ in range(6):
        u1, _ = random_magic_diag(rng)
        u2, _ = random_magic_diag(rng)
        f, _ = fidelity(u1, u2)
        val, probe = oracle.min_over_product_states(u1, u2, cfg)
        assert abs(val - f) <= 2e-3
        assert val >= f - 2e-3  # search over a subset can never beat the bound


def test_product_search_deterministic():
    u2 = canonical.build_ud((0.6, 0.3, 0.1))
    cfg = oracle.SearchConfig(grid_steps=12, refinement_rounds=3)
    v1, p1 = oracle.min_over_product_states(ID4, u2, cfg)
    v2, p2 = oracle.min_over_product_states(ID4, u2, cfg)
    assert v1 == v2
    np.testing.assert_array_equal(p1.u, p2.u)


def test_product_search_monotone_in_rounds():
    u2 = canonical.build_ud((0.6, 0.3, 0.1))
    vals = [
        oracle.min_over_product_states(
            ID4, u2, oracle.SearchConfig(grid_steps=12, refinement_rounds=r)
        )[0]
        for r in (0, 2, 5)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_all_states_never_beats_product_for_diagonal_pairs(rng):
    cfg = oracle.SearchConfig(grid_steps=14, refinement_rounds=4)
    for _ in range(3):
        u1, _ = random_magic_diag(rng)
        u2, _ = random_magic_diag(rng)
        f, _ = fidelity(u1, u2)
        pv, _ = oracle.min_over_product_states(u1, u2, cfg)
        av, psi = oracle.min_over_all_states(u1, u2, cfg)
        assert av <= pv + 1e-9  # the exact optimum bounds every product probe
        # entanglement buys nothing for these pairs
        assert abs(av - f) <= 2e-3
        assert np.linalg.norm(psi) == pytest.approx(1.0)


def _reached(u1, u2, psi) -> float:
    return abs(psi.conj() @ u1.conj().T @ u2 @ psi)


def test_all_states_exact_on_haar_pairs(rng):
    cfg = oracle.SearchConfig(grid_steps=12, refinement_rounds=2)
    for _ in range(15):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        val, psi = oracle.min_over_all_states(u1, u2)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert _reached(u1, u2, psi) == pytest.approx(val, abs=1e-12)
        # distance from 0 to the eigenvalues' hull, by conftest's own projection
        lam = np.linalg.eigvals(u1.conj().T @ u2)
        assert val == pytest.approx(polygon_origin_distance(np.angle(lam)), abs=1e-12)
        assert val <= oracle.min_over_product_states(u1, u2, cfg)[0] + 1e-12


def test_all_states_equals_fidelity_on_magic_diagonal_pairs(rng):
    for _ in range(30):
        u1, _ = random_magic_diag(rng)
        u2, _ = random_magic_diag(rng)
        val, psi = oracle.min_over_all_states(u1, u2)
        assert abs(val - fidelity(u1, u2)[0]) <= 1e-9
        assert _reached(u1, u2, psi) == pytest.approx(val, abs=1e-12)


def test_all_states_degenerate_spectra(rng):
    cases = [
        (np.eye(4), 1.0),
        (np.diag([1, -1, 1, -1]), 0.0),  # 0 on a segment; every triangle collinear
        (np.diag([1, 1j, -1, -1j]), 0.0),
        (np.exp(0.7j) * np.eye(4), 1.0),
        # a triple eigenvalue: its tiny rounded triangle must not claim 0
        (np.diag(np.exp([0.3j, 0.3j, 0.3j, 1j])), math.cos(0.35)),
    ]
    for w, expect in cases:
        w = w.astype(complex)
        val, psi = oracle.min_over_all_states(ID4, w)
        assert val == pytest.approx(expect, abs=1e-15)
        assert _reached(ID4, w, psi) == pytest.approx(expect, abs=1e-15)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
        # the same spectrum in random eigenbases, which product probes miss;
        # many bases, as rounding gives the triple eigenvalue a triangle whose
        # vertex cross products misplace the origin in only about 1% of them
        for _ in range(500):
            v = random_unitary(rng)
            wv = v @ w @ v.conj().T
            val, psi = oracle.min_over_all_states(ID4, wv)
            assert val == pytest.approx(expect, abs=1e-12)
            assert _reached(ID4, wv, psi) == pytest.approx(expect, abs=1e-12)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_all_states_runs_no_search_and_draws_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact oracle must not search or sample")

    monkeypatch.setattr(_kernels, "product_scan", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    val, _ = oracle.min_over_all_states(ID4, canonical.build_ud((PI / 8, 0, 0)))
    assert val == pytest.approx(math.cos(PI / 8), abs=1e-12)


def test_helstrom_anchor_rate():
    u2 = canonical.build_ud((PI / 8, 0, 0))
    probe = construct_probe(fidelity(ID4, u2)[1])
    out = oracle.helstrom_simulate(ID4, u2, probe, p1=0.5, shots=100_000, seed=7)
    expect = 0.3086583
    assert abs(out.empirical_rate - expect) <= 5 * out.std_error
    assert out.errors == out.confusion[0][1] + out.confusion[1][0]
    assert sum(map(sum, out.confusion)) == out.shots


def test_helstrom_perfect_case_zero_errors():
    u2 = canonical.build_ud((PI / 4, PI / 4, 0.0))
    probe = construct_probe(fidelity(ID4, u2)[1])
    out = oracle.helstrom_simulate(ID4, u2, probe, shots=20_000, seed=1)
    assert out.errors == 0
    assert out.empirical_rate == 0.0


def test_helstrom_identical_gates_guess_prior():
    probe = construct_probe(np.zeros(4))
    out = oracle.helstrom_simulate(ID4, ID4, probe, p1=0.3, shots=50_000, seed=5)
    # indistinguishable gates: always guess the heavier prior
    assert abs(out.empirical_rate - 0.3) <= 5 * max(out.std_error, 1e-3)


def test_helstrom_deterministic_and_seeded():
    u2 = canonical.build_ud((0.4, 0.2, 0.0))
    probe = construct_probe(fidelity(ID4, u2)[1])
    a = oracle.helstrom_simulate(ID4, u2, probe, shots=5_000, seed=11)
    b = oracle.helstrom_simulate(ID4, u2, probe, shots=5_000, seed=11)
    assert a == b
    assert a.seed == 11


def test_helstrom_asymmetric_prior_beats_naive():
    u2 = canonical.build_ud((PI / 8, 0, 0))
    om = fidelity(ID4, u2)[1]
    probe = construct_probe(om)
    out = oracle.helstrom_simulate(ID4, u2, probe, p1=0.9, shots=100_000, seed=2)
    expect = error_probability(math.cos(PI / 8), 0.9, 0.1)
    assert abs(out.empirical_rate - expect) <= 5 * max(out.std_error, 1e-4)
    assert out.empirical_rate <= 0.1 + 5 * out.std_error


def test_helstrom_domain_errors():
    probe = construct_probe(np.zeros(4))
    for shots in (0, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            oracle.helstrom_simulate(ID4, ID4, probe, shots=shots)
    for p1 in (1.2, -0.1, math.nan):
        with pytest.raises(DomainError):
            oracle.helstrom_simulate(ID4, ID4, probe, p1=p1)


def test_helstrom_clamps_a_prior_rounded_past_one():
    # the same slack as discriminate: p1 = 1 + 1e-13 is the prior 1
    u2 = canonical.build_ud((PI / 8, 0, 0))
    probe = construct_probe(fidelity(ID4, u2)[1])
    got = oracle.helstrom_simulate(ID4, u2, probe, p1=1.0 + 1e-13, shots=1000, seed=3)
    assert got == oracle.helstrom_simulate(ID4, u2, probe, p1=1.0, shots=1000, seed=3)


def grid_overlap(w, axes, lin):
    # recompute |<ab|w|ab>| at a decoded grid index, independent of the kernel
    idx = []
    for n in reversed([len(a) for a in axes]):
        idx.append(lin % n)
        lin //= n
    i, j, k, l = reversed(idx)
    ta, pa, tb, pb = axes[0][i], axes[1][j], axes[2][k], axes[3][l]
    a = np.array([math.cos(0.5 * ta), math.sin(0.5 * ta) * np.exp(1j * pa)])
    b = np.array([math.cos(0.5 * tb), math.sin(0.5 * tb) * np.exp(1j * pb)])
    psi = np.kron(a, b)
    return abs(psi.conj() @ w @ psi)


def _grid_axes(n_theta_a, n_phi_a, n_theta_b, n_phi_b):
    return (
        np.linspace(0.0, PI, n_theta_a),
        np.linspace(0.0, 2 * PI, n_phi_a, endpoint=False),
        np.linspace(0.0, PI, n_theta_b),
        np.linspace(0.0, 2 * PI, n_phi_b, endpoint=False),
    )


def test_kernel_matches_brute_force(rng):
    # exchange-symmetric gates produce exact ties at swapped grid points, so
    # only the minimum value is pinned, not which tied index is returned
    gates = [canonical.build_ud((0.7, 0.4, 0.1))]
    gates += [random_magic_diag(rng)[0] for _ in range(3)]
    # 63 A-grid states fit in one block; 144 span two full blocks and a part
    for axes in (_grid_axes(7, 9, 7, 9), _grid_axes(9, 16, 5, 6)):
        size = math.prod(len(a) for a in axes)
        for u2 in gates:
            w = ID4.conj().T @ u2
            val, lin = _kernels.product_scan(w, *axes)
            assert grid_overlap(w, axes, lin) == pytest.approx(val, abs=1e-12)
            brute = min(grid_overlap(w, axes, n) for n in range(size))
            assert val == pytest.approx(brute, abs=1e-12)
        # every point ties at exactly 0: the lowest index wins across blocks
        assert _kernels.product_scan(np.zeros((4, 4)), *axes) == (0.0, 0)


def test_kernel_matches_reference_scan(rng):
    # the Bloch-form kernel against the complex outer-product scan it
    # replaced; symmetric near-ties may resolve to another grid point, so
    # the index is pinned through the value it decodes to
    cases = []
    for axes in (_grid_axes(7, 9, 7, 9), _grid_axes(9, 16, 5, 6)):
        cases += [(random_unitary(rng), axes) for _ in range(4)]
        cases += [(random_magic_diag(rng)[0], axes) for _ in range(4)]
    cases.append((random_unitary(rng), _grid_axes(32, 32, 32, 32)))
    cases.append((random_magic_diag(rng)[0], _grid_axes(32, 32, 32, 32)))
    for w, axes in cases:
        val, lin = _kernels.product_scan(w, *axes)
        assert isinstance(val, float) and isinstance(lin, int)
        assert abs(val - ref_product_scan(w, *axes)[0]) <= 1e-15
        assert abs(grid_overlap(w, axes, lin) - val) <= 1e-15
        i, j, k, l = np.unravel_index(lin, [len(a) for a in axes])
        # the theta = 0 rows repeat one state: the lowest phi index wins
        assert j == 0 or axes[0][i] != 0.0
        assert l == 0 or axes[2][k] != 0.0
    # diag(1, 0, 1, 1) gives 1 - cos^2(ta/2) sin^2(tb/2), which vanishes on
    # the whole (ta, tb) = (0, pi) pole pair, first in A and last in B;
    # diag(1, 1, 0, 1) gives 1 - sin^2(ta/2) cos^2(tb/2), zero at (pi, 0)
    for axes in (_grid_axes(7, 9, 7, 9), _grid_axes(9, 16, 5, 6)):
        n_ta, n_pa, n_tb, n_pb = (len(a) for a in axes)
        for d, first in (
            ([1.0, 0.0, 1.0, 1.0], (n_tb - 1) * n_pb),
            ([1.0, 1.0, 0.0, 1.0], (n_ta - 1) * n_pa * n_tb * n_pb),
        ):
            w = np.diag(d)
            assert _kernels.product_scan(w, *axes) == (0.0, first)
            val, lin = ref_product_scan(w, *axes)
            assert val <= 1e-15 and lin == first


def test_kernel_memory_stays_one_block():
    theta = np.linspace(0.0, PI, 48)
    phi = np.linspace(0.0, 2 * PI, 48, endpoint=False)
    w = canonical.build_ud((0.7, 0.4, 0.1))
    tracemalloc.start()
    try:
        _kernels.product_scan(w, theta, phi, theta, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full 48^4 grid of complex values would take 85 MB
    assert peak < 16 * 2**20


def test_helstrom_memory_independent_of_shots():
    u2 = canonical.build_ud((PI / 8, 0, 0))
    probe = construct_probe(fidelity(ID4, u2)[1])
    tracemalloc.start()
    try:
        out = oracle.helstrom_simulate(ID4, u2, probe, shots=10**7, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert sum(map(sum, out.confusion)) == out.shots == 10**7
    assert abs(out.empirical_rate - 0.3086583) <= 5 * out.std_error
