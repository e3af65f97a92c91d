import collections
import math
import tracemalloc

import numpy as np
import pytest

from gatediscrim import _kernels, canonical, geometry, oracle
from gatediscrim.discrimination import (
    concurrence,
    construct_probe,
    discriminate,
    error_probability,
)
from gatediscrim.errors import NotUnitaryError
from gatediscrim.numerics import ID4

from conftest import (
    SWAP,
    bob_minima,
    dressed_gate,
    polygon_origin_distance,
    random_magic_diag,
    random_unitary,
    ref_bloch_scan,
    ref_product_scan,
)
from test_contract import keeps

PI = math.pi


def test_search_config_rejects_bool_counts():
    for kind in ("count from 8", "count from 0"):  # grid_steps, refinement_rounds
        keeps(oracle.SearchConfig, kind, True, False, np.bool_(True))


def test_helstrom_rejects_a_probe_that_is_no_probe_state():
    keeps(oracle.helstrom_simulate, "probe")


def test_product_search_takes_none_or_a_search_config():
    u2 = canonical.build_ud((PI / 8, 0, 0))
    assert oracle.min_over_product_states(ID4, u2, None)[0] == (
        oracle.min_over_product_states(ID4, u2, oracle.SearchConfig())[0]
    )
    # a falsy value is no request for the default; the exact search, which
    # has nothing to tune, takes the same values
    keeps(oracle.min_over_product_states, "search config")
    keeps(oracle.min_over_all_states, "search config")


def test_product_search_matches_analytic_examples():
    val, probe = oracle.min_over_product_states(ID4, canonical.build_ud((PI / 8, 0, 0)))
    # every Alice state ties, so the coarse scan already sits on the floor
    assert abs(val - math.cos(PI / 8)) <= 1e-15
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
        f = discriminate(u1, u2).fidelity
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


def _gap_pair():
    # Haar pair 3 of seed 202, outside the paper's class, with a
    # product-vs-global gap of 0.1, as the single gate W turned by R x I
    # with R|0> = Alice's winning factor: the coarse winner then sits at the
    # theta = 0 pole (linear index 0) and no round reaches the floor
    draw = np.random.default_rng(202)
    for _ in range(4):
        u1, u2 = random_unitary(draw), random_unitary(draw)
    a0, a1 = oracle.min_over_product_states(u1, u2)[1].local_a
    r = np.kron(np.array([[a0, -np.conj(a1)], [a1, np.conj(a0)]]), np.eye(2))
    return r.conj().T @ u1.conj().T @ u2 @ r


def _record_scans(monkeypatch) -> list:
    """The theta axes of every later `alice_scan` call, in call order."""
    seen = []
    scan = _kernels.alice_scan

    def recording(w, theta, phi):
        seen.append(np.array(theta))
        return scan(w, theta, phi)

    monkeypatch.setattr(_kernels, "alice_scan", recording)
    return seen


def test_product_search_monotone_in_rounds(monkeypatch):
    w = _gap_pair()
    seen = _record_scans(monkeypatch)
    vals = []
    for r in (0, 2, 5):
        seen.clear()
        cfg = oracle.SearchConfig(grid_steps=12, refinement_rounds=r)
        vals.append(oracle.min_over_product_states(ID4, w, cfg)[0])
        assert len(seen) == 1 + r  # the gap keeps every round running
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[2] >= oracle.min_over_all_states(ID4, w)[0] + 0.1


def test_all_states_never_beats_product_for_diagonal_pairs(rng):
    cfg = oracle.SearchConfig(grid_steps=14, refinement_rounds=4)
    for _ in range(3):
        u1, _ = random_magic_diag(rng)
        u2, _ = random_magic_diag(rng)
        f = discriminate(u1, u2).fidelity
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
        assert abs(val - discriminate(u1, u2).fidelity) <= 1e-9
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


def test_all_states_keeps_a_tiny_triangle_outside():
    # eig puts three eigenvalues within 1.1e-15 of 1 and 3.7e-224 apart;
    # the products of their barycentric weights and area underflow to 0
    u1 = canonical.from_magic_phases(np.zeros(4))
    u2 = canonical.from_magic_phases([0.0, 7.324809469923222e-224, 0.0, 0.5])
    value, psi = oracle.min_over_all_states(u1, u2)
    assert abs(value - math.cos(0.25)) <= 1e-15
    assert np.isfinite(psi).all()
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-15


def test_all_states_runs_no_search_and_draws_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact oracle must not search or sample")

    monkeypatch.setattr(_kernels, "product_scan", forbidden)
    monkeypatch.setattr(_kernels, "alice_scan", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    val, _ = oracle.min_over_all_states(ID4, canonical.build_ud((PI / 8, 0, 0)))
    assert val == pytest.approx(math.cos(PI / 8), abs=1e-12)


def test_helstrom_anchor_rate():
    u2 = canonical.build_ud((PI / 8, 0, 0))
    probe = discriminate(ID4, u2).probe
    out = oracle.helstrom_simulate(ID4, u2, probe, p1=0.5, shots=100_000, seed=7)
    expect = 0.3086583
    assert abs(out.empirical_rate - expect) <= 5 * out.std_error
    assert out.errors == out.confusion[0][1] + out.confusion[1][0]
    assert sum(map(sum, out.confusion)) == out.shots


def test_helstrom_perfect_case_zero_errors():
    u2 = canonical.build_ud((PI / 4, PI / 4, 0.0))
    probe = discriminate(ID4, u2).probe
    out = oracle.helstrom_simulate(ID4, u2, probe, shots=20_000, seed=1)
    assert out.errors == 0
    assert out.empirical_rate == 0.0


def test_helstrom_identical_gates_guess_prior():
    probe = construct_probe(np.zeros(4))
    out = oracle.helstrom_simulate(ID4, ID4, probe, p1=0.3, shots=50_000, seed=5)
    # indistinguishable gates: always guess the heavier prior
    assert abs(out.empirical_rate - 0.3) <= 5 * max(out.std_error, 1e-3)


def test_helstrom_equal_outputs_at_equal_priors_guess_the_first_gate():
    # the outputs overlap exactly and Gamma = 0: its 0 eigenvalue counts
    # toward the first gate, so no shot is guessed as the second
    probe = construct_probe([0.0, PI, 0.0, 0.0])
    assert abs(np.vdot(probe.psi_computational, probe.psi_computational)) == 1.0
    out = oracle.helstrom_simulate(ID4, ID4, probe, p1=0.5, shots=10_000, seed=5)
    (c11, c12), (c21, c22) = out.confusion
    assert c12 == c22 == 0 and c11 + c21 == 10_000 and 0 < c21 < 10_000


def test_helstrom_deterministic_and_seeded():
    u2 = canonical.build_ud((0.4, 0.2, 0.0))
    probe = discriminate(ID4, u2).probe
    a = oracle.helstrom_simulate(ID4, u2, probe, shots=5_000, seed=11)
    b = oracle.helstrom_simulate(ID4, u2, probe, shots=5_000, seed=11)
    assert a == b
    assert a.seed == 11


def test_helstrom_asymmetric_prior_beats_naive():
    u2 = canonical.build_ud((PI / 8, 0, 0))
    probe = discriminate(ID4, u2).probe
    out = oracle.helstrom_simulate(ID4, u2, probe, p1=0.9, shots=100_000, seed=2)
    expect = error_probability(math.cos(PI / 8), 0.9, 0.1)
    assert abs(out.empirical_rate - expect) <= 5 * max(out.std_error, 1e-4)
    assert out.empirical_rate <= 0.1 + 5 * out.std_error


def test_helstrom_clamps_a_prior_rounded_past_one():
    # the same slack as discriminate: p1 = 1 + 1e-13 is the prior 1
    u2 = canonical.build_ud((PI / 8, 0, 0))
    probe = discriminate(ID4, u2).probe
    got = oracle.helstrom_simulate(ID4, u2, probe, p1=1.0 + 1e-13, shots=1000, seed=3)
    assert got == oracle.helstrom_simulate(ID4, u2, probe, p1=1.0, shots=1000, seed=3)


def _eigh_rates(out1, out2, p1):
    """(q1, q2), the rates at which each output is guessed as the first
    gate's: the Helstrom projector from a 2 x 2 eigh on the outputs' span,
    a 0 eigenvalue counting toward the first gate."""
    c = complex(np.vdot(out1, out2))
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([c, np.linalg.norm(out2 - c * out1)], dtype=complex)
    gamma = p1 * np.outer(v1, v1.conj()) - (1.0 - p1) * np.outer(v2, v2.conj())
    lam, vecs = np.linalg.eigh(gamma)
    keep = vecs[:, lam >= 0.0]
    proj = keep @ keep.conj().T
    return [float((v.conj() @ proj @ v).real) for v in (v1, v2)]


def test_helstrom_confusion_rows_match_the_projector(rng):
    # at 1e12 shots each row's rate is pinned to about 1e-6; rows with no
    # shots (p1 in {0, 1}) say nothing and are skipped
    shots = 10**12
    priors = [0.5] * 20 + list(rng.uniform(0.0, 1.0, 20)) + [0.0, 1.0] * 5
    for k, p1 in enumerate(priors):
        u1, _ = random_magic_diag(rng)
        u2, _ = random_magic_diag(rng)
        probe = construct_probe(rng.uniform(-PI, PI, 4))
        psi = probe.psi_computational
        want = _eigh_rates(u1 @ psi, u2 @ psi, p1)
        out = oracle.helstrom_simulate(u1, u2, probe, p1=p1, shots=shots, seed=k)
        for row, q in zip(out.confusion, want):
            n = sum(row)
            if n:
                sigma = math.sqrt(q * (1.0 - q) / n)
                assert abs(row[0] / n - q) <= 6.0 * sigma + 1e-12, (k, p1, row, q)


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
        # NaN in w scores no grid point
        w_with_nan = np.eye(4)
        w_with_nan[1, 2] = math.nan
        assert _kernels.product_scan(w_with_nan, *axes) == (math.inf, 0)


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


def test_kernel_matches_bloch_scan(rng):
    # the kernel against the reference Bloch-form scan: every grid state is
    # scored with the same arithmetic, only the blocks differ, so the index
    # agrees exactly, rounding-level near-ties and exact ties included
    gates = [
        random_unitary(rng),
        random_magic_diag(rng)[0],
        dressed_gate(rng, (0.7, 0.4, 0.1)),
        # at 32^4 identity, SWAP, U_d(pi/8, 0, 0) and zero reach the minimum
        # in all 1024 A rows; the rest in 64 or 32 rows
        ID4,
        SWAP,
        canonical.build_ud((PI / 8, 0, 0)),
        canonical.build_ud((PI / 4, PI / 4, 0)),
        np.diag([1.0, 0.0, 1.0, 1.0]),
        np.diag([1.0, 1.0, 0.0, 1.0]),
        np.zeros((4, 4)),
    ]
    # a refinement window at the theta = 0 and pi poles: clipping repeats
    # states, so whole rows and columns tie exactly
    center, h = np.array([0.05, 1.0, 3.1, 5.0]), np.array([0.2, 0.3, 0.1, 0.4])
    window = center[:, None] + h[:, None] * np.linspace(-1.0, 1.0, 9)
    np.clip(window[::2], 0.0, PI, out=window[::2])
    grids = [
        _grid_axes(32, 32, 32, 32),
        # partial blocks: 63 and 144 A rows
        _grid_axes(7, 9, 7, 9),
        _grid_axes(9, 16, 5, 6),
        # 4096 B states, 8 rows a block; 20480 B states, one row a block
        _grid_axes(3, 5, 64, 64),
        _grid_axes(3, 5, 128, 160),
        tuple(window),
    ]
    for axes in grids:
        for w in gates:
            val, lin = _kernels.product_scan(w, *axes)
            ref_val, ref_lin = ref_bloch_scan(w, *axes)
            assert isinstance(val, float) and isinstance(lin, int)
            assert lin == ref_lin
            assert abs(val - ref_val) <= 1e-15


def test_kernel_memory_bounded_by_block_states():
    # 9216 states in each B row, so a block is 3 A rows; a 64-row block of
    # real and imaginary parts alone would take 9.4 MB
    axes = _grid_axes(8, 8, 96, 96)
    w = canonical.build_ud((0.7, 0.4, 0.1))
    tracemalloc.start()
    try:
        _kernels.product_scan(w, *axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_helstrom_memory_independent_of_shots():
    u2 = canonical.build_ud((PI / 8, 0, 0))
    probe = discriminate(ID4, u2).probe
    tracemalloc.start()
    try:
        out = oracle.helstrom_simulate(ID4, u2, probe, shots=10**7, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert sum(map(sum, out.confusion)) == out.shots == 10**7
    assert abs(out.empirical_rate - 0.3086583) <= 5 * out.std_error
    # the largest count numpy's binomial takes still runs
    most = 2**63 - 1
    assert oracle.helstrom_simulate(ID4, u2, probe, shots=most).shots == most


# --- the 2-D scan: Alice's grid, Bob's side exact ----------------------------

_SIGMAS = (
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
)


def _ket(theta, phi):
    return np.array([math.cos(0.5 * theta), math.sin(0.5 * theta) * np.exp(1j * phi)])


def _bob_affine(w, theta, phi):
    # <a x b| w |a x b> = tr(w_a rho_b) = p + m . n_b with w_a = <a| w |a>
    # on Alice's factor; built from w directly, without the kernel's form
    a = _ket(theta, phi)
    w_a = np.einsum("i,ijkl,k->jl", a.conj(), np.asarray(w).reshape(2, 2, 2, 2), a)
    return 0.5 * np.trace(w_a), np.array([0.5 * np.trace(w_a @ s) for s in _SIGMAS])


def _row_gates(rng):
    return {
        "identity": ID4,  # M = 0 in every row
        "swap": SWAP,  # rank-1 M in every row: the segment case
        "ud_pi4_pi4": canonical.build_ud((PI / 4, PI / 4, 0.0)),  # the origin reached
        "ud_pi8": canonical.build_ud((PI / 8, 0.0, 0.0)),
        "dressed": dressed_gate(rng, (0.7, 0.4, 0.1)),
        "haar": random_unitary(rng),
    }


def test_bob_minima_rows_against_the_bloch_grid(rng):
    # each Alice row's exact value against ref_bloch_scan over that row's
    # B grid: never above it, and below it by at most the Lipschitz constant
    # sqrt(s_1) = ||M||_2 of n_b -> |p + M n_b| times the grid's covering
    # radius; Bob's response built from each row reaches the row's value
    ta = np.linspace(0.0, PI, 7)
    pa = np.linspace(0.0, 2 * PI, 9, endpoint=False)
    tb = np.linspace(0.0, PI, 16)
    pb = np.linspace(0.0, 2 * PI, 16, endpoint=False)
    # a point is within half a step of a grid point along each angle, and
    # the chord is at most the path along the meridian and then the parallel
    radius = 0.5 * (tb[1] - tb[0]) + 0.5 * (pb[1] - pb[0])
    for name, w in _row_gates(rng).items():
        xy = _kernels._response_form(w) @ _kernels._bloch_rows(ta, pa).T
        vals, mu = bob_minima(xy)
        assert vals.shape == mu.shape == (63,)
        for k, (t, f) in enumerate((t, f) for t in ta for f in pa):
            grid_min, _ = ref_bloch_scan(w, [t], [f], tb, pb)
            p, m = _bob_affine(w, t, f)
            lipschitz = np.linalg.norm(np.stack([m.real, m.imag]), 2)
            assert vals[k] <= grid_min + 1e-15, (name, k)
            assert vals[k] >= grid_min - lipschitz * radius - 1e-15, (name, k)
            n = _kernels._bob_vector(xy[:, k], mu[k])
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-15
            assert abs(abs(p + m @ n) - vals[k]) <= 1e-12, (name, k)
        if name == "identity":
            assert np.all(vals == 1.0)
        if name == "ud_pi4_pi4":
            assert vals.min() <= 1e-15


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def test_bob_minima_keep_thin_ellipses(rng):
    # M = R2 diag(s1, s2) R3^T with s2 / s1 down to 1e-18.  With -p on the
    # minor axis, outside, the nearest point is the minor vertex, so the
    # value is |p| - s2 exactly; s2 taken as the difference of two
    # eigenvalue-sized numbers would lose it entirely.  With -p strictly
    # inside the value is 0.  Bob's vector reaches the value in both
    cols, expect = [], []
    for k in range(600):
        s1 = rng.uniform(0.3, 1.0)
        s2 = s1 * 10.0 ** rng.uniform(-18, -4)
        r2, r3 = _rotation(rng, 2), _rotation(rng, 3)
        m = r2 @ np.array([[s1, 0.0, 0.0], [0.0, s2, 0.0]]) @ r3.T
        if k % 2:
            gap = 10.0 ** rng.uniform(-3, -0.5)
            p = r2 @ np.array([0.0, rng.choice([-1.0, 1.0]) * (s2 + gap)])
        else:
            t, u = rng.uniform(-1.0, 1.0, 2) / math.sqrt(2.0)
            p, gap = r2 @ np.array([t * s1, u * s2]), 0.0
        cols.append([p[0], *m[0], *m[0, :2], p[1], *m[1], *m[1, :2]])
        expect.append(gap)
    xy = np.array(cols).T
    vals, mu = bob_minima(xy)
    np.testing.assert_allclose(vals, expect, rtol=0.0, atol=1e-14)
    for k in range(xy.shape[1]):
        _assert_bob_vector_reaches(xy[:, k], vals[k], mu[k])
    # -p outside, off both axes, solved one column at a time: in a batch the
    # other columns keep Newton running past a stop that came too early.  A
    # realized point is never nearer than the ellipse, and a value short of
    # the root is below it, so agreeing pins both to the distance
    for _ in range(2000):
        s1 = rng.uniform(0.3, 1.0)
        s2 = s1 * 10.0 ** rng.uniform(-15, -4)
        r2, r3 = _rotation(rng, 2), _rotation(rng, 3)
        m = r2 @ np.array([[s1, 0.0, 0.0], [0.0, s2, 0.0]]) @ r3.T
        t = rng.uniform(0.0, 2.0 * PI)
        rho = 1.0 + 10.0 ** rng.uniform(-3, 0)
        p = r2 @ (rho * np.array([s1 * math.cos(t), s2 * math.sin(t)]))
        col = np.array([p[0], *m[0], *m[0, :2], p[1], *m[1], *m[1, :2]])
        (val,), (mu,) = bob_minima(col[:, None])
        _assert_bob_vector_reaches(col, val, mu)


def _assert_bob_vector_reaches(col, val, mu):
    n = _kernels._bob_vector(col, mu)
    z = complex(col[0], col[6]) + complex(col[1:4] @ n, col[7:10] @ n)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-15
    assert abs(abs(z) - val) <= 1e-14


def test_bob_vector_when_the_map_squares_to_zero():
    # W = I up to a phase of 1e-200: M's entries are near 1e-201, so M M^T
    # underflows to 0 while the SVD's sigma_1 does not; every n_b gives |p|
    w = canonical.from_magic_phases([0.0, 1e-200, 0.0, 0.0])
    xy = _kernels._response_form(w) @ _kernels._bloch_rows(
        np.linspace(0.0, PI, 5), np.linspace(0.0, 2 * PI, 6, endpoint=False)
    ).T
    assert 0.0 < np.abs(xy[[1, 2, 3, 7, 8, 9]]).max() < 1e-200
    vals, mu = bob_minima(xy)
    for k in range(xy.shape[1]):
        _assert_bob_vector_reaches(xy[:, k], vals[k], mu[k])


def test_alice_scan_never_above_the_4d_grid(rng):
    # on the same Alice axes the 2-D scan's value is at most the 4-D scan's
    theta = np.linspace(0.0, PI, 32)
    phi = np.linspace(0.0, 2 * PI, 32, endpoint=False)
    for w in _row_gates(rng).values():
        val, angles, n_b = _kernels.alice_scan(w, theta, phi)
        assert val <= _kernels.product_scan(w, theta, phi, theta, phi)[0] + 1e-15
        # the angles are a grid state whose exact value is the one returned,
        # and Bob's vector reaches it
        assert angles[0] in theta and angles[1] in phi
        vals, _ = bob_minima(
            _kernels._response_form(w) @ _kernels._bloch_rows(angles[:1], angles[1:]).T
        )
        assert vals[0] == val
        p, m = _bob_affine(w, *angles)
        assert abs(np.linalg.norm(n_b) - 1.0) <= 1e-15
        assert abs(abs(p + m @ n_b) - val) <= 1e-12


def test_alice_scan_blocks_keep_the_lowest_index(rng, monkeypatch):
    # any block size gives the first minimum of the full per-row array:
    # U_d(pi/8, 0, 0) ties every row at cos(pi/8) (a segment that never
    # reaches the origin), identity at exactly 1 and zero at exactly 0
    theta = np.linspace(0.0, PI, 11)
    phi = np.linspace(0.0, 2 * PI, 13, endpoint=False)
    gates = [canonical.build_ud((PI / 8, 0.0, 0.0)), ID4, np.zeros((4, 4))]
    gates += [random_unitary(rng), random_magic_diag(rng)[0], SWAP]
    for w in gates:
        vals, mus = bob_minima(
            _kernels._response_form(w) @ _kernels._bloch_rows(theta, phi).T
        )
        first = int(np.argmin(vals))
        for block in (1, 13, 20, 40, 2**10):
            monkeypatch.setattr(_kernels, "_ALICE_BLOCK", block)
            _assert_scan_returns(w, theta, phi, float(vals[first]), first, mus[first])
    for w, val in ((ID4, 1.0), (np.zeros((4, 4)), 0.0)):
        got = _kernels.alice_scan(w, theta, phi)
        assert (got[0], got[1].tolist()) == (val, [0.0, 0.0])


def _assert_scan_returns(w, theta, phi, val, lin, mu):
    """`alice_scan` returns val, the angles of the grid state at row-major
    index lin, and Bob's vector built from them and the root mu as the
    scan builds it."""
    i, j = divmod(lin, len(phi))
    angles = np.array([theta[i], phi[j]])
    xy = _kernels._response_form(w) @ _kernels._bloch_rows(angles[:1], angles[1:])[0]
    got = _kernels.alice_scan(w, theta, phi)
    assert got[0] == val
    assert got[1].tolist() == angles.tolist()
    assert got[2].tolist() == _kernels._bob_vector(xy, mu).tolist()


def _scan_matches_blocks(w, theta, phi):
    """`_scan_by_blocks`' (value, index, mu), which `alice_scan` is seen to
    return as value, angles and Bob vector."""
    ref = _scan_by_blocks(w, theta, phi)
    _assert_scan_returns(w, theta, phi, *ref)
    return ref


def _scan_by_blocks(w, theta, phi):
    # alice_scan with Newton on every block: `bob_minima` per block, the
    # strict-improvement argmin kept across blocks
    form = _kernels._response_form(w)
    per_block = max(1, _kernels._ALICE_BLOCK // len(phi))
    best = (math.inf, 0, 0.0)
    for start in range(0, len(theta), per_block):
        rows = _kernels._bloch_rows(theta[start : start + per_block], phi)
        vals, mu = bob_minima(form @ rows.T)
        k = int(vals.argmin())
        if vals[k] < best[0]:
            best = (float(vals[k]), start * len(phi) + k, float(mu[k]))
    return best


def _rim_gates():
    # W = w00 + w11 on Alice's |0>, |1>: at theta = 0, -p lies on the rim of
    # Bob's ellipse (semi-axes 1 and 1/2), at theta = pi the origin is its
    # center.  Where rounding calls the rim point outside, Newton can leave
    # it at exactly 0, ahead of the first column that is inside
    x, y = _SIGMAS[:2]
    for t in np.linspace(0.01, 3.1, 1000):
        w = np.zeros((4, 4), dtype=complex)
        w[:2, :2] = x + 0.5j * y - complex(math.cos(t), 0.5 * math.sin(t)) * np.eye(2)
        w[2:, 2:] = x + 1j * y
        yield w


def test_alice_scan_stops_at_the_first_zero_exactly(rng):
    # the scan that skips Newton once a block holds an exact zero returns
    # what Newton on every block returns: value, state and Bob vector alike
    draw = np.random.default_rng(2020)
    gates = list(_row_gates(rng).values())
    for _ in range(20):
        gates.append(random_magic_diag(rng)[0])
        gates.append(random_unitary(rng))
        a = draw.normal(size=(4, 4)) + 1j * draw.normal(size=(4, 4))
        lam, v = np.linalg.eigh(a + a.conj().T)
        eps = 10.0 ** draw.uniform(-8, -2)
        gates.append(SWAP @ (v * np.exp(1j * eps * lam)) @ v.conj().T)
    late = 0
    for steps in (32, 100):
        theta = np.linspace(0.0, PI, steps)
        phi = np.linspace(0.0, 2 * PI, steps, endpoint=False)
        for w in gates:
            ref = _scan_matches_blocks(w, theta, phi)
            first_block = _kernels._ALICE_BLOCK // steps * steps
            late += ref[0] == 0.0 and ref[1] >= first_block
    assert late >= 3  # first zeros after the 100^2 grid's first block
    # a rim column that Newton leaves at 0 comes before the first inside one
    theta = np.linspace(0.0, PI, 32)
    phi = np.linspace(0.0, 2 * PI, 32, endpoint=False)
    newton_zeros = 0
    for w in _rim_gates():
        ref = _scan_matches_blocks(w, theta, phi)
        xy = _kernels._response_form(w) @ _kernels._bloch_rows(theta, phi).T
        first_set_up = int(np.argmin(_kernels._bob_setup(xy)[0]))
        newton_zeros += ref[0] == 0.0 and ref[1] < first_set_up
    assert newton_zeros >= 5


def test_bob_minima_keep_mu_at_least_zero_on_the_rim():
    # -p on the rims of random ellipses, c = U diag(s) (cos t, sin t): about
    # 45% of the columns are outside by rounding, and where S(0) rounds just
    # below 1 Newton's first step goes below 0.  mu stays >= 0, and Bob's
    # vector reaches each value, which is at rounding level
    draw = np.random.default_rng(53)
    cols = []
    for _ in range(8000):
        s1 = draw.uniform(0.3, 1.0)
        s2 = s1 * 10.0 ** draw.uniform(-3, 0)
        r2, r3 = _rotation(draw, 2), _rotation(draw, 3)
        m = r2 @ np.array([[s1, 0.0, 0.0], [0.0, s2, 0.0]]) @ r3.T
        t = draw.uniform(0.0, 2.0 * PI)
        p = -(r2 @ np.array([s1 * math.cos(t), s2 * math.sin(t)]))
        cols.append([p[0], *m[0], *m[0, :2], p[1], *m[1], *m[1, :2]])
    xy = np.array(cols).T
    outside = _kernels._bob_setup(xy)[3][0]
    vals, mu = bob_minima(xy)
    assert outside.sum() >= 2000
    assert mu.min() >= 0.0
    assert vals.max() <= 1e-15
    for k in np.flatnonzero(outside):
        _assert_bob_vector_reaches(xy[:, k], vals[k], mu[k])
    # on another grid than above, the scan that skips Newton after a zero
    # still returns what Newton on every block returns
    theta = np.linspace(0.0, PI, 40)
    phi = np.linspace(0.0, 2 * PI, 24, endpoint=False)
    for w in _rim_gates():
        ref = _scan_matches_blocks(w, theta, phi)
        assert ref[2] >= 0.0


def _log_scan_work(monkeypatch) -> list:
    """Per later `_bob_setup` call, whether its block holds a zero without
    Newton; per `_newton` call, "newton"."""
    log = []
    setup, newton = _kernels._bob_setup, _kernels._newton

    def logged_setup(xy):
        out = setup(xy)
        log.append("zero" if (out[0] == 0.0).any() else "outside")
        return out

    def logged_newton(*args):
        log.append("newton")
        return newton(*args)

    monkeypatch.setattr(_kernels, "_bob_setup", logged_setup)
    monkeypatch.setattr(_kernels, "_newton", logged_newton)
    return log


def test_alice_scan_skips_newton_after_a_zero(monkeypatch):
    # 100^2 grid, blocks of 10 theta rows.  The origin is inside the hull of
    # (0, 1, 2, 4): the first block has no zero and runs Newton, the second
    # has one and runs none, and no later block is set up.  The origin is
    # outside the hull of (0, 0.3, 0.6, 0.9): all ten blocks run Newton
    theta = np.linspace(0.0, PI, 100)
    phi = np.linspace(0.0, 2 * PI, 100, endpoint=False)
    log = _log_scan_work(monkeypatch)
    w = canonical.from_magic_phases(np.array([0.0, 1.0, 2.0, 4.0]))
    val, angles, _ = _kernels.alice_scan(w, theta, phi)
    assert (val, angles.tolist()) == (0.0, [theta[12], phi[0]])
    assert log == ["outside", "newton", "zero"]
    log.clear()
    w = canonical.from_magic_phases(np.array([0.0, 0.3, 0.6, 0.9]))
    assert _kernels.alice_scan(w, theta, phi)[0] > 0.9
    assert log == ["outside", "newton"] * 10
    # one theta row per block: a rim row that Newton leaves at 0 ends the scan
    monkeypatch.setattr(_kernels, "_ALICE_BLOCK", 32)
    theta = np.linspace(0.0, PI, 32)
    phi = np.linspace(0.0, 2 * PI, 32, endpoint=False)
    for w in _rim_gates():
        log.clear()
        val, angles, _ = _kernels.alice_scan(w, theta, phi)
        if (val, angles.tolist()) == (0.0, [0.0, 0.0]) and log[0] == "outside":
            break
    assert log == ["outside", "newton"]


def test_product_oracle_exact_on_criterion_2_pairs(rng):
    # criterion 2's 200 pairs (seed 202, default config): the product value
    # is the fidelity; there and on Haar pairs the returned product probe
    # reaches the returned value
    draw = np.random.default_rng(202)
    pairs = []
    for _ in range(200):
        u1 = canonical.from_magic_phases(draw.uniform(-PI, PI, 4))
        u2 = canonical.from_magic_phases(draw.uniform(-PI, PI, 4))
        pv, probe = oracle.min_over_product_states(u1, u2)
        assert abs(pv - discriminate(u1, u2).fidelity) <= 1e-12
        pairs.append((u1, u2, pv, probe))
    for _ in range(30):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        pv, probe = oracle.min_over_product_states(u1, u2)
        assert pv >= oracle.min_over_all_states(u1, u2)[0] - 1e-12
        pairs.append((u1, u2, pv, probe))
    for u1, u2, pv, probe in pairs:
        psi = probe.psi_computational
        assert abs(_reached(u1, u2, psi) - pv) <= 1e-12
        # the value is the returned probe's own overlap, bit for bit
        assert pv == abs(psi.conj() @ (u1.conj().T @ u2) @ psi)
        assert probe.concurrence <= 1e-12
        assert concurrence(probe.u) <= 1e-12
        _assert_factors_give_ket(probe)
    # the closed-form probes of criterion 7's origin-inside draw carry their
    # factors too
    draw = np.random.default_rng(707)
    inside = [om for om in draw.uniform(-PI, PI, (400, 4))
              if geometry.hull_of_phases(-om).origin_inside]
    assert len(inside) >= 100
    for om in inside:
        _assert_factors_give_ket(construct_probe(om))


def test_product_oracle_returns_its_best_scan_near_swap(monkeypatch):
    # W = SWAP e^{i eps H}: near SWAP the winning Bob maps are thin ellipses
    # with -p near a vertex, where Newton's root climbs by about half itself
    # per step.  The returned value is the probe's own overlap, so a Bob
    # vector built from a root stopped short lands above the scanned value
    draw = np.random.default_rng(2020)
    scanned = []
    scan = _kernels.alice_scan

    def recording_scan(w, theta, phi):
        out = scan(w, theta, phi)
        scanned.append(out[0])
        return out

    monkeypatch.setattr(_kernels, "alice_scan", recording_scan)
    for _ in range(300):
        a = draw.normal(size=(4, 4)) + 1j * draw.normal(size=(4, 4))
        eps = 10.0 ** draw.uniform(-8, -2)
        lam, v = np.linalg.eigh(a + a.conj().T)
        w = SWAP @ (v * np.exp(1j * eps * lam)) @ v.conj().T
        scanned.clear()
        val, _ = oracle.min_over_product_states(ID4, w)
        assert val <= min(scanned) + 1e-12


def _assert_factors_give_ket(probe):
    np.testing.assert_allclose(
        np.kron(probe.local_a, probe.local_b), probe.psi_computational,
        rtol=0, atol=1e-12,
    )


def test_product_search_memory_bounded_in_grid_steps():
    # Alice's rows are built block by block: 16x the rows, about the same peak
    w2 = canonical.build_ud((0.7, 0.4, 0.1))
    peaks = []
    for g in (128, 512):
        tracemalloc.start()
        try:
            oracle.min_over_product_states(ID4, w2, oracle.SearchConfig(grid_steps=g))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_product_search_windows_stay_on_the_sphere(monkeypatch):
    # the gap pair's winner stays at the theta = 0 pole, so each window's
    # thetas are clipped there
    w = _gap_pair()
    seen = _record_scans(monkeypatch)
    cfg = oracle.SearchConfig(grid_steps=12, refinement_rounds=3)
    oracle.min_over_product_states(ID4, w, cfg)
    assert len(seen) == 4
    for theta in seen[1:]:
        assert theta.min() == 0.0 and theta.max() <= PI
        assert np.all(np.diff(theta) >= 0.0)


def _full_refinement(w, cfg) -> list:
    # the search without its early stop, every round run: the incumbent's
    # value after the coarse scan and after each round
    theta = np.linspace(0.0, PI, cfg.grid_steps)
    phi = np.linspace(0.0, 2 * PI, cfg.grid_steps, endpoint=False)
    val, center, _ = _kernels.alice_scan(w, theta, phi)
    spacing = np.array([PI / (cfg.grid_steps - 1), 2 * PI / cfg.grid_steps])
    steps = np.linspace(-1.0, 1.0, 9)
    vals = [val]
    for r in range(cfg.refinement_rounds):
        window = center[:, None] + (spacing * oracle.SHRINK_FACTOR**r)[:, None] * steps
        window[0] = np.clip(window[0], 0.0, PI)
        v2, angles, _ = _kernels.alice_scan(w, *window)
        if v2 < val:
            val, center = v2, angles
        vals.append(val)
    return vals


def test_product_search_early_stop_keeps_the_full_answer(rng, monkeypatch):
    # criterion 2's 200 pairs and 30 Haar pairs: stopping at the all-states
    # floor gives the full search's value, and skips exactly the rounds
    # after the incumbent first reaches the floor
    cfg = oracle.SearchConfig()
    slack = oracle._FLOOR_SLACK
    draw = np.random.default_rng(202)
    pairs = []
    for _ in range(200):
        u1 = canonical.from_magic_phases(draw.uniform(-PI, PI, 4))
        u2 = canonical.from_magic_phases(draw.uniform(-PI, PI, 4))
        pairs.append((u1, u2, discriminate(u1, u2).fidelity))
    pairs += [(random_unitary(rng), random_unitary(rng), None) for _ in range(30)]
    seen = _record_scans(monkeypatch)
    kinds = collections.Counter()
    for u1, u2, f in pairs:
        w = u1.conj().T @ u2
        vals = _full_refinement(w, cfg)
        floor = oracle._range_min(np.linalg.eigvals(w).tolist())[0]
        seen.clear()
        val, _ = oracle.min_over_product_states(u1, u2, cfg)
        assert abs(val - vals[-1]) <= 1e-15
        assert val >= floor - slack
        reached = [v <= floor + slack for v in vals[:-1]]
        assert len(seen) == 1 + (reached.index(True) if any(reached) else len(reached))
        if f is None:
            gap = vals[-1] > floor + slack
            kinds["gap" if gap else "Haar, no gap"] += 1
            assert len(seen) == (1 + cfg.refinement_rounds if gap else 1)
        else:
            # a coarse 0 needs no round; the paper's class needs one at most
            hit = f == vals[0] == 0.0
            kinds["F = 0, coarse 0" if hit else "paper class"] += 1
            assert len(seen) <= (1 if hit else 2)
    assert min(kinds.values()) >= 1 and len(kinds) == 4, kinds


def test_product_search_checks_gates_before_scanning(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a gate must be checked before any scan")

    monkeypatch.setattr(_kernels, "alice_scan", forbidden)
    bad = [ID4.copy() for _ in range(3)]
    bad[0][1, 2] = math.nan
    bad[1][0, 0] = math.inf
    bad[2] = 1.001 * ID4
    for g in bad:
        with pytest.raises(NotUnitaryError, match="second gate"):
            oracle.min_over_product_states(ID4, g)
        with pytest.raises(NotUnitaryError, match="first gate"):
            oracle.min_over_product_states(g, ID4)
