import math

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

from conftest import random_magic_diag

PI = math.pi


def test_search_config_validation():
    oracle.SearchConfig()  # defaults are legal
    with pytest.raises(DomainError):
        oracle.SearchConfig(grid_steps=7)
    with pytest.raises(DomainError):
        oracle.SearchConfig(refinement_rounds=-1)
    with pytest.raises(DomainError):
        oracle.SearchConfig(shrink_factor=1.0)
    with pytest.raises(DomainError):
        oracle.SearchConfig(shrink_factor=0.0)
    with pytest.raises(DomainError):
        oracle.SearchConfig(seed=-1)


def test_product_search_matches_analytic_examples():
    # default configuration must land within grid-refinement resolution
    val, probe = oracle.min_over_product_states(ID4, canonical.build_ud((PI / 8, 0, 0)))
    assert abs(val - math.cos(PI / 8)) <= 1e-4
    assert concurrence(probe.u) <= 1e-9

    cfg = oracle.SearchConfig(grid_steps=24, refinement_rounds=10, seed=0)

    val, _ = oracle.min_over_product_states(
        ID4, canonical.build_ud((PI / 4, PI / 4, 0.0)), cfg
    )
    assert val <= 2e-3

    val, _ = oracle.min_over_product_states(ID4, ID4, cfg)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_product_search_matches_analytic_random(rng):
    cfg = oracle.SearchConfig(grid_steps=20, refinement_rounds=8, seed=0)
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
    cfg = oracle.SearchConfig(grid_steps=14, refinement_rounds=4, seed=3)
    for _ in range(3):
        u1, _ = random_magic_diag(rng)
        u2, _ = random_magic_diag(rng)
        f, _ = fidelity(u1, u2)
        pv, _ = oracle.min_over_product_states(u1, u2, cfg)
        av, psi = oracle.min_over_all_states(u1, u2, cfg)
        assert av <= pv + 1e-9  # product probe is in the start set
        # entanglement buys nothing for these pairs
        assert abs(av - f) <= 2e-3
        assert np.linalg.norm(psi) == pytest.approx(1.0)


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
    with pytest.raises(DomainError):
        oracle.helstrom_simulate(ID4, ID4, probe, shots=0)
    with pytest.raises(DomainError):
        oracle.helstrom_simulate(ID4, ID4, probe, p1=1.2)


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


def test_kernel_matches_brute_force(rng):
    # exchange-symmetric gates produce exact ties at swapped grid points, so
    # only the minimum value is pinned, not which tied index is returned
    ta = np.linspace(0.0, PI, 7)
    pa = np.linspace(0.0, 2 * PI, 9, endpoint=False)
    axes = (ta, pa, ta, pa)
    gates = [canonical.build_ud((0.7, 0.4, 0.1))]
    gates += [random_magic_diag(rng)[0] for _ in range(3)]
    for u2 in gates:
        w = ID4.conj().T @ u2
        val, lin = _kernels.product_scan(w, *axes)
        assert grid_overlap(w, axes, lin) == pytest.approx(val, abs=1e-12)
        brute = min(grid_overlap(w, axes, n) for n in range(7 * 9 * 7 * 9))
        assert val == pytest.approx(brute, abs=1e-12)
