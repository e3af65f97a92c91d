import numpy as np
import pytest

from gatediscrim import numerics
from gatediscrim.errors import NotUnitaryError
from gatediscrim.numerics import (
    ID2,
    ID4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SWAP,
    is_unitary,
    kron,
    unitary_eigenphases,
    wrap_angle,
)

from conftest import random_unitary, phases_close


def test_wrap_angle_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(np.pi / 2) == pytest.approx(np.pi / 2)
    arr = wrap_angle(np.array([2 * np.pi, -3.5 * np.pi]))
    np.testing.assert_allclose(arr, [0.0, 0.5 * np.pi], atol=1e-12)


def test_wrap_angle_range(rng):
    # odd multiples of pi and their neighbours a few ulps away sit at the ends
    odd = (2 * np.arange(-2000, 2000) + 1) * np.pi
    ends = np.concatenate([odd + d * np.spacing(odd) for d in range(-4, 5)])
    t = np.concatenate([rng.uniform(-50, 50, size=2000), ends])
    w = wrap_angle(t)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    # the wrapped value differs from the input by a multiple of 2 pi
    k = (t - w) / (2 * np.pi)
    np.testing.assert_allclose(k, np.round(k), atol=1e-9)


def test_wrap_angle_is_exact_in_range(rng):
    edges = [np.nextafter(-np.pi, 0.0), np.pi, 0.3, 0.7, 1e-300, -4.6e-41]
    t = np.concatenate([rng.uniform(-np.pi, np.pi, size=20000), edges])
    assert np.array_equal(wrap_angle(t), t)
    for x in edges:
        assert wrap_angle(x) == x
    z = wrap_angle(-0.0)
    assert z == 0.0 and not np.signbit(z)


def test_kron_pauli_example():
    xx = kron(PAULI_X, PAULI_X)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 3] = expect[1, 2] = expect[2, 1] = expect[3, 0] = 1.0
    np.testing.assert_allclose(xx, expect)
    np.testing.assert_allclose(kron(ID2, ID2), ID4)


def test_kron_mixed_product(rng):
    for _ in range(20):
        a, b, c, d = (random_unitary(rng, 2) for _ in range(4))
        np.testing.assert_allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
        )


def test_kron_bilinear(rng):
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    s = complex(rng.normal(), rng.normal())
    np.testing.assert_allclose(kron(a + s * b, c), kron(a, c) + s * kron(b, c), atol=1e-12)
    np.testing.assert_allclose(kron(c, a + s * b), kron(c, a) + s * kron(c, b), atol=1e-12)


def test_is_unitary():
    assert is_unitary(ID4)
    assert is_unitary(SWAP)
    assert not is_unitary(2 * ID4)
    assert not is_unitary(np.ones((4, 4)))
    assert not is_unitary(np.ones((2, 3)))
    with pytest.raises(NotUnitaryError):
        numerics.require_unitary(1.1 * ID4)


def test_pauli_constants():
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(p @ p, ID2, atol=1e-15)
    np.testing.assert_allclose(
        PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z, atol=1e-15
    )
    np.testing.assert_allclose(SWAP @ SWAP, ID4, atol=1e-15)


def test_eigenphases_identity_and_swap():
    np.testing.assert_allclose(unitary_eigenphases(ID4), np.zeros(4), atol=1e-12)
    # SWAP spectrum is {1, 1, 1, -1}
    assert phases_close(unitary_eigenphases(SWAP), [0, 0, 0, np.pi], tol=1e-12)


def test_eigenphases_diagonal_example():
    m = np.diag(np.exp(1j * np.array([0.0, np.pi / 2, np.pi, -np.pi / 2])))
    got = unitary_eigenphases(m)
    assert phases_close(got, [-np.pi / 2, 0.0, np.pi / 2, np.pi], tol=1e-12)


def test_eigenphases_quadruple_root():
    # scalar unitaries exercise the multiplicity-4 branch
    for phi in (0.25, -2.0, np.pi / 4):
        got = unitary_eigenphases(np.exp(1j * phi) * ID4)
        np.testing.assert_allclose(got, np.full(4, phi), atol=1e-9)


def test_eigenphases_double_pairs():
    # two eigenvalue pairs at +/- pi/2
    m = np.diag(np.exp(1j * np.array([np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2])))
    got = unitary_eigenphases(m)
    assert phases_close(
        got, [np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2], tol=1e-10
    )


def test_eigenphases_against_dense_solver(rng):
    # frozen oracle: np.linalg.eigvals on the same matrices
    worst = 0.0
    for _ in range(300):
        m = random_unitary(rng, 4)
        mine = unitary_eigenphases(m)
        ref = np.sort(wrap_angle(np.angle(np.linalg.eigvals(m))))
        assert phases_close(mine, ref, tol=1e-9)
        worst = max(worst, float(np.max(np.abs(wrap_angle(mine - ref)))))
    assert worst <= 1e-9


def test_eigenphases_reconstruction(rng):
    # the characteristic polynomial must vanish at every returned phase
    for _ in range(100):
        m = random_unitary(rng, 4)
        phases = unitary_eigenphases(m)
        coeffs = numerics._char_poly(m)
        for th in phases:
            assert abs(numerics._horner(coeffs, np.exp(1j * th))) <= 1e-8


def test_eigenphases_det_and_dagger(rng):
    for _ in range(50):
        m = random_unitary(rng, 4)
        ph = unitary_eigenphases(m)
        det = np.linalg.det(m)
        assert abs(np.exp(1j * np.sum(ph)) - det) <= 1e-8
        neg = unitary_eigenphases(m.conj().T)
        assert phases_close(neg, -ph, tol=1e-8)


def test_eigenphases_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        unitary_eigenphases(1.5 * ID4)


def test_random_su2(rng):
    for _ in range(25):
        u = numerics.random_su2(rng)
        assert is_unitary(u, tol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12
