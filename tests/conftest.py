"""Shared helpers: random gate factories and independent brute-force oracles."""

import itertools

import numpy as np
import pytest

from gatediscrim import canonical, numerics
from gatediscrim.numerics import wrap_angle


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, n=4):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n=4):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_magic_diag(rng):
    om = rng.uniform(-np.pi, np.pi, size=4)
    return canonical.from_magic_phases(om), om


def dressed_gate(rng, alpha):
    a, b, c, d = (numerics.random_su2(rng) for _ in range(4))
    return (
        numerics.kron(a, b) @ canonical.build_ud(alpha) @ numerics.kron(c, d)
    )


def phases_close(a, b, tol=1e-9):
    """Compare two phase multisets on the circle."""
    a = np.sort(wrap_angle(np.asarray(a, dtype=float)))
    b = np.sort(wrap_angle(np.asarray(b, dtype=float)))
    if a.shape != b.shape:
        return False
    direct = np.max(np.abs(wrap_angle(a - b)))
    if direct <= tol:
        return True
    # values straddling the -pi/pi cut can sort differently; retry rotated
    rolled = np.sort(wrap_angle(a + 1.0))
    other = np.sort(wrap_angle(b + 1.0))
    return float(np.max(np.abs(wrap_angle(rolled - other)))) <= tol


# precomputed composition grid for the simplex brute force (step 0.01)
_COMPS = None


def simplex_min_modulus(phases, step=0.01):
    """Brute-force min of |sum_k w_k e^{i phi_k}| over the weight simplex."""
    global _COMPS
    n = round(1.0 / step)
    if _COMPS is None:
        combos = [
            (i, j, k, n - i - j - k)
            for i, j, k in itertools.product(range(n + 1), repeat=3)
            if i + j + k <= n
        ]
        _COMPS = np.asarray(combos, dtype=float) / n
    z = np.exp(1j * np.asarray(phases, dtype=float))
    return float(np.min(np.abs(_COMPS @ z)))


def polygon_origin_distance(phases):
    """Exact distance from the origin to conv{e^{i phi_k}}.

    Triangle sign tests, taken against each triangle's orientation, decide
    containment; otherwise the minimum over all clamped segment projections.
    Independent of the arc-gap route.
    """
    z = np.exp(1j * np.asarray(phases, dtype=float).ravel())
    pts = np.column_stack([z.real, z.imag])
    m = len(pts)
    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for i, j, k in itertools.combinations(range(m), 3):
        a, b, c = pts[i], pts[j], pts[k]
        area = cross2(b - a, c - a)
        # a zero-area triple contains nothing the segment pass below misses
        if area == 0.0:
            continue
        crosses = [cross2(b - a, -a), cross2(c - b, -b), cross2(a - c, -c)]
        # inside: the origin lies on the inner side of all three edges
        if all(x * area >= 0.0 for x in crosses):
            return 0.0
    best = float(np.min(np.linalg.norm(pts, axis=1)))
    for i, j in itertools.combinations(range(m), 2):
        d = pts[j] - pts[i]
        dd = float(d @ d)
        if dd < 1e-24:
            continue
        s = min(max(float(-pts[i] @ d) / dd, 0.0), 1.0)
        best = min(best, float(np.linalg.norm(pts[i] + s * d)))
    return best


def char_poly(m) -> list[complex]:
    """Monic det(z I - m) of a 4x4 matrix, highest power first.

    Coefficients by Newton's identities from the power-sum traces; an
    eigen-solver-free oracle for eigenvalue routines.
    """
    m = np.asarray(m, dtype=complex)
    m2 = m @ m
    m3 = m2 @ m
    t1 = complex(np.trace(m))
    t2 = complex(np.trace(m2))
    t3 = complex(np.trace(m3))
    t4 = complex(np.trace(m3 @ m))
    e1 = t1
    e2 = (e1 * t1 - t2) / 2.0
    e3 = (e2 * t1 - e1 * t2 + t3) / 3.0
    e4 = (e3 * t1 - e2 * t2 + e1 * t3 - t4) / 4.0
    return [1.0 + 0.0j, -e1, e2, -e3, e4]


def horner(coeffs, z: complex) -> complex:
    """Value at z of the polynomial with coefficients highest power first."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc
