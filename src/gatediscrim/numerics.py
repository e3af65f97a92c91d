"""Fixed-size complex linear algebra for two-qubit gates.

Everything operates on plain numpy arrays: 2x2 and 4x4 complex matrices and
length-4 state vectors.  Eigenphases of unitary matrices are extracted from
the degree-4 characteristic polynomial (Durand-Kerner iteration followed by
multiplicity-aware Newton polishing) rather than a general dense eigensolver.
Accuracy target for the returned phases is 1e-9; exactly degenerate spectra
are resolved through derivative tests, see `unitary_eigenphases`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NotUnitaryError, NotNormalizedError

TWO_PI = 2.0 * math.pi

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SWAP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)

# wrap_angle's shift for r <= -pi, for -pi < r <= pi and for r > pi
_WRAP_EDGES = np.array([-math.pi, math.pi])
_WRAP_SHIFTS = np.array([TWO_PI, 0.0, -TWO_PI])


def wrap_angle(theta):
    """Map an angle or array of angles to the interval (-pi, pi].

    Exact: an angle already in the interval comes back unchanged (-0.0 as
    0.0), and any other angle moves by a whole number of turns of TWO_PI.
    """
    # fmod is exact, and so is the shift by TWO_PI: the shifted value lies
    # within a factor of two of TWO_PI (Sterbenz); the zero shift of an
    # in-range angle turns -0.0 into 0.0
    r = np.fmod(np.asarray(theta, dtype=float), TWO_PI)
    out = r + _WRAP_SHIFTS[np.searchsorted(_WRAP_EDGES, r)]
    if out.ndim == 0:
        return float(out)
    return out


def kron(a, b):
    """Kronecker product; (2,2)x(2,2) -> (4,4) with row-major qubit order."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_unitary(m, tol: float = 1e-9) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    d = m.conj().T @ m - np.eye(m.shape[0])
    return bool(np.max(np.abs(d)) <= tol)


def require_unitary(m, tol: float = 1e-9, name: str = "matrix"):
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m, tol):
        raise NotUnitaryError(
            f"{name} is not unitary within tolerance {tol:g}"
        )
    return m


def require_normalized(v, tol: float = 1e-10, name: str = "state"):
    v = np.asarray(v, dtype=complex).ravel()
    n = float(np.sum(np.abs(v) ** 2))
    if not (abs(n - 1.0) <= tol):  # written so that NaN fails
        raise NotNormalizedError(
            f"{name} has squared norm {n!r}, expected 1 within {tol:g}"
        )
    return v


def random_su2(rng) -> np.ndarray:
    """Haar-random SU(2) element drawn from `rng`."""
    # Euler-angle-free: normalize a Ginibre column to a unit quaternion.
    q = rng.normal(size=4)
    q /= math.sqrt(float(q @ q))
    a = complex(q[0], q[1])
    b = complex(q[2], q[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]], dtype=complex)


# --- characteristic polynomial machinery -----------------------------------
#
# p(z) = det(z I - m) for a 4x4 matrix, coefficients by Newton's identities
# from power-sum traces.  Coefficient lists are monic, highest power first.


def _char_poly(m) -> list[complex]:
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


def _horner(coeffs, z: complex) -> complex:
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def _derivative(coeffs) -> list[complex]:
    deg = len(coeffs) - 1
    return [c * (deg - i) for i, c in enumerate(coeffs[:-1])]


def _deflate(coeffs, z: complex) -> list[complex]:
    # synthetic division by (x - z); remainder discarded
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + z * out[-1])
    return out


def _durand_kerner(coeffs, max_iter: int = 120) -> list[complex]:
    deg = len(coeffs) - 1
    # distinct starting points on the unit circle, offset from any symmetry axis
    roots = [cmath.exp(1j * (0.4 + TWO_PI * k / deg)) for k in range(deg)]
    for _ in range(max_iter):
        moved = 0.0
        for i in range(deg):
            num = _horner(coeffs, roots[i])
            den = 1.0 + 0.0j
            for j in range(deg):
                if j == i:
                    continue
                d = roots[i] - roots[j]
                if abs(d) < 1e-30:
                    d = 1e-30
                den *= d
            step = num / den
            roots[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-15:
            break
    return roots


def _newton(coeffs, z: complex, iters: int = 60) -> complex:
    dcoeffs = _derivative(coeffs)
    for _ in range(iters):
        df = _horner(dcoeffs, z)
        if abs(df) < 1e-18:
            break
        step = _horner(coeffs, z) / df
        z -= step
        if abs(step) < 1e-16:
            break
    return z


def _circular_mean(phases) -> float:
    s = sum(cmath.exp(1j * p) for p in phases)
    return cmath.phase(s)


# Threshold for "this derivative vanishes": coefficient noise for a
# unitary-normalized quartic sits near 1e-14, genuinely split roots at
# distance d leave a residual of order (d/2)^mult.
_MULT_TOL = 3e-12


def _cluster_multiplicity(coeffs, phases) -> tuple[complex, int] | None:
    """Try to certify the cluster as one multiple root; None if separated."""
    mc = len(phases)
    centroid = cmath.exp(1j * _circular_mean(phases))
    derivs = [coeffs]
    for _ in range(mc - 1):
        derivs.append(_derivative(derivs[-1]))
    for m_try in range(mc, 1, -1):
        z = _newton(derivs[m_try - 1], centroid)
        if abs(z) > 0.0:
            z /= abs(z)
        if all(abs(_horner(derivs[j], z)) <= _MULT_TOL for j in range(m_try)):
            return z, m_try
    return None


def _circle_roots(coeffs) -> list[complex]:
    """Roots of a monic self-inversive polynomial, all on the unit circle."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        z = -coeffs[1]
        return [z / abs(z) if abs(z) > 0 else 1.0 + 0.0j]
    raw = _durand_kerner(coeffs)
    phases = sorted(cmath.phase(r) for r in raw)
    # chain adjacent phases into clusters; 1.5e-3 exceeds the worst
    # Durand-Kerner stagnation radius eps**(1/4) for an exact quadruple root
    gap_tol = 1.5e-3
    clusters = [[phases[0]]]
    for p in phases[1:]:
        if p - clusters[-1][-1] <= gap_tol:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    if len(clusters) > 1 and (phases[0] + TWO_PI) - phases[-1] <= gap_tol:
        clusters[0] = clusters.pop() + [p + TWO_PI for p in clusters[0]]
    out: list[complex] = []
    for cl in clusters:
        if len(cl) == 1:
            z = _newton(coeffs, cmath.exp(1j * cl[0]))
            out.append(z / abs(z))
            continue
        cert = _cluster_multiplicity(coeffs, cl)
        if cert is None:
            # genuinely separated roots that merely sit close together
            for p in cl:
                z = _newton(coeffs, cmath.exp(1j * p))
                out.append(z / abs(z))
            continue
        z, mult = cert
        out.extend([z] * mult)
        if mult < len(cl):
            rest = coeffs
            for _ in range(mult):
                rest = _deflate(rest, z)
            return out + _circle_roots(rest)
    return out


def unitary_eigenphases(m, tol: float = 1e-9) -> np.ndarray:
    """Eigenphases of a 4x4 unitary, multiplicity counted, sorted ascending.

    Returns phases theta in (-pi, pi] with e^{i theta} running over the
    eigenvalues of `m`.  The characteristic polynomial at each returned
    e^{i theta} vanishes to 1e-8 or better; simple and exactly repeated
    eigenvalues come out to ~1e-9.  Clusters split by less than ~1e-5 are
    merged, which is the resolution floor of the polynomial route.
    """
    m = require_unitary(m, tol=max(tol, 1e-9))
    roots = _circle_roots(_char_poly(m))
    return np.sort(wrap_angle(np.array([cmath.phase(r) for r in roots])))
