"""Fixed-size complex linear algebra for two-qubit gates.

Everything operates on plain numpy arrays: 2x2 and 4x4 complex matrices and
length-4 state vectors.  Eigenphases of unitary matrices come from LAPACK's
dense eigenvalue routine, see `unitary_eigenphases`.
"""

from __future__ import annotations

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
    if isinstance(theta, float):
        # one angle: the same steps in scalar arithmetic, without numpy's
        # per-call cost; fmod of an infinity is NaN, as in numpy
        r = math.fmod(theta, TWO_PI) if math.isfinite(theta) else math.nan
        return r + (TWO_PI if r <= -math.pi else -TWO_PI if r > math.pi else 0.0)
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


def unitary_eigenphases(m, tol: float = 1e-9) -> np.ndarray:
    """Eigenphases of a unitary, multiplicity counted, sorted ascending.

    Returns phases theta in (-pi, pi] with e^{i theta} running over the
    eigenvalues of `m`.  A unitary is normal, so its eigenvalues are
    perfectly conditioned (Bauer-Fike): LAPACK's `eigvals` gives them to
    rounding, repeated and tightly clustered ones included.
    """
    m = require_unitary(m, tol=max(tol, 1e-9))
    return np.sort(wrap_angle(np.angle(np.linalg.eigvals(m))))
