"""Fixed-size complex linear algebra for two-qubit gates, and the input checks.

Everything operates on plain numpy arrays: 2x2 and 4x4 complex matrices and
length-4 state vectors.  Eigenphases of unitary matrices come from LAPACK's
dense eigenvalue routine, see `unitary_eigenphases`.  This module is also
the one home of the input checks, one per input kind: gates, finite vectors,
unit-norm amplitudes, positive tolerances and priors.  NaN fails each of
them, and each raises a `DomainError` subclass, never a numpy error or
warning.  It names the tolerances other modules read: GATE_TOL, VERDICT_TOL.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, NotNormalizedError, NotUnitaryError

TWO_PI = 2.0 * math.pi
SQRT_HALF = 1.0 / math.sqrt(2.0)

# How far an input gate may be from unitary and, where the theorem needs it,
# from magic-diagonal: the default of every gate `tol` and of the CLI's --tol
GATE_TOL = 1e-8
# the origin is inside the hull when its distance to it is at most this
# (criterion 3's bound); probes are held to it on overlap and concurrence
VERDICT_TOL = 1e-9
# how far a unit vector's squared norm may be from 1: room for rounding only
NORM_TOL = 1e-10

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
# stands in for a failing gate: numpy carries NaN through without a warning
_NAN44 = np.full((4, 4), np.nan, dtype=complex)
PAIR_NAMES = ("first gate", "second gate")

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


def unitarity_residual(m) -> np.ndarray:
    """max |m^dag m - I| of a square matrix, or of each in a (k, n, n) stack.

    NaN and inf entries, and products that overflow, give a NaN or inf
    residual, which fails every `r <= tol` test, and no numpy warning.
    """
    n = m.shape[-1]
    with np.errstate(all="ignore"):
        gram = m.conj().swapaxes(-1, -2) @ m
        return np.abs(gram - (ID4 if n == 4 else np.eye(n))).max(axis=(-2, -1))


def is_unitary(m, tol: float = GATE_TOL) -> bool:
    """True for a square `m` within `tol` of unitary; `tol` finite and > 0."""
    require_positive(tol)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(unitarity_residual(m) <= tol)


def require_unitary(m, tol: float = GATE_TOL, name: str = "matrix"):
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m, tol):
        raise NotUnitaryError(f"{name} is not unitary within tolerance {tol:g}")
    return m


def check_gates(gates, tol: float, names=PAIR_NAMES) -> tuple[np.ndarray, list]:
    """(stack, errors) for two-qubit gates, checked in one stacked pass.

    `stack` is a (k, 4, 4) complex array; errors[i] is the NotUnitaryError
    that gates[i], called names[i], fails with (not a 4x4 matrix, or not
    unitary within `tol`), else None.  A failing gate enters `stack` as NaN.
    `tol` must be finite and > 0 (DomainError).
    """
    require_positive(tol)
    arrs = [np.asarray(g, dtype=complex) for g in gates]
    stack = np.array([a if a.shape == (4, 4) else _NAN44 for a in arrs])
    errors = [None] * len(arrs)
    for i, r in enumerate(unitarity_residual(stack).tolist()):
        if not (r <= tol):  # a gate of another shape has a NaN residual
            shape = arrs[i].shape
            errors[i] = NotUnitaryError(
                f"{names[i]} must be a 4x4 matrix, got shape {shape}"
                if shape != (4, 4)
                else f"{names[i]} is not unitary within tolerance {tol:g}"
            )
            stack[i] = _NAN44
    return stack, errors


def require_gates(gates, tol: float = GATE_TOL, names=PAIR_NAMES) -> np.ndarray:
    """`check_gates`' stack; raises the first gate's error, if any."""
    stack, errors = check_gates(gates, tol, names)
    if any(errors):
        raise next(err for err in errors if err is not None)
    return stack


def require_finite(v, what: str, size: int | None = None) -> np.ndarray:
    """`v` flattened to floats; DomainError unless it holds `size` entries
    (at least one when `size` is None) and every one is finite."""
    a = np.asarray(v, dtype=float).ravel()
    if size is None and a.size == 0:
        raise DomainError(f"{what} must not be empty")
    if size is not None and a.shape != (size,):
        raise DomainError(f"{what} must have {size} entries, got {a.shape}")
    # a few entries per call: scalar checks beat the ufunc round trip
    vals = a.tolist()
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"{what} must be finite, got {vals}")
    return a


def require_normalized(v, tol: float = NORM_TOL, name: str = "state"):
    """`v` as 4 complex amplitudes; DomainError for another entry count or
    a `tol` not finite and > 0, NotNormalizedError unless |v|^2 = 1 +- tol."""
    require_positive(tol)
    v = np.asarray(v, dtype=complex).ravel()
    if v.shape != (4,):
        raise DomainError(f"{name} must have 4 entries, got {v.shape}")
    # scalar products overflow to inf without a warning
    n = sum(z.real * z.real + z.imag * z.imag for z in v.tolist())
    if not (abs(n - 1.0) <= tol):
        raise NotNormalizedError(
            f"{name} has squared norm {n!r}, expected 1 within {tol:g}"
        )
    return v


def require_positive(tol: float, what: str = "tol") -> float:
    """`tol` itself; DomainError unless it is finite and > 0."""
    if not (0.0 < tol < math.inf):
        raise DomainError(f"{what} must be finite and > 0, got {tol!r}")
    return tol


def require_prior(p: float, what: str = "p1") -> float:
    """The prior `p`, called `what`, as a float clamped to [0, 1] (-0.0 as
    0.0); DomainError for anything but a real number (a bool is none), and
    for NaN, inf or a value more than 1e-12, room for rounding, outside
    [0, 1]."""
    real = isinstance(p, numbers.Real) and not isinstance(p, bool)
    if not (real and -1e-12 <= p <= 1.0 + 1e-12):
        raise DomainError(f"prior {what} = {p!r} outside [0, 1]")
    # adding 0.0 turns -0.0 into 0.0
    return min(max(float(p), 0.0), 1.0) + 0.0


def random_su2(rng) -> np.ndarray:
    """Haar-random SU(2) element drawn from `rng`."""
    # Euler-angle-free: normalize a Ginibre column to a unit quaternion.
    q = rng.normal(size=4)
    q /= math.sqrt(float(q @ q))
    a = complex(q[0], q[1])
    b = complex(q[2], q[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]], dtype=complex)


def unitary_eigenphases(m) -> np.ndarray:
    """Eigenphases of a unitary, multiplicity counted, sorted ascending.

    Returns phases theta in (-pi, pi] with e^{i theta} running over the
    eigenvalues of `m`.  A unitary is normal, so its eigenvalues are
    perfectly conditioned (Bauer-Fike): LAPACK's `eigvals` gives them to
    rounding, repeated and tightly clustered ones included.  NotUnitaryError
    unless `m` is square and unitary within GATE_TOL.
    """
    return eigenphases(require_unitary(m))


def eigenphases(m) -> np.ndarray:
    """`unitary_eigenphases` of a matrix its caller has already checked."""
    return np.sort(wrap_angle(np.angle(np.linalg.eigvals(m))))
