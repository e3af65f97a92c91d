"""Fixed-size complex linear algebra for two-qubit gates, and the input checks.

Everything operates on plain numpy arrays: 2x2 and 4x4 complex matrices and
length-4 state vectors.  Eigenphases of unitary matrices come from LAPACK's
dense eigenvalue routine through one wrap-and-sort, `_eigenphases`, which
`unitary_eigenphases` and `canonical.extract_interaction` share.  This
module is also the one home of the input checks, one per input kind:
gates, finite real vectors, real numbers, unit-norm amplitudes, positive
tolerances, priors and counts.  NaN fails each of them, and each raises a
`DomainError` subclass, never a numpy error or warning.  Every gate
check, `is_unitary` included, goes through `check_gates`: a gate is a 4x4
matrix, converted once.  It names the tolerances other modules read:
GATE_TOL, VERDICT_TOL.
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
# stands in for a failing gate: numpy carries NaN through without a warning
_NAN44 = np.full((4, 4), np.nan, dtype=complex)
PAIR_NAMES = ("first gate", "second gate")
# stands in for a gate that is no array of numbers; its shape is no gate's
_NOT_NUMBERS = np.full((), np.nan, dtype=complex)

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


def unitarity_residual(m) -> np.ndarray:
    """max |m^dag m - I| of each 4x4 matrix in a (k, 4, 4) stack.

    NaN and inf entries, and products that overflow, give a NaN or inf
    residual, which fails every `r <= tol` test, and no numpy warning.
    """
    with np.errstate(all="ignore"):
        gram = m.conj().swapaxes(-1, -2) @ m
        return np.abs(gram - ID4).max(axis=(-2, -1))


def is_unitary(m, tol: float = GATE_TOL) -> bool:
    """True if `check_gates` takes `m`: a 4x4 matrix within `tol` of unitary."""
    return check_gates([m], tol)[1][0] is None


def require_unitary(m, tol: float = GATE_TOL, name: str = "matrix") -> np.ndarray:
    """`require_gates` of the one gate `m`, called `name`."""
    return require_gates([m], tol, [name])[0]


def check_gates(gates, tol: float, names=PAIR_NAMES) -> tuple[np.ndarray, list]:
    """(stack, errors) for two-qubit gates, checked in one stacked pass.

    `stack` is a (k, 4, 4) complex array; errors[i] is the NotUnitaryError
    that gates[i], called names[i], fails with (not a 4x4 matrix of
    numbers, or not unitary within `tol`), else None.  A failing gate
    enters `stack` as NaN.  `tol` must be finite and > 0, and `names` at
    least as long as `gates` (DomainError).
    """
    require_positive(tol)
    arrs = [_complex_array(g) for g in gates]
    if len(names) < len(arrs):
        raise DomainError(f"{len(arrs)} gates but only {len(names)} names")
    stack = np.array([a if a.shape == (4, 4) else _NAN44 for a in arrs])
    errors = [None] * len(arrs)
    for i, r in enumerate(unitarity_residual(stack).tolist()):
        if not (r <= tol):  # a gate of another shape has a NaN residual
            if arrs[i] is _NOT_NUMBERS:
                msg = "must be a 4x4 matrix of numbers"
            elif arrs[i].shape != (4, 4):
                msg = f"must be a 4x4 matrix, got shape {arrs[i].shape}"
            else:
                msg = f"is not unitary within tolerance {tol:g}"
            errors[i] = NotUnitaryError(f"{names[i]} {msg}")
            stack[i] = _NAN44
    return stack, errors


def _complex_array(g) -> np.ndarray:
    """`g` as a complex array, or _NOT_NUMBERS for what numpy cannot
    convert: a string, a ragged sequence, a number too large for a float."""
    try:
        return np.asarray(g, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        return _NOT_NUMBERS


def require_gates(gates, tol: float = GATE_TOL, names=PAIR_NAMES) -> np.ndarray:
    """`check_gates`' stack; raises the first gate's error, if any."""
    stack, errors = check_gates(gates, tol, names)
    if any(errors):
        raise next(err for err in errors if err is not None)
    return stack


def require_finite(v, what: str, size: int | None = None) -> np.ndarray:
    """`v` flattened to floats; DomainError unless it is an array of real
    numbers (no complex, bool, string, object or ragged input) holding
    `size` entries (at least one when `size` is None), every one finite."""
    try:
        a = np.asarray(v)
    except ValueError:  # a ragged sequence, which older numpy made an object array
        a = np.array(None)
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{what} must be real numbers, got {a.dtype.name}")
    # a bool next to a number in a list is cast to 0 or 1; an ndarray's
    # dtype already tells, so only list and tuple input is scanned
    if isinstance(v, (list, tuple)) and _holds_bool(v):
        raise DomainError(f"{what} must be real numbers, got bool")
    a = a.astype(float, copy=False).ravel()
    if size is None and a.size == 0:
        raise DomainError(f"{what} must not be empty")
    if size is not None and a.shape != (size,):
        raise DomainError(f"{what} must have {size} entries, got {a.shape}")
    # a few entries per call: scalar checks beat the ufunc round trip
    vals = a.tolist()
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"{what} must be finite, got {vals}")
    return a


def _holds_bool(v) -> bool:
    """True if the list or tuple `v` of numbers holds a bool at any depth."""
    return any(
        isinstance(x, (bool, np.bool_))
        or (isinstance(x, (list, tuple)) and _holds_bool(x))
        or (isinstance(x, np.ndarray) and x.dtype.kind == "b")
        for x in v
    )


def require_normalized(v, name: str = "state"):
    """`v` as 4 complex amplitudes; DomainError for another entry count,
    NotNormalizedError unless |v|^2 = 1 +- NORM_TOL."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.shape != (4,):
        raise DomainError(f"{name} must have 4 entries, got {v.shape}")
    return _unit_norm(v, NORM_TOL, name)


def _unit_norm(v: np.ndarray, tol: float, name: str) -> np.ndarray:
    """`require_normalized`'s norm test alone, for a flat complex array its
    caller built: `v` itself, NotNormalizedError unless |v|^2 = 1 +- tol."""
    # scalar products overflow to inf without a warning
    n = sum(z.real * z.real + z.imag * z.imag for z in v.tolist())
    if not (abs(n - 1.0) <= tol):
        raise NotNormalizedError(
            f"{name} has squared norm {n!r}, expected 1 within {tol:g}"
        )
    return v


def require_real(x, what: str) -> float:
    """`x` as a float; DomainError for anything but a real number (a bool is
    none).  NaN and the infinities pass: the range checks reject them."""
    # a float (np.float64 is one) skips the ABC check, which costs about 1 us
    if not isinstance(x, float) and (
        isinstance(x, bool) or not isinstance(x, numbers.Real)
    ):
        raise DomainError(f"{what} must be a real number, got {x!r}")
    return float(x)


def require_positive(tol: float, what: str = "tol") -> float:
    """`tol` itself; DomainError unless it is a real number, finite and > 0."""
    if not (0.0 < require_real(tol, what) < math.inf):
        raise DomainError(f"{what} must be finite and > 0, got {tol!r}")
    return tol


def require_prior(p: float, what: str = "p1") -> float:
    """The prior `p`, called `what`, as a float clamped to [0, 1] (-0.0 as
    0.0); DomainError for anything but a real number (a bool is none), and
    for NaN, inf or a value more than 1e-12, room for rounding, outside
    [0, 1]."""
    x = require_real(p, f"prior {what}")
    if not (-1e-12 <= x <= 1.0 + 1e-12):
        raise DomainError(f"prior {what} = {p!r} outside [0, 1]")
    # adding 0.0 turns -0.0 into 0.0
    return min(max(x, 0.0), 1.0) + 0.0


def require_count(x, lo: int, what: str) -> int:
    """`x` itself; DomainError unless it is an integer >= lo (a bool is none)."""
    if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= lo):
        raise DomainError(f"{what} must be an integer >= {lo}, got {x!r}")
    return x


def unitary_eigenphases(m) -> np.ndarray:
    """Eigenphases of a unitary, multiplicity counted, sorted ascending.

    Returns phases theta in (-pi, pi] with e^{i theta} running over the
    eigenvalues of `m`.  A unitary is normal, so its eigenvalues are
    perfectly conditioned (Bauer-Fike): LAPACK's `eigvals` gives them to
    rounding, repeated and tightly clustered ones included.  NotUnitaryError
    unless `m` is a 4x4 matrix unitary within GATE_TOL.
    """
    return np.array(_eigenphases(require_unitary(m)))


def _eigenphases(m) -> list[float]:
    """`unitary_eigenphases` of a matrix its caller knows to be unitary, as
    a list: the one wrap-and-sort of LAPACK's eigenvalue angles."""
    # four angles: scalar wraps and a list sort beat numpy's per-call cost
    return sorted(map(wrap_angle, np.angle(np.linalg.eigvals(m)).tolist()))
