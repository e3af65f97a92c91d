"""Fixed-size complex linear algebra for two-qubit gates, and the input checks.

Everything operates on plain numpy arrays: 2x2 and 4x4 complex matrices and
length-4 state vectors.  Eigenphases of unitary matrices come from LAPACK's
dense eigenvalue routine through one wrap-and-sort, `_eigenphases`, which
`unitary_eigenphases` and `canonical.extract_interaction` share.  This
module is also the one home of the input checks, one per input kind:
gates, finite real vectors, real numbers, unit-norm amplitudes, positive
tolerances, priors and counts.  NaN fails each of them, and each raises a
`DomainError` subclass, never a numpy error or warning.  Every gate
check goes through `require_gates`: a gate is a 4x4 matrix, converted
once.  Every array of numbers goes through one kind
rule, `_numbers`: real arrays (a gate file's rows included) by way of
`_real_array`, gates and amplitudes by way of `_complex_array`, which
alone also takes complex numbers.  Neither takes a bool, string or object
array, nor a list or tuple that holds a bool.  `wrap_angle` has one
formula, run angle by angle on an array.  It names the tolerances other
modules read: GATE_TOL, VERDICT_TOL.

The four-number rule: a formula on one gate pair's few numbers (its four
phases, four amplitudes or four eigenvalues) runs on Python floats and
complexes, with `math` and `cmath`, and its stages hand each other lists:
on so few numbers a numpy call costs more than the arithmetic it does.
Angles come from libm's atan2, as `cmath.phase`, never from `np.angle`,
so those outputs do not depend on which CPU loops numpy dispatches.
numpy keeps what works on whole matrices: the stacked gate checks, the
magic-basis projection and LAPACK's eigenvalues.  `geometry` and `svg`
are plain Python: a hull record and its figure hold a few floats, the
nearest point too, and neither module imports numpy.
"""

from __future__ import annotations

import cmath
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


def wrap_angle(theta):
    """Map an angle or array of angles to the interval (-pi, pi].

    Exact: an angle already in the interval comes back unchanged (-0.0 as
    0.0), and any other angle moves by a whole number of turns of TWO_PI.
    NaN and the infinities give NaN, with no warning.  An array is wrapped
    angle by angle, and a 0-d array comes back as a float.  It trusts its
    input: a complex, string or object angle raises numpy's or Python's own
    error.  Every package caller passes angles it has already checked.
    """
    if not isinstance(theta, float):
        t = np.asarray(theta, dtype=float)
        if t.ndim == 0:
            return wrap_angle(float(t))
        return np.array([wrap_angle(x) for x in t.ravel().tolist()]).reshape(t.shape)
    # fmod is exact, and so is the shift by TWO_PI: the shifted value lies
    # within a factor of two of TWO_PI (Sterbenz); the zero shift of an
    # in-range angle turns -0.0 into 0.0
    r = math.fmod(theta, TWO_PI) if math.isfinite(theta) else math.nan
    return r + (TWO_PI if r <= -math.pi else -TWO_PI if r > math.pi else 0.0)


def unitarity_residual(m) -> np.ndarray:
    """max |m^dag m - I| of each 4x4 matrix in a (k, 4, 4) stack.

    NaN and inf entries, and products that overflow, give a NaN or inf
    residual, which fails every `r <= tol` test, and no numpy warning.  It
    trusts its input: `m` must be a numeric array of 4x4 matrices, as
    `require_gates` builds it; anything else raises numpy's own error.
    """
    with np.errstate(all="ignore"):
        gram = m.conj().swapaxes(-1, -2) @ m
        return np.abs(gram - ID4).max(axis=(-2, -1))


def require_unitary(m, tol: float = GATE_TOL, name: str = "matrix") -> np.ndarray:
    """`require_gates` of the one gate `m`, called `name`."""
    return require_gates([m], tol, [name])[0]


def _complex_array(g) -> np.ndarray | None:
    """`g` as a complex array of its own shape, or None for what `_numbers`
    refuses."""
    a, got = _numbers(g, "iufc")
    return None if got else a.astype(complex, copy=False)


def require_gates(gates, tol: float = GATE_TOL, names=PAIR_NAMES) -> np.ndarray:
    """Two-qubit gates as one (k, 4, 4) complex stack, checked in one pass.

    The first gate in order, called names[i], that is not a 4x4 matrix of
    numbers, or not unitary within `tol`, raises NotUnitaryError.  `tol`
    must be finite and > 0, and `names` at least as long as `gates`
    (DomainError).
    """
    require_positive(tol)
    arrs = [_complex_array(g) for g in gates]
    if len(names) < len(arrs):
        raise DomainError(f"{len(arrs)} gates but only {len(names)} names")
    stack = np.array([_NAN44 if a is None or a.shape != (4, 4) else a for a in arrs])
    for name, a, r in zip(names, arrs, unitarity_residual(stack).tolist()):
        if not (r <= tol):  # a gate of no numbers or another shape is NaN
            if a is None:
                msg = "must be a 4x4 matrix of numbers"
            elif a.shape != (4, 4):
                msg = f"must be a 4x4 matrix, got shape {a.shape}"
            else:
                msg = f"is not unitary within tolerance {tol:g}"
            raise NotUnitaryError(f"{name} {msg}")
    return stack


def require_finite(v, what: str, size: int | None = None) -> np.ndarray:
    """`v` flattened to floats; DomainError unless `_real_array` takes it
    and it holds `size` entries (at least one when `size` is None), every
    one finite."""
    a = _real_array(v, what).ravel()
    if size is None and a.size == 0:
        raise DomainError(f"{what} must not be empty")
    if size is not None and a.shape != (size,):
        raise DomainError(f"{what} must have {size} entries, got {a.shape}")
    vals = a.tolist()
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"{what} must be finite, got {vals}")
    return a


def _real_array(v, what: str) -> np.ndarray:
    """`v` as a float array of its own shape; DomainError unless `_numbers`
    takes it as real numbers: no complex input.  NaN and the infinities
    pass."""
    a, got = _numbers(v, "iuf")
    if got:
        raise DomainError(f"{what} must be real numbers, got {got}")
    return a.astype(float, copy=False)


def _numbers(v, kinds: str) -> tuple[np.ndarray, str]:
    """(`v` as an array, "") if its dtype kind is one of `kinds`, else (the
    array, the name of what it holds): its dtype's name, or "bool" for a
    list or tuple holding a bool or an array of bools at any depth, which
    numpy would cast to 0 or 1.  What numpy cannot convert, such as a
    ragged sequence, counts as an object array."""
    try:
        a = np.asarray(v)
    except (TypeError, ValueError, OverflowError):
        a = np.array(None)
    if a.dtype.kind not in kinds:
        return a, a.dtype.name
    # an ndarray's dtype already tells, so only list and tuple input is walked
    todo = [v] if isinstance(v, (list, tuple)) else []
    while todo:
        for x in todo.pop():
            if isinstance(x, (list, tuple)):
                todo.append(x)
            elif type(x) is not float and np.asarray(x).dtype.kind == "b":
                return a, "bool"
    return a, ""


def require_normalized(v, name: str = "state"):
    """`v` as 4 complex amplitudes; DomainError for what numpy cannot
    convert or another entry count, NotNormalizedError unless
    |v|^2 = 1 +- NORM_TOL."""
    v = _complex_array(v)
    if v is None:
        raise DomainError(f"{name} must be an array of numbers")
    v = v.ravel()
    if v.shape != (4,):
        raise DomainError(f"{name} must have 4 entries, got {v.shape}")
    # scalar products overflow to inf without a warning
    n = sum(z.real * z.real + z.imag * z.imag for z in v.tolist())
    if not (abs(n - 1.0) <= NORM_TOL):
        raise NotNormalizedError(
            f"{name} has squared norm {n!r}, expected 1 within {NORM_TOL:g}"
        )
    return v


def _shown(x) -> str:
    """repr(x), or a stand-in where Python refuses it: for an int of more
    than 4300 digits, alone or inside a container."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def require_real(x, what: str) -> float:
    """`x` as a float; DomainError for anything but a real number (a bool is
    none) and for one beyond float range, such as the int 10**400.  NaN and
    the infinities pass: the range checks reject them."""
    # a float (np.float64 is one) skips the ABC check, which costs about 1 us
    if isinstance(x, float):
        return float(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {_shown(x)}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is outside float range") from None


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
        raise DomainError(f"{what} must be an integer >= {lo}, got {_shown(x)}")
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
    return sorted(wrap_angle(cmath.phase(z)) for z in np.linalg.eigvals(m).tolist())
