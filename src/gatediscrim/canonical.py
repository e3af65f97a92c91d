"""Canonical form of two-qubit gates in the magic basis.

A two-qubit unitary factors as (A x B) U_d (C x D) with single-qubit locals
and an interaction core U_d = exp(-i(ax XX + ay YY + az ZZ)).  The core is
diagonal in the magic (Bell-like) basis with eigenphase vector lambda fixed
by the interaction vector alpha; alpha lives in the Weyl chamber
pi/4 >= ax >= ay >= az >= 0.  Locally equivalent gates share one alpha,
but the fold into the chamber sets az >= 0, so alpha names a local class
only up to complex conjugation (the mirror image): U_d(0.3, 0.2, 0.1) and
U_d(0.3, 0.2, -0.1) both give (0.3, 0.2, 0.1), while their Makhlin
invariants G1 are complex conjugates, 0.5532 -+ 0.0651i.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DomainError, NotMagicDiagonalError
from .numerics import GATE_TOL, SQRT_HALF, wrap_angle

PI = math.pi
QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0

# Columns: |00>+|11>, -i(|00>-|11>), |01>-|10>, -i(|01>+|10>), all over sqrt(2).
MAGIC_BASIS = SQRT_HALF * np.array(
    [
        [1.0, -1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0j],
        [0.0, 0.0, -1.0, -1.0j],
        [1.0, 1.0j, 0.0, 0.0],
    ],
    dtype=complex,
)
_MAGIC_DAG = MAGIC_BASIS.conj().T
_OFF_DIAG = 1.0 - np.eye(4)
# an alpha computed from pi/4 may overshoot a chamber wall by a few ulps
_CHAMBER_SLACK = 1e-12
# an alpha this near the identity or SWAP corner is it (round trip errs ~1e-15)
_CLASS_TOL = 1e-10


class GateClass(enum.Enum):
    IDENTITY = "Identity"
    SWAP_LIKE = "SwapLike"
    ENTANGLING = "Entangling"


@dataclass(frozen=True)
class InteractionDecomposition:
    """Result of `extract_interaction`.

    alpha:        Weyl-chamber interaction vector (ax, ay, az), shared by
                  locally equivalent gates and by complex conjugates
    raw_phases:   magic-basis eigenphase branch before canonicalization
    global_phase: stripped scalar phase, reported in (-pi/4, pi/4]
    """

    alpha: np.ndarray
    raw_phases: np.ndarray
    global_phase: float


def check_weyl(alpha) -> np.ndarray:
    """Validate ordering and bounds of an interaction vector."""
    a = numerics.require_finite(alpha, "interaction vector", 3)
    ax, ay, az = a.tolist()
    if az < -_CHAMBER_SLACK:
        raise DomainError(f"alpha_z >= 0 violated: alpha_z = {az!r}")
    if ay < az - _CHAMBER_SLACK:
        raise DomainError(f"alpha_y >= alpha_z violated: {ay!r} < {az!r}")
    if ax < ay - _CHAMBER_SLACK:
        raise DomainError(f"alpha_x >= alpha_y violated: {ax!r} < {ay!r}")
    if ax > QUARTER_PI + _CHAMBER_SLACK:
        raise DomainError(f"alpha_x <= pi/4 violated: alpha_x = {ax!r}")
    return a


def lambda_phases(alpha) -> np.ndarray:
    """Magic-basis eigenphases (l1, l2, l3, l4) of the core fixed by alpha.

    The core acts as e^{-i l_j} on magic vector j.  The four phases sum to
    zero and obey l4 >= l1 >= l2 >= l3 inside the chamber.
    """
    ax, ay, az = check_weyl(alpha)
    return np.array(
        [
            ax - ay + az,
            -ax + ay + az,
            -ax - ay - az,
            ax + ay - az,
        ]
    )


def magic_rep(u) -> np.ndarray:
    """Conjugate a computational-basis operator into the magic basis.

    It trusts its input: `u` must be a 4x4 matrix of finite numbers, or a
    stack of them.  Anything else raises numpy's or Python's own error or
    warning, or is cast (a bool, a numeric string, None).  Every package
    caller passes gates `numerics.require_gates` has checked, so that the
    check is not paid twice.
    """
    return _MAGIC_DAG @ np.asarray(u, dtype=complex) @ MAGIC_BASIS


def build_ud(alpha) -> np.ndarray:
    """Interaction core exp(-i(ax XX + ay YY + az ZZ)) as a 4x4 unitary."""
    return from_magic_phases(lambda_phases(alpha))


def from_magic_phases(omega) -> np.ndarray:
    """Unitary acting as e^{-i omega_k} on magic vector k, any phase vector."""
    om = numerics.require_finite(omega, "phase vector", 4)
    return (MAGIC_BASIS * np.exp(-1j * om)) @ _MAGIC_DAG


def _fold_chamber(a) -> np.ndarray:
    # reduce each coordinate modulo the pi/2 translation + sign lattice,
    # then order; this is the unique chamber representative of the orbit.
    # A float's % by a positive divisor lies in [0, divisor), as np.mod's.
    folded = [x % HALF_PI for x in a]
    folded = [HALF_PI - x if x > QUARTER_PI else x for x in folded]
    return np.array(sorted(folded, reverse=True))


def extract_interaction(u, tol: float = GATE_TOL) -> InteractionDecomposition:
    """Recover the Weyl-chamber interaction vector of a 4x4 unitary.

    Works for any unitary, magic-diagonal or dressed with local factors.
    Round-trips with `build_ud` to rounding, degenerate spectra such as the
    identity and SWAP included, because the eigenphases of the unitary Gram
    matrix are perfectly conditioned.  NotUnitaryError unless `u` is a 4x4
    matrix unitary within `tol`, DomainError unless `tol` is finite and > 0.
    """
    u = numerics.require_gates([u], tol, ["gate"])[0]
    det = complex(np.linalg.det(u))
    # wrapped because cmath.phase(-1 - 0j) is -pi, which would give -pi/4
    global_phase = wrap_angle(cmath.phase(det)) / 4.0
    v = magic_rep(u) * cmath.exp(-1j * global_phase)
    gram = v.T @ v
    # gram is unitary because u is: no second check, at another tolerance.
    # The tail, `_eigenphases` included, works on four Python floats: a
    # numpy call costs more here than the arithmetic it would do.
    l0, l1, l2, l3 = [wrap_angle(-0.5 * t) for t in numerics._eigenphases(gram)]
    # halving each phase can flip the parity of the sum; legal branch moves
    # only come in pairs, so restore sum(lam) = 0 (mod 2 pi) explicitly
    if round((l0 + l1 + l2 + l3) / PI) % 2 != 0:
        l3 = wrap_angle(l3 + PI)
    return InteractionDecomposition(
        alpha=_fold_chamber([0.5 * (l0 + l3), 0.5 * (l1 + l3), 0.5 * (l0 + l1)]),
        raw_phases=np.array([l0, l1, l2, l3]),
        global_phase=global_phase,
    )


def relative_phases(u1, u2, tol: float = GATE_TOL) -> np.ndarray:
    """Phase vector omega of W = u1^dag u2 for magic-diagonal inputs.

    Both operators must be unitary and diagonal in the magic basis within
    `tol`, which must be finite and > 0 (DomainError); W then acts as
    e^{-i omega_k} on magic vector k.  Entries are wrapped to (-pi, pi] and
    kept in magic-basis order (not sorted).  Both gates are checked for
    shape and unitarity (NotUnitaryError), first gate first, before either
    is checked for magic-diagonality (NotMagicDiagonalError), as the CLI
    checks its gate files.
    """
    # both gates go through each check as one (2, 4, 4) stack
    m = magic_rep(numerics.require_gates((u1, u2), tol))
    worst = np.abs(m * _OFF_DIAG).max(axis=(1, 2))
    for name, w in zip(numerics.PAIR_NAMES, worst.tolist()):
        if w > tol:
            raise NotMagicDiagonalError(
                f"{name} has off-diagonal magic-basis weight {w:.3e} "
                f"(tolerance {tol:g}); decompose it and strip the local "
                f"factors first"
            )
    d = np.diagonal(m, axis1=1, axis2=2)
    w = d[0].conj() * d[1]
    # np.angle(w), without its wrapper
    return wrap_angle(-np.arctan2(w.imag, w.real))


def classify(alpha) -> GateClass:
    """Identity, swap-like, or entangling, by chamber position."""
    a = check_weyl(alpha).tolist()
    if max(map(abs, a)) <= _CLASS_TOL:
        return GateClass.IDENTITY
    if max(abs(x - QUARTER_PI) for x in a) <= _CLASS_TOL:
        return GateClass.SWAP_LIKE
    return GateClass.ENTANGLING


def random_weyl_vector(rng) -> np.ndarray:
    """Uniform draw from the open Weyl chamber."""
    while True:
        a = np.sort(rng.uniform(0.0, QUARTER_PI, size=3))[::-1]
        if a[2] > 0.0 and a[0] < QUARTER_PI and a[0] > a[1] > a[2]:
            return a
