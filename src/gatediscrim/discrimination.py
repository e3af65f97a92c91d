"""Single-query discrimination of magic-diagonal two-qubit gates.

Given two gates that are diagonal in the magic basis, everything about
telling them apart with one use is controlled by the relative phase vector
omega: the worst-case output overlap equals the distance from the origin to
the convex hull of the points e^{-i omega_k}, and a product probe always
suffices to reach it.  This module computes that fidelity, builds an
optimal product probe, and packages the Helstrom error bound.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import canonical, geometry, numerics
from .errors import ConstructionFailedError, DomainError
from .numerics import GATE_TOL, SQRT_HALF, VERDICT_TOL


class CaseTag(enum.Enum):
    ORIGIN_INSIDE = "OriginInside"
    ORIGIN_OUTSIDE = "OriginOutside"


@dataclass(frozen=True, eq=False)
class ProbeState:
    """A two-qubit product probe, given by its four magic-basis amplitudes.

    `ProbeState(u)` keeps a read-only copy of `u` and is the one check of a
    probe: `u` must be 4 amplitudes of unit norm, as
    `numerics.require_normalized` takes them, else DomainError
    (NotNormalizedError for the norm), and its `concurrence` at most
    `numerics.VERDICT_TOL`, else DomainError: an entangled state is never
    a probe.  The rest is a function of `u`, computed on first read and
    kept: the ket `psi_computational`, equal to `MAGIC_BASIS @ u`, and
    its single-qubit factors `local_a` and `local_b`.  Like
    `DiscriminationReport`, a probe compares and hashes by identity: an
    array field has no single truth value to compare by.
    """

    u: np.ndarray
    concurrence: float = field(init=False)

    def __post_init__(self):
        u = numerics.require_normalized(self.u, "probe amplitudes").copy()
        u.flags.writeable = False
        c = _concurrence(u)
        if not (c <= VERDICT_TOL):
            raise DomainError(
                f"probe amplitudes have concurrence {c:.3e} above {VERDICT_TOL:g}"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "concurrence", c)

    @property
    def via_fallback(self) -> bool:
        """Always False: the closed form is the only route; the JSON probe
        block and the benchmark's reader keep the name."""
        return False

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.u) ** 2

    @functools.cached_property
    def psi_computational(self) -> np.ndarray:
        psi = canonical.MAGIC_BASIS @ self.u
        psi.flags.writeable = False
        return psi

    @functools.cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        # only whoever prepares the probe reads its factors, so a request
        # that does not read them never factors the ket
        return _factor(self.psi_computational)

    @property
    def local_a(self) -> np.ndarray:
        """Alice's qubit: kron(`local_a`, `local_b`) equals the ket, with
        the first significant component of `local_a` real nonnegative."""
        return self._factors[0]

    @property
    def local_b(self) -> np.ndarray:
        """Bob's qubit, see `local_a`."""
        return self._factors[1]


@dataclass(frozen=True, eq=False)
class DiscriminationReport:
    """`discriminate`'s answer for one gate pair.

    `omega` holds the relative phases, each in (-pi, pi]; `fidelity` the
    worst-case output overlap F, the origin's distance to the hull of the
    points e^{-i omega_k} (0 when the origin is within VERDICT_TOL of it);
    `p1` and `p2` the priors; `error_probability` the Helstrom bound at
    F; `perfectly_distinguishable` whether one query tells the gates apart
    with certainty; `probe` an optimal product probe, and `achieved_value`
    the overlap that probe reaches, within VERDICT_TOL of `fidelity`.
    A report compares and hashes by identity, as `ProbeState` does.
    """

    omega: np.ndarray
    fidelity: float
    p1: float
    p2: float
    error_probability: float
    perfectly_distinguishable: bool
    probe: ProbeState
    achieved_value: float

    @property
    def case(self) -> CaseTag:
        """The hull case, read off the verdict so the two always agree."""
        if self.perfectly_distinguishable:
            return CaseTag.ORIGIN_INSIDE
        return CaseTag.ORIGIN_OUTSIDE


def concurrence(u) -> float:
    """|sum_k u_k^2| for normalized magic amplitudes; 0 iff product state."""
    return _concurrence(numerics.require_normalized(u, name="magic amplitudes"))


def _concurrence(u) -> float:
    """`concurrence` of an array of amplitudes whose caller has checked
    their norm."""
    return abs(sum(z * z for z in u.tolist()))


def _factor(psi) -> tuple[np.ndarray, np.ndarray]:
    """Normalized qubit factors (a, b) of the ket psi of a product state,
    with kron(a, b) equal to psi in the gauge that makes the first
    significant component of `a` real and nonnegative."""
    amp = psi.reshape(2, 2)
    row = int((np.abs(amp) ** 2).sum(axis=1).argmax())
    b = amp[row] / np.linalg.norm(amp[row])
    a = amp @ b.conj()
    a = a / np.linalg.norm(a)
    # gauge: rotate the first significant component of `a` to the real axis
    lead = int((np.abs(a) > 1e-9).argmax())
    phase = a[lead] / abs(a[lead])
    return a * phase.conjugate(), b * phase


def error_probability(fid: float, p1: float, p2: float) -> float:
    """Helstrom bound (1 - sqrt(1 - 4 p1 p2 F^2)) / 2 for overlap F; each
    prior as `numerics.require_prior` takes it, the two summing to 1."""
    p1 = numerics.require_prior(p1)
    p2 = numerics.require_prior(p2, "p2")
    if abs(p1 + p2 - 1.0) > 1e-9:
        raise DomainError(f"priors ({p1!r}, {p2!r}) must sum to 1")
    # written as not (lo <= x <= hi) so that NaN fails; the bounds are
    # finite, so infinities fail too
    if not (-1e-9 <= numerics.require_real(fid, "fidelity") <= 1.0 + 1e-9):
        raise DomainError(f"fidelity {fid!r} outside [0, 1]")
    return _error_probability(fid, p1, p2)


def _error_probability(fid: float, p1: float, p2: float) -> float:
    """`error_probability` of an overlap and priors its caller has checked."""
    f = min(max(fid, 0.0), 1.0)
    rad = 1.0 - 4.0 * p1 * p2 * f * f
    return 0.5 * (1.0 - math.sqrt(max(rad, 0.0)))


def achieved_overlap(u, omega) -> float:
    """|sum_k |u_k|^2 e^{-i omega_k}| actually reached by amplitudes u.

    Raises DomainError unless u holds 4 amplitudes of unit norm (within
    NORM_TOL, else NotNormalizedError) and omega 4 finite phases.
    """
    u = numerics.require_normalized(u, name="magic amplitudes")
    return _achieved_overlap(u, numerics.require_finite(omega, "omega", 4).tolist())


def _achieved_overlap(u, om) -> float:
    """`achieved_overlap` of an array of amplitudes and 4 phases, as floats,
    that their caller has checked."""
    x = y = 0.0
    for z, w in zip(u.tolist(), om):
        p = z.real * z.real + z.imag * z.imag
        x += p * math.cos(w)
        y -= p * math.sin(w)
    return math.hypot(x, y)


def _varignon_weights(mids) -> list[float]:
    """Convex weights alpha over a midpoint cycle M0..M3 with sum alpha_k M_k = 0.

    Edge midpoints of any quadrilateral form a parallelogram (Varignon), so
    about its centre c, M2 - c = -(M0 - c) and M3 - c = -(M1 - c).  Solving
    0 = c + a (M0 - c) + b (M1 - c) places the origin in the fan triangle
    (M0, M1, M2) when b >= 0 and in (M0, M2, M3) otherwise.  The system is
    regular because the sides are half the quadrilateral's diagonals, which
    cross (or, for a padded triangle, share one vertex).  An origin within
    the verdict tolerance outside the parallelogram gets clipped weights.
    `mids` holds four (x, y) pairs.  The goldens and the fingerprint's
    digests pin the bytes of the weights, so the order of the sums is fixed.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = mids
    cx = (((x0 + x1) + x2) + x3) / 4
    cy = (((y0 + y1) + y2) + y3) / 4
    p, q, r, s = x0 - cx, y0 - cy, x1 - cx, y1 - cy
    det = p * s - q * r
    a = (r * cy - s * cx) / det
    b = (q * cx - p * cy) / det
    raw = ((1.0 - abs(b) + a) / 2, b, (1.0 - abs(b) - a) / 2, -b)
    # clipped at 0 the way np.clip does it: -0.0 becomes 0.0
    alpha = [x if x > 0.0 else 0.0 for x in raw]
    total = ((alpha[0] + alpha[1]) + alpha[2]) + alpha[3]
    return [x / total for x in alpha]


def _amplitudes_for_hull(hull: geometry.HullResult) -> np.ndarray:
    """The closed-form probe's magic amplitudes: an even cycle of vertices
    with their magnitudes, phased 1, i, 1, i around it, so that sum(u^2)
    cancels and the probe is a product state."""
    if hull.extremes:
        # a chord on the hull's extremes, which realizes its distance (also
        # in the verdict's band, where Varignon weights clip and can miss).
        # Equal weight at each end; 1/sqrt(2) is spelled two ways, an ulp
        # apart, and the goldens pin both
        verts = hull.extremes
        mags = [math.sqrt(0.5) if hull.origin_inside else SQRT_HALF] * 2
    else:
        # the four raw points counter-clockwise, so a triangle's double
        # vertex pads it to a quadrilateral; vertex k's weight is the mean
        # of the weights of the two midpoints on it
        verts = hull.order
        pts = [(math.cos(hull.phases[i]), math.sin(hull.phases[i])) for i in verts]
        mids = [
            (0.5 * (x + x1), 0.5 * (y + y1))
            for (x, y), (x1, y1) in zip(pts, pts[1:] + pts[:1])
        ]
        alpha = _varignon_weights(mids)
        mags = [math.sqrt(0.5 * (alpha[k] + alpha[k - 1])) for k in range(4)]
    u = [0j] * 4
    for pos, (i, r) in enumerate(zip(verts, mags)):
        u[i] = r * (1.0 if pos % 2 == 0 else 1.0j)
    return np.array(u)


def construct_probe(omega) -> ProbeState:
    """Optimal product probe for the relative phase vector omega.

    The closed form: whenever the hull of the points e^{-i omega_k} is a
    chord, a 90 degree phased chord on its ends (`HullResult.extremes`).
    That is a spread below pi, where the hull misses the origin (by at
    most VERDICT_TOL in the verdict's band), phases close enough to be
    one point (see `geometry.hull_of_phases`), or two ends of the largest
    empty arc whose chord passes within VERDICT_TOL of the origin.
    Varignon midpoint weights over the four raw points when a polygon
    holds the origin.  The returned state is a product state, as every
    `ProbeState` is, whose overlap |<psi|W|psi>| under the rotation W
    fixed by omega equals the hull minimum within `numerics.VERDICT_TOL`;
    a miss raises ConstructionFailedError.
    """
    om = geometry._finite_phases(omega, "omega", 4)
    return _probe_for_hull(om, geometry._hull_of_omega(om))[0]


def _probe_for_hull(om, hull: geometry.HullResult) -> tuple[ProbeState, float]:
    """(probe, the overlap it achieves) for the hull of -om, 4 phases as
    floats; an overlap more than VERDICT_TOL from the hull minimum raises
    ConstructionFailedError."""
    probe = ProbeState(_amplitudes_for_hull(hull))
    got, target = _achieved_overlap(probe.u, om), hull.min_distance
    if not (abs(got - target) <= VERDICT_TOL):  # written so that NaN fails
        raise ConstructionFailedError(f"probe reaches {got!r}, hull minimum {target!r}")
    return probe, got


def discriminate(u1, u2, p1: float = 0.5, tol: float = GATE_TOL) -> DiscriminationReport:
    """Full single-query analysis of a magic-diagonal gate pair.

    The report's `fidelity` F is the origin distance of the hull of the
    points e^{-i omega_k}, i.e. min over probes of |<psi| u1^dag u2 |psi>|,
    and `perfectly_distinguishable` says whether one query separates the
    gates with certainty (F within VERDICT_TOL of 0, reported as 0).  The
    gates are checked as `canonical.relative_phases` checks them.
    """
    p1 = numerics.require_prior(p1)
    p2 = 1.0 - p1
    om = canonical.relative_phases(u1, u2, tol=tol)
    phases = om.tolist()
    hull = geometry._hull_of_omega(phases)
    probe, achieved = _probe_for_hull(phases, hull)
    return DiscriminationReport(
        omega=om,
        fidelity=hull.min_distance,
        p1=p1,
        p2=p2,
        error_probability=_error_probability(hull.min_distance, p1, p2),
        perfectly_distinguishable=hull.origin_inside,
        probe=probe,
        achieved_value=achieved,
    )
