"""Independent numerical checks for the closed-form results.

The searches use neither the magic basis nor the arc spread of the
phases; only the product search's probe record does, since a probe is its
magic amplitudes: `ProbeState(u)` checks it as it checks every probe.  The
product-state search fixes Alice's factor on a Bloch-angle grid with
deterministic refinement and solves Bob's factor exactly for each of her
states: <a x b|W|a x b> is affine in Bob's Bloch vector, so his best
response is a point-to-ellipse distance (see `_kernels`).  Each scan
returns its winner's angles and, when it beats the incumbent, Bob's Bloch
vector for that state, and the probe is built from the best scan's pair.
The all-states optimum, exact from the eigenvalues of u1^dag u2 (a normal
matrix's numerical range is their convex hull), ends the refinement once
reached; `helstrom_simulate` samples the measurement's confusion counts.
They can therefore confirm (or refute) the analytic pipeline.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import canonical, numerics
from .discrimination import ProbeState
from .errors import DomainError

# contraction of the product search's refinement window per round
SHRINK_FACTOR = 0.25
# a refinement window's 9 points, in half-widths from its center
_STEPS = np.linspace(-1.0, 1.0, 9)
# the product search stops once within this of the all-states optimum: both
# are at most 1 and good to a few ulps, but come from different arithmetic
_FLOOR_SLACK = 8.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the deterministic product-state search.

    grid_steps:        points per axis of Alice's Bloch sphere in the coarse
                       scan: grid_steps thetas in [0, pi] by grid_steps phis
                       in [0, 2 pi); Bob's factor is solved exactly
    refinement_rounds: at most this many local 9 x 9 refinements of Alice's
                       angles, each window SHRINK_FACTOR times the last

    The coarse minimum is within sqrt(2) h of the product optimum, h being
    the grid's covering radius on Alice's sphere (chordal; at most half a
    theta step plus half a phi step): |<a x b|W|a x b>| = |r_a^T T r_b| is
    sqrt(2)-Lipschitz in Alice's Bloch vector, since ||T||_F = 4 for a
    unitary W and |r_b| = 1/sqrt(2), and a minimum over Bob keeps that
    constant.  That bounds the coarse scan only; the refinements carry no
    such certificate, but stop at the all-states optimum, a proven floor.

    A config builds its coarse grid's axes and Bloch rows on first use and
    keeps them, read-only, for every search it serves; cfg=None means one
    module-level default config.  A grid beyond one scan block
    (`_kernels._ALICE_BLOCK` states) keeps its axes only, and the scan
    builds its rows block by block, so memory stays bounded.
    """

    grid_steps: int = 32
    refinement_rounds: int = 4

    def __post_init__(self):
        numerics.require_count(self.grid_steps, 8, "grid_steps")
        numerics.require_count(self.refinement_rounds, 0, "refinement_rounds")

    @functools.cached_property
    def _grid(self):
        """`_kernels.scan_grid` of this grid, built on first use and kept."""
        from . import _kernels

        return _kernels.scan_grid(self.grid_steps)


# what cfg=None means; it keeps its coarse grid across calls
_DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class ShotOutcome:
    """Result of a finite-shot Helstrom measurement simulation."""

    shots: int
    errors: int
    empirical_rate: float
    std_error: float
    seed: int
    confusion: tuple[tuple[int, int], tuple[int, int]]


def min_over_product_states(u1, u2, cfg: SearchConfig | None = None):
    """Minimize |<psi|u1^dag u2|psi>| over product probes psi = a x b.

    Bob's side is solved exactly for each of Alice's states (see
    `_kernels.alice_scan`), so only Alice's Bloch sphere is searched: a
    coarse (theta, phi) grid, then up to `refinement_rounds` shrinking 9 x 9
    refinements around the incumbent, which stop once it is within
    _FLOOR_SLACK of the exact all-states optimum, a floor for every product
    probe; the incumbent only improves, and exact ties resolve toward the
    lower row-major grid index.  Bob's factor is his exact best response
    to the winning state.  Returns (value, ProbeState), the value being
    |<psi|u1^dag u2|psi>| of that probe's own ket psi.  DomainError unless
    `cfg` is None (the default SearchConfig) or a SearchConfig.
    """
    # imported on first use, so that `import gatediscrim` and the CLI's
    # other commands do not load the kernels
    from . import _kernels

    cfg = _search_config(cfg)
    u1, u2 = numerics.require_gates((u1, u2))
    w = u1.conj().T @ u2
    theta, phi, rows_t = cfg._grid
    val, center, nb = _kernels.alice_scan(w, theta, phi, rows_t)
    # the refinement's first spacing is the coarse axes' own step
    spacing = np.array([theta[1], phi[1]])
    floor = _range_min(np.linalg.eigvals(w).tolist())[0] if val > 0.0 else 0.0
    for r in range(cfg.refinement_rounds):
        if val <= floor + _FLOOR_SLACK:
            break
        # row 0 is the theta window, kept in [0, pi]; row 1 the phi window
        window = center[:, None] + (spacing * SHRINK_FACTOR**r)[:, None] * _STEPS
        np.clip(window[0], 0.0, math.pi, out=window[0])
        scan = _kernels.alice_scan(w, *window, incumbent=val)
        if scan[0] < val:
            val, center, nb = scan
    ta, pa = center
    a = np.array([math.cos(0.5 * ta), math.sin(0.5 * ta) * np.exp(1j * pa)])
    probe = ProbeState(canonical.MAGIC_BASIS.conj().T @ np.multiply.outer(a, _ket(nb)).ravel())
    psi = probe.psi_computational
    return float(abs(psi.conj() @ w @ psi)), probe


def _search_config(cfg) -> SearchConfig:
    """cfg, or the default SearchConfig for None; DomainError otherwise."""
    cfg = _DEFAULT_CONFIG if cfg is None else cfg
    if not isinstance(cfg, SearchConfig):
        raise DomainError(f"cfg must be a SearchConfig or None, got {cfg!r}")
    return cfg


def _ket(n) -> np.ndarray:
    """A unit ket with Bloch vector n, from the better-conditioned column."""
    x, y, z = n
    if z >= 0.0:
        return np.array([1.0 + z, x + 1j * y]) / math.sqrt(2.0 * (1.0 + z))
    return np.array([x - 1j * y, 1.0 - z]) / math.sqrt(2.0 * (1.0 - z))


def min_over_all_states(u1, u2, cfg: SearchConfig | None = None):
    """Minimize |<psi|u1^dag u2|psi>| over arbitrary normalized kets, exactly.

    W = u1^dag u2 is normal, so {<psi|W|psi> : |psi| = 1} is the convex hull
    of its eigenvalues (Toeplitz-Hausdorff for normal matrices; Horn &
    Johnson, Topics in Matrix Analysis, 1.2).  The minimum is 0 when a
    non-degenerate triangle of eigenvalues contains the origin, and otherwise
    the least origin-to-segment distance over the eigenvalue pairs; psi mixes
    the eigenvectors involved with the square roots of the barycentric or
    segment weights.  There is nothing to tune: `cfg` is checked as
    `min_over_product_states` checks it, and not used.  Returns (value, psi).
    """
    _search_config(cfg)
    u1, u2 = numerics.require_gates((u1, u2))
    lam, vecs = np.linalg.eig(u1.conj().T @ u2)
    # eig need not return orthogonal vectors for a repeated eigenvalue; QR
    # makes them orthonormal and keeps each column in its eigenspace
    vecs = np.linalg.qr(vecs)[0]
    value, cols, weights = _range_min(lam.tolist())
    return value, _mix(vecs, cols, weights)


def _range_min(z):
    """(value, cols, weights) of the least |x| over the hull of the points z:
    0 and a triangle holding the origin, else the nearest segment."""

    def cross(p, q):
        return p.real * q.imag - p.imag * q.real

    for tri in itertools.combinations(range(len(z)), 3):
        a, b, c = (z[k] for k in tri)
        # doubled areas of (0, b, c), (0, c, a), (0, a, b); taken against
        # the edges, so a tiny triangle of near-equal eigenvalues keeps the
        # signs of its floating-point vertices rather than rounding noise
        weights = (cross(b, c - b), cross(c, a - c), cross(a, b - a))
        area = sum(weights)
        # collinear triples are skipped: the segment pass covers them.  The
        # signs are compared, not multiplied: w * area underflows to +-0.0
        # for a triangle of eigenvalues a few ulps apart
        inside = all(w == 0.0 or (w > 0.0) == (area > 0.0) for w in weights)
        if area != 0.0 and inside:
            return 0.0, tri, [w / area for w in weights]
    value = math.inf
    for i, j in itertools.combinations(range(len(z)), 2):
        d = z[j] - z[i]
        dd = abs(d) ** 2
        s = min(max(-(z[i].conjugate() * d).real / dd, 0.0), 1.0) if dd else 0.0
        dist = abs(z[i] + s * d)
        if dist < value:
            value, pair, weights = dist, (i, j), (1.0 - s, s)
    return value, pair, weights


def _mix(vecs, cols, weights):
    psi = vecs[:, list(cols)] @ np.sqrt(weights)
    return psi / np.linalg.norm(psi)


def helstrom_simulate(
    u1,
    u2,
    probe: ProbeState,
    p1: float = 0.5,
    shots: int = 10_000,
    seed: int = 0,
    tol: float = numerics.GATE_TOL,
) -> ShotOutcome:
    """Sample the optimal two-outcome measurement for u1-vs-u2 on `probe`.

    Each shot draws the true gate with prior (p1, 1-p1), applies it to the
    probe, and measures the Helstrom projector pair built from the two
    possible outputs.  Its rates of guessing the first gate have a closed
    form in the priors and the outputs' overlap F (Helstrom, Quantum
    Detection and Estimation Theory, 1976), and orthogonal outputs produce
    exactly zero errors.  The shots are independent, so the confusion
    counts are drawn as binomials, in memory independent of `shots`.
    Deterministic for a fixed seed.  `shots` must be an integer in
    [1, 2**63 - 1] and `seed` an integer >= 0 (a bool is neither), `p1` a
    prior as `numerics.require_prior` takes it, `tol`, the gates'
    unitarity tolerance, finite and > 0, and `probe` a ProbeState, else
    DomainError.
    """
    # numpy's binomial takes counts up to the int64 maximum
    if numerics.require_count(shots, 1, "shots") > np.iinfo(np.int64).max:
        raise DomainError("shots must be at most 2**63 - 1")
    numerics.require_count(seed, 0, "seed")
    p1 = numerics.require_prior(p1)
    u1, u2 = numerics.require_gates((u1, u2), tol)
    p2 = 1.0 - p1
    if not isinstance(probe, ProbeState):
        raise DomainError(f"probe must be a ProbeState, got {probe!r}")
    psi = probe.psi_computational
    # on the outputs' span, Gamma = p1 |out1><out1| - p2 |out2><out2| has
    # eigenvalues (p1 - p2 +- r) / 2 with r = sqrt(1 - 4 p1 p2 F^2), so its
    # positive projector is (Gamma - lambda_-) / r; q_k is its expectation
    # in out_k, the rate at which gate k is guessed as the first
    c = complex(np.vdot(u1 @ psi, u2 @ psi))
    f2 = c.real * c.real + c.imag * c.imag
    r = math.sqrt(max(0.0, 1.0 - 4.0 * p1 * p2 * f2))
    if r > 0.0:
        q1 = min(max(0.5 + (0.5 - p2 * f2) / r, 0.0), 1.0)
        q2 = min(max(0.5 + (p1 * f2 - 0.5) / r, 0.0), 1.0)
    else:
        # Gamma = 0 on the span: a 0 eigenvalue counts toward the first gate
        q1 = q2 = 1.0
    rng = np.random.default_rng(seed)
    n1 = int(rng.binomial(shots, p1))
    c11 = int(rng.binomial(n1, q1))
    c21 = int(rng.binomial(shots - n1, q2))
    c12 = n1 - c11
    c22 = shots - n1 - c21
    errors = c12 + c21
    rate = errors / shots
    return ShotOutcome(
        shots=shots,
        errors=errors,
        empirical_rate=rate,
        std_error=math.sqrt(rate * (1.0 - rate) / shots),
        seed=seed,
        confusion=((c11, c12), (c21, c22)),
    )
