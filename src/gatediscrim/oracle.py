"""Independent numerical checks for the closed-form results.

Nothing here reuses the hull geometry: the product-state search walks a
Bloch-angle grid with deterministic refinement, the all-states search runs
a seeded random multistart, and `helstrom_simulate` samples the
measurement's confusion counts.  These are deliberately brute-force so
they can confirm (or refute) the analytic pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, numerics
from .discrimination import ProbeState, probe_from_factors
from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the deterministic searches.

    grid_steps:        points per Bloch axis in the coarse product scan
    refinement_rounds: local 9-point refinements after the coarse scan
    shrink_factor:     contraction of the refinement window per round
    seed:              numpy Generator seed for the randomized search
    """

    grid_steps: int = 32
    refinement_rounds: int = 4
    shrink_factor: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.grid_steps < 8:
            raise DomainError(f"grid_steps must be >= 8, got {self.grid_steps}")
        if self.refinement_rounds < 0:
            raise DomainError("refinement_rounds must be >= 0")
        if not (0.0 < self.shrink_factor < 1.0):
            raise DomainError(
                f"shrink_factor must lie in (0, 1), got {self.shrink_factor}"
            )
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")


@dataclass(frozen=True)
class ShotOutcome:
    """Result of a finite-shot Helstrom measurement simulation."""

    shots: int
    errors: int
    empirical_rate: float
    std_error: float
    seed: int
    confusion: tuple[tuple[int, int], tuple[int, int]]


def _angle_axes(cfg: SearchConfig):
    g = cfg.grid_steps
    theta = np.linspace(0.0, math.pi, g)
    phi = np.linspace(0.0, TWO_PI, g, endpoint=False)
    return theta, phi


def _unpack(lin: int, shapes) -> tuple[int, ...]:
    out = []
    for s in reversed(shapes):
        out.append(lin % s)
        lin //= s
    return tuple(reversed(out))


def min_over_product_states(u1, u2, cfg: SearchConfig | None = None):
    """Grid-minimize |<psi|u1^dag u2|psi>| over product probes psi.

    Coarse scan over (theta_a, phi_a, theta_b, phi_b), then shrinking
    9-point refinements around the incumbent; the incumbent only improves,
    and exact ties resolve toward the lower row-major grid index.  Returns
    (value, ProbeState of the best product probe found).
    """
    cfg = cfg or SearchConfig()
    u1 = numerics.require_unitary(u1, name="first gate")
    u2 = numerics.require_unitary(u2, name="second gate")
    w = u1.conj().T @ u2
    theta, phi = _angle_axes(cfg)
    val, lin = _kernels.product_scan(w, theta, phi, theta, phi)
    i, j, k, l = _unpack(lin, (len(theta), len(phi), len(theta), len(phi)))
    center = np.array([theta[i], phi[j], theta[k], phi[l]])
    spacing = np.array(
        [
            math.pi / (cfg.grid_steps - 1),
            TWO_PI / cfg.grid_steps,
            math.pi / (cfg.grid_steps - 1),
            TWO_PI / cfg.grid_steps,
        ]
    )
    for r in range(cfg.refinement_rounds):
        h = spacing * cfg.shrink_factor**r
        axes = []
        for ax in range(4):
            grid = np.linspace(center[ax] - h[ax], center[ax] + h[ax], 9)
            if ax % 2 == 0:
                grid = np.clip(grid, 0.0, math.pi)
            axes.append(grid)
        v2, lin2 = _kernels.product_scan(w, *axes)
        if v2 < val:
            val = v2
            idx = _unpack(lin2, tuple(len(a) for a in axes))
            center = np.array([axes[ax][idx[ax]] for ax in range(4)])
    ta, pa, tb, pb = center
    a = np.array([math.cos(0.5 * ta), math.sin(0.5 * ta) * np.exp(1j * pa)])
    b = np.array([math.cos(0.5 * tb), math.sin(0.5 * tb) * np.exp(1j * pb)])
    return val, probe_from_factors(a, b)


def min_over_all_states(u1, u2, cfg: SearchConfig | None = None):
    """Minimize |<psi|u1^dag u2|psi>| over arbitrary normalized kets.

    Seeded random multistart plus shrinking Gaussian refinement; the start
    set always includes the best product probe, so the returned value never
    exceeds the product-search value.  Returns (value, psi).
    """
    cfg = cfg or SearchConfig()
    prod_val, prod_probe = min_over_product_states(u1, u2, cfg)
    w = u1.conj().T @ u2

    def batch_vals(states):
        return np.abs(np.einsum("ni,ij,nj->n", states.conj(), w, states))

    rng = np.random.default_rng(cfg.seed)
    n0 = 2048
    starts = rng.normal(size=(n0, 4)) + 1j * rng.normal(size=(n0, 4))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    starts = np.vstack([prod_probe.psi_computational[None, :], starts])
    vals = batch_vals(starts)
    best = int(np.argmin(vals))
    best_val = float(vals[best])
    best_psi = starts[best]
    rounds = max(24, 6 * cfg.refinement_rounds)
    n_per = 160
    sigma = 0.5
    decay = (2e-7) ** (1.0 / max(rounds - 1, 1))
    for _ in range(rounds):
        trial = best_psi[None, :] + sigma * (
            rng.normal(size=(n_per, 4)) + 1j * rng.normal(size=(n_per, 4))
        )
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        vals = batch_vals(trial)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_psi = trial[i]
        sigma *= decay
    if prod_val < best_val:  # pragma: no cover - defensive
        best_val, best_psi = prod_val, prod_probe.psi_computational
    return best_val, best_psi


def helstrom_simulate(
    u1,
    u2,
    probe: ProbeState,
    p1: float = 0.5,
    shots: int = 10_000,
    seed: int = 0,
) -> ShotOutcome:
    """Sample the optimal two-outcome measurement for u1-vs-u2 on `probe`.

    Each shot draws the true gate with prior (p1, 1-p1), applies it to the
    probe, and measures the Helstrom projector pair built from the two
    possible outputs.  Orthogonal outputs therefore produce exactly zero
    errors.  The shots are independent, so the confusion counts are drawn
    as binomials, in memory independent of `shots`.  Deterministic for a
    fixed seed.
    """
    if not (isinstance(shots, (int, np.integer)) and shots >= 1):
        raise DomainError(f"shots must be a positive integer, got {shots!r}")
    if not (0.0 <= p1 <= 1.0):
        raise DomainError(f"prior p1 = {p1!r} outside [0, 1]")
    u1 = numerics.require_unitary(u1, name="first gate")
    u2 = numerics.require_unitary(u2, name="second gate")
    p2 = 1.0 - p1
    psi = numerics.require_normalized(probe.psi_computational, name="probe")
    out1 = u1 @ psi
    out2 = u2 @ psi
    # reduce to the 2D span of the two outputs: out1 -> (1, 0), out2 -> (c, s)
    c = complex(np.vdot(out1, out2))
    perp = out2 - c * out1
    s = float(np.linalg.norm(perp))
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([c, s], dtype=complex)
    gamma = p1 * np.outer(v1, v1.conj()) - p2 * np.outer(v2, v2.conj())
    # closed-form Hermitian 2x2 eigensystem
    tr = float(gamma[0, 0].real + gamma[1, 1].real)
    det = float(
        (gamma[0, 0] * gamma[1, 1] - gamma[0, 1] * gamma[1, 0]).real
    )
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    eigs = (0.5 * (tr + disc), 0.5 * (tr - disc))
    proj = np.zeros((2, 2), dtype=complex)
    for mu in eigs:
        if mu < 0.0:
            continue
        vec = np.array([gamma[0, 1], mu - gamma[0, 0]], dtype=complex)
        nrm = float(np.linalg.norm(vec))
        if nrm < 1e-14:
            # diagonal gamma; pick the axis whose entry matches mu
            on_first = abs(gamma[0, 0].real - mu) <= abs(gamma[1, 1].real - mu)
            vec = np.array([1.0, 0.0] if on_first else [0.0, 1.0], dtype=complex)
            nrm = 1.0
        vec /= nrm
        proj += np.outer(vec, vec.conj())
    # guard: degenerate gamma (both eigenvalues >= 0 with repeated vectors)
    if eigs[0] >= 0.0 and eigs[1] >= 0.0 and disc < 1e-15:
        proj = np.eye(2, dtype=complex)
    q1 = float(np.clip((v1.conj() @ proj @ v1).real, 0.0, 1.0))
    q2 = float(np.clip((v2.conj() @ proj @ v2).real, 0.0, 1.0))
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
        std_error=math.sqrt(max(rate * (1.0 - rate), 0.0) / shots),
        seed=seed,
        confusion=((c11, c12), (c21, c22)),
    )
