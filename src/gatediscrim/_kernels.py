"""The grid scan over product probe states, the package's one hot loop.

A single-qubit state s = (cos t/2, e^{ip} sin t/2) has s s^dag =
sum_mu r_mu sigma_mu with the real Bloch row r = (1, sin t cos p,
sin t sin p, cos t) / 2.  So for a product ket a x b, <a x b| w |a x b> =
r_a^T T r_b with T_{mu nu} = tr(w (sigma_mu x sigma_nu)): its real and
imaginary parts are two real bilinear forms in Re T and Im T, and the
whole grid is two real matrix products of 4-column factors.  The scan runs
them in blocks of A-grid rows and keeps the least squared modulus, so
memory stays at one block of values whatever the grid size.  It walks the
grid in row-major order and breaks exact ties toward the lower linear
index.
"""

from __future__ import annotations

import math

import numpy as np

# There is no compiled route; the benchmark's machine record reads this.
NUMBA_ENABLED = False

# A-grid states per block; a block is two float arrays of _BLOCK x (B-grid
# states) values, the real and imaginary parts, then the squared modulus
_BLOCK = 64

_PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
# entry [(mu, nu), (i, j, k, l)] is (sigma_mu x sigma_nu)[(k, l), (i, j)], so
# _PAULI_PAIRS @ w.ravel() lists tr(w (sigma_mu x sigma_nu)) row-major
_PAULI_PAIRS = np.einsum("mki,nlj->mnijkl", _PAULIS, _PAULIS).reshape(16, 16)


def _bloch_rows(theta, phi) -> np.ndarray:
    """Bloch rows r of the states s(theta, phi), grid-major, as an (n, 4) array."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    half_sin = 0.5 * np.sin(theta)[:, None]
    rows = np.empty((len(theta), len(phi), 4))
    rows[..., 0] = 0.5
    rows[..., 1] = half_sin * np.cos(phi)
    rows[..., 2] = half_sin * np.sin(phi)
    rows[..., 3] = 0.5 * np.cos(theta)[:, None]
    return rows.reshape(-1, 4)


def product_scan(w, ta, pa, tb, pb):
    """Min of |<psi_a x psi_b| w |psi_a x psi_b>| over the Bloch-angle grid.

    Returns (value, linear_index) with the linear index running row-major
    over (i_ta, j_pa, k_tb, l_pb).
    """
    t = (_PAULI_PAIRS @ np.asarray(w, dtype=complex).ravel()).reshape(4, 4)
    rows_a = _bloch_rows(ta, pa)
    a_re, a_im = rows_a @ t.real, rows_a @ t.imag
    rb = np.ascontiguousarray(_bloch_rows(tb, pb).T)
    n_a, n_b = rows_a.shape[0], rb.shape[1]
    re = np.empty((min(_BLOCK, n_a), n_b))
    im = np.empty_like(re)
    best_sq, best_lin = math.inf, 0
    for start in range(0, n_a, _BLOCK):
        stop = min(start + _BLOCK, n_a)
        sq, im_sq = re[: stop - start], im[: stop - start]
        np.matmul(a_re[start:stop], rb, out=sq)
        np.matmul(a_im[start:stop], rb, out=im_sq)
        # |z| below ~1e-154 squares to a subnormal or 0, far under any bound
        sq *= sq
        im_sq *= im_sq
        sq += im_sq
        flat = int(sq.argmin())  # row-major: ties resolve to lower index
        if sq.flat[flat] < best_sq:  # strict: earlier blocks win ties
            best_sq, best_lin = float(sq.flat[flat]), start * n_b + flat
    return math.sqrt(best_sq), best_lin
