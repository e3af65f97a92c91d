"""The grid scan over product probe states, the package's one hot loop.

For a product ket a x b, <a x b| w |a x b> is bilinear in the outer
products conj(a_i) a_k and conj(b_j) b_l, so the whole grid is one matrix
product A W B^T of 4-column factors.  The scan runs it in blocks of A-grid
rows, so memory stays at one block of values whatever the grid size.  It
walks the grid in row-major order and breaks exact ties toward the lower
linear index.
"""

from __future__ import annotations

import numpy as np

# There is no compiled route; the benchmark's machine record reads this.
NUMBA_ENABLED = False

# A-grid states per block; one block holds _BLOCK x (B-grid states) values
_BLOCK = 64


def _outer_rows(theta, phi) -> np.ndarray:
    """Rows conj(s_i) s_k over (i, k) for the states s(theta, phi), grid-major."""
    h = 0.5 * np.asarray(theta, dtype=float)
    n_phi = len(phi)
    c = np.repeat(np.cos(h), n_phi)
    s = np.repeat(np.sin(h), n_phi) * np.tile(np.exp(1j * np.asarray(phi)), len(h))
    return np.stack([c * c, c * s, c * s.conj(), s.conj() * s], axis=1)


def product_scan(w, ta, pa, tb, pb):
    """Min of |<psi_a x psi_b| w |psi_a x psi_b>| over the Bloch-angle grid.

    Returns (value, linear_index) with the linear index running row-major
    over (i_ta, j_pa, k_tb, l_pb).
    """
    w = np.asarray(w, dtype=complex).reshape(2, 2, 2, 2)
    # w[(i, j), (k, l)] regrouped as W[(i, k), (j, l)]
    aw = _outer_rows(ta, pa) @ w.transpose(0, 2, 1, 3).reshape(4, 4)
    bt = np.ascontiguousarray(_outer_rows(tb, pb).T)
    n_b = bt.shape[1]
    best_val, best_lin = np.inf, 0
    for start in range(0, aw.shape[0], _BLOCK):
        vals = np.abs(aw[start : start + _BLOCK] @ bt)
        flat = int(np.argmin(vals))  # row-major: ties resolve to lower index
        if vals.flat[flat] < best_val:  # strict: earlier blocks win ties
            best_val, best_lin = float(vals.flat[flat]), start * n_b + flat
    return best_val, best_lin
