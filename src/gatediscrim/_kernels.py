"""The grid scan over product probe states, the package's one hot loop.

The scan walks the grid in row-major order and breaks exact ties toward
the lower linear index.
"""

from __future__ import annotations

import numpy as np

# There is no compiled route; the benchmark's machine record reads this.
NUMBA_ENABLED = False


def product_scan(w, ta, pa, tb, pb):
    """Min of |<psi_a x psi_b| w |psi_a x psi_b>| over the Bloch-angle grid.

    Returns (value, linear_index) with the linear index running row-major
    over (i_ta, j_pa, k_tb, l_pb).
    """
    w = np.asarray(w, dtype=complex).reshape(2, 2, 2, 2)
    # single-qubit states for both factors, flattened grid-major
    ha, hb = 0.5 * np.asarray(ta), 0.5 * np.asarray(tb)
    a = np.empty((len(ta) * len(pa), 2), dtype=complex)
    a[:, 0] = np.repeat(np.cos(ha), len(pa))
    a[:, 1] = np.repeat(np.sin(ha), len(pa)) * np.tile(np.exp(1j * np.asarray(pa)), len(ta))
    b = np.empty((len(tb) * len(pb), 2), dtype=complex)
    b[:, 0] = np.repeat(np.cos(hb), len(pb))
    b[:, 1] = np.repeat(np.sin(hb), len(pb)) * np.tile(np.exp(1j * np.asarray(pb)), len(tb))
    # contract the A factor first: t[x, j, l] for every A grid state x
    t1 = np.einsum("xi,ijkl->xjkl", a.conj(), w)
    t2 = np.einsum("xjkl,xk->xjl", t1, a)
    vals = np.abs(np.einsum("yj,xjl,yl->xy", b.conj(), t2, b))
    flat = int(np.argmin(vals))  # row-major: ties resolve to lower index
    return float(vals.flat[flat]), flat
