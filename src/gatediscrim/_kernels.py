"""The grid scan over product probe states, the package's one hot loop.

A single-qubit state s = (cos t/2, e^{ip} sin t/2) has s s^dag =
sum_mu r_mu sigma_mu with the real Bloch row r = (1, sin t cos p,
sin t sin p, cos t) / 2.  So for a product ket a x b, <a x b| w |a x b> =
r_a^T T r_b with T_{mu nu} = tr(w (sigma_mu x sigma_nu)).  With the real
rows x = r_a Re T and y = r_a Im T of an A-grid state, the squared modulus
(x . r_b)^2 + (y . r_b)^2 is the real quadratic form
sum_{k<=l} q_kl r_b,k r_b,l, whose 10 coefficients q_kl = c_kl (x_k x_l +
y_k y_l) (c_kl = 1 on the diagonal, 2 off it) belong to the A row alone.

The scan makes two passes.  The screen takes the 10 products
r_b,k r_b,l of every B-grid state once, then per block one real
(rows x 10) @ (10 x B states) product and a row minimum; only the row
minima survive.  The screen and the Bloch form round differently, by at
most tau (see `_rounding_bound`), so a row whose screened minimum exceeds
the least one by more than 2 tau cannot hold the minimum.  The rescore
runs the Bloch form -- two real 4-column products and a squared modulus --
on the remaining candidate rows only, in ascending row order, and replaces
the best only on a strict improvement: exact ties go to the lowest
row-major linear index, as in a full Bloch-form scan.  A block holds at
most _BLOCK_STATES grid states and always at least one whole A row, so
memory stays near max(_BLOCK_STATES, B-grid states) values whatever the
grid shape.
"""

from __future__ import annotations

import math

import numpy as np

# There is no compiled route; the benchmark's machine record reads this.
NUMBA_ENABLED = False

# grid states per block, unless one A row alone holds more
_BLOCK_STATES = 2**15

_PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
# entry [(mu, nu), (i, j, k, l)] is (sigma_mu x sigma_nu)[(k, l), (i, j)], so
# _PAULI_PAIRS @ w.ravel() lists tr(w (sigma_mu x sigma_nu)) row-major
_PAULI_PAIRS = np.einsum("mki,nlj->mnijkl", _PAULIS, _PAULIS).reshape(16, 16)

# the screen's index pairs k <= l and their weights c_kl
_K, _L = np.triu_indices(4)
_C = np.where(_K == _L, 1.0, 2.0)
_EPS = float(np.finfo(float).eps)


def _pauli_form(w) -> np.ndarray:
    """T_{mu nu} = tr(w (sigma_mu x sigma_nu)) as a complex 4 x 4 array."""
    return (_PAULI_PAIRS @ np.asarray(w, dtype=complex).ravel()).reshape(4, 4)


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


def _screen_factors(a_re, a_im, rb):
    """The screen's (n_a, 10) coefficients q and (10, n_b) products m."""
    q = _C * (a_re[:, _K] * a_re[:, _L] + a_im[:, _K] * a_im[:, _L])
    return q, rb[_K] * rb[_L]


def _rounding_bound(t) -> float:
    """tau >= |screened - Bloch form| at every grid point of the form t.

    Both passes start from the same floats: the rows x = r_a Re T and
    y = r_a Im T, and the B rows r with |r_k| <= 1/2.  Let
    X = sum_k |x_k r_k| and Y likewise, u = eps / 2 and
    g_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1); the exact value is at most X^2 + Y^2.
      Bloch form: each 4-term dot errs by at most g_4 X (or g_4 Y); with the
        two squares and the add, |error| <= (2 g_4 + 2u)(X^2 + Y^2) + O(u^2).
      Screen: q_kl errs by at most g_2 c_kl (|x_k x_l| + |y_k y_l|), m_kl by
        u |r_k r_l|, the 10-term dot by g_10, so |error| <= g_13 (X^2 + Y^2),
        since sum_{k<=l} c_kl |x_k x_l r_k r_l| = X^2.
    So the two differ by at most 23 u (X^2 + Y^2) (1 + O(u)).  |r_a| <= 1/2
    too, so X <= sum_k |x_k| / 2 <= (1 + g_4) sum |Re T| / 4, and
    (sum |Re T|)^2 + (sum |Im T|)^2 <= (sum |T|)^2 (the triangle inequality
    in the plane): the gap is below 1.5 u (sum |T|)^2 = 0.75 eps (sum |T|)^2.
    8 eps (sum |T|)^2 holds that ten times over, which also covers the
    rounding of tau, of sum |T| and of the threshold low.min() + 2 tau.
    Gradual underflow adds absolute errors of at most 2^-1075 per product
    that no relative bound covers.  Scaled by at most max(1, sum |T|) and
    summed a few dozen times they stay below 2^-1060 max(1, sum |T|): the
    floor 2^-1000 covers that when sum |T| < 1, the relative term otherwise.
    """
    total = float(np.abs(t).sum())
    return 8.0 * _EPS * total * total + 2.0**-1000


def product_scan(w, ta, pa, tb, pb):
    """Min of |<psi_a x psi_b| w |psi_a x psi_b>| over the Bloch-angle grid.

    Returns (value, linear_index) with the linear index running row-major
    over (i_ta, j_pa, k_tb, l_pb); exact ties go to the lowest index.
    """
    t = _pauli_form(w)
    rows_a = _bloch_rows(ta, pa)
    a_re, a_im = rows_a @ t.real, rows_a @ t.imag
    rb = np.ascontiguousarray(_bloch_rows(tb, pb).T)
    n_a, n_b = rows_a.shape[0], rb.shape[1]
    per_block = max(1, _BLOCK_STATES // n_b)
    q, m = _screen_factors(a_re, a_im, rb)
    buf = np.empty((min(per_block, n_a), n_b))
    low = np.empty(n_a)
    for start in range(0, n_a, per_block):
        block = buf[: min(per_block, n_a - start)]
        np.matmul(q[start : start + per_block], m, out=block)
        block.min(axis=1, out=low[start : start + len(block)])
    # NaN in w leaves no candidate, and the scan returns (inf, 0)
    cand = np.flatnonzero(low <= low.min() + 2.0 * _rounding_bound(t))
    c_re, c_im = np.take(a_re, cand, axis=0), np.take(a_im, cand, axis=0)
    im = np.empty((min(per_block, len(cand)), n_b))
    best_sq, best_lin = math.inf, 0
    for start in range(0, len(cand), per_block):
        sq = buf[: min(per_block, len(cand) - start)]
        im_sq = im[: len(sq)]
        np.matmul(c_re[start : start + per_block], rb, out=sq)
        np.matmul(c_im[start : start + per_block], rb, out=im_sq)
        # |z| below ~1e-154 squares to a subnormal or 0, far under any bound
        sq *= sq
        im_sq *= im_sq
        sq += im_sq
        flat = int(sq.argmin())  # row-major: ties resolve to lower index
        if sq.flat[flat] < best_sq:  # strict: earlier rows win ties
            best_sq = float(sq.flat[flat])
            best_lin = int(cand[start + flat // n_b]) * n_b + flat % n_b
    return math.sqrt(best_sq), best_lin
