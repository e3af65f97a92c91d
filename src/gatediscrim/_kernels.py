"""The scans over product probe states, the package's hot loops.

`alice_scan` serves the product oracle: it walks a grid of Alice's states
only and solves Bob's side exactly (see the section below), and it
answers with the first state whose Bob ellipse holds the origin, which
needs no Newton solve.  It returns the winner's value, its angles and
Bob's Bloch vector for it, built from one SVD and only when the value
beats the incumbent the caller passes.  A call does only the work that
depends on w: the coarse grid's Bloch rows come from `scan_grid`, which
the oracle runs once, the winner's row is read from them, and only the
columns that Newton solves get a root and a bracket.  `product_scan`, the 4-D
Bloch-angle grid scan described next, no longer serves the oracle; it
stays as the 4-D reference that the benchmark times and the tests pin.

A single-qubit state s = (cos t/2, e^{ip} sin t/2) has s s^dag =
sum_mu r_mu sigma_mu with the real Bloch row r = (1, sin t cos p,
sin t sin p, cos t) / 2.  So for a product ket a x b, <a x b| w |a x b> =
r_a^T T r_b with T_{mu nu} = tr(w (sigma_mu x sigma_nu)).  The scan takes
the real rows x = r_a Re T and y = r_a Im T of every A-grid state once;
per block it runs two real (rows x 4) @ (4 x B states) products, squares
and adds them in place into (x . r_b)^2 + (y . r_b)^2, and takes one
argmin.  A block replaces the best only on a strict improvement, so exact
ties go to the lowest row-major linear index.  A block holds at most
_BLOCK_STATES grid states and always at least one whole A row, so memory
stays near max(_BLOCK_STATES, B-grid states) values whatever the grid
shape.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import ID2, PAULI_X, PAULI_Y, PAULI_Z, TWO_PI

# There is no compiled route; the benchmark's machine record reads this.
NUMBA_ENABLED = False

# grid states per block, unless one A row alone holds more
_BLOCK_STATES = 2**15

_PAULIS = np.array([ID2, PAULI_X, PAULI_Y, PAULI_Z])
# entry [(mu, nu), (i, j, k, l)] is (sigma_mu x sigma_nu)[(k, l), (i, j)], so
# _PAULI_PAIRS @ w.ravel() lists tr(w (sigma_mu x sigma_nu)) row-major
_PAULI_PAIRS = np.einsum("mki,nlj->mnijkl", _PAULIS, _PAULIS).reshape(16, 16)
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
    re = np.empty((min(per_block, n_a), n_b))
    im = np.empty_like(re)
    best_sq, best_lin = math.inf, 0
    for start in range(0, n_a, per_block):
        sq = re[: min(per_block, n_a - start)]
        im_sq = im[: len(sq)]
        np.matmul(a_re[start : start + per_block], rb, out=sq)
        np.matmul(a_im[start : start + per_block], rb, out=im_sq)
        # |z| below ~1e-154 squares to a subnormal or 0, far under any bound
        sq *= sq
        im_sq *= im_sq
        sq += im_sq
        flat = int(sq.argmin())  # row-major: ties resolve to lower index
        # strict: earlier blocks win ties; NaN in w makes every value NaN,
        # which never compares below inf, and the scan returns (inf, 0)
        if sq.flat[flat] < best_sq:
            best_sq, best_lin = float(sq.flat[flat]), start * n_b + flat
    return math.sqrt(best_sq), best_lin


# --- the 2-D scan: Alice's grid, Bob's side in closed form --------------------
#
# With Alice's Bloch vector a fixed, <a x b| w |a x b> = p + M n_b, read as a
# point of the plane: p = (x_0, y_0) and the 2 x 3 matrix M = [x_1:3; y_1:3]
# come from x + i y = r_a T / 2, and n_b is Bob's unit Bloch vector.  A
# linear map of rank <= 2 takes the unit sphere of R^3 onto the same set as
# the unit ball (add a null-space component), so Bob's best response is the
# distance from c = -p to the filled ellipse M Ball.  With s_1 >= s_2 the
# eigenvalues of the Gram matrix G = M M^T and q_i the coordinates of c in
# its eigenbasis, that distance is
#   0                                  if q_1^2 / s_1 + q_2^2 / s_2 <= 1,
#   sqrt(q_2^2 + max(|q_1| - sqrt(s_1), 0)^2)
#                                      if s_2 = 0 (a segment, or M = 0),
#   mu sqrt(sum q_i^2 / (s_i + mu)^2)  otherwise,
# where mu > 0 solves S(mu) = sum s_i q_i^2 / (s_i + mu)^2 = 1; the closest
# point is G (G + mu I)^-1 c and n_b = M^T (G + mu I)^-1 c.  S^-1/2 is
# concave and increasing (Cauchy-Schwarz), so Newton on S^-1/2 - 1 started
# below the root climbs to it monotonically; each term alone gives the lower
# bracket mu >= sqrt(s_i q_i^2) - s_i.

# Newton stops once S(mu) <= 1 + _NEWTON_TOL, after taking that step, or after
# _NEWTON_CAP steps, where a value still low is a lower bound.  Each term of S
# falls at least as fast as ((s_1 + mu) / (s_1 + mu'))^2, so the root is then
# within _NEWTON_TOL / 2 (s_1 + mu) of mu; the size of a step bounds nothing:
# near a thin ellipse's vertex mu grows by about half itself per step
_NEWTON_TOL = 1e-12
_NEWTON_CAP = 64
_TINY = float(np.finfo(float).smallest_subnormal)
# row k * 4 + mu of this map applied to w.ravel() is T_{mu nu_k} / 2 with
# nu = (0, 1, 2, 3, 1, 2): p, then M's row with its first two entries
# repeated, so that cyclic shifts of M's rows are plain slices
_RESPONSE_MAP = (
    _PAULI_PAIRS[[4 * mu + nu for nu in (0, 1, 2, 3, 1, 2) for mu in range(4)]] / 2
)
# An outside column whose inside test q_1 s_2 + q_2 s_1 <= s_1 s_2 fails by
# less than this factor may have -p on the rim up to rounding; there Newton
# can end at mu = 0 (a first step below 0 is clamped) and return exactly
# 0.0.  Past it S(0) > 1 + 2^-27, so the root is above 2^-29 s_2, and
# Newton, climbing to it from below, ends at a value > 0 for the magnitudes
# a unitary w gives
_NEAR = 1.0 + 2.0**-26


def _response_form(w) -> np.ndarray:
    """(12, 4) real map from Alice's Bloch row r_a to (p, M) as described above.

    Its rows are x_0:3, x_1:2, y_0:3, y_1:2 for x + i y = r_a T / 2.
    """
    t = _RESPONSE_MAP @ np.asarray(w, dtype=complex).ravel()
    return np.concatenate([t.real, t.imag]).reshape(12, 4)


def scan_grid(steps: int):
    """Read-only (theta, phi, rows_t) of the product search's coarse grid:
    `steps` thetas in [0, pi] by `steps` phis in [0, 2 pi) and their Bloch
    rows as the columns of a contiguous 4 x n array, so that the scan's
    product is a plain matmul.  The oracle builds it once."""
    theta = np.linspace(0.0, math.pi, steps)
    phi = np.linspace(0.0, TWO_PI, steps, endpoint=False)
    rows_t = np.ascontiguousarray(_bloch_rows(theta, phi).T)
    for a in (theta, phi, rows_t):
        a.flags.writeable = False
    return theta, phi, rows_t


def _bob_setup(xy):
    """The closed-form half of Bob's minimum per column of xy = response
    form @ Alice's Bloch rows^T: (vals, s, q, todo, near).

    vals is each column's exact value where no root is needed, 0 inside the
    ellipse and the distance to a segment where s_2 = 0, and inf in the
    outside columns, which todo marks and `_newton` solves; s holds G's
    eigenvalues s_1 >= s_2 and q the squared coordinates of c in its
    eigenbasis; near marks the outside columns within _NEAR of the
    boundary.  `alice_scan` skips `_newton` when its setup already holds
    a 0.
    """
    p = xy[::6]
    m3 = xy.reshape(2, 6, -1)[:, 1:4]
    # G = [[a, b], [b, d]]; s_1 s_2 = det G = |m_x x m_y|^2 (Lagrange), with
    # no cancellation
    a, d = (m3 * m3).sum(axis=1)
    b = (m3[0] * m3[1]).sum(axis=0)
    cross = xy[2:5] * xy[9:12]
    cross -= xy[3:6] * xy[8:11]
    cross *= cross
    s = np.empty((2, len(a)))
    h = 0.5 * (a - d)
    r = np.sqrt(h * h + b * b)
    s[0] = 0.5 * (a + d) + r
    s[1] = cross.sum(axis=0) / np.maximum(s[0], _TINY)
    # the major axis is (1, beta) for h >= 0 and (beta, 1) otherwise, with
    # beta = b / (r + |h|), the tangent of G's half-angle, in [-1, 1];
    # swapping c's coordinates for h < 0 reads both cases as the first.
    # r + |h| = 0 means G = s_1 I, where any axis is an eigenvector
    beta = b / np.maximum(r + np.abs(h), _TINY)
    u = np.where(h >= 0.0, p, p[::-1])
    q = np.empty_like(s)
    q[0] = u[0] + u[1] * beta
    q[1] = u[0] * beta - u[1]
    q *= q
    q /= 1.0 + beta * beta
    rank2 = s[1] > 0.0
    lhs = q[0] * s[1] + q[1] * s[0]
    det = s[0] * s[1]
    inside = lhs <= det
    inside &= rank2
    todo = rank2 ^ inside
    near = lhs <= det * _NEAR
    near &= todo
    vals = np.where(todo, math.inf, 0.0)
    if not rank2.all():
        # s_2 = 0: the distance to the segment (a point when M = 0)
        seg = np.sqrt(q[0]) - np.sqrt(s[0])
        np.maximum(seg, 0.0, out=seg)
        seg *= seg
        seg += q[1]
        vals = np.where(rank2, vals, np.sqrt(seg))
    return vals, s, q, todo, near


def _bracket(s, q):
    """(sqrt(s q), the lower bracket max(0, sqrt(s_i q_i) - s_i)) per
    column of `_bob_setup`'s s and q; on a segment the bracket is mu."""
    root = np.sqrt(s * q)
    mu = root - s
    return root, np.maximum(np.maximum(mu[0], mu[1]), 0.0)


def _newton(vals, s, q, todo):
    """Newton on the outside columns of `_bob_setup`'s output: writes their
    minima into vals and returns their roots mu, in column order.

    Each mu starts at the lower bracket and ends at the root above it, so
    mu >= 0, and 0 only where rounding puts -p on the rim; `_bob_vector`
    builds n_b from it.
    """
    # compress keeps the rows contiguous, which s[:, todo] does not
    s, q = (a.compress(todo, axis=1) for a in (s, q))
    root, m = _bracket(s, q)
    for _ in range(_NEWTON_CAP):
        t = 1.0 / (s + m)
        v = root * t
        v *= v
        total = v[0] + v[1]
        v *= t
        step = total * (np.sqrt(total) - 1.0) / (v[0] + v[1])
        m += step
        if total.max(initial=0.0) <= 1.0 + _NEWTON_TOL:
            break
    # a rim column that rounding calls outside can take a first step below 0;
    # at mu = 0 it reads 0, as the rim point does
    np.maximum(m, 0.0, out=m)
    # the distance sqrt(sum q_i (mu / (s_i + mu))^2), q holding the squared
    # coordinates; mu / (s_i + mu) <= 1 cannot overflow
    t = m / (s + m)
    t *= t
    t *= q
    vals[todo] = np.sqrt(t[0] + t[1])
    return m


def _winner_mu(k, s, q, todo, roots) -> float:
    """Bob's mu for column k of a scan: Newton's root outside the ellipse,
    0 inside it, and the bracket on a segment."""
    if todo[k]:
        return float(roots[np.count_nonzero(todo[:k])])
    if s[1, k] > 0.0:
        return 0.0
    return float(_bracket(s[:, k], q[:, k])[1])


def alice_scan(w, theta, phi, rows_t=None, incumbent=math.inf):
    """Min over Alice's grid of Bob's exact best response to each state.

    Returns (value, angles, n_b): the winning state's (theta, phi) as a
    2-array and Bob's unit Bloch vector for it, which is built only when
    value is below `incumbent` and is None otherwise.  rows_t holds the
    grid's Bloch rows as `scan_grid` gives them, or None to build them.
    The winner is the first minimum in row-major order over (i_theta,
    j_phi), so exact ties go to the lowest index.  One `_bob_setup` takes
    every column of the grid.  w must be finite:
    `oracle.min_over_product_states` checks both gates before it scans.

    A scan whose setup holds a 0 (a column inside its ellipse, or a
    segment that reaches the origin) runs no Newton step and answers with
    its first such column.  Newton would pick the same column: an outside
    column reaches 0.0 only when rounding puts -p on the rim, and a scan
    with such a `near` column ahead of its first zero runs Newton.
    """
    form = _response_form(w)
    if rows_t is None:
        rows_t = _bloch_rows(theta, phi).T
    vals, s, q, todo, near = _bob_setup(form @ rows_t)
    k = int(vals.argmin())  # ties resolve to the lower index
    roots = None
    if vals[k] != 0.0 or near[:k].any():
        roots = _newton(vals, s, q, todo)
        k = int(vals.argmin())
    best = float(vals[k])
    i, j = divmod(k, len(phi))
    angles = np.array([theta[i], phi[j]])
    n_b = None
    if best < incumbent:
        n_b = _bob_vector(form @ rows_t[:, k], _winner_mu(k, s, q, todo, roots))
    return best, angles, n_b


def _bob_vector(xy, mu) -> np.ndarray:
    """Bob's unit Bloch vector for one column xy of `_bob_setup` and its mu.

    With M = [m_x; m_y] = U diag(sigma) V^T from one SVD and c = -p,
    n_b = y_1 V_1 + y_2 V_2 + t V_3 where y_i = sigma_i (U^T c)_i /
    (sigma_i^2 + mu), read as 0 where that denominator is 0:
    M^T (M M^T + mu I)^-1 c where mu > 0 (outside the ellipse, or past a
    segment's end) and M^+ c where mu = 0 (inside it, on a segment, where
    rounding puts -p on the rim, or M = 0); mu is never below 0.  The null
    vector V_3 takes up t = sqrt(1 - |y|^2).  Below sigma_2 = 8 eps sigma_1
    the map counts as rank 1, which moves M n_b by at most 8 eps sigma_1 and
    keeps rounding noise in sigma_2 out of y_2.
    """
    c = -xy[::6]
    u, sigma, vt = np.linalg.svd(np.array([xy[1:4], xy[7:10]]))
    s1, s2 = sigma.tolist()
    if s1 * s1 == 0.0:
        # M = 0, or so small that M M^T underflows: every n_b gives |p|
        return np.array([0.0, 0.0, 1.0])
    if s2 <= 8.0 * _EPS * s1:
        s2 = 0.0
    q1, q2 = (c @ u).tolist()
    y1 = s1 * q1 / (s1 * s1 + mu)
    y2 = s2 * q2 / (s2 * s2 + mu) if s2 * s2 + mu > 0.0 else 0.0
    # |y| = sqrt(S(mu)) exceeds 1 by the root's residual and by rounding,
    # which sits mostly in y_2 when sigma_2 << sigma_1.  Scaling y down would
    # move M n_b by sigma_1 times the excess; trimming y_2 moves it by
    # sigma_2 times the cut
    y2 = math.copysign(min(abs(y2), math.sqrt(max(0.0, 1.0 - y1 * y1))), y2)
    n = y1 * vt[0] + y2 * vt[1] + math.sqrt(max(0.0, 1.0 - y1 * y1 - y2 * y2)) * vt[2]
    return n / np.linalg.norm(n)
