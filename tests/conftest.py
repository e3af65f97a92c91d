"""Shared helpers: random gate factories and independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from gatediscrim import _kernels, canonical, geometry
from gatediscrim.numerics import wrap_angle


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, n=4):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n=4):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_su2(rng) -> np.ndarray:
    """Haar-random SU(2) element drawn from `rng`."""
    # Euler-angle-free: normalize a Ginibre column to a unit quaternion.
    q = rng.normal(size=4)
    q /= math.sqrt(float(q @ q))
    a = complex(q[0], q[1])
    b = complex(q[2], q[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]], dtype=complex)


def random_magic_diag(rng):
    om = rng.uniform(-np.pi, np.pi, size=4)
    return canonical.from_magic_phases(om), om


def dressed_gate(rng, alpha):
    a, b, c, d = (random_su2(rng) for _ in range(4))
    return (
        np.kron(a, b) @ canonical.build_ud(alpha) @ np.kron(c, d)
    )


def phases_close(a, b, tol=1e-9):
    """Compare two phase multisets on the circle."""
    a = np.sort(wrap_angle(np.asarray(a, dtype=float)))
    b = np.sort(wrap_angle(np.asarray(b, dtype=float)))
    if a.shape != b.shape:
        return False
    direct = np.max(np.abs(wrap_angle(a - b)))
    if direct <= tol:
        return True
    # values straddling the -pi/pi cut can sort differently; retry rotated
    rolled = np.sort(wrap_angle(a + 1.0))
    other = np.sort(wrap_angle(b + 1.0))
    return float(np.max(np.abs(wrap_angle(rolled - other)))) <= tol


# precomputed composition grid for the simplex brute force (step 0.01)
_COMPS = None


def simplex_min_modulus(phases, step=0.01):
    """Brute-force min of |sum_k w_k e^{i phi_k}| over the weight simplex."""
    global _COMPS
    n = round(1.0 / step)
    if _COMPS is None:
        combos = [
            (i, j, k, n - i - j - k)
            for i, j, k in itertools.product(range(n + 1), repeat=3)
            if i + j + k <= n
        ]
        _COMPS = np.asarray(combos, dtype=float) / n
    z = np.exp(1j * np.asarray(phases, dtype=float))
    return float(np.min(np.abs(_COMPS @ z)))


def polygon_origin_distance(phases):
    """Exact distance from the origin to conv{e^{i phi_k}}.

    Triangle sign tests, taken against each triangle's orientation, decide
    containment; otherwise the minimum over all clamped segment projections.
    Independent of the arc-gap route.
    """
    z = np.exp(1j * np.asarray(phases, dtype=float).ravel())
    pts = np.column_stack([z.real, z.imag])
    m = len(pts)
    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for i, j, k in itertools.combinations(range(m), 3):
        a, b, c = pts[i], pts[j], pts[k]
        area = cross2(b - a, c - a)
        # a zero-area triple contains nothing the segment pass below misses
        if area == 0.0:
            continue
        crosses = [cross2(b - a, -a), cross2(c - b, -b), cross2(a - c, -c)]
        # inside: the origin lies on the inner side of all three edges
        if all(x * area >= 0.0 for x in crosses):
            return 0.0
    best = float(np.min(np.linalg.norm(pts, axis=1)))
    for i, j in itertools.combinations(range(m), 2):
        d = pts[j] - pts[i]
        dd = float(d @ d)
        if dd < 1e-24:
            continue
        s = min(max(float(-pts[i] @ d) / dd, 0.0), 1.0)
        best = min(best, float(np.linalg.norm(pts[i] + s * d)))
    return best


def char_poly(m) -> list[complex]:
    """Monic det(z I - m) of a 4x4 matrix, highest power first.

    Coefficients by Newton's identities from the power-sum traces; an
    eigen-solver-free oracle for eigenvalue routines.
    """
    m = np.asarray(m, dtype=complex)
    m2 = m @ m
    m3 = m2 @ m
    t1 = complex(np.trace(m))
    t2 = complex(np.trace(m2))
    t3 = complex(np.trace(m3))
    t4 = complex(np.trace(m3 @ m))
    e1 = t1
    e2 = (e1 * t1 - t2) / 2.0
    e3 = (e2 * t1 - e1 * t2 + t3) / 3.0
    e4 = (e3 * t1 - e2 * t2 + e1 * t3 - t4) / 4.0
    return [1.0 + 0.0j, -e1, e2, -e3, e4]


def horner(coeffs, z: complex) -> complex:
    """Value at z of the polynomial with coefficients highest power first."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


# --- reference pipeline ------------------------------------------------------
# The relative_phases -> hull -> probe -> report pipeline as it stood before
# it was rewritten to do each piece of work once per request (stacked gate
# checks, scalar hull and probe weights).  The rewrite must reproduce every
# field of it bit for bit; tests/test_reference.py holds it to that.

_REF_WRAP_EDGES = np.array([-np.pi, np.pi])
_REF_WRAP_SHIFTS = np.array([2 * np.pi, 0.0, -2 * np.pi])
_REF_SQ2 = 1.0 / math.sqrt(2.0)


def ref_wrap(theta):
    r = np.fmod(np.asarray(theta, dtype=float), 2 * np.pi)
    out = r + _REF_WRAP_SHIFTS[np.searchsorted(_REF_WRAP_EDGES, r)]
    return float(out) if out.ndim == 0 else out


def ref_relative_phases(u1, u2, tol=1e-8):
    diags = []
    for u in (u1, u2):
        u = np.asarray(u, dtype=complex)
        resid = np.max(np.abs(u.conj().T @ u - np.eye(4)))
        assert resid <= tol
        m = canonical._MAGIC_DAG @ u @ canonical.MAGIC_BASIS
        assert np.max(np.abs(m - np.diag(np.diag(m)))) <= tol
        diags.append(np.diag(m))
    return ref_wrap(-np.angle(diags[0].conj() * diags[1]))


def _ref_dedupe(ph, tol):
    vals = ph.tolist()
    order = sorted(range(len(vals)), key=vals.__getitem__)
    runs = [[order[0]]]
    for idx in order[1:]:
        if vals[idx] - vals[runs[-1][-1]] <= tol:
            runs[-1].append(idx)
        else:
            runs.append([idx])
    if len(runs) > 1 and (vals[runs[0][0]] + 2 * np.pi) - vals[runs[-1][-1]] <= tol:
        runs[0] = runs.pop() + runs[0]
    offsets = [
        float(np.mean(ref_wrap(ph[run] - ph[run[0]]))) if len(run) > 1 else 0.0
        for run in runs
    ]
    reps = ref_wrap(ph[[run[0] for run in runs]] + offsets).tolist()
    groups = [
        geometry.PhaseGroup(phase=rep, indices=tuple(sorted(run)))
        for rep, run in zip(reps, runs)
    ]
    groups.sort(key=lambda g: g.phase)
    return vals, order, groups


def ref_hull(phases, tol=geometry.DEDUPE_TOL):
    def xy(phase):
        return np.array([math.cos(phase), math.sin(phase)])

    ph = ref_wrap(np.atleast_1d(np.asarray(phases, dtype=float)))
    vals, order, groups = _ref_dedupe(ph, tol)
    if len(groups) == 1:
        return geometry.HullResult(groups, False, 1.0, xy(groups[0].phase))
    raw = [vals[i] for i in order]
    m = len(raw)
    gaps = [b - a for a, b in zip(raw, raw[1:])] + [(raw[0] + 2 * np.pi) - raw[-1]]
    imax = max(range(m), key=gaps.__getitem__)
    spread = 2 * np.pi - gaps[imax]
    first = (imax + 1) % m
    chord_mid = 0.5 * (xy(raw[first]) + xy(raw[imax]))
    distance = float(np.hypot(*chord_mid)) if spread < np.pi else 0.0
    if distance <= geometry.VERDICT_TOL:
        return geometry.HullResult(groups, True, 0.0, np.zeros(2))
    start = next(i for i, g in enumerate(groups) if order[first] in g.indices)
    groups = groups[start:] + groups[:start]
    return geometry.HullResult(groups, False, distance, chord_mid)


def _ref_varignon_weights(mids):
    c = mids.mean(axis=0)
    (p, q), (r, s) = mids[0] - c, mids[1] - c
    det = p * s - q * r
    a = (r * c[1] - s * c[0]) / det
    b = (q * c[0] - p * c[1]) / det
    alpha = np.array(
        [(1.0 - abs(b) + a) / 2, max(b, 0.0), (1.0 - abs(b) - a) / 2, max(-b, 0.0)]
    )
    alpha = np.clip(alpha, 0.0, None)
    return alpha / alpha.sum()


def _ref_amplitudes(hull):
    n = len(hull.groups)
    u = np.zeros(4, dtype=complex)
    if not hull.origin_inside:
        if n == 1:
            ia, ib = hull.groups[0].indices[0], hull.groups[0].indices[1]
        else:
            ia, ib = hull.groups[0].indices[0], hull.groups[-1].indices[0]
        u[ia] = _REF_SQ2
        u[ib] = 1j * _REF_SQ2
        return u
    if n == 2:
        cyc, w = [0, 1], np.array([0.5, 0.5])
    else:
        if n == 3:
            dup = max(range(3), key=lambda i: len(hull.groups[i].indices))
            cyc = [j for i in range(3) for j in ([i, i] if i == dup else [i])]
        else:
            cyc = [0, 1, 2, 3]
        phases = [hull.groups[i].phase for i in cyc]
        pts = np.array([[math.cos(p), math.sin(p)] for p in phases])
        alpha = _ref_varignon_weights(0.5 * (pts + np.roll(pts, -1, axis=0)))
        w = 0.5 * (alpha + np.roll(alpha, 1))
    taken = [0] * n
    for pos, g in enumerate(cyc):
        orig = hull.groups[g].indices[taken[g]]
        taken[g] += 1
        u[orig] = math.sqrt(w[pos]) * (1.0 if pos % 2 == 0 else 1.0j)
    return u


def _ref_concurrence(u):
    n = float(np.sum(np.abs(u) ** 2))
    assert abs(n - 1.0) <= 1e-10
    return float(abs(np.sum(u * u)))


def ref_factor_product(u):
    amp = (canonical.MAGIC_BASIS @ u).reshape(2, 2)
    row = int(np.argmax(np.sum(np.abs(amp) ** 2, axis=1)))
    b = amp[row] / np.linalg.norm(amp[row])
    a = amp @ b.conj()
    a = a / np.linalg.norm(a)
    lead = int(np.argmax(np.abs(a) > 1e-9))
    phase = a[lead] / abs(a[lead])
    return a * phase.conjugate(), b * phase


def ref_achieved_overlap(u, om):
    w = np.abs(np.asarray(u, dtype=complex).ravel()) ** 2
    return float(abs(np.sum(w * np.exp(-1j * np.asarray(om, dtype=float)))))


def _ref_probe_for_hull(om, hull):
    from gatediscrim.discrimination import ProbeState

    u = _ref_amplitudes(hull)
    assert abs(float(np.sum(np.abs(u) ** 2)) - 1.0) <= 1e-12
    probe = ProbeState(u, canonical.MAGIC_BASIS @ u, _ref_concurrence(u))
    # the closed form must not miss: the reference has no fallback
    assert abs(ref_achieved_overlap(u, om) - hull.min_distance) <= geometry.VERDICT_TOL
    assert _ref_concurrence(u) <= geometry.VERDICT_TOL
    return probe


def ref_construct_probe(omega):
    om = ref_wrap(np.asarray(omega, dtype=float).ravel())
    return _ref_probe_for_hull(om, ref_hull(ref_wrap(-om)))


def ref_discriminate(u1, u2, p1=0.5, tol=1e-8):
    from gatediscrim import discrimination as d

    p1 = min(max(p1, 0.0), 1.0)
    p2 = 1.0 - p1
    om = ref_relative_phases(u1, u2, tol=tol)
    hull = ref_hull(ref_wrap(-om))
    probe = _ref_probe_for_hull(om, hull)
    return d.DiscriminationReport(
        omega=om,
        fidelity=hull.min_distance,
        p1=p1,
        p2=p2,
        error_probability=d.error_probability(hull.min_distance, p1, p2),
        perfectly_distinguishable=hull.origin_inside,
        probe=probe,
        achieved_value=ref_achieved_overlap(probe.u, om),
    )


# --- reference product scan --------------------------------------------------
# The product-grid scan as it stood before it moved to the real Bloch form:
# complex outer-product rows, one complex matmul per block and a modulus
# pass.  tests/test_oracle.py holds the kernel to it.

_REF_BLOCK = 64


def _ref_outer_rows(theta, phi) -> np.ndarray:
    """Rows conj(s_i) s_k over (i, k) for the states s(theta, phi), grid-major."""
    h = 0.5 * np.asarray(theta, dtype=float)
    n_phi = len(phi)
    c = np.repeat(np.cos(h), n_phi)
    s = np.repeat(np.sin(h), n_phi) * np.tile(np.exp(1j * np.asarray(phi)), len(h))
    return np.stack([c * c, c * s, c * s.conj(), s.conj() * s], axis=1)


def ref_product_scan(w, ta, pa, tb, pb):
    """Min of |<psi_a x psi_b| w |psi_a x psi_b>| over the Bloch-angle grid.

    Returns (value, linear_index) with the linear index running row-major
    over (i_ta, j_pa, k_tb, l_pb).
    """
    w = np.asarray(w, dtype=complex).reshape(2, 2, 2, 2)
    # w[(i, j), (k, l)] regrouped as W[(i, k), (j, l)]
    aw = _ref_outer_rows(ta, pa) @ w.transpose(0, 2, 1, 3).reshape(4, 4)
    bt = np.ascontiguousarray(_ref_outer_rows(tb, pb).T)
    n_b = bt.shape[1]
    best_val, best_lin = np.inf, 0
    for start in range(0, aw.shape[0], _REF_BLOCK):
        vals = np.abs(aw[start : start + _REF_BLOCK] @ bt)
        flat = int(np.argmin(vals))  # row-major: ties resolve to lower index
        if vals.flat[flat] < best_val:  # strict: earlier blocks win ties
            best_val, best_lin = float(vals.flat[flat]), start * n_b + flat
    return best_val, best_lin


# --- reference Bloch-form scan -----------------------------------------------
# The Bloch-form scan in fixed blocks of 64 A-grid rows: two real 4-column
# matmuls and a squared modulus per block.  tests/test_oracle.py holds the
# kernel, whose blocks follow the B-grid size, to it index for index.


def ref_bloch_scan(w, ta, pa, tb, pb):
    """Min of |<psi_a x psi_b| w |psi_a x psi_b>| over the Bloch-angle grid.

    Returns (value, linear_index) with the linear index running row-major
    over (i_ta, j_pa, k_tb, l_pb).
    """
    t = _kernels._pauli_form(w)
    rows_a = _kernels._bloch_rows(ta, pa)
    a_re, a_im = rows_a @ t.real, rows_a @ t.imag
    rb = np.ascontiguousarray(_kernels._bloch_rows(tb, pb).T)
    n_a, n_b = rows_a.shape[0], rb.shape[1]
    best_sq, best_lin = math.inf, 0
    for start in range(0, n_a, _REF_BLOCK):
        sq = a_re[start : start + _REF_BLOCK] @ rb
        im_sq = a_im[start : start + _REF_BLOCK] @ rb
        sq *= sq
        im_sq *= im_sq
        sq += im_sq
        flat = int(sq.argmin())  # row-major: ties resolve to lower index
        if sq.flat[flat] < best_sq:  # strict: earlier blocks win ties
            best_sq, best_lin = float(sq.flat[flat]), start * n_b + flat
    return math.sqrt(best_sq), best_lin


def bob_minima(xy):
    """Bob's exact minimum and root per column of xy = response form @
    Alice's Bloch rows^T: the kernel's setup, then Newton on every column
    that needs a root, as `_kernels.alice_scan` runs them on a block."""
    vals, mu, _, ellipse = _kernels._bob_setup(xy)
    return _kernels._newton(vals, mu, ellipse)
