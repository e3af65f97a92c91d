"""Shared helpers: random gate factories and the independent oracles.

Each oracle reaches its answer by other arithmetic than the package, so a
bug cannot pass by being shared: `polygon_origin_distance` (triangle sign
tests and segment projections), `char_poly` with `horner` (no
eigen-solver), `ref_product_scan` (the complex 4-D grid scan) and
`ref_bloch_scan` (the Bloch-form scan in fixed blocks of its own Pauli
form), which the benchmark's `_kernels.product_scan` and the rows of
`_kernels.alice_scan` are held to.  The package's
`oracle.min_over_all_states`, exact from the eigenvalues, is one more.
Byte identity of the outputs is the job of `fingerprint.py`, not of an
oracle.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from gatediscrim import _kernels, canonical, cli
from gatediscrim.numerics import wrap_angle


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
GOLDEN = Path(__file__).parent / "data" / "golden"


def g(prefix: str) -> str:
    """The path of the corpus gate file whose name starts with `prefix`."""
    hits = sorted(GOLDEN.glob(f"{prefix}_*.json"))
    assert len(hits) == 1, f"corpus file {prefix} missing"
    return str(hits[0])


def run_main(capsys, *argv):
    """`cli.main(argv)` in-process: (exit code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
# matmuls and a squared modulus per block, on a Pauli form built from its
# own Pauli list.  tests/test_oracle.py holds the kernel, whose blocks
# follow the B-grid size, to it index for index.


_REF_PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def ref_bloch_scan(w, ta, pa, tb, pb):
    """Min of |<psi_a x psi_b| w |psi_a x psi_b>| over the Bloch-angle grid.

    Returns (value, linear_index) with the linear index running row-major
    over (i_ta, j_pa, k_tb, l_pb).
    """
    w = np.asarray(w, dtype=complex)
    t = np.array(
        [[np.trace(w @ np.kron(s, r)) for r in _REF_PAULIS] for s in _REF_PAULIS]
    )
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
