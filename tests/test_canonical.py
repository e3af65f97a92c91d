import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gatediscrim import canonical, numerics
from gatediscrim.canonical import (
    GateClass,
    MAGIC_BASIS,
    build_ud,
    check_weyl,
    classify,
    extract_interaction,
    from_magic_phases,
    lambda_phases,
    relative_phases,
)
from gatediscrim.errors import DomainError, NotMagicDiagonalError, NotUnitaryError
from gatediscrim.numerics import ID4, wrap_angle

from conftest import SWAP, dressed_gate, random_su2
from test_contract import keeps

PI = math.pi
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_magic_basis_is_unitary():
    d = MAGIC_BASIS.conj().T @ MAGIC_BASIS - ID4
    assert np.max(np.abs(d)) <= 1e-15
    np.testing.assert_allclose(
        MAGIC_BASIS[:, 0], np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
    )


def test_magic_basis_carries_locals_to_real(rng):
    # product of SU(2) factors becomes a real orthogonal matrix
    for _ in range(20):
        g = np.kron(random_su2(rng), random_su2(rng))
        r = canonical.magic_rep(g)
        assert np.max(np.abs(r.imag)) <= 1e-12
        assert np.max(np.abs(r @ r.T - np.eye(4))) <= 1e-12


@pytest.mark.parametrize(
    "alpha,expect",
    [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
        ((PI / 4, PI / 4, PI / 4), (PI / 4, PI / 4, -3 * PI / 4, PI / 4)),
        ((PI / 4, 0.0, 0.0), (PI / 4, -PI / 4, -PI / 4, PI / 4)),
    ],
)
def test_lambda_phases_values(alpha, expect):
    np.testing.assert_allclose(lambda_phases(alpha), expect, atol=1e-15)


def test_lambda_phases_laws(rng):
    for _ in range(200):
        a = canonical.random_weyl_vector(rng)
        lam = lambda_phases(a)
        assert abs(float(np.sum(lam))) <= 1e-12
        l1, l2, l3, l4 = lam
        assert l4 >= l1 - 1e-12 >= l2 - 2e-12 >= l3 - 3e-12
        # inverse map
        np.testing.assert_allclose(
            a,
            [(l1 + l4) / 2, (l2 + l4) / 2, (l1 + l2) / 2],
            atol=1e-12,
        )


def test_check_weyl_rejections():
    check_weyl((PI / 4, PI / 4, PI / 4))
    check_weyl((0.3, 0.2, 0.1))
    for bad in [
        (0.1, 0.2, 0.3),
        (0.3, 0.1, 0.2),
        (0.1, 0.2, 0.05),
        (1.0, 0.2, 0.1),
        (0.3, 0.2, -0.1),
        # NaN passes every ordering comparison
        (math.nan, 0.0, 0.0),
        (0.3, 0.2, math.nan),
    ]:
        with pytest.raises(DomainError):
            check_weyl(bad)
    with pytest.raises(DomainError):
        check_weyl((0.1, 0.2))


def test_build_ud_identity_and_swap():
    np.testing.assert_allclose(build_ud((0, 0, 0)), ID4, atol=1e-15)
    ud = build_ud((PI / 4, PI / 4, PI / 4))
    # the full swap equals the core times its quarter-turn global phase
    np.testing.assert_allclose(np.exp(1j * PI / 4) * ud, SWAP, atol=1e-14)


def test_build_ud_is_magic_diagonal_unitary(rng):
    for _ in range(50):
        a = canonical.random_weyl_vector(rng)
        u = build_ud(a)
        numerics.require_unitary(u, tol=1e-12)
        m = canonical.magic_rep(u)
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) <= 1e-12
        np.testing.assert_allclose(
            np.angle(np.diag(m)), wrap_angle(-lambda_phases(a)), atol=1e-12
        )


def test_build_ud_matches_pauli_exponential(rng):
    # independent route: XX, YY, ZZ commute, so the exponential factors into
    # cos(a) I - i sin(a) G terms multiplied together
    xx = np.kron(numerics.PAULI_X, numerics.PAULI_X)
    yy = np.kron(numerics.PAULI_Y, numerics.PAULI_Y)
    zz = np.kron(numerics.PAULI_Z, numerics.PAULI_Z)
    for _ in range(25):
        a = canonical.random_weyl_vector(rng)
        direct = ID4.copy()
        for coef, gate in zip(a, (xx, yy, zz)):
            direct = direct @ (math.cos(coef) * ID4 - 1j * math.sin(coef) * gate)
        np.testing.assert_allclose(build_ud(a), direct, atol=1e-13)


def test_extract_identity_swap_cnot():
    dec = extract_interaction(ID4)
    np.testing.assert_allclose(dec.alpha, np.zeros(3), atol=1e-10)
    assert classify(dec.alpha) is GateClass.IDENTITY

    dec = extract_interaction(SWAP)
    np.testing.assert_allclose(dec.alpha, np.full(3, PI / 4), atol=1e-10)
    assert abs(dec.global_phase - PI / 4) <= 1e-12
    assert classify(dec.alpha) is GateClass.SWAP_LIKE

    dec = extract_interaction(CNOT)
    np.testing.assert_allclose(dec.alpha, [PI / 4, 0.0, 0.0], atol=1e-10)
    assert classify(dec.alpha) is GateClass.ENTANGLING


def test_extract_round_trip(rng):
    for _ in range(300):
        d = canonical.random_weyl_vector(rng)
        dec = extract_interaction(build_ud(d))
        np.testing.assert_allclose(dec.alpha, d, atol=1e-9)
        # the core itself carries no global phase
        assert abs(dec.global_phase) <= 1e-12


def test_extract_local_invariance(rng):
    for _ in range(100):
        d = canonical.random_weyl_vector(rng)
        u = dressed_gate(rng, d)
        dec = extract_interaction(u)
        np.testing.assert_allclose(dec.alpha, d, atol=1e-8)


@pytest.mark.parametrize(
    "alpha, cls",
    [
        ((PI / 4,) * 3, GateClass.SWAP_LIKE),
        ((0.0, 0.0, 0.0), GateClass.IDENTITY),
        ((0.3, 0.3 - 1e-6, 0.1), GateClass.ENTANGLING),
        ((0.2 + 1e-6, 0.2, 0.2 - 1e-6), GateClass.ENTANGLING),
    ],
    ids=["swap", "identity", "split_pair", "split_triple"],
)
def test_extract_clustered_spectra(rng, alpha, cls):
    # repeated magic eigenphases, or ones split by about 1e-6, come back to
    # rounding under any local dressing
    for _ in range(200):
        dec = extract_interaction(dressed_gate(rng, alpha))
        np.testing.assert_allclose(dec.alpha, alpha, rtol=0.0, atol=1e-9)
        assert classify(dec.alpha) is cls


def test_extract_global_phase_recovery(rng):
    for _ in range(25):
        d = canonical.random_weyl_vector(rng)
        u = build_ud(d)
        phi = float(rng.uniform(-PI / 4 + 1e-3, PI / 4 - 1e-3))
        dec = extract_interaction(np.exp(1j * phi) * u)
        assert abs(dec.global_phase - phi) <= 1e-10
        np.testing.assert_allclose(dec.alpha, d, atol=1e-9)


def test_extract_raw_phase_parity(rng):
    # raw phases always sum to a multiple of 2 pi (an even multiple of pi)
    for _ in range(50):
        u = dressed_gate(rng, canonical.random_weyl_vector(rng))
        dec = extract_interaction(u)
        total = float(np.sum(dec.raw_phases)) / (2 * PI)
        assert abs(total - round(total)) <= 1e-8


def test_extract_ignores_the_sign_of_a_zero_in_the_determinant():
    # det = -1 - 0j has phase -pi, det = -1 + 0j has pi; both are the same gate
    decs = [
        extract_interaction(np.diag([complex(-1.0, z), 1.0, 1.0, 1.0]))
        for z in (0.0, -0.0)
    ]
    assert decs[0].global_phase == decs[1].global_phase == PI / 4
    for field in ("alpha", "raw_phases"):
        assert getattr(decs[0], field).tobytes() == getattr(decs[1], field).tobytes()


def _core(alpha) -> np.ndarray:
    """U_d(alpha) for any real alpha, through the lambda(alpha) formula."""
    ax, ay, az = alpha
    return from_magic_phases(
        [ax - ay + az, -ax + ay + az, -ax - ay - az, ax + ay - az]
    )


def _assert_same_alpha(a, b):
    # both cores lie in one local class, so both give one chamber point
    got = [extract_interaction(_core(x)).alpha for x in (a, b)]
    for ax, ay, az in got:
        assert PI / 4 >= ax >= ay >= az >= 0.0
    np.testing.assert_allclose(got[1], got[0], rtol=0.0, atol=1e-9)


alphas = st.lists(
    st.floats(min_value=-2 * PI, max_value=2 * PI, allow_nan=False),
    min_size=3,
    max_size=3,
)
guard = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@guard
@given(alphas, st.integers(0, 2), st.integers(-4, 4))
@example([0.0, 0.0, 0.0], 0, 1)
@example([PI / 4, PI / 4, PI / 4], 2, -1)
def test_alpha_ignores_quarter_turn_shifts(a, k, turns):
    # a pi/2 shift of one coordinate is a local X x X, Y x Y or Z x Z factor
    b = list(a)
    b[k] += turns * PI / 2
    _assert_same_alpha(a, b)


@guard
@given(alphas, st.permutations(range(3)))
def test_alpha_ignores_coordinate_order(a, perm):
    # local Cliffords permute the coordinates
    _assert_same_alpha(a, [a[i] for i in perm])


@guard
@given(alphas, st.integers(0, 2))
@example([0.3, 0.2, 0.1], 0)
def test_alpha_ignores_two_sign_flips(a, keep):
    # conjugating by Z x I flips the signs of two coordinates
    _assert_same_alpha(a, [x if i == keep else -x for i, x in enumerate(a)])


def test_extract_rejects_nonunitary():
    keeps(extract_interaction, "gate", 1.2 * ID4)


def test_relative_phases_examples():
    u = build_ud((PI / 4, 0, 0))
    om = relative_phases(ID4, u)
    np.testing.assert_allclose(om, [PI / 4, -PI / 4, -PI / 4, PI / 4], atol=1e-12)
    np.testing.assert_allclose(
        relative_phases(u, ID4), [-PI / 4, PI / 4, PI / 4, -PI / 4], atol=1e-12
    )
    np.testing.assert_allclose(relative_phases(u, u), np.zeros(4), atol=1e-12)


def test_relative_phases_antisymmetry(rng):
    for _ in range(30):
        u1 = from_magic_phases(rng.uniform(-PI, PI, 4))
        u2 = from_magic_phases(rng.uniform(-PI, PI, 4))
        a = relative_phases(u1, u2)
        b = relative_phases(u2, u1)
        np.testing.assert_allclose(wrap_angle(a + b), np.zeros(4), atol=1e-10)


def test_relative_phases_rejects_dressed(rng):
    u = dressed_gate(rng, canonical.random_weyl_vector(rng))
    with pytest.raises(NotMagicDiagonalError) as exc:
        relative_phases(ID4, u)
    assert "decompose" in str(exc.value)


IX = np.kron(numerics.ID2, numerics.PAULI_X)


@pytest.mark.parametrize(
    "gate",
    [np.eye(3), np.eye(3), np.eye(8), np.ones(4)],
    ids=["eye3", "eye3_second", "eye8_second", "vector_first"],
)
def test_relative_phases_rejects_non_4x4(gate):
    # as the first gate and as the second
    keeps(relative_phases, "gate", gate)


def test_relative_phases_error_order():
    # both gates for shape and unitarity, first gate first, then each for
    # the magic check: the order in which the CLI checks its gate files
    cases = [
        (2 * ID4, 2 * ID4, NotUnitaryError, "first gate"),
        (2 * ID4, IX, NotUnitaryError, "first gate"),
        (IX, 2 * ID4, NotUnitaryError, "second gate"),
        (IX, np.eye(3), NotUnitaryError, "second gate"),
        (2 * ID4, np.eye(3), NotUnitaryError, "first gate"),
        (ID4, 2 * IX, NotUnitaryError, "second gate"),
        (IX, IX, NotMagicDiagonalError, "first gate"),
        (IX, ID4, NotMagicDiagonalError, "first gate"),
        (ID4, IX, NotMagicDiagonalError, "second gate"),
    ]
    for u1, u2, err, name in cases:
        with pytest.raises(err, match=name):
            relative_phases(u1, u2)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0, -math.inf])
def test_relative_phases_tol_domain(tol):
    keeps(relative_phases, "tol", tol)


def test_from_magic_phases_round_trip(rng):
    om = rng.uniform(-PI, PI, 4)
    u = from_magic_phases(om)
    numerics.require_unitary(u, tol=1e-12)
    got = wrap_angle(-np.angle(np.diag(canonical.magic_rep(u))))
    np.testing.assert_allclose(got, wrap_angle(om), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_magic_phases_rejects_nonfinite(bad):
    keeps(from_magic_phases, "4 phases", [bad, 0.0, 0.0, 0.0])


def test_classify_values():
    assert classify((0, 0, 0)) is GateClass.IDENTITY
    assert classify((PI / 4,) * 3) is GateClass.SWAP_LIKE
    assert classify((PI / 8, 0, 0)) is GateClass.ENTANGLING
    assert classify((PI / 4, PI / 4, 0)) is GateClass.ENTANGLING
    # just inside and just outside the class tolerance at both corners
    t, q = canonical._CLASS_TOL, PI / 4
    assert classify((0.9 * t, 0.9 * t, 0.9 * t)) is GateClass.IDENTITY
    assert classify((1.1 * t, 0.0, 0.0)) is GateClass.ENTANGLING
    assert classify((q, q - 0.9 * t, q - 0.9 * t)) is GateClass.SWAP_LIKE
    assert classify((q, q, q - 1.1 * t)) is GateClass.ENTANGLING


def test_random_weyl_vector_in_chamber(rng):
    for _ in range(200):
        a = canonical.random_weyl_vector(rng)
        assert PI / 4 > a[0] > a[1] > a[2] > 0
