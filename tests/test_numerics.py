import argparse
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import gatediscrim
from gatediscrim import (
    canonical,
    cli,
    discrimination,
    files,
    geometry,
    numerics,
    oracle,
    svg,
)
from gatediscrim.errors import DomainError, NotUnitaryError
from gatediscrim.numerics import (
    ID2,
    ID4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    unitary_eigenphases,
    wrap_angle,
)

from conftest import (
    SWAP,
    char_poly,
    horner,
    phases_close,
    random_su2,
    random_unitary,
)
from test_contract import KINDS, NON_NUMERIC_GATES, NUMERIC_BAD_GATES, ROWS, keeps


def test_wrap_angle_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(np.pi / 2) == pytest.approx(np.pi / 2)
    arr = wrap_angle(np.array([2 * np.pi, -3.5 * np.pi]))
    np.testing.assert_allclose(arr, [0.0, 0.5 * np.pi], atol=1e-12)


def test_wrap_angle_range(rng):
    # odd multiples of pi and their neighbours a few ulps away sit at the ends
    odd = (2 * np.arange(-2000, 2000) + 1) * np.pi
    ends = np.concatenate([odd + d * np.spacing(odd) for d in range(-4, 5)])
    t = np.concatenate([rng.uniform(-50, 50, size=2000), ends])
    w = wrap_angle(t)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    # the wrapped value differs from the input by a multiple of 2 pi
    k = (t - w) / (2 * np.pi)
    np.testing.assert_allclose(k, np.round(k), atol=1e-9)


def test_wrap_angle_is_exact_in_range(rng):
    edges = [np.nextafter(-np.pi, 0.0), np.pi, 0.3, 0.7, 1e-300, -4.6e-41]
    t = np.concatenate([rng.uniform(-np.pi, np.pi, size=20000), edges])
    assert np.array_equal(wrap_angle(t), t)
    for x in edges:
        assert wrap_angle(x) == x
    z = wrap_angle(-0.0)
    assert z == 0.0 and not np.signbit(z)


def test_wrap_angle_scalar_matches_array(rng):
    # an array is wrapped entry by entry: each entry's bits are the float's
    odd = (2 * np.arange(-200, 200) + 1) * np.pi
    ends = np.concatenate([odd + d * np.spacing(odd) for d in range(-4, 5)])
    t = np.concatenate(
        [rng.uniform(-50, 50, size=5000), ends, [0.0, -0.0, 1e300, -1e300, 5e-324]]
    )
    w = wrap_angle(t)
    for x, expect in zip(t.tolist(), w.tolist()):
        got = wrap_angle(x)
        assert type(got) is float
        assert got == expect and np.signbit(got) == np.signbit(expect)
    for bad in (math.nan, math.inf, -math.inf):
        assert math.isnan(wrap_angle(bad))
    # and an array of them, with no numpy warning, which pytest makes an error
    assert np.isnan(wrap_angle(np.array([math.inf, -math.inf, math.nan]))).all()


def test_is_unitary():
    for u in (ID4, SWAP):
        assert (numerics.require_unitary(u) == u).all()
    for m in (2 * ID4, 1.1 * ID4, np.ones((4, 4)), np.ones((2, 3))):
        with pytest.raises(NotUnitaryError):
            numerics.require_unitary(m)


def test_pauli_constants():
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(p @ p, ID2, atol=1e-15)
    np.testing.assert_allclose(
        PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z, atol=1e-15
    )
    np.testing.assert_allclose(SWAP @ SWAP, ID4, atol=1e-15)


def test_eigenphases_identity_and_swap():
    np.testing.assert_allclose(unitary_eigenphases(ID4), np.zeros(4), atol=1e-12)
    # SWAP spectrum is {1, 1, 1, -1}
    assert phases_close(unitary_eigenphases(SWAP), [0, 0, 0, np.pi], tol=1e-12)


def test_eigenphases_diagonal_example():
    m = np.diag(np.exp(1j * np.array([0.0, np.pi / 2, np.pi, -np.pi / 2])))
    got = unitary_eigenphases(m)
    assert phases_close(got, [-np.pi / 2, 0.0, np.pi / 2, np.pi], tol=1e-12)


def test_eigenphases_quadruple_root():
    # scalar unitaries: one eigenvalue of multiplicity 4
    for phi in (0.25, -2.0, np.pi / 4):
        got = unitary_eigenphases(np.exp(1j * phi) * ID4)
        np.testing.assert_allclose(got, np.full(4, phi), atol=1e-9)


def test_eigenphases_double_pairs():
    # two eigenvalue pairs at +/- pi/2
    m = np.diag(np.exp(1j * np.array([np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2])))
    got = unitary_eigenphases(m)
    assert phases_close(
        got, [np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2], tol=1e-10
    )


def test_eigenphases_match_power_traces(rng):
    # sum_j e^{i k theta_j} = trace(M^k) for k = 1..4 fixes a 4x4 spectrum
    for _ in range(300):
        m = random_unitary(rng, 4)
        z = np.exp(1j * unitary_eigenphases(m))
        mk = np.eye(4, dtype=complex)
        for k in range(1, 5):
            mk = mk @ m
            assert abs(np.sum(z**k) - np.trace(mk)) <= 1e-12


def test_eigenphases_reconstruction(rng):
    # the characteristic polynomial must vanish at every returned phase
    for _ in range(100):
        m = random_unitary(rng, 4)
        phases = unitary_eigenphases(m)
        coeffs = char_poly(m)
        for th in phases:
            assert abs(horner(coeffs, np.exp(1j * th))) <= 1e-8


def test_eigenphases_det_and_dagger(rng):
    for _ in range(50):
        m = random_unitary(rng, 4)
        ph = unitary_eigenphases(m)
        det = np.linalg.det(m)
        assert abs(np.exp(1j * np.sum(ph)) - det) <= 1e-8
        neg = unitary_eigenphases(m.conj().T)
        assert phases_close(neg, -ph, tol=1e-8)


def test_eigenphases_rejects_nonunitary():
    keeps(unitary_eigenphases, "gate", 1.5 * ID4)


def test_a_gate_is_a_4x4_matrix():
    # a unitary of another size is no gate: every gate check is require_gates'
    for fn in (numerics.require_unitary, unitary_eigenphases):
        keeps(fn, "gate", ID2)


def test_require_gates_converts_each_gate_once():
    # a one-pass iterable: no gate may be lost to a second pass
    stack = numerics.require_gates((g for g in [SWAP, ID4]))
    assert stack.shape == (2, 4, 4)
    assert (stack[0] == SWAP).all() and (stack[1] == ID4).all()
    with pytest.raises(NotUnitaryError, match="^first gate must be a 4x4 matrix of numbers$"):
        numerics.require_gates((g for g in ["x", ID4]))


def test_require_gates_needs_a_name_per_gate():
    # the default names cover a pair; a third gate has no name to report
    with pytest.raises(DomainError, match="3 gates but only 2 names"):
        numerics.require_gates([ID4, ID4, "x"])
    assert numerics.require_gates([ID4] * 3, 1e-8, ["a", "b", "c"]).shape == (3, 4, 4)


def test_random_su2(rng):
    for _ in range(25):
        u = random_su2(rng)
        assert np.abs(u.conj().T @ u - ID2).max() <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_require_normalized_rejects_nan():
    keeps(numerics.require_normalized, "amplitudes", [math.nan, 0, 0, 0])


def test_require_prior_clamps_rounding_and_rejects_the_rest():
    assert numerics.require_prior(0.3) == 0.3
    assert numerics.require_prior(1.0 + 1e-13) == 1.0
    assert numerics.require_prior(-1e-13) == 0.0
    for p1 in (1.0 + 1e-11, -1e-11, 1.2, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="prior p1"):
            numerics.require_prior(p1)
    # a plain float, -0.0 as 0.0; a bool or another non-real is no prior
    for p1, want in [(-0.0, 0.0), (np.float32(0.25), 0.25), (-1e-13, 0.0)]:
        got = numerics.require_prior(p1)
        assert type(got) is float and got == want
        assert math.copysign(1.0, got) == 1.0
    for p1 in (True, False, np.True_, "0.5", None, 0.5 + 0j, np.array([0.5])):
        with pytest.raises(DomainError, match="prior p1"):
            numerics.require_prior(p1)


def test_require_count_takes_integers_only():
    for x in (0, np.int64(3), 2**70):
        assert numerics.require_count(x, 0, "widgets") is x
    bad = (True, False, np.bool_(True), 1.5, 2.0, math.nan, math.inf, None, "3", -1)
    for x, lo in [(x, 0) for x in bad] + [(4, 5)]:
        with pytest.raises(DomainError, match=f"widgets must be an integer >= {lo}"):
            numerics.require_count(x, lo, "widgets")


# one complex entry: numpy's float cast would drop the imaginary part with a
# ComplexWarning, which pytest turns into an error
_Q = math.pi / 4
COMPLEX_INPUT = {
    discrimination.construct_probe: ("4 phases", [0, 3j, 0, 0]),
    discrimination.achieved_overlap: ("4 phases", [3j, 0, 0, 0]),
    canonical.check_weyl: ("alpha", [_Q + 1j, _Q, _Q]),
    canonical.classify: ("alpha", [_Q + 1j, _Q, _Q]),
    canonical.build_ud: ("alpha", [0.1j, 0, 0]),
    canonical.from_magic_phases: ("4 phases", [0, 0, 0, 1j]),
    geometry.hull_of_phases: ("phases", [0.5, 1j]),
    geometry.arc_spread: ("phases", [0.5, 1j]),
    svg.render_hull_svg: ("4 phases", [0, 0, 0, 1j]),
}
# a bool among numbers, at any depth of a list or tuple: numpy would cast it
BOOL_INPUT = {
    discrimination.construct_probe: ("4 phases", [True, 0, 0, 0]),
    canonical.build_ud: ("alpha", (0.1, np.False_, 0.0)),
    geometry.hull_of_phases: ("phases", [[0.5, 1.0], [2.0, True]]),
}


def _name(fn):
    return fn.__name__


@pytest.mark.parametrize("fn", COMPLEX_INPUT, ids=_name)
def test_real_number_entry_points_reject_complex_input(fn):
    keeps(fn, *COMPLEX_INPUT[fn])


@pytest.mark.parametrize("fn", BOOL_INPUT, ids=_name)
def test_real_number_entry_points_reject_bool_input(fn):
    keeps(fn, *BOOL_INPUT[fn])


def test_require_finite_takes_real_arrays_only():
    assert numerics.require_finite([1, np.int8(2), 3.5], "x").tolist() == [1, 2, 3.5]
    assert numerics.require_finite(np.float32([[1, 2]]), "x", 2).dtype == float
    bools = (
        [True, 1.0],
        (1.0, np.True_),
        [[1.0, 2.0], [3.0, False]],
        [np.array(True), 1.0],
    )
    for v in ([1, 2j], [True, False], ["1", "2"], [1.0, None], [[1, 2], [3]], *bools):
        with pytest.raises(DomainError, match="^x must be real numbers, got [a-z0-9]+$"):
            numerics.require_finite(v, "x")


def test_scalar_tolerances_and_fidelity_must_be_real():
    not_real = (1j, 1e-10 + 0j, "1e-10", None, True)
    keeps(geometry.hull_of_phases, "merge tol", *not_real)
    keeps(numerics.require_positive, "tol", *not_real)
    keeps(discrimination.error_probability, "overlap", *not_real)


GATE_ENTRY_POINTS = [
    canonical.relative_phases, discrimination.discriminate, canonical.extract_interaction,
    numerics.require_unitary, oracle.min_over_product_states, oracle.min_over_all_states,
    oracle.helstrom_simulate,
]


@pytest.mark.parametrize("fn", GATE_ENTRY_POINTS + [files.load_matrix_file], ids=_name)
def test_gate_entry_points_reject_bad_gates(fn):
    # wrong shapes, and 4x4 matrices with a NaN, inf or overflowing residual
    kind = "gate in a file" if fn is files.load_matrix_file else "gate"
    keeps(fn, kind, *(v for v, _, _ in NUMERIC_BAD_GATES))


@pytest.mark.parametrize("fn", GATE_ENTRY_POINTS, ids=_name)
def test_gate_entry_points_reject_non_numeric_gates(fn):
    keeps(fn, "gate", *(v for v, _, _ in NON_NUMERIC_GATES))


@pytest.mark.parametrize(
    "fn",
    [discrimination.concurrence, discrimination.achieved_overlap, oracle.helstrom_simulate],
    ids=_name,
)
def test_state_entry_points_reject_non_numeric_states(fn):
    keeps(fn, "amplitudes", *(v for v, _, f in KINDS["amplitudes"][1] if "numbers" in f))


def test_extract_interaction_keeps_its_tolerance():
    # residual 4e-7: accepted at tol=1e-6, and its derived Gram matrix with it
    u = (1.0 + 2e-7) * ID4
    assert 3.9e-7 < np.abs(u.conj().T @ u - ID4).max() < 4.1e-7
    dec = canonical.extract_interaction(u, tol=1e-6)
    np.testing.assert_allclose(dec.alpha, np.zeros(3), atol=1e-12)
    with pytest.raises(NotUnitaryError, match="gate is not unitary within tolerance 1e-07"):
        canonical.extract_interaction(u, tol=1e-7)


def test_helstrom_simulate_takes_a_tolerance():
    # the same residual-4e-7 gate: rejected at the default, accepted at 1e-6
    u, probe = (1.0 + 2e-7) * ID4, discrimination.construct_probe(np.zeros(4))
    with pytest.raises(NotUnitaryError, match="first gate is not unitary"):
        oracle.helstrom_simulate(u, u, probe, shots=100)
    out = oracle.helstrom_simulate(u, u, probe, shots=100, tol=1e-6)
    assert out.shots == 100


def _tol_defaults() -> dict:
    """{module.function: default} for every public function of the package
    whose `tol` parameter has a default."""
    out = {}
    for info in pkgutil.iter_modules(gatediscrim.__path__):
        mod = importlib.import_module(f"gatediscrim.{info.name}")
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            p = inspect.signature(fn).parameters.get("tol")
            if p is not None and p.default is not inspect.Parameter.empty:
                out[f"{info.name}.{name}"] = p.default
    return out


def test_every_tol_default_is_a_named_tolerance():
    defaults = _tol_defaults()
    others = {"geometry.hull_of_phases": geometry.DEDUPE_TOL}
    for name, default in defaults.items():
        # `is`: a literal of the same value is another float object
        assert default is others.get(name, numerics.GATE_TOL), name
    # every tol has a contract row; the one tol row without a default is
    # the tolerance check itself
    rows = {
        f"{r.fn.__module__.split('.')[1]}.{r.fn.__name__}" for r in ROWS if r.name == "tol"
    }
    assert rows == set(defaults) | {"numerics.require_positive"}
    # fixed tolerances, not knobs
    for fn in (
        canonical.classify,
        canonical.check_weyl,
        numerics.unitary_eigenphases,
        numerics.require_normalized,
    ):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    (sub,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {
        cmd: a for cmd, p in sub.choices.items() for a in p._actions if a.dest == "tol"
    }
    assert sorted(flags) == ["decompose", "discriminate", "simulate"]
    assert all(a.default is numerics.GATE_TOL for a in flags.values())
    assert len({a.help for a in flags.values()}) == 1
