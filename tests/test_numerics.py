import argparse
import importlib
import inspect
import json
import math
import pkgutil
import re

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
from gatediscrim.errors import DomainError, NotNormalizedError, NotUnitaryError
from gatediscrim.numerics import (
    ID2,
    ID4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    is_unitary,
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
    # a float goes through math.fmod, an array through np.fmod: same bits
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


def test_is_unitary():
    assert is_unitary(ID4)
    assert is_unitary(SWAP)
    assert not is_unitary(2 * ID4)
    assert not is_unitary(np.ones((4, 4)))
    assert not is_unitary(np.ones((2, 3)))
    with pytest.raises(NotUnitaryError):
        numerics.require_unitary(1.1 * ID4)


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
    with pytest.raises(NotUnitaryError):
        unitary_eigenphases(1.5 * ID4)


def test_a_gate_is_a_4x4_matrix():
    # a unitary of another size is no gate: every gate check is check_gates'
    assert not is_unitary(ID2)
    for call in (numerics.require_unitary, unitary_eigenphases):
        with pytest.raises(NotUnitaryError, match="must be a 4x4 matrix"):
            call(ID2)


def test_check_gates_converts_each_gate_once():
    # a one-pass iterable: no gate may be lost to a second pass
    stack, errors = numerics.check_gates((g for g in ["x", ID4]), 1e-8)
    assert stack.shape == (2, 4, 4)
    assert str(errors[0]) == "first gate must be a 4x4 matrix of numbers"
    assert errors[1] is None
    assert np.isnan(stack[0]).all() and (stack[1] == ID4).all()


def test_check_gates_needs_a_name_per_gate():
    # the default names cover a pair; a third gate has no name to report
    with pytest.raises(DomainError, match="3 gates but only 2 names"):
        numerics.check_gates([ID4, ID4, "x"], 1e-8)
    assert numerics.check_gates([ID4] * 3, 1e-8, ["a", "b", "c"])[1] == [None] * 3


def test_random_su2(rng):
    for _ in range(25):
        u = random_su2(rng)
        assert np.abs(u.conj().T @ u - ID2).max() <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_require_normalized_rejects_nan():
    with pytest.raises(NotNormalizedError):
        numerics.require_normalized([np.nan, 0, 0, 0])


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


# every entry point that reads real numbers through `require_finite`, called
# with one complex entry; numpy's float cast would drop the imaginary part
# with a ComplexWarning, which pytest turns into an error
_Q = math.pi / 4
COMPLEX_ENTRY_POINTS = {
    "construct_probe": lambda: discrimination.construct_probe([0, 3j, 0, 0]),
    "achieved_overlap": lambda: discrimination.achieved_overlap(
        [1, 0, 0, 0], [3j, 0, 0, 0]
    ),
    "check_weyl": lambda: canonical.check_weyl([_Q + 1j, _Q, _Q]),
    "classify": lambda: canonical.classify([_Q + 1j, _Q, _Q]),
    "build_ud": lambda: canonical.build_ud([0.1j, 0, 0]),
    "from_magic_phases": lambda: canonical.from_magic_phases([0, 0, 0, 1j]),
    "hull_of_phases": lambda: geometry.hull_of_phases([0.5, 1j]),
    "arc_spread": lambda: geometry.arc_spread([0.5, 1j]),
    "render_hull_svg": lambda: svg.render_hull_svg([0, 0, 0, 1j]),
}


@pytest.mark.parametrize("entry", list(COMPLEX_ENTRY_POINTS))
def test_real_number_entry_points_reject_complex_input(entry):
    with pytest.raises(DomainError, match="must be real numbers, got complex128"):
        COMPLEX_ENTRY_POINTS[entry]()


# a bool among numbers, at any depth of a list or tuple: numpy would cast it
# to 1.0 or 0.0 and the entry point would answer for another input
BOOL_ENTRY_POINTS = {
    "construct_probe": lambda: discrimination.construct_probe([True, 0, 0, 0]),
    "build_ud": lambda: canonical.build_ud((0.1, np.False_, 0.0)),
    "hull_of_phases": lambda: geometry.hull_of_phases([[0.5, 1.0], [2.0, True]]),
}


@pytest.mark.parametrize("entry", list(BOOL_ENTRY_POINTS))
def test_real_number_entry_points_reject_bool_input(entry):
    with pytest.raises(DomainError, match="must be real numbers, got bool$"):
        BOOL_ENTRY_POINTS[entry]()


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
    for bad in (1j, 1e-10 + 0j, "1e-10", None, True):
        with pytest.raises(DomainError, match="tol must be a real number"):
            geometry.hull_of_phases([0.0, 1.0], tol=bad)
        with pytest.raises(DomainError, match="tol must be a real number"):
            numerics.require_positive(bad)
        with pytest.raises(DomainError, match="fidelity must be a real number"):
            discrimination.error_probability(bad, 0.5, 0.5)


def _with_entry(x):
    m = ID4.copy()
    m[1, 2] = x
    return m


# gates every entry point must reject: wrong shapes, then 4x4 matrices whose
# unitarity residual is NaN, inf (inf - inf) or overflows
BAD_GATES = {
    "eye2": np.eye(2),
    "eye3": np.eye(3),
    "vector4": np.ones(4),
    "nan": _with_entry(math.nan),
    "inf": _with_entry(math.inf),
    "1e200": _with_entry(1e200),
}


def _gate_file(path, g):
    # a vector is stored as a one-row matrix; json writes NaN and Infinity
    rows = files.matrix_pairs(np.atleast_2d(g))
    path.write_text(json.dumps({"kind": "matrix", "rows": rows}))
    return str(path)


_PROBE = discrimination.construct_probe(np.zeros(4))

# (call with the bad gate g, the name the error must carry)
GATE_ENTRY_POINTS = {
    "relative_phases": (lambda g, p: canonical.relative_phases(ID4, g), "second gate"),
    "fidelity": (lambda g, p: discrimination.fidelity(g, ID4), "first gate"),
    "perfectly_distinguishable": (
        lambda g, p: discrimination.perfectly_distinguishable(ID4, g),
        "second gate",
    ),
    "discriminate": (lambda g, p: discrimination.discriminate(g, g), "first gate"),
    "extract_interaction": (lambda g, p: canonical.extract_interaction(g), "gate"),
    "min_over_product_states": (
        lambda g, p: oracle.min_over_product_states(ID4, g),
        "second gate",
    ),
    "min_over_all_states": (lambda g, p: oracle.min_over_all_states(g, ID4), "first gate"),
    "helstrom_simulate": (
        lambda g, p: oracle.helstrom_simulate(ID4, g, _PROBE),
        "second gate",
    ),
    "load_matrix_file": (lambda g, p: files.load_matrix_file(_gate_file(p, g)), "gate.json"),
}


@pytest.mark.parametrize("entry", list(GATE_ENTRY_POINTS))
def test_gate_entry_points_reject_bad_gates(entry, tmp_path):
    call, name = GATE_ENTRY_POINTS[entry]
    for label, g in BAD_GATES.items():
        # pytest turns a numpy warning into an error that fails the match
        with pytest.raises(NotUnitaryError, match=re.escape(name)):
            call(g, tmp_path / "gate.json")
        assert not is_unitary(g), label


# gates numpy cannot convert to a complex array; no gate file holds one
NON_NUMERIC_GATES = {
    "string": "abc",
    "ragged": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "dict": {"rows": ID4},
    "huge_int": 10**400,
}


@pytest.mark.parametrize("entry", [e for e in GATE_ENTRY_POINTS if "file" not in e])
def test_gate_entry_points_reject_non_numeric_gates(entry):
    call, name = GATE_ENTRY_POINTS[entry]
    msg = f"^{re.escape(name)} must be a 4x4 matrix of numbers$"
    for label, g in NON_NUMERIC_GATES.items():
        with pytest.raises(NotUnitaryError, match=msg):
            call(g, None)
        assert not is_unitary(g), label


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
    u = (1.0 + 2e-7) * ID4
    with pytest.raises(NotUnitaryError, match="first gate is not unitary"):
        oracle.helstrom_simulate(u, u, _PROBE, shots=100)
    out = oracle.helstrom_simulate(u, u, _PROBE, shots=100, tol=1e-6)
    assert out.shots == 100
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            oracle.helstrom_simulate(ID4, ID4, _PROBE, shots=100, tol=tol)


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
    gate_entry_points = {
        "canonical.relative_phases",
        "canonical.extract_interaction",
        "discrimination.fidelity",
        "discrimination.perfectly_distinguishable",
        "discrimination.discriminate",
        "files.load_matrix_file",
        "numerics.is_unitary",
        "numerics.require_unitary",
        "numerics.require_gates",
        "oracle.helstrom_simulate",
    }
    assert gate_entry_points | set(others) == set(defaults)
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
