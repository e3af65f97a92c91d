"""The input contract of every entry point, as one table.

A kind of argument lists the values that every entry point taking it must
accept, and the values it must refuse, each with its package error and a
fragment of the message.  A row is one argument of one entry point: the
function, the kind, the name its errors carry, and a call with that
argument set to a value.  Every row accepts each good value, so that no
row passes by always raising, and refuses each bad value with the value's
error and a message that names the argument and holds the fragment.
pytest turns numpy warnings into errors, so a value numpy warns about
fails its row.  The CLI table holds each command's value flags to the
same contract: a bad value exits 2 with one stderr line that names the
flag, prints nothing and writes no file.  A rejection test elsewhere calls
`keeps` or `command_keeps`, so that its values and rules are the table's.
"""

import inspect
import json
import math
import os
import tempfile
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

import gatediscrim
from gatediscrim import canonical, discrimination, files, geometry, numerics, oracle, svg
from gatediscrim.errors import DomainError, NotNormalizedError, NotUnitaryError
from gatediscrim.numerics import ID2, ID4

from conftest import SWAP, g, run_main

NAN, INF, Q, SQ2 = math.nan, math.inf, math.pi / 4, math.sqrt(0.5)
NONFINITE = (NAN, INF, -INF)
# more than the 4300 digits Python prints: repr and str of it raise ValueError
HUGE = 10**5000


def bad(error, fragment, *values):
    """(value, error, fragment) for each of `values`."""
    return [(v, error, fragment) for v in values]


def _real(fragment, *out_of_range):
    """The bad values of a real number whose range check says `fragment`."""
    not_real = (1j, 1e-10 + 0j, "1e-10", None, True, False, np.True_, np.array([0.5]))
    return [
        *bad(DomainError, fragment, *NONFINITE, *out_of_range),
        *bad(DomainError, "must be a real number", *not_real),
        *bad(DomainError, "is outside float range", 10**400, HUGE, -HUGE),
    ]


def _count(lo):
    """The bad values of an integer >= lo."""
    values = (lo - 1, -1, -HUGE, True, False, np.bool_(True), 1.5, 2.0, 2.5, 8.5, None)
    return bad(DomainError, f"must be an integer >= {lo}", *values, *NONFINITE, "3")


def _eye_with(x) -> list:
    """The 4x4 identity as a list of lists, its first entry set to x."""
    return [[x, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


# magic-diagonal, so that the magic-basis entry points take them too
GOOD_GATES = [
    ID4, SWAP, canonical.build_ud((0.3, 0.2, 0.1)).tolist(), (1.0 + 2e-9) * ID4,
    np.eye(4, dtype=int),
]
# numbers, which a gate file can hold too; the last three have a NaN, an
# inf - inf and an overflowing unitarity residual
NUMERIC_BAD_GATES = [
    *bad(NotUnitaryError, "must be a 4x4 matrix, got shape", ID2, np.eye(3), np.eye(8),
         np.ones(4)),
    *bad(NotUnitaryError, "is not unitary within", 1.2 * ID4, 1.5 * ID4,
         _eye_with(NAN), _eye_with(INF), _eye_with(1e200)),
]
NON_NUMERIC_GATES = bad(
    NotUnitaryError, "must be a 4x4 matrix of numbers",
    "abc", None, {"rows": ID4}, [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    10**400, _eye_with(HUGE), _eye_with(True), np.eye(4, dtype=bool),
    np.eye(4, dtype=int).astype(str),
    [[Fraction(int(i == j)) for j in range(4)] for i in range(4)],
)
_PROBE = discrimination.construct_probe(np.zeros(4))

# kind: (good values, bad values)
KINDS = {
    "gate": (GOOD_GATES, NUMERIC_BAD_GATES + NON_NUMERIC_GATES),
    "gate in a file": (GOOD_GATES, NUMERIC_BAD_GATES),
    "tol": ([1e-6, 0.5, 1, np.float32(1e-6)],
            _real("must be finite and > 0", 0.0, 0, -1.0)),
    "merge tol": ([0.0, 0, 1e-10, 1e-3, 1, np.float32(1e-3)],
                  _real("must be finite and >= 0", -1e-12, -1.0)),
    # halves: error_probability takes only priors that sum to 1
    "prior": ([0.5, np.float32(0.5), Fraction(1, 2)],
              _real("outside [0, 1]", 1.5, 1.2, -0.1, 1.0 + 1e-11, -1e-11)),
    "overlap": ([0.0, 0.5, 1.0, 0, 1, 1.0 + 1e-10, -1e-10, np.float32(0.5)],
                _real("outside [0, 1]", -0.1, 1.2)),
    "count from 0": ([0, 1, np.int64(3), np.int32(0), 2**70], _count(0)),
    "count from 8": ([8, 9, np.int64(8), 32], _count(8)),
    "shots": ([1, 10, np.int64(10), 2**63 - 1], _count(1) + bad(
        DomainError, "must be at most 2**63 - 1", 2**63, 10**23, HUGE)),
    "search config": (
        [None, oracle.SearchConfig(grid_steps=8, refinement_rounds=0)],
        bad(DomainError, "must be a SearchConfig or None", "x", 0, False, 32,
            oracle.SearchConfig),
    ),
    "probe": (
        [_PROBE, discrimination.construct_probe([0.3, 1.9, -2.2, 0.8])],
        bad(DomainError, "must be a ProbeState", None, "x", _PROBE.psi_computational,
            _PROBE.u),
    ),
    "amplitudes": (
        [[1, 0, 0, 0], (SQ2, 1j * SQ2, 0, 0), np.full(4, 0.5), [[0.5, 0.5], [0.5, 0.5]],
         np.array([0, 1, 0, 0]), np.complex64([0, 0, 1j, 0])],
        [
            *bad(NotNormalizedError, "squared norm", [1, 1, 0, 0], [0, 0, 0, 0],
                 [NAN, 0, 0, 0], [INF, 0, 0, 0], [1e200, 0, 0, 0]),
            *bad(DomainError, "must have 4 entries", [1, 0, 0], [1, 0, 0, 0, 0], []),
            *bad(DomainError, "must be an array of numbers",
                 "abcd", None, {"u": [1, 0, 0, 0]}, [[1, 0], [0, 0, 0]], ["x", 0, 0, 0],
                 ["1", 0, 0, 0], [True, 0, 0, 0], np.array([True, False, False, False]),
                 [Fraction(1), 0, 0, 0], [HUGE, 0, 0, 0]),
        ],
    ),
    "phases": (
        [[0.0], [0.5, 1.0], (0.1, 0.2, 0.3, 0.4), np.zeros(4), np.float32([0.5, 2.0]),
         [1, 2], [[0.5, 1.0], [2.0, 3.0]]],
        [
            *bad(DomainError, "must not be empty", [], (), np.zeros(0)),
            *bad(DomainError, "must be finite",
                 *([x, 0.0, 0.0, 0.0] for x in NONFINITE)),
            *bad(DomainError, "must be real numbers",
                 "abc", [0.5, 1j], [True, False], [0.5, True], [[0.5, 1.0], [2.0, True]],
                 ["1", "2"], [1.0, None], [[1, 2], [3]], [HUGE, 0.0]),
        ],
    ),
    "4 phases": (
        [[0, 0, 0, 0], [0.3, 1.9, -2.2, 0.8], (7.0, -7.0, 0.5, 0.0),
         np.array([0.0, 2 * Q, 4 * Q, -2 * Q]), np.float32([0.1, 0.2, 0.3, 0.4]),
         [[0.1, 0.2], [0.3, 0.4]]],
        [
            *bad(DomainError, "must have 4 entries", [0.0, 1.0, 2.0], [0.0] * 5, []),
            *bad(DomainError, "must be finite", [0.0, 0.0, INF, 0.0],
                 *([x, 0.0, 0.0, 0.0] for x in NONFINITE),
                 *([0.0, x, 1.0, 2.0] for x in NONFINITE)),
            *bad(DomainError, "must be real numbers",
                 [0, 3j, 0, 0], [3j, 0, 0, 0], [0, 0, 0, 1j], [True, 0, 0, 0],
                 ["x", 0, 0, 0], [None, 0, 0, 0], [[0, 1], [2]], [HUGE, 0, 0, 0]),
        ],
    ),
    "alpha": (
        [(0.3, 0.2, 0.1), [0, 0, 0], (Q, Q, Q), np.array([Q, 0.0, 0.0]),
         np.float32([0.3, 0.2, 0.1])],
        # the chamber's own bounds are test_canonical's
        [
            *bad(DomainError, "must have 3 entries", (0.1, 0.2), [0.0] * 4, []),
            *bad(DomainError, "must be finite", (NAN, 0.0, 0.0), (0.3, 0.2, NAN),
                 (0.1, 0.0, -INF)),
            *bad(DomainError, "must be real numbers", [Q + 1j, Q, Q], [0.1j, 0, 0],
                 (0.1, np.False_, 0.0), ["0.3", 0, 0], None, [HUGE, 0, 0]),
        ],
    ),
}


# a probe's amplitudes are those of a product state: a Bell state such as
# [1, 0, 0, 0] is none; (sqrt((1 + c) / 2), i sqrt((1 - c) / 2), 0, 0) has
# concurrence c
KINDS["product amplitudes"] = (
    [[SQ2, 1j * SQ2, 0, 0], (0, SQ2, 1j * SQ2, 0), [[SQ2, 0], [0, 1j * SQ2]], _PROBE.u,
     np.complex64([0.5, 0.5j, 0.5, 0.5j]),
     [math.sqrt(0.5 + 2.5e-10), 1j * math.sqrt(0.5 - 2.5e-10), 0, 0]],
    [*bad(DomainError, "have concurrence", [1, 0, 0, 0], [SQ2, SQ2, 0, 0], np.full(4, 0.5),
          [math.sqrt(0.5 + 1.5e-9), 1j * math.sqrt(0.5 - 1.5e-9), 0, 0]),
     *KINDS["amplitudes"][1]],
)


class Row(NamedTuple):
    fn: Callable
    kind: str
    name: str
    call: Callable


_U = canonical.build_ud((0.3, 0.2, 0.1))
_SMALL = oracle.SearchConfig(grid_steps=8, refinement_rounds=0)
# unitary within 4e-7: every good tol takes it and the default would not,
# so a bad tol is reported as the tol's error, not as the gate's
_NEAR = (1.0 + 2e-7) * ID4


def _load(doc, tol=numerics.GATE_TOL):
    """`files.load_matrix_file` of a file holding `doc` as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gate.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return files.load_matrix_file(path, tol=tol)


def _factored(probe):
    """Assert that `probe`'s factors give its ket, within the concurrence a
    probe may have."""
    np.testing.assert_allclose(np.kron(probe.local_a, probe.local_b),
                               probe.psi_computational, atol=numerics.VERDICT_TOL)


V = object()  # the argument a row sets to each value


def row(fn, kind, name, *args, **kwargs):
    """The row that calls fn(*args, **kwargs), fn(V) if there are none."""
    args = args if args or kwargs else (V,)

    def call(value):
        pos = [value if a is V else a for a in args]
        return fn(*pos, **{k: value if a is V else a for k, a in kwargs.items()})

    return Row(fn, kind, name, call)


def pair(fn, *args, **kwargs):
    """The rows of both gates of `fn`, its other arguments `args` and `kwargs`."""
    return [
        row(fn, "gate", "first gate", V, ID4, *args, **kwargs),
        row(fn, "gate", "second gate", ID4, V, *args, **kwargs),
    ]


ROWS = [
    *pair(canonical.relative_phases),
    *pair(discrimination.discriminate),
    *pair(oracle.min_over_all_states),
    *pair(oracle.min_over_product_states, _SMALL),
    *pair(oracle.helstrom_simulate, _PROBE, shots=10),
    row(canonical.extract_interaction, "gate", "gate"),
    row(numerics.require_unitary, "gate", "matrix"),
    row(numerics.unitary_eigenphases, "gate", "matrix"),
    Row(numerics.require_gates, "gate", "first gate", lambda v: numerics.require_gates([v])),
    Row(files.load_matrix_file, "gate in a file", "gate.json",
        lambda v: _load(files.matrix_document(np.atleast_2d(v), "g"))),
    row(numerics.require_positive, "tol", "tol"),
    row(numerics.require_unitary, "tol", "tol", _NEAR, V),
    Row(numerics.require_gates, "tol", "tol", lambda t: numerics.require_gates([_NEAR], t)),
    row(canonical.extract_interaction, "tol", "tol", _NEAR, V),
    row(canonical.relative_phases, "tol", "tol", _NEAR, _U, V),
    row(discrimination.discriminate, "tol", "tol", _NEAR, _U, tol=V),
    row(oracle.helstrom_simulate, "tol", "tol", _NEAR, _U, _PROBE, shots=10, tol=V),
    Row(files.load_matrix_file, "tol", "tol",
        lambda t: _load(files.matrix_document(_NEAR, "near"), t)),
    Row(files.load_matrix_file, "tol", "tol",
        lambda t: _load({"kind": "alpha", "alpha": [0.3, 0.2, 0.1]}, t)),
    row(geometry.hull_of_phases, "merge tol", "tol", [0.0, 1e-12, 2.0], V),
    row(discrimination.discriminate, "prior", "prior p1", ID4, _U, p1=V),
    row(oracle.helstrom_simulate, "prior", "prior p1", ID4, _U, _PROBE, p1=V, shots=10),
    row(discrimination.error_probability, "prior", "prior p1", 0.5, V, 0.5),
    row(discrimination.error_probability, "prior", "prior p2", 0.5, 0.5, V),
    row(discrimination.error_probability, "overlap", "fidelity", V, 0.5, 0.5),
    row(oracle.helstrom_simulate, "shots", "shots", ID4, _U, _PROBE, shots=V),
    row(oracle.helstrom_simulate, "count from 0", "seed", ID4, _U, _PROBE, shots=10, seed=V),
    row(oracle.SearchConfig, "count from 8", "grid_steps", grid_steps=V),
    row(oracle.SearchConfig, "count from 0", "refinement_rounds", refinement_rounds=V),
    row(oracle.min_over_product_states, "search config", "cfg", ID4, _U, V),
    row(oracle.min_over_all_states, "search config", "cfg", ID4, _U, V),
    row(oracle.helstrom_simulate, "probe", "probe", ID4, _U, V, shots=10),
    # every probe ProbeState takes runs through the simulator
    Row(oracle.helstrom_simulate, "product amplitudes", "probe", lambda u: (
        oracle.helstrom_simulate(ID4, _U, discrimination.ProbeState(u), shots=10))),
    row(discrimination.ProbeState, "product amplitudes", "probe amplitudes"),
    # and factors into its ket, which is never checked again
    Row(discrimination.ProbeState, "product amplitudes", "probe",
        lambda u: _factored(discrimination.ProbeState(u))),
    row(discrimination.concurrence, "amplitudes", "magic amplitudes"),
    row(discrimination.achieved_overlap, "amplitudes", "magic amplitudes", V, np.zeros(4)),
    row(numerics.require_normalized, "amplitudes", "state"),
    row(geometry.arc_spread, "phases", "phases"),
    row(geometry.hull_of_phases, "phases", "phases"),
    row(discrimination.construct_probe, "4 phases", "omega"),
    row(discrimination.achieved_overlap, "4 phases", "omega", [1, 0, 0, 0], V),
    row(svg.render_hull_svg, "4 phases", "omega"),
    row(canonical.from_magic_phases, "4 phases", "phase vector"),
    *(row(fn, "alpha", "interaction vector") for fn in (
        canonical.build_ud, canonical.check_weyl, canonical.classify, canonical.lambda_phases)),
]


def _holds(row, good, bad_values):
    for value in good:
        row.call(value)
    wrong = []
    for value, error, fragment in bad_values:
        try:
            row.call(value)
            got = "accepted"
        except Exception as err:  # every value is reported, not only the first
            got = err
        msg = str(got)
        if not (isinstance(got, error) and row.name in msg and fragment in msg):
            wrong.append((value, got))
    assert wrong == []


@pytest.mark.parametrize(
    "row", ROWS, ids=lambda r: f"{r.fn.__name__}-{r.name}".replace(" ", "_")
)
def test_entry_point_keeps_its_contract(row):
    _holds(row, *KINDS[row.kind])


def _key(value):
    try:
        return type(value), repr(value)
    except ValueError:  # an int too long to print is only itself
        return type(value), id(value)


def keeps(fn, kind, *values):
    """Hold the table's `kind` rows of `fn` to the contract; with `values`,
    to those alone, each one of the kind's bad values."""
    rows = [row for row in ROWS if row.fn is fn and row.kind == kind]
    good, bad_values = KINDS[kind]
    if values:
        keys = {_key(v) for v in values}
        good, bad_values = [], [b for b in bad_values if _key(b[0]) in keys]
        assert {_key(b[0]) for b in bad_values} == keys
    assert rows
    for row in rows:
        _holds(row, good, bad_values)


# functions that trust their input: every package caller passes them a value
# it has checked, and a second check would be paid on every request
TRUSTED = (canonical.magic_rep, numerics.unitarity_residual, numerics.wrap_angle)


# exported classes whose constructors check nothing: the records the
# package returns, and the enums
UNCHECKED = {"CaseTag", "DiscriminationReport", "GateClass", "HullResult",
             "InteractionDecomposition", "ShotOutcome"}


def test_every_public_function_has_a_row():
    # and every exported class that checks its input
    covered = {row.fn for row in ROWS}
    public = {name: getattr(gatediscrim, name) for name in gatediscrim.__all__}
    classes = {name for name, obj in public.items() if inspect.isclass(obj)}
    missing = [
        name for name, obj in public.items()
        if (inspect.isfunction(obj) or name in classes - UNCHECKED) and obj not in covered
    ]
    assert missing == []
    assert UNCHECKED <= classes
    assert not {fn.__name__ for fn in TRUSTED} & set(public)


BIG = "9" * 5000  # an int past the 4300 digits that int() takes from text
# kind: (good values, bad values), as the shell passes them
CLI_KINDS = {
    "tol": (["1e-6", "1e-8"], ["nan", "inf", "-1", "0", "oops", "1e400", BIG]),
    "prior": (["0", "0.3", "1"], ["nan", "inf", "-1", "1.5", "oops", "1e400", BIG]),
    "count": (["1", "2"], ["nan", "inf", "-1", "0", "1.5", "oops", "1e400", BIG]),
    "shots": (["1", "100"], ["nan", "inf", "-1", "0", "1.5", "oops", "1e400", BIG,
                             str(10**23)]),
    "seed": (["0", "7"], ["nan", "inf", "-1", "1.5", "oops", "1e400", BIG]),
    "alpha": (["0.3,0.2,0.1", "0,0,0"],
              ["nan,0,0", "0.1,0,-inf", "0.1,0.2,0.3", "0.1,0.2", "-1", "0", "oops,0,0",
               "1e400,0,0", f"{BIG},0,0"]),
    "omega": (["0,1,2,3", "-1,0,1,2"],
              ["nan,0,0,0", "0,inf,0,0", "0,1,2", "-1", "0", "oops,0,0,0", "1e400,0,0,0",
               f"{BIG},0,0,0"]),
}
_PAIR = [g("01"), g("04")]
_FILES = ["--probe-out", "{tmp}/probe.json", "--svg-out", "{tmp}/hull.svg"]
# (command, flag, kind); {tmp} is the test's empty directory
CLI_ROWS = [
    (["decompose", g("04")], "--tol", "tol"),
    (["discriminate", *_PAIR, *_FILES], "--tol", "tol"),
    (["discriminate", *_PAIR, *_FILES], "--p1", "prior"),
    (["simulate", *_PAIR, "--shots", "100"], "--tol", "tol"),
    (["simulate", *_PAIR, "--shots", "100"], "--p1", "prior"),
    (["simulate", *_PAIR, "--shots", "100"], "--seed", "seed"),
    (["simulate", *_PAIR], "--shots", "shots"),
    (["selfcheck", "--trials", "1"], "--seed", "seed"),
    (["selfcheck"], "--trials", "count"),
    (["build-ud", "--out", "{tmp}/gate.json"], "--alpha", "alpha"),
    (["figure", "--out", "{tmp}/hull.svg"], "--omega", "omega"),
    (["figure", "--degrees", "--out", "{tmp}/hull.svg"], "--omega", "omega"),
]


def _command_holds(capsys, tmp_path, argv, flag, good, bad_values):
    argv = [a.format(tmp=tmp_path) for a in argv]
    for value in bad_values:
        code, out, err = run_main(capsys, *argv, flag, value)
        assert (code, out) == (2, ""), value
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # "prior p1", "shots" and "seed" name the flag without its dashes
        assert flag.lstrip("-") in err, err
        assert list(tmp_path.iterdir()) == []
    for value in good:
        code, out, err = run_main(capsys, *argv, flag, value)
        assert code in (0, 1) and err == "", (value, err)


@pytest.mark.parametrize(
    "argv, flag, kind", CLI_ROWS, ids=[f"{a[0]}-{f[2:]}" for a, f, _ in CLI_ROWS]
)
def test_command_keeps_its_contract(capsys, tmp_path, argv, flag, kind):
    _command_holds(capsys, tmp_path, argv, flag, *CLI_KINDS[kind])


def command_keeps(capsys, tmp_path, flag, *values):
    """Hold every CLI row of `flag` to the contract on `values`, each one of
    the row kind's bad values."""
    rows = [(argv, kind) for argv, f, kind in CLI_ROWS if f == flag]
    assert rows
    for argv, kind in rows:
        assert set(values) <= set(CLI_KINDS[kind][1])
        _command_holds(capsys, tmp_path, argv, flag, [], values)
