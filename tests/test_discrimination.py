import ast
import dataclasses
import importlib
import inspect
import itertools
import math
import pkgutil

import numpy as np
import pytest

import gatediscrim
from gatediscrim import canonical, discrimination, files, geometry, numerics, oracle
from gatediscrim.discrimination import (
    CaseTag,
    concurrence,
    construct_probe,
    discriminate,
    error_probability,
)
from gatediscrim.errors import (
    ConstructionFailedError,
    DomainError,
    NotNormalizedError,
)
from gatediscrim.numerics import ID4, wrap_angle

import fingerprint
from conftest import polygon_origin_distance, random_state
from test_contract import keeps

PI = math.pi
SQ2 = 1.0 / math.sqrt(2.0)


def test_concurrence_examples():
    assert concurrence([1, 0, 0, 0]) == pytest.approx(1.0)
    assert concurrence([SQ2, 1j * SQ2, 0, 0]) == pytest.approx(0.0, abs=1e-15)
    assert concurrence([0, SQ2, 1j * SQ2, 0]) == pytest.approx(0.0, abs=1e-15)
    assert concurrence([0.5, 0.5, 0.5, 0.5]) == pytest.approx(1.0)


def test_concurrence_cross_definition(rng):
    # independent definition: 2 |a00 a11 - a01 a10| on the computational ket
    for _ in range(500):
        u = random_state(rng)
        amp = canonical.MAGIC_BASIS @ u
        ref = 2.0 * abs(amp[0] * amp[3] - amp[1] * amp[2])
        assert abs(concurrence(u) - ref) <= 1e-10


def test_concurrence_requires_normalization():
    keeps(concurrence, "amplitudes", [1, 1, 0, 0])


def test_factor_product_recovers_factors(rng):
    for _ in range(100):
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        probe = discrimination.ProbeState(canonical.MAGIC_BASIS.conj().T @ np.kron(a, b))
        fa, fb = probe.local_a, probe.local_b
        # same product state up to the stored gauge
        np.testing.assert_allclose(np.kron(fa, fb), np.kron(a, b), atol=1e-9)
        np.testing.assert_allclose(probe.psi_computational, np.kron(a, b), atol=1e-12)
        lead = np.flatnonzero(np.abs(fa) > 1e-9)[0]
        assert abs(fa[lead].imag) <= 1e-12
        assert fa[lead].real > 0


def test_probe_factors_are_built_on_first_read(monkeypatch):
    calls, factor = [], discrimination._factor

    def counted(psi):
        calls.append(1)
        return factor(psi)

    monkeypatch.setattr(discrimination, "_factor", counted)
    u2 = canonical.from_magic_phases([0.3, 1.9, -2.2, 0.8])
    probes = [
        discriminate(ID4, u2).probe,
        construct_probe([0.3, 1.9, -2.2, 0.8]),
        oracle.min_over_product_states(ID4, u2)[1],
    ]
    assert calls == []
    for k, probe in enumerate(probes, 1):
        a, b = probe.local_a, probe.local_b
        assert probe.local_a is a and len(calls) == k
        np.testing.assert_allclose(np.kron(a, b), probe.psi_computational, atol=1e-9)


def test_a_probe_is_its_amplitudes():
    u = np.array([SQ2, 1j * SQ2, 0, 0])
    probe = discrimination.ProbeState(u)
    u[0] = 0.0
    assert probe.u[0] == SQ2 and [f.name for f in dataclasses.fields(probe) if f.init] == ["u"]
    for field in (probe.u, probe.psi_computational):
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0.0
    with pytest.raises(TypeError):
        discrimination.ProbeState(probe.u, probe.psi_computational, 0.0)


def test_records_compare_and_hash_by_identity():
    # an ndarray field has no single truth value: records compare as
    # objects, so == neither raises nor calls equal-valued records equal
    om = [0.3, 1.9, -2.2, 0.8]
    u2 = canonical.from_magic_phases(om)
    for make in (lambda: construct_probe(om), lambda: discriminate(ID4, u2)):
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_error_probability_values():
    assert error_probability(0.0, 0.5, 0.5) == 0.0
    assert error_probability(1.0, 0.5, 0.5) == pytest.approx(0.5)
    assert error_probability(1.0, 0.3, 0.7) == pytest.approx(0.3)
    anchor = error_probability(math.cos(PI / 8), 0.5, 0.5)
    assert anchor == pytest.approx(0.3086583, abs=5e-8)


def test_error_probability_monotone(rng):
    f = np.sort(rng.uniform(0, 1, size=50))
    vals = [error_probability(x, 0.4, 0.6) for x in f]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_error_probability_domain():
    # each value alone is the contract table's; here, the priors' sum
    with pytest.raises(DomainError):
        error_probability(0.5, 0.7, 0.7)
    with pytest.raises(DomainError):
        error_probability(0.5, -0.1, 1.1)
    # each prior passes require_prior: no p1 past its 1e-12 slack even where
    # the 1e-9 sum slack would take it
    with pytest.raises(DomainError, match="prior p1"):
        error_probability(0.5, 1.0 + 5e-10, 0.0)
    r = discriminate(ID4, canonical.build_ud((PI / 8, 0, 0)), p1=np.float32(0.25))
    assert type(r.p1) is float and type(r.p2) is float and r.p1 == 0.25


def check_probe(probe, omega, expect_value, tol=1e-9):
    achieved = discrimination.achieved_overlap(probe.u, omega)
    assert abs(achieved - expect_value) <= tol
    np.testing.assert_allclose(
        np.kron(probe.local_a, probe.local_b), probe.psi_computational, rtol=0, atol=1e-12
    )


def test_probe_square_case():
    om = np.array([0.0, PI / 2, PI, -PI / 2])
    p = construct_probe(om)
    np.testing.assert_allclose(p.weights, np.full(4, 0.25), atol=1e-12)
    phases = np.angle(p.u[np.abs(p.u) > 1e-12])
    assert sorted(np.round(np.abs(phases), 6)) == pytest.approx([0, 0, PI / 2, PI / 2], abs=1e-6)
    check_probe(p, om, 0.0)
    assert not p.via_fallback


def test_probe_antipodal_pair():
    om = np.array([0.0, PI, 0.0, PI])
    p = construct_probe(om)
    np.testing.assert_allclose(p.weights, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(p.u[0], SQ2, atol=1e-12)
    np.testing.assert_allclose(p.u[1], 1j * SQ2, atol=1e-12)
    check_probe(p, om, 0.0)
    # pairs split by an ulp, in every order: the chord through the origin,
    # where Varignon weights over the four raw points divide by zero
    for pair in ([0.2892537411489346, -2.8523389124408585, 0.28925374114893465, -2.8523389124408585],
                 [-2.856239860691277, -2.856239860691277, 0.2853527928985162, 0.28535279289851617]):
        for order in itertools.permutations(range(4)):
            om = np.array(pair)[list(order)]
            assert geometry.hull_of_phases(wrap_angle(-om)).origin_inside
            check_probe(construct_probe(om), om, 0.0, tol=numerics.VERDICT_TOL)


def test_probe_outside_case():
    om = np.array([0.0, PI / 3, PI / 6, PI / 4])
    p = construct_probe(om)
    # support on the angular extremes, equal weight, 90 degree relative phase
    assert abs(p.u[1]) == pytest.approx(SQ2)
    assert abs(p.u[0]) == pytest.approx(SQ2)
    assert p.weights[2] == 0.0 and p.weights[3] == 0.0
    check_probe(p, om, math.cos(PI / 6))


def test_probe_three_vertices_padded():
    om = np.array([0.0, 2.2, -2.0, 2.2])
    p = construct_probe(om)
    assert np.all(np.abs(p.u) > 1e-3)  # padded cycle uses all four slots
    check_probe(p, om, 0.0)


def test_probe_identical_phases():
    om = np.array([0.4, 0.4, 0.4, 0.4])
    p = construct_probe(om)
    check_probe(p, om, 1.0)


def test_probe_random_inside():
    for om in fingerprint.inside_omegas(300):
        check_probe(construct_probe(om), om, 0.0)


def test_probe_random_outside(rng):
    # 301 of the 600 sets have the origin outside their hull
    for om in rng.uniform(-PI, PI, size=(600, 4)):
        h = geometry.hull_of_phases(wrap_angle(-om), tol=1e-10)
        if not h.origin_inside:
            check_probe(construct_probe(om), om, h.min_distance)


def test_probe_in_the_verdict_band():
    # spreads just below pi: the hull misses the origin by at most
    # VERDICT_TOL, so the verdict is inside, and the probe, the extremes'
    # chord, reaches the hull's own distance
    rng = np.random.default_rng(1711)
    for d in np.repeat([5e-10, 1e-9, 1.9e-9], 1000):
        lo = rng.uniform(-PI, PI)
        phases = rng.permutation([lo, lo + PI - d, *(lo + rng.uniform(0, PI - d, 2))])
        r = discriminate(ID4, canonical.from_magic_phases(wrap_angle(-phases)))
        assert r.perfectly_distinguishable and r.achieved_value <= numerics.VERDICT_TOL


def test_probe_in_the_verdict_band_with_a_merged_extreme():
    # as above, but each of the two other phases sits interior, or up to
    # 1e-10 inside an extreme, within DEDUPE_TOL of it; every order of the
    # four phases.  The chord sits on the raw extremes, in the band and
    # outside it (spreads in (0.05, pi - 1e-3)); on a phase up to 1e-10
    # inside an extreme it would miss by up to that share of the spread,
    # past VERDICT_TOL in the band and past a few ulps of the fidelity
    # outside it.  The one-point and antipodal 2+2 sets close the list, so
    # every chord the probe draws is held to `extremes`
    rng = np.random.default_rng(2525)
    band = [np.array([9e-11, 0.0, 1.0, PI - 1.99e-9])]
    for k, d in enumerate(np.repeat([1.9e-9, 1.99e-9], 40)):
        lo = rng.uniform(-PI, PI)
        hi = lo + PI - d
        inner = [lo + rng.uniform(0.1, PI - 0.2), lo + rng.uniform(0, 1e-10),
                 hi - rng.uniform(0, 1e-10)]
        band += [np.array([lo, hi, inner[k % 3], inner[(k + 1) % 3]])]
    outside = []
    for k, spread in enumerate(rng.uniform(0.05, PI - 1e-3, 60)):
        lo = rng.uniform(-PI, PI)
        hi = lo + spread
        merged = [lo + rng.uniform(0, 1e-10), hi - rng.uniform(0, 1e-10)][k % 2]
        outside += [np.array([lo, hi, merged, lo + rng.uniform(0, spread)])]
    # of the lone-vertex and 2+2 sets only the last, antipodal, holds the origin
    repeated = list(fingerprint.repeated_omegas(rng, 5, ("4", "2+2")))
    chords = [(p, False) for p in repeated[:-1]] + [(repeated[-1], True)]
    eps = np.finfo(float).eps
    for phases, inside in [(p, True) for p in band] + [(p, False) for p in outside] + chords:
        for order in itertools.permutations(range(4)):
            om = wrap_angle(-phases[list(order)])
            r = discriminate(ID4, canonical.from_magic_phases(om))
            chord = geometry.hull_of_phases(-r.omega).extremes
            assert sorted(np.flatnonzero(r.probe.u)) == sorted(chord)
            assert r.perfectly_distinguishable is inside
            if inside:
                assert r.achieved_value <= numerics.VERDICT_TOL
            else:
                assert abs(r.achieved_value - r.fidelity) <= 4 * eps


def test_probe_forced_miss_raises(monkeypatch):
    # a product state that misses the hull minimum, 0, by 1/sqrt(2); the
    # closed form is the only route, so the miss surfaces and no search runs
    om = np.array([0.0, PI / 2, PI, -PI / 2])
    wrong = np.array([SQ2, 1j * SQ2, 0.0, 0.0])
    monkeypatch.setattr(discrimination, "_amplitudes_for_hull", lambda hull: wrong)

    def no_search(*args, **kwargs):
        raise AssertionError("the probe route ran a grid search")

    monkeypatch.setattr(oracle, "min_over_product_states", no_search)
    with pytest.raises(ConstructionFailedError):
        construct_probe(om)
    with pytest.raises(ConstructionFailedError):
        discriminate(ID4, canonical.from_magic_phases(om))


def test_discrimination_imports_no_search():
    # oracle depends on discrimination, not the reverse
    tree = ast.parse(inspect.getsource(discrimination))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    modules = {part for name in names for part in name.split(".")}
    assert not modules & {"oracle", "_kernels"}


def test_probe_rejects_bad_omega():
    keeps(construct_probe, "4 phases", [0.0, 1.0, 2.0])


def test_discriminate_report_fields():
    u_pi8 = canonical.build_ud((PI / 8, 0, 0))
    r = discriminate(ID4, u_pi8, p1=0.3)
    assert r.p1 == 0.3 and r.p2 == pytest.approx(0.7)
    assert r.case is CaseTag.ORIGIN_OUTSIDE
    assert r.fidelity == pytest.approx(math.cos(PI / 8), abs=1e-12)
    np.testing.assert_allclose(r.omega, [PI / 8, -PI / 8, -PI / 8, PI / 8], atol=1e-12)
    assert abs(r.achieved_value - r.fidelity) <= 1e-9
    assert r.error_probability == pytest.approx(
        error_probability(math.cos(PI / 8), 0.3, 0.7)
    )
    assert not r.perfectly_distinguishable

    r = discriminate(ID4, canonical.build_ud((PI / 4, PI / 4, 0.0)))
    assert r.case is CaseTag.ORIGIN_INSIDE
    assert r.perfectly_distinguishable and r.fidelity <= 1e-9
    assert r.error_probability == 0.0

    r = discriminate(ID4, ID4)
    assert r.fidelity == pytest.approx(1.0) and not r.perfectly_distinguishable
    # phases an ulp or two apart are one point, at fidelity exactly 1.0: the
    # chord's rounding can put it an ulp below, which moves the error
    # probability by 7.45e-9
    a = np.full(4, 0.3)
    for k in itertools.product(range(-2, 3), repeat=4):
        r = discriminate(ID4, canonical.from_magic_phases(a + np.array(k) * np.spacing(a)))
        assert r.fidelity == 1.0 and r.error_probability == 0.5


def check_pair(u1, u2, p1):
    """`discriminate` at the exact hull distance within criterion 1's
    bounds; `relative_phases` and `construct_probe` answer from the same
    omega and hull."""
    r = discriminate(u1, u2, p1=p1)
    assert r.perfectly_distinguishable == (r.fidelity <= 1e-9)
    assert abs(r.fidelity - polygon_origin_distance(-r.omega)) <= 1e-9
    assert abs(r.achieved_value - r.fidelity) <= 1e-9
    check_probe(construct_probe(r.omega), r.omega, r.fidelity)
    assert canonical.relative_phases(u1, u2).tobytes() == r.omega.tobytes()
    return r


def test_discriminate_verdict_iff_fidelity(rng):
    # uniform pairs; the near-pi and repeated-phase families are
    # test_reference.py's
    for _, _, u1, u2 in fingerprint.magic_pairs(rng, 200):
        check_pair(u1, u2, float(rng.uniform()))


def test_discriminate_rejects_bad_prior():
    keeps(discriminate, "prior", 1.5)


def test_discriminate_rejects_dressed(rng):
    from conftest import dressed_gate

    u = dressed_gate(rng, canonical.random_weyl_vector(rng))
    with pytest.raises(DomainError):
        discriminate(ID4, u)


def _boundary_omegas():
    # omega = (0, pi - 5e-11, 0.5, 0.2) once reported "perfectly
    # distinguishable" with case OriginOutside
    yield pytest.param(np.array([0.0, PI - 5e-11, 0.5, 0.2]), id="pi-5e-11")
    # spreads pi - 10^x on both sides of the verdict rule (cos(s/2) = 1e-9
    # at a deficit of 2e-9)
    for x in np.linspace(-12.0, -8.0, 17):
        om = np.array([0.0, 0.5, 1.9, PI - 10.0**x])
        yield pytest.param(om, id=f"pi-1e{x:+.2f}")
    # spreads a few ulp either side of pi
    for k in range(-4, 5):
        om = np.array([0.0, 0.5, 1.9, PI + k * math.ulp(PI)])
        yield pytest.param(om, id=f"pi{k:+d}ulp")


@pytest.mark.parametrize("om", list(_boundary_omegas()))
def test_boundary_verdicts_agree(om):
    r = check_pair(ID4, canonical.from_magic_phases(om), 0.5)
    inside = r.case is CaseTag.ORIGIN_INSIDE
    assert r.perfectly_distinguishable == inside
    if math.cos(geometry.arc_spread(om) / 2) <= 0.9 * geometry.VERDICT_TOL:
        assert inside
    assert not r.probe.via_fallback and not construct_probe(r.omega).via_fallback


def test_discriminate_builds_one_hull(monkeypatch):
    # the request reaches the hull through its unchecked core
    calls = {"_hull_of_phases": 0, "relative_phases": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(geometry, "_hull_of_phases")
    counted(canonical, "relative_phases")
    for alpha in [(PI / 8, 0, 0), (PI / 4, PI / 4, 0.0), (0.5, 0.2, 0.1)]:
        before = dict(calls)
        discriminate(ID4, canonical.build_ud(alpha))
        assert {k: calls[k] - before[k] for k in calls} == {
            "_hull_of_phases": 1,
            "relative_phases": 1,
        }


def test_discriminate_validates_only_its_own_arguments(monkeypatch):
    # every `numerics.require_*` call in a request takes one of the
    # request's own arguments, but for the probe's one check of the
    # amplitudes it is built from: the phases, p2 and overlap the request
    # derives are not validated again, and p1 is checked once
    calls = []
    validators = {
        name: fn
        for name, fn in vars(numerics).items()
        if name.startswith("require_") and callable(fn)
    }
    for info in pkgutil.iter_modules(gatediscrim.__path__):
        module = importlib.import_module(f"gatediscrim.{info.name}")
        for name, fn in validators.items():
            if getattr(module, name, None) is fn:

                def wrapper(*args, _name=name, _fn=fn, **kwargs):
                    calls.append((_name, args[0]))
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, wrapper)
    p1, tol = 0.3, 1e-8
    for alpha in [(0, 0, 0), (PI / 8, 0, 0), (PI / 4, PI / 4, 0.0), (0.5, 0.2, 0.1)]:
        u2 = canonical.build_ud(alpha)
        calls.clear()
        probe = discriminate(ID4, u2, p1=p1, tol=tol).probe
        assert [c for c in calls if c[0] == "require_prior"] == [("require_prior", p1)]
        (u,) = [arg for name, arg in calls if name == "require_normalized"]
        np.testing.assert_array_equal(u, probe.u)
        assert "require_finite" not in {n for n, _ in calls}
        for name, arg in calls:
            # require_gates takes the pair as one tuple
            for a in arg if name == "require_gates" else [arg]:
                assert any(a is x for x in (ID4, u2, p1, tol, u)), (name, arg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_probe_rejects_non_finite_omega(bad):
    keeps(construct_probe, "4 phases", [0.0, bad, 1.0, 2.0])


def test_probe_for_hull_fails_on_nan():
    om = np.array([0.0, PI / 2, PI, -PI / 2])
    hull = dataclasses.replace(geometry.hull_of_phases(-om), min_distance=math.nan)
    with pytest.raises(ConstructionFailedError):
        discrimination._probe_for_hull(om, hull)


def test_tolerance_checks_fail_on_nan():
    with pytest.raises(NotNormalizedError, match="probe amplitudes"):
        discrimination.ProbeState([math.nan, 0, 0, 0])


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_gate_pair_entry_points_check_tol(tol):
    # a DomainError about `tol`, not a NotUnitaryError about the gate
    for fn in (numerics.require_unitary, canonical.extract_interaction,
               files.load_matrix_file, oracle.helstrom_simulate, discriminate):
        keeps(fn, "tol", tol)


def test_gate_pair_entry_points_reject_non_4x4():
    keeps(discriminate, "gate", np.eye(3))


@pytest.mark.parametrize(
    "kind, value",
    [
        ("amplitudes", [1, 0, 0]),
        ("amplitudes", [1, 0, 0, 0, 0]),
        ("4 phases", [0.0, 1.0, 2.0]),
        ("4 phases", [0.0, math.nan, 1.0, 2.0]),
        ("4 phases", [0.0, 0.0, math.inf, 0.0]),
        ("4 phases", [-math.inf, 0.0, 0.0, 0.0]),
    ],
    ids=["u3", "u5", "omega3", "omega_nan", "omega_inf", "omega_minus_inf"],
)
def test_achieved_overlap_rejects_bad_input(kind, value):
    keeps(discrimination.achieved_overlap, kind, value)


def test_achieved_overlap_and_construct_probe_share_messages():
    # one validator: the same omega fails both with the same message
    for om in ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0, 2.0]):
        with pytest.raises(DomainError) as a:
            discrimination.achieved_overlap([1.0, 0.0, 0.0, 0.0], om)
        with pytest.raises(DomainError) as b:
            construct_probe(om)
        assert str(a.value) == str(b.value)


def test_probe_for_hull_returns_overlap_and_concurrence():
    om = wrap_angle(np.array([0.3, 1.1, -0.4, 0.9]))
    r = discriminate(ID4, canonical.from_magic_phases(om))
    p, got = discrimination._probe_for_hull(om, geometry.hull_of_phases(-om))
    assert got == discrimination.achieved_overlap(p.u, om)
    assert abs(got - r.fidelity) <= numerics.VERDICT_TOL
    assert p.concurrence == concurrence(p.u) <= numerics.VERDICT_TOL
    assert r.achieved_value == discrimination.achieved_overlap(r.probe.u, r.omega)
