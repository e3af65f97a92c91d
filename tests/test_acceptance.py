"""Acceptance suite: one test per shipping criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
worst-case numbers and wall time, so the run log doubles as a report.
"""

import math
import time
from pathlib import Path

import numpy as np

from gatediscrim import canonical, cli, discrimination, files, geometry, numerics, oracle
from gatediscrim.discrimination import (
    achieved_overlap,
    concurrence,
    construct_probe,
    error_probability,
    fidelity,
    perfectly_distinguishable,
)
from gatediscrim.numerics import ID4, kron, wrap_angle

from test_cli import DISCRIMINATE_TABLE, g

PI = math.pi


def report(capsys, n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def random_diag_pair(rng):
    u1 = canonical.from_magic_phases(rng.uniform(-PI, PI, 4))
    u2 = canonical.from_magic_phases(rng.uniform(-PI, PI, 4))
    return u1, u2


def test_criterion_1_product_probe_achieves_bound(capsys):
    # 1e4 random magic-diagonal pairs: probe is product (concurrence <= 1e-9)
    # and reaches the hull minimum within 1e-9; budget 30 s
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_gap = worst_conc = 0.0
    for _ in range(10_000):
        u1, u2 = random_diag_pair(rng)
        f, om = fidelity(u1, u2)
        probe = construct_probe(om)
        worst_gap = max(worst_gap, abs(achieved_overlap(probe.u, om) - f))
        worst_conc = max(worst_conc, concurrence(probe.u))
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_conc <= 1e-9 and dt < 30.0
    report(
        capsys, 1, ok,
        f"10000 pairs, worst achieve gap {worst_gap:.2e}, "
        f"worst concurrence {worst_conc:.2e}, {dt:.1f}s of 30s",
    )


def test_criterion_2_locc_equals_global(capsys):
    # 200 random pairs: analytic fidelity, best product probe, and best
    # arbitrary probe agree pairwise within 2e-3; budget 5 min
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        u1, u2 = random_diag_pair(rng)
        f, _ = fidelity(u1, u2)
        pv, _ = oracle.min_over_product_states(u1, u2)
        av, _ = oracle.min_over_all_states(u1, u2)
        worst = max(worst, abs(pv - f), abs(av - f), abs(av - pv))
    dt = time.perf_counter() - t0
    ok = worst <= 2e-3 and dt < 300.0
    report(
        capsys, 2, ok,
        f"200 pairs, worst pairwise gap {worst:.2e}, {dt:.1f}s of 300s",
    )


def test_criterion_3_perfect_distinguishability_predicate(capsys):
    # predicate <=> fidelity <= 1e-9 on 1e4 random pairs, plus exact-pi
    # boundary families counted distinguishable; budget 10 s
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        u1, u2 = random_diag_pair(rng)
        f, _ = fidelity(u1, u2)
        if perfectly_distinguishable(u1, u2) != (f <= 1e-9):
            mismatches += 1
    boundary_bad = 0
    boundary = [
        (0.0, PI, 0.0, PI),
        (0.0, 0.0, PI, PI),
        (0.3, 0.3 + PI, 0.3, 0.3 + PI),
        (-1.1, -1.1 + PI, -1.1 + PI, -1.1),
        (0.0, PI / 2, PI, PI / 2),
        (0.7, 0.7 + PI / 3, 0.7 + PI, 0.7),
    ]
    for om in boundary:
        u2 = canonical.from_magic_phases(om)
        f, _ = fidelity(ID4, u2)
        if not perfectly_distinguishable(ID4, u2) or f > 1e-9:
            boundary_bad += 1
    u2 = canonical.build_ud((PI / 4, PI / 4, 0.0))
    if not perfectly_distinguishable(ID4, u2):
        boundary_bad += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and boundary_bad == 0 and dt < 10.0
    report(
        capsys, 3, ok,
        f"10000 pairs, {mismatches} mismatches, "
        f"{boundary_bad} boundary failures, {dt:.1f}s of 10s",
    )


def test_criterion_4_error_probability_simulation(capsys):
    # anchor case plus 20 random cases at 1e5 shots, each within 3 analytic
    # standard errors; budget 60 s
    t0 = time.perf_counter()
    shots = 100_000
    bad = []

    def check(tag, u1, u2, p1, seed):
        rep = discrimination.discriminate(u1, u2, p1=p1)
        out = oracle.helstrom_simulate(u1, u2, rep.probe, p1=p1, shots=shots, seed=seed)
        sigma = math.sqrt(rep.error_probability * (1 - rep.error_probability) / shots)
        gap = abs(out.empirical_rate - rep.error_probability)
        if gap > 3.0 * sigma + 1e-12:
            bad.append(f"{tag}: gap {gap:.2e} > 3 sigma {3 * sigma:.2e}")
        return gap

    anchor_gate = canonical.build_ud((PI / 8, 0, 0))
    anchor_pe = error_probability(math.cos(PI / 8), 0.5, 0.5)
    assert abs(anchor_pe - 0.3086583) <= 5e-8
    worst = check("anchor", ID4, anchor_gate, 0.5, 404)
    rng = np.random.default_rng(404)
    for i in range(20):
        u1, u2 = random_diag_pair(rng)
        p1 = float(rng.uniform(0.2, 0.8))
        worst = max(worst, check(f"case {i}", u1, u2, p1, 1000 + i))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60.0
    report(
        capsys, 4, ok,
        f"anchor + 20 cases at {shots} shots, worst gap {worst:.2e}"
        + (f", failures: {'; '.join(bad)}" if bad else "")
        + f", {dt:.1f}s of 60s",
    )


def test_criterion_5_decomposition_roundtrip(capsys):
    # 1e3 Weyl vectors: plain round trip within 1e-8, locally dressed within
    # 1e-7; budget 30 s
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst_plain = worst_dressed = 0.0
    for _ in range(1000):
        d = canonical.random_weyl_vector(rng)
        got = canonical.extract_interaction(canonical.build_ud(d)).alpha
        worst_plain = max(worst_plain, float(np.max(np.abs(got - d))))
        dressed = (
            kron(numerics.random_su2(rng), numerics.random_su2(rng))
            @ canonical.build_ud(d)
            @ kron(numerics.random_su2(rng), numerics.random_su2(rng))
        )
        got = canonical.extract_interaction(dressed).alpha
        worst_dressed = max(worst_dressed, float(np.max(np.abs(got - d))))
    dt = time.perf_counter() - t0
    ok = worst_plain <= 1e-8 and worst_dressed <= 1e-7 and dt < 30.0
    report(
        capsys, 5, ok,
        f"1000 vectors, worst plain {worst_plain:.2e} (tol 1e-8), "
        f"worst dressed {worst_dressed:.2e} (tol 1e-7), {dt:.1f}s of 30s",
    )


def test_criterion_6_concurrence_definitions_agree(capsys):
    # magic-amplitude |sum u^2| vs spin-flip |<psi|sy x sy|psi*>| within
    # 1e-10 on 1e4 states; the antisymmetric-support state is exactly 0
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    yy = kron(numerics.PAULI_Y, numerics.PAULI_Y)
    worst = 0.0
    for _ in range(10_000):
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        u /= np.linalg.norm(u)
        psi = canonical.MAGIC_BASIS @ u
        spin_flip = abs(psi @ yy @ psi)
        worst = max(worst, abs(concurrence(u) - spin_flip))
    special = concurrence([0.0, 1 / math.sqrt(2), 1j / math.sqrt(2), 0.0])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and special <= 1e-15
    report(
        capsys, 6, ok,
        f"10000 states, worst definition gap {worst:.2e}, "
        f"special state {special:.2e}, {dt:.1f}s",
    )


def test_criterion_7_midpoint_containment_at_scale(capsys):
    # 1e5 random origin-inside phase sets: every probe construction meets
    # criterion 1's tolerances
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    needed = 100_000
    done = failures = 0
    worst_gap = worst_conc = 0.0
    while done < needed:
        batch = rng.uniform(-PI, PI, size=(40_000, 4))
        ph = np.sort(wrap_angle(-batch), axis=1)
        gaps = np.diff(ph, axis=1)
        wrap_gap = ph[:, 0] + 2 * PI - ph[:, -1]
        spread = 2 * PI - np.maximum(gaps.max(axis=1), wrap_gap)
        for om in batch[spread >= PI]:
            if done >= needed:
                break
            done += 1
            try:
                probe = construct_probe(om)
            except Exception:
                failures += 1
                continue
            worst_gap = max(worst_gap, achieved_overlap(probe.u, om))
            worst_conc = max(worst_conc, concurrence(probe.u))
    dt = time.perf_counter() - t0
    ok = failures == 0 and worst_gap <= 1e-9 and worst_conc <= 1e-9
    report(
        capsys, 7, ok,
        f"{done} inside sets, {failures} failures, "
        f"worst overlap {worst_gap:.2e}, worst concurrence {worst_conc:.2e}, "
        f"{dt:.1f}s",
    )


def test_criterion_8_cli_golden_corpus(capsys, tmp_path):
    # committed corpus: exit codes match the table and reports/SVGs are
    # byte-identical across two consecutive runs
    t0 = time.perf_counter()
    problems = []
    runs = []
    for r in range(2):
        outputs = {}
        for first, second, expected in DISCRIMINATE_TABLE:
            argv = ["discriminate", g(first), g(second)]
            paths = ()
            if expected != 2:
                probe = tmp_path / f"{r}_{first}_{second}_probe.json"
                fig = tmp_path / f"{r}_{first}_{second}.svg"
                argv += ["--probe-out", str(probe), "--svg-out", str(fig)]
                paths = (probe, fig)
            code = cli.main(argv)
            out = capsys.readouterr().out
            if code != expected:
                problems.append(f"{first} vs {second}: exit {code} != {expected}")
            blobs = [out.encode()] + [p.read_bytes() for p in paths]
            outputs[(first, second)] = blobs
        runs.append(outputs)
    for key, blobs in runs[0].items():
        if blobs != runs[1][key]:
            problems.append(f"{key}: outputs differ between runs")
    dt = time.perf_counter() - t0
    ok = not problems
    report(
        capsys, 8, ok,
        f"{len(DISCRIMINATE_TABLE)} corpus commands x2 runs"
        + (f", problems: {'; '.join(problems)}" if problems else "")
        + f", {dt:.1f}s",
    )
