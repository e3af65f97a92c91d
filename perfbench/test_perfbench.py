"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostref  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n,pct,beyond",
    [(19, 50.0, 9), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (99, 75.0, 24),
     (100, 90.0, 10), (999, 90.0, 99), (30_000, 90.0, 3000)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, pct, beyond):
    samples = list(range(n, 0, -1))  # order must not matter
    got_pct, value, got_beyond = spans.tail_percentile(samples)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(s > value for s in samples) == beyond


def test_self_time_subtracts_direct_children_only():
    s = spans.Span
    tree = [
        s(0, "root", 0, 100, None, 1),
        s(1, "a", 10, 30, 0, 1),
        s(2, "b", 40, 70, 0, 1),
        s(3, "b.inner", 45, 50, 2, 1),
    ]
    assert spans.self_times(tree) == {0: 50, 1: 20, 2: 25, 3: 5}


def test_covered_ns_merges_overlaps_and_clips():
    assert spans.covered_ns(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40


def test_tracer_records_parents_and_layer_stats():
    tr = spans.Tracer()
    tr.op = 7
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer = next(s for s in tr.spans if s.name == "outer")
    inner = [s for s in tr.spans if s.name == "inner"]
    assert all(s.parent == outer.id and s.op == 7 for s in inner)
    stats = spans.layer_stats(tr.spans)
    assert stats["inner"]["calls"] == 2
    own = spans.self_times(tr.spans)[outer.id]
    assert stats["outer"]["busy_ms"] == pytest.approx(own / 1e6)


def test_perturbed_sweep_output_is_counted_failed():
    it = inputs.sweep_pool(3)[0]
    rep = workloads.sweep_op(it)
    assert workloads.sweep_check(it, rep) is None
    bumped = dataclasses.replace(rep, fidelity=rep.fidelity + 1e-6)
    assert "fidelity" in workloads.sweep_check(it, bumped)


def test_perturbed_decompose_output_is_counted_failed():
    it = inputs.decompose_pool(3)[0]
    dec, cls = workloads.decompose_op(it)
    assert workloads.decompose_check(it, (dec, cls)) is None
    bumped = dataclasses.replace(dec, alpha=dec.alpha + 1e-6)
    assert "round trip" in workloads.decompose_check(it, (bumped, cls))


def test_cli_checker_flags_changed_bytes_and_exit_codes(tmp_path):
    item = inputs.cli_mix(ROOT, tmp_path)[0]
    check = workloads.CliChecker()
    out = workloads.cli_inprocess(item)
    assert check(item, out) is None
    assert "bytes differ" in check(item, dataclasses.replace(out, stdout=out.stdout + b" "))
    assert "exit" in check(item, dataclasses.replace(out, code=out.code + 1))


def test_known_defect_inputs_stay_in_the_data():
    om = inputs.sweep_register(0)[0].omega
    assert np.allclose(om, inputs.wrap(np.array(inputs.DEFECT_OMEGA)))
    labels = [it.label for it in inputs.cli_register(Path("x"))]
    assert "figure --omega nan,0,0,0" in labels


def _spin(n):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


_M = np.arange(16.0).reshape(4, 4) + 1j


def _eigvals(n):
    for _ in range(n):
        np.linalg.eigvals(_M @ _M.conj().T)


@pytest.mark.parametrize("extra", [lambda: _spin(8000), lambda: _eigvals(6)],
                         ids=["interpreter", "numpy"])
def test_host_scaling_passes_an_injected_cost_through(extra):
    """An op slowed by fixed extra work is slower by the same ratio before and after scaling.

    If the extra work changed how fast the reference samples timed between
    ops run (warm caches, allocator, GC), the scaled ratio would differ
    from the raw one.
    """
    pool = inputs.sweep_pool(5)[:256]
    ops = {"base": workloads.sweep_op, "slow": lambda it: (workloads.sweep_op(it), extra())}
    ratios = {"raw": [], "scaled": []}
    for _ in range(6):  # pairs of short runs, so that both halves see the same host phase
        p50 = {}
        for k, op in ops.items():
            t = run.time_ops(op, run.cycle_batches(pool, 64), 0.3, hostref.Reference(), 16,
                             lambda it, out: None)
            p50[k] = (np.median(t.raw_ns), np.median(t.scaled_ns))
        ratios["raw"].append(p50["slow"][0] / p50["base"][0])
        ratios["scaled"].append(p50["slow"][1] / p50["base"][1])
    ratio_raw, ratio_scaled = (statistics.median(v) for v in ratios.values())
    assert ratio_raw > 1.15
    assert ratio_scaled == pytest.approx(ratio_raw, rel=0.1)


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_end_to_end_run_reports_every_end_to_end_metric(capsys):
    res = _result(capsys, "--workload", "sweep", "--seed", "1", "--seconds", "0.2")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(capsys):
    res = _result(capsys, "--workload", "verify", "--seed", "1", "--seconds", "0.2", "--trace", "1")
    names = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert res["metrics"]["known_defects.sweep.failed"]["value"] > 0
    assert res["metrics"]["known_defects.cli.failed"]["value"] > 0
