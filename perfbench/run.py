"""Benchmark of gatediscrim: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: sweep, decompose, verify,
cli (see perfbench/README.md).  With --trace 0 the run times ops for
--seconds and reports the end-to-end metrics; with --trace 1 it traces a
fixed, seeded set of ops and reports per-layer metrics from spans recorded
around the calls into each module.  Human-readable lines come first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import machine

machine.pin_blas_threads()  # before numpy is imported

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("sweep", "decompose", "verify", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed region of an end-to-end run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def say(key: str, value) -> None:
    print(f"# {key}: {json.dumps(value)}", flush=True)


def check_checkout() -> str | None:
    for rel in ("src/gatediscrim/__init__.py", "tests/test_cli.py", "tests/data/golden"):
        if not (ROOT / rel).exists():
            return f"{rel} not found under {ROOT}; run from a checkout of the repository"
    return None


# --- set-up ------------------------------------------------------------------


def setup_probe(args) -> None:
    """In a fresh process: import gatediscrim and run the first op once.

    Only the op's own module (`ops`, a few lines over the public API) is
    imported inside the timed region; the inputs and the host-speed
    reference are made and warmed before it.
    """
    import hostref
    import inputs

    first = inputs.POOLS[args.workload](args.seed)[0]
    ref = hostref.Reference(units=4)
    hostref.unit()
    ref.sample()
    t0 = time.perf_counter()
    import gatediscrim  # noqa: F401
    import ops

    ops.OPS[args.workload](first)
    elapsed = time.perf_counter() - t0
    ref.sample()
    print(json.dumps({"setup_s": elapsed, "slowdown": ref.slowdowns()[0]}))


def setup_seconds(wl, args, pool, ctx) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_SAMPLES fresh processes, host-scaled and raw.

    Each is divided by the slowdown of the workload's reference, timed
    just before and after it.  For cli the first op is itself a fresh
    process and is timed cold.
    """
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        if wl.name == "cli":
            ref = wl.reference(ctx)
            ref.sample()
            t0 = time.perf_counter()
            wl.run(pool[0], ctx)
            elapsed = time.perf_counter() - t0
            ref.sample()
            slowdown = ref.slowdowns()[0]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env, cwd=ROOT,
                                  timeout=120, check=True)
            got = json.loads(proc.stdout.strip().splitlines()[-1])
            elapsed, slowdown = got["setup_s"], got["slowdown"]
        raw.append(elapsed)
        scaled.append(elapsed / slowdown)
    return scaled, raw


# --- helpers -----------------------------------------------------------------


def scratch_root() -> Path:
    path = ROOT / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def context(out_dir: Path):
    import workloads

    return workloads.Context(ROOT, out_dir, workloads.cli_env(ROOT))


def cycle_batches(pool, size):
    items = itertools.cycle(pool)
    while True:
        yield [next(items) for _ in range(size)]


def run_register(wl, seed, ctx) -> dict:
    """Check the workload's known-defect inputs; they are not part of the timed ops."""
    if wl.register is None:
        return {"checked": 0, "failed": 0, "first_failures": []}
    check = wl.checker()
    failures = []
    items = wl.register(seed, ctx)
    for it in items:
        reason = check(it, wl.run(it, ctx))
        if reason:
            failures.append(reason)
    return {"checked": len(items), "failed": len(failures), "first_failures": failures[:3]}


# --- untraced run ------------------------------------------------------------


@dataclass
class Timing:
    raw_ns: np.ndarray  # wall time of each op
    scaled_ns: np.ndarray  # the same, divided by the host slowdown around the op
    slowdowns: np.ndarray  # one per chunk of ops between reference samples
    failures: list[str]


def time_ops(run, batches, seconds, ref, ref_stride, check) -> Timing:
    """Closed loop over `batches` for `seconds`, one op at a time.

    A reference sample is taken before every `ref_stride` ops; each op's
    time is divided by the host slowdown the samples around it show.
    Outputs are checked after each batch, outside the timed ops.
    """
    raw = array("q")
    chunk_of = array("q")  # index of the reference sample before each op
    failures: list[str] = []
    start = time.perf_counter()
    last_batch_s = 0.0
    for batch in batches:
        if raw and time.perf_counter() - start + last_batch_s > seconds:
            break
        b0 = time.perf_counter()
        outs = []
        for it in batch:
            if len(raw) % ref_stride == 0:
                ref.sample()
            t0 = time.perf_counter_ns()
            outs.append(run(it))
            raw.append(time.perf_counter_ns() - t0)
            chunk_of.append(len(ref.samples) - 1)
        last_batch_s = time.perf_counter() - b0
        for it, out in zip(batch, outs):
            reason = check(it, out)
            if reason:
                failures.append(reason)
    ref.sample()  # closes the last chunk
    slowdowns = np.array(ref.slowdowns())
    raw_ns = np.frombuffer(raw, dtype=np.int64)
    scaled = raw_ns / slowdowns[np.frombuffer(chunk_of, dtype=np.int64)]
    return Timing(raw_ns, scaled, slowdowns, failures)


def run_end_to_end(args, wl, ctx) -> dict:
    pool = wl.pool(args.seed, ctx)
    setup, setup_raw = setup_seconds(wl, args, pool, ctx)
    for it in pool[: wl.warmup]:  # untimed
        wl.run(it, ctx)
    t = time_ops(lambda it: wl.run(it, ctx), cycle_batches(pool, wl.batch), args.seconds,
                 wl.reference(ctx), wl.ref_stride, wl.checker())
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    latencies, n = t.scaled_ns, len(t.raw_ns)
    pct, tail_ns, beyond = spans.tail_percentile(latencies)
    raw_tail = spans.nearest_rank(np.sort(t.raw_ns), pct)[0]
    say("setup_s samples", {"scaled": setup, "unscaled": setup_raw})
    say("host slowdown", {"median": float(np.median(t.slowdowns)),
                          "min": float(t.slowdowns.min()), "max": float(t.slowdowns.max())})
    say("unscaled", {"setup_s": statistics.median(setup_raw),
                     "throughput_ops_s": n / (float(t.raw_ns.sum()) / 1e9),
                     "latency_p50_ms": float(np.median(t.raw_ns)) / 1e6,
                     "latency_tail_ms": float(raw_tail) / 1e6})
    say("latency_tail", {"percentile": pct, "samples": n, "beyond": beyond})
    say("fail_ratio", {"failed": len(t.failures), "attempted": n,
                       "ratio": len(t.failures) / n, "first_failures": t.failures[:3]})
    say("known_defects", run_register(wl, args.seed, ctx))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (n / (float(latencies.sum()) / 1e9), "1/s"),
        "latency_p50_ms": (float(np.median(latencies)) / 1e6, "ms"),
        "latency_tail_ms": (float(tail_ns) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result(n, len(t.failures), metrics)


# --- traced run --------------------------------------------------------------


def traced_ops(wl, items, tr, check) -> dict:
    """Trace ops of one workload; returns untraced latencies, failures and outputs."""
    untraced, outs, failures = [], [], []
    for it in items:
        tr.op += 1
        # alternate which of the two runs meets the input first, so that the
        # traced-minus-untraced difference is not a cache effect
        if tr.op % 2:
            wl.traced(it, tr)
        t0 = time.perf_counter_ns()
        out = wl.untraced(it)
        untraced.append(time.perf_counter_ns() - t0)
        if not tr.op % 2:
            wl.traced(it, tr)
        reason = check(it, out)
        if reason:
            failures.append(reason)
        outs.append((it, out))
    return {"untraced": untraced, "outs": outs, "failures": failures}


def remainder_and_overhead(wl, tr_spans, untraced) -> dict:
    """Whole call minus its stages, and traced minus untraced op time, medians in us."""
    ops: dict[int, dict] = {}
    ids = {s.id: s for s in tr_spans}
    for s in tr_spans:
        parent = ids.get(s.parent) if s.parent is not None else None
        rec = ops.setdefault(s.op, {"whole": 0, "stages": 0, "op": None})
        if s.name == f"{wl.name}.op":
            rec["op"] = s.end_ns - s.start_ns
        elif parent is not None and parent.name == f"{wl.name}.op" and s.name == wl.primary:
            rec["whole"] += s.end_ns - s.start_ns
        elif parent is not None and parent.name == f"{wl.name}.stages":
            rec["stages"] += s.end_ns - s.start_ns
    recs = [r for r in ops.values() if r["op"] is not None]
    remainder = statistics.median(r["whole"] - r["stages"] for r in recs)
    whole = statistics.median(r["whole"] for r in recs)
    op_traced = statistics.median(r["op"] for r in recs)
    return {
        "trace.unattributed_us": remainder / 1e3,
        "trace.unattributed_share": remainder / whole,
        "trace.overhead_us": (op_traced - statistics.median(untraced)) / 1e3,
        "trace.ops": len(recs),
    }


def run_traced(args, wl, ctx) -> dict:
    import workloads

    tr = spans.Tracer()
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    results = {}
    order = [wl] + [w for w in workloads.WORKLOADS.values() if w is not wl]
    for w in order:
        # a fixed, seeded set of ops, so that calls and busy_ms compare across commits
        first_op = tr.op
        n = w.trace_ops if w is wl else w.census_ops
        got = traced_ops(w, w.pool(args.seed, ctx)[:n], tr, w.checker())
        got["ops"] = (first_op, tr.op)
        results[w.name] = got
        attempted += len(got["untraced"])
        failed += len(got["failures"])
        if got["failures"]:
            say(f"{w.name} failures", got["failures"][:3])
    lo, hi = results[wl.name]["ops"]
    primary_spans = [s for s in tr.spans if lo < s.op <= hi]
    for k, v in remainder_and_overhead(wl, primary_spans, results[wl.name]["untraced"]).items():
        unit = "count" if k == "trace.ops" else "ratio" if k.endswith("share") else "us"
        metrics[k] = (v, unit)

    tr.op += 1
    workloads.import_times(tr, ctx.env, ROOT)
    stats = spans.layer_stats(tr.spans)
    for name in workloads.LAYER_FUNCTIONS:
        st = stats.get(name, {"calls": 0, "busy_ms": 0.0, "p50_us": 0.0})
        for stat, unit in workloads.LAYER_STATS:
            metrics[f"{name}.{stat}"] = (st[stat], unit)

    for k, v in workloads.kernel_coverage().items():
        metrics[k] = (v, "1/s" if k.endswith("states_per_s") else "count")
    metrics.update(counts(results))
    for w in order:
        if w.register is not None:
            reg = run_register(w, args.seed, ctx)
            say(f"known_defects {w.name}", reg)
            metrics[f"known_defects.{w.name}.checked"] = (reg["checked"], "count")
            metrics[f"known_defects.{w.name}.failed"] = (reg["failed"], "count")

    dump = scratch_root() / f"spans-{wl.name}-seed{args.seed}.json"
    tr.dump(dump)
    say("spans written", str(dump.relative_to(ROOT)))
    return result(attempted, failed, metrics)


def counts(results) -> dict:
    """Work and outcome counts at the layer boundaries, from the traced ops."""
    import workloads

    out = {}
    sweep = [o for _, o in results["sweep"]["outs"]]
    kinds = [it.kind for it, _ in results["sweep"]["outs"]]
    fallbacks = sum(bool(r.probe.via_fallback) for r in sweep)
    inside = sum(r.case.value == "OriginInside" for r in sweep)
    out["discrimination.fallback_count"] = (fallbacks, "count")
    out["discrimination.closed_form_ratio"] = ((len(sweep) - fallbacks) / len(sweep), "ratio")
    out["sweep.origin_inside_share"] = (inside / len(sweep), "ratio")
    out["sweep.boundary_share"] = (kinds.count("boundary") / len(kinds), "ratio")
    out["sweep.repeated_share"] = (kinds.count("repeated") / len(kinds), "ratio")
    dec = [it for it, _ in results["decompose"]["outs"]]
    degenerate = sum(it.kind != "generic" for it in dec)
    out["decompose.degenerate_share"] = (degenerate / len(dec), "ratio")
    ver = results["verify"]["outs"]
    within = sum(workloads.sim_sigmas(it, o) <= workloads.SIM_SIGMAS_RECORDED for it, o in ver)
    out["oracle.helstrom_within_3sigma_ratio"] = (within / len(ver), "ratio")
    # two product searches per verify op: its own and the one inside min_over_all_states
    states = 2 * len(ver) * workloads.STATES_PER_PRODUCT_SEARCH
    out["kernels.states_scanned"] = (states, "count")
    out["kernels.computed_flops"] = (states * workloads.KERNEL_FLOPS_PER_STATE, "flop")
    out["kernels.computed_bytes"] = (states * workloads.KERNEL_BYTES_PER_STATE, "B")
    return out


# --- output ------------------------------------------------------------------


def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args)
        return 0

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    say("machine", machine.record(workloads._kernels))
    say("workload", {"name": wl.name, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace})
    out_dir = Path(tempfile.mkdtemp(dir=scratch_root()))
    try:
        ctx = context(out_dir)
        res = (run_traced if args.trace else run_end_to_end)(args, wl, ctx)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
