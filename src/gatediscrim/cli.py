"""Command line interface.

Exit code contract: `discriminate` returns 0 when the pair is perfectly
distinguishable in one query and 1 when any single-query strategy is
error-prone; `simulate` returns 0 when the empirical rate agrees with the
analytic bound within 4 standard errors; `selfcheck` returns 0 only if all
trials pass.  Input problems (unreadable files, schema violations,
non-unitary matrices, out-of-chamber vectors, bad flags) always exit 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, canonical, discrimination, files, oracle, svg
from .errors import DomainError, GateDiscrimError
from .numerics import GATE_TOL, VERDICT_TOL, require_finite, require_positive, wrap_angle

_TOL_HELP = "max unitarity (and magic-diagonal) residual of a gate (default %(default)g)"


def _angles(text: str, count: int, degrees: bool, what: str) -> np.ndarray:
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError as err:
        raise DomainError(f"{what}: {err}") from err
    vals = require_finite(vals, what, count)
    return np.deg2rad(vals) if degrees else vals


def _cmd_build_ud(args) -> int:
    alpha = _angles(args.alpha, 3, args.degrees, "--alpha")
    matrix = canonical.build_ud(alpha)
    label = args.label or f"ud({args.alpha})"
    files.write_document(files.matrix_document(matrix, label), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_decompose(args) -> int:
    tol = require_positive(args.tol, "--tol")
    gate = files.load_matrix_file(args.gate, tol=tol)
    dec = canonical.extract_interaction(gate.matrix, tol=tol)
    doc = {
        **files.header("decomposition"),
        "input": gate.label,
        "alpha": files.floats(dec.alpha),
        "lambda": files.floats(canonical.lambda_phases(dec.alpha)),
        "raw_phases": files.floats(dec.raw_phases),
        "global_phase": float(dec.global_phase),
        "class": canonical.classify(dec.alpha).value,
    }
    sys.stdout.write(files.render_document(doc))
    return 0


def _analyse_pair(args):
    """(first gate, second gate, report) for the gate files named in `args`."""
    tol = require_positive(args.tol, "--tol")
    g1 = files.load_matrix_file(args.first, tol=tol)
    g2 = files.load_matrix_file(args.second, tol=tol)
    return g1, g2, discrimination.discriminate(g1.matrix, g2.matrix, p1=args.p1, tol=tol)


def _cmd_discriminate(args) -> int:
    outs = [args.probe_out, args.svg_out]
    if all(outs) and os.path.realpath(outs[0]) == os.path.realpath(outs[1]):
        raise DomainError(f"--probe-out and --svg-out name the same file: {outs[1]}")
    g1, g2, report = _analyse_pair(args)
    doc = files.report_document(report, g1.label, g2.label, args.tol)
    text = files.render_document(doc)
    # the files go first, so a failed write prints only the error line
    if args.probe_out:
        probe_doc = {
            **files.header("probe_state"),
            "inputs": {"first": g1.label, "second": g2.label},
            **files.probe_block(report.probe),
        }
        files.write_document(probe_doc, args.probe_out)
    if args.svg_out:
        svg.write_hull_svg(report.omega, args.svg_out)
    sys.stdout.write(text)
    return 0 if report.perfectly_distinguishable else 1


def _cmd_simulate(args) -> int:
    g1, g2, report = _analyse_pair(args)
    outcome = oracle.helstrom_simulate(
        g1.matrix,
        g2.matrix,
        report.probe,
        p1=args.p1,
        shots=args.shots,
        seed=args.seed,
        tol=args.tol,
    )
    analytic = report.error_probability
    diff = outcome.empirical_rate - analytic
    if outcome.std_error > 0.0:
        z = diff / outcome.std_error
    else:
        z = 0.0 if abs(diff) < 1e-12 else math.inf
    doc = {
        **files.header("simulation"),
        "inputs": {"first": g1.label, "second": g2.label},
        "priors": {"p1": float(report.p1), "p2": float(report.p2)},
        "analytic_error_probability": float(analytic),
        "shots": outcome.shots,
        "errors": outcome.errors,
        "empirical_rate": float(outcome.empirical_rate),
        "std_error": float(outcome.std_error),
        "z_score": float(z) if math.isfinite(z) else repr(z),
        "seed": outcome.seed,
        "confusion": [list(row) for row in outcome.confusion],
    }
    sys.stdout.write(files.render_document(doc))
    return 0 if (math.isfinite(z) and abs(z) <= 4.0) else 1


def _selfcheck_trial(t: int, base_seed: int) -> list[str]:
    """Run one seeded trial; returns a list of failure descriptions."""
    seed = base_seed + t
    rng = np.random.default_rng(seed)
    bad: list[str] = []
    d1 = canonical.random_weyl_vector(rng)
    d2 = canonical.random_weyl_vector(rng)
    u1 = canonical.build_ud(d1)
    u2 = canonical.build_ud(d2)
    # discriminate holds the probe's overlap and concurrence and the verdict
    # to VERDICT_TOL itself; a miss exits 2 with ConstructionFailedError
    report = discrimination.discriminate(u1, u2)
    dec = canonical.extract_interaction(u1)
    if float(np.max(np.abs(dec.alpha - d1))) > 1e-8:
        bad.append(f"round trip drifted: {dec.alpha} vs {d1}")
    cfg = oracle.SearchConfig(grid_steps=20, refinement_rounds=5)
    found, _ = oracle.min_over_product_states(u1, u2, cfg)
    if abs(found - report.fidelity) > VERDICT_TOL:
        bad.append(f"product search found {found!r} vs analytic {report.fidelity!r}")
    best, _ = oracle.min_over_all_states(u1, u2)
    if abs(best - report.fidelity) > VERDICT_TOL:
        bad.append(f"global optimum {best!r} vs analytic {report.fidelity!r}")
    outcome = oracle.helstrom_simulate(
        u1, u2, report.probe, p1=0.5, shots=4000, seed=seed
    )
    gap = abs(outcome.empirical_rate - report.error_probability)
    limit = 5.0 * outcome.std_error + 1e-12
    if outcome.std_error == 0.0:
        if gap > VERDICT_TOL:
            bad.append("zero-variance simulation missed the analytic rate")
    elif gap > limit:
        bad.append(
            f"simulation rate {outcome.empirical_rate} vs "
            f"{report.error_probability} (> 5 sigma)"
        )
    return bad


def _cmd_selfcheck(args) -> int:
    if args.trials < 1:
        raise DomainError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise DomainError(f"--seed must be nonnegative, got {args.seed}")
    failures = 0
    for t in range(args.trials):
        bad = _selfcheck_trial(t, args.seed)
        seed = args.seed + t
        if bad:
            failures += 1
            for msg in bad:
                print(f"trial {t} (seed {seed}): FAIL {msg}")
        else:
            print(f"trial {t} (seed {seed}): ok")
    print(
        f"selfcheck: {args.trials - failures}/{args.trials} trials passed "
        f"(rerun any trial with --trials 1 --seed <base+index>)"
    )
    return 0 if failures == 0 else 1


def _cmd_figure(args) -> int:
    omega = wrap_angle(_angles(args.omega, 4, args.degrees, "--omega"))
    svg.write_hull_svg(omega, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatediscrim",
        description=(
            "Decide and quantify single-query distinguishability of "
            "two-qubit entangling gates."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"gatediscrim {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-ud", help="write the interaction core for an alpha vector")
    p.add_argument("--alpha", required=True, help="ax,ay,az in the Weyl chamber")
    p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    p.add_argument("--out", required=True, help="output gate file (JSON)")
    p.add_argument("--label", default=None, help="label stored in the file")
    p.set_defaults(func=_cmd_build_ud)

    p = sub.add_parser("decompose", help="canonical interaction vector of a gate file")
    p.add_argument("gate", help="gate file (JSON)")
    p.add_argument("--tol", type=float, default=GATE_TOL, help=_TOL_HELP)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "discriminate",
        help="single-query analysis of two magic-diagonal gate files "
        "(exit 0 = perfectly distinguishable, 1 = error-prone)",
    )
    p.add_argument("first", help="gate file for hypothesis 1")
    p.add_argument("second", help="gate file for hypothesis 2")
    p.add_argument("--p1", type=float, default=0.5, help="prior of hypothesis 1")
    p.add_argument("--tol", type=float, default=GATE_TOL, help=_TOL_HELP)
    p.add_argument("--probe-out", default=None, help="write the probe state here")
    p.add_argument("--svg-out", default=None, help="write the hull figure here")
    p.set_defaults(func=_cmd_discriminate)

    p = sub.add_parser(
        "simulate",
        help="finite-shot Helstrom simulation "
        "(exit 0 when within 4 standard errors of the bound)",
    )
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--p1", type=float, default=0.5)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=GATE_TOL, help=_TOL_HELP)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "selfcheck",
        help="seeded random consistency trials over the whole pipeline; "
        "trial t of a run uses seed (--seed + t)",
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser("figure", help="render the hull figure for a phase vector")
    p.add_argument("--omega", required=True, help="four phases w1,w2,w3,w4")
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except (GateDiscrimError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
