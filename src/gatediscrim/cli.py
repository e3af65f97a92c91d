"""Command line interface.

Exit code contract: `discriminate` returns 0 when the pair is perfectly
distinguishable in one query and 1 when any single-query strategy is
error-prone; `simulate` returns 0 when the empirical rate lies within 4
binomial standard errors of the analytic bound (see `_z_score`);
`selfcheck` returns 0 only if all trials pass.  Input problems (unreadable
files, schema violations, non-unitary matrices, out-of-chamber vectors, bad
flags and argparse's usage errors) always exit 2 with one `error:` line on
stderr.  Each command imports the modules it runs when it runs them, so a
cold start loads only what the request needs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, files, numerics
from .errors import DomainError, GateDiscrimError
from .numerics import GATE_TOL, VERDICT_TOL, require_finite, require_positive

_TOL_HELP = "max unitarity (and magic-diagonal) residual of a gate (default %(default)g)"


def _angles(text: str, count: int, degrees: bool, what: str) -> np.ndarray:
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError as err:
        raise DomainError(f"{what}: {err}") from err
    vals = require_finite(vals, what, count)
    return np.deg2rad(vals) if degrees else vals


def _cmd_build_ud(args) -> int:
    from . import canonical

    alpha = _angles(args.alpha, 3, args.degrees, "--alpha")
    matrix = canonical.build_ud(alpha)
    label = args.label or f"ud({args.alpha})"
    files.write_document(files.matrix_document(matrix, label), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_decompose(args) -> int:
    from . import canonical

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
    from . import discrimination

    return g1, g2, discrimination.discriminate(g1.matrix, g2.matrix, p1=args.p1, tol=tol)


def _cmd_discriminate(args) -> int:
    outs = [args.probe_out, args.svg_out]
    if all(outs) and os.path.realpath(outs[0]) == os.path.realpath(outs[1]):
        raise DomainError(f"--probe-out and --svg-out name the same file: {outs[1]}")
    g1, g2, report = _analyse_pair(args)
    doc = files.report_document(report, g1.label, g2.label, args.tol)
    text = files.render_document(doc)
    outputs = []
    if args.probe_out:
        probe_doc = {
            **files.header("probe_state"),
            "inputs": {"first": g1.label, "second": g2.label},
            **files.probe_block(report.probe),
        }
        outputs.append((files.render_document(probe_doc), args.probe_out))
    if args.svg_out:
        from . import svg

        outputs.append((svg.render_hull_svg(report.omega), args.svg_out))
    # all files or none, before stdout, so a failure prints only the error line
    files.write_texts(outputs)
    sys.stdout.write(text)
    return 0 if report.perfectly_distinguishable else 1


def _z_score(rate: float, analytic: float, shots: int) -> float:
    """(rate - analytic) in binomial standard errors at the analytic rate;
    with no variance (an analytic rate of 0), 0 if the rates are equal and
    inf otherwise."""
    sigma = math.sqrt(analytic * (1.0 - analytic) / shots)
    if sigma == 0.0:
        return 0.0 if rate == analytic else math.inf
    return (rate - analytic) / sigma


def _cmd_simulate(args) -> int:
    g1, g2, report = _analyse_pair(args)
    from . import oracle

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
    z = _z_score(outcome.empirical_rate, analytic, outcome.shots)
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
    return 0 if abs(z) <= 4.0 else 1


def _selfcheck_trial(t: int, base_seed: int) -> list[str]:
    """Run one seeded trial; returns a list of failure descriptions."""
    from . import canonical, discrimination, oracle

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
    found, _ = oracle.min_over_product_states(u1, u2)
    if abs(found - report.fidelity) > VERDICT_TOL:
        bad.append(f"product search found {found!r} vs analytic {report.fidelity!r}")
    best, _ = oracle.min_over_all_states(u1, u2)
    if abs(best - report.fidelity) > VERDICT_TOL:
        bad.append(f"global optimum {best!r} vs analytic {report.fidelity!r}")
    outcome = oracle.helstrom_simulate(
        u1, u2, report.probe, p1=0.5, shots=4000, seed=seed
    )
    z = _z_score(outcome.empirical_rate, report.error_probability, outcome.shots)
    if abs(z) > 5.0:
        bad.append(
            f"simulation rate {outcome.empirical_rate} vs "
            f"{report.error_probability} (> 5 sigma)"
        )
    return bad


def _cmd_selfcheck(args) -> int:
    numerics.require_count(args.trials, 1, "--trials")
    numerics.require_count(args.seed, 0, "--seed")
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
    omega = _angles(args.omega, 4, args.degrees, "--omega")
    from . import svg

    files.write_texts([(svg.render_hull_svg(omega), args.out)])
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, its subcommands' included, raise
    DomainError, so that `main` prints them as one line and exits 2."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _value_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of `parser` and its subcommands that take a value."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _value_flags(sub)
        elif action.nargs != 0:
            flags.update(action.option_strings)
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # argparse takes "-1e-13" or "-1,0,1,2" for an option: a value that opens
    # with one minus sign is joined to its flag, as in "--p1=-1e-13"
    flags = _value_flags(parser)
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1 : i + 1]
        if flag in flags and value[:1] == "-" and value[:2] != "--":
            argv[i - 1 : i + 1] = [f"{flag}={value}"]
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as err:
        # --help and --version; a usage error raises DomainError
        return int(err.code or 0)
    except (GateDiscrimError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
