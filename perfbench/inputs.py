"""Seeded inputs and independent numpy references for every workload.

Nothing here imports gatediscrim: the gates are built from the paper's
formulas directly, so the references the checks compare against do not
share code with the program under test.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PI = math.pi
TWO_PI = 2.0 * PI
QUARTER_PI = PI / 4.0
_SQ2 = 1.0 / math.sqrt(2.0)

# Magic basis, columns |00>+|11>, -i(|00>-|11>), |01>-|10>, -i(|01>+|10>)
# over sqrt(2); the column order fixes the order of omega.
MAGIC = _SQ2 * np.array(
    [
        [1.0, -1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0j],
        [0.0, 0.0, -1.0, -1.0j],
        [1.0, 1.0j, 0.0, 0.0],
    ],
    dtype=complex,
)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI_PAIRS = [np.kron(p, p) for p in (_X, _Y, _Z)]
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

# sweep pool: 4096 pairs, fixed slice sizes
SWEEP_UNIFORM, SWEEP_BOUNDARY, SWEEP_REPEATED = 3584, 256, 256
# decompose pool: 750 generic gates and 50 of each degenerate class
DECOMPOSE_GENERIC, DECOMPOSE_PER_CLASS = 750, 50
# generic chamber draws keep the gram eigenphases 1e-4 apart, ten times
# the ~1e-5 cluster floor of the package's polynomial eigen-solver
GENERIC_MIN_GAP = 1e-4
VERIFY_PAIRS = 16
VERIFY_SHOTS = 200_000


def wrap(theta):
    """Angles to (-pi, pi]."""
    return -(np.mod(-np.asarray(theta, dtype=float) + PI, TWO_PI) - PI)


def gate_from_phases(lam) -> np.ndarray:
    """Unitary acting as e^{-i lam_k} on magic vector k."""
    return (MAGIC * np.exp(-1j * np.asarray(lam, dtype=float))) @ MAGIC.conj().T


def core(alpha) -> np.ndarray:
    """exp(-i(ax XX + ay YY + az ZZ)); the three terms commute."""
    u = np.eye(4, dtype=complex)
    for a, pp in zip(alpha, _PAULI_PAIRS):
        u = u @ (math.cos(a) * np.eye(4) - 1j * math.sin(a) * pp)
    return u


def haar_su2(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def dress(rng, u) -> np.ndarray:
    """(A x B) u (C x D) with Haar-random single-qubit factors."""
    left = np.kron(haar_su2(rng), haar_su2(rng))
    right = np.kron(haar_su2(rng), haar_su2(rng))
    return left @ u @ right


def arc_spread(phases) -> float:
    """Length of the smallest closed arc holding every phase."""
    p = np.sort(np.mod(np.asarray(phases, dtype=float), TWO_PI))
    gaps = np.append(np.diff(p), p[0] + TWO_PI - p[-1])
    return float(TWO_PI - gaps.max())


def fidelity_ref(omega) -> float:
    """Origin distance of the hull of e^{-i omega_k}: cos(spread/2), 0 once spread >= pi."""
    s = arc_spread(omega)
    return 0.0 if s >= PI else math.cos(0.5 * s)


def helstrom_ref(overlap: float, p1: float = 0.5) -> float:
    return 0.5 * (1.0 - math.sqrt(max(1.0 - 4.0 * p1 * (1.0 - p1) * overlap**2, 0.0)))


# --- sweep -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepItem:
    kind: str  # uniform | boundary | repeated | below_pi (known-defect register)
    omega: np.ndarray
    u1: np.ndarray
    u2: np.ndarray


def _pair(rng, kind, omega) -> SweepItem:
    lam1 = rng.uniform(-PI, PI, 4)
    omega = wrap(omega)
    return SweepItem(kind, omega, gate_from_phases(lam1), gate_from_phases(lam1 + omega))


def _spread_phases(rng, spread) -> np.ndarray:
    """Four phases, random order and rotation, whose arc spread is `spread` (near pi)."""
    inner = [rng.uniform(0.5, 1.5), rng.uniform(1.8, 2.8)]
    pts = np.array([0.0, *inner, spread]) + rng.uniform(-PI, PI)
    return rng.permutation(pts)


# criterion 3's exact-pi families
_EXACT_PI = [
    (0.0, PI, 0.0, PI),
    (0.0, 0.0, PI, PI),
    (0.0, PI / 2, PI, PI / 2),
    (0.0, PI / 3, PI, 0.0),
]


def sweep_pool(seed: int) -> list[SweepItem]:
    rng = np.random.default_rng([seed, 1])
    items = [_pair(rng, "uniform", rng.uniform(-PI, PI, 4)) for _ in range(SWEEP_UNIFORM)]
    for i in range(SWEEP_BOUNDARY):
        if i % 4 == 3:
            om = np.array(_EXACT_PI[(i // 4) % len(_EXACT_PI)]) + rng.uniform(-PI, PI)
        else:  # spread just above pi: the origin sits inside, by 1e-12 .. 1e-9
            om = _spread_phases(rng, PI + 10.0 ** rng.uniform(-12, -9))
        items.append(_pair(rng, "boundary", om))
    patterns = [(0, 0, 1, 2), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 0, 0)]
    for i in range(SWEEP_REPEATED):
        vals = rng.uniform(-PI, PI, 3)
        om = rng.permutation(vals[list(patterns[i % len(patterns)])])
        items.append(_pair(rng, "repeated", om))
    return [items[i] for i in rng.permutation(len(items))]


# The spread-just-below-pi side.  The package decides this region with
# three thresholds (1e-12 in geometry, 1e-10 in the verdict, 1e-9 in
# criterion 3), so these pairs get contradictory reports today.
DEFECT_OMEGA = (0.0, PI - 5e-11, 0.5, 0.2)


def sweep_register(seed: int) -> list[SweepItem]:
    rng = np.random.default_rng([seed, 2])
    items = [_pair(rng, "below_pi", np.array(DEFECT_OMEGA))]
    for _ in range(15):
        items.append(_pair(rng, "below_pi", _spread_phases(rng, PI - 10.0 ** rng.uniform(-12, -9))))
    return items


# --- decompose ---------------------------------------------------------------


@dataclass(frozen=True)
class DecomposeItem:
    kind: str
    alpha: np.ndarray  # chamber representative of the gate
    gate_class: str  # Identity | SwapLike | Entangling
    dressed: bool
    gate: np.ndarray


def _min_gram_gap(alpha) -> float:
    ax, ay, az = alpha
    lam = np.array([ax - ay + az, -ax + ay + az, -ax - ay - az, ax + ay - az])
    th = np.sort(np.mod(2.0 * lam, TWO_PI))
    return float(min(np.diff(th).min(), th[0] + TWO_PI - th[-1]))


def _generic_alpha(rng) -> np.ndarray:
    while True:
        a = np.sort(rng.uniform(0.0, QUARTER_PI, 3))[::-1]
        if QUARTER_PI > a[0] > a[1] > a[2] > 0.0 and _min_gram_gap(a) >= GENERIC_MIN_GAP:
            return a


DEGENERATE = {
    "identity": ((0.0, 0.0, 0.0), "Identity"),
    "cnot": ((QUARTER_PI, 0.0, 0.0), "Entangling"),
    "iswap": ((QUARTER_PI, QUARTER_PI, 0.0), "Entangling"),
    "swap": ((QUARTER_PI, QUARTER_PI, QUARTER_PI), "SwapLike"),
    "sqrt_swap": ((PI / 8, PI / 8, PI / 8), "Entangling"),
}
# identity and SWAP (a fourfold eigenvalue) enter the timed mix as the
# exact matrices; dressed copies go to the known-defect register
_EXACT = {"identity": np.eye(4, dtype=complex), "swap": SWAP}


def decompose_pool(seed: int) -> list[DecomposeItem]:
    rng = np.random.default_rng([seed, 3])
    items = []
    for _ in range(DECOMPOSE_GENERIC):
        a = _generic_alpha(rng)
        items.append(DecomposeItem("generic", a, "Entangling", True, dress(rng, core(a))))
    for kind, (alpha, cls) in DEGENERATE.items():
        a = np.array(alpha)
        for _ in range(DECOMPOSE_PER_CLASS):
            if kind in _EXACT:
                items.append(DecomposeItem(kind, a, cls, False, _EXACT[kind]))
            else:
                items.append(DecomposeItem(kind, a, cls, True, dress(rng, core(a))))
    return [items[i] for i in rng.permutation(len(items))]


def decompose_register(seed: int) -> list[DecomposeItem]:
    """Dressed fourfold-degenerate gates and a 1e-6 eigenphase split."""
    rng = np.random.default_rng([seed, 4])
    items = []
    for kind in ("identity", "swap"):
        alpha, cls = DEGENERATE[kind]
        a = np.array(alpha)
        items += [DecomposeItem(kind, a, cls, True, dress(rng, core(a))) for _ in range(256)]
    for _ in range(16):
        ay = rng.uniform(0.1, 0.6)
        a = np.array([ay + 1e-6, ay, rng.uniform(0.01, 0.09)])
        items.append(DecomposeItem("split_1e-6", a, "Entangling", True, dress(rng, core(a))))
    return items


# --- verify ------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyItem:
    omega: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    sim_seed: int


def verify_pool(seed: int) -> list[VerifyItem]:
    rng = np.random.default_rng([seed, 5])
    out = []
    for i in range(VERIFY_PAIRS):
        p = _pair(rng, "uniform", rng.uniform(-PI, PI, 4))
        out.append(VerifyItem(p.omega, p.u1, p.u2, sim_seed=seed * 1000 + i))
    return out


# --- cli ---------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    label: str
    argv: tuple[str, ...]  # arguments after `python -m gatediscrim.cli`
    expect_exit: int
    kind: str | None  # "kind" of the stdout document when accepted
    outputs: tuple[str, ...] = ()  # files it writes if accepted, and must not leave if rejected


def corpus_file(root: Path, prefix: str) -> str:
    hits = sorted((root / "tests" / "data" / "golden").glob(f"{prefix}_*.json"))
    if len(hits) != 1:
        raise FileNotFoundError(f"golden corpus file {prefix}_*.json not found")
    return str(hits[0])


def discriminate_table(root: Path) -> dict[tuple[str, str], int]:
    """The exit-code table `DISCRIMINATE_TABLE` of tests/test_cli.py."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "DISCRIMINATE_TABLE" for t in node.targets
        ):
            return {(a, b): code for a, b, code in ast.literal_eval(node.value)}
    raise LookupError("DISCRIMINATE_TABLE not found in tests/test_cli.py")


def cli_mix(root: Path, out_dir: Path) -> list[CliItem]:
    """One round of the cli workload; exit codes come from tests/test_cli.py."""
    table = discriminate_table(root)
    c = lambda p: corpus_file(root, p)  # noqa: E731
    items = []
    for a, b in (("01", "04"), ("01", "06")):
        probe, fig = str(out_dir / f"probe_{a}_{b}.json"), str(out_dir / f"hull_{a}_{b}.svg")
        items.append(CliItem(
            f"discriminate {a} {b} +files",
            ("discriminate", c(a), c(b), "--probe-out", probe, "--svg-out", fig),
            table[(a, b)], "discrimination_report", (probe, fig),
        ))
    for a, b in (("12", "01"), ("07", "04")):
        items.append(CliItem(f"discriminate {a} {b}", ("discriminate", c(a), c(b)),
                             table[(a, b)], "discrimination_report"))
    # the shot counts and seeds of test_simulate_anchor_pair / _perfect_pair
    for a, b, shots, seed in (("01", "04", "100000", "42"), ("01", "06", "10000", "3")):
        items.append(CliItem(f"simulate {a} {b}",
                             ("simulate", c(a), c(b), "--shots", shots, "--seed", seed),
                             0, "simulation"))
    for p in ("08", "05"):
        items.append(CliItem(f"decompose {p}", ("decompose", c(p)), 0, "decomposition"))
    for a, b in (("01", "09"), ("01", "10"), ("01", "11")):
        items.append(CliItem(f"discriminate {a} {b}", ("discriminate", c(a), c(b)),
                             table[(a, b)], None))
    items.append(CliItem("decompose 09", ("decompose", c("09")), 2, None))
    return items


def cli_register(out_dir: Path) -> list[CliItem]:
    """Non-finite angles, which the CLI contract says must exit 2."""
    fig, gate = str(out_dir / "nan.svg"), str(out_dir / "nan.json")
    return [
        CliItem("figure --omega nan,0,0,0",
                ("figure", "--omega", "nan,0,0,0", "--out", fig), 2, None, (fig,)),
        CliItem("build-ud --alpha nan,0,0",
                ("build-ud", "--alpha", "nan,0,0", "--out", gate), 2, None, (gate,)),
    ]


POOLS = {"sweep": sweep_pool, "decompose": decompose_pool, "verify": verify_pool}
