"""Byte fingerprint of the package's outputs over seeded input corpora.

Each corpus is a generator below.  It draws its inputs from a fixed seed
or lists them, calls the package, and yields one record per input: a label
and named fields, the inputs first, then the outputs.  Every field is
hashed with sha256 by its type, dtype, shape and bytes, so a -0.0 against
a 0.0, or a float32 against a float64, counts as a change.  A corpus's
digest is the sha256 of its records' digests, in order.

`tests/data/fingerprint.json` holds one digest per corpus and the numpy
version it was written with; the digests depend on numpy and its LAPACK.
`tests/test_fingerprint.py` compares it with the code.  A change to the
manifest is a change to the program's output, as a golden file's is:

    python -m pytest tests/test_fingerprint.py      check every corpus
    python tests/fingerprint.py --write             regenerate the manifest
    python tests/fingerprint.py --write CORPUS ...  regenerate those corpora only
    python tests/fingerprint.py --diff CORPUS       show the first changed input

`--diff` runs CORPUS on the `src/` of git's HEAD and on the working tree,
and prints the first input whose fields differ, with every field.  The
input families are also imported by the tests that hold the same inputs
to the independent oracles of `conftest.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from gatediscrim import canonical, discrimination, files, geometry, numerics, oracle, svg
from gatediscrim.errors import GateDiscrimError

TESTS = Path(__file__).resolve().parent
MANIFEST = TESTS / "data" / "fingerprint.json"
PI = math.pi
Q = PI / 4
ID4 = numerics.ID4
REPORT = ("omega", "fidelity", "p1", "p2", "error_probability",
          "perfectly_distinguishable", "case", "achieved_value")
PROBE = ("u", "psi_computational", "concurrence", "via_fallback", "local_a", "local_b")


# --- input families --------------------------------------------------------------


def near_pi_omegas(rng):
    """Phase sets of spread pi -+ d, d from one ulp up to 1e-12, each as
    drawn and then turned to a random place on the circle."""
    for d in [k * math.ulp(PI) for k in range(1, 9)] + np.geomspace(1e-15, 1e-12, 12).tolist():
        for sign in (-1.0, 1.0):
            a, b = sorted(rng.uniform(0.05, PI - 0.05, 2))
            om = np.array([0.0, a, b, PI + sign * d])
            yield om
            yield numerics.wrap_angle(om + rng.uniform(-PI, PI))


# which of three drawn phases each of the four takes, per repeat pattern
REPEATS = {"2+2": [0, 1, 0, 1], "3+1": [0, 0, 1, 0], "4": [0, 0, 0, 0], "2+1+1": [0, 1, 0, 2]}


def repeated_omegas(rng, n: int = 100, patterns=tuple(REPEATS)):
    """n permuted phase sets per repeat pattern, 2+1+1 giving the
    triangles, equal or split by 1e-13 or -3e-11, within DEDUPE_TOL;
    then, with 2+2, the antipodal 2+2 set."""
    for pattern in patterns:
        for _ in range(n):
            om = rng.permutation(rng.uniform(-PI, PI, 3)[REPEATS[pattern]])
            yield om + rng.choice([0.0, 1e-13, -3e-11], size=4)
    if "2+2" in patterns:
        yield np.array([0.0, PI, 0.0, PI])


def inside_omegas(n: int, seed: int = 707):
    """Criterion 7's draw: uniform phase sets whose spread is at least pi,
    that is, whose largest gap on the circle is at most pi."""
    batch = np.random.default_rng(seed).uniform(-PI, PI, size=(3 * n, 4))
    ph = np.sort(np.mod(batch, 2 * PI), axis=1)
    gaps = np.diff(ph, axis=1, append=ph[:, :1] + 2 * PI)
    return batch[gaps.max(axis=1) <= PI][:n]


def mixed_phase_sets(rng, n: int):
    """1 to 6 phases in [-4, 4]; every third set's phases sit 0, 5e-11,
    -9e-11 or a whole turn from its first, within DEDUPE_TOL, across the
    cut too."""
    for k in range(n):
        ph = rng.uniform(-4.0, 4.0, 1 + k % 6)
        if k % 3 == 0 and len(ph) > 1:
            ph[1:] = ph[0] + rng.choice([0.0, 5e-11, -9e-11, 2 * PI], size=len(ph) - 1)
        yield ph


def magic_pairs(rng, n: int):
    """n uniform pairs (omega1, omega2, u1, u2) of magic-diagonal gates."""
    for om1, om2 in rng.uniform(-PI, PI, (n, 2, 4)):
        yield om1, om2, canonical.from_magic_phases(om1), canonical.from_magic_phases(om2)


def _unitary(rng, n: int = 4) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


def _dressed(rng, alpha) -> np.ndarray:
    """build_ud(alpha) between two random products of qubit unitaries."""
    a, b, c, d = (_unitary(rng, 2) for _ in range(4))
    return np.kron(a, b) @ canonical.build_ud(alpha) @ np.kron(c, d)


# --- corpora ------------------------------------------------------------------------


def _fields(obj, names, prefix: str = "") -> dict:
    return {prefix + n: getattr(obj, n) for n in names}


def _report(r, prefix: str = "") -> dict:
    return {**_fields(r, REPORT, prefix), **_fields(r.probe, PROBE, prefix + "probe.")}


def discriminate():
    # uniform pairs; p1 uniform, with its edges (the clamp included) mixed in
    rng = np.random.default_rng(8208)
    edges = [0, 1.0, np.float32(0.25), -5e-13, 1.0 + 5e-13]
    for k, (om1, om2, u1, u2) in enumerate(magic_pairs(rng, 800)):
        p1 = edges[k // 160] if k % 160 == 0 else float(rng.uniform())
        r = discrimination.discriminate(u1, u2, p1=p1)
        yield f"uniform {k}", {"omega1": om1, "omega2": om2, "prior": p1, **_report(r)}


def discriminate_edges():
    # the near-pi and repeated-phase sets against the identity and behind a
    # shared shift gate, and as construct_probe's input
    rng = np.random.default_rng(314)
    for k, om in enumerate([*near_pi_omegas(rng), *repeated_omegas(rng)]):
        shift = rng.uniform(-PI, PI)
        s, u2 = map(canonical.from_magic_phases, (np.full(4, shift), om))
        r, shifted = (discrimination.discriminate(a, b) for a, b in [(ID4, u2), (s, s @ u2)])
        probe = discrimination.construct_probe(om)
        fields = {"phases": om, "shift": shift, **_fields(probe, PROBE, "probe2.")}
        yield f"omega {k}", {**fields, **_report(r), **_report(shifted, "shifted.")}


def construct_probe():
    rng = np.random.default_rng(707)
    for k, om in enumerate([*inside_omegas(1000), *rng.uniform(-PI, PI, (300, 4))]):
        yield f"omega {k}", {"omega": om, **_fields(discrimination.construct_probe(om), PROBE)}


def hull_of_phases():
    for k, ph in enumerate(mixed_phase_sets(np.random.default_rng(3003), 1000)):
        for tol in (geometry.DEDUPE_TOL, 0.0, 1e-3):
            h = geometry.hull_of_phases(ph, tol=tol)
            yield f"phases {k} tol {tol:g}", {"phases": ph, **_fields(
                h, ("order", "extremes", "origin_inside", "min_distance", "nearest_point"))}


def render_hull_svg():
    # the CLI's figure passes its angles unwrapped: some lie a few turns out
    rng = np.random.default_rng(50)
    oms = [*rng.uniform(-PI, PI, (30, 4)), *inside_omegas(20, seed=51)]
    oms += [*near_pi_omegas(rng)][::8] + [*repeated_omegas(rng, 3)]
    for k, om in enumerate(oms):
        om = om + 2 * PI * rng.integers(-3, 4, 4) if k % 5 == 0 else om
        yield f"omega {k}", {"omega": om, "svg": svg.render_hull_svg(om)}


def decompose():
    # random chamber points, dressed and given a global phase; the
    # degenerate classes and the class tolerance's edges; SWAP as a matrix;
    # a determinant of -1 whose imaginary part is +0.0 or -0.0
    rng = np.random.default_rng(3000)
    alphas = [np.sort(rng.uniform(0.0, Q, 3))[::-1] for _ in range(150)] + [
        (0, 0, 0), (Q, Q, Q), (Q, 0, 0), (Q, Q, 0), (0.3, 0.3, 0), (0.3, 0.3, 0.3),
        (Q, 0.2, 0.2), (1e-10, 0, 0), (1.1e-10, 0, 0), (Q, Q, Q - 1e-10)]
    gates = [canonical.build_ud(a) for a in alphas]
    gates += [_dressed(rng, a) * np.exp(1j * rng.uniform(-PI, PI)) for a in alphas]
    gates += [ID4[[0, 2, 1, 3]], *(np.diag([complex(-1.0, z), 1, 1, 1]) for z in (0.0, -0.0))]
    for k, u in enumerate(gates):
        dec = canonical.extract_interaction(u)
        yield f"gate {k}", {"gate": u, "class": canonical.classify(dec.alpha),
                            **_fields(dec, ("alpha", "raw_phases", "global_phase"))}


def _gate_docs(rng):
    """Gate files beyond the golden ones: phased permutations whose zero
    entries are +0.0 or -0.0, integer cells, alpha files, and rows the
    reader rejects (a bool, a string, a short row)."""
    for _ in range(16):
        m = ID4[rng.permutation(4)] * np.exp(1j * rng.uniform(-PI, PI, 4))
        yield {"kind": "matrix", "rows": [
            [[x.real, x.imag] if x else rng.choice([0.0, -0.0], 2).tolist() for x in row]
            for row in m.tolist()]}
    yield {"kind": "matrix", "rows": [[[int(x), -0.0] for x in row] for row in np.eye(4)]}
    yield {"kind": "alpha", "alpha": [0.3, -0.0, -0.0]}
    yield {"kind": "alpha", "alpha": [Q, 0.2, 0]}
    for cell in (True, "1"):
        yield {"kind": "matrix", "rows": [[[cell, 0.0]] * 4] * 4}
    yield {"kind": "matrix", "rows": [[[1.0, 0.0]] * 4] * 3 + [[[1.0, 0.0]] * 3]}


def load_matrix_file():
    # messages and default labels name the file: only its name is kept
    with tempfile.TemporaryDirectory() as tmp:
        paths = sorted((TESTS / "data" / "golden").glob("*.json"))
        for k, doc in enumerate(_gate_docs(np.random.default_rng(404))):
            paths.append(Path(tmp) / f"seeded_{k:02d}.json")
            paths[-1].write_text(json.dumps(doc))
        for path in paths:
            try:
                g = files.load_matrix_file(path)
                out = {"matrix": g.matrix, "label": g.label.replace(str(path), path.name)}
            except GateDiscrimError as err:
                out = {"error": repr(err).replace(str(path), path.name)}
            yield path.name, out


def wrap_angle():
    odd = (2 * np.arange(-50, 50) + 1) * PI
    values = np.concatenate([[
        0.0, -0.0, 5e-324, -5e-324, PI, -PI, 2 * PI, -2 * PI, 1e16, -1e16, 2.0**53, 1e300,
        -1e300, math.inf, -math.inf, math.nan, np.nextafter(PI, 4.0)]] + [
        odd + d * np.spacing(odd) for d in range(-2, 3)])
    for x in values.tolist():
        yield repr(x), {"x": x, "wrapped": numerics.wrap_angle(x)}
    for k, x in enumerate([values, values[:12].reshape(3, 4), np.array(-PI), 7, [PI, -PI]]):
        yield f"array {k}", {"wrapped": numerics.wrap_angle(x)}


def oracles():
    rng = np.random.default_rng(300)
    pairs = [(_unitary(rng), _unitary(rng)) for _ in range(8)]
    pairs += [(u1, u2) for _, _, u1, u2 in magic_pairs(rng, 8)]
    pairs += [(ID4, g) for g in [_dressed(rng, (Q, 0.3, 0.1)), *map(canonical.build_ud, [
        (PI / 8, 0, 0), (Q, Q, Q), (Q, Q, 0), (0, 0, 0), (Q, Q, Q - 1e-3)])]]
    for k, (u1, u2) in enumerate(pairs):
        value, probe = oracle.min_over_product_states(u1, u2)
        best, psi = oracle.min_over_all_states(u1, u2)
        yield f"pair {k}", {"u1": u1, "u2": u2, "product": value,
                            **_fields(probe, PROBE, "probe."), "all": best, "psi": psi}


def near_swap_gates(rng, n: int):
    """n gates SWAP e^{i eps H}, H a random Hermitian matrix and eps from
    1e-8 to 1e-2: the product search's Bob maps are thin ellipses there."""
    for _ in range(n):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam, v = np.linalg.eigh(a + a.conj().T)
        eps = 10.0 ** rng.uniform(-8, -2)
        yield ID4[[0, 2, 1, 3]] @ (v * np.exp(1j * eps * lam)) @ v.conj().T


def oracle_rounds():
    # pairs on which the product search refines: W = diag(e^{i theta}) stays
    # above the all-states floor, so every round runs; near-SWAP gates make
    # Newton climb to roots far above its bracket.  Each at the default
    # config and at a smaller grid with more rounds
    rng = np.random.default_rng(2626)
    gates = [np.diag(np.exp(1j * th)) for th in rng.uniform(-PI, PI, (40, 4))]
    gates += near_swap_gates(rng, 16)
    for k, w in enumerate(gates):
        for cfg in (None, oracle.SearchConfig(grid_steps=16, refinement_rounds=6)):
            value, probe = oracle.min_over_product_states(ID4, w, cfg)
            yield f"gate {k} cfg {cfg}", {"w": w, "product": value,
                                          **_fields(probe, PROBE, "probe.")}


def helstrom_simulate():
    # the first pairs are equal gates (F = 1) and an antipodal set (F = 0)
    rng = np.random.default_rng(42)
    for k, (om1, om2, u1, u2) in enumerate(magic_pairs(rng, 24)):
        om2 = om1 + [0.0, k * PI, 0.0, k * PI] if k < 2 else om2
        u2 = canonical.from_magic_phases(om2)
        p1 = [0.5, 0.5, 0.0, 1.0][k] if k < 4 else float(rng.uniform())
        shots = [1, 100, 10**5, 2**40][k % 4]
        probe = discrimination.discriminate(u1, u2, p1=p1).probe
        out = oracle.helstrom_simulate(u1, u2, probe, p1=p1, shots=shots, seed=k)
        outcome = _fields(out, ("errors", "empirical_rate", "std_error", "confusion"))
        yield f"run {k}", {"omega1": om1, "omega2": om2, "p1": p1, "shots": shots, **outcome}


CORPORA = {fn.__name__: fn for fn in [
    discriminate, discriminate_edges, construct_probe,
    hull_of_phases, render_hull_svg, decompose, load_matrix_file, wrap_angle,
    oracles, oracle_rounds, helstrom_simulate]}


# --- digests and tooling -------------------------------------------------------------


def _encode(v) -> bytes:
    """A field as its type (and dtype and shape) and bytes, framed by length."""
    if isinstance(v, np.ndarray):
        head, body = f"ndarray {v.dtype.str} {v.shape}", v.tobytes()
    elif isinstance(v, float):  # np.float64 too, under its own type name
        head, body = type(v).__name__, struct.pack("<d", v)
    elif isinstance(v, (list, tuple)):
        head, body = f"{type(v).__name__} {len(v)}", b"".join(map(_encode, v))
    else:
        head, body = type(v).__name__, repr(v).encode()
    return head.encode() + b"\0" + len(body).to_bytes(8, "little") + body


def digest(name: str) -> str:
    """sha256 of corpus `name`: of its records' digests, in order."""
    total = hashlib.sha256()
    for label, fields in CORPORA[name]():
        parts = [_encode(label), *(_encode(k) + _encode(v) for k, v in fields.items())]
        total.update(hashlib.sha256(b"".join(parts)).digest())
    return total.hexdigest()


def check(name: str) -> str | None:
    """None if corpus `name` matches the manifest, else what differs."""
    manifest = json.loads(MANIFEST.read_text())
    if manifest["numpy"] != np.__version__:
        return (f"the manifest was written with numpy {manifest['numpy']}, this is numpy "
                f"{np.__version__}: check, then python tests/fingerprint.py --write")
    if manifest["corpora"].get(name) != digest(name):
        return (f"corpus {name!r} changed: python tests/fingerprint.py --diff {name} "
                f"prints the first input that did")


def _text(v) -> str:
    return f"{v.dtype} {v.shape} {v.tolist()!r}" if isinstance(v, np.ndarray) else repr(v)


def dump(name: str) -> None:
    """Print each record of corpus `name` as a JSON line, [label, {field:
    its value as text}]; an exception ends the run with a record of it."""
    try:
        for label, fields in CORPORA[name]():
            print(json.dumps([label, {k: _text(v) for k, v in fields.items()}]))
    except Exception as err:  # the input that raises is the first change
        print(json.dumps(["(raised)", {"error": repr(err)}]))


def _records(name: str, src: Path) -> list:
    code = (f"import sys; sys.path[:0] = {[str(src), str(TESTS)]!r}; "
            f"import fingerprint; fingerprint.dump({name!r})")
    out = subprocess.check_output([sys.executable, "-c", code], text=True)
    return [json.loads(line) for line in out.splitlines()]


def diff(name: str) -> int:
    """Print the first input of corpus `name` whose fields differ between
    the src/ of git's HEAD and the working tree's; 1 if one does."""
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.check_output(["git", "archive", "HEAD", "src"], cwd=TESTS.parent)
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        old = _records(name, Path(tmp) / "src")
    new = _records(name, TESTS.parent / "src")
    for (label, was), (now_label, now) in zip(old, new):
        if [label, was] != [now_label, now]:
            print(f"{name}: first changed input {now_label!r} (at HEAD: {label!r}); "
                  f"* marks a changed field")
            for k in {**was, **now}:
                a, b = was.get(k, "(absent)"), now.get(k, "(absent)")
                print(f"  {k} = {b}" if a == b else f"* {k}\n    at HEAD: {a}\n    now: {b}")
            return 1
    print(f"{name}: {len(old)} inputs at HEAD, {len(new)} now; the inputs of both agree")
    return int(len(old) != len(new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or diff the output fingerprint.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", nargs="*", metavar="CORPUS", choices=CORPORA,
                      help="regenerate the named corpora's digests, or all of them")
    mode.add_argument("--diff", metavar="CORPUS", choices=CORPORA, help="show what changed")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(args.diff)
    kept = {}
    if args.write:
        old = json.loads(MANIFEST.read_text())
        if old["numpy"] != np.__version__:
            parser.error(f"the manifest is numpy {old['numpy']}'s: write every corpus")
        kept = old["corpora"]
    digests = {**kept, **{n: digest(n) for n in args.write or CORPORA}}
    manifest = {"numpy": np.__version__,
                "corpora": {n: digests[n] for n in CORPORA if n in digests}}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
