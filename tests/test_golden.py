"""Byte-for-byte snapshots of the CLI outputs over the committed corpus.

Every exit-0/1 row of the `discriminate` table is stored as its stdout,
its `--probe-out` file and its `--svg-out` file; every valid corpus gate is
stored as its `decompose` stdout, and two seeded `simulate` runs as theirs.
Regenerate the expected bytes with
`PYTHONPATH=src python tests/test_golden.py` and review the diff: a change
to these files is a change to the program's output.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from gatediscrim import cli

from test_cli import DISCRIMINATE_TABLE

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = GOLDEN / "expected"

DISCRIMINATE_PAIRS = [(a, b) for a, b, code in DISCRIMINATE_TABLE if code != 2]
# corpus gates `decompose` accepts
DECOMPOSE_GATES = ["01", "02", "03", "04", "05", "06", "07", "08", "12"]
# (first, second, shots, seed) of the seeded runs the CLI tests make
SIMULATE_RUNS = [("01", "04", "100000", "42"), ("01", "06", "10000", "3")]


def _gate(prefix: str) -> str:
    (hit,) = GOLDEN.glob(f"{prefix}_*.json")
    return str(hit)


def _stdout(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code in (0, 1), f"{argv} exited {code}"
    return buf.getvalue().encode("utf-8")


def render_discriminate(first: str, second: str) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        probe, fig = Path(tmp) / "probe.json", Path(tmp) / "hull.svg"
        out = _stdout([
            "discriminate", _gate(first), _gate(second),
            "--probe-out", str(probe), "--svg-out", str(fig),
        ])
        stem = f"discriminate_{first}_{second}"
        return {
            f"{stem}.stdout.json": out,
            f"{stem}.probe.json": probe.read_bytes(),
            f"{stem}.svg": fig.read_bytes(),
        }


def render_decompose(gate: str) -> dict[str, bytes]:
    return {f"decompose_{gate}.stdout.json": _stdout(["decompose", _gate(gate)])}


def render_simulate(first: str, second: str, shots: str, seed: str) -> dict[str, bytes]:
    out = _stdout([
        "simulate", _gate(first), _gate(second), "--shots", shots, "--seed", seed,
    ])
    return {f"simulate_{first}_{second}_seed{seed}.stdout.json": out}


def render_all() -> dict[str, bytes]:
    blobs: dict[str, bytes] = {}
    for first, second in DISCRIMINATE_PAIRS:
        blobs.update(render_discriminate(first, second))
    for gate in DECOMPOSE_GATES:
        blobs.update(render_decompose(gate))
    for run in SIMULATE_RUNS:
        blobs.update(render_simulate(*run))
    return blobs


@pytest.mark.parametrize("first,second", DISCRIMINATE_PAIRS)
def test_discriminate_matches_snapshot(first, second):
    for name, got in render_discriminate(first, second).items():
        assert got == (EXPECTED / name).read_bytes(), name


@pytest.mark.parametrize("gate", DECOMPOSE_GATES)
def test_decompose_matches_snapshot(gate):
    for name, got in render_decompose(gate).items():
        assert got == (EXPECTED / name).read_bytes(), name


@pytest.mark.parametrize("first,second,shots,seed", SIMULATE_RUNS)
def test_simulate_matches_snapshot(first, second, shots, seed):
    for name, got in render_simulate(first, second, shots, seed).items():
        assert got == (EXPECTED / name).read_bytes(), name


def test_snapshot_set_is_complete():
    stored = sorted(p.name for p in EXPECTED.iterdir())
    assert stored == sorted(render_all())


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    for name, blob in render_all().items():
        (EXPECTED / name).write_bytes(blob)
    sys.exit(0)
