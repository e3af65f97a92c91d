"""JSON file formats used by the command line tools.

Gate inputs come in two kinds: an explicit matrix ({"kind": "matrix",
"rows": 4x4 of [re, im] pairs}) or an interaction vector ({"kind":
"alpha", "alpha": [ax, ay, az]}) that is expanded through `build_ud`.
The reader checks the file's layout only: the rows' numbers pass
`numerics`' real-number check, the alpha `build_ud`'s checks and the
matrix the gate check, and every error names the file.
Documents written here serialize floats with Python repr semantics, so a
parse/render cycle is byte-idempotent and numbers round-trip losslessly.
`header` builds the kind/tool/version keys that open every report written.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__, canonical, numerics
from .errors import DomainError


@dataclass(frozen=True)
class LoadedGate:
    """A gate file's content: `matrix`, the 4x4 complex gate, checked
    unitary within the reader's `tol`, and `label`, the file's label or,
    when it has none, its path."""

    matrix: np.ndarray
    label: str


def pairs(a) -> list:
    """A complex array as nested lists of [re, im] floats, in `a`'s shape:
    the form a gate file's rows and a probe's vectors take."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def floats(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def load_matrix_file(path, tol: float = numerics.GATE_TOL) -> LoadedGate:
    """Read a gate file; raises DomainError with a specific message on any
    malformed content, out-of-chamber alpha or bad `tol`, and NotUnitaryError
    for a gate that is not a 4x4 unitary within `tol`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # integers as floats: int() refuses more than 4300 digits with a
            # bare ValueError, while float() makes them inf
            doc = json.load(fh, parse_int=float)
    except OSError as err:
        raise DomainError(f"cannot read {path}: {err}") from err
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise DomainError(f"{path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise DomainError(f"{path} is nested too deeply") from err
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: top level must be a JSON object")
    kind = doc.get("kind")
    label = doc.get("label", str(path))
    if not isinstance(label, str):
        raise DomainError(f"{path}: label must be a string")
    if kind == "matrix":
        rows = numerics._real_array(doc.get("rows"), f"{path}: rows")
        if rows.ndim != 3 or rows.shape[-1] != 2:
            raise DomainError(f"{path}: rows must be rows of [re, im] pairs")
        # exact: each (re, im) pair of floats is one complex in memory
        m = rows.view(complex)[..., 0]
    elif kind == "alpha":
        # build_ud checks the numbers, their count, finiteness and the chamber
        try:
            m = canonical.build_ud(doc.get("alpha"))
        except DomainError as err:
            raise DomainError(f"{path}: alpha: {err}") from err
    else:
        raise DomainError(f"{path}: kind must be 'matrix' or 'alpha', got {kind!r}")
    m = numerics.require_gates([m], tol, [f"{path}: {kind}"])[0]
    return LoadedGate(matrix=m, label=label)


def render_document(doc: dict) -> str:
    """Canonical text form: 2-space indent, key order preserved, newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_texts(outputs) -> None:
    """Replace each `path` of the (text, path) pairs in `outputs` with its
    `text`, all or none: every text goes to a sibling temp file and every
    target is checked before the first rename, so a failure leaves no
    partial file and every existing file as it was.  An OSError becomes a
    DomainError that names the target, not its temp file."""
    tmps = []
    try:
        for text, path in outputs:
            # a name of fixed length, so that any legal target has a legal
            # temp file; O_EXCL leaves alone a file that has the name, and
            # the mode is open()'s default: 0o666 less the umask
            tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append((tmp, path))
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for _, path in tmps:
            # a rename onto a directory fails: refuse it before the first
            if os.path.isdir(path):
                raise DomainError(f"cannot write {path}: Is a directory")
        for tmp, path in tmps:
            os.replace(tmp, path)
    except OSError as err:
        raise DomainError(f"cannot write {path}: {err.strerror or err}") from err
    finally:
        # gone after a successful rename
        for tmp, _ in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)


def write_document(doc: dict, path) -> None:
    write_texts([(render_document(doc), path)])


def matrix_document(matrix, label: str) -> dict:
    return {
        "kind": "matrix",
        "label": label,
        "rows": pairs(matrix),
    }


def header(kind: str) -> dict:
    """The opening keys of every report the tools write."""
    return {"kind": kind, "tool": "gatediscrim", "version": __version__}


def probe_block(probe) -> dict:
    return {
        "magic_amplitudes": pairs(probe.u),
        "computational": pairs(probe.psi_computational),
        "weights": floats(probe.weights),
        "local_a": pairs(probe.local_a),
        "local_b": pairs(probe.local_b),
        "concurrence": float(probe.concurrence),
        "via_fallback": bool(probe.via_fallback),
    }


def report_document(report, label1: str, label2: str, tol: float) -> dict:
    return {
        **header("discrimination_report"),
        "inputs": {"first": label1, "second": label2},
        "priors": {"p1": float(report.p1), "p2": float(report.p2)},
        "tolerances": {
            "magic_diagonal": float(tol),
            "probe_achieve": numerics.VERDICT_TOL,
            "probe_concurrence": numerics.VERDICT_TOL,
        },
        "omega": floats(report.omega),
        "fidelity": float(report.fidelity),
        "error_probability": float(report.error_probability),
        "perfectly_distinguishable": bool(report.perfectly_distinguishable),
        "case": report.case.value,
        "achieved_value": float(report.achieved_value),
        "probe": probe_block(report.probe),
    }
