import ast
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gatediscrim import canonical, cli, files, oracle, svg
from gatediscrim.errors import DomainError

GOLDEN = Path(__file__).parent / "data" / "golden"
# a cold `python -m gatediscrim.cli` child runs the package under test,
# installed or not
_PATH = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, _PATH)))

# exit-code contract for `discriminate` over the committed corpus:
# 0 = perfectly distinguishable, 1 = error-prone, 2 = input problem
DISCRIMINATE_TABLE = [
    ("01", "06", 0),
    ("01", "02", 0),
    ("12", "01", 0),
    ("01", "04", 1),
    ("01", "05", 1),
    ("01", "01", 1),
    ("07", "04", 1),
    ("01", "08", 2),
    ("01", "09", 2),
    ("01", "10", 2),
    ("01", "11", 2),
]


def g(prefix: str) -> str:
    hits = sorted(GOLDEN.glob(f"{prefix}_*.json"))
    assert len(hits) == 1, f"corpus file {prefix} missing"
    return str(hits[0])


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_is_complete():
    names = sorted(p.name for p in GOLDEN.glob("*.json"))
    assert len(names) == 12
    assert [n[:2] for n in names] == [f"{i:02d}" for i in range(1, 13)]


@pytest.mark.parametrize("first,second,expected", DISCRIMINATE_TABLE)
def test_discriminate_exit_codes(capsys, first, second, expected):
    code, out, err = run_main(capsys, "discriminate", g(first), g(second))
    assert code == expected
    if expected == 2:
        assert err.startswith("error:")
        assert out == ""
    else:
        assert err == ""
        assert isinstance(json.loads(out), dict)


def test_discriminate_error_prone_report(capsys):
    code, out, _ = run_main(capsys, "discriminate", g("01"), g("04"))
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == "discrimination_report"
    assert doc["fidelity"] == pytest.approx(math.cos(math.pi / 8), abs=1e-7)
    assert doc["error_probability"] == pytest.approx(0.3086583, abs=1e-7)
    assert doc["perfectly_distinguishable"] is False
    assert doc["case"] == "OriginOutside"
    assert doc["probe"]["concurrence"] <= 1e-9
    assert doc["probe"]["via_fallback"] is False
    assert doc["priors"] == {"p1": 0.5, "p2": 0.5}
    # serialization round-trips byte-identically
    assert files.render_document(doc) == out


def test_discriminate_perfect_report(capsys):
    code, out, _ = run_main(capsys, "discriminate", g("01"), g("06"))
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] == 0.0
    assert doc["error_probability"] == 0.0
    assert doc["perfectly_distinguishable"] is True
    assert doc["case"] == "OriginInside"
    assert abs(doc["achieved_value"]) <= 1e-9


def test_discriminate_identical_gates(capsys):
    code, out, _ = run_main(capsys, "discriminate", g("01"), g("01"))
    assert code == 1
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(1.0)
    assert doc["error_probability"] == pytest.approx(0.5)


def test_discriminate_error_messages(capsys):
    _, _, err = run_main(capsys, "discriminate", g("01"), g("08"))
    assert "decompose" in err  # points the user at the right tool
    _, _, err = run_main(capsys, "discriminate", g("01"), g("09"))
    assert "not unitary" in err
    _, _, err = run_main(capsys, "discriminate", g("01"), g("10"))
    assert "not valid JSON" in err
    _, _, err = run_main(capsys, "discriminate", g("01"), g("11"))
    assert "violated" in err
    _, _, err = run_main(capsys, "discriminate", g("01"), "no_such_file.json")
    assert "cannot read" in err


def test_build_ud_decompose_roundtrip(capsys, tmp_path):
    out = tmp_path / "gate.json"
    code, _, _ = run_main(
        capsys, "build-ud", "--alpha", "0.3,0.2,0.1", "--out", str(out)
    )
    assert code == 0
    code, text, _ = run_main(capsys, "decompose", str(out))
    assert code == 0
    doc = json.loads(text)
    assert doc["alpha"] == pytest.approx([0.3, 0.2, 0.1], abs=1e-7)
    assert doc["class"] == "Entangling"
    assert sum(doc["lambda"]) == pytest.approx(0.0, abs=1e-9)


def test_build_ud_degrees_flag(capsys, tmp_path):
    out = tmp_path / "gate.json"
    run_main(capsys, "build-ud", "--alpha", "45,45,45", "--degrees", "--out", str(out))
    code, text, _ = run_main(capsys, "decompose", str(out))
    assert code == 0
    doc = json.loads(text)
    assert doc["alpha"] == pytest.approx([math.pi / 4] * 3, abs=1e-7)
    assert doc["class"] == "SwapLike"


def test_build_ud_rejects_bad_vector(capsys, tmp_path):
    code, _, err = run_main(
        capsys, "build-ud", "--alpha", "0.1,0.2,0.3", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "violated" in err
    code, _, err = run_main(
        capsys, "build-ud", "--alpha", "0.1,0.2", "--out", str(tmp_path / "x.json")
    )
    assert code == 2


def test_decompose_identity_and_dressed(capsys):
    code, text, _ = run_main(capsys, "decompose", g("01"))
    assert code == 0
    doc = json.loads(text)
    assert doc["alpha"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
    assert doc["class"] == "Identity"
    # local dressing hides nothing from the decomposition
    code, text, _ = run_main(capsys, "decompose", g("08"))
    assert code == 0
    doc = json.loads(text)
    assert doc["alpha"] == pytest.approx([0.6, 0.25, 0.05], abs=1e-7)


def test_decompose_rejects_nonunitary(capsys):
    code, _, err = run_main(capsys, "decompose", g("09"))
    assert code == 2
    assert "not unitary" in err


def test_decompose_tol_reaches_the_analysis(capsys, tmp_path):
    # unitarity residual 4e-7: the file check and the analysis both use --tol
    path = tmp_path / "near.json"
    files.write_document(files.matrix_document((1.0 + 2e-7) * np.eye(4), "near"), path)
    code, _, err = run_main(capsys, "decompose", str(path))
    assert code == 2 and "not unitary within tolerance 1e-08" in err
    code, text, err = run_main(capsys, "decompose", str(path), "--tol", "1e-6")
    assert (code, err) == (0, "")
    assert json.loads(text)["class"] == "Identity"


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _write_bytes(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _identity_rows_with(entry: str) -> str:
    rows = files.matrix_pairs(np.eye(4))
    rows[1][2] = [12345.0, 0.0]
    return json.dumps({"kind": "matrix", "rows": rows}).replace("12345.0", entry)


def _identity_rows_with_bools() -> str:
    # the (0, 0) entry as [true, false], which a bool-as-int reading takes
    # for 1 + 0j
    text = json.dumps({"kind": "matrix", "rows": files.matrix_pairs(np.eye(4))})
    return text.replace("[1.0, 0.0]", "[true, false]", 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: _write(tmp / "inf.json", _identity_rows_with("Infinity")),
        lambda tmp: _write(tmp / "1e400.json", _identity_rows_with("1e400")),
        lambda tmp: _write(tmp / "int400.json", _identity_rows_with("1" + "0" * 400)),
        lambda tmp: g("09"),
        lambda tmp: g("10"),
        lambda tmp: g("11"),
        lambda tmp: _write(tmp / "bool_cell.json", _identity_rows_with_bools()),
        lambda tmp: _write(
            tmp / "bool_alpha.json", '{"kind": "alpha", "alpha": [0.3, 0.0, false]}'
        ),
        lambda tmp: _write_bytes(tmp / "not_utf8.json", b"\xff\xfe\x00bad"),
        lambda tmp: _write(tmp / "deep.json", "[" * 100000 + "]" * 100000),
        lambda tmp: _write(tmp / "top_list.json", "[1, 2]"),
        lambda tmp: _write(
            tmp / "label_number.json", '{"kind": "alpha", "alpha": [0, 0, 0], "label": 3}'
        ),
        lambda tmp: _write(tmp / "kind_unknown.json", '{"kind": "pauli"}'),
        lambda tmp: _write(tmp / "rows_text.json", '{"kind": "matrix", "rows": "I"}'),
        lambda tmp: _write(
            tmp / "rows_ragged.json", '{"kind": "matrix", "rows": [[[1, 0]], []]}'
        ),
    ],
    ids=[
        "infinity", "1e400", "int400", "09", "10", "11", "bool_cell", "bool_alpha",
        "not_utf8", "deep", "top_list", "label_number", "kind_unknown", "rows_text",
        "rows_ragged",
    ],
)
def test_rejected_gate_file_gives_one_line(tmp_path, make):
    # a cold run with Python's default warning filters: a numpy warning or a
    # traceback would add lines to stderr
    proc = subprocess.run(
        [sys.executable, "-m", "gatediscrim.cli", "decompose", make(tmp_path)],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tol_is_rejected(capsys, tmp_path, tol):
    probe, fig = tmp_path / "probe.json", tmp_path / "hull.svg"
    commands = [
        ["decompose", g("09")],
        ["discriminate", g("09"), g("01"), "--probe-out", str(probe),
         "--svg-out", str(fig)],
        ["simulate", g("09"), g("01"), "--shots", "100"],
    ]
    for argv in commands:
        code, out, err = run_main(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--probe-out", "--svg-out"])
def test_discriminate_unwritable_output_prints_one_line(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "out"
    code, out, err = run_main(
        capsys, "discriminate", g("01"), g("04"), flag, str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _tree(root: Path) -> dict:
    """{relative path: bytes, or None for a directory} of everything under root."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


@pytest.mark.parametrize(
    "svg_out,reason",
    [("missing/x.svg", "No such file or directory"), ("adir", "Is a directory")],
    ids=["missing_dir", "directory"],
)
@pytest.mark.parametrize("old_probe", [None, b"kept\n"], ids=["no_probe", "old_probe"])
def test_failed_svg_write_writes_no_probe(
    capsys, tmp_path, monkeypatch, svg_out, reason, old_probe
):
    # the probe file is written only together with the figure, so a figure
    # that cannot be written leaves the directory as it was
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    if old_probe is not None:
        (tmp_path / "probe.json").write_bytes(old_probe)
    before = _tree(tmp_path)
    code, out, err = run_main(
        capsys, "discriminate", g("01"), g("04"),
        "--probe-out", "probe.json", "--svg-out", svg_out,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {svg_out}: {reason}\n"
    assert _tree(tmp_path) == before


def test_discriminate_rejects_one_file_for_probe_and_svg(capsys, tmp_path, monkeypatch):
    # the same file under two spellings: rejected before anything is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(
        capsys, "discriminate", g("01"), g("04"),
        "--probe-out", "same.out", "--svg-out", "./same.out",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --probe-out and --svg-out") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_every_document_opens_with_one_header(capsys, tmp_path):
    probe = tmp_path / "probe.json"
    runs = [
        ["discriminate", g("01"), g("04"), "--probe-out", str(probe)],
        ["simulate", g("01"), g("04"), "--shots", "100"],
        ["decompose", g("04")],
    ]
    docs = []
    for argv in runs:
        code, out, _ = run_main(capsys, *argv)
        assert code in (0, 1)
        docs.append(out)
    docs.append(probe.read_text())
    for text in docs:
        assert list(json.loads(text))[:3] == ["kind", "tool", "version"]
    # files.header is the one place that spells the header
    src = Path(cli.__file__).parent
    users = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "tool" for k in node.keys
            ):
                users.add(path.name)
    assert users == {"files.py"}


def test_simulated_rates_share_one_test():
    # simulate and selfcheck both judge a rate by _z_score, and the empirical
    # std_error is only printed, never compared
    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("_cmd_simulate", "_selfcheck_trial"):
        calls = {
            n.func.id
            for n in ast.walk(funcs[name])
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        assert "_z_score" in calls, name
    reads = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "std_error"
    ]
    docs = [
        n
        for n in ast.walk(funcs["_cmd_simulate"])
        if isinstance(n, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "std_error" for k in n.keys)
    ]
    assert len(reads) == 1 and len(docs) == 1
    assert any(node is reads[0] for node in ast.walk(docs[0]))


@pytest.mark.parametrize(
    "argv",
    [
        ["build-ud", "--alpha", "0.3,0.2,0.1", "--out"],
        ["discriminate", g("01"), g("04"), "--probe-out"],
        ["discriminate", g("01"), g("04"), "--svg-out"],
        ["figure", "--omega", "0,1,2,3", "--out"],
    ],
)
def test_unwritable_output_names_the_given_path(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run_main(capsys, *argv, str(target))
    assert code == 2
    assert out == ""
    # the path as given, not the writer's temp file, so stderr is repeatable
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_long_output_name_is_written(capsys, tmp_path):
    # 254 bytes, a legal name within a byte of the usual 255-byte limit
    target = tmp_path / ("a" * 250 + ".svg")
    argv = ["figure", "--omega", "0,1,2,3", "--out", str(target)]
    code, out, err = run_main(capsys, *argv)
    assert (code, out, err) == (0, f"wrote {target}\n", "")
    assert target.read_text() == svg.render_hull_svg([0.0, 1.0, 2.0, 3.0])
    assert list(tmp_path.iterdir()) == [target]
    # the mode any new file gets here, not a private temp file's 0600
    (tmp_path / "plain").write_text("")
    assert target.stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_simulate_perfect_pair(capsys):
    code, out, _ = run_main(
        capsys, "simulate", g("01"), g("06"), "--shots", "10000", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["errors"] == 0
    assert doc["empirical_rate"] == 0.0
    assert doc["z_score"] == 0.0


def test_simulate_anchor_pair(capsys):
    code, out, _ = run_main(
        capsys, "simulate", g("01"), g("04"), "--shots", "100000", "--seed", "42"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic_error_probability"] == pytest.approx(0.3086583, abs=1e-7)
    assert abs(doc["empirical_rate"] - 0.3086583) <= 3 * doc["std_error"]
    assert abs(doc["z_score"]) <= 4.0
    assert doc["shots"] == 100000
    assert sum(map(sum, doc["confusion"])) == 100000


def test_simulate_z_uses_the_analytic_rate(capsys, tmp_path):
    # an analytic rate of 2.5e-7 predicts 0.025 errors in 100000 shots: a
    # run that sees none lies well within 4 sigma of it
    first, second = tmp_path / "id.json", tmp_path / "near.json"
    files.write_document(files.matrix_document(np.eye(4), "id"), first)
    near = canonical.from_magic_phases([0.0, math.pi - 2e-3, 0.0, 0.0])
    files.write_document(files.matrix_document(near, "near"), second)
    code, out, _ = run_main(capsys, "simulate", str(first), str(second))
    doc = json.loads(out)
    assert doc["analytic_error_probability"] == pytest.approx(2.5e-7, rel=1e-3)
    assert doc["errors"] == 0 and doc["std_error"] == 0.0
    # z = -rate / sqrt(rate / shots) = -sqrt(0.025)
    assert doc["z_score"] == pytest.approx(-math.sqrt(0.025), rel=1e-3)
    assert code == 0
    # one shot lands within 4 sigma of a rate of 0.31 whichever way it falls
    seen = set()
    for seed in range(8):
        code, out, _ = run_main(
            capsys, "simulate", g("01"), g("04"), "--shots", "1", "--seed", str(seed)
        )
        assert code == 0
        seen.add(json.loads(out)["errors"])
    assert seen == {0, 1}


def test_simulate_tol_reaches_the_simulator(capsys, tmp_path):
    # unitarity residual 4e-7, as in the decompose case: --tol 1e-6 must hold
    # for the file check, the analysis and the shot simulator alike
    path = tmp_path / "near.json"
    files.write_document(files.matrix_document((1.0 + 2e-7) * np.eye(4), "near"), path)
    code, _, err = run_main(capsys, "simulate", str(path), str(path), "--shots", "100")
    assert code == 2 and "not unitary within tolerance 1e-08" in err
    code, out, err = run_main(
        capsys, "simulate", str(path), str(path), "--shots", "100", "--tol", "1e-6"
    )
    assert code in (0, 1) and err == ""
    assert json.loads(out)["shots"] == 100


def test_simulate_prior_rounded_past_one(capsys):
    code, out, err = run_main(
        capsys, "simulate", g("01"), g("04"), "--shots", "1000", "--p1", "1.0000000000001"
    )
    assert code in (0, 1) and err == ""
    assert json.loads(out)["priors"] == {"p1": 1.0, "p2": 0.0}
    # -0.0 is printed as the prior 0.0
    for cmd, *flags in (["simulate", "--shots", "1000"], ["discriminate"]):
        code, out, err = run_main(capsys, cmd, g("01"), g("04"), *flags, "--p1", "-0.0")
        assert code in (0, 1) and err == ""
        p1 = json.loads(out)["priors"]["p1"]
        assert p1 == 0.0 and math.copysign(1.0, p1) == 1.0


def test_simulate_bad_shots(capsys):
    # 10**23 lies past the int64 maximum, the largest count numpy's binomial
    # takes
    for shots in ("0", str(10**23)):
        code, out, err = run_main(
            capsys, "simulate", g("01"), g("04"), "--shots", shots
        )
        assert code == 2
        assert out == ""
        assert "shots" in err and err.count("\n") == 1


def test_selfcheck_passes_and_replays(capsys):
    code, out, _ = run_main(capsys, "selfcheck", "--trials", "3", "--seed", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("trial")]
    assert len(lines) == 3
    assert "3/3 trials passed" in out
    # replaying trial 2 alone (seed 5+2) reproduces its verdict
    target = lines[2].split("): ", 1)[1]
    code, out, _ = run_main(capsys, "selfcheck", "--trials", "1", "--seed", "7")
    assert code == 0
    replay = [l for l in out.splitlines() if l.startswith("trial")][0]
    assert "(seed 7)" in replay
    assert replay.split("): ", 1)[1] == target


def test_selfcheck_checks_the_global_optimum(capsys, monkeypatch):
    exact = oracle.min_over_all_states

    def off_by_1e6(u1, u2, cfg=None):
        val, psi = exact(u1, u2, cfg)
        return val + 1e-6, psi

    monkeypatch.setattr(oracle, "min_over_all_states", off_by_1e6)
    code, out, _ = run_main(capsys, "selfcheck", "--trials", "1")
    assert code == 1
    assert "trial 0 (seed 0): FAIL global optimum" in out


def test_selfcheck_checks_the_product_search(capsys, monkeypatch):
    # the product oracle is exact, so it is held to the verdict tolerance
    exact = oracle.min_over_product_states

    def off_by_1e6(u1, u2, cfg=None):
        val, probe = exact(u1, u2, cfg)
        return val + 1e-6, probe

    monkeypatch.setattr(oracle, "min_over_product_states", off_by_1e6)
    code, out, _ = run_main(capsys, "selfcheck", "--trials", "1")
    assert code == 1
    assert "trial 0 (seed 0): FAIL product search found" in out


def test_selfcheck_checks_the_simulated_rate(capsys, monkeypatch):
    # trial 0's pair has an analytic rate near 0.2; a rate 6 binomial sigma
    # above it fails, as measured at the analytic rate
    sample = oracle.helstrom_simulate

    def six_sigma_high(u1, u2, probe, **kwargs):
        out = sample(u1, u2, probe, **kwargs)
        fid = oracle.min_over_all_states(u1, u2)[0]
        pe, n = (1.0 - math.sqrt(1.0 - fid * fid)) / 2, out.shots
        errors = math.ceil((pe + 6.0 * math.sqrt(pe * (1.0 - pe) / n)) * n)
        return dataclasses.replace(out, errors=errors, empirical_rate=errors / n)

    monkeypatch.setattr(oracle, "helstrom_simulate", six_sigma_high)
    code, out, _ = run_main(capsys, "selfcheck", "--trials", "1")
    assert code == 1
    assert "trial 0 (seed 0): FAIL simulation rate" in out and "(> 5 sigma)" in out


def test_selfcheck_passes_no_errors_at_a_tiny_rate(capsys, monkeypatch):
    # identity vs a core whose hull misses the origin by 6.3e-4: an analytic
    # rate near 1e-7, and 4000 shots that see no error
    pair = iter([np.zeros(3), np.array([math.pi / 4, math.pi / 4 - 6.3e-4, 0.0])])
    monkeypatch.setattr(canonical, "random_weyl_vector", lambda rng: next(pair))
    sample = oracle.helstrom_simulate
    outcomes = []

    def recorded(*args, **kwargs):
        outcomes.append(sample(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(oracle, "helstrom_simulate", recorded)
    code, out, _ = run_main(capsys, "selfcheck", "--trials", "1")
    assert [o.errors for o in outcomes] == [0]
    assert out.startswith("trial 0 (seed 0): ok")
    assert code == 0


def test_selfcheck_zero_trials(capsys):
    code, _, err = run_main(capsys, "selfcheck", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_selfcheck_negative_seed(capsys):
    code, out, err = run_main(capsys, "selfcheck", "--trials", "1", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --seed") and err.count("\n") == 1


def test_figure_inside_and_outside(capsys, tmp_path):
    inside = tmp_path / "inside.svg"
    code, out, _ = run_main(
        capsys, "figure", "--omega", "0,90,180,-90", "--degrees", "--out", str(inside)
    )
    assert code == 0
    assert str(inside) in out
    text = inside.read_text()
    assert text.startswith("<?xml")
    assert "polygon" in text
    assert "stroke-dasharray" not in text  # origin inside: no distance segment

    outside = tmp_path / "outside.svg"
    run_main(
        capsys,
        "figure",
        "--omega",
        "0,1.0471975511965976,0.5235987755982988,0.7853981633974483",
        "--out",
        str(outside),
    )
    assert "stroke-dasharray" in outside.read_text()

    # angles a whole turn away draw the same figure, byte for byte
    def figure(angles, *flags):
        path = tmp_path / "shifted.svg"
        omega = "--omega=" + ",".join(map(repr, angles))
        assert run_main(capsys, "figure", omega, *flags, "--out", str(path))[0] == 0
        return path.read_bytes()

    outside_rad = [0.0, 1.0471975511965976, 0.5235987755982988, 0.7853981633974483]
    for angles, turn, flags in (
        ([20.0, 110.0, -160.0, -70.0], 360.0, ["--degrees"]),
        (outside_rad, 2 * math.pi, []),
    ):
        want = figure(angles, *flags)
        for sign in (1.0, -1.0):
            assert figure([a + sign * turn for a in angles], *flags) == want


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "--omega", "nan,0,0,0"],
        ["figure", "--omega", "0,inf,0,0", "--degrees"],
        ["build-ud", "--alpha", "nan,0,0"],
        ["build-ud", "--alpha", "0.1,0,-inf"],
    ],
)
def test_non_finite_angles_rejected(capsys, tmp_path, argv):
    out = tmp_path / "out"
    code, stdout, err = run_main(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err
    assert not out.exists()


def test_figure_takes_a_negative_first_angle(capsys, tmp_path):
    outs = [tmp_path / "split.svg", tmp_path / "joined.svg"]
    for out, omega in zip(outs, (["--omega", "-1,0,1,2"], ["--omega=-1,0,1,2"])):
        assert run_main(capsys, "figure", *omega, "--out", str(out))[0] == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_negative_value_with_an_exponent_is_a_value(capsys):
    # argparse's own negative-number pattern has no exponent
    argv = ["discriminate", g("01"), g("04"), "--p1", "-1e-13"]
    code, out, err = run_main(capsys, *argv)
    assert (code, err) == (1, "")
    assert json.loads(out)["priors"] == {"p1": 0.0, "p2": 1.0}
    for cmd in (["discriminate", g("01"), g("04")], ["decompose", g("04")]):
        code, out, err = run_main(capsys, *cmd, "--tol", "-1e-3")
        assert (code, out) == (2, "")
        assert err == "error: --tol must be finite and > 0, got -0.001\n"


def test_figure_single_point(capsys, tmp_path):
    path = tmp_path / "single.svg"
    code, _, _ = run_main(capsys, "figure", "--omega", "0,0,0,0", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "P1,P2,P3,P4" in text


def test_discriminate_outputs_are_deterministic(capsys, tmp_path):
    blobs = []
    for r in range(2):
        probe = tmp_path / f"probe{r}.json"
        fig = tmp_path / f"fig{r}.svg"
        code, out, _ = run_main(
            capsys,
            "discriminate",
            g("01"),
            g("04"),
            "--probe-out",
            str(probe),
            "--svg-out",
            str(fig),
        )
        assert code == 1
        blobs.append((out, probe.read_bytes(), fig.read_bytes()))
    assert blobs[0] == blobs[1]
    probe_doc = json.loads(blobs[0][1].decode())
    assert probe_doc["kind"] == "probe_state"
    assert files.render_document(probe_doc).encode() == blobs[0][1]


def test_help_version_and_usage_errors(capsys):
    assert run_main(capsys, "--help")[0] == 0
    code, out, _ = run_main(capsys, "--version")
    assert code == 0
    code, _, _ = run_main(capsys, "bogus-command")
    assert code == 2
    code, _, _ = run_main(capsys)
    assert code == 2
    code, _, err = run_main(capsys, "discriminate", g("01"), g("04"), "--p1", "oops")
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gatediscrim.cli", "discriminate", g("01"), g("06")],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["perfectly_distinguishable"] is True


def test_console_script_if_installed():
    exe = shutil.which("gatediscrim")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gatediscrim" in proc.stdout


@pytest.mark.parametrize(
    "write",
    [
        lambda p: files.write_document({"x": float("nan")}, p),
        lambda p: files.write_texts([(svg.render_hull_svg([math.nan, 0.0, 0.0, 0.0]), p)]),
        lambda p: files.write_texts([(svg.render_hull_svg([0.0, math.inf, 0.0, 0.0]), p)]),
    ],
)
def test_failed_write_leaves_no_partial_file(tmp_path, write):
    new = tmp_path / "new.out"
    with pytest.raises(ValueError):
        write(new)
    assert list(tmp_path.iterdir()) == []
    old = tmp_path / "old.out"
    old.write_text("kept\n")
    with pytest.raises(ValueError):
        write(old)
    assert old.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [old]


def test_failed_rename_removes_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text("kept\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(files.os, "replace", fail)
    with pytest.raises(DomainError, match="cannot write .*doc.json: rename failed$"):
        files.write_document({"x": 1.0}, path)
    assert path.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [path]
