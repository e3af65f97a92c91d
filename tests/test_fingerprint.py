"""The package's outputs over the seeded corpora of `fingerprint.py` match
the committed digests in tests/data/fingerprint.json, byte for byte, and
`--diff` finds no change where the source agrees with git's HEAD,
`--write CORPUS ...` rewrites only the named digests, and the package's
own outputs do not depend on numpy's AVX-512 loops."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fingerprint

# the corpora that run the four-number formulas of `discriminate`,
# `construct_probe` and `extract_interaction` (numerics' module docstring)
OWN_ARITHMETIC = ("discriminate", "discriminate_edges", "construct_probe", "decompose")


@pytest.mark.parametrize("corpus", list(fingerprint.CORPORA))
def test_outputs_match_the_committed_fingerprint(corpus):
    problem = fingerprint.check(corpus)
    assert problem is None, problem


def test_diff_names_no_change_when_the_source_agrees_with_head(capsys):
    # --diff runs a corpus on git HEAD's src/ and on the working tree's;
    # wrap_angle's outputs agree unless the working tree changed wrap_angle
    try:
        subprocess.run(["git", "rev-parse", "HEAD"], cwd=fingerprint.TESTS,
                       capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    assert fingerprint.diff("wrap_angle") == 0
    assert capsys.readouterr().out.endswith("the inputs of both agree\n")


def test_write_regenerates_only_the_named_corpora(tmp_path, monkeypatch):
    # two one-record corpora in a temporary manifest whose digests are stale
    monkeypatch.setattr(fingerprint, "MANIFEST", tmp_path / "fingerprint.json")
    monkeypatch.setattr(fingerprint, "CORPORA", {
        "one": lambda: iter([("x", {"v": 1.0})]), "two": lambda: iter([("y", {"v": 2.0})])})

    def written():
        return json.loads(fingerprint.MANIFEST.read_text())["corpora"]

    stale = {"one": "stale", "two": "stale"}
    fingerprint.MANIFEST.write_text(json.dumps({"numpy": np.__version__, "corpora": stale}))
    assert fingerprint.main(["--write", "two"]) == 0
    assert written() == {"one": "stale", "two": fingerprint.digest("two")}
    assert fingerprint.main(["--write"]) == 0
    assert written() == {name: fingerprint.digest(name) for name in ("one", "two")}
    with pytest.raises(SystemExit):
        fingerprint.main(["--write", "three"])
    # a manifest of another numpy is rewritten whole or not at all
    fingerprint.MANIFEST.write_text(json.dumps({"numpy": "0.0", "corpora": stale}))
    with pytest.raises(SystemExit):
        fingerprint.main(["--write", "one"])
    assert written() == stale


def _avx512_targets() -> list[str]:
    """numpy's dispatched loop targets at the AVX-512 level that this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)
            and (t.startswith("AVX512") or t == "X86_V4")]


def test_outputs_do_not_depend_on_numpys_avx512_loops():
    # the per-pair formulas run on Python floats and libm, so a numpy that
    # may not use its AVX-512 loops gives the same digests
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 loop on this CPU")
    src = str(fingerprint.TESTS.parent / "src")
    code = (f"import sys; sys.path[:0] = {[src, str(fingerprint.TESTS)]!r}; "
            f"import fingerprint; print([fingerprint.check(c) for c in {OWN_ARITHMETIC!r}])")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == f"{[None] * len(OWN_ARITHMETIC)}\n", (targets, out)
