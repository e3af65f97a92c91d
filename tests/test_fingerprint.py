"""The package's outputs over the seeded corpora of `fingerprint.py` match
the committed digests in tests/data/fingerprint.json, byte for byte, and
`--diff` finds no change where the source agrees with git's HEAD, and
`--write CORPUS ...` rewrites only the named digests."""

import json
import subprocess

import numpy as np
import pytest

import fingerprint


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
