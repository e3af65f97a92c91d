"""The package's outputs over the seeded corpora of `fingerprint.py` match
the committed digests in tests/data/fingerprint.json, byte for byte, and
`--diff` finds no change where the source agrees with git's HEAD."""

import subprocess

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
