"""The package's outputs over the seeded corpora of `fingerprint.py` match
the committed digests in tests/data/fingerprint.json, byte for byte."""

import pytest

import fingerprint


@pytest.mark.parametrize("corpus", list(fingerprint.CORPORA))
def test_outputs_match_the_committed_fingerprint(corpus):
    problem = fingerprint.check(corpus)
    assert problem is None, problem
