"""Runs at the edge of the desk-scale grid.  Fan (5, 5) takes about a
second and runs in tier-1; fan (6, 4) is marked slow: run it with

    python -m pytest -m slow tests/test_scale.py

Each pins the sha256 of the canonical JSON of its outcome.
"""

import hashlib
import json

import pytest

import dimerlab as dl


def outcome_digest(out):
    return hashlib.sha256(json.dumps(out.to_json(), sort_keys=True).encode()).hexdigest()


def test_fan_5_5_verifies():
    out = dl.verify_boundary_algebra(dl.fan_triangulation(5, 1), 5)
    assert out.passed and not out.inconclusive
    assert out.matched and out.generator_count == 60
    assert len(out.presentation.classes) == len(dl.build_gamma(5, 5).arrows) == 60
    assert outcome_digest(out) == "371ef6fb03e4d144389a508f5dff868dc4930cf75f21a9a940ad8c83a72a6576"


@pytest.mark.slow
def test_fan_6_4_verifies():
    # m = 6 on the fan of the square
    out = dl.verify_boundary_algebra(dl.fan_triangulation(4, 1), 6)
    assert out.passed and not out.inconclusive
    assert out.matched and out.generator_count == len(dl.build_gamma(6, 4).arrows) == 60
    assert outcome_digest(out) == "1e794d853961076520c2602fd0286f34364a8c510a883d9d8204ebbe66b58b4d"
