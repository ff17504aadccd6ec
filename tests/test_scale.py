"""Runs at the edge of the desk-scale grid: the apex-1 fans (m, n) =
(5, 5), (6, 4), (5, 6) and (7, 4).  Extraction is one walk that extends
only the prefixes whose closure finds no word through a boundary vertex,
and closes each path it completes that no earlier closure reached: 244
closures at (6, 4), so each run takes under a second, and all run in
tier-1.

Each pins the sha256 of the canonical JSON of its outcome.
"""

import hashlib
import json

import dimerlab as dl


def outcome_digest(out):
    return hashlib.sha256(json.dumps(out.to_json(), sort_keys=True).encode()).hexdigest()


def verified_fan(m, n):
    out = dl.verify_boundary_algebra(dl.fan_triangulation(n, 1), m)
    assert out.passed and not out.inconclusive
    assert out.matched and out.generator_count == len(dl.build_gamma(m, n).arrows)
    assert len(out.presentation.classes) == 3 * n * (m - 1)
    return out


def test_fan_5_5_verifies():
    out = verified_fan(5, 5)
    assert outcome_digest(out) == "371ef6fb03e4d144389a508f5dff868dc4930cf75f21a9a940ad8c83a72a6576"


def test_fan_6_4_verifies():
    # m = 6 on the fan of the square
    out = verified_fan(6, 4)
    assert outcome_digest(out) == "1e794d853961076520c2602fd0286f34364a8c510a883d9d8204ebbe66b58b4d"


def test_fan_5_6_verifies():
    out = verified_fan(5, 6)
    assert outcome_digest(out) == "b845a0bbebf1daa12a92f434e6b746422349c65a72a7ba89b93922985bc403c3"


def test_fan_7_4_verifies():
    out = verified_fan(7, 4)
    assert outcome_digest(out) == "689658430d68c42dd8444940d6e9cd7c7cf888fc0800a1576830ebe8c812dd4f"
