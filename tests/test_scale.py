"""Runs at the edge of the desk-scale grid: the apex-1 fans (m, n) =
(5, 5), (6, 4), (5, 6), (7, 4), (5, 7), (6, 6), (4, 10) and (7, 7), the
large-m fans (12, 4), (13, 4) and (12, 6), and one other triangulation
at (11, 6).

Extraction is one walk that extends only the prefixes whose closure finds
no word through a boundary vertex, and closes each path it completes that
no earlier closure reached: 244 closures at (6, 4).  The theorem relation
V, y_{t(k)} y_k = x_{k+2m+1} .. x_k, has a long side of m(n - 2) arrows;
the equality search is guided by the face chain between its two sides,
so V visits 3,789 states at (6, 6), not the 215,210 that a breadth-first
search visits.  Each run takes under a second, and all run in tier-1.

Each pins the sha256 of the canonical JSON of its outcome.  The digests
at (5, 7), (6, 6) and (4, 10) were first computed by the breadth-first
search, which takes 2 to 5 s there.  At (7, 7) the breadth-first search
runs for about 10 minutes and leaves 12 instances of V unknown within
the default budget; with those 12 verdicts set to equal, its JSON is the
one pinned here.

From m = 9 on, some prefix closures of the extraction pass through words
longer than their start by more than two relation sides.  The search
keeps every word, so each large-m run completes in about a second.  The
same digests come from a search that dropped such words and then
extended the prefixes it could not close, which takes 35 to 60 s at
(12, 4) and about 8 minutes at (13, 4).

The whole small grid is pinned too: one sha256 over the outcome JSON of
all 697 triangulations with m = 2 and n <= 9, m = 3 and n <= 7, and
m = 4 and n <= 5.
"""

import hashlib
import json

import pytest

import dimerlab as dl

from helpers import fan_presentation


def outcome_digest(out):
    return hashlib.sha256(json.dumps(out.to_json(), sort_keys=True).encode()).hexdigest()


def verified(T, m):
    out = dl.verify_boundary_algebra(T, m)
    assert out.passed and not out.inconclusive
    assert out.matched and out.generator_count == len(dl.build_gamma(m, T.n).arrows)
    assert len(out.presentation.classes) == 3 * T.n * (m - 1)
    return out


def verified_fan(m, n):
    return verified(dl.fan_triangulation(n, 1), m)


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


def test_fan_5_7_verifies():
    out = verified_fan(5, 7)
    assert outcome_digest(out) == "9ccbbaafe88f5a7e4adc6ddd3767b9bdcc1bc82452520d232d6d08812863004b"


def test_fan_6_6_verifies():
    out = verified_fan(6, 6)
    assert outcome_digest(out) == "61578087cea8abcf89acd245f39eb5ccb82eb28a509a9112b49ea6f88bdb426f"


def test_fan_4_10_verifies():
    out = verified_fan(4, 10)
    assert outcome_digest(out) == "309229ef4c5fd2e98fb86d9ba796062d6bee959f7c92c9576eb86b0e26b6da71"


def test_fan_7_7_verifies():
    # beyond the reach of a breadth-first search within the default budget
    out = verified_fan(7, 7)
    assert outcome_digest(out) == "9bddb7bcd2708c4bad880b2d267d910bf145cd94048b15b3036afb75163ae2c3"


@pytest.mark.parametrize(
    "m, n, digest",
    [
        (12, 4, "393e7f788a464027eeb41df46654d99ed3c676355cac8d686705f92135e0d52a"),
        (13, 4, "7dcf084265644a863998318f4db666399adbe0a04597f6f746594eedc1dc2d56"),
        (12, 6, "842ed1684a7891a504b4719d5197717168483a427fbfdaf1a40d5e04eedfdb06"),
    ],
    ids=["fan-12-4", "fan-13-4", "fan-12-6"],
)
def test_large_m_fans_verify(m, n, digest):
    assert outcome_digest(verified_fan(m, n)) == digest


def test_a_large_m_triangulation_that_is_no_fan_verifies():
    T = dl.Triangulation(6, [(1, 3), (1, 5), (3, 5)])
    out = verified(T, 11)
    assert outcome_digest(out) == "639bedde5b931e3bd7a79c8947e560328874df36ab6c4e8c05f1e5b95bb38e26"


def test_the_small_grid_outcomes_are_pinned():
    # 3 to 5 s: the canonical JSON of every outcome of the grid, in
    # enumeration order, into one sha256, so a change to any verdict,
    # generator class or representative on it shows here
    digest, count = hashlib.sha256(), 0
    for m, max_n in ((2, 9), (3, 7), (4, 5)):
        for n in range(3, max_n + 1):
            for T in dl.enumerate_triangulations(n):
                out = dl.verify_boundary_algebra(T, m)
                digest.update(json.dumps(out.to_json(), sort_keys=True).encode())
                count += 1
    assert count == 697
    assert digest.hexdigest() == "2516f495911ffcb0463a6ed8bfe9c3fad4e9ade976acda9383c72decde093d52"


@pytest.mark.parametrize(
    "m, n, theorem, central",
    [(3, 8, 600, 254), (6, 6, 4_023, 1_363)],
    ids=["fan-3-8", "fan-6-6"],
)
def test_equality_search_work_is_pinned(m, n, theorem, central):
    # the states the searches visit, the same on every machine: a change
    # to the search order shows here.  Breadth-first, family V alone
    # visits 215,210 states at (6, 6)
    BP = fan_presentation(n, m)
    report = dl.verify_theorem_relations(BP)
    assert report.passed
    assert sum(instance.verdict.visited for instance in report.instances) == theorem
    report = dl.verify_central_element(BP)
    assert report.passed
    assert sum(verdict.visited for _, verdict in report.entries) == central
