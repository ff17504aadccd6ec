import hashlib
import json
import os
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dimerlab as dl
from dimerlab.boundary import (
    BoundaryError,
    BoundaryPresentation,
    FormulaMismatchError,
    GammaMatch,
    GeneratorClass,
    IncompatibleGammaError,
    InconclusivePresentationError,
    _extract,
    factors_through_boundary,
    gamma_tail,
    modl,
)
from dimerlab.quiver import Arrow, QuiverWithFaces
from dimerlab.rewrite import (
    DEFAULT_MAX_VISITED,
    EQUAL,
    UNKNOWN,
    EqualityVerdict,
    Path,
    RelationSet,
    SearchBudget,
    paths_equal,
    replay_certificate,
)

from helpers import (
    fan_pipeline,
    fan_presentation,
    pairwise_generators,
    pipeline,
    presentation,
    triangulations,
)

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


def test_gamma_counts():
    for m in (2, 3, 4, 5):
        for n in (3, 4, 5, 6):
            G = dl.build_gamma(m, n)
            assert len(G.arrows) == 3 * n * (m - 1)
            assert G.vertex_count == m * n


def test_gamma_2_5_is_the_pentagon_quiver():
    G = dl.build_gamma(2, 5)
    xs = {name: st for name, st in G.arrows.items() if name[0] == "x"}
    assert xs == {("x", k): (modl(k - 1, 10), k) for k in range(1, 11)}
    ys = {st for name, st in G.arrows.items() if name[0] == "y"}
    # five arrows 2k+2 -> 2k
    assert ys == {(4, 2), (6, 4), (8, 6), (10, 8), (2, 10)}
    assert not any(name[0] == "z" for name in G.arrows)


def test_gamma_4_6():
    G = dl.build_gamma(4, 6)
    assert len(G.arrows) == 54
    # spot-check the y tails against the closed form tail = k + 2 + 2*((-k) mod m)
    assert G.arrows[("y", 4)] == (gamma_tail(4, 4, 24), 4)
    assert G.arrows[("y", 10)] == (16, 10)  # tail = 10 + 2 + 2*((-10) mod 4)
    assert all(
        G.arrows[("z", k)] == (k + 1, k)
        for k in range(1, 24)
        if k % 4 in (2, 3)
    )


def test_triangle_m2_generators():
    BP, match = fan_presentation(3, 2)
    assert len(BP.classes) == 9
    sigs = {(c.source, c.target, c.tag) for c in BP.classes}
    xs = {(modl(k - 1, 6), k, "x") for k in range(1, 7)}
    assert xs <= sigs
    assert {(4, 2, "y"), (6, 4, "y"), (2, 6, "y")} <= sigs
    assert match.ok


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_m2_generator_count_is_3n(n):
    BP, match = fan_presentation(n, 2)
    assert len(BP.classes) == 3 * n
    assert match.ok


def test_q46_has_54_generators():
    BP, match = fan_presentation(6, 4)
    assert len(BP.classes) == 3 * 6 * 3
    assert match.ok


def test_match_requires_equal_vertex_count():
    # Gamma is the one of the quiver's own (m, n): a quiver with the 10
    # boundary vertices of fan (2, 5) that claims n = 6 meets Gamma(2, 6)
    BP, _ = fan_presentation(5, 2)
    Q = BP.quiver
    claims_6 = QuiverWithFaces(Q.m, 6, Q.vertices, Q.arrows, Q.faces)
    claimed = BoundaryPresentation(relation_set=RelationSet(claims_6, []), classes=BP.classes)
    message = r"10 boundary vertices, Gamma\(2,6\) has 12"
    with pytest.raises(IncompatibleGammaError, match=message):
        dl.match_gamma(claimed)


def test_match_uses_the_boundary_labels_as_they_are():
    # shifting every label by 3 (not a symmetry of Gamma(2, 5), which only
    # has the even rotations) must not match
    BP, match = fan_presentation(5, 2)
    assert match.ok
    mn = 10
    shift = 3
    shifted = BoundaryPresentation(
        relation_set=BP.relation_set,
        classes=tuple(
            GeneratorClass(
                source=modl(c.source + shift, mn),
                target=modl(c.target + shift, mn),
                tag=c.tag,
                rep=c.rep,
                size=c.size,
            )
            for c in BP.classes
        ),
    )
    match2 = dl.match_gamma(shifted)
    assert not match2.ok and match2.assignment is None
    assert "Gamma(2,5)" in match2.obstruction


def test_presentation_budget_exhaustion_is_inconclusive(monkeypatch):
    # a starved closure: the error names the path whose closure ran out
    # (not always the least member of its class), the budget, and how many
    # states the closure visited
    closures = []

    def recorded(p, R, budget=SearchBudget()):
        result = factors_through_boundary(p, R, budget)
        closures.append((p, result))
        return result

    monkeypatch.setattr(dl.boundary, "factors_through_boundary", recorded)
    _, _, Q, R = fan_pipeline(5, 4)
    with pytest.raises(InconclusivePresentationError) as info:
        dl.boundary_generators(R, SearchBudget(max_visited=3))
    p, (verdict, visited, _) = closures[-1]
    assert verdict == "truncated" and visited == 3
    assert str(info.value) == (
        f"cannot decide within budget (max_visited=3) whether the class of "
        f"{p.arrows} ({p.source}->{p.target}) is a generator (visited 3)"
    )


@settings(max_examples=25)
@given(st.data())
def test_grouping_matches_the_pairwise_reference(data):
    # the same classes, representatives, sizes, tags and order as comparing
    # each path with every group in turn; at m = 4, n = 7 the reference
    # alone takes 4-13 s per triangulation, so m = 4 stops at n = 6
    m = data.draw(st.integers(2, 4))
    T = data.draw(triangulations(max_n=6 if m == 4 else 7))
    _, _, Q, R = pipeline(T.n, m, T.sorted_diagonals)
    assert dl.boundary_generators(R).classes == pairwise_generators(Q, R)


def test_a_starved_prefix_closure_never_prunes(monkeypatch):
    # a truncated prefix closure (of a word ending at an internal vertex)
    # extends the prefix: the walk then meets more paths, and still gives
    # the default classes
    _, _, Q, R = fan_pipeline(6, 4)
    internal = set(Q.internal_vertices)

    def extract(starve_prefixes):
        path_closures = []

        def closure(p, R, budget=SearchBudget()):
            if p.target not in internal:
                path_closures.append(p)
            elif starve_prefixes:
                return "truncated", 1, {}.keys()
            return factors_through_boundary(p, R, budget)

        monkeypatch.setattr(dl.boundary, "factors_through_boundary", closure)
        return dl.boundary_generators(R).classes, len(path_closures)

    default, default_count = extract(False)
    starved, starved_count = extract(True)
    assert starved == default and len(default) == 54
    assert starved_count > default_count


def test_classification_joins_a_class_through_a_longer_word():
    # parallel arrows a, b, and c d through a third vertex, with a = c d and
    # b = c d: a and b are equal only through the word c d of length 2
    vertices = {1: "boundary", 2: "boundary", 3: "internal"}
    arrows = [
        Arrow(1, 2, "internal", ("t", (0, 0, 0), 0)),  # a
        Arrow(1, 2, "internal", ("t", (0, 0, 0), 1)),  # b
        Arrow(1, 3, "internal", ("t", (0, 0, 0), 2)),  # c
        Arrow(3, 2, "internal", ("t", (0, 0, 0), 3)),  # d
    ]
    Q = QuiverWithFaces(2, 3, vertices, arrows, [])
    a, b, cd = Path(Q, (0,)), Path(Q, (1,)), Path(Q, (2, 3))
    R = RelationSet(Q, [(a, cd), (b, cd)])
    (c,) = dl.boundary_generators(R).classes
    assert (c.source, c.target, c.rep, c.size) == (1, 2, a, 3)


def test_class_size_counts_only_primitive_paths():
    # a = c d e f, where c d e f visits the internal vertex 3 twice: the
    # class {a, c d e f} holds one primitive path
    vertices = {1: "boundary", 2: "boundary", 3: "internal", 4: "internal"}
    arrows = [
        Arrow(1, 2, "internal", ("t", (0, 0, 0), 0)),  # a
        Arrow(1, 3, "internal", ("t", (0, 0, 0), 1)),  # c
        Arrow(3, 4, "internal", ("t", (0, 0, 0), 2)),  # d
        Arrow(4, 3, "internal", ("t", (0, 0, 0), 3)),  # e
        Arrow(3, 2, "internal", ("t", (0, 0, 0), 4)),  # f
    ]
    Q = QuiverWithFaces(2, 3, vertices, arrows, [])
    a, cdef = Path(Q, (0,)), Path(Q, (1, 2, 3, 4))
    R = RelationSet(Q, [(a, cdef)])
    assert factors_through_boundary(a, R)[2] == {a.arrows, cdef.arrows}
    sizes = {c.rep.arrows: c.size for c in dl.boundary_generators(R).classes}
    assert sizes == {a.arrows: 1, (1, 4): 1}


def test_generator_minimality_m2():
    # exhaustive at m=2, n <= 5: no generator is a composition of two others,
    # and no path equal to a generator ever crosses a boundary vertex
    for n in (3, 4, 5):
        _, _, Q, R = fan_pipeline(n, 2)
        BP, match = fan_presentation(n, 2)
        assert match.ok
        for c in BP.classes:
            assert factors_through_boundary(c.rep, R)[0] == "generator"
            for c1 in BP.classes:
                if c1.source != c.source:
                    continue
                for c2 in BP.classes:
                    if c2.source != c1.target or c2.target != c.target:
                        continue
                    v = paths_equal(c.rep, c1.rep * c2.rep, R)
                    assert v.outcome != EQUAL, (c.describe(), c1.describe(), c2.describe())


@pytest.mark.parametrize("m,n", [(2, 5), (2, 3), (3, 4)])
def test_theorem_relations(m, n):
    BP, match = fan_presentation(n, m)
    report = dl.verify_theorem_relations(BP, match=match)
    assert report.passed
    assert not report.unknowns()
    if m == 2:
        fam_v = [i for i in report.instances if i.family == "V"]
        assert len(fam_v) == n
        for inst in fam_v:
            # x side of a z-product relation has 2(n-2) arrows
            assert f"({2 * (n - 2)} arrows)" in inst.description


def test_relation_v_x_side_length_general():
    BP, match = fan_presentation(4, 3)
    report = dl.verify_theorem_relations(BP, match=match)
    mn, m = 12, 3
    for inst in report.instances:
        if inst.family == "V":
            assert f"({mn - 2 * m} arrows)" in inst.description


def test_relation_texts_fan_3_3(monkeypatch):
    BP, match = fan_presentation(3, 3)
    report = dl.verify_theorem_relations(BP, match=match)
    assert [(i.family, i.k, i.description) for i in report.instances] == [
        ("I", 2, "x_6 y_2 = y_3 z_2"),
        ("III", 2, "x_3 z_2 = y_9 x_1 x_2"),
        ("V", 2, "y_6 y_2 = x_9..x_2 (3 arrows)"),
        ("IV", 3, "x_4 x_5 y_3 = z_2 x_3"),
        ("V", 3, "y_5 y_3 = x_1..x_3 (3 arrows)"),
        ("I", 5, "x_9 y_5 = y_6 z_5"),
        ("III", 5, "x_6 z_5 = y_3 x_4 x_5"),
        ("V", 5, "y_9 y_5 = x_3..x_5 (3 arrows)"),
        ("IV", 6, "x_7 x_8 y_6 = z_5 x_6"),
        ("V", 6, "y_8 y_6 = x_4..x_6 (3 arrows)"),
        ("I", 8, "x_3 y_8 = y_9 z_8"),
        ("III", 8, "x_9 z_8 = y_6 x_7 x_8"),
        ("V", 8, "y_3 y_8 = x_6..x_8 (3 arrows)"),
        ("IV", 9, "x_1 x_2 y_9 = z_8 x_9"),
        ("V", 9, "y_2 y_9 = x_7..x_9 (3 arrows)"),
    ]
    # fan (2, 11): V's long side has m(n - 2) = 18 arrows, and Gamma(2, 11)
    # with its relation table is built once, however many reports use it
    BP, match = fan_presentation(11, 2)
    builds = []
    build_gamma = dl.boundary.build_gamma
    monkeypatch.setattr(dl.boundary, "build_gamma", lambda m, n: builds.append((m, n)) or build_gamma(m, n))
    dl.boundary._gamma_tables.cache_clear()
    reports = [dl.verify_theorem_relations(BP, match=match) for _ in range(2)]
    assert builds == [(2, 11)]
    assert reports[0].to_json() == reports[1].to_json()
    assert [(i.k, i.description) for i in reports[0].instances if i.family == "V"] == [
        (2, "y_4 y_2 = x_7..x_2 (18 arrows)"),
        (4, "y_6 y_4 = x_9..x_4 (18 arrows)"),
        (6, "y_8 y_6 = x_11..x_6 (18 arrows)"),
        (8, "y_10 y_8 = x_13..x_8 (18 arrows)"),
        (10, "y_12 y_10 = x_15..x_10 (18 arrows)"),
        (12, "y_14 y_12 = x_17..x_12 (18 arrows)"),
        (14, "y_16 y_14 = x_19..x_14 (18 arrows)"),
        (16, "y_18 y_16 = x_21..x_16 (18 arrows)"),
        (18, "y_20 y_18 = x_1..x_18 (18 arrows)"),
        (20, "y_22 y_20 = x_3..x_20 (18 arrows)"),
        (22, "y_2 y_22 = x_5..x_22 (18 arrows)"),
    ]


@st.composite
def m_and_triangulation(draw):
    m = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(3, 4 if m == 4 else 7))
    tris = dl.enumerate_triangulations(n)
    return m, tris[draw(st.integers(0, len(tris) - 1))]


@settings(max_examples=20)
@given(m_and_triangulation())
def test_theorem_relations_random_triangulations(case):
    m, T = case
    n = T.n
    BP, match = presentation(n, m, T.sorted_diagonals)
    report = dl.verify_theorem_relations(BP, match=match)
    assert report.passed
    assert Counter(i.family for i in report.instances) == Counter(
        I=n * (m - 2),
        II=n * max(m - 3, 0),
        III=n if m >= 3 else 0,
        IV=n,
        V=n * (m - 1),
    )


@settings(max_examples=25)
@given(st.data())
def test_certificates_replay_on_large_random_triangulations(data):
    # beyond n = 7 and off the fan: the run passes, and every theorem
    # relation's certificate replays from its left side to its right side
    m = data.draw(st.sampled_from([2, 3]))
    T = data.draw(triangulations(max_n=11 if m == 2 else 8, min_n=8))
    assume(not set.intersection(*map(set, T.diagonals)))  # no apex: not a fan
    calls = []

    def recorded(p, q, R, budget=SearchBudget()):
        verdict = paths_equal(p, q, R, budget)
        calls.append((p, q, R, verdict))
        return verdict

    with mock.patch.object(dl.boundary, "paths_equal", recorded):
        outcome = dl.verify_boundary_algebra(T, m)
    assert outcome.passed
    sides = {id(v): (p, q, R) for p, q, R, v in calls}
    for instance in outcome.relations.instances:
        p, q, R = sides[id(instance.verdict)]
        assert replay_certificate(p, instance.verdict.certificate, R) == q


@pytest.mark.parametrize(
    "m, n", [(4, 4), (5, 4), (6, 4), (7, 4), (8, 4), (9, 4), (6, 6), (7, 5), (8, 5), (9, 5)]
)
def test_fans_up_to_m_9_verify(m, n):
    # from fan (9, 4) on, some prefix closures of the extraction pass
    # through words longer than their start by more than two relation
    # sides; the search keeps every word, so they complete, and each fan
    # verifies in well under a second
    outcome = dl.verify_boundary_algebra(dl.fan_triangulation(n, 1), m)
    assert outcome.passed and not outcome.inconclusive


def test_central_element_triangle():
    BP, _ = fan_presentation(3, 2)
    report = dl.verify_central_element(BP)
    assert report.passed
    assert len(report.entries) == 9


def test_central_element_x_generators_share_a_face():
    _, _, Q, R = fan_pipeline(5, 2)
    BP, match = fan_presentation(5, 2)
    from dimerlab.quiver import chordless_cycle_at

    for k in range(1, 11):
        x = match.rep_of(("x", k))
        u_s = chordless_cycle_at(Q, x.source)
        u_t = chordless_cycle_at(Q, x.target)
        v = paths_equal(u_s * x, x * u_t, R)
        assert v.outcome == EQUAL


def test_fan_generator_paths_m2():
    for n in (3, 5, 6):
        _, _, Q, _ = fan_pipeline(n, 2)
        table = dl.fan_generator_paths(Q)
        mn = 2 * n
        # z_4 := y_4 and z_2n := y_2n are single arrows
        assert len(table[("y", 2)]) == 1
        assert len(table[("y", mn - 2)]) == 1
        # z_2k := gamma beta has length two for middle indices
        for h in range(4, mn - 2, 2):
            assert len(table[("y", h)]) == 2
        # z_2 := the full alpha chain
        assert len(table[("y", mn)]) == n - 2
        assert table[("y", mn)].source == 2 and table[("y", mn)].target == mn


def test_fan_generator_paths_general_degenerates():
    _, _, Q, _ = fan_pipeline(4, 5)
    table = dl.fan_generator_paths(Q)
    m, n = 5, 4
    # y at m(n-2)+m = m(n-1) is a single arrow
    assert len(table[("y", m * (n - 1))]) == 1
    # y_m is a single arrow m+2 -> m
    assert len(table[("y", m)]) == 1
    assert table[("y", m)].source == m + 2
    # z paths all have one internal stopover
    for (fam, h), p in table.items():
        if fam == "z":
            assert len(p) == 2


def test_fan_generator_paths_rejects_non_fan():
    T = dl.Triangulation(4, [(2, 4)])
    _, _, Q, _ = pipeline(4, 2, T.sorted_diagonals)
    with pytest.raises(FormulaMismatchError):
        dl.fan_generator_paths(Q)


@pytest.mark.parametrize("m,n", [(2, 6), (3, 4), (5, 4)])
def test_fan_formulas_equal_extracted_classes(m, n):
    BP, match = fan_presentation(n, m)
    rep = dl.check_fan_formulas(BP, match=match)
    assert rep.passed, rep.failures()


def test_fan_formulas_report_unknown_as_inconclusive(monkeypatch):
    BP, match = fan_presentation(4, 3)
    monkeypatch.setattr(
        "dimerlab.boundary.paths_equal", lambda *args: EqualityVerdict(UNKNOWN)
    )
    rep = dl.check_fan_formulas(BP, match=match)
    assert rep.unknowns()
    assert not rep.failures()
    assert not rep.passed


def test_fan_formulas_need_every_gamma_arrow_matched():
    BP, match = fan_presentation(4, 3)
    partial = dict(match.assignment)
    del partial[("y", 2)]
    with pytest.raises(BoundaryError):
        dl.check_fan_formulas(BP, match=GammaMatch(ok=True, assignment=partial))


def test_flip_transport_m2_pentagon():
    cert = dl.verify_flip_transport(dl.fan_triangulation(5, 1), (1, 3), 2)
    assert cert.ok
    assert cert.matched_before and cert.matched_after
    affected_y = {k for k in cert.affected if k[2] == "y"}
    # flipping (1, j) with j=3 touches exactly the four z-type generators at
    # positions {1, j-1, j, j+1}; the fifth keeps its representative
    assert affected_y == {(2, 10, "y"), (4, 2, "y"), (6, 4, "y"), (8, 6, "y")}
    assert cert.unaffected_identical
    assert cert.relations_after.passed


def test_flip_transport_affected_reps_are_valid_paths():
    cert = dl.verify_flip_transport(dl.fan_triangulation(5, 1), (1, 4), 2)
    assert cert.ok
    for (src, tgt, _), entry in cert.affected.items():
        assert entry["new"] == entry["delta_prefix"] + entry["core"] + entry["delta_suffix"]


def test_flip_transport_reuse_is_never_stale():
    # each side's extraction is reused only under the budget it ran with:
    # the before-side T2 below was extracted last, under the default
    # budget, and a starved call must not see it
    T, m = dl.fan_triangulation(6, 1), 3
    T2, move = dl.flip(T, (1, 4))
    starved = SearchBudget(max_visited=3)
    _extract.cache_clear()
    expected = dl.verify_flip_transport(T2, move.inserted, m, starved).to_json()
    assert expected["inconclusive"] and not expected["ok"]
    assert dl.verify_flip_transport(T, (1, 4), m).ok
    assert dl.verify_flip_transport(T2, move.inserted, m, starved).to_json() == expected


def test_flip_transport_certificates_match_without_reuse():
    src = dl.fan_triangulation(7, 1)
    cur = src
    for move in dl.flip_sequence(src, dl.fan_triangulation(7, 4)):
        reused = dl.verify_flip_transport(cur, move.removed, 2).to_json()
        _extract.cache_clear()
        assert reused == dl.verify_flip_transport(cur, move.removed, 2).to_json()
        cur, _ = dl.flip(cur, move.removed)


def test_the_pipeline_never_builds_the_relation_lattice(monkeypatch):
    # paths_equal decides the residue test by the sum of the face chain, so
    # neither a full verification nor a flip move computes a residue, the
    # library's one invariant of the relation lattice
    calls = []
    residue = RelationSet.residue

    def spy(self, arrows):
        calls.append(arrows)
        return residue(self, arrows)

    monkeypatch.setattr(RelationSet, "residue", spy)
    _extract.cache_clear()
    T = dl.fan_triangulation(6, 1)
    assert dl.verify_boundary_algebra(T, 4).passed
    assert dl.verify_flip_transport(T, T.sorted_diagonals[0], 4).ok
    _extract.cache_clear()
    assert calls == []


def test_double_flip_restores_presentation():
    T = dl.fan_triangulation(5, 1)
    T2, mv = dl.flip(T, (1, 3))
    T3, _ = dl.flip(T2, mv.inserted)
    assert T3.key() == T.key()
    BP1, _ = presentation(5, 2, T.sorted_diagonals)
    BP3, _ = presentation(5, 2, T3.sorted_diagonals)
    assert [
        (c.source, c.target, c.tag, c.rep.arrows) for c in BP1.classes
    ] == [(c.source, c.target, c.tag, c.rep.arrows) for c in BP3.classes]


@pytest.mark.parametrize("m, n", [(3, 8), (4, 5), (4, 6), (5, 4)])
def test_fan_outputs_match_the_benchmark_reference(m, n):
    # the report bytes of the benchmark's fans, against the digests the
    # benchmark checks (perfbench/reference.json, under the default budget)
    with open(REFERENCE) as f:
        reference = json.load(f)
    assert reference["budget_visited"] == DEFAULT_MAX_VISITED
    out = dl.verify_boundary_algebra(dl.fan_triangulation(n, 1), m)
    data = json.dumps(out.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == reference["fan-extract"][f"{m},{n}"]


def test_flip_walk_outputs_match_the_benchmark_reference():
    # one walk from each flip-walk pool (the first at n = 11 and the
    # cheapest at n = 8), replayed as the benchmark walks it, against its
    # digest of the certificate list
    with open(REFERENCE) as f:
        reference = json.load(f)
    assert reference["budget_visited"] == DEFAULT_MAX_VISITED
    walks = reference["flip-walk"]
    large = next(w for w in walks if w["n"] == 11)
    small = min((w for w in walks if w["n"] == 8), key=lambda w: w["residue_calls"])
    for w in (large, small):
        fan = dl.fan_triangulation(w["n"], 1)
        target = dl.Triangulation(w["n"], [tuple(d) for d in w["diagonals"]])
        certs, cur = [], fan
        for move in dl.flip_sequence(fan, target):
            certs.append(dl.verify_flip_transport(cur, move.removed, w["m"]).to_json())
            cur, _ = dl.flip(cur, move.removed)
        assert cur.key() == target.key() and len(certs) == w["moves"]
        data = json.dumps(certs, sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == w["sha256"]


def test_verify_boundary_algebra_outcome_json():
    out = dl.verify_boundary_algebra(dl.fan_triangulation(4, 1), 2)
    data = out.to_json()
    assert data["passed"] and data["matched"]
    assert data["generators"] == 12
