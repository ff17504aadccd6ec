import hashlib
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
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
    factors_through_boundary,
    gamma_tail,
    modl,
)
from dimerlab.rewrite import (
    ENV_BUDGET_VISITED,
    EQUAL,
    UNKNOWN,
    EqualityVerdict,
    SearchBudget,
    paths_equal,
)

from helpers import fan_pipeline, fan_presentation, pipeline, presentation

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
    BP, _ = fan_presentation(5, 2)
    with pytest.raises(IncompatibleGammaError):
        dl.match_gamma(BP, dl.build_gamma(2, 6))


def test_match_uses_the_boundary_labels_as_they_are():
    # shifting every label by 3 (not a symmetry of Gamma(2, 5), which only
    # has the even rotations) must not match
    BP, match = fan_presentation(5, 2)
    assert match.ok
    mn = 10
    shift = 3
    shifted = BoundaryPresentation(
        quiver=BP.quiver,
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
    match2 = dl.match_gamma(shifted, dl.build_gamma(2, 5))
    assert not match2.ok and match2.assignment is None
    assert "Gamma(2,5)" in match2.obstruction


def test_presentation_budget_exhaustion_is_inconclusive(monkeypatch):
    _, _, Q, R = fan_pipeline(5, 2)
    with pytest.raises(InconclusivePresentationError) as info:
        # a length cap of 1 prunes every rewrite, so composite classes can
        # never exhibit their boundary-crossing form
        dl.boundary_generators(Q, R, SearchBudget(max_path_length=1, max_visited=10))
    assert "is a generator" in str(info.value)
    assert "budget (max_path_length=1, max_visited=10)" in str(info.value)

    # a starved grouping query: the error names the two paths compared,
    # the query's budget and how many states it visited
    queries = []

    def recorded(p, q, R, budget=None):
        verdict = paths_equal(p, q, R, budget)
        queries.append((p, q, verdict))
        return verdict

    monkeypatch.setattr(dl.boundary, "paths_equal", recorded)
    _, _, Q, R = fan_pipeline(6, 3)
    with pytest.raises(InconclusivePresentationError) as info:
        dl.boundary_generators(Q, R, SearchBudget(max_visited=3))
    p, q, verdict = queries[-1]
    assert verdict.outcome == UNKNOWN
    assert str(info.value) == (
        f"cannot decide {p.arrows} vs {q.arrows} within budget "
        f"(max_path_length={verdict.budget.max_path_length}, max_visited=3) "
        f"(visited {verdict.visited})"
    )
    assert 0 < verdict.visited <= 3


def test_generator_minimality_m2():
    # exhaustive at m=2, n <= 5: no generator is a composition of two others,
    # and no path equal to a generator ever crosses a boundary vertex
    for n in (3, 4, 5):
        _, _, Q, R = fan_pipeline(n, 2)
        BP, match = fan_presentation(n, 2)
        assert match.ok
        for c in BP.classes:
            assert factors_through_boundary(c.rep, R) == "generator"
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
    _, _, Q, R = fan_pipeline(n, m)
    BP, match = fan_presentation(n, m)
    report = dl.verify_theorem_relations(BP, R, match=match)
    assert report.passed
    assert not report.unknowns()
    if m == 2:
        fam_v = [i for i in report.instances if i.family == "V"]
        assert len(fam_v) == n
        for inst in fam_v:
            # x side of a z-product relation has 2(n-2) arrows
            assert f"({2 * (n - 2)} arrows)" in inst.description


def test_relation_v_x_side_length_general():
    _, _, Q, R = fan_pipeline(4, 3)
    BP, match = fan_presentation(4, 3)
    report = dl.verify_theorem_relations(BP, R, match=match)
    mn, m = 12, 3
    for inst in report.instances:
        if inst.family == "V":
            assert f"({mn - 2 * m} arrows)" in inst.description


def test_relation_texts_fan_3_3():
    _, _, Q, R = fan_pipeline(3, 3)
    BP, match = fan_presentation(3, 3)
    report = dl.verify_theorem_relations(BP, R, match=match)
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
    _, _, Q, R = pipeline(n, m, T.sorted_diagonals)
    BP, match = presentation(n, m, T.sorted_diagonals)
    report = dl.verify_theorem_relations(BP, R, match=match)
    assert report.passed
    assert Counter(i.family for i in report.instances) == Counter(
        I=n * (m - 2),
        II=n * max(m - 3, 0),
        III=n if m >= 3 else 0,
        IV=n,
        V=n * (m - 1),
    )


def test_central_element_triangle():
    _, _, Q, R = fan_pipeline(3, 2)
    BP, _ = fan_presentation(3, 2)
    report = dl.verify_central_element(BP, R)
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
        table = dl.fan_generator_paths(2, n, Q)
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
    table = dl.fan_generator_paths(5, 4, Q)
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
        dl.fan_generator_paths(2, 4, Q)


@pytest.mark.parametrize("m,n", [(2, 6), (3, 4), (5, 4)])
def test_fan_formulas_equal_extracted_classes(m, n):
    _, _, Q, R = fan_pipeline(n, m)
    BP, match = fan_presentation(n, m)
    rep = dl.check_fan_formulas(BP, R, match=match)
    assert rep.passed, rep.failures()


def test_fan_formulas_report_unknown_as_inconclusive(monkeypatch):
    _, _, Q, R = fan_pipeline(4, 3)
    BP, match = fan_presentation(4, 3)
    monkeypatch.setattr(
        "dimerlab.boundary.paths_equal", lambda *args: EqualityVerdict(UNKNOWN)
    )
    rep = dl.check_fan_formulas(BP, R, match=match)
    assert rep.unknowns()
    assert not rep.failures()
    assert not rep.passed


def test_fan_formulas_need_every_gamma_arrow_matched():
    _, _, Q, R = fan_pipeline(4, 3)
    BP, match = fan_presentation(4, 3)
    partial = dict(match.assignment)
    del partial[("y", 2)]
    with pytest.raises(BoundaryError):
        dl.check_fan_formulas(BP, R, match=GammaMatch(ok=True, assignment=partial))


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
def test_fan_outputs_match_the_benchmark_reference(m, n, monkeypatch):
    # the report bytes of the benchmark's fans, against the digests the
    # benchmark checks (perfbench/reference.json, under its pinned budget)
    with open(REFERENCE) as f:
        reference = json.load(f)
    monkeypatch.setenv(ENV_BUDGET_VISITED, str(reference["budget_visited"]))
    out = dl.verify_boundary_algebra(dl.fan_triangulation(n, 1), m)
    data = json.dumps(out.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == reference["fan-extract"][f"{m},{n}"]


def test_verify_boundary_algebra_outcome_json():
    out = dl.verify_boundary_algebra(dl.fan_triangulation(4, 1), 2)
    data = out.to_json()
    assert data["passed"] and data["matched"]
    assert data["generators"] == 12
