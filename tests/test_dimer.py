import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimerlab as dl
from dimerlab.dimer import (
    LOC_BOUNDARY,
    LOC_DIAGONAL,
    LOC_INTERIOR,
    DimerError,
    UnsupportedOrderError,
    trace_faces,
)

from helpers import fan_pipeline, triangulations


def test_m_below_two_rejected():
    with pytest.raises(UnsupportedOrderError):
        dl.build_dimer(dl.Triangulation(3, []), 1)


def test_triangle_m4_counts():
    D = dl.build_dimer(dl.Triangulation(3, []), 4)
    assert len(D.whites()) == 10
    assert len([b for b in D.blacks() if D.location(b) == LOC_INTERIOR]) == 6


def test_triangle_m2_counts():
    D = dl.build_dimer(dl.Triangulation(3, []), 2)
    assert len(D.whites()) == 3
    assert len(D.blacks()) == 7
    # six boundary midpoints plus one downward black
    assert len(D.blacks(LOC_BOUNDARY)) == 6
    assert len([b for b in D.blacks() if D.location(b) == LOC_INTERIOR]) == 1


def test_pentagon_fan_m2_whites():
    D = dl.build_dimer(dl.fan_triangulation(5, 1), 2)
    assert len(D.whites()) == 9  # three per triangle


def test_segment_black_counts():
    for n, m in [(4, 2), (5, 3), (6, 2)]:
        D = dl.build_dimer(dl.fan_triangulation(n, 1), m)
        per_edge = {}
        for b in D.blacks():
            if D.location(b) != LOC_INTERIOR:
                per_edge.setdefault(b[1], 0)
                per_edge[b[1]] += 1
        assert all(c == m for c in per_edge.values())
        assert len(per_edge) == n + (n - 3)


def test_validate_passes_on_all_builds():
    for n, m in [(3, 2), (4, 5), (6, 3), (8, 2)]:
        D = dl.build_dimer(dl.fan_triangulation(n, 1), m)
        rep = dl.validate_dimer(D)
        assert rep.passed, rep.failures()


def test_validate_names_bipartiteness_failure():
    D = dl.build_dimer(dl.Triangulation(3, []), 2)
    w1, w2 = D.whites()[:2]
    D.rotation = dict(D.rotation)
    D.rotation[w1] = D.rotation[w1] + (w2,)
    D.rotation[w2] = D.rotation[w2] + (w1,)
    D.edge_tags = dict(D.edge_tags)
    D.edge_tags[frozenset((w1, w2))] = (("x",), (0, 0, 0), 0)
    rep = dl.validate_dimer(D)
    assert not rep.passed
    assert any(name == "bipartite" for name, _ in rep.failures())


def test_validate_names_segment_count_failure():
    D = dl.build_dimer(dl.fan_triangulation(4, 1), 3)
    # drop one diagonal black: count m-1 on that diagonal must be flagged
    victim = D.blacks(LOC_DIAGONAL)[0]
    (w1, w2) = D.rotation[victim]
    D.rotation = {
        k: tuple(x for x in v if x != victim)
        for k, v in D.rotation.items()
        if k != victim
    }
    D.edge_tags = {e: t for e, t in D.edge_tags.items() if victim not in e}
    rep = dl.validate_dimer(D)
    assert not rep.passed
    assert any(name == "segment-counts" for name, _ in rep.failures())


def test_connected_counts_only_nodes():
    # delete a white's rotation entry: its neighbours still list it, but it
    # is no node, and the boundary black it alone reached is cut off
    D = dl.build_dimer(dl.fan_triangulation(4), 2)
    white = ("w", (1, 2, 3), (0, 0, 1))
    D.rotation = {v: r for v, r in D.rotation.items() if v != white}
    failures = dict(dl.validate_dimer(D).failures())
    assert failures["connected"] == "reached 16 of 17 nodes"


def test_reduce_idempotent():
    for n, m in [(5, 2), (4, 3)]:
        D = dl.build_dimer(dl.fan_triangulation(n, 1), m)
        R1 = dl.reduce_dimer(D)
        R2 = dl.reduce_dimer(R1)
        assert R2.canonical_form() == R1.canonical_form()
        assert R1.is_reduced()


def test_triangle_m2_is_reduction_fixed_point():
    # its single interior black has degree 3, so nothing contracts
    D = dl.build_dimer(dl.Triangulation(3, []), 2)
    assert all(D.degree(b) == 3 for b in D.internal_blacks())
    assert dl.reduce_dimer(D).canonical_form() == D.canonical_form()


def test_pentagon_reduction_contracts_diagonal_blacks():
    D = dl.build_dimer(dl.fan_triangulation(5, 1), 2)
    contractible = D.contractible_blacks()
    # two blacks per diagonal, two diagonals
    assert len(contractible) == 4
    assert all(D.location(b) == LOC_DIAGONAL for b in contractible)
    R = dl.reduce_dimer(D)
    assert len(R.whites()) == 5
    assert dl.validate_dimer(R).passed


def test_reduction_preserves_boundary_and_euler():
    for n, m in [(5, 2), (6, 3), (4, 5)]:
        D = dl.build_dimer(dl.fan_triangulation(n, 1), m)
        R = dl.reduce_dimer(D)
        assert R.boundary == D.boundary
        for graph in (D, R):
            faces = trace_faces(graph.rotation)
            assert len(graph.rotation) - len(graph.edge_tags) + len(faces) == 2


def test_reduction_confluence_random_orders():
    rng = random.Random(11)
    for n, m in [(5, 2), (6, 2), (4, 3), (5, 3)]:
        D = dl.build_dimer(dl.fan_triangulation(n, 1), m)
        reference = dl.reduce_dimer(D).canonical_form()
        for _ in range(20):
            order = D.contractible_blacks()
            rng.shuffle(order)
            got = dl.reduce_dimer(D, order=order)
            assert got.canonical_form() == reference


@settings(max_examples=40)
@given(triangulations(9), st.integers(2, 4), st.data())
def test_reduction_confluence_random_triangulations(T, m, data):
    D = dl.build_dimer(T, m)
    order = data.draw(st.permutations(D.contractible_blacks()))
    assert dl.reduce_dimer(D, order=order).canonical_form() == dl.reduce_dimer(D).canonical_form()


def test_json_round_trip():
    _, D, _, _ = fan_pipeline(5, 3)
    D2 = dl.GLmDimer.from_json(json.loads(json.dumps(D.to_json())))
    assert D2.canonical_form() == D.canonical_form()


@settings(max_examples=30, deadline=None)
@given(triangulations(8), st.integers(2, 4), st.booleans())
def test_json_round_trip_random_triangulations(T, m, reduced):
    D = dl.build_dimer(T, m)
    if reduced:
        D = dl.reduce_dimer(D)
    text = json.dumps(D.to_json(), sort_keys=True)
    D2 = dl.GLmDimer.from_json(json.loads(text))
    assert json.dumps(D2.to_json(), sort_keys=True) == text
    assert D2.canonical_form() == D.canonical_form()
    # only the whites that reduction merged carry a host of their own
    assert D2 == D
    assert all(D.color(w) == "white" and len(h) > 1 for w, h in D.hosts.items())
    assert bool(D.hosts) == (reduced and bool(T.diagonals))


def test_node_facts_are_read_off_the_id():
    D = dl.build_dimer(dl.fan_triangulation(4, 1), 2)
    assert D.color(("w", (1, 2, 3), (1, 0, 0))) == "white"
    assert D.color(("d", (1, 2, 3), (0, 0, 0))) == D.color(("b", (1, 3), 0)) == "black"
    assert D.location(("b", (1, 2), 0)) == D.location(("b", (1, 4), 1)) == LOC_BOUNDARY
    assert D.location(("b", (1, 3), 0)) == LOC_DIAGONAL
    assert D.location(("d", (1, 2, 3), (0, 0, 0))) == LOC_INTERIOR
    assert D.host(("b", (1, 3), 1)) == (((1, 3), 1),)
    R = dl.reduce_dimer(D)
    merged = ("w", (1, 2, 3), (0, 0, 1))
    assert R.host(merged) == (((1, 2, 3), (0, 0, 1)), ((1, 3, 4), (0, 1, 0)))
    assert set(R.hosts) == {merged, ("w", (1, 2, 3), (1, 0, 0))}


def fan_4_2_json():
    # unreduced, so that the diagonal blacks are still there
    return dl.build_dimer(dl.fan_triangulation(4, 1), 2).to_json()


def record(data, vid):
    (rec,) = [r for r in data["nodes"] if r["id"] == vid]
    return rec


def test_from_json_rejects_nodes_that_are_not_the_rotations():
    data = fan_4_2_json()
    data["nodes"] = data["nodes"][1:]
    with pytest.raises(DimerError, match="the listed nodes are not the rotation's nodes"):
        dl.GLmDimer.from_json(data)


@pytest.mark.parametrize(
    "vid, field, value",
    [
        (["w", [1, 2, 3], [1, 0, 0]], "color", "black"),
        (["b", [1, 3], 0], "location", LOC_BOUNDARY),
        (["b", [1, 2], 0], "location", LOC_DIAGONAL),
        (["d", [1, 2, 3], [0, 0, 0]], "location", LOC_DIAGONAL),
    ],
)
def test_from_json_rejects_a_colour_or_location_its_id_does_not_give(vid, field, value):
    data = fan_4_2_json()
    record(data, vid)[field] = value
    with pytest.raises(DimerError, match="its id gives"):
        dl.GLmDimer.from_json(data)


def test_from_json_rejects_a_black_host_its_id_does_not_give():
    data = fan_4_2_json()
    record(data, ["b", [1, 2], 0])["host"] = [[[1, 2], 1]]
    with pytest.raises(DimerError, match=r"black \('b', \(1, 2\), 0\) has host"):
        dl.GLmDimer.from_json(data)


def test_from_json_rejects_a_boundary_that_is_not_the_polygons():
    data = fan_4_2_json()
    data["boundary"] = data["boundary"][1:] + data["boundary"][:1]
    with pytest.raises(DimerError, match=r"not that of \(n, m\) = \(4, 2\)"):
        dl.GLmDimer.from_json(data)


def test_unreduced_construction_output_is_pinned():
    # the unreduced dimer over the grid of test_construction_output_is_pinned
    grid = [(2, n) for n in range(3, 9)] + [(3, n) for n in range(3, 8)]
    grid += [(4, n) for n in range(3, 7)]
    digest = hashlib.sha256()
    for m, n in grid:
        for T in dl.enumerate_triangulations(n):
            digest.update(json.dumps(dl.build_dimer(T, m).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == "daf528d576e849844a27c88fc11b8c0dcf86eb518487373ce0b9ac1644b54096"


def test_nonfan_reduction_valid():
    for T in dl.enumerate_triangulations(6):
        R = dl.reduce_dimer(dl.build_dimer(T, 2))
        rep = dl.validate_dimer(R)
        assert rep.passed, (T, rep.failures())
