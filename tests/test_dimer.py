import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimerlab as dl
from dimerlab.dimer import (
    LOC_BOUNDARY,
    LOC_DIAGONAL,
    LOC_INTERIOR,
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
    assert len([b for b in D.blacks() if D.nodes[b].location == LOC_INTERIOR]) == 6


def test_triangle_m2_counts():
    D = dl.build_dimer(dl.Triangulation(3, []), 2)
    assert len(D.whites()) == 3
    assert len(D.blacks()) == 7
    # six boundary midpoints plus one downward black
    assert len(D.blacks(LOC_BOUNDARY)) == 6
    assert len([b for b in D.blacks() if D.nodes[b].location == LOC_INTERIOR]) == 1


def test_pentagon_fan_m2_whites():
    D = dl.build_dimer(dl.fan_triangulation(5, 1), 2)
    assert len(D.whites()) == 9  # three per triangle


def test_segment_black_counts():
    for n, m in [(4, 2), (5, 3), (6, 2)]:
        D = dl.build_dimer(dl.fan_triangulation(n, 1), m)
        per_edge = {}
        for b in D.blacks():
            if D.nodes[b].location != LOC_INTERIOR:
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
    D.nodes = {k: v for k, v in D.nodes.items() if k != victim}
    D.rotation = {
        k: tuple(x for x in v if x != victim)
        for k, v in D.rotation.items()
        if k != victim
    }
    D.edge_tags = {e: t for e, t in D.edge_tags.items() if victim not in e}
    rep = dl.validate_dimer(D)
    assert not rep.passed
    assert any(name == "segment-counts" for name, _ in rep.failures())


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
    assert all(D.nodes[b].location == LOC_DIAGONAL for b in contractible)
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
            assert len(graph.nodes) - len(graph.edge_tags) + len(faces) == 2


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
    import json

    _, D, _, _ = fan_pipeline(5, 3)
    D2 = dl.GLmDimer.from_json(json.loads(json.dumps(D.to_json())))
    assert D2.canonical_form() == D.canonical_form()


def test_nonfan_reduction_valid():
    for T in dl.enumerate_triangulations(6):
        R = dl.reduce_dimer(dl.build_dimer(T, 2))
        rep = dl.validate_dimer(R)
        assert rep.passed, (T, rep.failures())
