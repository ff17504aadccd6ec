import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimerlab as dl
from dimerlab.dimer import AsymmetricRotationError, DimerError
from dimerlab.quiver import (
    Arrow,
    Face,
    MalformedQuiverError,
    MustReduceFirstError,
    NoCycleError,
    QuiverError,
    QuiverWithFaces,
    chordless_cycle_at,
    chordless_cycles,
)

from helpers import chordless_cycle_reference, fan_pipeline, pipeline, triangulations


def endpoints(Q, path):
    return tuple((Q.arrow_source[a], Q.arrow_target[a]) for a in path.arrows)


# quiver of the GL_2-dimer of a triangle, entered by hand from its picture:
# six rim vertices, the rim cycle, and an inner clockwise 3-cycle
FIG4_ARROWS = {
    "x1": (6, 1),
    "x2": (1, 2),
    "x3": (2, 3),
    "x4": (3, 4),
    "x5": (4, 5),
    "x6": (5, 6),
    "a": (4, 2),
    "b": (2, 6),
    "c": (6, 4),
}
FIG4_FACES = [
    ("+", ("x3", "x4", "a")),
    ("+", ("x5", "x6", "c")),
    ("+", ("x1", "x2", "b")),
    ("-", ("a", "b", "c")),
]


def fig4_relations_oracle():
    """Cyclic derivatives computed straight from the hand-entered faces."""
    mult = {}
    for _, cyc in FIG4_FACES:
        for name in cyc:
            mult[name] = mult.get(name, 0) + 1
    rels = []
    for alpha in sorted(n for n, c in mult.items() if c == 2):
        sides = []
        for _, cyc in FIG4_FACES:
            if alpha in cyc:
                k = cyc.index(alpha)
                rest = cyc[k + 1 :] + cyc[:k]
                sides.append(tuple(FIG4_ARROWS[x] for x in rest))
        assert len(sides) == 2
        rels.append((sides[0], sides[1]))
    return rels


def test_p2_values():
    assert all(dl.p2(4, m - 1) == (m - 1) ** 2 for m in range(2, 8))
    assert all(dl.p2(n, 1) == n - 3 for n in range(3, 12))
    assert dl.p2(6, 3) == 21


def test_triangle_quiver_counts():
    _, _, Q, _ = fan_pipeline(3, 2)
    assert len(Q.boundary_vertices) == 6
    assert len(Q.internal_vertices) == 0
    assert len(Q.arrows) == 9
    plus = [f for f in Q.faces if f.orientation == "+"]
    minus = [f for f in Q.faces if f.orientation == "-"]
    assert (len(plus), len(minus)) == (3, 1)
    assert {(a.source, a.target) for a in Q.arrows} == set(FIG4_ARROWS.values())


def test_triangle_relations_match_hand_computed_derivatives():
    _, _, Q, R = fan_pipeline(3, 2)
    got = {
        (endpoints(Q, lhs), endpoints(Q, rhs)) for lhs, rhs in R.relations
    }
    want = set(fig4_relations_oracle())
    # sides of one relation may come out swapped only if orientations differ
    assert got == want


def test_triangle_relation_at_4_to_2():
    _, _, Q, R = fan_pipeline(3, 2)
    by_sides = {
        frozenset((endpoints(Q, l), endpoints(Q, r))) for l, r in R.relations
    }
    assert frozenset((((2, 3), (3, 4)), ((2, 6), (6, 4)))) in by_sides
    assert len(R) == 3


def test_fan8_m2_counts():
    _, _, Q, _ = fan_pipeline(8, 2)
    assert len(Q.boundary_vertices) == 16
    assert len(Q.internal_vertices) == 5
    between = Q.arrows_between_boundary()
    assert len(between) == 2 * 8 + 2
    assert len(Q.arrows) - len(between) == 16
    assert [Q.arrow_kind(aid) for aid in range(len(Q.arrows))].count("boundary") == 16
    assert len(Q.faces) == 2 * 8 - 2


def test_fan4_m5_counts():
    _, _, Q, _ = fan_pipeline(4, 5)
    assert len(Q.boundary_vertices) == 20
    assert len(Q.internal_vertices) == 16


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_internal_vertex_count_is_triangulation_independent(m, n):
    want = dl.p2(n, m - 1)
    for T in dl.enumerate_triangulations(n):
        _, _, Q, _ = pipeline(n, m, T.sorted_diagonals)
        assert len(Q.internal_vertices) == want


def test_face_count_m2():
    for n in range(3, 8):
        _, _, Q, _ = fan_pipeline(n, 2)
        assert len(Q.faces) == 2 * n - 2


def test_face_duals():
    _, D, Q, _ = fan_pipeline(5, 2)
    for f in Q.faces:
        color = D.color(f.dual)
        assert (f.orientation == "+") == (color == "white")
    boundary_black_edges = {
        e for e in D.edge_tags if any(D.location(v) == "boundary-edge-segment" for v in e)
    }
    boundary_arrows = [aid for aid in range(len(Q.arrows)) if Q.arrow_kind(aid) == "boundary"]
    assert len(boundary_arrows) == len(boundary_black_edges)


def test_dual_quiver_requires_reduced():
    D = dl.build_dimer(dl.fan_triangulation(5, 1), 2)
    with pytest.raises(MustReduceFirstError):
        dl.dual_quiver(D)


# Each construction check of dual_quiver, reached by corrupting the reduced
# dimer of fan (4, 2) by hand.  Two checks are not reached this way: a
# boundary arc traced into the outer face needs a repeated boundary black,
# whose overwritten rotation makes face tracing fail first (with an
# AsymmetricRotationError), and labels that do not cover 1..m*n need two
# boundary arcs on one face, whose lattice points disagree first.

FAN_4_2_DOWN = ("d", (1, 2, 3), (0, 0, 0))  # its rotation is three whites


def corrupted_fan_4_2(**fields):
    _, D, _, _ = fan_pipeline(4, 2)
    return dataclasses.replace(D, **fields)


SWAPPED_TAGS_TEXT = (
    "face 6 has inconsistent lattice points [('C', 3), ('L', (1, 3), 1), ('L', (2, 3), 1)]"
)

# the tag swap below, as a script that prints dual_quiver's error text
SWAPPED_TAGS_SCRIPT = """
import dataclasses
import dimerlab as dl
D = dl.reduce_dimer(dl.build_dimer(dl.fan_triangulation(4, 1), 2))
tags = dict(D.edge_tags)
first, second = sorted(tags, key=tags.get)[:2]
tags[first], tags[second] = tags[second], tags[first]
try:
    dl.dual_quiver(dataclasses.replace(D, edge_tags=tags))
except dl.quiver.QuiverError as exc:
    print(exc)
"""


def test_dual_quiver_rejects_a_face_with_two_lattice_points():
    _, D, _, _ = fan_pipeline(4, 2)
    tags = dict(D.edge_tags)
    first, second = sorted(tags, key=tags.get)[:2]
    tags[first], tags[second] = tags[second], tags[first]
    with pytest.raises(QuiverError) as exc:
        dl.dual_quiver(corrupted_fan_4_2(edge_tags=tags))
    assert str(exc.value) == SWAPPED_TAGS_TEXT


def test_lattice_point_error_text_does_not_follow_the_hash_seed():
    # the points are a set of tuples of strings, whose order follows the
    # string hash seed; the text lists them sorted
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    texts = []
    for seed in ("1", "3"):  # seeds under which the set prints in two orders
        proc = subprocess.run(
            [sys.executable, "-c", SWAPPED_TAGS_SCRIPT],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(proc.stdout)
    assert texts == [SWAPPED_TAGS_TEXT + "\n"] * 2


class RotatedBoundary(dl.GLmDimer):
    """A dimer whose boundary sequence starts one black late."""

    @property
    def boundary(self):
        blacks = super().boundary
        return blacks[1:] + blacks[:1]


def test_dual_quiver_rejects_a_boundary_face_at_the_wrong_point():
    _, D, _, _ = fan_pipeline(4, 2)
    rotated = RotatedBoundary(D.m, D.triangulation, D.rotation, D.edge_tags, D.hosts)
    with pytest.raises(QuiverError) as exc:
        dl.dual_quiver(rotated)
    assert str(exc.value) == "boundary face 1 sits at unexpected point ('L', (1, 2), 1)"


def test_dual_quiver_rejects_a_face_that_does_not_chain():
    _, D, _, _ = fan_pipeline(4, 2)
    rotation = dict(D.rotation)
    rotation[FAN_4_2_DOWN] = (rotation[FAN_4_2_DOWN][2], *rotation[FAN_4_2_DOWN])
    with pytest.raises(QuiverError) as exc:
        dl.dual_quiver(corrupted_fan_4_2(rotation=rotation))
    assert str(exc.value) == (
        "face Face(cycle=(1, 3, 5, 1), dual=('d', (1, 2, 3), (0, 0, 0))) "
        "does not chain at arrow 1"
    )


def test_dual_quiver_rejects_a_rotation_that_does_not_close_up():
    _, D, _, _ = fan_pipeline(4, 2)
    rotation = dict(D.rotation)
    rotation[FAN_4_2_DOWN] = (rotation[FAN_4_2_DOWN][0], *rotation[FAN_4_2_DOWN])
    with pytest.raises(DimerError) as exc:
        dl.dual_quiver(corrupted_fan_4_2(rotation=rotation))
    assert str(exc.value) == "rotation system does not close up into faces"


def test_dual_quiver_names_the_nodes_of_an_asymmetric_rotation():
    # drop the down black from its first white's rotation: the black still
    # lists the white
    _, D, _, _ = fan_pipeline(4, 2)
    rotation = dict(D.rotation)
    white = rotation[FAN_4_2_DOWN][0]
    rotation[white] = tuple(b for b in rotation[white] if b != FAN_4_2_DOWN)
    with pytest.raises(AsymmetricRotationError) as exc:
        dl.dual_quiver(corrupted_fan_4_2(rotation=rotation))
    assert str(exc.value) == (
        "rotation is not symmetric: ('d', (1, 2, 3), (0, 0, 0)) lists ('w', (1, 2, 3), (1, 0, 0)), "
        "but ('w', (1, 2, 3), (1, 0, 0)) does not list ('d', (1, 2, 3), (0, 0, 0))"
    )


def test_dual_quiver_names_a_boundary_black_without_its_white():
    # empty a boundary black's rotation: its white still lists it
    _, D, _, _ = fan_pipeline(4, 2)
    black = D.boundary[0]
    broken = corrupted_fan_4_2(rotation={**D.rotation, black: ()})
    with pytest.raises(DimerError) as exc:
        dl.dual_quiver(broken)
    assert str(exc.value) == "boundary black ('b', (1, 2), 0) has rotation (), not one white"
    failures = dict(dl.validate_dimer(broken).failures())
    assert failures["boundary-sequence"] == "bad boundary entries: [('b', (1, 2), 0)]"
    assert "rotation-symmetric" in failures


def test_dual_quiver_names_a_white_without_a_rotation():
    # delete a white's rotation: its blacks still list it
    _, D, _, _ = fan_pipeline(4, 2)
    white = D.rotation[FAN_4_2_DOWN][0]
    broken = corrupted_fan_4_2(
        rotation={v: r for v, r in D.rotation.items() if v != white}
    )
    with pytest.raises(AsymmetricRotationError) as exc:
        dl.dual_quiver(broken)
    assert (exc.value.v, exc.value.w) == (FAN_4_2_DOWN, white)
    failures = dict(dl.validate_dimer(broken).failures())
    assert repr(FAN_4_2_DOWN) in failures["rotation-symmetric"]
    # the white is no longer a node, and the search steps onto nodes only:
    # the boundary black whose one neighbour it was is not reached
    assert failures["connected"] == "reached 11 of 13 nodes"


def test_construction_output_is_pinned():
    # the reduced dimer, the quiver and the relation sides with their face
    # pairs of every triangulation for m = 2 with n <= 8, m = 3 with n <= 7
    # and m = 4 with n <= 6, hashed in canonical JSON
    grid = [(2, n) for n in range(3, 9)] + [(3, n) for n in range(3, 8)]
    grid += [(4, n) for n in range(3, 7)]
    digest = hashlib.sha256()
    for m, n in grid:
        for T in dl.enumerate_triangulations(n):
            D = dl.reduce_dimer(dl.build_dimer(T, m))
            Q = dl.dual_quiver(D)
            R = dl.potential_relations(Q)
            relations = [
                [list(lhs.arrows), list(rhs.arrows), list(pair)]
                for (lhs, rhs), pair in zip(R.relations, R.faces)
            ]
            digest.update(json.dumps([D.to_json(), Q.to_json(), relations], sort_keys=True).encode())
    assert digest.hexdigest() == "10b8b324771d685cfd49348f6f278c41767bbda51a9fa01830ca29e8d76e63c5"


def test_validate_passes_on_constructed_quivers():
    for n, m in [(3, 2), (6, 2), (4, 3), (4, 5)]:
        _, _, Q, _ = fan_pipeline(n, m)
        rep = dl.validate_dimer_model(Q)
        assert rep.passed, rep.failures()


def test_validate_flags_double_plus_face():
    _, _, Q, _ = fan_pipeline(3, 2)
    faces = [Face(f.cycle, ("w", *f.dual[1:])) for f in Q.faces]  # every dual made white
    broken = QuiverWithFaces(Q.m, Q.n, Q.vertices, Q.arrows, faces)
    rep = dl.validate_dimer_model(broken)
    assert any(name == "internal-arrow-signs" for name, _ in rep.failures())


def test_validate_flags_loops_and_disconnected_incidence():
    vertices = {0: "internal", 1: "boundary", 2: "boundary"}
    arrows = [
        Arrow(0, 1, ("t", (0,), 0)),
        Arrow(1, 0, ("t", (0,), 1)),
        Arrow(0, 2, ("t", (0,), 2)),
        Arrow(2, 0, ("t", (1,), 0)),
        Arrow(2, 2, ("t", (1,), 1)),
    ]
    faces = [
        Face((0, 1), "w1"),
        Face((0, 1), "b1"),
        Face((2, 3), "w2"),
        Face((2, 3), "b2"),
    ]
    broken = QuiverWithFaces(1, 3, vertices, arrows, faces)
    rep = dl.validate_dimer_model(broken)
    failures = dict(rep.failures())
    assert "no-loops" in failures
    assert "incidence-connected" in failures


def test_chordless_cycle_at_2n():
    for n in (5, 8):
        _, _, Q, _ = fan_pipeline(n, 2)
        u = chordless_cycle_at(Q, 2 * n)
        assert endpoints(Q, u) == (
            (2 * n, 2 * n - 2),
            (2 * n - 2, 2 * n - 1),
            (2 * n - 1, 2 * n),
        )


def test_chordless_cycle_single_face_vertex():
    _, _, Q, _ = fan_pipeline(5, 2)
    # odd labels are corner components lying on exactly one face
    assert len(Q.faces_at(3)) == 1
    u = chordless_cycle_at(Q, 3)
    (fi,) = Q.faces_at(3)
    assert set(u.arrows) == set(Q.faces[fi].cycle)
    assert u.source == u.target == 3


def test_chordless_cycle_isolated_vertex():
    _, _, Q, _ = fan_pipeline(3, 2)
    vertices = dict(Q.vertices)
    vertices[99] = "internal"
    broken = QuiverWithFaces(Q.m, Q.n, vertices, Q.arrows, Q.faces)
    with pytest.raises(NoCycleError):
        chordless_cycle_at(broken, 99)
    with pytest.raises(NoCycleError, match="vertex 99"):
        chordless_cycles(broken, [1, 99])


@settings(max_examples=30)
@given(triangulations(max_n=8), st.integers(2, 4))
def test_chordless_cycles_match_the_per_vertex_scan(T, m):
    # one pass over the faces finds each vertex's first shortest face, as
    # a scan of every face per vertex does, boundary and internal alike
    _, _, Q, _ = pipeline(T.n, m, T.sorted_diagonals)
    vertices = list(Q.vertices)
    cycles = chordless_cycles(Q, vertices)
    assert list(cycles) == vertices
    for v in vertices:
        assert cycles[v] == chordless_cycle_reference(Q, v) == chordless_cycle_at(Q, v)
        assert cycles[v].source == cycles[v].target == v


def test_quiver_json_round_trip():
    _, _, Q, _ = fan_pipeline(5, 3)
    Q2 = QuiverWithFaces.from_json(json.loads(json.dumps(Q.to_json())))
    assert Q2 == Q


@settings(max_examples=30, deadline=None)
@given(triangulations(8), st.integers(2, 4))
def test_quiver_json_round_trip_random_triangulations(T, m):
    _, _, Q, _ = pipeline(T.n, m, T.sorted_diagonals)
    text = json.dumps(Q.to_json(), sort_keys=True)
    Q2 = QuiverWithFaces.from_json(json.loads(text))
    assert Q2 == Q
    assert json.dumps(Q2.to_json(), sort_keys=True) == text


def fan_4_2_quiver_json():
    _, _, Q, _ = fan_pipeline(4, 2)
    return Q.to_json()


def test_from_json_rejects_an_arrow_kind_its_faces_do_not_give():
    # arrow 1 lies on two faces: read as a boundary arrow, its relation
    # would be dropped and theorem relations IV and V refuted
    data = fan_4_2_quiver_json()
    assert data["arrows"][1]["kind"] == "internal"
    data["arrows"][1]["kind"] = "boundary"
    with pytest.raises(QuiverError) as exc:
        QuiverWithFaces.from_json(data)
    assert str(exc.value) == "arrow 1 is listed as boundary, its faces give internal"


def test_from_json_rejects_a_face_orientation_its_dual_does_not_give():
    data = fan_4_2_quiver_json()
    data["faces"][0]["orientation"] = "-"
    with pytest.raises(QuiverError) as exc:
        QuiverWithFaces.from_json(data)
    assert str(exc.value) == "face 0 is listed as -, its dual ('w', (1, 2, 3), (0, 0, 1)) gives +"


@pytest.mark.parametrize("last_id", [0, 14, -1, "13"])
def test_from_json_rejects_arrow_ids_that_are_not_0_to_k(last_id):
    data = fan_4_2_quiver_json()
    data["arrows"][-1]["id"] = last_id
    with pytest.raises(QuiverError, match=r"^the arrow ids are not 0\.\.13$"):
        QuiverWithFaces.from_json(data)


def test_from_json_rejects_a_face_through_an_arrow_it_does_not_have():
    data = fan_4_2_quiver_json()
    data["faces"][1]["cycle"][0] = 14
    with pytest.raises(QuiverError) as exc:
        QuiverWithFaces.from_json(data)
    assert str(exc.value) == "face 1's cycle (14, 3, 4) leaves the arrow ids 0..13"


@pytest.mark.parametrize("end", ["source", "target"])
def test_from_json_rejects_an_arrow_end_that_is_not_a_listed_vertex(end):
    data = fan_4_2_quiver_json()
    data["arrows"][0][end] = 99
    with pytest.raises(QuiverError, match=r"^arrow 0 runs .*, not between listed vertices$"):
        QuiverWithFaces.from_json(data)


def test_relations_refuse_an_arrow_on_no_face():
    # an arrow is a boundary arrow only on exactly one face, so one on no
    # face has no relation and no +/- face pair either
    _, _, Q, _ = fan_pipeline(4, 2)
    bare = QuiverWithFaces(Q.m, Q.n, Q.vertices, [*Q.arrows, Arrow(1, 2, ("t", (0,), 0))], Q.faces)
    assert bare.arrow_kind(14) == "internal"
    with pytest.raises(MalformedQuiverError, match="arrow 14 lacks a"):
        dl.potential_relations(bare)


def test_quiver_dot_is_pinned():
    # the quiver DOT over the grid of test_construction_output_is_pinned
    grid = [(2, n) for n in range(3, 9)] + [(3, n) for n in range(3, 8)]
    grid += [(4, n) for n in range(3, 7)]
    digest, count = hashlib.sha256(), 0
    for m, n in grid:
        for T in dl.enumerate_triangulations(n):
            digest.update(dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, m))).to_dot().encode())
            count += 1
    assert count == 282
    assert digest.hexdigest() == "2f8d8f3b6ab7a673a677008a1b3120e1e642c60948af00efa46cc47e02410975"


def test_dot_export_triangle():
    _, _, Q, _ = fan_pipeline(3, 2)
    dot = Q.to_dot()
    assert dot.count("pos=") == 6
    assert dot.count("->") == 9
