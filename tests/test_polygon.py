import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimerlab as dl
from dimerlab import cli
from dimerlab.polygon import (
    FlipMove,
    IncompatiblePolygonsError,
    InvalidPolygonError,
    PolygonError,
    UnknownDiagonalError,
    _mask_neighbours,
    apply_moves,
    diagonals_cross,
    flip,
    rotate,
)

from helpers import plain_bfs_moves, plain_bfs_tree, triangulations

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


def catalan(k):
    # independent recurrence oracle: C_0 = 1, C_{k+1} = sum C_i C_{k-i}
    cs = [1]
    for j in range(k):
        cs.append(sum(cs[i] * cs[j - i] for i in range(j + 1)))
    return cs[k]


def all_diagonals(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1) if (a, b) != (1, n)]


def brute_force_triangulations(n):
    # oracle: all (n-3)-subsets of diagonals, filtered for noncrossing
    from itertools import combinations

    out = []
    for sub in combinations(all_diagonals(n), n - 3):
        if all(
            not diagonals_cross(n, d1, d2)
            for i, d1 in enumerate(sub)
            for d2 in sub[i + 1 :]
        ):
            out.append(frozenset(sub))
    return out


def test_fan_examples():
    assert dl.fan_triangulation(5, 1).diagonals == {(1, 3), (1, 4)}
    assert dl.fan_triangulation(3, 1).diagonals == frozenset()
    f8 = dl.fan_triangulation(8, 1)
    assert f8.diagonals == {(1, k) for k in range(3, 8)}
    assert len(f8.diagonals) == 8 - 3


def test_fan_other_apex():
    t = dl.fan_triangulation(5, 2)
    assert t.diagonals == {(2, 4), (2, 5)}


def test_invalid_polygon():
    with pytest.raises(InvalidPolygonError):
        dl.fan_triangulation(2, 1)
    with pytest.raises(InvalidPolygonError):
        dl.enumerate_triangulations(2)
    with pytest.raises(InvalidPolygonError):
        dl.Triangulation(5, [(1, 2)])  # an edge, not a diagonal
    with pytest.raises(InvalidPolygonError):
        dl.Triangulation(6, [(1, 3), (2, 4), (1, 4)])  # crossing pair
    with pytest.raises(InvalidPolygonError):
        dl.Triangulation(6, [(1, 3)])  # wrong count
    # (3, 1) is (1, 3) again: without the repeat check the count comes out right
    with pytest.raises(InvalidPolygonError, match=r"diagonal \(1, 3\) is given twice"):
        dl.Triangulation(5, [(1, 3), (3, 1), (1, 4)])
    with pytest.raises(InvalidPolygonError, match=r"diagonal \(1, 3\) is given twice"):
        dl.Triangulation(4, [(1, 3), (1, 3)])


@pytest.mark.parametrize("n,count", [(3, 1), (4, 2), (5, 5), (6, 14), (7, 42)])
def test_enumeration_counts_match_catalan(n, count):
    tris = dl.enumerate_triangulations(n)
    assert len(tris) == count == catalan(n - 2)
    assert len({t.key() for t in tris}) == count


@pytest.mark.parametrize("n", [4, 5, 6])
def test_enumeration_matches_brute_force(n):
    got = {t.diagonals for t in dl.enumerate_triangulations(n)}
    assert got == set(brute_force_triangulations(n))


def test_triangles_of_fan():
    t = dl.fan_triangulation(6, 1)
    assert t.triangles == ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6))


def test_flip_square():
    t = dl.Triangulation(4, [(1, 3)])
    t2, mv = dl.flip(t, (1, 3))
    assert t2.diagonals == {(2, 4)}
    assert mv.removed == (1, 3) and mv.inserted == (2, 4)
    assert mv.quadrilateral == (1, 2, 3, 4)


def test_flip_pentagon_example():
    t = dl.fan_triangulation(5, 1)
    t2, mv = dl.flip(t, (1, 3))
    assert t2.diagonals == {(2, 4), (1, 4)}
    assert mv.quadrilateral == (1, 2, 3, 4)


def test_flip_unknown_diagonal():
    with pytest.raises(UnknownDiagonalError):
        dl.flip(dl.fan_triangulation(5, 1), (2, 4))


def test_flip_is_involution():
    rng = random.Random(2)
    for n in (5, 6, 7):
        for t in dl.enumerate_triangulations(n):
            d = rng.choice(t.sorted_diagonals)
            t2, mv = dl.flip(t, d)
            t3, mv2 = dl.flip(t2, mv.inserted)
            assert t3.key() == t.key()
            assert mv2.inserted == mv.removed


@settings(max_examples=60)
@given(triangulations(12))
def test_flip_equals_validated_construction(T):
    # flip builds its result unchecked; each one must be what the
    # validating constructor makes of the same diagonals
    for d in T.sorted_diagonals:
        T2, move = dl.flip(T, d)
        fresh = dl.Triangulation(T.n, T2.diagonals)
        assert T2.key() == fresh.key()
        assert T2.triangles == fresh.triangles


def turned(n, d, r):
    return tuple(sorted((x - 1 + r) % n + 1 for x in d))


@settings(max_examples=60)
@given(triangulations(12), st.integers(-30, 30), st.integers(-30, 30))
def test_rotations_compose_and_a_full_turn_is_the_identity(T, r, s):
    # rotate builds its result unchecked; it must be what the validating
    # constructor makes of the turned diagonals
    R = rotate(T, r)
    fresh = dl.Triangulation(T.n, [turned(T.n, d, r) for d in T.diagonals])
    assert R == fresh and R.triangles == fresh.triangles
    assert rotate(R, s) == rotate(T, r + s)
    assert rotate(T, 0) == rotate(T, T.n * s) == T


@settings(max_examples=60)
@given(triangulations(12), st.integers(0, 11))
def test_flipping_commutes_with_rotating(T, r):
    for d in T.sorted_diagonals:
        (flipped, move), (turned_flip, turned_move) = flip(T, d), flip(rotate(T, r), turned(T.n, d, r))
        assert turned_flip == rotate(flipped, r)
        assert turned_flip.triangles == rotate(flipped, r).triangles
        assert turned_move.inserted == turned(T.n, move.inserted, r)


@pytest.mark.parametrize("n, sizes", [(3, [1]), (4, [2]), (5, [5]), (6, [6, 3, 2, 3]), (7, [7] * 6)])
def test_the_rotation_orbits_partition_the_triangulations(n, sizes):
    # orbits in the order of their first members, as sweep runs them
    tris = dl.enumerate_triangulations(n)
    orbits = []
    for T in tris:
        if not any(T in orbit for orbit in orbits):
            orbits.append({rotate(T, r) for r in range(n)})
    assert [len(orbit) for orbit in orbits] == sizes
    assert sorted(map(tris.index, set().union(*orbits))) == list(range(len(tris)))
    assert [[T for _, T in orbit] for orbit in cli._orbits(n)] == [
        [T for T in tris if T in orbit] for orbit in orbits
    ]


def test_a_flip_move_is_the_two_diagonals_of_four_corners():
    assert FlipMove(removed=(1, 3), inserted=(2, 4)).quadrilateral == (1, 2, 3, 4)
    for removed, inserted in [((1, 3), (1, 3)), ((1, 2), (3, 4)), ((3, 1), (2, 4))]:
        with pytest.raises(PolygonError):
            FlipMove(removed=removed, inserted=inserted)


def test_apply_moves_names_the_triangulation_it_failed_on():
    T = dl.fan_triangulation(6, 1)
    bad = FlipMove(removed=(1, 4), inserted=(2, 5))
    with pytest.raises(PolygonError) as info:
        apply_moves(T, [bad])
    assert str(info.value).endswith("on Triangulation(n=6, diagonals=[(1, 3), (1, 4), (1, 5)])")


def test_flip_sequence_identity():
    t = dl.fan_triangulation(6, 2)
    assert dl.flip_sequence(t, t) == []


def test_flip_sequence_replays():
    src = dl.fan_triangulation(5, 1)
    dst = dl.fan_triangulation(5, 2)
    moves = dl.flip_sequence(src, dst)
    assert apply_moves(src, moves).key() == dst.key()


def test_flip_sequence_mismatched_n():
    with pytest.raises(IncompatiblePolygonsError):
        dl.flip_sequence(dl.fan_triangulation(5, 1), dl.fan_triangulation(6, 1))


def test_flip_sequence_shortest_against_networkx():
    nx = pytest.importorskip("networkx")
    for n in (5, 6):
        tris = dl.enumerate_triangulations(n)
        g = nx.Graph()
        for t in tris:
            for d in t.sorted_diagonals:
                t2, _ = dl.flip(t, d)
                g.add_edge(t.key(), t2.key())
        src = dl.fan_triangulation(n, 1)
        for dst in tris:
            moves = dl.flip_sequence(src, dst)
            assert apply_moves(src, moves).key() == dst.key()
            assert len(moves) == nx.shortest_path_length(g, src.key(), dst.key())


def test_flip_sequence_moves_match_a_plain_bfs():
    tris = dl.enumerate_triangulations(7)
    for src in tris:
        parent = plain_bfs_tree(src)
        for dst in tris:
            assert dl.flip_sequence(src, dst) == plain_bfs_moves(parent, dst)


@st.composite
def triangulation_pairs(draw, min_n, max_n):
    src = draw(triangulations(max_n, min_n))
    return src, draw(triangulations(src.n, src.n))


@settings(max_examples=40)
@given(triangulation_pairs(8, 10))
def test_flip_sequence_matches_a_plain_bfs_on_random_pairs(pair):
    # the drawn pairs lie up to 8 flips apart, so the two searches meet at
    # odd and even depths and from frontiers of unequal size
    src, dst = pair
    assert dl.flip_sequence(src, dst) == plain_bfs_moves(plain_bfs_tree(src, dst), dst)


def first_walk_at_11():
    """The fan and the target of the first n = 11 walk of the flip-walk
    benchmark, and the number of moves recorded for it."""
    with open(REFERENCE) as f:
        w = next(w for w in json.load(f)["flip-walk"] if w["n"] == 11)
    target = dl.Triangulation(11, [tuple(d) for d in w["diagonals"]])
    return dl.fan_triangulation(11, 1), target, w["moves"]


def test_flip_sequence_matches_a_plain_bfs_at_benchmark_size():
    src, dst, count = first_walk_at_11()
    moves = dl.flip_sequence(src, dst)
    assert len(moves) == count
    assert moves == plain_bfs_moves(plain_bfs_tree(src, dst), dst)


def mask(T):
    # bit i stands for the i-th diagonal of the n-gon in sorted order
    every = all_diagonals(T.n)
    return sum(1 << every.index(d) for d in T.diagonals)


@settings(max_examples=80)
@given(triangulations(14, 4))
def test_mask_neighbours_are_the_flips_in_sorted_order(T):
    expected = [(d, mask(flip(T, d)[0])) for d in T.sorted_diagonals]
    assert _mask_neighbours(T.n, mask(T)) == expected


def test_flip_sequence_builds_few_triangulations(monkeypatch):
    # a plain BFS from the fan calls flip 3,461 times to return these 8
    # moves; the search reads neighbours off masks and builds only the moves
    src, target, count = first_walk_at_11()
    calls = []

    def counted(T, d):
        calls.append(d)
        return flip(T, d)

    monkeypatch.setattr(dl.polygon, "flip", counted)
    moves = dl.flip_sequence(src, target)
    assert len(moves) == count
    assert calls == [move.removed for move in moves]


def test_every_triangulation_reachable_from_fan():
    for n in (5, 6, 7):
        src = dl.fan_triangulation(n, 1)
        for dst in dl.enumerate_triangulations(n):
            moves = dl.flip_sequence(src, dst)
            assert apply_moves(src, moves).key() == dst.key()


def test_json_round_trip():
    t = dl.fan_triangulation(7, 3)
    data = t.to_json()
    assert data["diagonals"] == sorted(data["diagonals"])
    assert dl.Triangulation.from_json(data).key() == t.key()
