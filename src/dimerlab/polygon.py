"""Triangulations of the convex n-gon and their diagonal flips.

Polygon vertices are labelled 1..n counterclockwise.  Everything is purely
combinatorial: a triangulation is its set of diagonals, a diagonal is an
unordered pair of nonadjacent vertices, and crossing is decided cyclically.
No coordinates are ever used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations


class PolygonError(ValueError):
    """Base class for errors raised by this module."""


class InvalidPolygonError(PolygonError):
    """n < 3, or a diagonal set does not define a triangulation."""


class UnknownDiagonalError(PolygonError):
    """A flip was requested on a diagonal that is not present."""


class IncompatiblePolygonsError(PolygonError):
    """Two triangulations of different polygons were combined."""


def normalize_diagonal(n: int, pair) -> tuple[int, int]:
    """Return the pair as a sorted tuple, checking it is a diagonal of the n-gon."""
    a, b = pair
    if not (1 <= a <= n and 1 <= b <= n):
        raise InvalidPolygonError(f"vertex out of range in diagonal {pair!r} (n={n})")
    a, b = min(a, b), max(a, b)
    gap = (b - a) % n
    if gap in (0, 1, n - 1):
        raise InvalidPolygonError(f"{(a, b)} is not a diagonal of the {n}-gon")
    return (a, b)


def is_polygon_edge(n: int, pair) -> bool:
    a, b = min(pair), max(pair)
    return b - a == 1 or (a, b) == (1, n)


def diagonals_cross(n: int, d1, d2) -> bool:
    """Whether two diagonals cross in the interior of the n-gon.

    {a,b} and {c,d} cross iff exactly one of c, d lies strictly between
    a and b in cyclic order.
    """
    a, b = d1
    c, d = d2
    if len({a, b, c, d}) < 4:
        return False
    arc = (b - a) % n  # x is strictly inside the arc from a to b iff 0 < (x - a) % n < arc
    return (0 < (c - a) % n < arc) != (0 < (d - a) % n < arc)


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the convex n-gon, stored as its diagonal set.

    Invariants (checked at construction): exactly n-3 diagonals, none
    given twice, pairwise noncrossing.  Instances are immutable and
    hashable.  `flip` and `rotate` build their results with `_flipped`,
    which trusts them: a flip or a rotation of a valid triangulation is
    valid.
    """

    n: int
    diagonals: frozenset[tuple[int, int]]

    def __init__(self, n: int, diagonals):
        if n < 3:
            raise InvalidPolygonError(f"polygon needs at least 3 vertices, got {n}")
        diags = set()
        for d in diagonals:
            d = normalize_diagonal(n, d)
            if d in diags:
                raise InvalidPolygonError(f"diagonal {d} is given twice")
            diags.add(d)
        diags = frozenset(diags)
        if len(diags) != n - 3:
            raise InvalidPolygonError(
                f"a triangulation of the {n}-gon has {n - 3} diagonals, got {len(diags)}"
            )
        for d1, d2 in combinations(sorted(diags), 2):
            if diagonals_cross(n, d1, d2):
                raise InvalidPolygonError(f"diagonals {d1} and {d2} cross")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diagonals", diags)

    @classmethod
    def _flipped(cls, n: int, diagonals: frozenset, triangles: tuple) -> "Triangulation":
        """A triangulation known to be valid, with its triangles given,
        unchecked: a flip or a rotation of a valid one."""
        T = object.__new__(cls)
        object.__setattr__(T, "n", n)
        object.__setattr__(T, "diagonals", diagonals)
        T.__dict__["triangles"] = triangles  # what the cached property would compute
        return T

    @cached_property
    def sorted_diagonals(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.diagonals))

    def edges(self) -> set[tuple[int, int]]:
        """All edges: the n polygon sides plus the diagonals."""
        return {(k, k + 1) for k in range(1, self.n)} | {(1, self.n)} | self.diagonals

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """The triangles of the triangulation as ascending vertex triples.

        In a triangulation of a convex polygon a vertex triple bounds a
        triangle iff all three pairs are edges, so a clique scan suffices.
        """
        edges = self.edges()
        out = tuple(
            (a, b, c)
            for a, b in sorted(edges)
            for c in range(b + 1, self.n + 1)
            if (a, c) in edges and (b, c) in edges
        )
        assert len(out) == self.n - 2
        return out

    def key(self) -> tuple:
        return (self.n, self.sorted_diagonals)

    def to_json(self) -> dict:
        return {"n": self.n, "diagonals": [list(d) for d in self.sorted_diagonals]}

    @classmethod
    def from_json(cls, data: dict) -> "Triangulation":
        return cls(data["n"], [tuple(d) for d in data["diagonals"]])

    def __repr__(self) -> str:
        return f"Triangulation(n={self.n}, diagonals={list(self.sorted_diagonals)})"


@dataclass(frozen=True)
class FlipMove:
    """One diagonal flip: `removed` and `inserted` are the two diagonals of
    the quadrilateral, whose four corners (in cyclic = ascending vertex
    order) are their ends."""

    removed: tuple[int, int]
    inserted: tuple[int, int]

    def __post_init__(self):
        q = self.quadrilateral
        if len(set(q)) != 4 or {self.removed, self.inserted} != {(q[0], q[2]), (q[1], q[3])}:
            raise PolygonError(f"{self.removed}/{self.inserted} are not the diagonals of {q}")

    @property
    def quadrilateral(self) -> tuple[int, int, int, int]:
        return tuple(sorted(self.removed + self.inserted))

    def to_json(self) -> dict:
        return {
            "removed": list(self.removed),
            "inserted": list(self.inserted),
            "quadrilateral": list(self.quadrilateral),
        }


def fan_triangulation(n: int, apex: int = 1) -> Triangulation:
    """The triangulation whose diagonals all contain `apex`."""
    if n < 3:
        raise InvalidPolygonError(f"polygon needs at least 3 vertices, got {n}")
    if not 1 <= apex <= n:
        raise InvalidPolygonError(f"apex {apex} out of range for the {n}-gon")
    diagonals = [(apex, v) for v in range(1, n + 1) if (v - apex) % n not in (0, 1, n - 1)]
    return Triangulation(n, diagonals)


def enumerate_triangulations(n: int) -> list[Triangulation]:
    """All triangulations of the n-gon, each exactly once, deterministically.

    Recursive construction: the triangle on the chord (lo, hi) is chosen by
    its third vertex, so every triangulation is produced once.  Counts follow
    the Catalan numbers C(n-2).
    """
    if n < 3:
        raise InvalidPolygonError(f"polygon needs at least 3 vertices, got {n}")

    def rec(lo: int, hi: int) -> list[frozenset]:
        if hi - lo < 2:
            return [frozenset()]
        out = []
        for k in range(lo + 1, hi):
            for left in rec(lo, k):
                for right in rec(k, hi):
                    d = set(left) | set(right)
                    if k - lo >= 2:
                        d.add((lo, k))
                    if hi - k >= 2:
                        d.add((k, hi))
                    out.append(frozenset(d))
        return out

    sets = sorted(rec(1, n), key=lambda s: tuple(sorted(s)))
    return [Triangulation(n, s) for s in sets]


def flip(T: Triangulation, d) -> tuple[Triangulation, FlipMove]:
    """Flip diagonal `d`: replace it by the opposite diagonal of its quadrilateral.

    The two triangles on `d` give way to the two on the new diagonal; the
    result is not revalidated.
    """
    d = normalize_diagonal(T.n, d)
    if d not in T.diagonals:
        raise UnknownDiagonalError(f"{d} is not a diagonal of {T!r}")
    a, b = d
    on_d = [tri for tri in T.triangles if a in tri and b in tri]
    kept = [tri for tri in T.triangles if a not in tri or b not in tri]
    inserted = tuple(sorted(v for tri in on_d for v in tri if v not in d))
    move = FlipMove(removed=d, inserted=inserted)
    triangles = tuple(sorted(kept + [tuple(sorted(inserted + (v,))) for v in d]))
    return Triangulation._flipped(T.n, (T.diagonals - {d}) | {inserted}, triangles), move


def rotate(T: Triangulation, r: int) -> Triangulation:
    """The triangulation T turned by r steps counterclockwise: vertex x is
    relabelled (x - 1 + r) mod n + 1, so r = 0 (mod n) gives T back.  The
    cyclic order, and so validity, is kept: the result is not revalidated."""
    n = T.n

    def turned(corners: tuple) -> tuple:
        return tuple(sorted((x - 1 + r) % n + 1 for x in corners))

    triangles = tuple(sorted(map(turned, T.triangles)))
    return Triangulation._flipped(n, frozenset(map(turned, T.diagonals)), triangles)


@cache
def _mask_tables(n: int) -> tuple:
    """The n-gon's diagonals in sorted order, the bit of each as bit[a][b]
    (1 << i for the i-th), and each vertex's two sides as a vertex mask."""
    diagonals = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1) if b - a < n - 1]
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (a, b) in enumerate(diagonals):
        bit[a][b] = 1 << i
    return diagonals, bit, [0] + [1 << v % n + 1 | 1 << (v - 2) % n + 1 for v in range(1, n + 1)]


def _mask_neighbours(n: int, k: int) -> list:
    """(d, mask of its flip) for each diagonal d of the triangulation with mask
    k, in sorted order: the flip joins the two common neighbours of d's ends."""
    diagonals, bit, adj = _mask_tables(n)
    adj, present, rest = adj[:], [], k
    while rest:
        low = rest & -rest
        rest ^= low
        d = a, b = diagonals[low.bit_length() - 1]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        present.append((d, low))
    out = []
    for d, low in present:
        c = adj[d[0]] & adj[d[1]]
        out.append((d, k ^ low ^ bit[(c & -c).bit_length() - 1][c.bit_length() - 1]))
    return out


def flip_sequence(src: Triangulation, dst: Triangulation) -> list[FlipMove]:
    """A shortest sequence of flips carrying `src` to `dst`: the one a plain
    breadth-first search from `src` returns.

    Name a move by the index of its removed diagonal in the sorted diagonals
    of the triangulation it flips.  A plain BFS that tries diagonals in
    sorted order and keeps each triangulation's first discovery returns the
    lexicographically least shortest move sequence.  By induction on the
    level: the queue holds each level in lexicographic order of the tree
    paths, a triangulation's parent is the first one on the level above
    that is adjacent to it, and the next level is enqueued in order of
    (parent's path, index).

    The search keys a triangulation by an int mask whose bit i stands for
    the i-th diagonal of the n-gon in sorted order.  Its ascending set bits
    are then the sorted diagonals, so `_mask_neighbours` lists the flips in
    index order, the order the proof needs.  Three steps find the sequence:

    1. Distance.  Whole levels are expanded from both ends, the smaller
       frontier first, until a new level meets the other side's seen set.
       D is the least sum of the two depths of a meeting mask.
    2. Distance to go.  `togo` starts as the exact distance to `dst` of
       every mask within the backward depth.  The expanded forward levels
       are then read from the top down: a mask at level i gets togo D - i
       when a neighbour has togo D - i - 1.  Every mask of a shortest path
       gets one: at a forward level not expanded it lies within the
       backward depth; at an expanded level i, its successor got one first.
    3. Walk.  From `src`, each step flips the first diagonal in sorted order
       whose neighbour has togo one less: the least index that stays on a
       shortest path.  `flip` builds only these D moves.
    """
    if src.n != dst.n:
        raise IncompatiblePolygonsError(f"cannot connect n={src.n} to n={dst.n}")
    n, bit = src.n, _mask_tables(src.n)[1]
    start, goal = (sum(bit[a][b] for a, b in T.diagonals) for T in (src, dst))
    # per side (0 from src, 1 from dst): mask -> depth, and the newest level
    seen, fronts = ({start: 0}, {goal: 0}), [[start], [goal]]
    forward = []  # the forward levels expanded, as (mask, its neighbours)
    meets = seen[0].keys() & seen[1].keys()
    while not meets:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        own, other = seen[side], seen[1 - side]
        if not fronts[side]:
            raise PolygonError("flip graph is connected; this should not happen")
        level = [(k, _mask_neighbours(n, k)) for k in fronts[side]]
        depth, new = own[fronts[side][0]] + 1, []
        for _, neighbours in level:
            for _, j in neighbours:
                if j not in own:
                    own[j] = depth
                    new.append(j)
                    if j in other:
                        meets.add(j)
        if side == 0:
            forward.append(level)
        fronts[side] = new
    D = min(seen[0][k] + seen[1][k] for k in meets)

    togo = dict(seen[1])
    for i in range(len(forward) - 1, -1, -1):
        for k, neighbours in forward[i]:
            if any(togo.get(j) == D - i - 1 for _, j in neighbours):
                togo[k] = D - i

    moves, cur, k = [], src, start
    for t in range(D - 1, -1, -1):
        d, k = next((d, j) for d, j in _mask_neighbours(n, k) if togo.get(j) == t)
        cur, move = flip(cur, d)
        moves.append(move)
    return moves


def apply_moves(T: Triangulation, moves) -> Triangulation:
    """Replay a flip sequence (used to check flip_sequence results)."""
    cur = T
    for mv in moves:
        nxt, got = flip(cur, mv.removed)
        if got.inserted != mv.inserted:
            raise PolygonError(f"move {mv} does not replay on {cur!r}")
        cur = nxt
    return cur
