"""Triangulations of the convex n-gon and their diagonal flips.

Polygon vertices are labelled 1..n counterclockwise.  Everything is purely
combinatorial: a triangulation is its set of diagonals, a diagonal is an
unordered pair of nonadjacent vertices, and crossing is decided cyclically.
No coordinates are ever used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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

    def strictly_between(x: int) -> bool:
        # x strictly inside the cyclic arc from a to b (counterclockwise)
        return 0 < (x - a) % n < (b - a) % n

    return strictly_between(c) != strictly_between(d)


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the convex n-gon, stored as its diagonal set.

    Invariants (checked at construction): exactly n-3 diagonals, none
    given twice, pairwise noncrossing.  Instances are immutable and
    hashable.  `flip` builds its result with `_flipped`, which trusts
    them: a flip of a valid triangulation is valid.
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
        ds = sorted(diags)
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if diagonals_cross(n, ds[i], ds[j]):
                    raise InvalidPolygonError(f"diagonals {ds[i]} and {ds[j]} cross")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diagonals", diags)

    @classmethod
    def _flipped(cls, n: int, diagonals: frozenset, triangles: tuple) -> "Triangulation":
        """A triangulation known to be valid, with its triangles given, unchecked."""
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
        out = {(k, k + 1) for k in range(1, self.n)}
        out.add((1, self.n))
        out |= self.diagonals
        return out

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """The triangles of the triangulation as ascending vertex triples.

        In a triangulation of a convex polygon a vertex triple bounds a
        triangle iff all three pairs are edges, so a clique scan suffices.
        """
        edges = self.edges()
        n = self.n
        out = []
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if (a, b) not in edges:
                    continue
                for c in range(b + 1, n + 1):
                    if (a, c) in edges and (b, c) in edges:
                        out.append((a, b, c))
        assert len(out) == n - 2
        return tuple(out)

    @cached_property
    def opposite(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Each diagonal's opposite: the other diagonal of the quadrilateral
        formed by the two triangles on it."""
        apexes = {d: [] for d in self.diagonals}
        for a, b, c in self.triangles:
            for side, v in (((a, b), c), ((a, c), b), ((b, c), a)):
                if side in apexes:
                    apexes[side].append(v)
        return {d: tuple(sorted(vs)) for d, vs in apexes.items()}

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
    the quadrilateral (given in cyclic = ascending vertex order)."""

    removed: tuple[int, int]
    inserted: tuple[int, int]
    quadrilateral: tuple[int, int, int, int]

    def __post_init__(self):
        q = self.quadrilateral
        if sorted(q) != list(q) or len(set(q)) != 4:
            raise PolygonError(f"quadrilateral {q} not in ascending order")
        diags = {(q[0], q[2]), (q[1], q[3])}
        if {self.removed, self.inserted} != diags:
            raise PolygonError(
                f"{self.removed}/{self.inserted} are not the diagonals of {q}"
            )

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
    diags = []
    for v in range(1, n + 1):
        if v == apex:
            continue
        gap = (v - apex) % n
        if gap not in (1, n - 1):
            diags.append((min(apex, v), max(apex, v)))
    return Triangulation(n, diags)


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
    inserted = T.opposite[d]
    move = FlipMove(removed=d, inserted=inserted, quadrilateral=tuple(sorted(d + inserted)))
    a, b = d
    kept = [tri for tri in T.triangles if not (a in tri and b in tri)]
    triangles = tuple(sorted(kept + [tuple(sorted(inserted + (v,))) for v in d]))
    return Triangulation._flipped(T.n, (T.diagonals - {d}) | {inserted}, triangles), move


def _neighbours(T: Triangulation):
    """(diagonal, key of the triangulation its flip gives) for each diagonal
    of T, in sorted order; nothing is built."""
    for d in T.sorted_diagonals:
        yield d, (T.n, tuple(sorted((T.diagonals - {d}) | {T.opposite[d]})))


def flip_sequence(src: Triangulation, dst: Triangulation) -> list[FlipMove]:
    """A shortest sequence of flips carrying `src` to `dst`: the one a plain
    breadth-first search from `src` returns.

    Name a move by the index of its removed diagonal in the sorted diagonals
    of the triangulation it flips.  A plain BFS, which dequeues in order,
    tries diagonals in sorted order and keeps each triangulation's first
    discovery, returns the lexicographically least shortest move sequence.
    By induction on the level: the queue holds each level in lexicographic
    order of the tree paths, and a triangulation's parent is the first
    dequeued one on the level above that is adjacent to it.  Its tree path
    is therefore the least shortest path, and the next level is enqueued in
    lexicographic order of (parent's path, index), which is the order of
    its tree paths.

    The same sequence is found from both ends in three steps:

    1. Distance.  Whole levels are expanded from `src` and from `dst`, the
       smaller frontier first, until a new level meets the other side's
       seen set.  D is the least sum of the two depths of a meeting key.
    2. Distance to go.  `togo` starts as the backward side's depths: the
       exact distance to `dst` of every key within the backward depth.  The
       expanded forward levels are then read from the top down: a key at
       level i gets togo D - i when one of its neighbours has togo
       D - i - 1.  Every togo is exact, and every key of a shortest path
       gets one: at a forward level not expanded, the key is within the
       backward depth of `dst`; at an expanded level i, its successor on
       the path, at level i + 1, got one first.
    3. Walk.  From `src`, each step flips the first diagonal in sorted
       order whose neighbour has togo one less than now: the least index
       that stays on a shortest path.

    Neighbour keys are read off the diagonal sets; `flip` builds only the
    triangulations a level expands and the D returned moves.
    """
    if src.n != dst.n:
        raise IncompatiblePolygonsError(f"cannot connect n={src.n} to n={dst.n}")
    # per side (0 from src, 1 from dst): key -> depth, and the newest level
    # as (T, d) pairs, each standing for flip(T, d) (T itself when d is None)
    seen = ({src.key(): 0}, {dst.key(): 0})
    fronts = [[(src, None)], [(dst, None)]]
    forward = []  # the forward levels expanded, as triangulations
    meets = seen[0].keys() & seen[1].keys()
    while not meets:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        own, other = seen[side], seen[1 - side]
        if not fronts[side]:
            raise PolygonError("flip graph is connected; this should not happen")
        level, new = [], []
        for T, d in fronts[side]:
            cur = T if d is None else flip(T, d)[0]
            level.append(cur)
            depth = own[cur.key()] + 1
            for e, k in _neighbours(cur):
                if k not in own:
                    own[k] = depth
                    new.append((cur, e))
                    if k in other:
                        meets.add(k)
        if side == 0:
            forward.append(level)
        fronts[side] = new
    D = min(seen[0][k] + seen[1][k] for k in meets)

    togo = dict(seen[1])
    for i in range(len(forward) - 1, -1, -1):
        for T in forward[i]:
            if any(togo.get(k) == D - i - 1 for _, k in _neighbours(T)):
                togo[T.key()] = D - i

    moves, cur = [], src
    for t in range(D - 1, -1, -1):
        d = next(d for d, k in _neighbours(cur) if togo.get(k) == t)
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
