"""GL_m-dimer graphs: construction, reduction, validation.

Each triangle of a triangulation is barycentrically subdivided into m^2
small triangles.  White nodes sit in upward small triangles, black nodes in
downward ones and on the midpoints of the m segments of each side.  Node
ids are stable tuples derived from (triangle, barycentric position), so
builds are reproducible and survive serialization.

The planar embedding is carried by a rotation system: for every node, the
counterclockwise cyclic order of its neighbours.  Within a triangle with
ascending (hence counterclockwise) corners, the three sides of an upward
small triangle appear counterclockwise in the order of the opposite-corner
index, and the same holds for the neighbours of a downward triangle; both
facts fix the rotations below.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cache

from .polygon import Triangulation, is_polygon_edge

WHITE = "white"
BLACK = "black"
LOC_BOUNDARY = "boundary-edge-segment"
LOC_DIAGONAL = "diagonal-segment"
LOC_INTERIOR = "interior"


class DimerError(ValueError):
    """Base class for errors raised by this module."""


class UnsupportedOrderError(DimerError):
    """The construction needs m >= 2."""


class AsymmetricRotationError(DimerError):
    """A rotation system lists w at v but not v at w, so the edge vw has
    one dart only (validate_dimer's rotation-symmetric check)."""

    def __init__(self, v, w):
        self.v, self.w = v, w
        super().__init__(
            f"rotation is not symmetric: {v!r} lists {w!r}, but {w!r} does not list {v!r}"
        )


NodeId = tuple


@dataclass(frozen=True)
class DimerNode:
    color: str
    location: str
    # whites: tuple of (triangle, barycentric) constituents (more than one
    # after reduction); interior blacks: ((triangle, barycentric),);
    # segment blacks: ((edge, segment-index),)
    host: tuple


@dataclass
class GLmDimer:
    """An embedded bipartite GL_m-dimer graph.

    Treated as immutable after construction; `reduce_dimer` returns a new
    instance.  `rotation` maps each node id to the counterclockwise tuple of
    its neighbours; `edge_tags` maps each edge (frozenset of endpoints) to
    its construction tag (triangle, upward-point, side-index).
    """

    m: int
    triangulation: Triangulation
    nodes: dict[NodeId, DimerNode]
    rotation: dict[NodeId, tuple[NodeId, ...]]
    edge_tags: dict[frozenset, tuple]
    boundary: tuple[NodeId, ...] = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return self.triangulation.n

    def degree(self, v: NodeId) -> int:
        return len(self.rotation[v])

    def whites(self) -> list[NodeId]:
        return sorted(v for v, rec in self.nodes.items() if rec.color == WHITE)

    def blacks(self, location: str | None = None) -> list[NodeId]:
        return sorted(
            v
            for v, rec in self.nodes.items()
            if rec.color == BLACK and (location is None or rec.location == location)
        )

    def internal_blacks(self) -> list[NodeId]:
        """Black nodes not on the polygon boundary."""
        return sorted(
            v
            for v, rec in self.nodes.items()
            if rec.color == BLACK and rec.location != LOC_BOUNDARY
        )

    def contractible_blacks(self) -> list[NodeId]:
        return [b for b in self.internal_blacks() if self.degree(b) == 2]

    def is_reduced(self) -> bool:
        return not self.contractible_blacks()

    def canonical_form(self) -> tuple:
        """Order-independent snapshot used for isomorphism-as-equality checks."""

        def norm_cycle(seq):
            if len(seq) <= 1:
                return tuple(seq)
            rots = [tuple(seq[i:] + seq[:i]) for i in range(len(seq))]
            return min(rots)

        nodes = tuple(
            (v, rec.color, rec.location, rec.host) for v, rec in sorted(self.nodes.items())
        )
        rots = tuple((v, norm_cycle(list(self.rotation[v]))) for v in sorted(self.rotation))
        return (self.m, self.triangulation.key(), nodes, rots, self.boundary)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "triangulation": self.triangulation.to_json(),
            "nodes": [
                {
                    "id": _encode(v),
                    "color": rec.color,
                    "location": rec.location,
                    "host": _encode(rec.host),
                }
                for v, rec in sorted(self.nodes.items())
            ],
            "rotation": [
                {"id": _encode(v), "neighbors": [_encode(w) for w in self.rotation[v]]}
                for v in sorted(self.rotation)
            ],
            "edges": [
                {"nodes": sorted(_encode(v) for v in e), "tag": _encode(t)}
                for e, t in sorted(self.edge_tags.items(), key=lambda kv: kv[1])
            ],
            "boundary": [_encode(v) for v in self.boundary],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GLmDimer":
        nodes = {}
        for rec in data["nodes"]:
            vid = _decode(rec["id"])
            nodes[vid] = DimerNode(rec["color"], rec["location"], _decode(rec["host"]))
        rotation = {
            _decode(r["id"]): tuple(_decode(w) for w in r["neighbors"])
            for r in data["rotation"]
        }
        tags = {
            frozenset(_decode(v) for v in e["nodes"]): _decode(e["tag"])
            for e in data["edges"]
        }
        return cls(
            m=data["m"],
            triangulation=Triangulation.from_json(data["triangulation"]),
            nodes=nodes,
            rotation=rotation,
            edge_tags=tags,
            boundary=tuple(_decode(v) for v in data["boundary"]),
        )


def _encode(x):
    if isinstance(x, tuple):
        return [_encode(y) for y in x]
    return x


def _decode(x):
    if isinstance(x, list):
        return tuple(_decode(y) for y in x)
    return x


def _plus_e(p: tuple, j: int) -> tuple:
    q = list(p)
    q[j] += 1
    return tuple(q)


def _minus_e(p: tuple, j: int) -> tuple:
    q = list(p)
    q[j] -= 1
    return tuple(q)


@cache
def _triangle_tables(m: int) -> tuple[tuple, tuple]:
    """One triangle's local geometry at order m, in its own frame, built
    once per m.  up: each upward small triangle's barycentric point p (sum
    m - 1) with its black neighbour across side j (opposite corner j) for
    j = 0, 1, 2, ('d', p - e_j) where p[j] > 0 and otherwise the side's
    segment ('b', u, v, p[v]), u < v the other two corners.  down: each
    downward small triangle's point q (sum m - 2) with its white
    neighbours q + e_j."""
    up, down = [], []
    for i in range(m):
        for j in range(m - i):
            p = (i, j, m - 1 - i - j)
            sides = []
            for c in range(3):
                u, v = [x for x in range(3) if x != c]
                sides.append(("d", _minus_e(p, c)) if p[c] > 0 else ("b", u, v, p[v]))
            up.append((p, tuple(sides)))
            if i + j < m - 1:
                q = (i, j, m - 2 - i - j)
                down.append((q, tuple(_plus_e(q, c) for c in range(3))))
    return tuple(up), tuple(down)


def _black_id(tri: tuple, side: tuple) -> NodeId:
    """The id of the black neighbour across `side` (from _triangle_tables)
    in triangle `tri`.  Segments of an edge are indexed 0..m-1 from the
    smaller vertex label; the barycentric coordinate of the larger-labelled
    corner is exactly that index."""
    if side[0] == "d":
        return ("d", tri, side[1])
    _, u, v, s = side
    return ("b", (tri[u], tri[v]), s)


def build_dimer(T: Triangulation, m: int) -> GLmDimer:
    """Construct the GL_m-dimer of a triangulation.

    Per triangle: one white per upward small triangle, one black per
    downward one, one black on each side segment (shared across a
    diagonal).  Edges join a white to the blacks on the three sides of its
    small triangle.
    """
    if m < 2:
        raise UnsupportedOrderError(f"GL_m-dimers need m >= 2, got {m}")
    n = T.n
    up, down = _triangle_tables(m)
    nodes: dict[NodeId, DimerNode] = {}
    rotation: dict[NodeId, tuple[NodeId, ...]] = {}
    edge_tags: dict[frozenset, tuple] = {}
    seg_whites: dict[NodeId, list[NodeId]] = defaultdict(list)

    for tri in T.triangles:
        for p, sides in up:
            w = ("w", tri, p)
            nodes[w] = DimerNode(WHITE, LOC_INTERIOR, ((tri, p),))
            nbrs = tuple(_black_id(tri, side) for side in sides)
            for j, nb in enumerate(nbrs):
                if nb[0] == "b":
                    seg_whites[nb].append(w)
                edge_tags[frozenset((w, nb))] = (tri, p, j)
            rotation[w] = nbrs
        for q, whites in down:
            d = ("d", tri, q)
            nodes[d] = DimerNode(BLACK, LOC_INTERIOR, ((tri, q),))
            rotation[d] = tuple(("w", tri, p) for p in whites)

    for b, ws in seg_whites.items():
        _, edge, s = b
        loc = LOC_BOUNDARY if is_polygon_edge(n, edge) else LOC_DIAGONAL
        nodes[b] = DimerNode(BLACK, loc, ((edge, s),))
        rotation[b] = tuple(sorted(ws))

    boundary = []
    for k in range(1, n + 1):
        if k < n:
            key, srange = (k, k + 1), range(m)
        else:
            key, srange = (1, n), range(m - 1, -1, -1)
        boundary.extend(("b", key, s) for s in srange)

    return GLmDimer(
        m=m,
        triangulation=T,
        nodes=nodes,
        rotation=rotation,
        edge_tags=edge_tags,
        boundary=tuple(boundary),
    )


def reduce_dimer(D: GLmDimer, order: list[NodeId] | None = None) -> GLmDimer:
    """Contract every 2-valent internal black node, merging its two white
    neighbours and splicing their rotations at the removal site.

    `order` optionally fixes the contraction order (used to test confluence);
    by default contractions run in sorted id order.  Idempotent on reduced
    inputs.  Boundary blacks are never touched.
    """
    nodes = dict(D.nodes)
    rotation = {v: list(r) for v, r in D.rotation.items()}
    edge_tags = dict(D.edge_tags)

    def contract(beta: NodeId) -> None:
        w1, w2 = rotation[beta]
        if w1 == w2:
            raise DimerError(f"degenerate 2-valent black {beta} with a double edge")
        new = min(w1, w2)
        r1, r2 = rotation[w1], rotation[w2]
        i1, i2 = r1.index(beta), r2.index(beta)
        spliced = r1[:i1] + r2[i2 + 1 :] + r2[:i2] + r1[i1 + 1 :]
        host = tuple(sorted(nodes[w1].host + nodes[w2].host))
        for w in (w1, w2):
            del nodes[w]
            del rotation[w]
        del nodes[beta]
        del rotation[beta]
        del edge_tags[frozenset((w1, beta))]
        del edge_tags[frozenset((w2, beta))]
        nodes[new] = DimerNode(WHITE, LOC_INTERIOR, host)
        rotation[new] = spliced
        # the rotation indexes a node's edges: only the merged-away white's
        # edges are re-keyed
        old, old_nbrs = (w2, r2) if new == w1 else (w1, r1)
        for other in old_nbrs:
            if other == beta:
                continue
            fresh = frozenset((new, other))
            if fresh in edge_tags:
                raise DimerError("contraction would create a double edge")
            edge_tags[fresh] = edge_tags.pop(frozenset((old, other)))
        for nb in spliced:
            rotation[nb] = [new if x in (w1, w2) else x for x in rotation[nb]]

    # One pass suffices: a contraction merges two whites and leaves every
    # black's degree alone (a case that would change one raises DimerError
    # for a double edge first).
    todo = D.contractible_blacks()
    if order is not None:
        if sorted(order) != todo:
            raise DimerError("order must be a permutation of the contractible blacks")
        todo = list(order)
    for beta in todo:
        contract(beta)

    return GLmDimer(
        m=D.m,
        triangulation=D.triangulation,
        nodes=nodes,
        rotation={v: tuple(r) for v, r in rotation.items()},
        edge_tags=edge_tags,
        boundary=D.boundary,
    )


def trace_faces(rotation: dict[NodeId, tuple[NodeId, ...]]) -> list[list[tuple]]:
    """Faces of an embedded graph from its rotation system.

    A dart is a directed edge (u, v).  The dart following (u, v) in its face
    is (v, w) where w precedes u in the counterclockwise rotation at v; with
    this convention interior faces come out counterclockwise and the outer
    face clockwise.  Returns the list of dart cycles, deterministically.
    Raises AsymmetricRotationError for a dart with no dart back.
    """
    following = {}
    for v, nbrs in rotation.items():
        for i, u in enumerate(nbrs):
            following[u, v] = (v, nbrs[i - 1])
    darts = [(u, v) for u in sorted(rotation) for v in rotation[u]]
    seen: set[tuple] = set()
    faces = []
    for start in darts:
        if start in seen:
            continue
        cycle = []
        cur = start
        try:
            while cur not in seen:
                seen.add(cur)
                cycle.append(cur)
                cur = following[cur]
        except KeyError:
            raise AsymmetricRotationError(*cur) from None
        if cur != start:
            raise DimerError("rotation system does not close up into faces")
        faces.append(cycle)
    return faces


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
        }


def validate_dimer(D: GLmDimer) -> ValidationReport:
    """Check the construction invariants; failures name the offending nodes."""
    rep = ValidationReport()
    bad = [
        sorted(e)
        for e in D.edge_tags
        if len(e) != 2 or {D.nodes[v].color for v in e} != {WHITE, BLACK}
    ]
    rep.add("bipartite", not bad, f"non-bichromatic edges: {bad[:3]}" if bad else "")

    m, n = D.m, D.n
    counts: dict[tuple, int] = defaultdict(int)
    for v, rec in D.nodes.items():
        if rec.color == BLACK and rec.location != LOC_INTERIOR:
            counts[v[1]] += 1
    bad_edges = []
    for edge in D.triangulation.edges():
        c = counts.get(edge, 0)
        want = {m} if is_polygon_edge(n, edge) else {0, m}
        if c not in want:
            bad_edges.append((edge, c))
    rep.add(
        "segment-counts",
        not bad_edges,
        f"edges with wrong black count: {bad_edges[:3]}" if bad_edges else "",
    )

    sym_bad = []
    for v, nbrs in D.rotation.items():
        if len(set(nbrs)) != len(nbrs) or v in nbrs:
            sym_bad.append(v)
            continue
        for w in nbrs:
            if v not in D.rotation.get(w, ()):
                sym_bad.append(v)
                break
    rep.add(
        "rotation-symmetric",
        not sym_bad,
        f"inconsistent rotations at: {sym_bad[:3]}" if sym_bad else "",
    )

    edge_count = sum(len(r) for r in D.rotation.values())
    rep.add(
        "rotation-matches-edges",
        edge_count == 2 * len(D.edge_tags),
        f"rotation darts {edge_count} != 2*edges {2 * len(D.edge_tags)}",
    )

    start = next(iter(D.rotation), None)
    seen = set()
    if start is not None:
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in D.rotation.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    rep.add(
        "connected",
        len(seen) == len(D.nodes),
        f"reached {len(seen)} of {len(D.nodes)} nodes",
    )

    if rep.passed:
        faces = trace_faces(D.rotation)
        euler = len(D.nodes) - len(D.edge_tags) + len(faces)
        rep.add("euler", euler == 2, f"V - E + F = {euler}, expected 2")
    else:
        rep.add("euler", False, "skipped: earlier structural failures")

    bdry_bad = [
        b
        for b in D.boundary
        if D.nodes.get(b) is None
        or D.nodes[b].location != LOC_BOUNDARY
        or len(D.rotation.get(b, ())) != 1
    ]
    expected = sorted(b for b, r in D.nodes.items() if r.location == LOC_BOUNDARY)
    rep.add(
        "boundary-sequence",
        not bdry_bad and sorted(D.boundary) == expected,
        f"bad boundary entries: {bdry_bad[:3]}" if bdry_bad else "",
    )
    return rep
