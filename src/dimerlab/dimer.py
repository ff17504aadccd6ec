"""GL_m-dimer graphs: construction, reduction, validation.

Each triangle of a triangulation is barycentrically subdivided into m^2
small triangles.  White nodes sit in upward small triangles, black nodes in
downward ones and on the midpoints of the m segments of each side.  Node
ids are stable tuples of where a node sits, so builds are reproducible,
survive serialization, and fix every other fact of the node: ('w', tri, p)
is a white in an upward small triangle, ('d', tri, q) an interior black in
a downward one, and ('b', edge, s) the black on segment s of a side, on the
polygon boundary when `edge` is a polygon side and on a diagonal otherwise.
A node's host is (id[1:],), except a white merged by reduction, whose host
is the sorted union of its constituents'.

The planar embedding is carried by a rotation system: for every node, the
counterclockwise cyclic order of its neighbours.  Within a triangle with
ascending (hence counterclockwise) corners, the three sides of an upward
small triangle appear counterclockwise in the order of the opposite-corner
index, and the same holds for the neighbours of a downward triangle; both
facts fix the rotations below.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cache
from operator import itemgetter

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


def color(v: NodeId) -> str:
    """White for an id ('w', tri, p), in an upward small triangle; else black."""
    return WHITE if v[0] == "w" else BLACK


@dataclass
class GLmDimer:
    """An embedded bipartite GL_m-dimer graph.

    Treated as immutable after construction; `reduce_dimer` returns a new
    instance.  `rotation` maps each node id to the counterclockwise tuple of
    its neighbours, and its keys are the node set; `edge_tags` maps each
    edge (frozenset of endpoints) to its construction tag (triangle,
    upward-point, side-index); `hosts` holds the host of each white that
    `reduce_dimer` merged.  `color`, `location` and `host` read the rest off
    the id, and `boundary` is a function of (n, m).
    """

    m: int
    triangulation: Triangulation
    rotation: dict[NodeId, tuple[NodeId, ...]]
    edge_tags: dict[frozenset, tuple]
    hosts: dict[NodeId, tuple]

    @property
    def n(self) -> int:
        return self.triangulation.n

    @property
    def boundary(self) -> tuple[NodeId, ...]:
        return boundary_blacks(self.n, self.m)

    def color(self, v: NodeId) -> str:
        return color(v)

    def location(self, v: NodeId) -> str:
        if v[0] != "b":
            return LOC_INTERIOR
        return LOC_BOUNDARY if is_polygon_edge(self.n, v[1]) else LOC_DIAGONAL

    def host(self, v: NodeId) -> tuple:
        return self.hosts.get(v, (v[1:],))

    def degree(self, v: NodeId) -> int:
        return len(self.rotation[v])

    def whites(self) -> list[NodeId]:
        return sorted(v for v in self.rotation if self.color(v) == WHITE)

    def blacks(self, location: str | None = None) -> list[NodeId]:
        return sorted(
            v
            for v in self.rotation
            if self.color(v) == BLACK and (location is None or self.location(v) == location)
        )

    def internal_blacks(self) -> list[NodeId]:
        """Black nodes not on the polygon boundary."""
        return [b for b in self.blacks() if self.location(b) != LOC_BOUNDARY]

    def contractible_blacks(self) -> list[NodeId]:
        # the degree is read first, so only the few 2-valent nodes are sorted
        two = [v for v, r in self.rotation.items() if len(r) == 2]
        return sorted(v for v in two if color(v) == BLACK and self.location(v) != LOC_BOUNDARY)

    def is_reduced(self) -> bool:
        return not self.contractible_blacks()

    def _node_records(self):
        for v in sorted(self.rotation):
            yield v, self.color(v), self.location(v), self.host(v)

    def canonical_form(self) -> tuple:
        """Order-independent snapshot used for isomorphism-as-equality checks."""

        def norm_cycle(seq):
            if len(seq) <= 1:
                return tuple(seq)
            rots = [tuple(seq[i:] + seq[:i]) for i in range(len(seq))]
            return min(rots)

        nodes = tuple(self._node_records())
        rots = tuple((v, norm_cycle(list(self.rotation[v]))) for v in sorted(self.rotation))
        return (self.m, self.triangulation.key(), nodes, rots, self.boundary)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "triangulation": self.triangulation.to_json(),
            "nodes": [
                {"id": _encode(v), "color": color, "location": loc, "host": _encode(host)}
                for v, color, loc, host in self._node_records()
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
        """Read a dimer back; the node records and the boundary sequence
        are checked against what the ids and (n, m) give, and only a
        white's host is taken as given."""
        rotation = {
            _decode(r["id"]): tuple(_decode(w) for w in r["neighbors"])
            for r in data["rotation"]
        }
        tags = {
            frozenset(_decode(v) for v in e["nodes"]): _decode(e["tag"])
            for e in data["edges"]
        }
        D = cls(
            m=data["m"],
            triangulation=Triangulation.from_json(data["triangulation"]),
            rotation=rotation,
            edge_tags=tags,
            hosts={},
        )
        records = [_decode([r["id"], r["color"], r["location"], r["host"]]) for r in data["nodes"]]
        if sorted(v for v, *_ in records) != sorted(rotation):
            raise DimerError("the listed nodes are not the rotation's nodes")
        for v, color, loc, host in records:
            if (color, loc) != (D.color(v), D.location(v)):
                raise DimerError(
                    f"node {v!r} is listed as {color} {loc}, its id gives "
                    f"{D.color(v)} {D.location(v)}"
                )
            if host != D.host(v):
                if color == BLACK:
                    raise DimerError(f"black {v!r} has host {host!r}, its id gives {D.host(v)!r}")
                D.hosts[v] = host
        if _decode(data["boundary"]) != D.boundary:
            raise DimerError(f"the boundary sequence is not that of (n, m) = ({D.n}, {D.m})")
        return D


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
def _triangle_tables(m: int) -> tuple[tuple, tuple, tuple]:
    """One triangle's local geometry at order m, in its own frame, built
    once per m.  up: each upward small triangle's point p (sum m - 1) with
    a getter of its blacks across sides j = 0, 1, 2 (opposite corner j),
    ('d', p - e_j) where p[j] > 0 and otherwise segment p[v] of the side
    (u, v), u < v the other two corners.  A triangle's blacks are listed
    as down, then segments.  down: each downward small triangle's point q
    (sum m - 2) with a getter of its whites q + e_j, listed as up.
    segments: each side (u, v) with s = 0..m-1, the barycentric coordinate
    of the larger-labelled corner, so segments count from the smaller
    vertex label."""
    points = [(i, j, m - 1 - i - j) for i in range(m) for j in range(m - i)]
    downs = [(i, j, m - 2 - i - j) for i in range(m - 1) for j in range(m - 1 - i)]
    sides = [[x for x in range(3) if x != c] for c in range(3)]
    down = tuple(
        (q, itemgetter(*(points.index(_plus_e(q, c)) for c in range(3)))) for q in downs
    )
    segments = tuple((u, v, s) for u, v in sides for s in range(m))
    up = []
    for p in points:
        across = [
            downs.index(_minus_e(p, c)) if p[c] > 0 else len(downs) + c * m + p[sides[c][1]]
            for c in range(3)
        ]
        up.append((p, itemgetter(*across)))
    return tuple(up), down, segments


def build_dimer(T: Triangulation, m: int) -> GLmDimer:
    """Construct the GL_m-dimer of a triangulation.

    Per triangle: one white per upward small triangle, one black per
    downward one, one black on each side segment (shared across a
    diagonal).  Edges join a white to the blacks on the three sides of its
    small triangle.
    """
    if m < 2:
        raise UnsupportedOrderError(f"GL_m-dimers need m >= 2, got {m}")
    up, down, segments = _triangle_tables(m)
    rotation: dict[NodeId, tuple[NodeId, ...]] = {}
    edge_tags: dict[frozenset, tuple] = {}
    seg_whites: dict[NodeId, list[NodeId]] = defaultdict(list)

    for tri in T.triangles:
        whites = [("w", tri, p) for p, _ in up]
        blacks = [("d", tri, q) for q, _ in down]
        blacks += [("b", (tri[u], tri[v]), s) for u, v, s in segments]
        for w, (p, across) in zip(whites, up):
            nbrs = across(blacks)
            for j, nb in enumerate(nbrs):
                if nb[0] == "b":
                    seg_whites[nb].append(w)
                edge_tags[frozenset((w, nb))] = (tri, p, j)
            rotation[w] = nbrs
        for d, (_, around) in zip(blacks, down):
            rotation[d] = around(whites)

    for b, ws in seg_whites.items():
        rotation[b] = tuple(sorted(ws))

    return GLmDimer(m=m, triangulation=T, rotation=rotation, edge_tags=edge_tags, hosts={})


@cache
def boundary_blacks(n: int, m: int) -> tuple[NodeId, ...]:
    """The m*n boundary blacks counterclockwise from polygon vertex 1: the
    segments of each side (k, k+1) from k, then those of (1, n) from n."""
    boundary = []
    for k in range(1, n + 1):
        if k < n:
            key, srange = (k, k + 1), range(m)
        else:
            key, srange = (1, n), range(m - 1, -1, -1)
        boundary.extend(("b", key, s) for s in srange)
    return tuple(boundary)


def reduce_dimer(D: GLmDimer, order: list[NodeId] | None = None) -> GLmDimer:
    """Contract every 2-valent internal black node, merging its two white
    neighbours and splicing their rotations at the removal site.

    `order` optionally fixes the contraction order (used to test confluence);
    by default contractions run in sorted id order.  Idempotent on reduced
    inputs.  Boundary blacks are never touched.
    """
    rotation = dict(D.rotation)
    edge_tags = dict(D.edge_tags)
    # built first so that R.host reads the hosts merged so far
    R = GLmDimer(D.m, D.triangulation, rotation, edge_tags, dict(D.hosts))

    def contract(beta: NodeId) -> None:
        w1, w2 = rotation[beta]
        if w1 == w2:
            raise DimerError(f"degenerate 2-valent black {beta} with a double edge")
        new = min(w1, w2)
        r1, r2 = rotation[w1], rotation[w2]
        i1, i2 = r1.index(beta), r2.index(beta)
        spliced = r1[:i1] + r2[i2 + 1 :] + r2[:i2] + r1[i1 + 1 :]
        old, old_nbrs = (w2, r2) if new == w1 else (w1, r1)
        R.hosts[new] = tuple(sorted(R.host(w1) + R.host(w2)))
        R.hosts.pop(old, None)
        for w in (w1, w2, beta):
            del rotation[w]
        del edge_tags[frozenset((w1, beta))]
        del edge_tags[frozenset((w2, beta))]
        rotation[new] = spliced
        # the rotation indexes a node's edges: only the merged-away white's
        # edges are re-keyed, and only its neighbours list it
        for other in old_nbrs:
            if other == beta:
                continue
            fresh = frozenset((new, other))
            if fresh in edge_tags:
                raise DimerError("contraction would create a double edge")
            edge_tags[fresh] = edge_tags.pop(frozenset((old, other)))
            rotation[other] = tuple([new if x == old else x for x in rotation[other]])

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
    return R


def indexed_rotation(rotation: dict) -> tuple[list, dict, list[tuple[int, ...]]]:
    """The nodes in id order, each node's index, and the rotation system on
    the indexes, for trace_faces.  Raises AsymmetricRotationError for the
    first neighbour, in the rotation's order, with no rotation of its own."""
    ids = sorted(rotation)
    index = {v: i for i, v in enumerate(ids)}
    try:
        rot = [tuple(map(index.__getitem__, r)) for r in map(rotation.__getitem__, ids)]
    except KeyError:
        v, w = next((v, w) for v, r in rotation.items() for w in r if w not in index)
        raise AsymmetricRotationError(v, w) from None
    return ids, index, rot


def trace_faces(rotation: list[tuple[int, ...]]) -> tuple[dict[int, int], int]:
    """Faces of an embedded graph on the nodes 0..N-1 from its rotation
    system (see indexed_rotation).

    A dart is a directed edge u -> v, the integer u * N + v.  The dart
    following u -> v in its face is v -> w where w precedes u in the
    counterclockwise rotation at v; with this convention interior faces
    come out counterclockwise and the outer face clockwise.  Returns each
    dart's face, numbered in the order of first darts (by u, then u's
    rotation), and the number of faces.  Raises AsymmetricRotationError,
    on node indexes, for a dart with no dart back.
    """
    N = len(rotation)
    following = {}
    for v, r in enumerate(rotation):
        at = v * N
        prev = r[-1] if r else None
        for u in r:
            # u -> v is followed by v -> prev, the neighbour before u at v
            following[u * N + v] = at + prev
            prev = u
    face: dict[int, int] = {}
    count = 0
    for u, r in enumerate(rotation):
        at = u * N
        for v in r:
            start = cur = at + v
            if start in face:
                continue
            try:
                while cur not in face:
                    face[cur] = count
                    cur = following[cur]
            except KeyError:
                raise AsymmetricRotationError(*divmod(cur, N)) from None
            if cur != start:
                raise DimerError("rotation system does not close up into faces")
            count += 1
    return face, count


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
        if len(e) != 2 or {D.color(v) for v in e} != {WHITE, BLACK}
    ]
    rep.add("bipartite", not bad, f"non-bichromatic edges: {bad[:3]}" if bad else "")

    m, n = D.m, D.n
    counts = Counter(v[1] for v in D.rotation if D.location(v) != LOC_INTERIOR)
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
            for w in D.rotation[v]:
                if w not in seen and w in D.rotation:
                    seen.add(w)
                    queue.append(w)
    rep.add(
        "connected",
        len(seen) == len(D.rotation),
        f"reached {len(seen)} of {len(D.rotation)} nodes",
    )

    if rep.passed:
        _, faces = trace_faces(indexed_rotation(D.rotation)[2])
        euler = len(D.rotation) - len(D.edge_tags) + faces
        rep.add("euler", euler == 2, f"V - E + F = {euler}, expected 2")
    else:
        rep.add("euler", False, "skipped: earlier structural failures")

    bdry_bad = [b for b in D.boundary if len(D.rotation.get(b, ())) != 1]
    rep.add(
        "boundary-sequence",
        not bdry_bad and sorted(D.boundary) == D.blacks(LOC_BOUNDARY),
        f"bad boundary entries: {bdry_bad[:3]}" if bdry_bad else "",
    )
    return rep
