"""Dual quivers of GL_m-dimers, dimer-model axioms, and potential relations.

The quiver has one vertex per connected component of the dimer's complement
in the disk.  Components are found by face-tracing the rotation system of
the dimer augmented with the polygon boundary circle (arcs between
consecutive boundary blacks); the outer region then splits into the m*n
boundary components.  One arrow per dimer edge, oriented so the white
endpoint lies on the arrow's left; one counterclockwise face per white
node, one clockwise face per internal black node.  A quiver stores only
each arrow's ends and tag and each face's cycle and dual node: an arrow's
kind is its face count (boundary on exactly one face, internal otherwise),
and a face's orientation is its dual's colour (+ for white, - for black).

Boundary vertices are labelled 1..m*n counterclockwise; label 1 is the
component containing polygon vertex 1.  Internal vertices get stable ids
from the subdivision lattice: ('I', triangle, point) inside a triangle,
('L', edge, position) on a diagonal.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache

from .dimer import (
    BLACK,
    AsymmetricRotationError,
    DimerError,
    GLmDimer,
    LOC_BOUNDARY,
    WHITE,
    ValidationReport,
    _decode,
    _encode,
    _plus_e,
    color,
    trace_faces,
)
from .rewrite import Path, RelationSet


class QuiverError(ValueError):
    """Base class for errors raised by this module."""


class MustReduceFirstError(QuiverError):
    """dual_quiver needs a reduced dimer (no 2-valent internal blacks)."""


class MalformedQuiverError(QuiverError):
    """An arrow that is not on exactly one face lacks a +/- face pair."""


class NoCycleError(QuiverError):
    """No face passes through the requested vertex."""


def p2(s: int, k: int) -> int:
    """Polygonal number of second order, (k^2 (s-2) + k (s-4)) / 2."""
    if s < 3 or k < 0:
        raise QuiverError(f"p2 needs s >= 3 and k >= 0, got {(s, k)}")
    val = k * k * (s - 2) + k * (s - 4)
    assert val % 2 == 0
    return val // 2


@dataclass(frozen=True)
class Arrow:
    source: object
    target: object
    dual: tuple  # construction tag (triangle, upward point, side index)


@dataclass(frozen=True)
class Face:
    cycle: tuple[int, ...]  # arrow ids, chained head-to-tail
    dual: tuple  # dimer node id

    @property
    def orientation(self) -> str:
        """'+' (counterclockwise) when the dual node is white, '-' otherwise."""
        return "+" if color(self.dual) == WHITE else "-"


class QuiverWithFaces:
    """A quiver with oriented faces, dual to a reduced GL_m-dimer."""

    def __init__(self, m, n, vertices, arrows, faces):
        self.m = m
        self.n = n
        self.vertices = dict(vertices)  # vid -> 'boundary' | 'internal'
        self.boundary_vertex_set = frozenset(
            v for v, kind in self.vertices.items() if kind == "boundary"
        )
        self.arrows = list(arrows)
        self.faces = tuple(faces)
        self.arrow_source = [a.source for a in self.arrows]
        self.arrow_target = [a.target for a in self.arrows]
        out, inc = defaultdict(list), defaultdict(list)
        for aid, a in enumerate(self.arrows):
            out[a.source].append(aid)
            inc[a.target].append(aid)
        self.out_arrows = {v: tuple(out[v]) for v in self.vertices}
        self.in_arrows = {v: tuple(inc[v]) for v in self.vertices}
        byarrow = defaultdict(list)
        for fi, f in enumerate(self.faces):
            for aid in f.cycle:
                byarrow[aid].append(fi)
        self.faces_by_arrow = {aid: tuple(byarrow[aid]) for aid in range(len(self.arrows))}

    @property
    def boundary_vertices(self) -> list[int]:
        return sorted(self.boundary_vertex_set)

    @property
    def internal_vertices(self) -> list:
        return sorted(
            (v for v, kind in self.vertices.items() if kind == "internal"), key=str
        )

    def arrow_kind(self, aid: int) -> str:
        """'boundary' when the arrow lies on exactly one face, else 'internal'."""
        return "boundary" if len(self.faces_by_arrow[aid]) == 1 else "internal"

    def faces_at(self, v) -> list[int]:
        out = []
        for fi, f in enumerate(self.faces):
            if any(self.arrow_source[aid] == v for aid in f.cycle):
                out.append(fi)
        return out

    def arrows_between_boundary(self) -> list[int]:
        return [
            aid
            for aid, a in enumerate(self.arrows)
            if self.vertices[a.source] == "boundary" and self.vertices[a.target] == "boundary"
        ]

    def trivial_path(self, v) -> Path:
        return Path(self, (), anchor=v)

    def path(self, arrow_ids) -> Path:
        return Path(self, tuple(arrow_ids))

    def find_arrow(self, source, target) -> int | None:
        hits = [aid for aid in self.out_arrows.get(source, ()) if self.arrow_target[aid] == target]
        if len(hits) > 1:
            raise QuiverError(f"parallel arrows {source}->{target}")
        return hits[0] if hits else None

    def __eq__(self, other):
        if not isinstance(other, QuiverWithFaces):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.faces == other.faces
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "vertices": [
                {"id": _encode(v), "kind": kind}
                for v, kind in sorted(self.vertices.items(), key=lambda kv: str(kv[0]))
            ],
            "arrows": [
                {
                    "id": aid,
                    "source": _encode(a.source),
                    "target": _encode(a.target),
                    "kind": self.arrow_kind(aid),
                    "dual": _encode(a.dual),
                }
                for aid, a in enumerate(self.arrows)
            ],
            "faces": [
                {"orientation": f.orientation, "cycle": list(f.cycle), "dual": _encode(f.dual)}
                for f in self.faces
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuiverWithFaces":
        """Read a quiver back; each arrow's ends are checked to be listed
        vertices, and each arrow's listed kind and each face's listed
        orientation are checked against what its faces and its dual give."""
        vertices = {_decode(r["id"]): r["kind"] for r in data["vertices"]}
        rows = {r["id"]: r for r in data["arrows"]}
        aids = range(len(data["arrows"]))
        ids = f"0..{len(aids) - 1}"
        if rows.keys() != set(aids):
            raise QuiverError(f"the arrow ids are not {ids}")
        arrows = [Arrow(*_decode([rows[a][k] for k in ("source", "target", "dual")])) for a in aids]
        for aid, a in enumerate(arrows):
            if not vertices.keys() >= {a.source, a.target}:
                raise QuiverError(
                    f"arrow {aid} runs {a.source!r} -> {a.target!r}, not between listed vertices"
                )
        faces = [Face(*_decode([r["cycle"], r["dual"]])) for r in data["faces"]]
        for fi, f in enumerate(faces):
            if not rows.keys() >= set(f.cycle):
                raise QuiverError(f"face {fi}'s cycle {f.cycle} leaves the arrow ids {ids}")
        Q = cls(data["m"], data["n"], vertices, arrows, faces)
        for aid in aids:
            listed, kind = rows[aid]["kind"], Q.arrow_kind(aid)
            if listed != kind:
                raise QuiverError(f"arrow {aid} is listed as {listed}, its faces give {kind}")
        for fi, (f, r) in enumerate(zip(faces, data["faces"])):
            if r["orientation"] != f.orientation:
                raise QuiverError(
                    f"face {fi} is listed as {r['orientation']}, "
                    f"its dual {f.dual!r} gives {f.orientation}"
                )
        return Q

    def to_dot(self) -> str:
        """DOT export with boundary vertices pinned on the outer rim."""
        lines = ["digraph quiver {", "  layout=neato;", "  node [shape=circle];"]
        names = {}
        for v, kind in sorted(self.vertices.items(), key=lambda kv: str(kv[0])):
            if kind == "boundary":
                names[v] = f"b{v}"
                lines.append(f'  {names[v]} [label="{v}", pos="{rim_pos(v, self.m * self.n)}"];')
        for i, v in enumerate(self.internal_vertices):
            names[v] = f"i{i + 1}"
            lines.append(f'  {names[v]} [label="{names[v]}", style=dashed];')
        for aid, a in enumerate(self.arrows):
            style = "" if self.arrow_kind(aid) == "boundary" else " [style=bold]"
            lines.append(f"  {names[a.source]} -> {names[a.target]}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def rim_pos(v: int, mn: int) -> str:
    """DOT pin of boundary vertex v of mn on a rim of radius max(2, mn/4):
    label 1 sits near polygon vertex 1, the others go counterclockwise."""
    radius = max(2.0, mn / 4.0)
    ang = 2 * math.pi * (v - 1) / mn + math.pi / 2
    return f"{round(radius * math.cos(ang), 4)},{round(radius * math.sin(ang), 4)}!"


@cache
def _edge_points(p: tuple, j: int) -> tuple:
    """The patterns (lattice_id) of the lattice points beside the edge with
    tag (triangle, p, j), computed once per (p, j): p + e_{j+2}, on the
    white-to-black dart's side, and p + e_{j+1}, on the black-to-white one."""
    pts = _plus_e(p, (j + 2) % 3), _plus_e(p, (j + 1) % 3)
    return tuple((tuple(c for c in range(3) if pt[c]), pt) for pt in pts)


def lattice_id(tri: tuple, pattern: tuple):
    """Global id of a subdivision lattice point in triangle tri's frame,
    from its pattern: the corners c with pt[c] > 0, and the point pt."""
    inside, pt = pattern
    if len(inside) == 1:
        return ("C", tri[inside[0]])
    if len(inside) == 2:
        u, v = inside
        return ("L", (tri[u], tri[v]), pt[v])
    return ("I", tri, pt)


def _expected_boundary_lattice(label: int, m: int, n: int):
    v, t = divmod(label - 1, m)
    v += 1
    if t == 0:
        return ("C", v)
    if v < n:
        return ("L", (v, v + 1), t)
    return ("L", (1, n), m - t)


def dual_quiver(D: GLmDimer) -> QuiverWithFaces:
    """The quiver with faces dual to a reduced GL_m-dimer."""
    bad = D.contractible_blacks()
    if bad:
        raise MustReduceFirstError(
            f"dimer has 2-valent internal blacks (e.g. {bad[0]}); reduce first"
        )
    m, n = D.m, D.n
    mn = m * n

    # faces are traced on integer node indexes, given in sorted-id order so
    # that the faces come out in the same order as on the ids
    ids = sorted(D.rotation)
    index = {v: i for i, v in enumerate(ids)}
    try:
        own = {index[v]: tuple(index[w] for w in r) for v, r in D.rotation.items()}
    except KeyError:  # a node listed with no rotation of its own
        v, w = next((v, w) for v, r in D.rotation.items() for w in r if w not in index)
        raise AsymmetricRotationError(v, w) from None
    rot = dict(own)  # with the boundary circle's arcs
    for b in D.boundary:
        if len(D.rotation.get(b, ())) != 1:
            raise DimerError(
                f"boundary black {b!r} has rotation {D.rotation.get(b)!r}, not one white"
            )
    bdry = tuple(index[b] for b in D.boundary)
    for k, b in enumerate(D.boundary):
        (white,) = D.rotation[b]
        rot[bdry[k]] = (bdry[(k + 1) % mn], index[white], bdry[(k - 1) % mn])
    try:
        dart_faces = trace_faces(rot)
    except AsymmetricRotationError as exc:
        raise AsymmetricRotationError(ids[exc.v], ids[exc.w]) from None

    face_of_dart = {}
    for fi, cyc in enumerate(dart_faces):
        for dart in cyc:
            face_of_dart[dart] = fi
    outer = face_of_dart[(bdry[0], bdry[-1])]

    # boundary label k <-> the face crossed by the arc from the (k-1)-th to
    # the k-th boundary black
    label_of_face = {}
    for k in range(1, mn + 1):
        fi = face_of_dart[(bdry[k - 2], bdry[k - 1])]
        if fi == outer:
            raise QuiverError("boundary arc traced into the outer face")
        label_of_face[fi] = k

    # internal faces: identify each with its lattice point via the edge tags;
    # every dart of a face must agree, which pins down the embedding
    points = [set() for _ in dart_faces]
    edges = []  # (white index, black index, tag), in tag order
    for e, tag in sorted(D.edge_tags.items(), key=lambda kv: kv[1]):
        u, v = e
        w, b = (u, v) if D.color(u) == WHITE else (v, u)
        assert D.color(w) == WHITE and D.color(b) == BLACK
        tri, p, j = tag
        at_w, at_b = _edge_points(p, j)
        iw, ib = index[w], index[b]
        points[face_of_dart[iw, ib]].add(lattice_id(tri, at_w))
        points[face_of_dart[ib, iw]].add(lattice_id(tri, at_b))
        edges.append((iw, ib, tag))

    vertex_of_face = {}
    for fi, pts in enumerate(points):
        if fi == outer:
            continue
        if len(pts) != 1:
            raise QuiverError(f"face {fi} has inconsistent lattice points {sorted(pts)}")
        (pt,) = pts
        if fi in label_of_face:
            lbl = label_of_face[fi]
            if pt != _expected_boundary_lattice(lbl, m, n):
                raise QuiverError(f"boundary face {lbl} sits at unexpected point {pt}")
            vertex_of_face[fi] = lbl
        else:
            vertex_of_face[fi] = pt

    vertices = {}
    for fi, vid in vertex_of_face.items():
        vertices[vid] = "boundary" if fi in label_of_face else "internal"

    arrows = []
    aid_of_dart = {}  # (white index, black index) -> arrow id
    for iw, ib, tag in edges:
        src = vertex_of_face[face_of_dart[ib, iw]]
        tgt = vertex_of_face[face_of_dart[iw, ib]]
        aid_of_dart[iw, ib] = len(arrows)
        arrows.append(Arrow(src, tgt, tag))

    white_faces, black_faces = [], []
    for i, v in enumerate(ids):
        if D.color(v) == WHITE:
            cyc = [aid_of_dart[i, nb] for nb in own[i]]
            white_faces.append(Face(_normalize_cycle(cyc), v))
        elif D.location(v) != LOC_BOUNDARY:
            cyc = [aid_of_dart[nb, i] for nb in reversed(own[i])]
            black_faces.append(Face(_normalize_cycle(cyc), v))

    Q = QuiverWithFaces(m, n, vertices, arrows, white_faces + black_faces)
    for f in Q.faces:
        for i, aid in enumerate(f.cycle):
            nxt = f.cycle[(i + 1) % len(f.cycle)]
            if Q.arrow_target[aid] != Q.arrow_source[nxt]:
                raise QuiverError(f"face {f} does not chain at arrow {aid}")
    if sorted(v for v, k in Q.vertices.items() if k == "boundary") != list(range(1, mn + 1)):
        raise QuiverError("boundary labels do not cover 1..m*n")
    return Q


def _normalize_cycle(cyc: list[int]) -> tuple[int, ...]:
    k = cyc.index(min(cyc))
    return tuple(cyc[k:] + cyc[:k])


def validate_dimer_model(Q: QuiverWithFaces):
    """Check the dimer-model-with-boundary axioms plus the faces-per-vertex counts."""
    rep = ValidationReport()
    loops = [aid for aid, a in enumerate(Q.arrows) if a.source == a.target]
    rep.add("no-loops", not loops, f"loop arrows: {loops[:3]}" if loops else "")

    mult_bad, signs_bad = [], []
    for aid, fis in Q.faces_by_arrow.items():
        if len(fis) not in (1, 2):
            mult_bad.append((aid, len(fis)))
        elif Q.arrow_kind(aid) == "internal":
            signs = sorted(Q.faces[fi].orientation for fi in fis)
            if signs != ["+", "-"]:
                signs_bad.append((aid, signs))
    rep.add(
        "face-multiplicity",
        not mult_bad,
        f"arrows with multiplicity not in {{1,2}}: {mult_bad[:3]}" if mult_bad else "",
    )
    rep.add(
        "internal-arrow-signs",
        not signs_bad,
        f"internal arrows without one + and one - face: {signs_bad[:3]}" if signs_bad else "",
    )

    disconnected = []
    counts_bad = []
    for v, kind in Q.vertices.items():
        incident = set(Q.out_arrows[v]) | set(Q.in_arrows[v])
        if not incident:
            disconnected.append(v)
            continue
        adj = {a: set() for a in incident}
        nfaces = 0
        for f in Q.faces:
            cyc = f.cycle
            hits = [i for i, aid in enumerate(cyc) if Q.arrow_target[aid] == v]
            if hits:
                nfaces += len(hits)
            for i in hits:
                a_in, a_out = cyc[i], cyc[(i + 1) % len(cyc)]
                adj[a_in].add(a_out)
                adj[a_out].add(a_in)
        stack = [next(iter(incident))]
        seen = set(stack)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != incident:
            disconnected.append(v)
        allowed = {1, 3} if kind == "boundary" else {4, 6}
        if nfaces not in allowed:
            counts_bad.append((v, nfaces))
    rep.add(
        "incidence-connected",
        not disconnected,
        f"disconnected incidence graph at: {disconnected[:3]}" if disconnected else "",
    )
    rep.add(
        "faces-per-vertex",
        not counts_bad,
        f"vertices with face count outside {{1,3}}/{{4,6}}: {counts_bad[:3]}"
        if counts_bad
        else "",
    )
    return rep


def potential_relations(Q: QuiverWithFaces) -> RelationSet:
    """The cyclic derivatives of the natural potential, one per internal arrow.

    For an internal arrow a in the counterclockwise cycle (a p1 .. pk) and
    the clockwise cycle (a q1 .. ql), the RelationSet cuts the pair
    (p1..pk, q1..ql) from the two faces along a, and keeps the faces,
    which guide its equality search.
    """
    cuts = []
    for aid, fis in Q.faces_by_arrow.items():
        if Q.arrow_kind(aid) == "boundary":
            continue
        plus = [fi for fi in fis if Q.faces[fi].orientation == "+"]
        minus = [fi for fi in fis if Q.faces[fi].orientation == "-"]
        if len(plus) != 1 or len(minus) != 1:
            raise MalformedQuiverError(f"internal arrow {aid} lacks a +/- face pair")
        cuts.append((aid, plus[0], minus[0]))
    return RelationSet(Q, cuts=cuts)


def chordless_cycle_at(Q: QuiverWithFaces, v) -> Path:
    """The boundary cycle of the shortest face through v, rotated to start at v."""
    return chordless_cycles(Q, (v,))[v]


def chordless_cycles(Q: QuiverWithFaces, vertices) -> dict:
    """chordless_cycle_at(Q, v) for every v in vertices, in one pass over the
    faces.  On ties the first shortest face in face order is kept, and a
    face through v more than once is rotated to v's first occurrence."""
    best = dict.fromkeys(vertices)
    for f in Q.faces:
        cyc = f.cycle
        for i, aid in enumerate(cyc):
            v = Q.arrow_source[aid]
            if v in best and (best[v] is None or len(cyc) < len(best[v][0])):
                best[v] = (cyc, i)
    for v, found in best.items():
        if found is None:
            raise NoCycleError(f"no face passes through vertex {v!r}")
    return {v: Path(Q, tuple(cyc[i:] + cyc[:i])) for v, (cyc, i) in best.items()}
