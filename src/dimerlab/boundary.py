"""Boundary-algebra presentations and the canonical quiver Gamma(m, n).

The boundary algebra is spanned by paths that start and end on boundary
vertices.  Its quiver is extracted from a dimer-model quiver in one walk
over the primitive boundary-to-boundary paths (interior vertices all
internal): each path no earlier closure reached is closed under the
relations, and a closure that reaches a word through a boundary vertex
marks a composition of two other classes, while one that completes is a
generator class.  The walk does not extend a prefix that equals a word
through a boundary vertex: every path through it is such a composition,
so the work follows the generators, not the paths.
The generator classes are matched, on the boundary labels the dual
quiver fixes, against the canonical quiver Gamma(m, n): m*n cyclic
vertices with arrow families

    x_k : k-1 -> k                     every k,
    y_k : k+2+2k' -> k   k' = (-k) mod m,   k != 1 (mod m),
    z_k : k+1 -> k                     k != 0, 1 (mod m),

3*n*(m-1) arrows in total.  The relation families of the main theorem,
the generator-path formulas for fan triangulations, the central element,
and flip transport are all verified against the extracted presentation by
the path-equality engine.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import KeysView
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

from .dimer import ValidationReport, build_dimer, reduce_dimer
from .polygon import Triangulation, flip, rotate
from .quiver import (
    QuiverWithFaces,
    _normalize_cycle,
    chordless_cycles,
    dual_quiver,
    potential_relations,
    rim_pos,
)
from .rewrite import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    EqualityVerdict,
    OracleSoundnessError,
    Path,
    RelationSet,
    SearchBudget,
    _replay,
    class_contains,
    paths_equal,
)


class BoundaryError(ValueError):
    """Base class for errors raised by this module."""


class InconclusivePresentationError(BoundaryError):
    """The search budget ran out before a primitive boundary path's class
    was known to be a generator or a composition."""


class IncompatibleGammaError(BoundaryError):
    """Vertex counts of a presentation and a Gamma quiver differ."""


class FormulaMismatchError(BoundaryError):
    """A generator-path formula fails to compose in the fan quiver."""


def modl(x: int, modulus: int) -> int:
    """Reduce an index into [1, modulus] (0 is never used as an index)."""
    return (x - 1) % modulus + 1


# ---------------------------------------------------------------------------
# Gamma(m, n)


@dataclass(frozen=True)
class GammaQuiver:
    m: int
    n: int
    arrows: dict = field(hash=False)  # name ('x'|'y'|'z', k) -> (source, target)

    @property
    def vertex_count(self) -> int:
        return self.m * self.n

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "vertices": self.vertex_count,
            "arrows": [
                {"name": f"{fam}_{k}", "source": src, "target": tgt}
                for (fam, k), (src, tgt) in sorted(self.arrows.items())
            ],
        }

    def to_dot(self) -> str:
        mn = self.vertex_count
        lines = ["digraph gamma {", "  layout=neato;", "  node [shape=circle];"]
        for v in range(1, mn + 1):
            lines.append(f'  v{v} [label="{v}", pos="{rim_pos(v, mn)}"];')
        styles = {"x": "", "y": " [color=red]", "z": " [color=blue]"}
        for (fam, k), (src, tgt) in sorted(self.arrows.items()):
            lines.append(f"  v{src} -> v{tgt}{styles[fam]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def gamma_tail(k: int, m: int, mn: int) -> int:
    """Source of the y-arrow with sink k: k + 2 + 2*((-k) mod m)."""
    return modl(k + 2 + 2 * ((-k) % m), mn)


def build_gamma(m: int, n: int) -> GammaQuiver:
    """The canonical boundary quiver: m*n cyclic vertices, arrow families x, y, z."""
    if m < 2 or n < 3:
        raise BoundaryError(f"Gamma(m, n) needs m >= 2 and n >= 3, got {(m, n)}")
    mn = m * n
    arrows = {}
    for k in range(1, mn + 1):
        arrows[("x", k)] = (modl(k - 1, mn), k)
        if k % m != 1 % m:
            arrows[("y", k)] = (gamma_tail(k, m, mn), k)
        if k % m not in (0, 1 % m):
            arrows[("z", k)] = (modl(k + 1, mn), k)
    assert len(arrows) == 3 * n * (m - 1)
    return GammaQuiver(m, n, arrows)


@cache
def _gamma_tables(m: int, n: int) -> tuple[GammaQuiver, dict, tuple]:
    """Gamma(m, n), built once per (m, n) and shared (read-only), with the
    name of its arrow between each (source, target) (Gamma has at most one
    per pair) and the relation table of verify_theorem_relations: one
    (family, k, lhs, rhs, text) entry per instance, in the order they are
    checked, a side being a tuple of Gamma arrow names (letter, index)."""
    G = build_gamma(m, n)
    names = {ends: name for name, ends in G.arrows.items()}
    mn = m * n

    def text(word: tuple) -> str:
        return " ".join(f"{fam}_{i}" for fam, i in word)

    table = []
    for k in range(1, mn + 1):
        km = k % m
        y_tail = gamma_tail(k, m, mn)
        iii_rhs = [("y", k - 2), ("x", k - 1), ("x", k)]
        iv_rhs = [("z", k - 1), ("x", k)] if m > 2 else iii_rhs  # m = 2: no z arrows
        rows = [
            ("I", km not in (0, 1), [("x", y_tail), ("y", k)], [("y", k + 1), ("z", k)]),
            ("II", km not in (0, 1, 2), [("x", k + 1), ("z", k)], [("z", k - 1), ("x", k)]),
            ("III", km == 2, [("x", k + 1), ("z", k)], iii_rhs),
            ("IV", km == 0, [("x", k + 1), ("x", k + 2), ("y", k)], iv_rhs),
            (
                "V",
                km != 1 % m,
                [("y", y_tail), ("y", k)],
                [("x", k + 2 * m + 1 + i) for i in range(mn - 2 * m)],
            ),
        ]
        for fam, applies, lhs_word, rhs_word in rows:
            if not applies:
                continue
            lhs = tuple((letter, modl(i, mn)) for letter, i in lhs_word)
            rhs = tuple((letter, modl(i, mn)) for letter, i in rhs_word)
            # V's long x side is shown by its two ends
            rhs_text = (
                f"{text(rhs[:1])}..{text(rhs[-1:])} ({len(rhs)} arrows)"
                if fam == "V"
                else text(rhs)
            )
            table.append((fam, k, lhs, rhs, f"{text(lhs)} = {rhs_text}"))
    return G, names, tuple(table)


# ---------------------------------------------------------------------------
# Presentation extraction


@dataclass(frozen=True)
class GeneratorClass:
    """A class of boundary paths, given by one member: its ends and its
    Gamma family are the representative's."""

    rep: Path
    size: int  # number of primitive paths merged into the class

    @property
    def source(self) -> int:
        return self.rep.source

    @property
    def target(self) -> int:
        return self.rep.target

    @property
    def tag(self) -> str | None:
        """Family of Gamma's arrow with these ends, if it has one."""
        Q = self.rep.quiver
        name = _gamma_tables(Q.m, Q.n)[1].get((self.source, self.target))
        return name and name[0]

    def describe(self) -> str:
        return f"{self.tag or '?'}:{self.source}->{self.target}"


@dataclass
class BoundaryPresentation:
    """The generator classes of one quiver's boundary algebra, with the
    relation set they were extracted under; the quiver is that set's, so
    every check of the presentation reads one (Q, R) pair."""

    relation_set: RelationSet
    classes: tuple[GeneratorClass, ...]

    @cached_property
    def obstruction(self) -> str | None:
        """match_gamma(self), computed once: None when the match holds."""
        return match_gamma(self)

    @property
    def matched(self) -> bool:
        return self.obstruction is None

    @cached_property
    def named(self) -> dict[tuple, GeneratorClass]:
        """Gamma arrow name (family, k) -> the class with its ends; raises
        BoundaryError for an unmatched presentation."""
        if self.obstruction is not None:
            raise BoundaryError(f"Gamma match required first: {self.obstruction}")
        names = _gamma_tables(self.m, self.n)[1]
        return {names[c.source, c.target]: c for c in self.classes}

    @property
    def quiver(self) -> QuiverWithFaces:
        return self.relation_set.quiver

    @property
    def m(self) -> int:
        return self.quiver.m

    @property
    def n(self) -> int:
        return self.quiver.n

    @property
    def boundary_count(self) -> int:
        return len(self.quiver.boundary_vertices)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "boundary_vertices": self.boundary_count,
            "generators": [
                {
                    "source": c.source,
                    "target": c.target,
                    "tag": c.tag,
                    "representative": list(c.rep.arrows),
                    "class_size": c.size,
                }
                for c in self.classes
            ],
        }


def boundary_generators(
    R: RelationSet, budget: SearchBudget = SearchBudget()
) -> BoundaryPresentation:
    """Extract the generator classes of the boundary algebra of R.quiver,
    under the relations of R, in one walk; the presentation keeps R.

    The walk follows the primitive paths from each boundary vertex: through
    internal vertices only, each visited at most once.  A prefix extended
    to an internal vertex gets one closure (factors_through_boundary); if
    it reaches a word w through a boundary vertex, the prefix u is not
    extended, since every extension u t equals w t and is composite.  A
    prefix closure that completes without such a word, or is truncated,
    keeps the prefix.  A path reaching a boundary vertex that no earlier
    closure reached gets one closure too.  A composite one places its
    states.  A complete one is the path's whole equality class: its
    primitive states (no intermediate vertex repeated) form the generator
    class, and its least in (length, arrows) order is the representative,
    whichever member the walk met first.  Every primitive member of a
    generator class is walked, as a composite prefix has only composite
    extensions.  A truncated closure of a path raises InconclusivePresentationError.
    """
    Q = R.quiver
    internal = {v for v, kind in Q.vertices.items() if kind == "internal"}
    classes: list[GeneratorClass] = []
    placed: set[tuple] = set()

    def walk(prefix: list[int], at, seen: set) -> None:
        for aid in Q.out_arrows[at]:
            tgt = Q.arrow_target[aid]
            if tgt in internal:
                if tgt in seen:
                    continue
                prefix.append(aid)
                if factors_through_boundary(Path(Q, prefix), R, budget)[0] != "composite":
                    seen.add(tgt)
                    walk(prefix, tgt, seen)
                    seen.remove(tgt)
                prefix.pop()
                continue
            arrows = (*prefix, aid)
            if arrows in placed:
                continue
            p = Path(Q, arrows)
            verdict, visited, states = factors_through_boundary(p, R, budget)
            if verdict == "truncated":
                raise InconclusivePresentationError(
                    f"cannot decide within budget (max_visited={budget.max_visited}) "
                    f"whether the class of {p.arrows} ({p.source}->{p.target}) "
                    f"is a generator (visited {visited})"
                )
            placed.update(states)
            if verdict == "generator":
                classes.append(_generator_class(Q, states))

    for s in Q.boundary_vertices:
        walk([], s, set())
    return BoundaryPresentation(relation_set=R, classes=_sorted(classes))


def _generator_class(Q: QuiverWithFaces, states) -> GeneratorClass:
    """The class of a complete closure's states: its primitive members (no
    intermediate vertex repeated), represented by the least in (length,
    arrows) order."""
    members = []
    for arrows in states:
        stops = [Q.arrow_target[a] for a in arrows[:-1]]
        if len(set(stops)) == len(stops):
            members.append(arrows)
    return GeneratorClass(Path(Q, min(members, key=lambda a: (len(a), a))), size=len(members))


def _sorted(classes) -> tuple[GeneratorClass, ...]:
    """The classes in presentation order: by target, source, then arrows."""
    return tuple(sorted(classes, key=lambda c: (c.target, c.source, c.rep.arrows)))


def factors_through_boundary(
    p: Path, R: RelationSet, budget: SearchBudget = SearchBudget()
) -> tuple[str, int, KeysView[tuple]]:
    """Whether some path equal to p visits a boundary vertex strictly inside.

    For a boundary-to-boundary p, such a path splits into two shorter
    boundary-to-boundary paths, so the class of p is a composition of
    shorter classes and is no generator.  p may also be a prefix from a
    boundary vertex to an internal one (boundary_generators' walk): then
    every extension of p to a boundary vertex is composite.
    Returns the verdict, the states visited and those states (as
    class_contains).  The verdict is 'composite' when a split is found,
    'generator' when the whole equality class was enumerated without one
    (the states are then that class), and 'truncated' when the budget ran
    out first.
    """
    Q = p.quiver
    boundary = Q.boundary_vertex_set

    def visits_boundary(arrows: tuple) -> bool:
        return any(Q.arrow_target[a] in boundary for a in arrows[:-1])

    found, visited, states = class_contains(p, R, visits_boundary, budget)
    return {True: "composite", False: "generator", None: "truncated"}[found], visited, states


# ---------------------------------------------------------------------------
# Gamma matching


def match_gamma(BP: BoundaryPresentation) -> str | None:
    """None when the presentation's classes are the arrows of Gamma(m, n)
    one for one, (m, n) those of its quiver, each class the arrow with its
    (source, target): Gamma has at most one per pair, so the ends fix the
    name.  Else the obstruction, naming up to four each of the classes off
    Gamma, the arrows without a class and the ends held by several
    classes.  Raises IncompatibleGammaError when the quiver does not have
    m*n boundary vertices (a hand-made quiver can claim any m and n).

    The boundary labels are the polygon's own (dual_quiver fixes them), so
    no relabelling is searched.
    """
    G, names, _ = _gamma_tables(BP.m, BP.n)
    if BP.boundary_count != G.vertex_count:
        raise IncompatibleGammaError(
            f"presentation has {BP.boundary_count} boundary vertices, "
            f"Gamma({G.m},{G.n}) has {G.vertex_count}"
        )
    held = Counter((c.source, c.target) for c in BP.classes)
    if held == Counter(names.keys()):
        return None
    untaggable = [f"{s}->{t}" for s, t in held if (s, t) not in names]
    missing = [f"{fam}_{k}" for fam, k in sorted(G.arrows) if G.arrows[fam, k] not in held]
    shared = [f"{s}->{t}" for (s, t), count in held.items() if count > 1]
    return (
        f"the {len(BP.classes)} generators do not match the {len(G.arrows)} "
        f"arrows of Gamma({G.m},{G.n}); untaggable classes: {untaggable[:4]}; "
        f"arrows without a class: {missing[:4]}; ends held by several classes: {shared[:4]}"
    )


# ---------------------------------------------------------------------------
# Theorem relations, central element


@dataclass
class RelationInstance:
    family: str
    k: int
    description: str
    verdict: EqualityVerdict


@dataclass
class RelationReport:
    instances: list[RelationInstance] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.instances) and all(
            inst.verdict.outcome == EQUAL for inst in self.instances
        )

    def unknowns(self) -> list[RelationInstance]:
        return [i for i in self.instances if i.verdict.outcome == UNKNOWN]

    def inconclusive(self) -> list[str]:
        return [f"relation {i.family}@{i.k}" for i in self.unknowns()]

    def failures(self) -> list[RelationInstance]:
        return [i for i in self.instances if i.verdict.outcome == DISTINCT]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "instances": [
                {
                    "family": i.family,
                    "k": i.k,
                    "relation": i.description,
                    "verdict": i.verdict.outcome,
                }
                for i in self.instances
            ],
        }


def verify_theorem_relations(
    BP: BoundaryPresentation,
    budget: SearchBudget = SearchBudget(),
    *,
    like: VerificationOutcome | _Symmetry | None = None,
) -> RelationReport:
    """Check every instance of the main theorem's relation families.

    Families, for k in [1, m*n] (indices mod m*n, k' = (-k) mod m):
      I    x_{k+2+2k'} y_k = y_{k+1} z_k          k != 0,1 (mod m)
      II   x_{k+1} z_k = z_{k-1} x_k              k != 0,1,2 (mod m)
      III  x_{k+1} z_k = y_{k-2} x_{k-1} x_k      k == 2 (mod m)
      IV   x_{k+1} x_{k+2} y_k = z_{k-1} x_k      k == 0 (mod m)
      V    y_{k+2+2k'} y_k = x_{k+2m+1} .. x_k    k != 1 (mod m)
    For m = 2 families I-III are empty and IV degenerates to
    x_{k+1} x_{k+2} y_k = y_{k-2} x_{k-1} x_k.

    like, the outcome of a rotation of BP's triangulation (see
    verify_boundary_algebra), lends each instance the certificate of its
    rotated instance, replayed before any search; verify_boundary_algebra
    hands over the _Symmetry it built from one instead.
    """
    carried = _symmetry(BP, like)
    report = RelationReport()
    for family, k, *sides, text in _gamma_tables(BP.m, BP.n)[2]:
        # one path per side, from its representatives' arrows in one tuple
        lhs, rhs = (
            Path(BP.quiver, [a for name in side for a in BP.named[name].rep.arrows])
            for side in sides
        )
        steps = carried and carried.theorem(family, k)
        verdict = _equal(lhs, rhs, BP.relation_set, budget, steps)
        report.instances.append(RelationInstance(family, k, text, verdict))
    return report


@dataclass
class CentralElementReport:
    entries: list[tuple[str, EqualityVerdict]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.entries) and all(
            v.outcome == EQUAL for _, v in self.entries
        )

    def unknowns(self) -> list[str]:
        return [d for d, v in self.entries if v.outcome == UNKNOWN]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "generators": [
                {"generator": d, "verdict": v.outcome} for d, v in self.entries
            ],
        }


def verify_central_element(
    BP: BoundaryPresentation,
    budget: SearchBudget = SearchBudget(),
    *,
    like: VerificationOutcome | _Symmetry | None = None,
) -> CentralElementReport:
    """Check u_{s(a)} a = a u_{t(a)} for every boundary generator a.

    This is the generator-wise restatement of the centrality of the sum of
    one chordless cycle per boundary vertex.  like, as for
    verify_theorem_relations, lends each generator the certificate of the
    generator of like with the rotated ends.
    """
    Q, R = BP.quiver, BP.relation_set
    u = chordless_cycles(Q, Q.boundary_vertices)
    carried = _symmetry(BP, like)
    report = CentralElementReport()
    for c in BP.classes:
        steps = carried and carried.central(c.source, c.target)
        verdict = _equal(u[c.source] * c.rep, c.rep * u[c.target], R, budget, steps)
        report.entries.append((c.describe(), verdict))
    return report


def _equal(p: Path, q: Path, R: RelationSet, budget: SearchBudget, steps) -> EqualityVerdict:
    """paths_equal(p, q, R, budget), unless steps, a certificate carried
    from a rotation (or None), replays on R from p to q: that is Equal,
    with those steps as its certificate and no state visited."""
    if steps is not None:
        try:
            if _replay(p.arrows, steps, R) == q.arrows:
                return EqualityVerdict(EQUAL, certificate=steps, visited=0)
        except OracleSoundnessError:  # a step that does not match
            pass
    return paths_equal(p, q, R, budget)


def _turned_tags(Q: QuiverWithFaces, r: int) -> list[tuple]:
    """The construction tag (triangle, point, side) of each arrow of Q,
    carried by rotate(., r) of its n-gon, by arrow id.  A triangle's turned
    corners are a cyclic shift s of the ascending triple (turning keeps the
    counterclockwise order), so the point's coordinates shift by s and
    side j becomes side j - s; each triangle is turned once."""
    turns, tags = {}, []
    for a in Q.arrows:
        tri, p, j = a.dual
        if tri not in turns:
            turned = [(x - 1 + r) % Q.n + 1 for x in tri]
            s = turned.index(min(turned))
            turns[tri] = tuple(turned[s:] + turned[:s]), s
        tri, s = turns[tri]
        tags.append((tri, p[s:] + p[:s], (j - s) % 3))
    return tags


def _rotation_offset(like: VerificationOutcome, m: int, n: int, triangles) -> int:
    """The r with rotate(like.triangulation, r) made of these triangles of
    the n-gon; raises BoundaryError when like is of another m or n, or no
    rotation of its triangulation has them."""
    T0, triangles = like.triangulation, tuple(sorted(triangles))
    if (like.m, T0.n) == (m, n):
        for r in range(n):
            if rotate(T0, r).triangles == triangles:
                return r
    raise BoundaryError(
        f"like= is the outcome of {T0!r} at m={like.m}, "
        f"no rotation of a triangulation with triangles {list(triangles)} at m={m}"
    )


def _isomorphism(R0: RelationSet, R: RelationSet, r: int) -> tuple[list, list] | None:
    """phi, the map of each arrow of R0's quiver Q0 to the arrow of R's
    quiver Q with its tag turned by r (_turned_tags), with the relation images,
    both as lists by R0's ids; None unless phi is certified, in one pass:

    - phi is a bijection of the arrows;
    - the vertex map it induces is well defined and one to one, keeps
      each vertex's kind, and sends boundary label k to k + m*r;
    - each face cycle of Q0 goes, up to a cyclic shift, onto its own face
      cycle of Q with the same orientation;
    - each relation of R0, known by its face pair (F+, F-) and the first
      arrow of its left side, which follows its cut arrow on F+, goes onto
      the relation of R with phi's face pair and first arrow, one to one.

    A relation is cut from its face pair, so phi then sends R0's relations
    onto R's, each equality class onto an equality class, and keeps
    primitivity and the boundary vertices a word visits strictly inside."""
    Q0, Q = R0.quiver, R.quiver
    if R0.faces is None or R.faces is None or (Q0.m, Q0.n) != (Q.m, Q.n):
        return None

    def sizes(S: RelationSet) -> tuple:
        return len(S.quiver.vertices), len(S.quiver.arrows), len(S.quiver.faces), len(S)

    if sizes(R0) != sizes(R):
        return None
    by_tag = {a.dual: aid for aid, a in enumerate(Q.arrows)}
    phi = [by_tag.get(tag) for tag in _turned_tags(Q0, r)]
    if None in phi or len(set(phi)) != len(phi):
        return None
    mn, source, target = Q.m * Q.n, Q.arrow_source, Q.arrow_target
    vertex = {k: modl(k + Q.m * r, mn) for k in Q0.boundary_vertex_set}
    for a, aid in zip(Q0.arrows, phi):
        if vertex.setdefault(a.source, source[aid]) != source[aid]:
            return None
        if vertex.setdefault(a.target, target[aid]) != target[aid]:
            return None
    if len(set(vertex.values())) != len(Q0.vertices) or any(
        Q.vertices.get(v) != Q0.vertices.get(v0) for v0, v in vertex.items()
    ):
        return None
    cycles = {_normalize_cycle(list(f.cycle)): fi for fi, f in enumerate(Q.faces)}
    faces = []
    for f in Q0.faces:
        fi = cycles.get(_normalize_cycle([phi[a] for a in f.cycle]))
        if fi is None or Q.faces[fi].orientation != f.orientation:
            return None
        faces.append(fi)
    if len(set(faces)) != len(faces):
        return None
    relation = {
        (plus, minus, lhs.arrows[0]): ridx
        for ridx, ((lhs, _), (plus, minus)) in enumerate(zip(R.relations, R.faces))
    }
    images = [
        relation.get((faces[plus], faces[minus], phi[lhs.arrows[0]]))
        for (lhs, _), (plus, minus) in zip(R0.relations, R0.faces)
    ]
    if None in images or len(set(images)) != len(images):
        return None
    return phi, images


def _carried_classes(
    classes: tuple[GeneratorClass, ...], phi: list, R: RelationSet, budget: SearchBudget
) -> tuple[GeneratorClass, ...] | None:
    """The generator classes of R, from those of R0 under a certified phi
    (_isomorphism): a class of one member whose image has no rewrite site
    is that one word, and any other gets one factors_through_boundary
    closure from its image, which must end 'generator' with the class's
    size, and is represented by its least primitive member in R's own
    (length, arrows) order.  None when a closure does not."""
    Q = R.quiver
    carried = []
    for c in classes:
        image = tuple(phi[a] for a in c.rep.arrows)
        if c.size == 1 and not R.sites(image):
            carried.append(GeneratorClass(Path(Q, image), size=1))
            continue
        verdict, _, states = factors_through_boundary(Path(Q, image), R, budget)
        if verdict != "generator":
            return None
        closed = _generator_class(Q, states)
        if closed.size != c.size:
            return None
        carried.append(closed)
    return _sorted(carried)


class _Symmetry:
    """rotate(., r) from like, the outcome of a triangulation T0, onto R,
    the relation set of T = rotate(T0, r), built once per row: phi and the
    relation images when _isomorphism certifies them, and like's verdicts,
    keyed by T's (family, k) and by T's generator ends (a rotation sends
    boundary label k to k + m*r).  A carried certificate maps each step's
    relation to its image; one whose steps do not match does not replay.
    Without a certified phi nothing is carried: T's presentation is walked
    and every query is searched."""

    def __init__(self, like: VerificationOutcome, R: RelationSet, r: int):
        self.like, self.relation_set = like, R
        self.instances, self.ends = {}, {}
        BP0 = like.presentation
        self.phi, self.images = (BP0 and _isomorphism(BP0.relation_set, R, r)) or (None, None)
        if self.phi is None:
            return
        Q = R.quiver
        mn = Q.m * Q.n

        def turned(label: int) -> int:
            return modl(label + Q.m * r, mn)

        if like.relations is not None:
            for i in like.relations.instances:
                self.instances[i.family, turned(i.k)] = i.verdict
        if like.central is not None:
            for c, (_, verdict) in zip(BP0.classes, like.central.entries):
                self.ends[turned(c.source), turned(c.target)] = verdict

    def presentation(self, budget: SearchBudget) -> BoundaryPresentation:
        """T's presentation: like's classes carried along phi
        (_carried_classes), or boundary_generators' walk when phi is not
        certified or a carried class is not confirmed."""
        R, classes = self.relation_set, None
        if self.phi is not None:
            classes = _carried_classes(self.like.presentation.classes, self.phi, R, budget)
        if classes is None:
            return boundary_generators(R, budget)
        return BoundaryPresentation(relation_set=R, classes=classes)

    def theorem(self, family: str, k: int) -> tuple | None:
        """The steps carried from like's instance (family, k - m*r)."""
        return self._carry(self.instances.get((family, k)))

    def central(self, source: int, target: int) -> tuple | None:
        """The steps carried from the entry of like's generator with ends
        (source - m*r, target - m*r)."""
        return self._carry(self.ends.get((source, target)))

    def _carry(self, verdict: EqualityVerdict | None) -> tuple | None:
        if verdict is None or verdict.outcome != EQUAL:
            return None
        images = self.images
        if not all(0 <= ridx < len(images) for _, ridx, _ in verdict.certificate):
            return None
        return tuple((pos, images[ridx], direction) for pos, ridx, direction in verdict.certificate)


def _symmetry(BP: BoundaryPresentation, like) -> _Symmetry | None:
    """like as a _Symmetry onto BP's relation set: None without like, like
    itself when verify_boundary_algebra has built it for this row (so r and
    phi are found once per row), else built from the outcome like."""
    if like is None or isinstance(like, _Symmetry):
        return like
    Q = BP.quiver
    r = _rotation_offset(like, Q.m, Q.n, {a.dual[0] for a in Q.arrows})
    return _Symmetry(like, BP.relation_set, r)


# ---------------------------------------------------------------------------
# Fan structure and the named generator-path formulas of the fan quiver


def fan_m2_structure_report(Q: QuiverWithFaces):
    """Check that the dual quiver of a GL_2 fan has the canonical fan shape.

    Expected: 2n boundary and n-3 internal vertices; boundary arrows
    x_1..x_{2n}, a single arrow 4 -> 2 and a single arrow 2n -> 2n-2; an
    internal chain 2 -> i_1 -> .. -> i_{n-3} -> 2n with side arrows
    i_k -> 2k+2 and 2k+4 -> i_k; and 2n-2 faces.  For n = 3 the chain
    collapses to the single arrow 2 -> 6.
    """
    rep = ValidationReport()
    n = Q.n
    mn = 2 * n
    if Q.m != 2:
        rep.add("m", False, f"expected m=2, got {Q.m}")
        return rep
    rep.add(
        "vertex-counts",
        len(Q.boundary_vertices) == mn and len(Q.internal_vertices) == n - 3,
        f"{len(Q.boundary_vertices)} boundary, {len(Q.internal_vertices)} internal",
    )
    missing_x = [
        k for k in range(1, mn + 1) if Q.find_arrow(modl(k - 1, mn), k) is None
    ]
    rep.add("x-arrows", not missing_x, f"missing x at {missing_x}" if missing_x else "")
    rep.add("y4", Q.find_arrow(4, 2) is not None, "missing arrow 4->2")
    rep.add(
        "y2n",
        Q.find_arrow(mn, mn - 2) is not None,
        f"missing arrow {mn}->{mn - 2}",
    )

    expected = {(modl(k - 1, mn), k) for k in range(1, mn + 1)}
    expected |= {(4, 2), (mn, mn - 2)}
    if n == 3:
        expected.add((2, 6))
    else:
        inner = []
        cur = 2
        for k in range(1, n - 2):
            hits = [
                aid
                for aid in Q.out_arrows[cur]
                if Q.vertices[Q.arrow_target[aid]] == "internal"
            ]
            if len(hits) != 1:
                rep.add("alpha-chain", False, f"no unique chain arrow out of {cur!r}")
                return rep
            cur = Q.arrow_target[hits[0]]
            inner.append(cur)
        rep.add(
            "alpha-chain",
            Q.find_arrow(inner[-1], mn) is not None,
            f"chain does not close onto {mn}",
        )
        expected.add((2, inner[0]))
        expected |= {(inner[k], inner[k + 1]) for k in range(len(inner) - 1)}
        expected.add((inner[-1], mn))
        beta_gamma_ok = True
        for k in range(1, n - 2):
            i_k = inner[k - 1]
            expected.add((i_k, 2 * k + 2))
            expected.add((2 * k + 4, i_k))
            if (
                Q.find_arrow(i_k, 2 * k + 2) is None
                or Q.find_arrow(2 * k + 4, i_k) is None
            ):
                beta_gamma_ok = False
        rep.add("beta-gamma", beta_gamma_ok, "missing beta/gamma arrows")

    actual = {(a.source, a.target) for a in Q.arrows}
    rep.add(
        "exact-arrow-set",
        actual == expected and len(Q.arrows) == len(expected),
        f"extra: {sorted(map(str, actual - expected))[:3]}, "
        f"missing: {sorted(map(str, expected - actual))[:3]}",
    )
    rep.add("face-count", len(Q.faces) == mn - 2, f"{len(Q.faces)} faces")
    return rep


def _move_class(tag: tuple) -> str:
    """Geometric class of a fan-quiver arrow from its dual-edge tag.

    In a triangle whose first corner is the fan apex, side index j yields
    the lattice move p+e_{j+1} -> p+e_{j+2}: j=0 circles the apex (class A,
    the nested alpha chains), j=1 steps toward the apex (class C),
    j=2 steps away from it (class B).
    """
    return {0: "A", 1: "C", 2: "B"}[tag[2]]


def fan_generator_paths(Q: QuiverWithFaces) -> dict:
    """The named generator paths of the fan quiver Q, built structurally.

    Yields a table name -> Path covering all of Gamma(m, n), each path
    starting at its Gamma arrow's source: x arrows, the z paths (one
    internal stopover), and the y paths as class chains (k'+1 apex-ward C
    moves and/or k'+1 outward B moves, or a full circular A chain).  Raises
    FormulaMismatchError where the expected arrow does not exist or is
    ambiguous.
    """
    tris = {a.dual[0] for a in Q.arrows}
    if any(tri[0] != 1 for tri in tris):
        raise FormulaMismatchError("quiver is not the fan with apex 1")
    m, n = Q.m, Q.n
    mn = m * n

    def out_arrow_of_class(v, cls: str) -> int:
        hits = [
            aid for aid in Q.out_arrows[v] if _move_class(Q.arrows[aid].dual) == cls
        ]
        if len(hits) != 1:
            raise FormulaMismatchError(
                f"expected one class-{cls} arrow out of {v!r}, found {len(hits)}"
            )
        return hits[0]

    table: dict[tuple, Path] = {}
    for (fam, h), (tail, _) in sorted(_gamma_tables(m, n)[0].arrows.items()):
        if fam == "x":
            aid = Q.find_arrow(tail, h)
            if aid is None:
                raise FormulaMismatchError(f"missing boundary arrow x_{h}")
            arrows = [aid]
        elif fam == "z":
            stops = [
                aid
                for aid in Q.out_arrows[tail]
                if Q.vertices[Q.arrow_target[aid]] == "internal"
                and Q.find_arrow(Q.arrow_target[aid], h) is not None
            ]
            if len(stops) != 1:
                raise FormulaMismatchError(
                    f"z_{h} needs one internal stopover {tail}->v->{h}, found {len(stops)}"
                )
            v = Q.arrow_target[stops[0]]
            arrows = [stops[0], Q.find_arrow(v, h)]
        elif h >= m * (n - 1) + 2:
            arrows, v = [], tail
            for _ in range(mn):
                if v == h:
                    break
                aid = out_arrow_of_class(v, "A")
                arrows.append(aid)
                v = Q.arrow_target[aid]
            if v != h:
                raise FormulaMismatchError(f"alpha chain from {tail} misses {h}")
        else:
            kp = (-h) % m
            if 2 <= h <= m:
                steps = ["C"] * (kp + 1)
            elif m * (n - 2) + 2 <= h <= m * (n - 1):
                steps = ["B"] * (kp + 1)
            else:
                steps = ["C"] * (kp + 1) + ["B"] * (kp + 1)
            arrows, v = [], tail
            for cls in steps:
                aid = out_arrow_of_class(v, cls)
                arrows.append(aid)
                v = Q.arrow_target[aid]
            if v != h:
                raise FormulaMismatchError(
                    f"y_{h} path lands on {v!r} instead of {h}"
                )
        table[(fam, h)] = Q.path(arrows)
    return table


def check_fan_formulas(
    BP: BoundaryPresentation, budget: SearchBudget = SearchBudget()
) -> RelationReport:
    """Check that each formula path equals the extracted class with its name
    (BP.named); one instance per Gamma arrow, named like the arrow."""
    named = BP.named
    report = RelationReport()
    for (fam, k), path in sorted(fan_generator_paths(BP.quiver).items()):
        verdict = paths_equal(path, named[fam, k].rep, BP.relation_set, budget)
        report.instances.append(RelationInstance(fam, k, f"{fam}_{k}", verdict))
    return report


# ---------------------------------------------------------------------------
# Full pipeline and flip transport


@dataclass
class VerificationOutcome:
    m: int
    triangulation: Triangulation
    presentation: BoundaryPresentation | None = None
    relations: RelationReport | None = None
    central: CentralElementReport | None = None
    inconclusive: list[str] = field(default_factory=list)

    @property
    def matched(self) -> bool:
        return self.presentation is not None and self.presentation.matched

    @property
    def generator_count(self) -> int:
        return len(self.presentation.classes) if self.presentation else 0

    @property
    def passed(self) -> bool:
        return (
            self.matched
            and self.relations is not None
            and self.relations.passed
            and self.central is not None
            and self.central.passed
        )

    def to_json(self) -> dict:
        BP = self.presentation
        return {
            "n": self.triangulation.n,
            "m": self.m,
            "triangulation": self.triangulation.to_json(),
            "matched": self.matched,
            # kept so the report keeps its shape: labels are matched unrotated
            "rotation": 0 if self.matched else None,
            "generators": self.generator_count,
            "obstruction": BP.obstruction if BP else None,
            "presentation": BP.to_json() if BP else None,
            "relations": self.relations.to_json() if self.relations else None,
            "central_element": self.central.to_json() if self.central else None,
            "inconclusive": self.inconclusive,
            "passed": self.passed,
        }


def _relations(T: Triangulation, m: int) -> RelationSet:
    """Build, reduce and dualize T's GL_m-dimer; its potential's relations."""
    return potential_relations(dual_quiver(reduce_dimer(build_dimer(T, m))))


@lru_cache(maxsize=1)
def _extract(T: Triangulation, m: int, budget: SearchBudget) -> BoundaryPresentation:
    """Build, reduce, dualize and extract the presentation; raises
    InconclusivePresentationError, which is never kept.  The last result is
    kept, with its Gamma match once read: along a flip walk each move's
    before-side is the previous move's after-side."""
    return boundary_generators(_relations(T, m), budget)


def verify_boundary_algebra(
    T: Triangulation,
    m: int,
    budget: SearchBudget = SearchBudget(),
    *,
    like: VerificationOutcome | None = None,
) -> VerificationOutcome:
    """Run the full pipeline on one triangulation: build, reduce, dualize,
    extract, match against Gamma(m, n), verify relations and centrality.

    like, when given, is the outcome of this function on T0 at the same m,
    with T = rotate(T0, r) for some r; BoundaryError is raised for any
    other, before anything is built.  A rotation carries T0's dimer, quiver
    and potential onto T's, and boundary label k onto k + m*r.  T's quiver
    and relations are still built, and the map phi of T0's arrows onto T's
    by their turned tags is certified against them in one pass: phi is a
    bijection, its vertex map is one to one and sends label k to k + m*r,
    and each face cycle goes onto a face cycle of the same orientation, so
    each relation goes onto a relation (see _isomorphism).  Then T's
    generator classes are phi of like's: a class of one word without a
    rewrite site is that word, any other is closed once under T's
    relations, and no extraction walk runs.  When phi fails, or like has
    no presentation, T's presentation is extracted as without like.  Each
    theorem instance (F, k) and each central-element entry then first
    replays, on T's own relation set, the Equal certificate of like's
    instance (F, k - m*r) or of like's generator with its ends shifted back
    by m*r, each relation mapped through phi, and searches only when there
    is none, or it does not carry over or does not replay.  Neither a
    carried class of one word nor a replayed Equal visits a state, so under
    a starved budget a T whose own walk or search would be inconclusive
    can pass with like.  Without like every query is searched.
    """
    if like is not None:  # refused before anything is built
        r = _rotation_offset(like, m, T.n, T.triangles)
    outcome = VerificationOutcome(m=m, triangulation=T)
    symmetry = None
    try:
        if like is None:
            BP = _extract(T, m, budget)
        else:
            symmetry = _Symmetry(like, _relations(T, m), r)
            BP = symmetry.presentation(budget)
    except InconclusivePresentationError as exc:
        outcome.inconclusive.append(f"presentation: {exc}")
        return outcome
    outcome.presentation = BP
    if not BP.matched:
        return outcome
    # the public checks, handed the row's symmetry so r and phi are found once
    outcome.relations = verify_theorem_relations(BP, budget, like=symmetry)
    outcome.central = verify_central_element(BP, budget, like=symmetry)
    outcome.inconclusive.extend(outcome.relations.inconclusive())
    outcome.inconclusive.extend(f"central {d}" for d in outcome.central.unknowns())
    return outcome


@dataclass
class FlipTransportCertificate:
    move: object
    matched_before: bool
    matched_after: bool
    affected: dict = field(default_factory=dict)  # old class's describe() -> paths
    unaffected_identical: bool | None = None  # None until the classes are compared
    relations_after: RelationReport | None = None
    inconclusive: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.matched_before
            and self.matched_after
            and self.unaffected_identical
            and self.relations_after is not None
            and self.relations_after.passed
        )

    def to_json(self) -> dict:
        return {
            "move": self.move.to_json(),
            "matched_before": self.matched_before,
            "matched_after": self.matched_after,
            "affected": self.affected,
            "unaffected_identical": self.unaffected_identical,
            "relations_after": self.relations_after.to_json()
            if self.relations_after
            else None,
            "inconclusive": self.inconclusive,
            "ok": self.ok,
        }


def _tag_sequence(p: Path) -> tuple:
    return tuple(p.quiver.arrows[aid].dual for aid in p.arrows)


def verify_flip_transport(
    T: Triangulation, d, m: int, budget: SearchBudget = SearchBudget()
) -> FlipTransportCertificate:
    """Exhibit how one diagonal flip transports the boundary presentation.

    Both sides are extracted and matched against Gamma(m, n), reusing the
    last extraction when it was of the same triangulation, m and budget;
    generator classes touching the flip quadrilateral get their old and new
    representatives recorded (the new one split into connecting paths
    around the arrows of the new quadrilateral), classes away from it must
    keep literally identical representatives, and the full relation suite
    is re-verified on the flipped side.
    """
    T2, move = flip(T, d)
    quad_old = {tri for tri in T.triangles if set(move.removed) <= set(tri)}
    quad_new = {tri for tri in T2.triangles if set(move.inserted) <= set(tri)}
    cert = FlipTransportCertificate(move=move, matched_before=False, matched_after=False)
    try:
        BP1 = _extract(T, m, budget)
        cert.matched_before = BP1.matched
        BP2 = _extract(T2, m, budget)
    except InconclusivePresentationError as exc:
        cert.inconclusive.append(f"presentation: {exc}")
        return cert
    cert.matched_after = BP2.matched
    if not (BP1.matched and BP2.matched):
        return cert

    # both presentations name every Gamma arrow exactly once
    cert.unaffected_identical = True
    for name, old in BP1.named.items():
        new = BP2.named[name]
        old_tags, new_tags = _tag_sequence(old.rep), _tag_sequence(new.rep)
        touches_old = any(t[0] in quad_old for t in old_tags)
        touches_new = any(t[0] in quad_new for t in new_tags)
        if touches_old or touches_new:
            core_idx = [i for i, t in enumerate(new_tags) if t[0] in quad_new]
            lo = core_idx[0] if core_idx else len(new_tags)
            hi = core_idx[-1] + 1 if core_idx else len(new_tags)
            cert.affected[old.describe()] = {
                "old": list(old.rep.arrows),
                "new": list(new.rep.arrows),
                "delta_prefix": list(new.rep.arrows[:lo]),
                "core": list(new.rep.arrows[lo:hi]),
                "delta_suffix": list(new.rep.arrows[hi:]),
            }
        elif old_tags != new_tags:
            cert.unaffected_identical = False
    cert.relations_after = verify_theorem_relations(BP2, budget)
    cert.inconclusive.extend(cert.relations_after.inconclusive())
    return cert
