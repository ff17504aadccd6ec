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
from functools import cache, lru_cache

from .dimer import build_dimer, reduce_dimer
from .polygon import Triangulation, flip
from .quiver import QuiverWithFaces, chordless_cycles, dual_quiver, potential_relations, rim_pos
from .rewrite import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    EqualityVerdict,
    Path,
    RelationSet,
    SearchBudget,
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
    source: int
    target: int
    tag: str | None  # family of Gamma's arrow with these endpoints, if it has one
    rep: Path
    size: int  # number of primitive paths merged into the class

    def describe(self) -> str:
        return f"{self.tag or '?'}:{self.source}->{self.target}"


@dataclass
class BoundaryPresentation:
    """The generator classes of one quiver's boundary algebra, with the
    relation set they were extracted under; the quiver is that set's, so
    every check of the presentation reads one (Q, R) pair."""

    relation_set: RelationSet
    classes: tuple[GeneratorClass, ...]

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
    extensions.  Each class is tagged with the family of the Gamma(m, n)
    arrow with its endpoints (Gamma has at most one per pair).  A
    truncated closure of a path raises InconclusivePresentationError.
    """
    Q = R.quiver
    names = _gamma_tables(Q.m, Q.n)[1]
    internal = {v for v, kind in Q.vertices.items() if kind == "internal"}
    classes: list[GeneratorClass] = []
    placed: set[tuple] = set()

    def primitive(arrows: tuple) -> bool:
        stops = [Q.arrow_target[a] for a in arrows[:-1]]
        return len(set(stops)) == len(stops)

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
                members = [a for a in states if primitive(a)]
                rep = Path(Q, min(members, key=lambda a: (len(a), a)))
                name = names.get((p.source, tgt))
                tag = name[0] if name else None
                classes.append(GeneratorClass(p.source, tgt, tag, rep, size=len(members)))

    for s in Q.boundary_vertices:
        walk([], s, set())
    classes.sort(key=lambda c: (c.target, c.source, c.rep.arrows))
    return BoundaryPresentation(relation_set=R, classes=tuple(classes))


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


@dataclass
class GammaMatch:
    ok: bool
    assignment: dict | None = None  # Gamma arrow name -> GeneratorClass
    obstruction: str | None = None

    def rep_of(self, name: tuple) -> Path:
        return self.assignment[name].rep


def match_gamma(BP: BoundaryPresentation) -> GammaMatch:
    """Carry the presentation's generators onto the arrows of Gamma(m, n),
    (m, n) those of its quiver, each class to the arrow with its (source,
    target): Gamma has at most one per pair, so the ends fix the name, and
    the class's tag is its family.  Raises IncompatibleGammaError when the
    quiver does not have m*n boundary vertices (a hand-made quiver can
    claim any m and n).

    The boundary labels are the polygon's own (dual_quiver fixes them), so
    no relabelling is searched.
    """
    G, names, _ = _gamma_tables(BP.m, BP.n)
    if BP.boundary_count != G.vertex_count:
        raise IncompatibleGammaError(
            f"presentation has {BP.boundary_count} boundary vertices, "
            f"Gamma({G.m},{G.n}) has {G.vertex_count}"
        )
    if Counter((c.source, c.target) for c in BP.classes) != Counter(names.keys()):
        missing = [c.describe() for c in BP.classes if c.tag is None]
        return GammaMatch(
            ok=False,
            obstruction=(
                f"the {len(BP.classes)} generators do not match the {len(G.arrows)} "
                f"arrows of Gamma({G.m},{G.n}); untaggable classes: {missing[:4]}"
            ),
        )
    return GammaMatch(
        ok=True, assignment={names[(c.source, c.target)]: c for c in BP.classes}
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
    BP: BoundaryPresentation, budget: SearchBudget = SearchBudget(), *, match: GammaMatch
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
    """
    if not match.ok:
        raise BoundaryError(f"Gamma match required first: {match.obstruction}")
    report = RelationReport()
    for family, k, *sides, text in _gamma_tables(BP.m, BP.n)[2]:
        # one path per side, from its representatives' arrows in one tuple
        lhs, rhs = (
            Path(BP.quiver, [a for name in side for a in match.rep_of(name).arrows])
            for side in sides
        )
        verdict = paths_equal(lhs, rhs, BP.relation_set, budget)
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
    BP: BoundaryPresentation, budget: SearchBudget = SearchBudget()
) -> CentralElementReport:
    """Check u_{s(a)} a = a u_{t(a)} for every boundary generator a.

    This is the generator-wise restatement of the centrality of the sum of
    one chordless cycle per boundary vertex.
    """
    Q, R = BP.quiver, BP.relation_set
    u = chordless_cycles(Q, Q.boundary_vertices)
    report = CentralElementReport()
    for c in BP.classes:
        verdict = paths_equal(u[c.source] * c.rep, c.rep * u[c.target], R, budget)
        report.entries.append((c.describe(), verdict))
    return report


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
    from .dimer import ValidationReport

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
    BP: BoundaryPresentation, budget: SearchBudget = SearchBudget(), *, match: GammaMatch
) -> RelationReport:
    """Check that each formula path equals the extracted class with its name;
    one instance per Gamma arrow, named like the arrow."""
    if not match.ok:
        raise BoundaryError(f"Gamma match required first: {match.obstruction}")
    report = RelationReport()
    for (fam, k), path in sorted(fan_generator_paths(BP.quiver).items()):
        if (fam, k) not in match.assignment:
            raise BoundaryError(f"no extracted class named {fam}_{k}")
        verdict = paths_equal(path, match.rep_of((fam, k)), BP.relation_set, budget)
        report.instances.append(RelationInstance(fam, k, f"{fam}_{k}", verdict))
    return report


# ---------------------------------------------------------------------------
# Full pipeline and flip transport


@dataclass
class VerificationOutcome:
    n: int
    m: int
    triangulation: Triangulation
    matched: bool = False
    generator_count: int = 0
    obstruction: str | None = None
    presentation: BoundaryPresentation | None = None
    relations: RelationReport | None = None
    central: CentralElementReport | None = None
    inconclusive: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.matched
            and not self.inconclusive
            and self.relations is not None
            and self.relations.passed
            and self.central is not None
            and self.central.passed
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "triangulation": self.triangulation.to_json(),
            "matched": self.matched,
            # kept so the report keeps its shape: labels are matched unrotated
            "rotation": 0 if self.matched else None,
            "generators": self.generator_count,
            "obstruction": self.obstruction,
            "presentation": self.presentation.to_json() if self.presentation else None,
            "relations": self.relations.to_json() if self.relations else None,
            "central_element": self.central.to_json() if self.central else None,
            "inconclusive": self.inconclusive,
            "passed": self.passed,
        }


@lru_cache(maxsize=1)
def _extract(
    T: Triangulation, m: int, budget: SearchBudget
) -> tuple[BoundaryPresentation, GammaMatch]:
    """Build, reduce, dualize, extract the presentation and match it against
    Gamma(m, n); raises InconclusivePresentationError from the extraction.
    The last result is kept: along a flip walk each move's before-side is
    the previous move's after-side.  A raised
    InconclusivePresentationError is never kept."""
    Q = dual_quiver(reduce_dimer(build_dimer(T, m)))
    BP = boundary_generators(potential_relations(Q), budget)
    return BP, match_gamma(BP)


def verify_boundary_algebra(
    T: Triangulation, m: int, budget: SearchBudget = SearchBudget()
) -> VerificationOutcome:
    """Run the full pipeline on one triangulation: build, reduce, dualize,
    extract, match against Gamma(m, n), verify relations and centrality."""
    outcome = VerificationOutcome(n=T.n, m=m, triangulation=T)
    try:
        BP, match = _extract(T, m, budget)
    except InconclusivePresentationError as exc:
        outcome.inconclusive.append(f"presentation: {exc}")
        return outcome
    outcome.generator_count = len(BP.classes)
    outcome.presentation = BP
    outcome.matched = match.ok
    outcome.obstruction = match.obstruction
    if not match.ok:
        return outcome
    outcome.relations = verify_theorem_relations(BP, budget, match=match)
    outcome.central = verify_central_element(BP, budget)
    outcome.inconclusive.extend(
        f"relation {i.family}@{i.k}" for i in outcome.relations.unknowns()
    )
    outcome.inconclusive.extend(
        f"central {d}" for d in outcome.central.unknowns()
    )
    return outcome


@dataclass
class FlipTransportCertificate:
    move: object
    matched_before: bool
    matched_after: bool
    affected: dict = field(default_factory=dict)
    unaffected_identical: bool | None = None  # None until the classes are compared
    relations_after: RelationReport | None = None
    inconclusive: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.matched_before
            and self.matched_after
            and self.unaffected_identical
            and not self.inconclusive
            and self.relations_after is not None
            and self.relations_after.passed
        )

    def to_json(self) -> dict:
        return {
            "move": self.move.to_json(),
            "matched_before": self.matched_before,
            "matched_after": self.matched_after,
            "affected": {
                f"{k[2]}:{k[0]}->{k[1]}": v for k, v in sorted(self.affected.items(), key=str)
            },
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
        _, match1 = _extract(T, m, budget)
        BP2, match2 = _extract(T2, m, budget)
    except InconclusivePresentationError as exc:
        cert.inconclusive.append(f"presentation: {exc}")
        return cert
    cert.matched_before, cert.matched_after = match1.ok, match2.ok
    if not (match1.ok and match2.ok):
        return cert

    # both matches name every Gamma arrow exactly once
    cert.unaffected_identical = True
    for name, old in match1.assignment.items():
        new = match2.assignment[name]
        key = (old.source, old.target, old.tag)
        old_tags, new_tags = _tag_sequence(old.rep), _tag_sequence(new.rep)
        touches_old = any(t[0] in quad_old for t in old_tags)
        touches_new = any(t[0] in quad_new for t in new_tags)
        if touches_old or touches_new:
            core_idx = [i for i, t in enumerate(new_tags) if t[0] in quad_new]
            lo = core_idx[0] if core_idx else len(new_tags)
            hi = core_idx[-1] + 1 if core_idx else len(new_tags)
            cert.affected[key] = {
                "old": list(old.rep.arrows),
                "new": list(new.rep.arrows),
                "delta_prefix": list(new.rep.arrows[:lo]),
                "core": list(new.rep.arrows[lo:hi]),
                "delta_suffix": list(new.rep.arrows[hi:]),
            }
        elif old_tags != new_tags:
            cert.unaffected_identical = False
    cert.relations_after = verify_theorem_relations(BP2, budget, match=match2)
    cert.inconclusive.extend(
        f"relation {i.family}@{i.k}" for i in cert.relations_after.unknowns()
    )
    return cert
