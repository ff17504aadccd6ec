"""Path equality in the dimer algebra, decided by certified bounded search.

The dimer algebra is the path algebra modulo the binomial relations derived
from the natural potential, so two paths are equal iff one rewrites into
the other by substituting one side of a relation for the other.  There is
no length grading (faces of different sizes coexist), hence no terminating
normal form is assumed: equality is semidecided by bidirectional
best-first search under an explicit budget, and Unknown is a first-class
verdict.

The search is ordered by the faces between two words.  Each relation of
the potential is cut from a + face F+ and a - face F- that share an
internal arrow, so rewriting moves the arrow-count vector by cnt(F+) -
cnt(F-).  The quiver tiles a disk, so any two words p and q with the
same ends differ by a unique integer face chain, cnt(p) - cnt(q) =
sum_F c_F cnt(F), found in one linear pass (RelationSet.face_chain).
A RelationSet checks that its cuts connect the faces, so the
relation lattice holds exactly the sum_F c_F cnt(F) with sum_F c_F = 0:
p and q share their abelian residue exactly when c sums to 0, and
otherwise they are Distinct.  The residue itself (RelationSet.residue)
is read off the same pass, and no lattice basis is built.  One rewrite
moves one unit of c from F+ to F- or back.  So h = sum_F |c_F| changes
by -2, 0 or 2 per step, and each side of the search pops the state of
least 2g + h (g the steps taken, c measured against the other side's
start, so p starts from c and q from -c), deeper first on ties.  Where
every step of a rewrite lowers h by 2, all interleavings of its
commuting steps tie on 2g + h; the tie-break follows one of them down
instead of visiting them all.  Of the two sides, the one whose next
state ranks first expands, so a side that is still descending keeps the
turn and is not met halfway by the other side descending along another
order of the same steps.  The order is all that h changes: every
state reached is kept, an Equal certificate is replayed, and Distinct by
search needs a closure that runs out of open states, which is then the
whole class.  A RelationSet without faces has no residue: its queries go
straight to the search, which has h = 0, breadth-first order.

The budget is one number, the states a query may visit (SearchBudget),
and it is the only bound on a search: no word is dropped for its length.
A class that is infinite (possible for a hand-made RelationSet) is
searched until the budget runs out.

Positive answers carry a replayable certificate; negative answers name a
separating invariant (the abelian residue, or exhaustion of a complete
finite closure).
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass
from heapq import heappop, heappush

EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"

DEFAULT_MAX_VISITED = 1_000_000


class RewriteError(ValueError):
    """Base class for errors raised by this module."""


class PathError(RewriteError):
    """A non-composable arrow sequence."""


class IncomparablePathsError(RewriteError):
    """paths_equal needs a shared source and target."""


class OracleSoundnessError(RewriteError):
    """An Equal verdict failed its own replay."""


@dataclass(frozen=True)
class SearchBudget:
    """The most states one query may visit, over every closure it runs; a
    closure of the generator extraction is a query of its own.  The one
    budget of the library and the CLI (--budget-visited), DEFAULT_MAX_VISITED
    unless given; frozen, so one instance is shared as the default."""

    max_visited: int = DEFAULT_MAX_VISITED

    def __post_init__(self):
        if self.max_visited <= 0:
            raise RewriteError(f"budget must be positive, got {self}")


class Path:
    """A composable arrow sequence; empty paths are anchored at a vertex.

    Compositions read left to right: Path((a, b)) means first a, then b.
    """

    __slots__ = ("quiver", "arrows", "anchor", "source", "target")

    def __init__(self, quiver, arrows=(), anchor=None):
        arrows = tuple(arrows)
        if arrows:
            if min(arrows) < 0 or max(arrows) >= len(quiver.arrows):
                raise PathError(f"arrow ids {arrows} are not all in range({len(quiver.arrows)})")
            src = quiver.arrow_source[arrows[0]]
            for a, b in zip(arrows, arrows[1:]):
                if quiver.arrow_target[a] != quiver.arrow_source[b]:
                    raise PathError(f"arrows {a} and {b} do not compose")
            tgt = quiver.arrow_target[arrows[-1]]
            anchor = None
        else:
            if anchor is None:
                raise PathError("an empty path needs an anchor vertex")
            if anchor not in quiver.vertices:
                raise PathError(f"anchor {anchor!r} is not a vertex")
            src = tgt = anchor
        self.quiver = quiver
        self.arrows = arrows
        self.anchor = anchor
        self.source = src
        self.target = tgt

    def __len__(self) -> int:
        return len(self.arrows)

    def key(self) -> tuple:
        return (self.arrows, self.anchor)

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.quiver is other.quiver and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __mul__(self, other: "Path") -> "Path":
        if self.target != other.source:
            raise PathError(
                f"cannot compose: target {self.target!r} != source {other.source!r}"
            )
        # two paths that meet compose, so the product skips __init__'s checks
        product = Path.__new__(Path)
        product.quiver = self.quiver
        product.arrows = self.arrows + other.arrows
        product.anchor = None if product.arrows else self.anchor
        product.source, product.target = self.source, other.target
        return product

    def __repr__(self):
        if not self.arrows:
            return f"Path(e_{self.anchor!r})"
        return f"Path({self.source!r}->{self.target!r} via {list(self.arrows)})"


class RelationSet:
    """The relation pairs of a potential, with the indexes rewriting needs."""

    def __init__(self, quiver, relations=None, *, cuts=None):
        """Either relations, hand-made (lhs, rhs) pairs, or cuts, one
        (arrow, F+, F-) triple per relation of a potential: arrow lies on
        exactly the faces F+ and F- (indexes in quiver.faces), the
        relation's lhs is the rest of F+ after arrow and its rhs the rest
        of F- after it, and faces holds the (F+, F-) pairs.  The faces give
        the residue and its test in the equality search, and guide the
        search's order (see the module docstring); a set of relations has
        no faces, no residue and breadth-first order.  Raises RewriteError
        for both inputs at once, a cut that _cut refuses, or cuts that do
        not connect every face to one with a boundary arrow, under which
        the residue would split or merge classes."""
        self.quiver = quiver
        self.faces = self._propagation = None
        if cuts is not None:
            if relations is not None:
                raise RewriteError("give relations or cuts, not both")
            relations = [_cut(quiver, *cut) for cut in cuts]
            self.faces = tuple((plus, minus) for _, plus, minus in cuts)
            self._propagation = _propagation_order(quiver, cuts)
        self.relations = tuple(relations or ())
        for lhs, rhs in self.relations:
            if lhs.source != rhs.source or lhs.target != rhs.target:
                raise RewriteError(f"relation endpoints differ: {lhs} vs {rhs}")
        # pattern index: first arrow id -> [(side, replacement, relation, direction)]
        self._patterns: dict[int, list] = {}
        for ridx, (lhs, rhs) in enumerate(self.relations):
            for side, other, direction in (
                (lhs.arrows, rhs.arrows, "lr"),
                (rhs.arrows, lhs.arrows, "rl"),
            ):
                self._patterns.setdefault(side[0], []).append(
                    (side, other, ridx, direction)
                )

    def __len__(self):
        return len(self.relations)

    def sites(self, arrows: tuple) -> list[tuple]:
        """All rewrite sites of a raw arrow tuple, in (position, relation,
        direction) order: positions are scanned in order and each pattern
        list holds ascending relations, 'lr' before 'rl'.

        Each site is (position, relation, direction, resulting tuple).
        """
        out = []
        n = len(arrows)
        for pos in range(n):
            for side, other, ridx, direction in self._patterns.get(arrows[pos], ()):
                if arrows[pos : pos + len(side)] == side:
                    out.append(
                        (pos, ridx, direction, arrows[:pos] + other + arrows[pos + len(side) :])
                    )
        return out

    def face_chain(self, a: tuple, b: tuple) -> list[int] | None:
        """The integer coefficients c, one per face of the quiver, with
        cnt(a) - cnt(b) = sum_F c_F cnt(F), found by one pass over the
        propagation order; None for a RelationSet without faces.

        For a and b with the same ends the chain exists and is unique (the
        quiver tiles a disk), and it sums to 0 exactly when a and b share
        their residue: the relation lattice is spanned by the cnt(F+) -
        cnt(F-), over faces that the cuts connect.  paths_equal
        decides the residue test by this sum.
        """
        if self._propagation is None:
            return None
        d = [0] * len(self.quiver.arrows)
        for arrow in a:
            d[arrow] += 1
        for arrow in b:
            d[arrow] -= 1
        c = [0] * len(self.quiver.faces)
        fixed, derived = self._propagation
        for arrow, face in fixed:
            c[face] = d[arrow]
        for arrow, face, known in derived:
            c[face] = d[arrow] - c[known]
        return c

    def residue(self, arrows: tuple) -> tuple[int, ...]:
        """The abelian residue of arrows, which two words share exactly
        when their arrow-count vectors differ by an element of the relation
        lattice: (sum_F c_F, cnt(arrows) - sum_F c_F cnt(F)), with c the
        face chain of arrows against the empty word.  The map is linear,
        and its kernel is the relation lattice: the face_chain pass
        recovers c from any sum_F c_F cnt(F), and the cuts, which connect
        all faces, make the lattice the sums with sum_F c_F = 0.  Raises
        RewriteError for a RelationSet without faces.  paths_equal does not
        call this.
        """
        c = self.face_chain(arrows, ())
        if c is None:
            raise RewriteError("a RelationSet without faces has no residue")
        d = [0] * len(self.quiver.arrows)
        for arrow in arrows:
            d[arrow] += 1
        for face, x in zip(self.quiver.faces, c):
            if x:
                for arrow in face.cycle:
                    d[arrow] -= x
        return (sum(c), *d)


def _cut(Q, arrow, plus: int, minus: int) -> tuple[Path, Path]:
    """The relation cut from faces plus and minus along arrow: the rest of
    each face's cycle after arrow.  Raises RewriteError unless arrow lies
    on exactly those two faces, once on each (so a boundary arrow or an id
    that is no arrow of Q is refused)."""
    if plus == minus or Q.faces_by_arrow.get(arrow) not in ((plus, minus), (minus, plus)):
        raise RewriteError(f"arrow {arrow!r} does not lie on exactly faces {plus!r} and {minus!r}")
    sides = []
    for face in (plus, minus):
        cycle = Q.faces[face].cycle
        k = cycle.index(arrow)
        sides.append(Path(Q, cycle[k + 1 :] + cycle[:k]))
    return tuple(sides)


def _propagation_order(Q, cuts) -> tuple[tuple, tuple]:
    """The order in which face_chain fixes the faces' coefficients, in two
    parts.  The root: the first boundary arrow lies on one face F, so c_F
    is the arrow's count, an (arrow, face) pair (none when Q has no face).
    Then a walk outward from F across the cuts: a cut's arrow lies on its
    two faces only, so once c_F is known, c_G of the other is the arrow's
    count less c_F, an (arrow, face G, known face F) triple.  Each face is
    fixed once.  Raises RewriteError unless the walk reaches every face,
    that is unless the cuts connect all faces and one has a boundary
    arrow: then the relation lattice is the sum_F c_F cnt(F) with
    sum_F c_F = 0, as residue needs."""
    across = [[] for _ in Q.faces]
    for arrow, plus, minus in cuts:
        across[plus].append((arrow, minus))
        across[minus].append((arrow, plus))
    fixed = [(arrow, faces[0]) for arrow, faces in Q.faces_by_arrow.items() if len(faces) == 1][:1]
    known_faces = [face for _, face in fixed]
    seen, derived = set(known_faces), []
    for known in known_faces:  # grows as the faces are fixed
        for arrow, face in across[known]:
            if face not in seen:
                seen.add(face)
                derived.append((arrow, face, known))
                known_faces.append(face)
    if len(seen) != len(Q.faces):
        raise RewriteError(f"{len(Q.faces) - len(seen)} faces are not reached from the boundary")
    return tuple(fixed), tuple(derived)


def _check_quiver(R: RelationSet, *paths: Path) -> None:
    """Raise RewriteError unless every path is a word of R's own quiver
    (the same object, as Path equality asks): R's relations say nothing
    about the words of another quiver, even one with the same arrow ids."""
    for p in paths:
        if p.quiver is not R.quiver:
            raise RewriteError(f"{p} is not a word of the relation set's quiver")


@dataclass(frozen=True)
class EqualityVerdict:
    outcome: str  # EQUAL | DISTINCT | UNKNOWN
    certificate: tuple | None = None  # for EQUAL: ((position, relation, direction), ...)
    separating: str | None = None  # for DISTINCT: name of the invariant
    visited: int = 0

    def certificate_json(self) -> list[dict]:
        if self.certificate is None:
            return []
        return [
            {"step": i, "relation": r, "direction": d, "position": pos}
            for i, (pos, r, d) in enumerate(self.certificate)
        ]


def apply_step(arrows: tuple, step: tuple, R: RelationSet) -> tuple:
    pos, ridx, direction = step
    lhs, rhs = R.relations[ridx]
    src, dst = (lhs.arrows, rhs.arrows) if direction == "lr" else (rhs.arrows, lhs.arrows)
    if arrows[pos : pos + len(src)] != src:
        raise OracleSoundnessError(f"step {step} does not match path {arrows}")
    return arrows[:pos] + dst + arrows[pos + len(src) :]


def _replay(arrows: tuple, certificate, R: RelationSet) -> tuple:
    """The arrow tuple that certificate's steps make of arrows; raises
    OracleSoundnessError at the first step that does not match."""
    for step in certificate:
        arrows = apply_step(arrows, step, R)
    return arrows


def replay_certificate(p: Path, certificate, R: RelationSet) -> Path:
    """Apply a certificate's steps to p; raises if any step fails to match,
    or if p is not a word of R's quiver."""
    _check_quiver(R, p)
    arrows = _replay(p.arrows, certificate, R)
    if arrows:
        return Path(p.quiver, arrows)
    return Path(p.quiver, (), anchor=p.anchor)


def _invert(steps: tuple) -> tuple:
    flip = {"lr": "rl", "rl": "lr"}
    return tuple((pos, ridx, flip[d]) for pos, ridx, d in reversed(steps))


_OVERFLOW = object()


class _Closure:
    """Best-first closure of one arrow tuple under the relation rewrites.

    parents maps each state reached to (previous state, step), None at the
    start.  open is a heap of ((2g + h, -g), order reached, state, chain,
    move) entries for the states not yet expanded, g their steps from the
    start and h the sum of |c_F| over their face chain c against the goal
    word, less that sum at the start.  The two sides of a query start
    from c and -c, whose sums agree, so _search compares their keys.
    An entry holds its parent's chain and the move (F+, F-, unit) that it
    makes, applied when the entry is popped, so chains live only in the
    open set.  The start's chain is given when the closure is built; it is
    None exactly when the closure has no goal, and then h = 0.  Every
    rewrite is kept, so a closure with no open state left is the whole
    class of its start.
    """

    __slots__ = ("parents", "open")

    def __init__(self, arrows: tuple, chain: list[int] | None = None):
        self.parents: dict[tuple, tuple | None] = {arrows: None}
        self.open = [((0, 0), 0, arrows, chain, None)]

    def expand(self, R: RelationSet, hit, room: int):
        """Pop the open state of least (2g + h, -g), the first reached
        first, and go on popping while the least open state ties with it;
        record each popped state's new rewrites in site order.  With h = 0
        this pops one breadth-first level.  With h > 0 a state reached on
        the same 2g + h is deeper, so it ends the call and is popped first
        in the next one.

        room is the number of new states the budget still admits.  Returns
        (state, previous state, step) for the first new state with
        hit(state) true, _OVERFLOW when a new state finds no room, and None
        otherwise.
        """
        heap, parents = self.open, self.parents
        tie = heap[0][0]
        f, minus_g = tie
        depth = 1 - minus_g  # the steps to the states they reach
        step_f = f + 2  # 2g + h where a step leaves h as it is
        step_key = (step_f, -depth)
        while heap and heap[0][0] == tie:
            _, _, key, chain, move = heappop(heap)
            if move is not None:
                face_plus, face_minus, unit = move
                chain = chain.copy()
                chain[face_plus] -= unit
                chain[face_minus] += unit
            for pos, ridx, direction, res in R.sites(key):
                if res in parents:
                    continue
                step = (pos, ridx, direction)
                if hit(res):
                    return res, key, step
                if room <= 0:
                    return _OVERFLOW
                room -= 1
                parents[res] = (key, step)
                if chain is None:
                    heappush(heap, (step_key, len(parents), res, None, None))
                    continue
                # 'lr' takes cnt(F+) - cnt(F-) off the word: c_F+ drops by one
                face_plus, face_minus = R.faces[ridx]
                unit = 1 if direction == "lr" else -1
                cp, cm = chain[face_plus], chain[face_minus]
                res_f = step_f - abs(cp) - abs(cm) + abs(cp - unit) + abs(cm + unit)
                move = (face_plus, face_minus, unit)
                heappush(heap, ((res_f, -depth), len(parents), res, chain, move))
        return None


def _steps(parents: dict, state: tuple) -> tuple:
    """The steps that reach state from the start of a closure."""
    steps = []
    while (link := parents[state]) is not None:
        state, step = link
        steps.append(step)
    return tuple(reversed(steps))


def _search(closures: tuple, hits: tuple, R: RelationSet, max_visited: int) -> tuple:
    """Expand one or two closures best-first, until a closure reaches a new
    state that its hit accepts, a closure is exhausted, or the budget runs
    out.  Each time, the closure whose least open entry has the least key
    (2g + h, -g) goes next; on a tie, the one with the fewer open states,
    then the first.
    Where h guides, the side that is still descending keeps the turn and
    reaches the other side's start on its own, instead of both sides
    descending along different orders of the same commuting steps; on a
    plateau of h the keys tie level by level, and the sides alternate.

    Returns (outcome, found, visited): the outcome is EQUAL on a hit,
    DISTINCT on exhaustion and UNKNOWN when the budget runs out; found is
    (closure index, state, previous state, step) for EQUAL and None
    otherwise; visited, the states of every closure, never exceeds
    max_visited.
    """
    visited = len(closures)  # each starts from one state
    while True:
        side = None
        for i, closure in enumerate(closures):
            heap = closure.open  # never empty: an exhausted closure ends the search
            key = heap[0][0]
            if side is None or key < best or (key == best and len(heap) < size):
                side, best, size = i, key, len(heap)
        closure = closures[side]
        before = len(closure.parents)
        found = closure.expand(R, hits[side], max_visited - visited)
        visited += len(closure.parents) - before
        if found is _OVERFLOW:
            return UNKNOWN, None, visited
        if found is not None:
            return EQUAL, (side, *found), visited
        if not closure.open:
            return DISTINCT, None, visited


def paths_equal(
    p: Path, q: Path, R: RelationSet, budget: SearchBudget = SearchBudget()
) -> EqualityVerdict:
    """Decide p = q in the dimer algebra, within budget.

    The face chain c between p and q (RelationSet.face_chain) is found
    first: when it does not sum to 0, p and q differ in their abelian
    residue and the verdict is Distinct, so no Equal verdict contradicts
    the residues.  A RelationSet without faces has no residue test, and
    its queries go straight to the search.  Otherwise one bidirectional
    best-first closure search runs between the full paths under the
    relation rewrites, bounded only by the budget.  Each side pops the
    state of least 2g + h, deeper first on ties, where h sums the face
    chain between the state and the other side's start: p's side starts
    from c, q's from -c (h = 0 without faces).  The side whose next state ranks first expands, and on a tie
    the side with the fewer open states (see _search).  h changes only
    the order: a meeting point yields Equal with a certificate that is
    replayed before being returned, and a closure that runs out of open
    states yields Distinct, since that closure is the whole class and
    would have reached the other start.  A budget that runs out first
    yields Unknown.  Raises RewriteError unless p and q are words of
    R's quiver.
    """
    _check_quiver(R, p, q)
    if p.source != q.source or p.target != q.target:
        raise IncomparablePathsError(
            f"endpoints differ: {p.source!r}->{p.target!r} vs {q.source!r}->{q.target!r}"
        )
    if p.key() == q.key():
        return EqualityVerdict(EQUAL, certificate=(), visited=1)
    if budget.max_visited < 2:
        return EqualityVerdict(UNKNOWN, visited=0)
    chain = R.face_chain(p.arrows, q.arrows)
    if chain is not None and sum(chain) != 0:
        return EqualityVerdict(DISTINCT, separating="abelian_invariant", visited=2)
    side_p = _Closure(p.arrows, chain)
    side_q = _Closure(q.arrows, None if chain is None else [-x for x in chain])
    outcome, found, visited = _search(
        (side_p, side_q),
        (side_q.parents.__contains__, side_p.parents.__contains__),
        R,
        budget.max_visited,
    )
    if outcome == EQUAL:
        side, meet, previous, step = found
        mine, other = (side_p, side_q) if side == 0 else (side_q, side_p)
        into = _steps(mine.parents, previous) + (step,)
        out = _steps(other.parents, meet)
        steps = into + _invert(out) if side == 0 else out + _invert(into)
        if _replay(p.arrows, steps, R) != q.arrows:
            raise OracleSoundnessError("certificate replay did not reach the target path")
        return EqualityVerdict(EQUAL, certificate=steps, visited=visited)
    separating = "exhausted_closure" if outcome == DISTINCT else None
    return EqualityVerdict(outcome, separating=separating, visited=visited)


_FOUND = {EQUAL: True, DISTINCT: False, UNKNOWN: None}


def class_contains(
    p: Path, R: RelationSet, hit, budget: SearchBudget = SearchBudget()
) -> tuple[bool | None, int, KeysView[tuple]]:
    """Whether some path equal to p has hit(arrows) true, how many states
    the search visited, and those states (arrow tuples, p's own first).
    The verdict is True when one is found, False when the whole equality
    class was enumerated without one (the states are then that class),
    None when the budget ran out first.  The word found with hit true is
    not among the states, unless it is p itself.  The closure has no goal
    word, so h = 0 and the search is breadth-first.  Only the budget
    bounds it: the verdict on an infinite class (possible for a hand-made
    RelationSet) is None once the whole budget is spent, so give such a
    set a small budget.  Raises RewriteError unless p is a word of R's
    quiver."""
    _check_quiver(R, p)
    closure = _Closure(p.arrows)
    states = closure.parents.keys()
    if hit(p.arrows):
        return True, 1, states
    outcome, _, visited = _search((closure,), (hit,), R, budget.max_visited)
    return _FOUND[outcome], visited, states
