"""Path equality in the dimer algebra, decided by certified bounded search.

The dimer algebra is the path algebra modulo the binomial relations derived
from the natural potential, so two paths are equal iff one rewrites into
the other by substituting one side of a relation for the other.  There is
no length grading (faces of different sizes coexist), hence no terminating
normal form is assumed: equality is semidecided by bidirectional
breadth-first search under an explicit budget, and Unknown is a first-class
verdict.

Positive answers carry a replayable certificate; negative answers name a
separating invariant (an abelianized arrow-count residue, or exhaustion of
a complete finite closure).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd

EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"

DEFAULT_MAX_VISITED = 1_000_000
ENV_BUDGET_VISITED = "DIMERLAB_BUDGET_VISITED"


class RewriteError(ValueError):
    """Base class for errors raised by this module."""


class PathError(RewriteError):
    """A non-composable arrow sequence."""


class IncomparablePathsError(RewriteError):
    """paths_equal needs a shared source and target."""


class OracleSoundnessError(RewriteError):
    """An Equal verdict failed its own replay or invariant cross-check."""


def default_max_visited() -> int:
    raw = os.environ.get(ENV_BUDGET_VISITED)
    if raw is None:
        return DEFAULT_MAX_VISITED
    try:
        return int(raw)
    except ValueError:
        raise RewriteError(f"{ENV_BUDGET_VISITED} must be an integer, got {raw!r}")


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one search; a dimension left None takes its per-query
    default (see default_budget)."""

    max_path_length: int | None = None
    max_visited: int | None = None

    def __post_init__(self):
        if any(x is not None and x <= 0 for x in (self.max_path_length, self.max_visited)):
            raise RewriteError(f"budget must be positive, got {self}")


class Path:
    """A composable arrow sequence; empty paths are anchored at a vertex.

    Compositions read left to right: Path((a, b)) means first a, then b.
    """

    __slots__ = ("quiver", "arrows", "anchor", "source", "target")

    def __init__(self, quiver, arrows=(), anchor=None):
        arrows = tuple(arrows)
        if arrows:
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
        if not self.arrows and not other.arrows:
            return Path(self.quiver, (), anchor=self.anchor)
        return Path(self.quiver, self.arrows + other.arrows)

    def __repr__(self):
        if not self.arrows:
            return f"Path(e_{self.anchor!r})"
        return f"Path({self.source!r}->{self.target!r} via {list(self.arrows)})"


class RelationSet:
    """The relation pairs of a potential, with the indexes rewriting needs."""

    def __init__(self, quiver, relations):
        self.quiver = quiver
        self.relations = tuple(relations)
        for lhs, rhs in self.relations:
            if lhs.source != rhs.source or lhs.target != rhs.target:
                raise RewriteError(f"relation endpoints differ: {lhs} vs {rhs}")
        self.max_side_length = max(
            (max(len(l), len(r)) for l, r in self.relations), default=1
        )
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
        self._lattice_basis = None
        self._reduction = None  # (pivot rows, per-arrow images), see residue

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

    def lattice_basis(self) -> list[list[int]]:
        """Row-echelon integer basis of the span of count(lhs) - count(rhs)."""
        if self._lattice_basis is None:
            dim = len(self.quiver.arrows)
            basis: list[list[int]] = []  # pivot columns strictly increasing
            for lhs, rhs in self.relations:
                vec = [0] * dim
                for a in lhs.arrows:
                    vec[a] += 1
                for a in rhs.arrows:
                    vec[a] -= 1
                _lattice_insert(basis, vec)
            self._lattice_basis = basis
        return self._lattice_basis

    def residue(self, arrows: tuple) -> tuple[int, ...]:
        """The arrow-count vector of arrows, reduced modulo the relation lattice.

        The reduction is additive.  The lattice basis is echelon with
        positive pivot entries, and reducing brings the entry in each pivot
        column into [0, pivot entry), which picks one representative per
        coset of the lattice.  The sum of the arrows' reduced unit vectors
        lies in the same coset as the count vector, so reducing that sum
        gives the same tuple as reducing the count vector itself.  So each
        arrow's image is reduced once per RelationSet; when every pivot
        entry is 1 the images vanish in the pivot columns and the final
        reduction subtracts nothing.
        """
        if self._reduction is None:
            rows = _pivot_rows(self.lattice_basis())
            dim = len(self.quiver.arrows)
            images = []
            for a in range(dim):
                unit = [0] * dim
                unit[a] = 1
                images.append(tuple((j, x) for j, x in enumerate(_reduce(rows, unit)) if x))
            self._reduction = rows, images
        rows, images = self._reduction
        vec = [0] * len(images)
        for a in arrows:
            for j, x in images[a]:
                vec[j] += x
        return _reduce(rows, vec)


def _pivot(row: list[int]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def _pivot_rows(basis: list[list[int]]) -> list[tuple[int, list[int]]]:
    return [(_pivot(row), row) for row in basis]


def _lattice_insert(basis: list[list[int]], vec: list[int]) -> None:
    v = list(vec)
    i = 0
    while True:
        j = _pivot(v)
        if j < 0:
            return
        while i < len(basis) and _pivot(basis[i]) < j:
            i += 1
        if i == len(basis) or _pivot(basis[i]) > j:
            if v[j] < 0:
                v = [-x for x in v]
            basis.insert(i, v)
            return
        row = basis[i]
        d, b = row[j], v[j]
        if b % d == 0:
            q = b // d
            v = [x - q * y for x, y in zip(v, row)]
        else:
            g, x, y = _xgcd(d, b)
            new_row = [x * r + y * w for r, w in zip(row, v)]
            v = [(d // g) * w - (b // g) * r for r, w in zip(row, v)]
            basis[i] = new_row


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    assert old_s * a + old_t * b == old_r == gcd(a, b)
    return old_r, old_s, old_t


def _lattice_reduce(basis: list[list[int]], vec: list[int]) -> tuple[int, ...]:
    return _reduce(_pivot_rows(basis), vec)


def _reduce(rows: list[tuple[int, list[int]]], vec: list[int]) -> tuple[int, ...]:
    """The canonical representative of vec modulo the lattice spanned by an
    echelon basis with positive pivot entries, given as (pivot column, row)
    pairs: its entry in each pivot column j lies in [0, row[j])."""
    v = list(vec)
    for j, row in rows:
        q = v[j] // row[j]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


@dataclass(frozen=True)
class RewriteSite:
    position: int
    relation: int
    direction: str  # 'lr' replaces the + side by the - side, 'rl' the reverse
    result: Path


def rewrite_sites(p: Path, R: RelationSet) -> list[RewriteSite]:
    """Every occurrence of either side of every relation inside p."""
    return [
        RewriteSite(pos, ridx, direction, Path(p.quiver, res))
        for pos, ridx, direction, res in R.sites(p.arrows)
    ]


def abelian_invariant(p: Path, R: RelationSet) -> tuple[int, ...]:
    """Arrow-count vector of p, canonically reduced modulo the relation lattice.

    Equal paths always share the residue, so differing residues certify
    Distinct; the converse does not hold.
    """
    return R.residue(p.arrows)


@dataclass(frozen=True)
class EqualityVerdict:
    outcome: str  # EQUAL | DISTINCT | UNKNOWN
    certificate: tuple | None = None  # for EQUAL: ((position, relation, direction), ...)
    separating: str | None = None  # for DISTINCT: name of the invariant
    visited: int = 0
    budget: SearchBudget | None = None

    def certificate_json(self) -> list[dict]:
        if self.certificate is None:
            return []
        return [
            {"step": i, "relation": r, "direction": d, "position": pos}
            for i, (pos, r, d) in enumerate(self.certificate)
        ]


def default_budget(R: RelationSet, *paths: Path, budget: SearchBudget | None = None) -> SearchBudget:
    """The budget of one search over paths: the dimensions budget sets, and
    per-query defaults for the rest (room for two relation substitutions
    beyond the longest path; default_max_visited() states)."""
    budget = budget or SearchBudget()
    return SearchBudget(
        max_path_length=budget.max_path_length or 2 * R.max_side_length + max(map(len, paths)),
        max_visited=budget.max_visited or default_max_visited(),
    )


def apply_step(arrows: tuple, step: tuple, R: RelationSet) -> tuple:
    pos, ridx, direction = step
    lhs, rhs = R.relations[ridx]
    src, dst = (lhs.arrows, rhs.arrows) if direction == "lr" else (rhs.arrows, lhs.arrows)
    if arrows[pos : pos + len(src)] != src:
        raise OracleSoundnessError(f"step {step} does not match path {arrows}")
    return arrows[:pos] + dst + arrows[pos + len(src) :]


def replay_certificate(p: Path, certificate, R: RelationSet) -> Path:
    """Apply a certificate's steps to p; raises if any step fails to match."""
    arrows = p.arrows
    for step in certificate:
        arrows = apply_step(arrows, step, R)
    if arrows:
        return Path(p.quiver, arrows)
    return Path(p.quiver, (), anchor=p.anchor)


def _invert(steps: tuple) -> tuple:
    flip = {"lr": "rl", "rl": "lr"}
    return tuple((pos, ridx, flip[d]) for pos, ridx, d in reversed(steps))


_OVERFLOW = object()


class _Closure:
    """Breadth-first closure of one arrow tuple under the relation rewrites.

    chains maps each state reached to the steps that reach it from the
    start, front holds the last level, and pruned records whether a rewrite
    was dropped for exceeding the length budget (the closure is then no
    longer known to be complete).
    """

    __slots__ = ("chains", "front", "pruned")

    def __init__(self, arrows: tuple):
        self.chains: dict[tuple, tuple] = {arrows: ()}
        self.front = [arrows]
        self.pruned = False

    @property
    def complete(self) -> bool:
        return not self.front and not self.pruned

    def expand(self, R: RelationSet, max_len: int, hit, room: int):
        """Advance one level, in site order.

        room is the number of new states the budget still admits.  Returns
        (state, steps) for the first new state with hit(state) true,
        _OVERFLOW when a new state finds no room, and None when the level
        is done.
        """
        chains = self.chains
        new_front = []
        for key in self.front:
            chain = chains[key]
            for pos, ridx, direction, res in R.sites(key):
                if len(res) > max_len:
                    self.pruned = True
                    continue
                if res in chains:
                    continue
                step_chain = chain + ((pos, ridx, direction),)
                if hit(res):
                    return res, step_chain
                if room <= 0:
                    return _OVERFLOW
                room -= 1
                chains[res] = step_chain
                new_front.append(res)
        self.front = new_front
        return None


def _search(a: tuple, b: tuple, R: RelationSet, max_len: int, max_visited: int) -> tuple:
    """Bidirectional closure search between two arrow tuples, always
    expanding the smaller frontier.

    Returns (outcome, steps, visited): steps rewrite a into b when the
    outcome is EQUAL and are None otherwise; visited, the states of both
    closures, never exceeds max_visited, which must be at least 2.  Distinct
    means a closure was exhausted."""
    side_a, side_b = _Closure(a), _Closure(b)
    while True:
        expand_a = bool(side_a.front) and (
            not side_b.front or len(side_a.front) <= len(side_b.front)
        )
        mine, other = (side_a, side_b) if expand_a else (side_b, side_a)
        room = max_visited - len(side_a.chains) - len(side_b.chains)
        found = mine.expand(R, max_len, other.chains.__contains__, room)
        visited = len(side_a.chains) + len(side_b.chains)
        if found is _OVERFLOW:
            return UNKNOWN, None, visited
        if found is not None:
            meet, steps = found
            steps_a, steps_b = (steps, other.chains[meet]) if expand_a else (other.chains[meet], steps)
            return EQUAL, steps_a + _invert(steps_b), visited
        if side_a.complete or side_b.complete:
            return DISTINCT, None, visited
        if not side_a.front and not side_b.front:
            return UNKNOWN, None, visited


def _shared_ends(a: tuple, b: tuple) -> tuple[int, int]:
    """Lengths of the longest common prefix and, of what remains, the
    longest common suffix of two arrow tuples."""
    i, short = 0, min(len(a), len(b))
    while i < short and a[i] == b[i]:
        i += 1
    j = 0
    while j < short - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return i, j


def paths_equal(p: Path, q: Path, R: RelationSet, budget: SearchBudget | None = None) -> EqualityVerdict:
    """Decide p = q in the dimer algebra, within budget.

    Bidirectional breadth-first closure under the relation rewrites, always
    expanding the smaller frontier; a meeting point yields Equal with a
    certificate that is replayed before being returned.  A differing
    abelian residue, or exhaustion of a complete (never length-pruned)
    closure, yields Distinct.  Everything else is Unknown.  The residues
    are compared before the search, so no Equal verdict contradicts them.

    The search first runs on the cores where p and q differ, their longest
    common prefix and suffix stripped, with the length bound shrunk by the
    stripped arrows.  An Equal there, its positions shifted past the
    prefix, rewrites p into q.  Any other outcome of the cores proves
    nothing (a rewrite may cross a core's edge), so the search falls back
    to the full paths.  Both searches draw on one max_visited budget and
    visited is their sum.
    """
    if p.source != q.source or p.target != q.target:
        raise IncomparablePathsError(
            f"endpoints differ: {p.source!r}->{p.target!r} vs {q.source!r}->{q.target!r}"
        )
    budget = default_budget(R, p, q, budget=budget)
    if p.key() == q.key():
        return EqualityVerdict(EQUAL, certificate=(), visited=1, budget=budget)
    if budget.max_visited < 2:
        return EqualityVerdict(UNKNOWN, visited=0, budget=budget)
    if R.residue(p.arrows) != R.residue(q.arrows):
        return EqualityVerdict(DISTINCT, separating="abelian_invariant", visited=2, budget=budget)

    a, b = p.arrows, q.arrows
    i, j = _shared_ends(a, b)
    core_a, core_b = a[i : len(a) - j], b[i : len(b) - j]
    outcome, steps, visited = None, None, 0
    if (i or j) and core_a and core_b:
        outcome, steps, visited = _search(
            core_a, core_b, R, budget.max_path_length - i - j, budget.max_visited
        )
        if outcome == EQUAL:
            steps = tuple((pos + i, ridx, d) for pos, ridx, d in steps)
    if outcome != EQUAL:
        if budget.max_visited - visited < 2:
            return EqualityVerdict(UNKNOWN, visited=visited, budget=budget)
        outcome, steps, more = _search(
            a, b, R, budget.max_path_length, budget.max_visited - visited
        )
        visited += more
    if outcome == EQUAL:
        if replay_certificate(p, steps, R).key() != q.key():
            raise OracleSoundnessError("certificate replay did not reach the target path")
        return EqualityVerdict(EQUAL, certificate=steps, visited=visited, budget=budget)
    separating = "exhausted_closure" if outcome == DISTINCT else None
    return EqualityVerdict(outcome, separating=separating, visited=visited, budget=budget)


def class_contains(p: Path, R: RelationSet, hit, budget: SearchBudget | None = None) -> bool | None:
    """Whether some path equal to p has hit(arrows) true: True when one is
    found, False when the whole equality class was enumerated without one,
    None when the budget ran out first."""
    budget = default_budget(R, p, budget=budget)
    if hit(p.arrows):
        return True
    closure = _Closure(p.arrows)
    while closure.front:
        found = closure.expand(
            R, budget.max_path_length, hit, budget.max_visited - len(closure.chains)
        )
        if found is _OVERFLOW:
            return None
        if found is not None:
            return True
    return None if closure.pruned else False
