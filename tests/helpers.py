"""Shared pipeline builders, cached so the suite builds each quiver once,
and references the tests compare the library against."""

import functools
from collections import defaultdict, deque

from hypothesis import strategies as st

import dimerlab as dl
from dimerlab import boundary, rewrite


@functools.lru_cache(maxsize=None)
def pipeline(n, m, diagonals):
    T = dl.Triangulation(n, diagonals)
    D = dl.reduce_dimer(dl.build_dimer(T, m))
    Q = dl.dual_quiver(D)
    R = dl.potential_relations(Q)
    return T, D, Q, R


def fan_key(n):
    return dl.fan_triangulation(n, 1).sorted_diagonals


def fan_pipeline(n, m):
    return pipeline(n, m, fan_key(n))


@functools.lru_cache(maxsize=None)
def presentation(n, m, diagonals):
    BP = dl.boundary_generators(pipeline(n, m, diagonals)[3])
    match = dl.match_gamma(BP)
    return BP, match


def fan_presentation(n, m):
    return presentation(n, m, fan_key(n))


CRITERION3_GRID = (
    [(2, n) for n in range(3, 9)]
    + [(3, n) for n in range(3, 7)]
    + [(4, n) for n in range(3, 6)]
    + [(5, n) for n in (3, 4)]
)

CRITERION5_GRID = [(2, n) for n in range(4, 8)] + [(3, n) for n in (4, 5)]


@st.composite
def triangulations(draw, max_n, min_n=3):
    """A triangulation of an n-gon, min_n <= n <= max_n, built through the
    validating constructor: the triangle on each chord (lo, hi) is chosen
    by its third vertex, as in enumerate_triangulations."""
    n = draw(st.integers(min_n, max_n))
    diagonals = []

    def split(lo, hi):
        if hi - lo < 2:
            return
        k = draw(st.integers(lo + 1, hi - 1))
        diagonals.extend((a, b) for a, b in ((lo, k), (k, hi)) if b - a >= 2)
        split(lo, k)
        split(k, hi)

    split(1, n)
    return dl.Triangulation(n, diagonals)


def plain_bfs_tree(src, dst=None):
    """Reference for flip_sequence: breadth-first search from src that
    builds every neighbour with flip, diagonals in sorted order, keeping
    each triangulation's first discovery.  Maps each key to (parent key,
    move), None at src.  With dst given, it stops once dst is found."""
    parent = {src.key(): None}
    queue = deque([src])
    while queue and (dst is None or dst.key() not in parent):
        cur = queue.popleft()
        for d in cur.sorted_diagonals:
            nxt, move = dl.flip(cur, d)
            if nxt.key() not in parent:
                parent[nxt.key()] = (cur.key(), move)
                queue.append(nxt)
    return parent


def plain_bfs_moves(parent, dst):
    """The moves of plain_bfs_tree's tree path to dst."""
    moves, k = [], dst.key()
    while parent[k] is not None:
        k, move = parent[k]
        moves.append(move)
    return moves[::-1]


def pairwise_classes(paths, R, budget=dl.SearchBudget()):
    """Reference for the equality classes of primitive paths that
    boundary_generators finds by closures: each path, in (length, arrows)
    order, is compared by paths_equal with the last member of each class
    found so far and joins the first that is Equal."""
    groups = []
    for p in paths:
        for g in groups:
            verdict = dl.paths_equal(p, g[-1], R, budget)
            assert verdict.outcome != dl.UNKNOWN, (p, g[-1])
            if verdict.outcome == dl.EQUAL:
                g.append(p)
                break
        else:
            groups.append([p])
    return groups


def all_primitive_paths(Q):
    """Reference for the paths boundary_generators walks, without its
    prefix closures: every path from boundary to boundary through internal
    vertices only, each visiting an internal vertex at most once, by
    (source, target) in sorted order; each list in (length, arrows)
    order."""
    found = defaultdict(list)
    internal = {v for v, kind in Q.vertices.items() if kind == "internal"}

    def walk(source, prefix, at, seen):
        for aid in Q.out_arrows[at]:
            tgt = Q.arrow_target[aid]
            if tgt not in internal:
                found[(source, tgt)].append(tuple(prefix + [aid]))
            elif tgt not in seen:
                walk(source, prefix + [aid], tgt, seen | {tgt})

    for s in Q.boundary_vertices:
        walk(s, [], s, frozenset())
    return {
        ends: [dl.Path(Q, a) for a in sorted(paths, key=lambda a: (len(a), a))]
        for ends, paths in sorted(found.items())
    }


def pairwise_generators(Q, R, budget=dl.SearchBudget()):
    """Reference for boundary_generators, grouping by pairwise_classes and
    keeping the classes whose least path factors_through_boundary calls a
    generator, over every primitive path (all_primitive_paths).  Returns the GeneratorClass tuple in the presentation's
    order."""
    family = {ends: name[0] for name, ends in dl.build_gamma(Q.m, Q.n).arrows.items()}
    survivors = [
        boundary.GeneratorClass(src, tgt, family.get((src, tgt)), g[0], len(g))
        for (src, tgt), paths in all_primitive_paths(Q).items()
        for g in pairwise_classes(paths, R, budget)
        if boundary.factors_through_boundary(g[0], R, budget)[0] == "generator"
    ]
    survivors.sort(key=lambda c: (c.target, c.source, c.rep.arrows))
    return tuple(survivors)


def chordless_cycle_reference(Q, v):
    """Reference for chordless_cycles: scan every face for v, keep the
    first shortest one, and rotate it to v's first occurrence."""
    best = None
    for f in Q.faces:
        cyc = list(f.cycle)
        for i, aid in enumerate(cyc):
            if Q.arrow_source[aid] == v:
                if best is None or len(cyc) < len(best[0]):
                    best = (cyc, i)
                break
    cyc, i = best
    return dl.Path(Q, tuple(cyc[i:] + cyc[:i]))


def counts(Q, arrows):
    """The arrow-count vector of an arrow tuple, as a dense list."""
    vec = [0] * len(Q.arrows)
    for a in arrows:
        vec[a] += 1
    return vec


def relation_vectors(R):
    """count(lhs) - count(rhs) of every relation, as dense rows."""
    return [
        [x - y for x, y in zip(counts(R.quiver, lhs.arrows), counts(R.quiver, rhs.arrows))]
        for lhs, rhs in R.relations
    ]


@functools.lru_cache(maxsize=None)
def lattice_basis(R):
    """An independent basis of the relation lattice, the span of count(lhs)
    - count(rhs) over the relations, as dense rows: the columns of sympy's
    Hermite normal form of the relation vectors."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    rows = relation_vectors(R)
    if not rows:
        return []
    H = hermite_normal_form(Matrix(rows).T)
    return [list(H.col(j)) for j in range(H.cols)]


def sympy_in_lattice(rows, vec):
    """Independent membership oracle: solve x*A = v exactly over the rationals
    (A has full row rank here, so the solution is unique) and check it is
    integral."""
    from sympy import Matrix, Rational

    if not rows:
        return not any(vec)
    A = Matrix(rows)
    v = Matrix(vec)
    try:
        sol, params = A.T.gauss_jordan_solve(v)
    except ValueError:
        return False
    if params.shape[0]:
        raise AssertionError("oracle expects full row rank")
    return all(Rational(x).q == 1 for x in sol)


def in_relation_lattice(R, vec):
    """Whether vec lies in the relation lattice of R, by the oracles above."""
    return sympy_in_lattice(lattice_basis(R), vec)


def same_residue(R, a, b):
    """The oracle's residue test: whether cnt(a) - cnt(b) lies in the
    relation lattice."""
    diff = [x - y for x, y in zip(counts(R.quiver, a), counts(R.quiver, b))]
    return in_relation_lattice(R, diff)


def bfs_paths_equal(p, q, R, max_visited):
    """Reference for paths_equal: the plain bidirectional breadth-first
    search, one whole level at a time on the side with the smaller level,
    under the lattice oracle's residue check (same_residue).  Returns the
    outcome: Equal when the closures meet, Distinct on differing residues
    or a closure exhausted, Unknown when more than max_visited states would
    be needed."""
    if p.arrows == q.arrows:
        return rewrite.EQUAL
    if not same_residue(R, p.arrows, q.arrows):
        return rewrite.DISTINCT
    seen = [{p.arrows}, {q.arrows}]
    levels = [[p.arrows], [q.arrows]]
    while True:
        i = 0 if len(levels[0]) <= len(levels[1]) else 1
        level = []
        for word in levels[i]:
            for site in R.sites(word):
                word_next = site[3]
                if word_next in seen[1 - i]:
                    return rewrite.EQUAL
                if word_next not in seen[i]:
                    if len(seen[0]) + len(seen[1]) >= max_visited:
                        return rewrite.UNKNOWN
                    seen[i].add(word_next)
                    level.append(word_next)
        levels[i] = level
        if not level:
            return rewrite.DISTINCT
