import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimerlab as dl
from dimerlab.boundary import _primitive_paths
from dimerlab.quiver import Arrow, QuiverWithFaces, chordless_cycle_at
from dimerlab.rewrite import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    IncomparablePathsError,
    Path,
    RelationSet,
    SearchBudget,
    _search,
    abelian_invariant,
    default_budget,
    paths_equal,
    replay_certificate,
    rewrite_sites,
)

from helpers import fan_pipeline, pipeline


def arrow_by_endpoints(Q, src, tgt):
    aid = Q.find_arrow(src, tgt)
    assert aid is not None
    return aid


def loops(count, relations):
    """A quiver of count loops 0, 1, ... at one vertex, with relations given
    as pairs of arrow tuples."""
    arrows = [Arrow(1, 1, "internal", ("t", (0, 0, 0), k)) for k in range(count)]
    Q = QuiverWithFaces(1, 1, {1: "boundary"}, arrows, [])
    return Q, RelationSet(Q, [(Path(Q, l), Path(Q, r)) for l, r in relations])


def test_trivial_path_has_no_sites():
    _, _, Q, R = fan_pipeline(3, 2)
    e = Q.trivial_path(1)
    assert rewrite_sites(e, R) == []


def test_sites_on_x3x4():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 2, 3), arrow_by_endpoints(Q, 3, 4)))
    sites = rewrite_sites(p, R)
    results = {tuple((Q.arrow_source[a], Q.arrow_target[a]) for a in s.result.arrows) for s in sites}
    assert ((2, 6), (6, 4)) in results


def test_sites_preserve_endpoints():
    for n, m in [(3, 2), (5, 2), (4, 3)]:
        _, _, Q, R = fan_pipeline(n, m)
        for lhs, rhs in R.relations:
            for p in (lhs * rhs if lhs.target == rhs.source else lhs,):
                for s in rewrite_sites(p, R):
                    assert s.result.source == p.source
                    assert s.result.target == p.target


def test_paths_compare_equal_only_within_one_quiver():
    _, _, Q1, _ = fan_pipeline(3, 2)
    _, _, Q2, _ = fan_pipeline(5, 2)
    assert Path(Q1, (0,)) == Path(Q1, (0,))
    assert Path(Q1, (0,)) != Path(Q2, (0,))


def test_reflexivity():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 2, 3),))
    v = paths_equal(p, p, R)
    assert v.outcome == EQUAL and v.certificate == ()


def test_one_step_equality_from_cyclic_derivative():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 2, 3), arrow_by_endpoints(Q, 3, 4)))
    q = Q.path((arrow_by_endpoints(Q, 2, 6), arrow_by_endpoints(Q, 6, 4)))
    v = paths_equal(p, q, R)
    assert v.outcome == EQUAL
    assert len(v.certificate) == 1
    assert replay_certificate(p, v.certificate, R) == q


def test_endpoint_mismatch_raises():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 2, 3),))
    q = Q.path((arrow_by_endpoints(Q, 3, 4),))
    with pytest.raises(IncomparablePathsError):
        paths_equal(p, q, R)


def test_zero_step_budget_unknown():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 1, 2),))
    pu = p * chordless_cycle_at(Q, 2)
    v = paths_equal(p, pu, R, SearchBudget(max_path_length=40, max_visited=1))
    assert v.outcome == UNKNOWN


def test_relations_equal_within_one_step():
    for n, m in [(3, 2), (5, 2), (4, 3)]:
        _, _, Q, R = fan_pipeline(n, m)
        for lhs, rhs in R.relations:
            v = paths_equal(lhs, rhs, R)
            assert v.outcome == EQUAL
            assert len(v.certificate) == 1


def test_abelian_relation_sides_share_residue():
    for n, m in [(3, 2), (6, 2), (4, 3)]:
        _, _, Q, R = fan_pipeline(n, m)
        for lhs, rhs in R.relations:
            assert abelian_invariant(lhs, R) == abelian_invariant(rhs, R)


def test_abelian_trivial_paths():
    _, _, Q, R = fan_pipeline(3, 2)
    assert abelian_invariant(Q.trivial_path(2), R) == abelian_invariant(
        Q.trivial_path(2), R
    )


def sympy_in_lattice(rows, vec):
    """Independent membership oracle: solve x*A = v exactly over the rationals
    (A has full row rank here, so the solution is unique) and check it is
    integral."""
    from sympy import Matrix, Rational

    A = Matrix(rows)
    v = Matrix(vec)
    try:
        sol, params = A.T.gauss_jordan_solve(v)
    except ValueError:
        return False
    if params.shape[0]:
        raise AssertionError("oracle expects full row rank")
    return all(Rational(x).q == 1 for x in sol)


def test_abelian_separation_matches_sympy_oracle():
    _, _, Q, R = fan_pipeline(3, 2)
    dim = len(Q.arrows)
    rows = []
    for lhs, rhs in R.relations:
        vec = [0] * dim
        for a in lhs.arrows:
            vec[a] += 1
        for a in rhs.arrows:
            vec[a] -= 1
        rows.append(vec)

    p = Q.path((arrow_by_endpoints(Q, 1, 2),))
    u = chordless_cycle_at(Q, 2)
    pu = p * u
    uvec = [0] * dim
    for a in u.arrows:
        uvec[a] += 1
    separated = abelian_invariant(p, R) != abelian_invariant(pu, R)
    assert separated == (not sympy_in_lattice(rows, uvec))
    assert separated  # for this quiver the cycle vector is outside the lattice

    combo = [r1 + 2 * r2 for r1, r2 in zip(rows[0], rows[1])]
    assert sympy_in_lattice(rows, combo)
    zero = tuple(0 for _ in range(dim))
    from dimerlab.rewrite import _lattice_reduce

    assert _lattice_reduce(R.lattice_basis(), combo) == _lattice_reduce(
        R.lattice_basis(), list(zero)
    )


@settings(max_examples=30)
@given(st.data())
def test_residue_is_the_reduced_count_vector(data):
    # the residue sums per-arrow images; it must equal the direct reduction
    # of the arrow-count vector, the empty multiset included
    from dimerlab.rewrite import _lattice_reduce

    m = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(3, 8))
    tris = dl.enumerate_triangulations(n)
    T = tris[data.draw(st.integers(0, len(tris) - 1))]
    _, _, Q, R = pipeline(n, m, T.sorted_diagonals)
    dim = len(Q.arrows)
    arrows = tuple(data.draw(st.lists(st.integers(0, dim - 1), max_size=40)))
    counts = [arrows.count(a) for a in range(dim)]
    assert R.residue(arrows) == _lattice_reduce(R.lattice_basis(), counts)
    assert R.residue(()) == (0,) * dim


def test_residue_with_a_pivot_other_than_one():
    # two loops a, b at one vertex with a a = b: the lattice is spanned by
    # 2a - b, whose pivot is 2, so the sum of the arrows' reduced images
    # must still be reduced once more.  No quiver of a triangulation has
    # such a pivot.
    Q, R = loops(2, [((0, 0), (1,))])
    assert R.lattice_basis() == [[2, -1]]
    assert R.residue((0, 0)) == R.residue((1,))
    assert R.residue((0,)) != R.residue((1,))
    assert R.residue((0, 0, 0)) == R.residue((0, 1)) == R.residue((1, 0))


def test_distinct_by_abelian():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 1, 2),))
    pu = p * chordless_cycle_at(Q, 2)
    v = paths_equal(p, pu, R)
    assert v.outcome == DISTINCT and v.separating == "abelian_invariant"


def test_distinct_by_exhausted_closure():
    # two parallel arrows with a common right factor: fa = ga does not force
    # f = g, the abelian difference lies in the lattice, and both closures
    # are finite
    vertices = {1: "boundary", 2: "boundary", 3: "boundary"}
    arrows = [
        Arrow(1, 2, "internal", ("t", (0, 0, 0), 0)),  # f
        Arrow(1, 2, "internal", ("t", (0, 0, 0), 1)),  # g
        Arrow(2, 3, "boundary", ("t", (0, 0, 0), 2)),  # a
    ]
    Q = QuiverWithFaces(1, 3, vertices, arrows, [])
    R = RelationSet(Q, ((Path(Q, (0, 2)), Path(Q, (1, 2))),))
    v = paths_equal(Path(Q, (0,)), Path(Q, (1,)), R)
    assert v.outcome == DISTINCT and v.separating == "exhausted_closure"


def four_loops():
    # four loops a, b, c, d with a b = c and c = a d: a b and a d share the
    # prefix a, and their cores b and d have no rewrite site
    a, b, c, d = range(4)
    Q, R = loops(4, [((a, b), (c,)), ((c,), (a, d))])
    return Q, R, Path(Q, (a, b)), Path(Q, (a, d))


def test_core_search_falls_back_to_the_full_paths():
    # the cores b and d are Distinct on their own (both closures are
    # complete), yet a b = c = a d: only the full search sees the rewrite
    # that crosses the core's edge
    Q, R, p, q = four_loops()
    core = _search((1,), (3,), R, 10, 100)
    assert core[0] == DISTINCT
    v = paths_equal(p, q, R)
    assert v.outcome == EQUAL
    assert replay_certificate(p, v.certificate, R) == q
    assert v.visited > core[2]  # the core's states count too


def test_core_search_shares_one_budget():
    # the core search and the fallback draw on one max_visited; running out
    # is Unknown, never Distinct
    Q, R, p, q = four_loops()
    outcomes = set()
    for max_visited in range(2, 12):
        v = paths_equal(p, q, R, SearchBudget(max_visited=max_visited))
        assert v.visited <= max_visited
        assert v.outcome in (EQUAL, UNKNOWN)
        outcomes.add(v.outcome)
    assert outcomes == {EQUAL, UNKNOWN}

    # two paths of fan (6, 3) that share a prefix and a suffix
    _, _, Q, R = fan_pipeline(6, 3)
    p = Q.path((13, 26, 23, 22, 36, 34, 50, 51, 52))
    q = Q.path((13, 9, 8, 24, 22, 36, 37, 38, 52))
    assert paths_equal(p, q, R).outcome == EQUAL
    for max_visited in range(2, 12):
        v = paths_equal(p, q, R, SearchBudget(max_visited=max_visited))
        assert v.visited <= max_visited
        assert v.outcome in (EQUAL, UNKNOWN)
        if v.outcome == EQUAL:
            assert replay_certificate(p, v.certificate, R) == q


def test_core_search_keeps_the_length_bound():
    # a b = a c c = a e passes through a path of length 3: the cores b and
    # e are searched under the full bound less the shared prefix, so a
    # bound of 2 leaves the query Unknown on the cores as on the full paths
    a, b, c, e = range(4)
    Q, R = loops(4, [((b,), (c, c)), ((c, c), (e,))])
    p, q = Path(Q, (a, b)), Path(Q, (a, e))
    assert paths_equal(p, q, R, SearchBudget(max_path_length=2)).outcome == UNKNOWN
    v = paths_equal(p, q, R, SearchBudget(max_path_length=3))
    assert v.outcome == EQUAL
    assert replay_certificate(p, v.certificate, R) == q


def full_search_outcome(p, q, R, budget):
    """The verdict of the search on the full paths alone."""
    if p.key() == q.key():
        return EQUAL
    if R.residue(p.arrows) != R.residue(q.arrows):
        return DISTINCT
    return _search(p.arrows, q.arrows, R, budget.max_path_length, budget.max_visited)[0]


@settings(max_examples=40)
@given(st.data())
def test_core_search_agrees_with_the_full_search(data):
    # x is a primitive path or a relation side; y is another path of the
    # pool with x's endpoints, or a random rewrite walk from x that does not
    # revisit a path.  Both get one random prefix and suffix.  Whenever the
    # full search alone is definite, paths_equal must reach the same
    # outcome under the same budget, and no other definite outcome under a
    # starved one.  Every certificate must replay and visited must stay
    # within the budget.
    m = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(3, 5 if m == 4 else 7))
    tris = dl.enumerate_triangulations(n)
    T = tris[data.draw(st.integers(0, len(tris) - 1))]
    _, _, Q, R = pipeline(n, m, T.sorted_diagonals)
    rng = data.draw(st.randoms(use_true_random=True))
    pool = [p for paths in _primitive_paths(Q).values() for p in paths]
    pool += [side for relation in R.relations for side in relation]
    x = rng.choice(pool).arrows
    ends = (Q.arrow_source[x[0]], Q.arrow_target[x[-1]])
    others = [p.arrows for p in pool if (p.source, p.target) == ends and p.arrows != x]
    if others and rng.random() < 0.5:
        y = rng.choice(others)
    else:
        y, seen = x, {x}
        for _ in range(rng.randint(1, 6)):
            sites = [site[3] for site in R.sites(y) if site[3] not in seen]
            if not sites:
                break
            y = rng.choice(sites)
            seen.add(y)
    prefix, suffix = [], []
    for _ in range(rng.randint(0, 4)):
        prefix.insert(0, rng.choice(Q.in_arrows[Q.arrow_source[(prefix or x)[0]]]))
    for _ in range(rng.randint(0, 4)):
        suffix.append(rng.choice(Q.out_arrows[Q.arrow_target[(suffix or x)[-1]]]))
    p = Q.path(tuple(prefix) + x + tuple(suffix))
    q = Q.path(tuple(prefix) + y + tuple(suffix))

    budget = default_budget(R, p, q, budget=SearchBudget(max_visited=20_000))
    full = full_search_outcome(p, q, R, budget)
    for max_visited in (budget.max_visited, rng.randint(2, 40)):
        v = paths_equal(p, q, R, SearchBudget(budget.max_path_length, max_visited))
        assert v.visited <= max_visited
        if v.outcome == EQUAL:
            assert replay_certificate(p, v.certificate, R) == q
        if full != UNKNOWN and (v.outcome != UNKNOWN or max_visited == budget.max_visited):
            assert v.outcome == full


@settings(max_examples=40)
@given(st.data())
def test_equal_verdicts_symmetric_and_transitive(data):
    # p, q and r share their endpoints.  Each starts from a primitive
    # boundary path, a relation side or a chordless cycle at a boundary
    # vertex (half the time the first one drawn, which has a rewrite site),
    # takes a few random rewrites and is sometimes followed by the chordless
    # cycle at its target, so both Equal and Distinct pairs occur.  Every
    # Equal certificate must replay.  The choices come from a seeded Random:
    # choices drawn one by one lean towards the first site, whose rewrite
    # and its inverse mostly lead back to the start.
    m = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(3, 5 if m == 4 else 7))
    tris = dl.enumerate_triangulations(n)
    T = tris[data.draw(st.integers(0, len(tris) - 1))]
    _, _, Q, R = pipeline(n, m, T.sorted_diagonals)
    rng = data.draw(st.randoms(use_true_random=True))
    pool = [p for paths in _primitive_paths(Q).values() for p in paths]
    pool += [side for relation in R.relations for side in relation]
    pool += [chordless_cycle_at(Q, v) for v in Q.boundary_vertices]
    first = rng.choice([p for p in pool if R.sites(p.arrows)])
    bucket = [p for p in pool if (p.source, p.target) == (first.source, first.target)]

    def draw_path():
        arrows = (first if rng.random() < 0.5 else rng.choice(bucket)).arrows
        for _ in range(rng.randint(1, 5)):
            sites = R.sites(arrows)
            if not sites:
                break
            arrows = rng.choice(sites)[3]
        p = Q.path(arrows)
        if rng.random() < 0.25:
            p = p * chordless_cycle_at(Q, p.target)
        return p

    def outcome(x, y):
        v = paths_equal(x, y, R)
        if v.outcome == EQUAL:
            assert replay_certificate(x, v.certificate, R) == y
        return v.outcome

    p, q, r = draw_path(), draw_path(), draw_path()
    assert outcome(p, q) == outcome(q, p)
    if outcome(p, q) == EQUAL and outcome(q, r) == EQUAL:
        assert outcome(p, r) == EQUAL


def test_certificates_replay_across_suite():
    for n, m in [(5, 2), (4, 3)]:
        _, _, Q, R = fan_pipeline(n, m)
        for lhs, rhs in R.relations:
            v = paths_equal(lhs, rhs, R)
            assert v.outcome == EQUAL
            assert replay_certificate(lhs, v.certificate, R) == rhs


def test_certificate_json_shape():
    _, _, Q, R = fan_pipeline(3, 2)
    lhs, rhs = R.relations[0]
    v = paths_equal(lhs, rhs, R)
    for i, entry in enumerate(v.certificate_json()):
        assert set(entry) == {"step", "relation", "direction", "position"}
        assert entry["step"] == i


def test_fan_m2_contains_the_product_chain_relations():
    # the z-product calculation: x3 x4 .. x_{2n} rewrites stepwise into
    # (alpha chain) * u_{2n}, and the first step x3 x4 = alpha0 beta0 is
    # itself a relation of the potential
    for n in (5, 6):
        _, _, Q, R = fan_pipeline(n, 2)
        mn = 2 * n
        sides = {
            frozenset(
                (
                    tuple((Q.arrow_source[a], Q.arrow_target[a]) for a in l.arrows),
                    tuple((Q.arrow_source[a], Q.arrow_target[a]) for a in r.arrows),
                )
            )
            for l, r in R.relations
        }
        alpha0 = next(
            aid
            for aid in Q.out_arrows[2]
            if Q.vertices[Q.arrow_target[aid]] == "internal"
        )
        i1 = Q.arrow_target[alpha0]
        beta0 = Q.find_arrow(i1, 4)
        first_step = frozenset(
            (((2, 3), (3, 4)), ((2, i1), (i1, 4)))
        )
        assert first_step in sides

        xs = [Q.find_arrow(k - 1 if k > 1 else mn, k) for k in range(3, mn + 1)]
        lhs = Q.path(tuple(xs))
        table = dl.fan_generator_paths(2, n, Q)
        z2 = table[("y", mn)]  # the full alpha chain 2 -> 2n
        u = chordless_cycle_at(Q, mn)
        v = paths_equal(lhs, z2 * u, R)
        assert v.outcome == EQUAL
        assert len(v.certificate) >= n - 2  # one step per gamma plus the y_4 start


@settings(max_examples=25)
@given(st.data())
def test_random_rewrite_walks(data):
    # sites come in (position, relation, direction) order, the residue never
    # changes along a walk, and replaying the walk's steps reaches its end.
    # A bare relation side has one site only, so the walk starts from a side
    # followed by a few random arrows.
    m = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(3, 7))
    tris = dl.enumerate_triangulations(n)
    T = tris[data.draw(st.integers(0, len(tris) - 1))]
    _, _, Q, R = pipeline(n, m, T.sorted_diagonals)
    side = data.draw(st.sampled_from(R.relations[data.draw(st.integers(0, len(R) - 1))]))
    arrows = side.arrows
    for _ in range(data.draw(st.integers(0, 6))):
        arrows += (data.draw(st.sampled_from(Q.out_arrows[Q.arrow_target[arrows[-1]]])),)
    start = Q.path(arrows)
    residue = R.residue(arrows)
    steps = []
    for _ in range(data.draw(st.integers(1, 8))):
        sites = R.sites(arrows)
        order = [site[:3] for site in sites]
        assert order == sorted(order)
        if not sites:
            break
        pos, ridx, direction, arrows = data.draw(st.sampled_from(sites))
        steps.append((pos, ridx, direction))
        assert R.residue(arrows) == residue
    assert replay_certificate(start, tuple(steps), R).arrows == arrows
