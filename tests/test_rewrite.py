from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimerlab as dl
from dimerlab.quiver import Arrow, Face, QuiverWithFaces, chordless_cycle_at, chordless_cycles
from dimerlab.rewrite import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    IncomparablePathsError,
    PathError,
    Path,
    RelationSet,
    RewriteError,
    SearchBudget,
    class_contains,
    paths_equal,
    replay_certificate,
)

from helpers import (
    all_primitive_paths,
    bfs_paths_equal,
    counts,
    fan_pipeline,
    fan_presentation,
    in_relation_lattice,
    lattice_basis,
    pipeline,
    relation_vectors,
    same_residue,
    sympy_in_lattice,
    triangulations,
)


def arrow_by_endpoints(Q, src, tgt):
    aid = Q.find_arrow(src, tgt)
    assert aid is not None
    return aid


def loops(count, relations):
    """A quiver of count loops 0, 1, ... at one vertex, with relations given
    as pairs of arrow tuples."""
    arrows = [Arrow(1, 1, ("t", (0, 0, 0), k)) for k in range(count)]
    Q = QuiverWithFaces(1, 1, {1: "boundary"}, arrows, [])
    return Q, RelationSet(Q, [(Path(Q, l), Path(Q, r)) for l, r in relations])


def test_trivial_path_has_no_sites():
    _, _, Q, R = fan_pipeline(3, 2)
    e = Q.trivial_path(1)
    assert R.sites(e.arrows) == []


def test_sites_on_x3x4():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 2, 3), arrow_by_endpoints(Q, 3, 4)))
    results = {
        tuple((Q.arrow_source[a], Q.arrow_target[a]) for a in res)
        for _, _, _, res in R.sites(p.arrows)
    }
    assert ((2, 6), (6, 4)) in results


def test_sites_preserve_endpoints():
    for n, m in [(3, 2), (5, 2), (4, 3)]:
        _, _, Q, R = fan_pipeline(n, m)
        for lhs, rhs in R.relations:
            for p in (lhs * rhs if lhs.target == rhs.source else lhs,):
                for _, _, _, res in R.sites(p.arrows):
                    result = Path(Q, res)
                    assert result.source == p.source
                    assert result.target == p.target


def test_paths_compare_equal_only_within_one_quiver():
    _, _, Q1, _ = fan_pipeline(3, 2)
    _, _, Q2, _ = fan_pipeline(5, 2)
    assert Path(Q1, (0,)) == Path(Q1, (0,))
    assert Path(Q1, (0,)) != Path(Q2, (0,))


def test_queries_refuse_words_of_another_quiver():
    # the central-element queries of fan (3, 6), all Equal, asked under the
    # relations of the fan at apex 2: the arrow ids fit both quivers, and
    # without the check the search answers Distinct on 26 of the 36
    # generators, the first three among them
    BP = fan_presentation(6, 3)
    _, _, _, foreign = pipeline(6, 3, dl.fan_triangulation(6, 2).sorted_diagonals)
    Q = BP.quiver
    u = chordless_cycles(Q, Q.boundary_vertices)
    refused = "not a word of the relation set's quiver"
    for c in BP.classes[:3]:
        p, q = u[c.source] * c.rep, c.rep * u[c.target]
        assert paths_equal(p, q, BP.relation_set).outcome == EQUAL
        with pytest.raises(RewriteError, match=refused):
            paths_equal(p, q, foreign)
        with pytest.raises(RewriteError, match=refused):
            class_contains(p, foreign, lambda arrows: False)
        with pytest.raises(RewriteError, match=refused):
            replay_certificate(p, (), foreign)


def test_products_match_the_paths_built_directly():
    _, _, Q, _ = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 2, 3),))
    q = Q.path((arrow_by_endpoints(Q, 3, 4),))
    e = Q.trivial_path(p.source)
    for product, expected in (
        (p * q, Path(Q, p.arrows + q.arrows)),
        (e * p, p),
        (p * Q.trivial_path(p.target), p),
        (e * e, e),
    ):
        assert product == expected
        assert (product.anchor, product.source, product.target) == (
            expected.anchor,
            expected.source,
            expected.target,
        )


@pytest.mark.parametrize("position", [0, 1])
def test_arrow_ids_outside_the_quiver_are_rejected(position):
    # -1 would index the last arrow and len(Q.arrows) past the end
    _, _, Q, _ = fan_pipeline(4, 2)
    last = len(Q.arrows) - 1
    valid = (Q.in_arrows[Q.arrow_source[last]][0], last)
    for bad in (-1, len(Q.arrows)):
        arrows = list(valid)
        arrows[position] = bad
        with pytest.raises(PathError):
            Path(Q, arrows)
    assert Path(Q, valid).arrows == valid


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
    v = paths_equal(p, pu, R, SearchBudget(max_visited=1))
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
            assert R.residue(lhs.arrows) == R.residue(rhs.arrows)


def test_abelian_trivial_paths():
    _, _, Q, R = fan_pipeline(3, 2)
    assert R.residue(Q.trivial_path(2).arrows) == (0,) * (len(Q.arrows) + 1)


def test_abelian_separation_matches_sympy_oracle():
    _, _, Q, R = fan_pipeline(3, 2)
    rows = relation_vectors(R)

    p = Q.path((arrow_by_endpoints(Q, 1, 2),))
    u = chordless_cycle_at(Q, 2)
    pu = p * u
    uvec = counts(Q, u.arrows)
    separated = R.residue(p.arrows) != R.residue(pu.arrows)
    assert separated == (not sympy_in_lattice(rows, uvec))
    assert separated  # for this quiver the cycle vector is outside the lattice

    # the Hermite normal form basis spans the lattice of the relation rows
    combo = [r1 + 2 * r2 for r1, r2 in zip(rows[0], rows[1])]
    assert sympy_in_lattice(rows, combo) and in_relation_lattice(R, combo)
    assert not in_relation_lattice(R, uvec)


@st.composite
def residue_pairs(draw):
    """Two raw arrow tuples in the quiver of a random triangulation with
    m <= 4 and n <= 8, their ends unrelated: two random tuples, a tuple
    with one relation side inserted against it with the other side, the
    same with two relations in opposite directions, or a tuple against
    itself plus a face cycle.  Returns (R, a, b)."""
    m = draw(st.integers(2, 4))
    T = draw(triangulations(max_n=8))
    _, _, Q, R = pipeline(T.n, m, T.sorted_diagonals)
    arrows = st.lists(st.integers(0, len(Q.arrows) - 1), max_size=30).map(tuple)
    a = draw(arrows)
    kind = draw(st.sampled_from(["random", "one relation", "two relations", "face"]))
    if kind == "random":
        return R, a, draw(arrows)
    if kind == "face":
        return R, a, a + draw(st.sampled_from(Q.faces)).cycle
    cut = draw(st.integers(0, len(a)))
    lhs, rhs = draw(st.sampled_from(R.relations))
    x, y = a[:cut] + lhs.arrows + a[cut:], a[:cut] + rhs.arrows + a[cut:]
    if kind == "two relations":
        lhs, rhs = draw(st.sampled_from(R.relations))
        x, y = x + rhs.arrows, y + lhs.arrows
    return R, x, y


@settings(max_examples=40, deadline=None)
@given(residue_pairs())
def test_residue_is_the_reduced_count_vector(pair):
    # the residue reduces the arrow-count vector modulo the relation
    # lattice: two tuples share their residue exactly when the Hermite
    # normal form oracle finds their count difference in the lattice; the
    # residue is additive, and the empty tuple's is zero
    R, a, b = pair
    assert (R.residue(a) == R.residue(b)) == same_residue(R, a, b)
    assert R.residue(a + b) == tuple(x + y for x, y in zip(R.residue(a), R.residue(b)))
    assert R.residue(()) == (0,) * (len(R.quiver.arrows) + 1)


@settings(max_examples=15)
@given(st.data())
def test_lattice_basis_spans_exactly_the_relation_lattice(data):
    # the oracle's basis spans the relation lattice and no more, and the
    # residue vanishes on it.  Every relation lies in the basis's span;
    # every basis row is an integer combination of relations (the oracle
    # needs independent rows, so it gets a maximal independent subset of
    # the relations, whose lattice lies inside theirs); the positive and
    # negative parts of each basis row share their residue
    from sympy import Matrix

    m = data.draw(st.integers(2, 4))
    T = data.draw(triangulations(max_n=8))
    _, _, Q, R = pipeline(T.n, m, T.sorted_diagonals)
    rows = relation_vectors(R)
    basis = lattice_basis(R)
    assert len(basis) == Matrix(rows).rank()
    assert all(in_relation_lattice(R, vec) for vec in rows)
    _, independent = Matrix(rows).T.rref()
    assert all(sympy_in_lattice([rows[i] for i in independent], row) for row in basis)
    for row in basis:
        plus = tuple(a for a, x in enumerate(row) for _ in range(max(x, 0)))
        minus = tuple(a for a, x in enumerate(row) for _ in range(max(-x, 0)))
        assert R.residue(plus) == R.residue(minus)


def test_distinct_by_abelian():
    _, _, Q, R = fan_pipeline(3, 2)
    p = Q.path((arrow_by_endpoints(Q, 1, 2),))
    pu = p * chordless_cycle_at(Q, 2)
    v = paths_equal(p, pu, R)
    assert v.outcome == DISTINCT and v.separating == "abelian_invariant"


def test_distinct_by_exhausted_closure():
    # two parallel arrows with a common right factor: fa = ga does not force
    # f = g, and both closures are finite
    vertices = {1: "boundary", 2: "boundary", 3: "boundary"}
    arrows = [
        Arrow(1, 2, ("t", (0, 0, 0), 0)),  # f
        Arrow(1, 2, ("t", (0, 0, 0), 1)),  # g
        Arrow(2, 3, ("t", (0, 0, 0), 2)),  # a
    ]
    Q = QuiverWithFaces(1, 3, vertices, arrows, [])
    R = RelationSet(Q, ((Path(Q, (0, 2)), Path(Q, (1, 2))),))
    v = paths_equal(Path(Q, (0,)), Path(Q, (1,)), R)
    assert v.outcome == DISTINCT and v.separating == "exhausted_closure"


def test_class_contains_reports_how_far_it_got():
    # loops a = b = c: the class of a has three states
    Q, R = loops(3, [((0,), (1,)), ((1,), (2,))])
    a = Path(Q, (0,))

    def run(hit, budget=SearchBudget()):
        found, visited, states = class_contains(a, R, hit, budget)
        return found, visited, list(states)

    assert run(lambda arrows: False) == (False, 3, [(0,), (1,), (2,)])
    assert run(lambda arrows: False, SearchBudget(max_visited=2)) == (None, 2, [(0,), (1,)])
    # the word found is not among the states, unless it is the start
    assert run(lambda arrows: arrows == (1,)) == (True, 1, [(0,)])
    assert run(lambda arrows: arrows == (0,)) == (True, 1, [(0,)])


def four_loops():
    # four loops a, b, c, d with a b = c and c = a d: a b and a d share the
    # prefix a, and b and d have no rewrite site
    a, b, c, d = range(4)
    Q, R = loops(4, [((a, b), (c,)), ((c,), (a, d))])
    return Q, R, Path(Q, (a, b)), Path(Q, (a, d))


def test_equal_through_a_rewrite_across_the_shared_prefix():
    # a b = c = a d: every rewrite from a b or a d covers the shared prefix
    Q, R, p, q = four_loops()
    v = paths_equal(p, q, R)
    assert v.outcome == EQUAL
    assert replay_certificate(p, v.certificate, R) == q


def test_search_stays_within_the_budget():
    # running out of max_visited is Unknown, never Distinct
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


@settings(max_examples=40)
@given(st.data())
def test_a_starved_verdict_is_unknown_or_the_generous_one(data):
    # x is a primitive path or a relation side; y is another path of the
    # pool with x's endpoints, or a random rewrite walk from x that does not
    # revisit a path.  Both get one random prefix and suffix.  A starved
    # budget may turn a verdict into Unknown, but never into another
    # definite one.  Every certificate must replay and visited must stay
    # within the budget.
    m = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(3, 5 if m == 4 else 7))
    tris = dl.enumerate_triangulations(n)
    T = tris[data.draw(st.integers(0, len(tris) - 1))]
    _, _, Q, R = pipeline(n, m, T.sorted_diagonals)
    rng = data.draw(st.randoms(use_true_random=True))
    pool = [p for paths in all_primitive_paths(Q).values() for p in paths]
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

    verdicts = []
    for max_visited in (20_000, rng.randint(2, 40)):
        v = paths_equal(p, q, R, SearchBudget(max_visited))
        assert v.visited <= max_visited
        if v.outcome == EQUAL:
            assert replay_certificate(p, v.certificate, R) == q
        verdicts.append(v)
    generous, starved = verdicts
    assert starved.outcome == UNKNOWN or (starved.outcome, starved.separating) == (
        generous.outcome,
        generous.separating,
    )


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
    pool = [p for paths in all_primitive_paths(Q).values() for p in paths]
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
        table = dl.fan_generator_paths(Q)
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


@st.composite
def rewrite_pairs(draw):
    """Two paths with the same ends in the quiver of a random triangulation
    with m <= 4 and n <= 7: the sides of a relation followed by one random
    suffix, the ends of a random rewrite walk from such a path that
    revisits no path, or such a path against itself or a walk's end
    followed by the chordless cycle at its target, which ends Distinct.
    Returns (Q, R, p, q)."""
    m = draw(st.integers(2, 4))
    T = draw(triangulations(max_n=7))
    _, _, Q, R = pipeline(T.n, m, T.sorted_diagonals)
    rng = draw(st.randoms())
    lhs, rhs = rng.choice(R.relations)
    suffix = ()
    for _ in range(rng.randint(0, 4)):
        suffix += (rng.choice(Q.out_arrows[Q.arrow_target[(lhs.arrows + suffix)[-1]]]),)
    kind = draw(st.sampled_from(["relation", "walk", "distinct"]))
    if kind == "relation":
        return Q, R, Q.path(lhs.arrows + suffix), Q.path(rhs.arrows + suffix)
    start = rng.choice((lhs, rhs)).arrows + suffix
    end, seen = start, {start}
    for _ in range(rng.randint(1, 12)):
        sites = [site[3] for site in R.sites(end) if site[3] not in seen]
        if not sites:
            break
        end = rng.choice(sites)
        seen.add(end)
    p, q = Q.path(start), Q.path(end)
    if kind == "distinct":
        q = rng.choice((p, q)) * chordless_cycle_at(Q, q.target)
    return Q, R, p, q


@settings(max_examples=60, deadline=None)
@given(rewrite_pairs())
def test_best_first_search_agrees_with_breadth_first(pair):
    # the face chain only orders the search: every outcome is the one the
    # plain bidirectional breadth-first search reaches, every certificate
    # replays, and the budget holds
    Q, R, p, q = pair
    max_visited = 50_000
    v = paths_equal(p, q, R, SearchBudget(max_visited))
    assert v.visited <= max_visited
    assert v.outcome == bfs_paths_equal(p, q, R, max_visited)
    if v.outcome == EQUAL:
        assert replay_certificate(p, v.certificate, R) == q


@st.composite
def walk_pairs(draw):
    """Two random walks with the same source and target in the quiver of a
    random triangulation with 2 <= m <= 5 and n <= 7 (n <= 5 at m = 5),
    drawn without regard to the relations: 60 walks of 1 to 10 arrows from
    one vertex, two of them that end at the same vertex (or, should no two
    meet, one walk against itself followed by the chordless cycle at its
    target).  Returns (Q, R, p, q)."""
    m = draw(st.integers(2, 5))
    T = draw(triangulations(max_n=5 if m == 5 else 7))
    _, _, Q, R = pipeline(T.n, m, T.sorted_diagonals)
    rng = draw(st.randoms())
    source = rng.choice(sorted(Q.vertices, key=str))
    by_target = {}
    for _ in range(60):
        at, walk = source, ()
        for _ in range(rng.randint(1, 10)):
            arrow = rng.choice(Q.out_arrows[at])
            walk += (arrow,)
            at = Q.arrow_target[arrow]
        by_target.setdefault(at, set()).add(walk)
    bucket = max(by_target.values(), key=len)
    if len(bucket) < 2:
        p = Q.path(bucket.pop())
        return Q, R, p, p * chordless_cycle_at(Q, p.target)
    p, q = rng.sample(sorted(bucket), 2)
    return Q, R, Q.path(p), Q.path(q)


@settings(max_examples=100)
@given(st.one_of(rewrite_pairs(), walk_pairs()))
def test_face_chain_spans_the_count_difference(pair):
    # sum_F c_F cnt(F) = cnt(p) - cnt(q) for every pair with the same ends,
    # related by rewrites or not, and c sums to 0 exactly when the lattice
    # oracle finds cnt(p) - cnt(q) in the relation lattice.  paths_equal
    # decides its abelian test by that sum, so it names the abelian
    # invariant exactly when the oracle separates p and q
    Q, R, p, q = pair
    c = R.face_chain(p.arrows, q.arrows)
    assert len(c) == len(Q.faces) and all(isinstance(x, int) for x in c)
    total = [0] * len(Q.arrows)
    for face, coefficient in zip(Q.faces, c):
        for a in face.cycle:
            total[a] += coefficient
    assert total == [x - y for x, y in zip(counts(Q, p.arrows), counts(Q, q.arrows))]
    residues_differ = not same_residue(R, p.arrows, q.arrows)
    assert (sum(c) != 0) == residues_differ
    v = paths_equal(p, q, R, SearchBudget(max_visited=2))
    assert (v.separating == "abelian_invariant") == residues_differ


@settings(max_examples=30)
@given(rewrite_pairs())
def test_a_rewrite_moves_one_unit_between_its_two_faces(pair):
    # a step by relation r changes c at F+(r) and F-(r) only, each by one
    # unit: 'lr' takes one off F+ and puts one on F-
    Q, R, p, q = pair
    before = R.face_chain(p.arrows, q.arrows)
    for _, ridx, direction, res in R.sites(p.arrows):
        after = R.face_chain(res, q.arrows)
        face_plus, face_minus = R.faces[ridx]
        unit = 1 if direction == "lr" else -1
        moved = {f: y - x for f, (x, y) in enumerate(zip(before, after)) if x != y}
        assert moved == {face_plus: -unit, face_minus: unit}


@settings(max_examples=30)
@given(T=triangulations(9), m=st.integers(2, 4))
def test_relations_are_cut_from_their_two_faces(T, m):
    # each relation's sides are its + and its - face less the one arrow
    # they share.  The sides are built without Path's checks, so each is
    # validated again here, and the quiver they come from is checked to
    # round-trip and to satisfy the dimer-model axioms
    Q = dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, m)))
    R = dl.potential_relations(Q)
    for (lhs, rhs), (face_plus, face_minus) in zip(R.relations, R.faces):
        plus, minus = Q.faces[face_plus], Q.faces[face_minus]
        assert (plus.orientation, minus.orientation) == ("+", "-")
        arrow = Counter(plus.cycle) - Counter(lhs.arrows)
        assert len(arrow) == 1 and arrow == Counter(minus.cycle) - Counter(rhs.arrows)
        for side in (lhs, rhs):
            checked = Path(Q, side.arrows)
            assert (checked.source, checked.target) == (side.source, side.target)
    assert QuiverWithFaces.from_json(Q.to_json()) == Q
    assert dl.validate_dimer_model(Q).passed


def test_a_relation_set_without_faces_has_no_face_chain():
    # the hand-made quivers here have no faces: their search is breadth-first
    Q, R, p, q = four_loops()
    assert R.faces is None and R.face_chain(p.arrows, q.arrows) is None


def test_a_relation_set_without_faces_has_no_residue():
    Q, R, p, q = four_loops()
    with pytest.raises(RewriteError, match="without faces has no residue"):
        R.residue(p.arrows)


def test_faceless_queries_go_straight_to_the_search():
    # loops a, b with a a = b: a and b differ in their residue, but without
    # faces there is no residue test, and the closure of a is {a}
    Q, R = loops(2, [((0, 0), (1,))])
    v = paths_equal(Path(Q, (0,)), Path(Q, (1,)), R)
    assert (v.outcome, v.separating) == (DISTINCT, "exhausted_closure")


def test_the_budget_ends_an_infinite_class():
    # loops a, b with a = b a: the class of a is b^k a for every k, so only
    # the visited budget ends its closure.  No word is dropped for its
    # length: the k-th state has k arrows, and the run takes about 0.3 s
    Q, R = loops(2, [((0,), (1, 0))])
    found, visited, states = class_contains(
        Path(Q, (0,)), R, lambda arrows: False, SearchBudget(1_000)
    )
    assert (found, visited) == (None, 1_000)
    assert sorted(map(len, states)) == list(range(1, 1_001))
    v = paths_equal(Path(Q, (0,)), Path(Q, (1, 1, 0, 0)), R, SearchBudget(1_000))
    assert (v.outcome, v.visited) == (UNKNOWN, 1_000)


def test_unsound_cuts_are_refused():
    # a cut whose arrow is not on exactly its two faces has no relation, and
    # cuts that leave faces apart would make the residue split or merge
    # classes silently
    _, _, Q, R = fan_pipeline(3, 2)
    internal = [aid for aid in range(len(Q.arrows)) if Q.arrow_kind(aid) == "internal"]
    boundary = min(set(range(len(Q.arrows))) - set(internal))
    cuts = [(aid, *pair) for aid, pair in zip(internal, R.faces)]
    assert len(cuts) == 3
    rebuilt = RelationSet(Q, cuts=cuts)
    assert (rebuilt.relations, rebuilt.faces) == (R.relations, R.faces)
    with pytest.raises(RewriteError, match="^give relations or cuts, not both$"):
        RelationSet(Q, R.relations, cuts=cuts)
    for arrow in (boundary, 99):
        with pytest.raises(RewriteError, match=f"^arrow {arrow} does not lie on exactly faces"):
            RelationSet(Q, cuts=cuts + [(arrow, *R.faces[0])])
    for k in range(len(cuts)):
        with pytest.raises(RewriteError, match="faces are not reached from the boundary"):
            RelationSet(Q, cuts=cuts[:k] + cuts[k + 1 :])
    # F+ and F- swapped only swap each relation's sides
    swapped = RelationSet(Q, cuts=[(aid, minus, plus) for aid, plus, minus in cuts])
    assert swapped.relations == tuple((rhs, lhs) for lhs, rhs in R.relations)
    # a face whose cycle does not chain (two of its arrows swapped) is
    # refused by name, not by a PathError from one of its sides
    at = next(i for i, f in enumerate(Q.faces) if len(f.cycle) >= 3)
    faces = list(Q.faces)
    a, b, *rest = faces[at].cycle
    faces[at] = replace(faces[at], cycle=(b, a, *rest))
    broken = QuiverWithFaces(Q.m, Q.n, Q.vertices, Q.arrows, faces)
    with pytest.raises(RewriteError) as exc:
        RelationSet(broken, cuts=cuts)
    assert type(exc.value) is RewriteError
    assert str(exc.value) == (
        f"face {at}'s cycle {faces[at].cycle} is not two or more arrows chained head-to-tail"
    )


def test_faces_out_of_reach_of_the_boundary_are_refused():
    # one loop on a + and a - face: no boundary arrow fixes either face
    Q = QuiverWithFaces(
        1,
        1,
        {1: "internal"},
        [Arrow(1, 1, ("t", (0, 0, 0), 0))],
        [Face((0,), "w"), Face((0,), "b")],
    )
    with pytest.raises(RewriteError, match="2 faces are not reached from the boundary"):
        RelationSet(Q, cuts=[])
    # loops b, x with x on three faces: the count of x does not fix one
    # face from another, so only b's face is reached
    arrows = [Arrow(1, 1, ("t", (0, 0, 0), k)) for k in range(2)]
    faces = [Face((0, 1), "w"), Face((1,), "b"), Face((1,), "b")]
    Q = QuiverWithFaces(1, 1, {1: "internal"}, arrows, faces)
    with pytest.raises(RewriteError, match="2 faces are not reached from the boundary"):
        RelationSet(Q, cuts=[])
    # two triangles of boundary arrows: each face has a boundary arrow, but
    # with no cuts between them the walk from one never reaches the other
    ends = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
    arrows = [Arrow(u, v, ("t", (0, 0, 0), k)) for k, (u, v) in enumerate(ends)]
    faces = [Face((0, 1, 2), "w"), Face((3, 4, 5), "b")]
    Q = QuiverWithFaces(1, 1, dict.fromkeys(range(1, 7), "boundary"), arrows, faces)
    assert all(Q.arrow_kind(aid) == "boundary" for aid in range(6))
    with pytest.raises(RewriteError, match="1 faces are not reached from the boundary"):
        RelationSet(Q, cuts=[])
