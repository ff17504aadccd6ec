"""Path equality in the dimer algebra, with certificates.

The natural potential pairs each interior arrow's counterclockwise and
clockwise faces; the cyclic derivative at the arrow equates the two
complementary paths.  Equality of arbitrary paths is semidecided by
bidirectional best-first search, ordered by the faces between the two
paths, returning a replayable certificate for Equal and a separating
invariant for Distinct.  A relation set answers only for the words of
its own quiver.
"""

import dimerlab as dl
from dimerlab.quiver import chordless_cycle_at
from dimerlab.rewrite import RewriteError

Q = dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(dl.Triangulation(3, []), 2)))
R = dl.potential_relations(Q)

def fmt(path):
    return " ".join(f"({Q.arrow_source[a]}->{Q.arrow_target[a]})" for a in path.arrows)


print("relations of the triangle quiver (one per interior arrow):")
for lhs, rhs in R.relations:
    print(f"  {fmt(lhs)}  =  {fmt(rhs)}")

p = Q.path((Q.find_arrow(2, 3), Q.find_arrow(3, 4)))
q = Q.path((Q.find_arrow(2, 6), Q.find_arrow(6, 4)))
print(f"\nrewrite sites of x3 x4 (position, relation, direction, result): {R.sites(p.arrows)}")
verdict = dl.paths_equal(p, q, R)
print(f"x3 x4 = (2->6)(6->4)? {verdict.outcome}, certificate {verdict.certificate_json()}")
assert dl.replay_certificate(p, verdict.certificate, R) == q

u = chordless_cycle_at(Q, 2)
p1 = Q.path((Q.find_arrow(1, 2),))
verdict = dl.paths_equal(p1, p1 * u, R)
print(f"x2 = x2 * u_2? {verdict.outcome} (separated by {verdict.separating})")

budget = dl.SearchBudget(max_visited=1)
verdict = dl.paths_equal(p1, p1 * u, R, budget)
print(f"same question with a starved budget: {verdict.outcome}")

# a second build of the same triangle is another quiver: its words are refused
copy = dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(dl.Triangulation(3, []), 2)))
try:
    dl.paths_equal(dl.Path(copy, p.arrows), dl.Path(copy, q.arrows), R)
except RewriteError as exc:
    print(f"a word of another quiver: {exc}")
else:
    raise AssertionError("a word of another quiver was not refused")
