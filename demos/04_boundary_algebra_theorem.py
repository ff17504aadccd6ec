"""The boundary algebra of a GL_m-dimer is the canonical quiver Gamma(m, n).

Extract the generator classes of the boundary algebra (paths between
boundary vertices through internal ones, up to equality, minus
composites), match them against Gamma(m, n), and verify the relation
families and the central element.
"""

import dimerlab as dl

m, n = 3, 5
T = dl.fan_triangulation(n, 1)
Q = dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, m)))
R = dl.potential_relations(Q)
BP = dl.boundary_generators(Q, R)
print(f"fan({n},1), m={m}: {len(BP.classes)} generator classes "
      f"(Gamma predicts {3 * n * (m - 1)})")

G = dl.build_gamma(m, n)
match = dl.match_gamma(BP, G)
print(f"match against Gamma({m},{n}): ok={match.ok}")

report = dl.verify_theorem_relations(BP, R, match=match)
by_family = {}
for inst in report.instances:
    by_family.setdefault(inst.family, []).append(inst)
print(f"relation suite: {len(report.instances)} instances, passed={report.passed}")
for fam, insts in sorted(by_family.items()):
    print(f"  family {fam}: {len(insts)} instances, e.g. {insts[0].description}")

central = dl.verify_central_element(BP, R)
print(f"central element (u_s a = a u_t for every generator): {central.passed}")

table = dl.fan_generator_paths(m, n, Q)
formulas = dl.check_fan_formulas(BP, R, match=match)
print(f"named fan generator paths: {len(table)}, all equal to extracted classes: "
      f"{formulas.passed}")
