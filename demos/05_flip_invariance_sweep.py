"""Flip invariance: every triangulation yields the same boundary quiver.

One flip at a time: a transport certificate names the generator classes
whose representatives change and re-verifies the relations.  All at once:
a sweep over every triangulation of the n-gon confirms each presentation
matches Gamma(m, n).
"""

import time

import dimerlab as dl

cert = dl.verify_flip_transport(dl.fan_triangulation(5, 1), (1, 3), 2)
print(f"flip (1,3) of fan(5,1), m=2: ok={cert.ok}")
print(f"  affected classes: {sorted(cert.affected)}")
print(f"  unaffected representatives identical: {cert.unaffected_identical}")
print(f"  relations re-verified on the flipped side: {cert.relations_after.passed}")

print("\nsweep over every triangulation:")
t0 = time.time()
for m, max_n in [(2, 7), (3, 5)]:
    for n in range(4, max_n + 1):
        results = [
            dl.verify_boundary_algebra(T, m)
            for T in dl.enumerate_triangulations(n)
        ]
        ok = sum(r.passed for r in results)
        print(f"  m={m} n={n}: {ok}/{len(results)} presentations match Gamma({m},{n})")
print(f"({time.time() - t0:.1f}s)")
