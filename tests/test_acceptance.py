"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria are exact (no numeric tolerances); the stated runtime ceilings
are asserted on fresh computations so no cross-test caching hides cost.
"""

import functools
import random
import time

import dimerlab as dl
from dimerlab.boundary import match_gamma
from dimerlab.quiver import chordless_cycle_at
from dimerlab.rewrite import EQUAL, paths_equal, replay_certificate

FAN_GRID = (
    [(2, n) for n in range(3, 9)]
    + [(3, n) for n in range(3, 7)]
    + [(4, n) for n in range(3, 6)]
    + [(5, n) for n in (3, 4)]
)
FLIP_GRID = [(2, n) for n in range(4, 8)] + [(3, n) for n in (4, 5)]


def report(cid, ok, detail=""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


@functools.lru_cache(maxsize=None)
def fan_quiver(m, n):
    T = dl.fan_triangulation(n, 1)
    return dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, m)))


@functools.lru_cache(maxsize=None)
def fan_stack(m, n):
    Q = fan_quiver(m, n)
    R = dl.potential_relations(Q)
    BP = dl.boundary_generators(R)
    match = match_gamma(BP)
    return Q, R, BP, match


@functools.lru_cache(maxsize=None)
def flip_grid_stacks():
    out = {}
    for m, n in FLIP_GRID:
        for idx, T in enumerate(dl.enumerate_triangulations(n)):
            Q = dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, m)))
            R = dl.potential_relations(Q)
            BP = dl.boundary_generators(R)
            match = match_gamma(BP)
            out[(m, n, idx)] = (T, Q, R, BP, match)
    return out


def test_criterion_1_vertex_count_law():
    t0 = time.monotonic()
    bad = []
    for m in range(2, 7):
        for n in range(4, 10):
            T = dl.fan_triangulation(n, 1)
            Q = dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, m)))
            want = dl.p2(n, m - 1)
            if len(Q.internal_vertices) != want:
                bad.append((m, n, len(Q.internal_vertices), want))
            if n == 4 and len(Q.internal_vertices) != (m - 1) ** 2:
                bad.append((m, n, "square-law"))
    dt = time.monotonic() - t0
    report(
        "1 vertex-count-law",
        not bad and dt < 10.0,
        f"30 fans, internal = P2(n, m-1), {dt:.2f}s" + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_2_fan_structure_m2():
    t0 = time.monotonic()
    bad = []
    for n in range(3, 9):
        T = dl.fan_triangulation(n, 1)
        Q = dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, 2)))
        rep = dl.fan_m2_structure_report(Q)
        if not rep.passed:
            bad.append((n, rep.failures()))
    dt = time.monotonic() - t0
    report(
        "2 fan-structure-m2",
        not bad and dt < 5.0,
        f"n in [3,8] exact arrow inventory + 2n-2 faces, {dt:.2f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_3_gamma_matching_fans():
    t0 = time.monotonic()
    bad = []
    for m, n in FAN_GRID:
        _, _, BP, match = fan_stack(m, n)
        if not match.ok or len(BP.classes) != 3 * n * (m - 1):
            bad.append((m, n, len(BP.classes), match.obstruction))
    dt = time.monotonic() - t0
    report(
        "3 gamma-matching-fans",
        not bad and dt < 300.0,
        f"{len(FAN_GRID)} fan presentations match Gamma(m,n), {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_4_relation_suite():
    t0 = time.monotonic()
    bad, total = [], 0
    for m, n in FAN_GRID:
        _, _, BP, match = fan_stack(m, n)
        rep = dl.verify_theorem_relations(BP, match=match)
        total += len(rep.instances)
        if not rep.passed or rep.unknowns():
            bad.append((m, n, [i.description for i in rep.unknowns() + rep.failures()]))
    dt = time.monotonic() - t0
    report(
        "4 relation-suite",
        not bad,
        f"{total} relation instances all Equal, zero Unknown, {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_5_flip_invariance():
    t0 = time.monotonic()
    stacks = flip_grid_stacks()
    count_m2 = sum(1 for (m, _, _) in stacks if m == 2)
    count_m3 = sum(1 for (m, _, _) in stacks if m == 3)
    bad = [
        (m, n, idx)
        for (m, n, idx), (_, _, _, BP, match) in stacks.items()
        if not match.ok or len(BP.classes) != 3 * n * (m - 1)
    ]
    dt = time.monotonic() - t0
    report(
        "5 flip-invariance",
        count_m2 == 63 and count_m3 == 7 and not bad and dt < 1800.0,
        f"{count_m2}+{count_m3} triangulations all match Gamma, {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_6_central_element():
    t0 = time.monotonic()
    bad = []
    for m, n in FAN_GRID:
        _, _, BP, _ = fan_stack(m, n)
        rep = dl.verify_central_element(BP)
        if not rep.passed:
            bad.append((m, n, rep.unknowns()))
    dt = time.monotonic() - t0
    report(
        "6 central-element",
        not bad,
        f"generator-wise commutation on {len(FAN_GRID)} fans, {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_7_chordless_cycles():
    t0 = time.monotonic()
    bad, pairs = [], 0
    for (m, n, idx), (_, Q, R, _, _) in flip_grid_stacks().items():
        for v in Q.vertices:
            fis = Q.faces_at(v)
            if len(fis) < 2:
                continue
            cycles = []
            for fi in fis:
                cyc = list(Q.faces[fi].cycle)
                for i, aid in enumerate(cyc):
                    if Q.arrow_source[aid] == v:
                        cycles.append(dl.Path(Q, tuple(cyc[i:] + cyc[:i])))
                        break
            for i in range(len(cycles)):
                for j in range(i + 1, len(cycles)):
                    pairs += 1
                    if paths_equal(cycles[i], cycles[j], R).outcome != EQUAL:
                        bad.append((m, n, idx, v))
    dt = time.monotonic() - t0
    report(
        "7 chordless-cycles",
        not bad,
        f"{pairs} cycle pairs Equal at every multi-face vertex, {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_8_dimer_model_axioms():
    t0 = time.monotonic()
    bad = []
    for m, n in FAN_GRID:
        Q = fan_quiver(m, n)
        rep = dl.validate_dimer_model(Q)
        if not rep.passed:
            bad.append((m, n, rep.failures()))
    for (m, n, idx), (_, Q, _, _, _) in flip_grid_stacks().items():
        rep = dl.validate_dimer_model(Q)
        if not rep.passed:
            bad.append((m, n, idx, rep.failures()))
    dt = time.monotonic() - t0
    report(
        "8 dimer-model-axioms",
        not bad,
        f"axioms (a)-(d) + face counts on every constructed quiver, {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_9_reduction_confluence():
    t0 = time.monotonic()
    rng = random.Random(20260811)
    bad = []
    for m, n in FLIP_GRID:
        for idx, T in enumerate(dl.enumerate_triangulations(n)):
            D = dl.build_dimer(T, m)
            reference = dl.reduce_dimer(D).canonical_form()
            for _ in range(20):
                order = D.contractible_blacks()
                rng.shuffle(order)
                if dl.reduce_dimer(D, order=order).canonical_form() != reference:
                    bad.append((m, n, idx))
                    break
    dt = time.monotonic() - t0
    report(
        "9 reduction-confluence",
        not bad,
        f"20 random contraction orders per instance, {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )


def test_criterion_10_oracle_soundness():
    t0 = time.monotonic()
    bad, replayed = [], 0
    for m, n in [(2, 3), (2, 6), (3, 4), (4, 4), (5, 3)]:
        _, R, BP, match = fan_stack(m, n)
        # paths_equal replays every certificate internally and cross-checks
        # the abelian invariant before answering Equal; here the suite also
        # replays a corpus externally
        for lhs, rhs in R.relations:
            v = paths_equal(lhs, rhs, R)
            if v.outcome != EQUAL:
                bad.append((m, n, "relation pair not equal"))
                continue
            if replay_certificate(lhs, v.certificate, R) != rhs:
                bad.append((m, n, "replay mismatch"))
            if R.residue(lhs.arrows) != R.residue(rhs.arrows):
                bad.append((m, n, "abelian separated an equal pair"))
            replayed += 1
        Q = fan_quiver(m, n)
        for v_ in Q.boundary_vertices:
            u = chordless_cycle_at(Q, v_)
            for fi in Q.faces_at(v_):
                cyc = list(Q.faces[fi].cycle)
                k = next(i for i, a in enumerate(cyc) if Q.arrow_source[a] == v_)
                other = dl.Path(Q, tuple(cyc[k:] + cyc[:k]))
                verdict = paths_equal(u, other, R)
                if verdict.outcome == EQUAL:
                    replayed += 1
                    if replay_certificate(u, verdict.certificate, R) != other:
                        bad.append((m, n, "cycle replay mismatch"))
                    if R.residue(u.arrows) != R.residue(other.arrows):
                        bad.append((m, n, "abelian separated equal cycles"))
    dt = time.monotonic() - t0
    report(
        "10 oracle-soundness",
        not bad and replayed > 0,
        f"{replayed} certificates replayed, abelian consistent, {dt:.1f}s"
        + (f"; bad={bad}" if bad else ""),
    )
