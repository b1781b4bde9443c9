"""End-to-end acceptance checks, one test per criterion.

Every test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so a full run reads as a checklist.  The
exhaustive-enumeration clauses run wherever the enumeration fits the state
cap; the 3x3 grid's corner-tree and rule-tree spaces exceed it, which the
tests verify and note rather than sampling silently.

Criterion 10 checks the parity half of the acyclicity argument on all 1846
alternating cycles of superpositions of two matchings of the C3 and C4
doubles minus s: on every cycle the turns balance (n2 = n3), the interior
holds as many whites as blacks (n4 = n5), and s lies neither on nor inside
it; so no cycle has the odd interior (n5 - n4 = 1) that a cycle inside a
rule-compliant tree completion would need.  The interior of a real
superposition cycle is perfectly matched by doubled edges, white to black,
so it is even.  The criterion's literal clause, "every interior is odd",
could not hold on any input: 1733 of the 1846 cycles have an empty interior.
"""

import itertools
import math
import random
import time
from collections import Counter

from isingtree import construction as cn
from isingtree import correspondence as co
from isingtree import oracles
from isingtree.isoradial import critical_couplings, dimer_weights
from isingtree.kasteleyn import check_flat, assign_phases
from isingtree.oracles import (Arc, TooLargeError, WeightedDigraph, dimer_Z,
                               ising_Z, matrix_tree_Z, ost_Z)
from isingtree.report import rel_err

from reference import enumerate_matchings, enumerate_osts

TOL = 1e-9


def line(num, ok, detail):
    print("[criterion %02d] %s - %s" % (num, "PASS" if ok else "FAIL", detail))


def matchings_minus_s(p):
    s = p.dd.vertex_id(p.s_key)
    return [frozenset(p.dd.edge_key(e) for e in mt)
            for mt in enumerate_matchings(p.dd, skip_vertex=s)]


def enumeration_bound(g, root):
    out = Counter(a.tail for a in g.arcs)
    bound = 1
    for v in g.nodes:
        if v != root:
            bound *= out[v]
    return bound


def test_criterion_01_squared_ising_partition_identity(pipelines,
                                                      squared_ising_report):
    t0 = time.perf_counter()
    worst = 0.0
    for p in pipelines.values():
        rep = squared_ising_report(p)   # 3 samples, EPS_NUM = TOL
        assert len(rep.checks) == 8   # dimers and Kac-Ward per coupling
        worst = max(worst, max(c.err for c in rep.checks))
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL and elapsed < 30.0
    line(1, ok, "critical + 3 generic couplings per graph, max rel err "
         "%.2e, %.1fs" % (worst, elapsed))
    assert worst <= TOL
    assert elapsed < 30.0


def test_criterion_02_flat_phasing_on_every_inner_face(pipelines):
    worst = 0.0
    for p in pipelines.values():
        rep = check_flat(p.gq, assign_phases(p.gq, p.iso, p.bnd))
        worst = max(worst, rep.max_deviation)
    line(2, worst <= TOL, "max |C(F) - 1| = %.2e over all faces" % worst)
    assert worst <= TOL


def test_criterion_03_determinant_equals_dimer_sum_and_is_real(pipelines):
    worst_rel = worst_im = 0.0
    for p in pipelines.values():
        det = p.K.det()
        brute = dimer_Z(p.gq, dimer_weights(critical_couplings(p.iso), p.gq))
        worst_rel = max(worst_rel, rel_err(abs(det), abs(brute)))
        worst_im = max(worst_im, abs(det.imag) / abs(det))
    ok = worst_rel <= TOL and worst_im <= TOL
    line(3, ok, "|det K| vs enumerated dimer sum rel err %.2e, "
         "realness %.2e" % (worst_rel, worst_im))
    assert worst_rel <= TOL
    assert worst_im <= TOL


def test_criterion_04_white_neighbour_sums(pipelines):
    import cmath
    worst = 0.0
    for p in pipelines.values():
        m, K = p.m, p.K
        sig_inv = {m.sigma[d]: d for d in range(len(m.sigma))}
        for i, (_, wd) in enumerate(K.whites):
            rs = sum(K.rows[i].values())
            delta = sig_inv[wd]
            if m.is_outer_dart(delta):
                want = (-1j * cmath.exp(-1j * p.iso.theta[wd >> 1])
                        * (cmath.exp(-1j * p.bnd.theta[delta]) - 1.0))
            else:
                want = 0.0
            worst = max(worst, abs(rs - want))
    line(4, worst <= TOL, "max absolute deviation %.2e (interior zero, "
         "boundary -i e^{-i theta}(e^{-i theta_bd}-1))" % worst)
    assert worst <= TOL


def test_criterion_05_matrix_tree_on_random_complex_digraphs():
    rng = random.Random(20260815)
    worst = 0.0
    for trial in range(50):
        n = rng.randint(2, 6)
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.6:
                    arcs.append(Arc(u, v, complex(rng.gauss(0, 1),
                                                  rng.gauss(0, 1))))
        g = WeightedDigraph(nodes=tuple(range(n)), arcs=tuple(arcs))
        root = rng.randrange(n)
        worst = max(worst, rel_err(matrix_tree_Z(g, root), ost_Z(g, root)))
    line(5, worst <= TOL,
         "50 random digraphs (<= 6 vertices), max rel err %.2e" % worst)
    assert worst <= TOL


def test_criterion_06_boundary_splitting_preserves_tree_sums(pipelines):
    worst = 0.0
    notes = []
    for p in pipelines.values():
        z0 = matrix_tree_Z(p.g0.graph, co.ROOT)
        z1 = matrix_tree_Z(p.g.graph, co.ROOT)
        worst = max(worst, rel_err(z0, z1))
        bound = enumeration_bound(p.g0.graph, co.ROOT)
        if bound > oracles.STATE_CAP:
            notes.append("%s enumeration declined (%d candidate functions "
                         "> cap)" % (p.name, bound))
            continue
        # exhaustive weight-preserving bijection between the tree families
        split_trees = {frozenset(t): None
                       for t in enumerate_osts(p.g.graph, co.ROOT)}
        covered = set()
        for t in enumerate_osts(p.g0.graph, co.ROOT):
            images = cn.map_ost_A_to_D(p.g0, p.g, t)
            total = 0j
            w0 = 1.0 + 0j
            for ai in t:
                w0 *= p.g0.graph.arcs[ai].weight
            for img in images:
                assert img in split_trees and img not in covered
                # arc sets: the search yields a tree in its own node order
                assert frozenset(cn.split_tree_preimage(p.g0, p.g, img)) \
                    == frozenset(t)
                covered.add(img)
                w = 1.0 + 0j
                for ai in img:
                    w *= p.g.graph.arcs[ai].weight
                total += w
            worst = max(worst, rel_err(total, w0))
        assert covered == set(split_trees)
    ok = worst <= TOL
    line(6, ok, "tree sums agree (max rel err %.2e); bijection exhaustive "
         "on C3, C4; %s" % (worst, "; ".join(notes)))
    assert worst <= TOL


def test_criterion_07_round_trip_classes_and_zero_rejections(pipelines):
    notes = []
    for p in pipelines.values():
        try:
            rule_trees = set(cn.enumerate_rule_trees(p.dd, p.m))
        except TooLargeError as exc:
            notes.append("%s: %s" % (p.name, exc))
            continue
        # (a) every split tree maps to a rule tree and back
        for t in enumerate_osts(p.g.graph, co.ROOT):
            edges = cn.dual_in_double(p.g, frozenset(t))
            assert cn.check_local_rules(p.m, edges) == []
            assert edges in rule_trees
            assert cn.rule_tree_to_split_tree(p.g, edges) == frozenset(t)
        # (b) + (c) classes partition the rule trees with no rejections
        pref = co.class_prefactor(p.iso, p.bnd)
        seen = set()
        rejected = 0
        for mk in matchings_minus_s(p):
            cl = cn.matching_to_trees(p.dd, p.m, mk, p.rho_star, p.tau2, pref)
            rejected += cl.n_rejected
            ts = set(cl.trees)
            assert not ts & seen
            seen |= ts
        assert seen == rule_trees
        assert rejected == 0
    line(7, True, "round trip + disjoint cover + zero cycle rejections on "
         "C3, C4; %s" % "; ".join(notes))


def test_criterion_08_class_weights_match_closed_forms(pipelines):
    worst = 0.0
    details = []
    for p in pipelines.values():
        pref = co.class_prefactor(p.iso, p.bnd)
        matchings = matchings_minus_s(p)
        full = enumeration_bound(p.g0.graph, co.ROOT) <= oracles.STATE_CAP
        chosen = matchings if full else sorted(matchings, key=sorted)[:3]
        for mk in chosen:
            cl = cn.matching_to_trees(p.dd, p.m, mk, p.rho_star, p.tau2, pref)
            worst = max(worst, rel_err(cl.weight_sum, cl.closed_form))
        # aggregate identity over *all* matchings: the closed forms sum to
        # the split-graph tree partition function
        total = 0j
        for mk in matchings:
            w = pref
            for k in mk:
                w *= p.tau2[k]
            total += w
        agg = rel_err(total, matrix_tree_Z(p.g.graph, co.ROOT))
        worst = max(worst, agg)
        details.append("%s: %s classes + aggregate"
                       % (p.name, "all" if full else "%d spot" % len(chosen)))
    line(8, worst <= TOL, "max rel err %.2e (%s)" % (worst, ", ".join(details)))
    assert worst <= TOL


def test_criterion_09_main_identity_two_independent_routes(pipelines):
    worst = 0.0
    slowest = 0.0
    for p in pipelines.values():
        t0 = time.perf_counter()
        zi = ising_Z(p.m, critical_couplings(p.iso))
        lhs = zi * zi
        # route 1: direct tree-pair enumeration on the extended pair
        zrs, _ = co.tree_pair_sum(p.ext, p.tw, p.s_key)
        # route 2: the determinant chain
        prod_cos = math.prod(math.cos(t) for t in p.iso.theta)
        det_route = abs(p.K.det()) / prod_cos
        scale = 2.0 ** p.m.n_vertices
        worst = max(worst, rel_err(lhs, scale * abs(zrs)),
                    rel_err(lhs, scale * det_route))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst <= TOL and slowest < 60.0
    line(9, ok, "Z_Ising^2 = 2^V |Z^{r,s}| via tree pairs and via the "
         "determinant, max rel err %.2e, slowest graph %.1fs"
         % (worst, slowest))
    assert worst <= TOL
    assert slowest < 60.0


# Interior sizes of the 1846 C3+C4 superposition cycles; a count of the
# components of the double minus each cycle's vertices gives the same.
INTERIOR_COUNTS_C3_C4 = {0: 1733, 2: 78, 4: 26, 6: 9}
# Turn totals (n1, n2, n3) over the same cycles; counting where the kind
# changes along each cycle's sequence of blacks gives the same.
TURN_TOTALS_C3_C4 = (1248, 2208, 2208)


def test_criterion_10_superposition_cycles_odd_interior(pipelines):
    histogram = Counter()
    turn_balanced = colour_balanced = s_outside = turns_fill_cycle = True
    turns = [0, 0, 0]
    n_cycles = 0
    for name in ("C3", "C4"):
        p = pipelines[name]
        for m1, m2 in itertools.combinations(matchings_minus_s(p), 2):
            for cyc in cn.parity_check(p.dd, p.s_key, m1, m2):
                n_cycles += 1
                turn_balanced &= cyc.n2 == cyc.n3
                turns_fill_cycle &= cyc.n1 + cyc.n2 + cyc.n3 == cyc.length // 2
                turns[0] += cyc.n1
                turns[1] += cyc.n2
                turns[2] += cyc.n3
                colour_balanced &= cyc.n4 == cyc.n5
                s_outside &= not (cyc.s_on or cyc.s_inside)
                histogram[cyc.interior_vertices] += 1
    # A cycle inside a rule-compliant completion would need n5 - n4 = 1,
    # hence an odd interior; no superposition cycle may have one.
    n_odd = sum(v for k, v in histogram.items() if k % 2)
    ok = (n_cycles == 1846 and turn_balanced and turns_fill_cycle
          and tuple(turns) == TURN_TOTALS_C3_C4 and colour_balanced
          and s_outside and n_odd == 0
          and histogram == INTERIOR_COUNTS_C3_C4)
    line(10, ok, "%d cycles; n2 = n3: %s; turn totals (n1, n2, n3) = %s; "
         "n4 = n5: %s; s off and outside: %s; odd interiors (a "
         "tree-completion cycle): %d (interior counts %s)"
         % (n_cycles, turn_balanced, tuple(turns), colour_balanced,
            s_outside, n_odd, dict(sorted(histogram.items()))))
    assert n_cycles == 1846
    assert turn_balanced
    assert turns_fill_cycle
    assert tuple(turns) == TURN_TOTALS_C3_C4
    assert colour_balanced
    assert s_outside
    assert n_odd == 0, (
        "%d of %d superposition cycles have an odd interior (counts %s): "
        "the interior of a real superposition cycle is perfectly matched by "
        "doubled edges, white to black, so it must be even."
        % (n_odd, n_cycles, dict(sorted(histogram.items()))))
    assert histogram == INTERIOR_COUNTS_C3_C4
