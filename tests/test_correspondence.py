"""The four-stage chain, checked stage by stage against the oracles.

C3 and C4 are small enough to enumerate everything; the 3x3 grid joins in
wherever determinants or matching enumeration suffice.  Grid 10x10 and
rhombic 10x10 (K of order 360) check the corner-graph determinant identities.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from isingtree import construction as cn
from isingtree import correspondence as co
from isingtree import oracles
from isingtree.generators import cycle, grid, rhombic
from isingtree.isoradial import critical_couplings, dimer_weights
from isingtree.oracles import (Arc, TooLargeError, WeightedDigraph,
                               count_osts, dimer_Z, matrix_tree_Z, ost_Z)

from conftest import bowtie
from reference import enumerate_matchings, enumerate_osts

SMALL = ("C3", "C4")
OST_COUNTS = {"C3": (73, 248), "C4": (407, 1904)}
MATCHING_COUNTS = {"C3": 16, "C4": 45, "grid": 24000}


def weight(graph, arc_indices):
    p = 1.0 + 0j
    for ai in arc_indices:
        p *= graph.arcs[ai].weight
    return p


def matchings_minus_s(p):
    s = p.dd.vertex_id(p.s_key)
    return [frozenset(p.dd.edge_key(e) for e in mt)
            for mt in enumerate_matchings(p.dd, skip_vertex=s)]


# --- stage 1: corner graph --------------------------------------------------

def test_corner_tree_determinant_is_det_K(pipelines):
    for p in pipelines.values():
        z = matrix_tree_Z(p.g0.graph, co.ROOT)
        assert z == pytest.approx(co.permutation_sign(p.m) * p.K.det(),
                                  rel=1e-12)


@pytest.mark.parametrize("make", [lambda: grid(10, 10),
                                  lambda: rhombic(10, 10, Fraction(1, 6))],
                         ids=["grid10x10", "rhombic10x10"])
def test_corner_tree_identities_at_order_360(make):
    c = co.Chain(*make())
    z0 = matrix_tree_Z(c.g0.graph, co.ROOT)
    assert len(c.K.rows) == 360
    assert z0 == pytest.approx(co.permutation_sign(c.m) * c.K.det(), rel=1e-9)
    assert matrix_tree_Z(c.g.graph, co.ROOT) == pytest.approx(z0, rel=1e-9)


@pytest.mark.parametrize("name", SMALL)
def test_corner_tree_enumeration_count_and_sum(pipelines, name):
    p = pipelines[name]
    trees = list(enumerate_osts(p.g0.graph, co.ROOT))
    assert len(trees) == OST_COUNTS[name][0]
    assert ost_Z(p.g0.graph, co.ROOT) == pytest.approx(
        matrix_tree_Z(p.g0.graph, co.ROOT), rel=1e-12)


def test_interior_corners_have_no_root_arc(pipelines):
    for p in pipelines.values():
        for a in p.g0.graph.arcs:
            if a.kind == "root":
                assert p.m.is_outer_dart(a.tail[1])


# --- stage 2: boundary splitting ---------------------------------------------

def test_split_graph_preserves_the_tree_sum(pipelines):
    for p in pipelines.values():
        assert matrix_tree_Z(p.g.graph, co.ROOT) == pytest.approx(
            matrix_tree_Z(p.g0.graph, co.ROOT), rel=1e-12)


def test_split_graph_out_degrees_at_most_two(pipelines):
    for p in pipelines.values():
        out = Counter(a.tail for a in p.g.graph.arcs)
        assert all(n <= 2 for n in out.values())


@pytest.mark.parametrize("name", SMALL)
def test_split_images_partition_the_split_trees(pipelines, name):
    p = pipelines[name]
    corner_trees = list(enumerate_osts(p.g0.graph, co.ROOT))
    seen = {}
    for t in corner_trees:
        images = cn.map_ost_A_to_D(p.g0, p.g, t)
        assert sum(weight(p.g.graph, img) for img in images) == pytest.approx(
            weight(p.g0.graph, t), rel=1e-12)
        for img in images:
            assert img not in seen
            seen[img] = t
            # as arc sets: a tree keeps one arc per non-root node, and the
            # search yields them in its own node order
            assert frozenset(cn.split_tree_preimage(p.g0, p.g, img)) \
                == frozenset(t)
    split_trees = {frozenset(t) for t in enumerate_osts(p.g.graph, co.ROOT)}
    assert set(seen) == split_trees
    assert len(split_trees) == OST_COUNTS[name][1]


# --- stage 3: duality into the double, matchings index classes ---------------

@pytest.mark.parametrize("name", SMALL)
def test_rule_trees_biject_with_split_trees(pipelines, name):
    p = pipelines[name]
    split_trees = [frozenset(t) for t in enumerate_osts(p.g.graph, co.ROOT)]
    images = set()
    for t in split_trees:
        edges = cn.dual_in_double(p.g, t)
        assert cn.check_local_rules(p.m, edges) == []
        assert cn.rule_tree_to_split_tree(p.g, edges) == t
        w = 1.0 + 0j
        for k in edges:
            w *= p.rho_star[k]
        assert w == pytest.approx(weight(p.g.graph, t), rel=1e-12)
        images.add(edges)
    rule_trees = set(cn.enumerate_rule_trees(p.dd, p.m))
    assert images == rule_trees


def test_local_rules_name_the_white_of_each_broken_pair(c4):
    tree = next(cn.enumerate_rule_trees(c4.dd, c4.m))
    pair = (("hp", 0), ("hd", 1))    # the first pair of edge 0's white
    (kept,) = [k for k in pair if k in tree]
    (sibling,) = [k for k in pair if k != kept]
    delta = min(c4.m.outer_orbit)
    for edited, white in ((tree - {kept}, ("we", 0)),
                          (tree | {sibling}, ("we", 0)),
                          (tree - {("hr", delta, 0)}, ("wb", delta))):
        bad = cn.check_local_rules(c4.m, edited)
        assert len(bad) == 1 and repr(white) in bad[0], bad


def test_rule_tree_enumeration_respects_the_cap(monkeypatch, c4):
    monkeypatch.setattr(oracles, "STATE_CAP", 100)
    with pytest.raises(TooLargeError):
        list(cn.enumerate_rule_trees(c4.dd, c4.m))


def test_double_root_is_the_minimal_outer_corner(pipelines):
    for p in pipelines.values():
        assert co.Chain(p.m).s_key == ("u", min(p.m.outer_orbit))
        assert p.dd.tags[p.dd.vertex_id(p.s_key)] == "black-dual"


@pytest.mark.parametrize("name", SMALL)
def test_matchings_index_disjoint_covering_classes(pipelines, name):
    p = pipelines[name]
    matchings = matchings_minus_s(p)
    assert len(matchings) == MATCHING_COUNTS[name]
    pref = co.class_prefactor(p.iso, p.bnd)
    all_trees = set(cn.enumerate_rule_trees(p.dd, p.m))
    seen = set()
    for mk in matchings:
        cl = cn.matching_to_trees(p.dd, p.m, mk, p.rho_star, p.tau2, pref)
        assert cl.n_rejected == 0
        assert cl.weight_sum == pytest.approx(cl.closed_form, rel=1e-12)
        ts = set(cl.trees)
        assert ts and not ts & seen
        seen |= ts
        for t in cl.trees:
            assert cn.tree_to_matching(p.dd, p.s_key, t) == mk
    assert seen == all_trees


def test_class_prefactor_has_unit_modulus(pipelines):
    for p in pipelines.values():
        assert abs(co.class_prefactor(p.iso, p.bnd)) == pytest.approx(1.0)


def test_tree_to_matching_rejects_non_spanning_sets(c3):
    some = frozenset(list(c3.dd.edge_keys)[:3])
    with pytest.raises(ValueError):
        cn.tree_to_matching(c3.dd, c3.s_key, some)


# --- superposition parity -----------------------------------------------------

def test_superposition_cycles_on_c3(c3):
    matchings = matchings_minus_s(c3)
    hist = Counter()
    n_cycles = 0
    for m1, m2 in itertools.combinations(matchings, 2):
        rep = cn.parity_check(c3.dd, c3.s_key, m1, m2)
        assert rep  # distinct matchings always differ
        for cyc in rep:
            n_cycles += 1
            assert cyc.n2 == cyc.n3
            assert cyc.n4 == cyc.n5
            assert cyc.interior_vertices % 2 == 0
            assert not cyc.s_on
            assert not cyc.s_inside
            hist[cyc.interior_vertices] += 1
    assert n_cycles == 160
    assert hist == {0: 148, 2: 8, 4: 4}


def test_parity_of_identical_matchings_is_empty(c3):
    mk = matchings_minus_s(c3)[0]
    assert cn.parity_check(c3.dd, c3.s_key, mk, mk) == ()


# --- stage 4: tree pairs ------------------------------------------------------

def dual_key(k):
    return ("dual", k[1]) if k[0] == "e" else ("rim", k[1])


@pytest.mark.parametrize("name", SMALL)
def test_matchings_biject_onto_tree_pairs(pipelines, name, unit_tree_count):
    p = pipelines[name]
    P, S = p.ext.primal, p.ext.dual
    p_nodes = [P.vertex_key(v) for v in range(P.n_vertices)]
    s_nodes = [S.vertex_key(v) for v in range(S.n_vertices)]
    all_keys = {P.edge_key(e) for e in range(P.n_edges)}
    primal_trees = set()
    for mk in matchings_minus_s(p):
        tp = cn.matching_to_tree_pair(p.m, mk)
        assert cn.arcs_form_ost(tp.primal_arcs, p_nodes, co.ROOT)
        assert cn.arcs_form_ost(tp.dual_arcs, s_nodes, p.s_key)
        pset = frozenset(k for _, _, k in tp.primal_arcs)
        dset = frozenset(k for _, _, k in tp.dual_arcs)
        assert dset == {dual_key(k) for k in all_keys - pset}
        assert pset not in primal_trees
        primal_trees.add(pset)
    assert len(primal_trees) == unit_tree_count(P, P.vertex_id(co.ROOT))


@pytest.mark.parametrize("name", SMALL)
def test_tree_pair_weight_identity_per_matching(pipelines, name):
    p = pipelines[name]
    ck = co.matched_split_constant(p.iso, p.ext)
    for mk in matchings_minus_s(p):
        lhs = 1.0 + 0j
        for k in mk:
            lhs *= p.tau2[k]
        tp = cn.matching_to_tree_pair(p.m, mk)
        assert lhs == pytest.approx(ck * cn.tree_pair_weight(tp, p.tw),
                                    rel=1e-12)


def test_tree_pair_sum_matches_double_dimer(pipelines):
    for p in pipelines.values():
        zdd = 0j
        n = 0
        for mk in matchings_minus_s(p):
            w = 1.0 + 0j
            for k in mk:
                w *= p.tau2[k]
            zdd += w
            n += 1
        zrs, count = co.tree_pair_sum(p.ext, p.tw, p.s_key)
        assert n == count == MATCHING_COUNTS[p.name]
        assert zdd == pytest.approx(co.matched_split_constant(p.iso, p.ext) * zrs,
                                    rel=1e-9)


# --- the full pipeline ---------------------------------------------------------

FULL_CHECKS = (
    "ising-Z2[kac-ward-vs-spins]",
    "flat-phasing[max curvature deviation]",
    "dimer-sum[signed-det-vs-enumeration, quadri-tiling]",
    "dimer-sum-vs-det[quadri-tiling]",
    "squared-ising[critical]",
    "white-row-sums[max deviation]",
    "corner-tree-det-vs-det-K",
    "corner-tree-enumeration-vs-det",
    "split-corner-tree-vs-corner-tree",
    "dimer-sum[signed-det-vs-enumeration, double]",
    "double-tree-sum-vs-split-tree",
    "tree-pair-sum[matrix-tree-vs-enumeration]",
    "matched-split-transfer[double-dimer-vs-tree-pairs]",
    "main-theorem[spin-route]",
    "main-theorem[determinant-route]",
)
# the agreement checks, which run only when a brute-force route ran
AGREEMENT_CHECKS = tuple(n for n in FULL_CHECKS if "-vs-enumeration" in n
                         or n == "ising-Z2[kac-ward-vs-spins]")
ROUTES = ("spins", "matchings[quadri-tiling]", "corner-trees",
          "matchings[double]", "tree-pairs")


def test_verify_main_theorem_on_the_corpus(pipelines):
    for p in pipelines.values():
        rep = co.verify_main_theorem(p.m, p.theta_exact)
        assert rep.passed
        names = tuple(c.name for c in rep.checks)
        skipped = [sk.route for sk in rep.skipped]
        if p.name == "grid":
            # the grid's 61,741,680 corner trees are too many to enumerate
            assert names == tuple(n for n in FULL_CHECKS
                                  if n != "corner-tree-enumeration-vs-det")
            assert skipped == ["corner-trees"]
        else:
            assert names == FULL_CHECKS
            assert skipped == []
        assert rep.constants["det_K"] == pytest.approx(p.K.det(), rel=1e-12)
        assert rep.constants["n_tree_pairs"] == MATCHING_COUNTS[p.name]
        assert rep.constants["regular_embedding"] is True
        assert abs(rep.constants["class_prefactor"]) == pytest.approx(1.0)


def test_verify_takes_its_settings_by_keyword(c3):
    # a dart passed third must not become the tolerance
    with pytest.raises(TypeError):
        co.verify_main_theorem(c3.m, c3.theta_exact, 0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_verify_rejects_a_tolerance_that_cannot_fail_or_pass(c3, tol):
    # the rule of the CLI's --tolerance, which reports it as a usage error
    with pytest.raises(ValueError, match="finite number >= 0"):
        co.verify_main_theorem(c3.m, c3.theta_exact, tol=tol)


def test_verify_accepts_any_outer_root(c3):
    other = max(c3.m.outer_orbit)
    rep = co.verify_main_theorem(c3.m, c3.theta_exact, s_dart=other)
    assert rep.passed


def test_verify_rejects_interior_root(grid33, monkeypatch):
    # s is checked before any brute-force sum runs
    def never(*args, **kwargs):
        raise AssertionError("enumeration ran before s was checked")

    for name in ("dimer_Z", "ising_Z", "ost_Z"):
        monkeypatch.setattr(co, name, never)
    interior = next(d for d in range(len(grid33.m.sigma))
                    if not grid33.m.is_outer_dart(d))
    for s_dart in (interior, 999):
        with pytest.raises(ValueError):
            co.verify_main_theorem(grid33.m, grid33.theta_exact,
                                   s_dart=s_dart)


def test_verify_skips_spins_past_the_state_cap(grid33, monkeypatch):
    # 2^V is compared with the state cap before any spin is summed; the
    # Kac-Ward value then stands in for the spin sum in every check
    def never(*args, **kwargs):
        raise AssertionError("spins summed past the cap")

    monkeypatch.setattr(co, "ising_Z", never)
    monkeypatch.setattr(oracles, "STATE_CAP", 2 ** 9 - 1)
    rep = co.verify_main_theorem(grid33.m, grid33.theta_exact)
    assert rep.passed
    assert rep.skipped[0] == (
        "spins", 2 ** 9, 2 ** 9 - 1, "predicted count exceeds the cap")
    names = [c.name for c in rep.checks]
    assert "ising-Z2[kac-ward-vs-spins]" not in names
    assert "squared-ising[critical]" in names


def test_verify_budget_disables_enumeration_checks(c4, monkeypatch):
    # the corner graph of C4 has 407 oriented spanning trees, one more than
    # the cap: the route is declined before ost_Z runs, and named
    def never(*args, **kwargs):
        raise AssertionError("corner trees enumerated past the cap")

    monkeypatch.setattr(co, "OST_CAP", 406)
    monkeypatch.setattr(co, "ost_Z", never)
    rep = co.verify_main_theorem(c4.m, c4.theta_exact)
    names = tuple(c.name for c in rep.checks)
    assert "corner-tree-enumeration-vs-det" not in names
    assert rep.skipped == [("corner-trees", 407, 406,
                            "predicted count exceeds the cap")]
    assert rep.passed


DESK = {"C%d" % n: (lambda n=n: cycle(n)) for n in range(3, 10)}
DESK.update({"grid2x3": lambda: grid(2, 3), "grid2x4": lambda: grid(2, 4),
             "rhombic2x4": lambda: rhombic(2, 4, Fraction(1, 5))})


@pytest.mark.parametrize("name", sorted(DESK))
def test_verify_with_every_cap_at_zero_runs_the_polynomial_routes(
        name, monkeypatch):
    monkeypatch.setattr(oracles, "STATE_CAP", 0)
    monkeypatch.setattr(co, "OST_CAP", 0)
    rep = co.verify_main_theorem(*DESK[name]())
    assert rep.passed
    assert [sk.route for sk in rep.skipped] == list(ROUTES)
    assert all(sk.count > sk.cap == 0 for sk in rep.skipped)
    names = tuple(c.name for c in rep.checks)
    assert not set(AGREEMENT_CHECKS) & set(names)
    assert names == tuple(n for n in FULL_CHECKS
                          if n not in AGREEMENT_CHECKS
                          and n != "corner-tree-enumeration-vs-det")


def test_a_state_cap_hit_inside_a_route_keeps_the_report(c4, monkeypatch):
    # C4's double minus s has 45 perfect matchings, but the dimer sum visits
    # 57 matched sets: a cap of 50 admits the route, which then stops inside
    # its search; the route lands in skipped, and the checks before it and
    # after it are all kept.  The quadri-tiling's sum needs 37 sets for its
    # 49 matchings, so it runs
    monkeypatch.setattr(oracles, "STATE_CAP", 50)
    rep = co.verify_main_theorem(c4.m, c4.theta_exact)
    assert rep.passed
    assert rep.skipped[1] == ("matchings[double]", 45, 50,
                              "matching enumeration exceeded the state cap")
    names = [c.name for c in rep.checks]
    assert names[:2] == ["ising-Z2[kac-ward-vs-spins]",
                         "flat-phasing[max curvature deviation]"]
    assert "dimer-sum[signed-det-vs-enumeration, quadri-tiling]" in names
    assert "double-tree-sum-vs-split-tree" in names
    assert names[-1] == "main-theorem[determinant-route]"


# route -> the check its brute-force value adds when it runs
ROUTE_CHECK = {"spins": "ising-Z2[kac-ward-vs-spins]",
               "matchings[quadri-tiling]":
                   "dimer-sum[signed-det-vs-enumeration, quadri-tiling]",
               "corner-trees": "corner-tree-enumeration-vs-det",
               "matchings[double]":
                   "dimer-sum[signed-det-vs-enumeration, double]",
               "tree-pairs": "tree-pair-sum[matrix-tree-vs-enumeration]"}
MATCHING_CAP = "matching enumeration exceeded the state cap"
TREE_CAP = "tree enumeration exceeded the state cap"


# On C4 the routes' predicted counts and search states are: quadri-tiling
# matchings 49 and 37 matched sets, corner trees 407 and 850 partial
# states, double matchings 45 and 57 matched sets, tree pairs 45 and 78
# partial states.  Each cap lies between the target route's two numbers,
# so the route is admitted and then stops inside its search; a route with
# fewer states than the cap runs, one with more stops too.  No cap that
# admits the quadri-tiling (49 or more) stops its 37 sets.
# CAP_HITS maps each target route to its cap and the routes that cap stops.
CAP_HITS = {
    "corner-trees": (500, ("corner-trees",)),
    "matchings[double]": (55, ("corner-trees", "matchings[double]",
                               "tree-pairs")),
    "tree-pairs": (60, ("corner-trees", "tree-pairs")),
}
C4_COUNTS = {"matchings[quadri-tiling]": 49, "corner-trees": 407,
             "matchings[double]": 45, "tree-pairs": 45}


@pytest.mark.parametrize("target", sorted(CAP_HITS))
def test_a_state_cap_hit_inside_each_search_keeps_the_report(
        c4, monkeypatch, target):
    cap, hit = CAP_HITS[target]
    monkeypatch.setattr(oracles, "STATE_CAP", cap)
    rep = co.verify_main_theorem(c4.m, c4.theta_exact)
    assert rep.passed
    assert [sk.route for sk in rep.skipped] == list(hit)
    for sk in rep.skipped:
        route_cap = co.OST_CAP if sk.route == "corner-trees" else cap
        reason = MATCHING_CAP if sk.route.startswith("matchings") else TREE_CAP
        assert sk == (sk.route, C4_COUNTS[sk.route], route_cap, reason)
    # every check but the stopped routes' agreement checks runs, in order
    dropped = {ROUTE_CHECK[r] for r in hit}
    assert tuple(c.name for c in rep.checks) == tuple(
        n for n in FULL_CHECKS if n not in dropped)
    assert rep.constants["n_tree_pairs"] == 45


REFERENCE = dict(DESK)
REFERENCE.update({"grid3x3": lambda: grid(3, 3)})
REFERENCE.update({"rhombic2x4-1/%d" % q:
                  (lambda q=q: rhombic(2, 4, Fraction(1, q))) for q in (6, 8)})


def tau_primal_digraph(ext, tw):
    """The extended primal as a digraph with tau weights: arc 2e runs from
    edge e's first end to its second, arc 2e + 1 back."""
    P = ext.primal
    arcs = []
    for e in range(P.n_edges):
        key = P.edge_key(e)
        a, b = (P.vertex_key(v) for v in P.endpoints(e))
        arcs += [Arc(a, b, tw.arc(key, a, b)), Arc(b, a, tw.arc(key, b, a))]
    return WeightedDigraph(P.vertex_keys, tuple(arcs))


def products(configurations, w):
    """Per configuration, the product of its weights, multiplied out in the
    order the configuration is yielded."""
    for conf in configurations:
        p = 1.0 + 0j
        for x in conf:
            p *= w[x]
        yield p


def exact_sum(configurations, w):
    """The products added by `math.fsum`, real and imaginary parts apart:
    each product rounded, the sum rounded once."""
    ps = list(products(configurations, w))
    return complex(math.fsum(p.real for p in ps), math.fsum(p.imag for p in ps))


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_brute_force_sums_match_a_per_configuration_loop(
        name, unit_tree_count):
    c = co.Chain(*REFERENCE[name]())
    # oriented trees: the extended primal towards the root with tau weights,
    # and the corner graph where verify enumerates it; same bits
    P = c.ext.primal
    digraphs = [tau_primal_digraph(c.ext, c.tw)]
    if count_osts(c.g0.graph, co.ROOT) <= co.OST_CAP:
        digraphs.append(c.g0.graph)
    for g in digraphs:
        w = [a.weight for a in g.arcs]
        assert ost_Z(g, co.ROOT) == exact_sum(enumerate_osts(g, co.ROOT), w)
    # perfect matchings of the quadri-tiling and of the double minus s
    nu = dimer_weights(critical_couplings(c.iso), c.gq)
    s = c.dd.vertex_id(c.s_key)
    for m, weights, skip in ((c.gq, nu, None),
                             (c.dd, c.double_weights[1], s)):
        w = [weights[m.edge_key(e)] for e in range(m.n_edges)]
        ref = exact_sum(enumerate_matchings(m, skip), w)
        assert dimer_Z(m, weights, skip) == pytest.approx(ref, rel=1e-15,
                                                          abs=0)
    # tree pairs: one per spanning tree of the extended primal; the sum and
    # the determinant agree to 2.6e-15 at worst here (C8), ten times that
    # is the tolerance
    zrs, n = co.tree_pair_sum(c.ext, c.tw, c.s_key)
    assert n == unit_tree_count(P, P.vertex_id(co.ROOT))
    assert zrs == pytest.approx(co.tree_pair_det(c.ext, c.tw, c.s_key),
                                rel=2.6e-14, abs=0)


@pytest.mark.parametrize("name", ["C6", "grid2x3"])
def test_tree_pair_sum_is_rounded_once_across_blocks(name, monkeypatch):
    # carrying each block's exact sum into the next block gives the bits of
    # one fsum over all the terms, for the tree pairs and, on C6, for the
    # corner trees, whose imaginary part, a near-cancelling sum, a carry of
    # two floats misses by up to 9 units in the last place
    c = co.Chain(*REFERENCE[name]())
    sums = [lambda: co.tree_pair_sum(c.ext, c.tw, c.s_key)]
    if name == "C6":
        sums.append(lambda: ost_Z(c.g0.graph, co.ROOT))
    monkeypatch.setattr(oracles, "_BLOCK", 10 ** 9)
    wholes = [f() for f in sums]
    for block in (1, 3, 7, 64):
        monkeypatch.setattr(oracles, "_BLOCK", block)
        assert [f() for f in sums] == wholes


@pytest.mark.parametrize("name", ["C5", "C6", "grid2x3"])
def test_ost_Z_does_not_depend_on_the_search_order(name, monkeypatch):
    # every node's out-arcs listed in reverse: the search finds the same
    # trees in another order, and each product multiplies in the same node
    # order, so a sum rounded once keeps its bits
    g = co.Chain(*REFERENCE[name]()).g0.graph
    flipped = WeightedDigraph(g.nodes, g.arcs[::-1])
    assert list(enumerate_osts(flipped, co.ROOT)) != [
        tuple(len(g.arcs) - 1 - ai for ai in t)
        for t in enumerate_osts(g, co.ROOT)]
    monkeypatch.setattr(oracles, "_BLOCK", 10 ** 9)
    assert ost_Z(flipped, co.ROOT) == ost_Z(g, co.ROOT)


def plain_tree_pair_sum(ext, tw, s_key):
    """`tree_pair_sum` as a plain loop over the tree pairs.  Per spanning
    tree of the extended primal: the set of its edges; its arcs multiplied
    in breadth-first order of their tails from the root; then a
    breadth-first walk from s over the dual edges that cross no tree edge,
    which decides the direction of every arc it takes.  Every arc it takes
    but the rim arcs must weigh exactly 1; the rim arcs are multiplied in
    the order of their spokes in the root's rotation.  Both walks take a
    vertex's edges in primal edge order.  The terms are added by one
    `math.fsum` per part."""
    P, S = ext.primal, ext.dual
    g = tau_primal_digraph(ext, tw)
    nbrs = [[] for _ in range(P.n_vertices)]
    dual = [[] for _ in range(S.n_vertices)]
    for e, key in enumerate(P.edge_keys):
        u, v = P.endpoints(e)
        nbrs[u].append(v)
        nbrs[v].append(u)
        dkey = ("dual" if key[0] == "e" else "rim", key[1])
        a, b = S.endpoints(S.edge_id(dkey))
        ka, kb = S.vertex_key(a), S.vertex_key(b)
        # stepping a -> b away from s adds the arc b -> a towards s
        dual[a].append((e, b, dkey, tw.arc(dkey, kb, ka)))
        dual[b].append((e, a, dkey, tw.arc(dkey, ka, kb)))
    bfs = [P.vertex_id(co.ROOT)]
    for u in bfs:
        for v in nbrs[u]:
            if v not in bfs:
                bfs.append(v)
    rims = [("rim", P.edge_key(d >> 1)[1]) for d in P.vertices[bfs[0]]]
    s = S.vertex_id(s_key)
    terms = []
    for tree in enumerate_osts(g, co.ROOT):
        edges = {ai >> 1 for ai in tree}
        weight_of = {g.arcs[ai].tail: g.arcs[ai].weight for ai in tree}
        p = 1.0 + 0j
        for v in bfs[1:]:
            p *= weight_of[P.vertex_key(v)]
        rim_arcs = {}
        seen = {s}
        queue = [s]
        for u in queue:
            for e, v, dkey, a in dual[u]:
                if v not in seen and e not in edges:
                    seen.add(v)
                    queue.append(v)
                    if dkey[0] == "rim":
                        rim_arcs[dkey] = a
                    else:
                        assert a == 1.0
        for key in rims:
            if key in rim_arcs:
                p *= rim_arcs[key]
        terms.append(p)
    return (complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms)), len(terms))


def assert_same_bits_as_the_plain_loop(c):
    # same bits, signed zeros included: the rim directions read off the
    # primal tree, the rim factors in the root's rotation order and the
    # blocked sum change no digit.  With every rim arc weighing 1 + 5e-13,
    # both ways, a rim arc taken the wrong way or left out shows
    near_one = c.tw._replace(rim_cw={k: 1 + 5e-13 + 0j for k in c.tw.rim_cw})
    for tw in (c.tw, near_one):
        assert repr(co.tree_pair_sum(c.ext, tw, c.s_key)) \
            == repr(plain_tree_pair_sum(c.ext, tw, c.s_key))


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_tree_pair_sum_matches_a_plain_per_pair_loop(name):
    assert_same_bits_as_the_plain_loop(co.Chain(*REFERENCE[name]()))


@pytest.mark.parametrize("name, s_dart", [
    (name, d) for name in ("C5", "grid2x3", "rhombic2x4-1/6")
    for d in REFERENCE[name]()[0].outer_orbit])
def test_tree_pair_sum_matches_a_plain_per_pair_loop_for_every_s(name,
                                                                  s_dart):
    assert_same_bits_as_the_plain_loop(
        co.Chain(*REFERENCE[name](), s_dart))


def test_a_vertex_with_two_boundary_corners(unit_tree_count):
    # the bowtie's shared vertex meets the outer face twice, so it carries
    # two spokes to the root; every s passes every check by every route
    m, theta = bowtie()
    assert len(m.outer_orbit) == 6 and m.n_vertices == 5
    for d in m.outer_orbit:
        rep = co.verify_main_theorem(m, theta, s_dart=d)
        assert rep.passed and not rep.skipped
        assert tuple(ch.name for ch in rep.checks) == FULL_CHECKS
        c = co.Chain(m, theta, d)
        P = c.ext.primal
        _, n = co.tree_pair_sum(c.ext, c.tw, c.s_key)
        assert n == unit_tree_count(P, P.vertex_id(co.ROOT))
        assert_same_bits_as_the_plain_loop(c)


@pytest.mark.parametrize("s_key", [("f", 0), ("u", 999), ("r",), "s"])
def test_tree_pair_routes_reject_an_s_off_the_outer_orbit(c4, s_key):
    for route in (co.tree_pair_sum, co.tree_pair_det):
        with pytest.raises(ValueError, match="s must be an outer-orbit dart"):
            route(c4.ext, c4.tw, s_key)


# the smallest state cap that lets tree_pair_sum finish: one unit per
# partial state of the oriented-tree search on the extended primal
TREE_PAIR_CAPS = {"C3": (lambda: cycle(3), 28), "C4": (lambda: cycle(4), 78),
                  "C6": (lambda: cycle(6), 552),
                  "C9": (lambda: cycle(9), 9956),
                  "grid2x3": (lambda: grid(2, 3), 968),
                  "grid3x3": (lambda: grid(3, 3), 39159),
                  "rhombic2x4": (lambda: rhombic(2, 4, Fraction(1, 5)),
                                 12113)}


@pytest.mark.parametrize("name", sorted(TREE_PAIR_CAPS))
def test_tree_pair_sum_state_cap(name, monkeypatch):
    make, cap = TREE_PAIR_CAPS[name]
    c = co.Chain(*make())
    monkeypatch.setattr(oracles, "STATE_CAP", cap - 1)
    with pytest.raises(TooLargeError):
        co.tree_pair_sum(c.ext, c.tw, c.s_key)
    monkeypatch.setattr(oracles, "STATE_CAP", cap)
    zrs, _ = co.tree_pair_sum(c.ext, c.tw, c.s_key)
    assert zrs == pytest.approx(co.tree_pair_det(c.ext, c.tw, c.s_key),
                                rel=1e-13, abs=0)
