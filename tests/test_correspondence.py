"""The four-stage chain, checked stage by stage against the oracles.

C3 and C4 are small enough to enumerate everything; the 3x3 grid joins in
wherever determinants or matching enumeration suffice.  Grid 10x10 and
rhombic 10x10 (K of order 360) check the corner-graph determinant identities.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from isingtree import correspondence as co
from isingtree.generators import grid, rhombic
from isingtree.oracles import (TooLargeError, enumerate_matchings,
                               enumerate_osts, enumerate_spanning_trees,
                               matrix_tree_Z, ost_Z)

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
        images = co.map_ost_A_to_D(p.g0, p.g, t)
        assert sum(weight(p.g.graph, img) for img in images) == pytest.approx(
            weight(p.g0.graph, t), rel=1e-12)
        for img in images:
            assert img not in seen
            seen[img] = t
            assert co.split_tree_preimage(p.g0, p.g, img) == t
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
        edges = co.dual_in_double(p.g, t)
        assert co.check_local_rules(p.m, edges) == []
        assert co.rule_tree_to_split_tree(p.g, edges) == t
        w = 1.0 + 0j
        for k in edges:
            w *= p.rho_star[k]
        assert w == pytest.approx(weight(p.g.graph, t), rel=1e-12)
        images.add(edges)
    rule_trees = set(co.enumerate_rule_trees(p.dd, p.m))
    assert images == rule_trees


def test_rule_tree_enumeration_respects_the_cap(monkeypatch, c4):
    monkeypatch.setenv("ISINGTREE_STATE_CAP", "100")
    with pytest.raises(TooLargeError):
        list(co.enumerate_rule_trees(c4.dd, c4.m))


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
    all_trees = set(co.enumerate_rule_trees(p.dd, p.m))
    seen = set()
    for mk in matchings:
        cl = co.matching_to_trees(p.dd, p.m, mk, p.rho_star, p.tau2, pref)
        assert cl.n_rejected == 0
        assert cl.weight_sum == pytest.approx(cl.closed_form, rel=1e-12)
        ts = set(cl.trees)
        assert ts and not ts & seen
        seen |= ts
        for t in cl.trees:
            assert co.tree_to_matching(p.dd, p.s_key, t) == mk
    assert seen == all_trees


def test_class_prefactor_has_unit_modulus(pipelines):
    for p in pipelines.values():
        assert abs(co.class_prefactor(p.iso, p.bnd)) == pytest.approx(1.0)


def test_tree_to_matching_rejects_non_spanning_sets(c3):
    some = frozenset(list(c3.dd.edge_keys)[:3])
    with pytest.raises(ValueError):
        co.tree_to_matching(c3.dd, c3.s_key, some)


# --- superposition parity -----------------------------------------------------

def test_superposition_cycles_on_c3(c3):
    matchings = matchings_minus_s(c3)
    hist = Counter()
    n_cycles = 0
    for m1, m2 in itertools.combinations(matchings, 2):
        rep = co.parity_check(c3.dd, c3.s_key, m1, m2)
        assert rep.cycles  # distinct matchings always differ
        for cyc in rep.cycles:
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
    assert co.parity_check(c3.dd, c3.s_key, mk, mk).cycles == ()


# --- stage 4: tree pairs ------------------------------------------------------

def dual_key(k):
    return ("dual", k[1]) if k[0] == "e" else ("rim", k[1])


@pytest.mark.parametrize("name", SMALL)
def test_matchings_biject_onto_tree_pairs(pipelines, name):
    p = pipelines[name]
    P, S = p.ext.primal, p.ext.dual
    p_nodes = [P.vertex_key(v) for v in range(P.n_vertices)]
    s_nodes = [S.vertex_key(v) for v in range(S.n_vertices)]
    all_keys = {P.edge_key(e) for e in range(P.n_edges)}
    primal_trees = set()
    for mk in matchings_minus_s(p):
        tp = co.matching_to_tree_pair(p.m, mk)
        assert co.arcs_form_ost(tp.primal_arcs, p_nodes, co.ROOT)
        assert co.arcs_form_ost(tp.dual_arcs, s_nodes, p.s_key)
        pset = frozenset(k for _, _, k in tp.primal_arcs)
        dset = frozenset(k for _, _, k in tp.dual_arcs)
        assert dset == {dual_key(k) for k in all_keys - pset}
        assert pset not in primal_trees
        primal_trees.add(pset)
    assert len(primal_trees) == sum(1 for _ in enumerate_spanning_trees(P))


@pytest.mark.parametrize("name", SMALL)
def test_tree_pair_weight_identity_per_matching(pipelines, name):
    p = pipelines[name]
    ck = co.matched_split_constant(p.iso, p.ext)
    for mk in matchings_minus_s(p):
        lhs = 1.0 + 0j
        for k in mk:
            lhs *= p.tau2[k]
        tp = co.matching_to_tree_pair(p.m, mk)
        assert lhs == pytest.approx(ck * co.tree_pair_weight(tp, p.tw),
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
    "flat-phasing[max curvature deviation]",
    "dimer-sum-vs-det[quadri-tiling]",
    "squared-ising[critical]",
    "white-row-sums[max deviation]",
    "corner-tree-det-vs-det-K",
    "corner-tree-enumeration-vs-det",
    "split-corner-tree-vs-corner-tree",
    "double-tree-sum-vs-split-tree",
    "matched-split-transfer[double-dimer-vs-tree-pairs]",
    "main-theorem[spin-route]",
    "main-theorem[determinant-route]",
)


def test_verify_main_theorem_on_the_corpus(pipelines):
    for p in pipelines.values():
        rep = co.verify_main_theorem(p.m, p.theta_exact)
        assert rep.passed
        names = tuple(c.name for c in rep.checks)
        if p.name == "grid":
            # the grid's rule-tree space is too large to enumerate
            assert names == tuple(n for n in FULL_CHECKS
                                  if n != "corner-tree-enumeration-vs-det")
        else:
            assert names == FULL_CHECKS
        assert rep.constants["det_K"] == pytest.approx(p.K.det(), rel=1e-12)
        assert rep.constants["n_tree_pairs"] == MATCHING_COUNTS[p.name]
        assert rep.constants["regular_embedding"] is True
        assert abs(rep.constants["class_prefactor"]) == pytest.approx(1.0)


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


def test_verify_fails_fast_past_the_spin_cap(monkeypatch):
    # the 2^V spin cap is checked before K or any dimer enumeration, so a
    # 30x30 grid stops at once instead of enumerating quadri-tiling dimers
    def never(*args, **kwargs):
        raise AssertionError("a later stage ran before the spin cap")

    for name in ("build_kasteleyn", "dimer_Z"):
        monkeypatch.setattr(co, name, never)
    monkeypatch.delenv("ISINGTREE_SPIN_CAP", raising=False)
    m, exact = grid(30, 30)
    with pytest.raises(TooLargeError,
                       match=r"^2\^900 spin configurations exceed the cap$"):
        co.verify_main_theorem(m, exact)


def test_verify_budget_disables_enumeration_checks(c4, monkeypatch):
    monkeypatch.setattr(co, "OST_ENUM_BUDGET", 1)
    rep = co.verify_main_theorem(c4.m, c4.theta_exact)
    names = tuple(c.name for c in rep.checks)
    assert "corner-tree-enumeration-vs-det" not in names
    assert rep.passed
