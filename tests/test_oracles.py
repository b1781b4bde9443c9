"""Brute-force oracles: spins, matchings, determinants, spanning trees."""

import cmath
import hashlib
import inspect
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isingtree import oracles
from isingtree.correspondence import ROOT, Chain
from isingtree.derived import quadri_tiling
from isingtree.generators import cycle, grid
from isingtree.maps import PlanarMap
from isingtree.construction import is_spanning_tree
from isingtree.oracles import (Arc, TooLargeError, WeightedDigraph,
                               complex_det, dimer_Z, ising_Z, kac_ward_Z2,
                               kasteleyn_signs, laplacian, matrix_tree_Z,
                               ost_Z, signed_dimer_Z)

from reference import (det_cofactor, enumerate_matchings, enumerate_osts,
                       exact_sum, products)


def test_triangle_ising_closed_form():
    m, _ = cycle(3)
    J = 0.37
    assert ising_Z(m, (J,) * 3) == pytest.approx(
        2 * math.exp(3 * J) + 6 * math.exp(-J))


def test_square_ising_closed_form():
    m, _ = cycle(4)
    J = 0.52
    assert ising_Z(m, (J,) * 4) == pytest.approx(
        2 * math.exp(4 * J) + 12 + 2 * math.exp(-4 * J))


@pytest.mark.parametrize("name,count", [("C3", 20), ("C4", 49), ("grid", 25416)])
def test_quadri_tiling_matching_counts(pipelines, name, count):
    gq = pipelines[name].gq
    assert sum(1 for _ in enumerate_matchings(gq)) == count
    assert dimer_Z(gq, {k: 1.0 for k in gq.edge_keys}) == count


def test_signed_unit_det_counts_matchings(pipelines):
    # |det| of the Kasteleyn-signed unit matrix is the number of perfect
    # matchings, of the quadri-tiling and of the double minus s
    for p in pipelines.values():
        s = p.dd.vertex_id(p.s_key)
        for m, skip in ((p.gq, None), (p.dd, s)):
            count = sum(1 for _ in enumerate_matchings(m, skip))
            total, n = signed_dimer_Z(m, {k: 1.0 for k in m.edge_keys}, skip)
            assert n == count > 0
            assert total == pytest.approx(count, rel=1e-12)


@pytest.mark.parametrize("name", ["C3", "C4", "grid"])
def test_kasteleyn_signs_meet_the_face_condition(pipelines, name):
    for m in (pipelines[name].gq, pipelines[name].dd):
        sign = kasteleyn_signs(m)
        assert set(sign) <= {-1, 1}
        for f, orb in enumerate(m.faces):
            if f != m.outer_face:
                want = 1 if len(orb) % 4 else -1   # (-1)^(l/2 + 1)
                assert math.prod(sign[d >> 1] for d in orb) == want


def test_signed_dimer_sum_without_a_perfect_matching(c3):
    # the double has one black more than whites: with a white removed as
    # well, no perfect matching is left
    white = c3.dd.tags.index("white")
    weights = dict.fromkeys(c3.dd.edge_keys, 1.0)
    assert signed_dimer_Z(c3.dd, weights, skip_vertex=white) == (0j, 0)


def test_signed_dimer_sum_is_nan_when_the_unit_det_is(c4, monkeypatch):
    # past float range the unit determinant can come out NaN; it carries no
    # sign, so the sum is NaN, not the weighted determinant negated
    real_det = oracles.complex_det

    def det(rows):
        unit = all(x in (1, -1) for row in rows for x in row.values())
        return complex(math.nan, 0) if unit else real_det(rows)

    monkeypatch.setattr(oracles, "complex_det", det)
    total, n = signed_dimer_Z(c4.gq, dict.fromkeys(c4.gq.edge_keys, 2.0))
    assert cmath.isnan(total) and math.isnan(n)


def test_kac_ward_needs_coordinates(c3):
    bare = PlanarMap(c3.m.sigma, c3.m.outer_dart)
    with pytest.raises(ValueError, match="coordinates"):
        kac_ward_Z2(bare, (0.5,) * 3)


def test_matchings_need_even_vertex_count():
    m, _ = cycle(4)
    assert sum(1 for _ in enumerate_matchings(m)) == 2
    assert list(enumerate_matchings(m, skip_vertex=0)) == []


def three_node_digraph():
    arcs = (Arc(1, 0, 2.0), Arc(1, 2, 5.0), Arc(2, 0, 3.0), Arc(2, 1, 7.0))
    return WeightedDigraph(nodes=(0, 1, 2), arcs=arcs)


def test_oriented_tree_enumeration_by_hand():
    g = three_node_digraph()
    trees = sorted(enumerate_osts(g, 0))
    # the (1->2, 2->1) choice is a cycle and must be rejected
    assert trees == [(0, 2), (0, 3), (1, 2)]
    assert ost_Z(g, 0) == pytest.approx(2 * 3 + 2 * 7 + 5 * 3)


def test_a_single_non_root_node_keeps_each_arc_that_leaves_it():
    # one depth: the search's first node is its last; a loop closes a cycle,
    # the root's own arc is never chosen
    arcs = (Arc(1, 0, 2.0), Arc(1, 1, 5.0), Arc(0, 1, 7.0), Arc(1, 0, 3j))
    g = WeightedDigraph(nodes=(0, 1), arcs=arcs)
    assert list(enumerate_osts(g, 0)) == [(0,), (3,)]
    assert list(enumerate_osts(g, 1)) == [(2,)]
    assert repr(ost_Z(g, 0)) == repr((1.0 + 0j) * 2.0 + (1.0 + 0j) * 3j)
    out, order = oracles._ost_args(g, 0)
    chosen = [0]
    assert [(p, chosen[0]) for p in oracles._osts(out, order, chosen)] == [
        (2.0, 0), (3j, 3)]


def test_a_single_non_root_node_with_only_a_loop_has_no_tree():
    g = WeightedDigraph(nodes=(0, 1), arcs=(Arc(1, 1, 5.0), Arc(0, 1, 7.0)))
    assert list(enumerate_osts(g, 0)) == []
    assert ost_Z(g, 0) == 0j == matrix_tree_Z(g, 0)


def test_the_root_alone_has_the_empty_tree():
    g = WeightedDigraph(nodes=("r",), arcs=(Arc("r", "r", 5.0),))
    assert list(enumerate_osts(g, "r")) == [()]
    assert ost_Z(g, "r") == 1.0 == matrix_tree_Z(g, "r")


def trees_before_the_cap(g, root):
    """The trees `enumerate_osts` yields before it stops, and whether the
    state cap stopped it."""
    trees = []
    try:
        for t in enumerate_osts(g, root):
            trees.append(t)
    except TooLargeError:
        return trees, True
    return trees, False


@pytest.mark.parametrize("cap,n_trees", [(0, 0), (1, 0), (2, 0), (3, 1),
                                         (4, 2), (5, 2)])
def test_a_cap_that_runs_out_among_the_last_nodes_arcs(cap, n_trees,
                                                       monkeypatch):
    # node 1 is searched first, node 2 last; after the empty start, the
    # partial states in order: 1->0, then the trees (1->0, 2->0) and
    # (1->0, 2->1), then 1->2, then the tree (1->2, 2->0) (2->1 closes a
    # cycle).  Each costs one unit, the start too, so a cap c stops the
    # search at its c-th state after the start; three of the five states
    # are the last node's
    g = three_node_digraph()
    monkeypatch.setattr(oracles, "STATE_CAP", cap)
    trees, capped = trees_before_the_cap(g, 0)
    assert capped and trees == [(0, 2), (0, 3), (1, 2)][:n_trees]
    with pytest.raises(TooLargeError, match="tree enumeration"):
        ost_Z(g, 0)
    monkeypatch.setattr(oracles, "STATE_CAP", 6)
    assert trees_before_the_cap(g, 0) == ([(0, 2), (0, 3), (1, 2)], False)


WEIGHT = st.complex_numbers(max_magnitude=3, allow_nan=False,
                            allow_infinity=False)


@st.composite
def weighted_digraphs(draw):
    """2-6 nodes with random out-arcs, loops and parallel arcs among them,
    so nodes without arcs, and nodes whose every arc closes a cycle, come
    up as well as nodes with several choices."""
    n = draw(st.integers(2, 6))
    ends = st.integers(0, n - 1)
    arcs = draw(st.lists(st.builds(Arc, ends, ends, WEIGHT), max_size=4 * n))
    return WeightedDigraph(tuple(range(n)), tuple(arcs)), draw(ends)


@given(weighted_digraphs())
def test_ost_sum_is_the_rounded_sum_of_the_enumerated_trees(graph):
    # each tree's weights multiplied in the order the search keeps them,
    # every product added and rounded once; and the matrix-tree determinant
    g, root = graph
    w = [a.weight for a in g.arcs]
    z = ost_Z(g, root)
    assert z == exact_sum(enumerate_osts(g, root), w)
    scale = max(1.0, sum(map(abs, products(enumerate_osts(g, root), w))))
    assert abs(matrix_tree_Z(g, root) - z) <= 1e-9 * scale


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_rounded_sum_carries_every_bit(block, monkeypatch):
    # 2^-60 is lost below 1.0 in a two-float carry; the exact sum keeps it,
    # in both parts, whatever the block size
    monkeypatch.setattr(oracles, "_BLOCK", block)
    terms = [1e300, 1.0, 2.0 ** -60, -1e300, -1.0]
    z, n = oracles._rounded_sum(complex(x, -x) for x in terms)
    assert (z, n) == (complex(2.0 ** -60, -2.0 ** -60), 5)
    assert oracles._rounded_sum([]) == (0j, 0)


@pytest.mark.parametrize("block", [1, 2, 4096])
def test_rounded_sum_past_float_range_is_the_running_sum(block, monkeypatch):
    # math.fsum raises "intermediate overflow" on these terms; a running
    # total reads inf, and so does the rounded sum, in each part
    monkeypatch.setattr(oracles, "_BLOCK", block)
    terms = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(terms)
    total = 0.0
    for x in terms:
        total += x
    z, n = oracles._rounded_sum(complex(x, -x) for x in terms)
    assert total == math.inf
    assert (z, n) == (complex(total, -total), 3)


def test_count_past_float_range_reads_inf(monkeypatch):
    # a unit matrix-tree determinant whose modulus passes float range
    monkeypatch.setattr(oracles, "matrix_tree_Z",
                        lambda g, root: complex(1.5e308, 1.5e308))
    assert oracles.count_osts(three_node_digraph(), 0) == math.inf


def test_matrix_tree_matches_enumeration():
    g = three_node_digraph()
    for root in (0, 1, 2):
        assert matrix_tree_Z(g, root) == pytest.approx(ost_Z(g, root))


def test_matrix_tree_with_complex_weights():
    arcs = (Arc("a", "r", 1 + 2j), Arc("a", "b", 0.5j),
            Arc("b", "r", -1 + 1j), Arc("b", "a", 2.0))
    g = WeightedDigraph(nodes=("r", "a", "b"), arcs=arcs)
    assert matrix_tree_Z(g, "r") == pytest.approx(ost_Z(g, "r"))


# as many zeros as numbers: structurally sparse matrices, empty rows and
# columns, and structurally singular ones all come up
ENTRY = st.one_of(st.just(0j),
                  st.complex_numbers(max_magnitude=3, allow_nan=False,
                                     allow_infinity=False))


# few values of few moduli: ties in row length and in modulus between
# pivot candidates are the common case, and 2 outweighs 1 by more than the
# factor that lets a larger modulus break a tie
TIE_ENTRY = st.sampled_from([0j, 1, -1, 1j, -1j, 0.5 + 0.5j, 0.5 - 0.5j, 2])


def square_matrices(n, entry=ENTRY):
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def sparse_rows(rows):
    return [{j: x for j, x in enumerate(r) if x != 0} for r in rows]


def permutation_sign(perm):
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


@given(st.integers(0, 7).flatmap(square_matrices))
def test_complex_det_matches_cofactor_expansion(rows):
    rhs = det_cofactor(rows)
    lhs = complex_det(sparse_rows(rows))
    assert lhs == pytest.approx(rhs, abs=1e-7 * max(1.0, abs(rhs)))


@given(st.integers(0, 7).flatmap(lambda n: square_matrices(n, TIE_ENTRY)))
def test_complex_det_on_tied_pivots_matches_cofactor_expansion(rows):
    rhs = det_cofactor(rows)
    sparse = sparse_rows(rows)
    sparse_copy = [dict(r) for r in sparse]
    lhs = complex_det(sparse)
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))
    assert sparse == sparse_copy


def reference_minor(g, root):
    """-Delta without the root's row and column, the long way: the directed
    Laplacian (entry (x, y) the arc weight x -> y, minus the weight out of x
    on the diagonal), then the root's row and column deleted, then every
    entry negated."""
    idx = {v: i for i, v in enumerate(g.nodes)}
    lap = [{} for _ in g.nodes]
    for a in g.arcs:
        i, j = idx[a.tail], idx[a.head]
        lap[i][j] = lap[i].get(j, 0j) + a.weight
        lap[i][i] = lap[i].get(i, 0j) - a.weight
    k = idx[root]
    return [{j - (j > k): -x for j, x in r.items() if j != k}
            for i, r in enumerate(lap) if i != k]


def test_reduced_laplacian_is_the_negated_minor_bit_for_bit(pipelines):
    # -(a + b) == (-a) + (-b) in IEEE arithmetic, so the one-pass rows hold
    # the same entries, the elimination takes the same pivots and every
    # digit agrees
    graphs = []
    for c in [Chain(*grid(10, 10)), *pipelines.values()]:
        graphs += [c.g0.graph, c.g.graph]
    graphs.append(three_node_digraph())
    for g in graphs:
        for root in (ROOT,) if ROOT in g.nodes else g.nodes:
            want = reference_minor(g, root)
            assert laplacian(g, root) == want
            assert matrix_tree_Z(g, root) == complex_det(want)


def test_complex_det_of_permutation_matrices_is_their_exact_sign():
    perms = list(itertools.permutations(range(5)))
    perms.append(tuple(random.Random(7).sample(range(40), 40)))
    for perm in perms:
        n = len(perm)
        rows = [[1.0 if j == perm[i] else 0.0 for j in range(n)]
                for i in range(n)]
        assert complex_det(sparse_rows(rows)) == permutation_sign(perm)


def test_complex_det_is_zero_on_singular_matrices():
    rank_two = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    empty_column = [[1, 0, 2], [3, 0, 4], [5, 0, 6]]
    for rows in (rank_two, empty_column):
        assert complex_det(sparse_rows(rows)) == 0j
    assert complex_det([{0: 1.0}, {0: 2.0}]) == 0j


def test_complex_det_leaves_its_input_alone_and_rejects_non_square():
    rows = [{0: 2.0, 1: 1.0}, {0: 1.0, 1: 3.0}]
    assert complex_det(rows) == pytest.approx(5.0)
    assert rows == [{0: 2.0, 1: 1.0}, {0: 1.0, 1: 3.0}]
    with pytest.raises(ValueError):
        complex_det([{0: 1.0}, {2: 1.0}])


@pytest.mark.parametrize("name,count", [("C3", 3), ("C4", 4), ("grid", 192)])
def test_spanning_tree_counts(pipelines, name, count, unit_tree_count):
    assert unit_tree_count(pipelines[name].m, 0) == count


def test_is_spanning_tree_rejects_cycles_and_forests():
    assert is_spanning_tree(3, [(0, 1), (1, 2)])
    assert not is_spanning_tree(3, [(0, 1), (0, 1)])        # doubled edge
    assert not is_spanning_tree(4, [(0, 1), (2, 3)])        # not connected
    assert not is_spanning_tree(4, [(0, 1), (1, 2), (2, 0)])  # cycle, misses 3


def test_arc_record_contract():
    params = inspect.signature(Arc).parameters
    assert list(params) == ["tail", "head", "weight", "kind"]
    assert [p.default for p in params.values()] == [
        inspect.Parameter.empty] * 3 + [""]
    a = Arc(("c", 0), ("r",), 1 + 2j, "cos")
    assert (a.tail, a.head, a.weight, a.kind) == (("c", 0), ("r",), 1 + 2j,
                                                  "cos")
    assert Arc(1, 0, 2.0).kind == ""
    for field in ("tail", "head", "weight", "kind"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
    b = Arc(("c", 0), ("r",), 1 + 2j, "cos")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Arc(("c", 0), ("r",), 1 + 2j)
    assert Arc(tail=1, head=0, weight=2.0) == Arc(1, 0, 2.0, "")


def test_spin_cap_enforced(monkeypatch):
    monkeypatch.setattr(oracles, "STATE_CAP", 4)
    m, _ = grid(3, 3)
    with pytest.raises(TooLargeError):
        ising_Z(m, (0.1,) * 12)


def test_state_cap_enforced(monkeypatch, grid33):
    monkeypatch.setattr(oracles, "STATE_CAP", 10)
    with pytest.raises(TooLargeError):
        list(enumerate_matchings(grid33.gq))


def test_dimer_sum_fits_where_the_matching_search_does_not(monkeypatch,
                                                            grid33):
    # the double minus s has 24,000 perfect matchings: the matching search
    # needs a state cap of 199,010 to reach them, the dimer sum one of
    # 1,674, one per matched set
    s = grid33.dd.vertex_id(grid33.s_key)
    monkeypatch.setattr(oracles, "STATE_CAP", 5000)
    z = dimer_Z(grid33.dd, grid33.tau2, skip_vertex=s)
    assert z == pytest.approx(
        signed_dimer_Z(grid33.dd, grid33.tau2, skip_vertex=s)[0], rel=1e-12)
    with pytest.raises(TooLargeError):
        list(enumerate_matchings(grid33.dd, skip_vertex=s))
    monkeypatch.setattr(oracles, "STATE_CAP", 1673)
    with pytest.raises(TooLargeError, match="matching enumeration"):
        dimer_Z(grid33.dd, grid33.tau2, skip_vertex=s)
    monkeypatch.setattr(oracles, "STATE_CAP", 1674)
    assert dimer_Z(grid33.dd, grid33.tau2, skip_vertex=s) == z


def _quadri_grid23():
    return enumerate_matchings(quadri_tiling(grid(2, 3)[0]))


def _double_grid23():
    c = Chain(grid(2, 3)[0])
    return enumerate_matchings(c.dd, skip_vertex=c.dd.vertex_id(c.s_key))


def _osts_g0_c5():
    return enumerate_osts(Chain(*cycle(5)).g0.graph, ROOT)


# enumeration -> (smallest oracles.STATE_CAP that lets it finish, number of
# yields, sha256 of the repr of the list it yields), all recorded from the
# recursive enumerations; one cap unit is one partial state.  The corner-tree
# entry was re-recorded when the oriented-tree search came to take the nodes
# fewest out-arcs first: its cap fell from 4,254 to 3,851 and its yields
# moved to that search order, the same 2,101 trees
ENUMERATIONS = {
    "quadri_grid23": (_quadri_grid23, 2305, 530,
                      "5a7af282493fca5310d4ee2249277b8f"
                      "aeb1b3a8b6a951d4ea215c472ffe1da0"),
    "double_grid23": (_double_grid23, 3271, 576,
                      "78303acc823283bb9d6ee05ee5cc755e"
                      "d748d21aa237a0b3b337d5fcdea6cf91"),
    "osts_g0_c5": (_osts_g0_c5, 3851, 2101,
                   "553857e4fce488fac54d5a0e271e8ba0"
                   "c84fa0ff009658de192914677d15da85"),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumeration_state_cap_and_yield_order(name, monkeypatch):
    enum, cap, n_yields, digest = ENUMERATIONS[name]
    monkeypatch.setattr(oracles, "STATE_CAP", cap - 1)
    with pytest.raises(TooLargeError):
        list(enum())
    monkeypatch.setattr(oracles, "STATE_CAP", cap)
    seq = list(enum())
    assert len(seq) == n_yields
    assert hashlib.sha256(repr(seq).encode()).hexdigest() == digest


# graph -> the smallest oracles.STATE_CAP that lets `ost_Z` finish on its
# corner graph, for the graphs whose corner trees verify enumerates.  The
# search takes the nodes fewest out-arcs first; in node order it needed
# 162, 850, 4,254, 20,782 and 103,162
OST_Z_CAPS = {"C3": (lambda: cycle(3), 143), "C4": (lambda: cycle(4), 762),
              "C5": (lambda: cycle(5), 3851), "C6": (lambda: cycle(6), 18930),
              "grid2x3": (lambda: grid(2, 3), 79441)}


@pytest.mark.parametrize("name", sorted(OST_Z_CAPS))
def test_corner_tree_sum_state_cap(name, monkeypatch):
    make, cap = OST_Z_CAPS[name]
    g = Chain(*make()).g0.graph
    monkeypatch.setattr(oracles, "STATE_CAP", cap - 1)
    with pytest.raises(TooLargeError):
        ost_Z(g, ROOT)
    monkeypatch.setattr(oracles, "STATE_CAP", cap)
    assert ost_Z(g, ROOT) == pytest.approx(matrix_tree_Z(g, ROOT), rel=1e-12)
