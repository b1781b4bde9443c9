"""Brute-force oracles: spins, matchings, determinants, spanning trees."""

import hashlib
import inspect
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isingtree.correspondence import ROOT, Chain
from isingtree.derived import quadri_tiling
from isingtree.generators import cycle, grid
from isingtree.oracles import (Arc, TooLargeError, WeightedDigraph,
                               complex_det, det_cofactor, dimer_Z,
                               enumerate_matchings, enumerate_osts,
                               enumerate_spanning_trees, ising_Z,
                               is_spanning_tree, laplacian, matrix_tree_Z,
                               ost_Z, permanent01)


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


def test_matching_count_agrees_with_permanent(pipelines):
    for name in ("C3", "C4"):
        p = pipelines[name]
        rows = [[1 if abs(row.get(j, 0j)) > 1e-12 else 0
                 for j in range(len(p.K.blacks))] for row in p.K.rows]
        assert permanent01(rows) == sum(1 for _ in enumerate_matchings(p.gq))


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
def test_spanning_tree_counts(pipelines, name, count):
    assert sum(1 for _ in enumerate_spanning_trees(pipelines[name].m)) == count


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
    monkeypatch.setenv("ISINGTREE_SPIN_CAP", "4")
    m, _ = grid(3, 3)
    with pytest.raises(TooLargeError):
        ising_Z(m, (0.1,) * 12)


def test_state_cap_enforced(monkeypatch, grid33):
    monkeypatch.setenv("ISINGTREE_STATE_CAP", "10")
    with pytest.raises(TooLargeError):
        list(enumerate_matchings(grid33.gq))


def _quadri_grid23():
    return enumerate_matchings(quadri_tiling(grid(2, 3)[0]))


def _double_grid23():
    c = Chain(grid(2, 3)[0])
    return enumerate_matchings(c.dd, skip_vertex=c.dd.vertex_id(c.s_key))


def _osts_g0_c5():
    return enumerate_osts(Chain(*cycle(5)).g0.graph, ROOT)


def _trees_grid33():
    return enumerate_spanning_trees(grid(3, 3)[0])


# enumeration -> (smallest ISINGTREE_STATE_CAP that lets it finish, number of
# yields, sha256 of the repr of the list it yields), all recorded from the
# recursive enumerations; one cap unit is one partial state
ENUMERATIONS = {
    "quadri_grid23": (_quadri_grid23, 2305, 530,
                      "5a7af282493fca5310d4ee2249277b8f"
                      "aeb1b3a8b6a951d4ea215c472ffe1da0"),
    "double_grid23": (_double_grid23, 3271, 576,
                      "78303acc823283bb9d6ee05ee5cc755e"
                      "d748d21aa237a0b3b337d5fcdea6cf91"),
    "osts_g0_c5": (_osts_g0_c5, 4254, 2101,
                   "73b260249eb8a60f083c37f737c959c8"
                   "2a71e39ed2e0a49b13796357525ad694"),
    "trees_grid33": (_trees_grid33, 1139, 192,
                     "08d44f8266e96190763774a5134ea09a"
                     "2b7b9797e5f44c06bfb02d7b84285251"),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumeration_state_cap_and_yield_order(name, monkeypatch):
    enum, cap, n_yields, digest = ENUMERATIONS[name]
    monkeypatch.setenv("ISINGTREE_STATE_CAP", str(cap - 1))
    with pytest.raises(TooLargeError):
        list(enum())
    monkeypatch.setenv("ISINGTREE_STATE_CAP", str(cap))
    seq = list(enum())
    assert len(seq) == n_yields
    assert hashlib.sha256(repr(seq).encode()).hexdigest() == digest
