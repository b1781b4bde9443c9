"""Derived graphs: quad graph, quadri-tiling, extended double and pair."""

from collections import Counter

import pytest

from isingtree.derived import (extended_double, extended_pair, quad_graph,
                               quadri_tiling)
from isingtree.generators import cycle


def test_quad_graph_of_square():
    m, _ = cycle(4)
    q = quad_graph(m)
    assert (q.n_vertices, q.n_edges) == (6, 8)
    # every face of the full quad graph is a quadrilateral
    assert all(len(f) == 4 for f in q.faces)
    assert Counter(q.tags) == {"primal": 4, "dual": 2}


def test_quadri_tiling_is_cubic_and_bipartite(pipelines):
    sizes = {"C3": (12, 18), "C4": (16, 24), "grid": (48, 72)}
    for p in pipelines.values():
        gq = p.gq
        assert (gq.n_vertices, gq.n_edges) == sizes[p.name]
        assert all(gq.degree(v) == 3 for v in range(gq.n_vertices))
        by_colour = Counter(k[0] for k in gq.vertex_keys)
        assert by_colour["w"] == by_colour["b"] == gq.n_vertices // 2
        for e in range(gq.n_edges):
            u, v = gq.endpoints(e)
            assert {gq.vertex_key(u)[0], gq.vertex_key(v)[0]} == {"w", "b"}


def test_extended_double_shape(pipelines):
    sizes = {"C3": (13, 21), "C4": (17, 28), "grid": (41, 72)}
    for p in pipelines.values():
        dd = p.dd
        assert (dd.n_vertices, dd.n_edges) == sizes[p.name]
        tags = Counter(dd.tags)
        boundary = len(p.m.outer_orbit)
        # one white per primal edge plus one per boundary corner
        assert tags["white"] == p.m.n_edges + boundary
        # edge whites join two half-pairs (degree 4), boundary whites
        # carry the two rim halves and the spoke half (degree 3)
        for v in range(dd.n_vertices):
            if dd.tags[v] == "white":
                key = dd.vertex_key(v)
                assert dd.degree(v) == (4 if key[0] == "we" else 3)


def test_extended_double_edge_kinds(c4):
    kinds = Counter(k[0] for k in c4.dd.edge_keys)
    boundary = len(c4.m.outer_orbit)
    assert kinds == {"hp": 2 * c4.m.n_edges, "hd": 2 * c4.m.n_edges,
                     "hb": boundary, "hr": 2 * boundary}


def test_extended_pair_shape(pipelines):
    primal_sizes = {"C3": (4, 6), "C4": (5, 8), "grid": (10, 20)}
    dual_sizes = {"C3": (4, 6), "C4": (5, 8), "grid": (12, 20)}
    for p in pipelines.values():
        P, S = p.ext.primal, p.ext.dual
        assert (P.n_vertices, P.n_edges) == primal_sizes[p.name]
        assert (S.n_vertices, S.n_edges) == dual_sizes[p.name]
        assert P.vertex_key(p.ext.root_id) == ("r",)
        # spokes pair with rims, primal edges with their duals
        p_kinds = Counter(k[0] for k in P.edge_keys)
        s_kinds = Counter(k[0] for k in S.edge_keys)
        boundary = len(p.m.outer_orbit)
        assert p_kinds == {"e": p.m.n_edges, "bd": boundary}
        assert s_kinds == {"dual": p.m.n_edges, "rim": boundary}
