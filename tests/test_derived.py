"""Derived graphs: quad graph, quadri-tiling, extended double and pair."""

from collections import Counter
from fractions import Fraction

from isingtree.derived import extended_double, quad_graph, quadri_tiling
from isingtree.generators import cycle, grid, rhombic
from isingtree.maps import map_from_rotations


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


# ---------------------------------------------------------------------------
# the closed-form numbering against rotation-table references
# ---------------------------------------------------------------------------

def reference_quadri_tiling(m):
    """The quadri-tiling through map_from_rotations, its outer face found
    by search: the side of ('ex', d0) away from the vertex-face of v(d0)."""
    n = len(m.sigma)
    rotations, tags = {}, {}
    for d in range(n):
        rotations[("b", d)] = [("cp", d), ("cd", d ^ 1), ("ex", d)]
        tags[("b", d)] = "black"
    for d in range(n):
        rotations[("w", d)] = [("ex", m.sigma_inv[d]), ("cd", d), ("cp", d)]
        tags[("w", d)] = "white"
    d0 = min(m.outer_orbit)
    q = map_from_rotations(rotations, (("b", d0), ("ex", d0)), tags=tags)
    e = q.edge_id(("ex", d0))
    sides = [f for f in (q.face_of(2 * e), q.face_of(2 * e + 1))
             if ("cp", d0) not in {q.edge_key(x >> 1) for x in q.faces[f]}]
    assert len(sides) == 1
    return q.with_outer_dart(next(x for x in q.faces[sides[0]]
                                  if x >> 1 == e))


def reference_extended_double(m):
    """The extended double through map_from_rotations, its outer face
    found by search: the one face all of whose edges are rim halves."""
    boundary = m.outer_orbit
    rotations, tags = {}, {}
    for v in range(len(m.vertices)):
        rot = []
        for d in m.vertices[v]:
            rot.append(("hp", d))
            if m.is_outer_dart(d):
                rot.append(("hb", d))
        rotations[("p", v)] = rot
        tags[("p", v)] = "black-primal"
    for f in range(len(m.faces)):
        if f != m.outer_face:
            rotations[("f", f)] = [("hd", x) for x in m.faces[f]]
            tags[("f", f)] = "black-dual"
    for delta in boundary:
        rotations[("u", delta)] = [("hr", delta, 1), ("hd", delta),
                                   ("hr", m.phi(delta), 0)]
        tags[("u", delta)] = "black-dual"
    for e in range(m.n_edges):
        d = 2 * e
        rotations[("we", e)] = [("hp", d ^ 1), ("hd", d), ("hp", d),
                                ("hd", d ^ 1)]
        tags[("we", e)] = "white"
    for delta in boundary:
        rotations[("wb", delta)] = [("hr", delta, 0), ("hb", delta),
                                    ("hr", delta, 1)]
        tags[("wb", delta)] = "white"
    d0 = min(boundary)
    dd = map_from_rotations(rotations, (("wb", d0), ("hr", d0, 0)), tags=tags)
    rims = [orb for orb in dd.faces
            if all(dd.edge_key(x >> 1)[0] == "hr" for x in orb)]
    assert len(rims) == 1
    return dd.with_outer_dart(rims[0][0])


def numbering_corpus():
    for n in range(3, 10):
        yield "C%d" % n, cycle(n)[0]
    for w in range(2, 11):
        for h in range(w, 11):
            yield "grid %dx%d" % (w, h), grid(w, h)[0]
    for q in (5, 6, 8):
        yield "rhombic 6x6 at 1/%d" % q, rhombic(6, 6, Fraction(1, q))[0]


def same_map(a, b):
    return (a.sigma == b.sigma and a.edge_keys == b.edge_keys
            and a.vertex_keys == b.vertex_keys and a.tags == b.tags
            and a.outer_dart == b.outer_dart)


def test_closed_form_quadri_tiling_equals_the_rotation_table_build():
    for name, m in numbering_corpus():
        gq = quadri_tiling(m)
        assert same_map(gq, reference_quadri_tiling(m)), name
        # what build_kasteleyn and the flatness check rely on
        for v, orb in enumerate(gq.vertices):
            colour, d = gq.vertex_keys[v]
            if colour == "b":
                assert orb == (6 * d, 6 * d + 2, 6 * d + 4), name
            else:
                assert all(x & 1 for x in orb), name
        assert gq.outer_dart == 6 * min(m.outer_orbit) + 5, name


def test_closed_form_extended_double_equals_the_rotation_table_build():
    for name, m in numbering_corpus():
        dd = extended_double(m)
        assert same_map(dd, reference_extended_double(m)), name
        # every edge runs from its even dart at a black to a white
        for e in range(dd.n_edges):
            u, v = dd.endpoints(e)
            assert dd.tags[u] != "white" and dd.tags[v] == "white", name
