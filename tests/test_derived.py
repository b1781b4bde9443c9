"""Derived graphs: quad graph, quadri-tiling, extended double and pair."""

import cmath
import itertools
from collections import Counter
from fractions import Fraction

from isingtree.derived import (extended_double, extended_pair, quad_graph,
                               quadri_tiling)
from isingtree.generators import TWO_PI, cycle, grid, rhombic
from isingtree.maps import build_map, dual_map, far_point, map_from_rotations


def test_quad_graph_of_square():
    m, _ = cycle(4)
    q = quad_graph(m)
    assert (q.n_vertices, q.n_edges) == (6, 8)
    # every face of the full quad graph is a quadrilateral
    assert all(len(f) == 4 for f in q.faces)
    assert Counter(q.tags) == {"primal": 4, "dual": 2}


def test_dual_and_quad_graph_draw_no_two_vertices_on_one_point():
    # the outer face's vertex used to sit at the boundary's centroid: on a
    # primal vertex of grid 3x3, on the inner face's vertex of a cycle
    graphs = [cycle(n) for n in range(3, 10)]
    graphs += [grid(w, h) for w in range(2, 7) for h in range(3, 7)]
    graphs += [rhombic(n, n, Fraction(1, k)) for n in (3, 6) for k in (5, 6, 8)]
    for m, _ in graphs:
        for g in (dual_map(m), quad_graph(m)):
            pairs = itertools.combinations(g.coords, 2)
            assert all(abs(a - b) > 1e-9 for a, b in pairs)


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


def reference_quad_graph(m):
    """The diamond graph through map_from_rotations, its outer face found
    by search: the quadrangle with corner keys {d0, phi d0, a d0, phi a d0}."""
    rotations = {}
    for v in range(len(m.vertices)):
        rotations[("p", v)] = [("c", d) for d in m.vertices[v]]
    for f in range(len(m.faces)):
        rotations[("f", f)] = [("c", d) for d in m.faces[f]]
    coords = None
    if m.coords is not None:
        coords = {("p", v): m.coords[v] for v in range(len(m.vertices))}
        for f in range(len(m.faces)):
            pts = [m.coords[m.vertex_of(d)] for d in m.faces[f]]
            coords[("f", f)] = sum(pts) / len(pts)
        coords[("f", m.outer_face)] = far_point(m.coords)
    tags = {k: ("primal" if k[0] == "p" else "dual") for k in rotations}
    d0 = min(m.outer_orbit)
    q = map_from_rotations(rotations, (("p", m.vertex_of(d0)), ("c", d0)),
                           coords=coords, tags=tags)
    want = frozenset(("c", x) for x in
                     (d0, m.phi(d0), d0 ^ 1, m.phi(d0 ^ 1)))
    hits = [orb for orb in q.faces
            if frozenset(q.edge_key(d >> 1) for d in orb) == want]
    assert len(hits) == 1
    return q.with_outer_dart(hits[0][0])


def reference_extended_pair(m):
    """The extended pair through map_from_rotations, the dual's outer face
    found by search: the one face all of whose edges are rims."""
    boundary = m.outer_orbit
    rot_d = {}
    for f in range(len(m.faces)):
        if f != m.outer_face:
            rot_d[("f", f)] = [("dual", m.edge_of(x)) for x in m.faces[f]]
    for delta in boundary:
        rot_d[("u", delta)] = [("rim", delta), ("dual", m.edge_of(delta)),
                               ("rim", m.phi(delta))]
    tags_d = {k: ("dual" if k[0] == "f" else "outer") for k in rot_d}
    d0 = min(boundary)
    star = map_from_rotations(rot_d, (("u", d0), ("rim", d0)), tags=tags_d)
    rims = [orb for orb in star.faces
            if all(star.edge_key(d >> 1)[0] == "rim" for d in orb)]
    assert len(rims) == 1
    star = star.with_outer_dart(rims[0][0])

    rot_p = {}
    for v in range(len(m.vertices)):
        rot = []
        for d in m.vertices[v]:
            rot.append(("e", m.edge_of(d)))
            if m.is_outer_dart(d):
                rot.append(("bd", d))
        rot_p[("p", v)] = rot
    rot_p[("r",)] = [("bd", delta) for delta in boundary]
    tags_p = {k: ("root" if k == ("r",) else "primal") for k in rot_p}
    coords_p = None
    if m.coords is not None:
        center = sum(m.coords) / len(m.coords)
        radius = max(abs(z - center) for z in m.coords) if len(m.coords) else 1.0
        coords_p = {("p", v): m.coords[v] for v in range(len(m.vertices))}
        coords_p[("r",)] = center + 2.5 * (radius if radius else 1.0)
    ext = map_from_rotations(rot_p, (("r",), ("bd", d0)),
                             coords=coords_p, tags=tags_p)
    return ext, star, ext.vertex_id(("r",))


def reference_cycle(n):
    """cycle(n) through build_map, with the exact angle of every edge."""
    rotations = {k: [(k - 1) % n, k] for k in range(n)}
    coords = {k: cmath.exp(1j * TWO_PI * k / n) for k in range(n)}
    m = build_map(rotations, (0, n - 1), coords=coords)
    return m, {m.edge_id(e): Fraction(n - 2, 2 * n) for e in range(n)}


def reference_rhombic(w, h, beta):
    """rhombic(w, h, beta) through build_map, with the exact angles."""
    if isinstance(beta, Fraction):
        beta_rad = float(beta) * cmath.pi
        frac_h, frac_v = beta, Fraction(1, 2) - beta
    else:
        beta_rad = float(beta)
        frac_h = frac_v = None
    dx, dy = 2.0 * cmath.cos(beta_rad), 2.0 * cmath.sin(beta_rad)
    edge_frac, index = [], {}
    for j in range(h):
        for i in range(w - 1):
            index[("h", i, j)] = len(edge_frac)
            edge_frac.append(frac_h)
    for j in range(h - 1):
        for i in range(w):
            index[("v", i, j)] = len(edge_frac)
            edge_frac.append(frac_v)
    rotations = {}
    for j in range(h):
        for i in range(w):
            rot = []
            if i + 1 < w:
                rot.append(index[("h", i, j)])
            if j + 1 < h:
                rot.append(index[("v", i, j)])
            if i > 0:
                rot.append(index[("h", i - 1, j)])
            if j > 0:
                rot.append(index[("v", i, j - 1)])
            rotations[(i, j)] = rot
    coords = {(i, j): complex(i * dx, j * dy)
              for j in range(h) for i in range(w)}
    m = build_map(rotations, ((0, 0), index[("v", 0, 0)]), coords=coords)
    return m, {m.edge_id(k): v for k, v in enumerate(edge_frac)}


def reference_grid(w, h):
    return reference_rhombic(w, h, Fraction(1, 4))


def generator_corpus():
    """(name, generator, its rotation-table reference, arguments)."""
    for n in range(3, 10):
        yield "C%d" % n, cycle, reference_cycle, (n,)
    for w in range(2, 11):
        for h in range(w, 11):
            yield "grid %dx%d" % (w, h), grid, reference_grid, (w, h)
    for q in (5, 6, 8):
        yield ("rhombic 6x6 at 1/%d" % q, rhombic, reference_rhombic,
               (6, 6, Fraction(1, q)))


def numbering_corpus():
    for name, generator, _, args in generator_corpus():
        yield name, generator(*args)[0]


FLOAT_BETA = ("rhombic 5x4 at 0.7 rad", rhombic, reference_rhombic,
              (5, 4, 0.7))


def corpus_with_float_beta():
    yield from numbering_corpus()
    name, generator, _, args = FLOAT_BETA
    yield name, generator(*args)[0]


def same_map(a, b):
    return (a.sigma == b.sigma and a.edge_keys == b.edge_keys
            and a.vertex_keys == b.vertex_keys and a.tags == b.tags
            and a.outer_dart == b.outer_dart
            and repr(a.coords) == repr(b.coords))


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


def test_generators_equal_the_rotation_table_build():
    for name, generator, reference, args in [*generator_corpus(), FLOAT_BETA]:
        m, theta = generator(*args)
        ref, ref_theta = reference(*args)
        assert same_map(m, ref), name
        assert list(theta.items()) == list(ref_theta.items()), name


def test_dart_built_quad_graph_equals_the_rotation_table_build():
    for name, m in corpus_with_float_beta():
        assert same_map(quad_graph(m), reference_quad_graph(m)), name


def test_dart_built_extended_pair_equals_the_rotation_table_build():
    for name, m in corpus_with_float_beta():
        pair = extended_pair(m)
        primal, dual, root_id = reference_extended_pair(m)
        assert same_map(pair.primal, primal), name
        assert same_map(pair.dual, dual), name
        assert pair.root_id == root_id, name
