"""Graphs derived from a planar map: diamond graph, quadri-tiling graph,
extended primal/dual pair, and the extended double graph.

Every builder numbers its darts straight from the darts of the input and
constructs its :class:`PlanarMap` in one call, outer dart included; the
numbering is the one :func:`~isingtree.maps.map_from_rotations` would give
the same rotations.  Vertex and edge keys record provenance:

* diamond graph: vertices ``('p', v)`` / ``('f', F)``, one edge ``('c', d)``
  per corner dart d joining v(d) to the face left of d;
* quadri-tiling graph: one white ``('w', d)`` and one black ``('b', d)``
  vertex per dart (the two flags of d), edges ``('cp', d)`` crossing the
  primal edge of d, ``('cd', d)`` crossing its dual edge, ``('ex', d)``
  external at corner d;
* extended dual: inner-face vertices ``('f', F)`` plus one outer vertex
  ``('u', delta)`` per boundary corner, edges ``('dual', e)`` and rim edges
  ``('rim', delta)``;
* extended primal: ``('p', v)`` plus the root ``('r',)``, edges ``('e', e)``
  and boundary spokes ``('bd', delta)``;
* extended double: superposition of the previous two with a white vertex on
  every crossing -- ``('we', e)`` on each primal/dual pair, ``('wb', delta)``
  on each boundary-spoke/rim pair -- and the root removed.  Edge keys are the
  four half-edge families ``('hp', d)``, ``('hd', d)``, ``('hb', delta)``,
  ``('hr', delta, 0|1)``; half ``('hr', delta, 0)`` is the rim half towards
  u_{alpha sigma delta} (the one that survives splitting conventions
  downstream) and ``('hr', delta, 1)`` the half towards u_delta.
"""

from __future__ import annotations

from typing import NamedTuple

from .maps import PlanarMap, face_points, far_point

# vertex tag by key kind, for the quadri-tiling and the extended double
_TAG = {"b": "black", "w": "white", "p": "black-primal", "f": "black-dual",
        "u": "black-dual", "we": "white", "wb": "white"}


# ---------------------------------------------------------------------------
# diamond graph
# ---------------------------------------------------------------------------

def quad_graph(m: PlanarMap) -> PlanarMap:
    """Diamond graph: vertices of m plus its faces, one edge per corner.

    Its faces are the rhombi of the isoradial embedding plus one outer
    quadrangle, the quadrangle of the minimal boundary corner.

    Numbering: corner edges follow the darts of m vertex by vertex, so
    ``('c', d)`` is edge pos[d]; its even dart 2 pos[d] sits at ``('p', v)``
    (sigma steps to the corner of sigma d) and its odd dart at ``('f', F)``
    (sigma steps to the corner of phi d).  Vertices are numbered by smallest
    dart.  The outer dart is the smallest dart of the quadrangle around the
    edge of d0, the smallest outer dart of m: the face
    2 pos[d0]+1 -> 2 pos[phi alpha d0] -> 2 pos[alpha d0]+1 -> 2 pos[phi d0].
    """
    n_v = len(m.vertices)
    order = [d for rot in m.vertices for d in rot]
    pos = [0] * len(order)
    for i, d in enumerate(order):
        pos[d] = i
    sigma = [0] * (2 * len(order))
    sigma[0::2] = [2 * pos[m.sigma[d]] for d in order]
    sigma[1::2] = [2 * pos[m.phi(d)] + 1 for d in order]
    # index into the primal vertices, then the faces, at each smallest dart
    first: list = [None] * len(sigma)
    for v, rot in enumerate(m.vertices):
        first[2 * pos[rot[0]]] = v
    for f, rot in enumerate(m.faces):
        first[2 * min(pos[x] for x in rot) + 1] = n_v + f
    ids = [i for i in first if i is not None]
    keys = [("p", i) if i < n_v else ("f", i - n_v) for i in ids]

    coords = None
    if m.coords is not None:
        all_coords = list(m.coords) + face_points(m)
        coords = [all_coords[i] for i in ids]

    d0 = min(m.outer_orbit)
    outer = min(2 * pos[d0] + 1, 2 * pos[m.phi(d0 ^ 1)],
                2 * pos[d0 ^ 1] + 1, 2 * pos[m.phi(d0)])
    return PlanarMap(sigma, outer, coords=coords,
                     tags=["primal" if i < n_v else "dual" for i in ids],
                     vertex_keys=keys,
                     edge_keys=[("c", d) for d in order])


# ---------------------------------------------------------------------------
# quadri-tiling graph
# ---------------------------------------------------------------------------

def quadri_tiling(m: PlanarMap) -> PlanarMap:
    """Bipartite 3-regular graph with one white and one black flag per dart.

    The two flags of dart d sit on the two sides of d near its origin:
    ``('w', d)`` on the right (in the face right of d), ``('b', d)`` on the
    left.  Edges and their geometric roles:

    * ``('cp', d)``: w(d) -- b(d), crossing the primal edge of d;
    * ``('cd', d)``: w(d) -- b(alpha d), crossing the dual edge of d;
    * ``('ex', d)``: b(d) -- w(sigma d), external edge in corner d (a
      boundary external edge exactly when corner d is a boundary corner).

    Faces then split into one quadrangle per edge of m, one face per vertex
    (length 2 deg) and one per face of m (length 2 x face degree); the
    designated outer face is the one of m's outer face.

    Numbering: black d owns edges 3d, 3d+1, 3d+2 (``('cp', d)``,
    ``('cd', alpha d)``, ``('ex', d)``) by its even darts 6d, 6d+2, 6d+4 in
    ccw order; white d owns the odd darts 6 sigma^{-1}(d)+5, 6 alpha(d)+3,
    6d+1 in ccw order.  Vertices are numbered by smallest dart; the outer
    dart is 6 d0+5, for d0 the smallest outer dart of m.
    """
    n = len(m.sigma)
    sigma_inv = m.sigma_inv
    sigma = [0] * (6 * n)
    first: list = [None] * (6 * n)   # vertex key at its smallest dart
    edge_keys: list[tuple] = []
    for d in range(n):
        b = 6 * d
        sigma[b], sigma[b + 2], sigma[b + 4] = b + 2, b + 4, b
        first[b] = ("b", d)
        x, y, z = 6 * sigma_inv[d] + 5, 6 * (d ^ 1) + 3, b + 1
        sigma[x], sigma[y], sigma[z] = y, z, x
        first[min(x, y, z)] = ("w", d)
        edge_keys += (("cp", d), ("cd", d ^ 1), ("ex", d))
    keys = [k for k in first if k is not None]
    return PlanarMap(sigma, 6 * min(m.outer_orbit) + 5,
                     tags=[_TAG[k[0]] for k in keys],
                     vertex_keys=keys, edge_keys=edge_keys)


# ---------------------------------------------------------------------------
# extended primal / dual pair
# ---------------------------------------------------------------------------

class ExtendedPair(NamedTuple):
    """Extended primal graph, extended dual graph, and the primal root.

    ``primal`` has vertex keys ('p', v) and ('r',); the root r is joined to
    each boundary vertex once per boundary corner by spokes ('bd', delta).
    ``dual`` replaces the outer-face vertex by one vertex ('u', delta) per
    boundary corner, joined cyclically by rim edges ('rim', delta); the dual
    of boundary edge e(delta) becomes the spoke ('dual', e) at ('u', delta).
    ``root_id`` is the vertex id of ('r',) in ``primal``.
    """
    primal: PlanarMap
    dual: PlanarMap
    root_id: int


def extended_pair(m: PlanarMap) -> ExtendedPair:
    """Extended primal and dual of m, numbered as from their rotations:
    the vertices below take the next darts in ccw order, in turn, and an
    edge gets its even dart at the first vertex that lists it.  Vertices
    are numbered by smallest dart.

    * dual: inner faces F (the dual edges of F's darts), then the boundary
      corners delta in outer-orbit order (``('rim', delta)``,
      ``('dual', e(delta))``, ``('rim', phi delta)``); the outer face is the
      all-rim face, whose smallest dart is the odd one of ('rim', delta0);
    * primal: vertices v (the edges of v's darts, with the spoke
      ``('bd', d)`` after each outer dart d), then the root (the spokes in
      forward outer-orbit order, which keeps the outer face on its left and
      so winds ccw around a point inside it, as the all-rim face does); the
      outer dart is the root's dart on ('bd', delta0).
    """
    boundary = m.outer_orbit  # clockwise
    d0 = boundary[0]

    # link and dart write to sigma, first and edge_keys of the map being
    # built: the dual's, then, rebound, the primal's
    def link(ds: list[int], key: tuple) -> None:
        """ds is the next vertex's rotation: close it in sigma."""
        prev = ds[-1]
        for d in ds:
            sigma[prev] = d
            prev = d
        first[min(ds)] = key

    def dart(table: list[int], i: int, key: tuple) -> int:
        """Dart of edge `key` (table slot i) at the vertex being listed."""
        x = table[i]
        if x >= 0:
            return x + 1
        table[i] = x = 2 * len(edge_keys)
        edge_keys.append(key)
        return x

    # --- extended dual ---
    n_edges = m.n_edges + len(boundary)
    sigma = [0] * (2 * n_edges)
    first: list = [None] * len(sigma)   # vertex key at its smallest dart
    edge_keys: list[tuple] = []
    dual, rim = [-1] * m.n_edges, [-1] * len(m.sigma)
    for f, rot in enumerate(m.faces):
        if f != m.outer_face:
            link([dart(dual, x >> 1, ("dual", x >> 1)) for x in rot], ("f", f))
    for delta in boundary:
        nxt = m.phi(delta)
        link([dart(rim, delta, ("rim", delta)),
              dart(dual, delta >> 1, ("dual", delta >> 1)),
              dart(rim, nxt, ("rim", nxt))], ("u", delta))
    keys = [k for k in first if k is not None]
    star = PlanarMap(sigma, rim[d0] + 1,
                     tags=["dual" if k[0] == "f" else "outer" for k in keys],
                     vertex_keys=keys, edge_keys=edge_keys)

    # --- extended primal ---
    sigma = [0] * (2 * n_edges)
    first = [None] * len(sigma)
    edge_keys = []
    primal, spoke = [-1] * m.n_edges, [-1] * len(m.sigma)
    for v, rot in enumerate(m.vertices):
        ds = []
        for d in rot:
            ds.append(dart(primal, d >> 1, ("e", d >> 1)))
            if m.is_outer_dart(d):
                ds.append(dart(spoke, d, ("bd", d)))
        link(ds, ("p", v))
    link([dart(spoke, delta, ("bd", delta)) for delta in boundary], ("r",))
    keys = [k for k in first if k is not None]
    coords = None
    if m.coords is not None:
        root = far_point(m.coords)
        coords = [root if k == ("r",) else m.coords[k[1]] for k in keys]
    ext = PlanarMap(sigma, spoke[d0] + 1, coords=coords,
                    tags=["root" if k == ("r",) else "primal" for k in keys],
                    vertex_keys=keys, edge_keys=edge_keys)
    return ExtendedPair(primal=ext, dual=star, root_id=ext.vertex_id(("r",)))


# ---------------------------------------------------------------------------
# extended double graph
# ---------------------------------------------------------------------------

def extended_double(m: PlanarMap) -> PlanarMap:
    """Superposition of extended primal (minus root) and extended dual.

    Every crossing of a primal object with its dual partner carries a white
    vertex; the surviving black vertices are the primal ones ('p', v) and the
    dual ones ('f', F), ('u', delta).  Whites come in two kinds:

    * ``('we', e)`` where edge e crosses its dual edge, with four half-edges
      ('hp', d)/('hp', alpha d) along the primal edge and ('hd', d)/
      ('hd', alpha d) along the dual one (an ('hd', delta) half attaches to
      ('u', delta) when corner delta is on the boundary);
    * ``('wb', delta)`` where the boundary spoke ('bd', delta) crosses the
      rim edge ('rim', delta), with three half-edges: ('hb', delta) towards
      the boundary vertex -- the root half is cut -- and the two rim halves
      ('hr', delta, 0) towards u_{alpha sigma delta}, ('hr', delta, 1)
      towards u_delta.

    The map is bipartite with whites of degree 4 (interior) and 3 (boundary);
    every inner face is a quadrangle with exactly two whites, and the outer
    face alternates rim halves around the boundary.
    """
    boundary = m.outer_orbit
    # the odd dart of each half-edge (its end at the white), by dart of m
    hp, hd, hb, hr0, hr1 = ([0] * len(m.sigma) for _ in range(5))
    # the blacks take the even darts in turn, each black the next ones in
    # ccw order: sigma steps 2k -> 2k+2, closed at the end of every black
    sigma = [0] * (4 * len(m.sigma) + 6 * len(boundary))
    sigma[0::2] = range(2, len(sigma) + 1, 2)
    first: list = [None] * len(sigma)   # vertex key at its smallest dart
    edge_keys: list[tuple] = []

    def close(key: tuple, start: int) -> None:
        sigma[2 * len(edge_keys) - 2] = start
        first[start] = key

    for v, rot in enumerate(m.vertices):
        start = 2 * len(edge_keys)
        for d in rot:
            hp[d] = 2 * len(edge_keys) + 1
            edge_keys.append(("hp", d))
            if m.is_outer_dart(d):
                hb[d] = 2 * len(edge_keys) + 1
                edge_keys.append(("hb", d))
        close(("p", v), start)
    for f, rot in enumerate(m.faces):
        if f != m.outer_face:
            start = 2 * len(edge_keys)
            for x in rot:
                hd[x] = 2 * len(edge_keys) + 1
                edge_keys.append(("hd", x))
            close(("f", f), start)
    for delta in boundary:
        k = 2 * len(edge_keys)
        hr1[delta], hd[delta], hr0[m.phi(delta)] = k + 1, k + 3, k + 5
        edge_keys += (("hr", delta, 1), ("hd", delta), ("hr", m.phi(delta), 0))
        close(("u", delta), k)
    for e in range(m.n_edges):
        w0, w1, w2, w3 = hp[2 * e + 1], hd[2 * e], hp[2 * e], hd[2 * e + 1]
        sigma[w0], sigma[w1], sigma[w2], sigma[w3] = w1, w2, w3, w0
        first[min(w0, w1, w2, w3)] = ("we", e)
    for delta in boundary:
        w0, w1, w2 = hr0[delta], hb[delta], hr1[delta]
        sigma[w0], sigma[w1], sigma[w2] = w1, w2, w0
        first[min(w0, w1, w2)] = ("wb", delta)
    keys = [k for k in first if k is not None]
    # the outer face alternates rim halves; its smallest dart is the white
    # end of ('hr', delta, 1) for delta the first boundary corner
    return PlanarMap(sigma, hr1[boundary[0]], tags=[_TAG[k[0]] for k in keys],
                     vertex_keys=keys, edge_keys=edge_keys)
