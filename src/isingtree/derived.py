"""Graphs derived from a planar map: diamond graph, quadri-tiling graph,
extended primal/dual pair, and the extended double graph.

The quadri-tiling and the extended double number their darts in closed
form and build the map in one call; the diamond graph and the extended pair
call :func:`map_from_rotations` on a provisional outer dart and name their
outer face with :meth:`PlanarMap.with_outer_dart`, which keeps the
numbering.  Vertex and edge keys record provenance:

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

from typing import Hashable, NamedTuple

from .maps import MapError, PlanarMap, map_from_rotations

# vertex tag by key kind, for the maps built without map_from_rotations
_TAG = {"b": "black", "w": "white", "p": "black-primal", "f": "black-dual",
        "u": "black-dual", "we": "white", "wb": "white"}


# ---------------------------------------------------------------------------
# diamond graph
# ---------------------------------------------------------------------------

def quad_graph(m: PlanarMap) -> PlanarMap:
    """Diamond graph: vertices of m plus its faces, one edge per corner.

    Its faces are the rhombi of the isoradial embedding plus one outer
    quadrangle, the quadrangle of the minimal boundary corner.
    """
    rotations: dict[Hashable, list[Hashable]] = {}
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
    tags = {k: ("primal" if k[0] == "p" else "dual") for k in rotations}

    d0 = min(m.outer_orbit)
    q = map_from_rotations(rotations, (("p", m.vertex_of(d0)), ("c", d0)),
                           coords=coords, tags=tags)
    # outer face := the quadrangle of the edge carrying the minimal outer
    # corner, i.e. the face with corner-key set {d0, phi d0, a d0, phi a d0}
    want = frozenset(("c", x) for x in
                     (d0, m.phi(d0), d0 ^ 1, m.phi(d0 ^ 1)))
    return q.with_outer_dart(q.faces[_face_with_keys(q, want)][0])


def _face_with_keys(m: PlanarMap, keys: frozenset) -> int:
    hits = [f for f, orb in enumerate(m.faces)
            if frozenset(m.edge_key(d >> 1) for d in orb) == keys]
    if len(hits) != 1:
        raise MapError("face with key set %r not unique: %r" % (keys, hits))
    return hits[0]


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
    boundary = m.outer_orbit  # clockwise
    # --- extended dual ---
    rot_d: dict[Hashable, list[Hashable]] = {}
    for f in range(len(m.faces)):
        if f == m.outer_face:
            continue
        rot_d[("f", f)] = [("dual", m.edge_of(x)) for x in m.faces[f]]
    for delta in boundary:
        rot_d[("u", delta)] = [("rim", delta), ("dual", m.edge_of(delta)),
                               ("rim", m.phi(delta))]
    tags_d = {k: ("dual" if k[0] == "f" else "outer") for k in rot_d}
    d0 = min(boundary)
    star = map_from_rotations(rot_d, (("u", d0), ("rim", d0)), tags=tags_d)
    star = star.with_outer_dart(star.faces[_face_of_kind(star, "rim")][0])

    # --- extended primal (direct construction) ---
    rot_p: dict[Hashable, list[Hashable]] = {}
    for v in range(len(m.vertices)):
        rot = []
        for d in m.vertices[v]:
            rot.append(("e", m.edge_of(d)))
            if m.is_outer_dart(d):
                rot.append(("bd", d))
        rot_p[("p", v)] = rot
    # rotation at the root = spokes in forward outer-orbit order: the orbit
    # keeps the outer face on its left, hence winds counterclockwise around
    # any point placed inside that face (this is also the phi-orbit of the
    # all-rim face of the extended dual, whose rim edges the spokes cross).
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
    return ExtendedPair(primal=ext, dual=star, root_id=ext.vertex_id(("r",)))


def _face_of_kind(m: PlanarMap, kind: str) -> int:
    """The one face all of whose edge keys are of the given kind."""
    hits = [f for f in range(len(m.faces))
            if all(m.edge_key(m.edge_of(d))[0] == kind for d in m.faces[f])]
    if len(hits) != 1:
        raise MapError("outer %r face not unique: %r" % (kind, hits))
    return hits[0]


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
