"""Planar combinatorial maps as rotation systems.

Conventions, fixed once here and relied on everywhere else:

* Darts are the integers ``0 .. 2E-1``.  Edge ``i`` owns darts ``2i`` and
  ``2i+1``, so the twin involution is never stored: ``alpha(d) = d ^ 1``.
* ``sigma[d]`` is the next dart counterclockwise around the origin vertex of
  ``d``.  Vertices are the sigma-orbits, numbered by minimal dart.
* Faces are the orbits of ``phi = sigma^{-1} o alpha``, the successor along a
  face boundary that keeps the face on the *left* of every dart.  With sigma
  counterclockwise, inner faces are traversed counterclockwise and the outer
  face orbit runs clockwise along the boundary; whenever a construction needs
  a "clockwise boundary order" it reads the outer face orbit forward.
  (Note ``sigma o alpha`` would glue the same sets of darts into mirror faces;
  the orbit count, hence Euler's formula, is identical.  The left-face choice
  is the one all boundary-angle and curvature sign conventions assume, and it
  matters as soon as some vertex has degree >= 3.)
* ``corner(d)`` is the wedge at the origin of ``d`` between ``d`` and
  ``sigma(d)``; it lies in the face left of ``d``.  In particular boundary
  corners are exactly the darts of the outer face orbit.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence


class MapError(Exception):
    """Base class for combinatorial-map construction errors."""


class NonPlanarError(MapError):
    """Rotation system does not satisfy Euler's formula V - E + F = 2."""


class DisconnectedError(MapError):
    """Underlying graph is not connected."""


class DegreeTooLowError(MapError):
    """Some vertex has degree < 2 (isolated vertices included)."""


class NotSimpleError(MapError):
    """Input graph has a loop or parallel edges."""


class PlanarMap:
    """Immutable rotation system with a designated outer face.

    A map has at least one dart, and every vertex is a sigma-orbit, so no
    vertex is isolated.  Not validated on construction beyond structural
    consistency; the planarity / connectivity / simplicity / degree
    invariants are enforced by :func:`build_map` for *input* graphs.
    Derived constructions (duals, quadri-tilings, doubles) legitimately
    produce multigraphs or degree-1 vertices and therefore use this
    constructor directly.

    Optional decorations:

    * ``coords``: one complex number per vertex (an embedding), or None.
    * ``tags``: one string per vertex (vertex class of derived graphs).
    * ``vertex_keys`` / ``edge_keys``: the caller's labels, kept so derived
      graphs can be queried by provenance instead of by raw index.

    The constructor walks the sigma-orbits and the phi-orbits once each,
    numbering every dart's orbit during the walk; phi itself is sigma^{-1}
    read with its even and odd darts swapped.  Attributes are always set in
    the same order, so every map shares one instance layout (CPython 3.11
    reads attributes faster then).
    """

    def __init__(self, sigma: Sequence[int], outer_dart: int | None,
                 coords: Sequence[complex] | None = None,
                 tags: Sequence[str] | None = None,
                 vertex_keys: Sequence[Hashable] | None = None,
                 edge_keys: Sequence[Hashable] | None = None):
        sigma = tuple(sigma)
        n = len(sigma)
        if n % 2 != 0:
            raise MapError("odd number of darts")
        inv = _invert(sigma)
        if inv is None:
            raise MapError("sigma is not a permutation of 0..%d" % (n - 1))
        if outer_dart is None:
            raise MapError("outer face dart required")
        if not 0 <= outer_dart < n:
            raise MapError("outer dart %r is not in 0..%d"
                           % (outer_dart, n - 1))
        self.sigma = sigma
        self.sigma_inv = inv
        self.n_edges = n // 2

        self._vertices, self._vertex_of = _orbits(sigma)
        # phi = sigma^{-1} o alpha: next dart along the face left of d.
        phi = [0] * n
        phi[0::2] = self.sigma_inv[1::2]
        phi[1::2] = self.sigma_inv[0::2]
        self._phi = phi = tuple(phi)
        self._faces, self._face_of = _orbits(phi)
        self.outer_dart = outer_dart
        self.outer_face = self._face_of[outer_dart]
        self.n_faces = len(self._faces)
        self.n_vertices = len(self._vertices)
        self.coords = tuple(coords) if coords is not None else None
        self.tags = tuple(tags) if tags is not None else None
        self.vertex_keys = tuple(vertex_keys) if vertex_keys is not None else None
        self.edge_keys = tuple(edge_keys) if edge_keys is not None else None
        self._vertex_index = (
            dict(zip(self.vertex_keys, range(len(self.vertex_keys))))
            if self.vertex_keys is not None else None)
        self._edge_index = (
            dict(zip(self.edge_keys, range(len(self.edge_keys))))
            if self.edge_keys is not None else None)
        # filled by key_ends; set here so that filling it changes no key
        # of the instance dict (a new key costs CPython 3.11 its fast
        # attribute reads on this map)
        self._key_ends: dict[Hashable, tuple[int, int]] | None = None

    # -- permutations ------------------------------------------------------

    def phi(self, d: int) -> int:
        """Next dart along the face left of d (ccw on inner faces)."""
        return self._phi[d]

    # -- incidences --------------------------------------------------------

    @property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Sigma-orbits (ccw dart lists), one per vertex."""
        return self._vertices

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Phi-orbits; ``faces[outer_face]`` runs clockwise on the boundary."""
        return self._faces

    def vertex_of(self, d: int) -> int:
        return self._vertex_of[d]

    def face_of(self, d: int) -> int:
        """Face left of dart d."""
        return self._face_of[d]

    def degree(self, v: int) -> int:
        return len(self._vertices[v])

    @staticmethod
    def edge_of(d: int) -> int:
        return d >> 1

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._vertex_of[2 * e], self._vertex_of[2 * e + 1]

    @property
    def outer_orbit(self) -> tuple[int, ...]:
        return self._faces[self.outer_face]

    def is_outer_dart(self, d: int) -> bool:
        return self._face_of[d] == self.outer_face

    def with_outer_dart(self, d: int) -> PlanarMap:
        """The same map, orbits included, with the face left of dart d as
        the outer face.  Attributes are set one by one, not through
        ``__dict__`` as ``copy.copy`` does: that keeps CPython's fast
        attribute layout (reads on a ``copy.copy`` took 1.7x as long)."""
        if not 0 <= d < len(self.sigma):
            raise MapError("outer dart %r is not in 0..%d"
                           % (d, len(self.sigma) - 1))
        m = PlanarMap.__new__(PlanarMap)
        for name, value in vars(self).items():
            setattr(m, name, value)
        m.outer_dart, m.outer_face = d, self._face_of[d]
        return m

    # -- label lookups -----------------------------------------------------

    def vertex_id(self, key: Hashable) -> int:
        if self._vertex_index is None:
            raise KeyError("map carries no vertex keys")
        return self._vertex_index[key]

    def edge_id(self, key: Hashable) -> int:
        if self._edge_index is None:
            raise KeyError("map carries no edge keys")
        return self._edge_index[key]

    def vertex_key(self, v: int) -> Hashable:
        """The caller's label of vertex v; v itself without keys."""
        return self.vertex_keys[v] if self.vertex_keys is not None else v

    def edge_key(self, e: int) -> Hashable:
        return self.edge_keys[e] if self.edge_keys is not None else e

    @property
    def key_ends(self) -> dict[Hashable, tuple[int, int]]:
        """Edge key -> endpoint vertex ids, built once; read-only."""
        if self._key_ends is None:
            self._key_ends = {self.edge_key(e): self.endpoints(e)
                              for e in range(self.n_edges)}
        return self._key_ends

    # -- global checks -----------------------------------------------------

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def is_connected(self) -> bool:
        """Every vertex is reached from vertex 0 along edges (a search over
        vertices: each dart is read once, and only vertices are stacked)."""
        vertex_of = self._vertex_of
        seen = [False] * self.n_vertices
        seen[0] = True
        stack = [0]
        while stack:
            for d in self._vertices[stack.pop()]:
                u = vertex_of[d ^ 1]
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return all(seen)

    def __repr__(self) -> str:  # debugging aid only
        return "PlanarMap(V=%d, E=%d, F=%d, outer=%d)" % (
            self.n_vertices, self.n_edges, self.n_faces, self.outer_face)


def _invert(perm: Sequence[int]) -> tuple[int, ...] | None:
    """The inverse of perm, or None unless perm permutes 0..len(perm)-1.

    The range is checked first, with C-level min and max, since a negative
    entry would index from the end; then a -1 left in the inverse marks a
    value that no entry took, so some other value was repeated."""
    n = len(perm)
    try:
        if n and (min(perm) < 0 or max(perm) >= n):
            return None
        inv = [-1] * n
        for i, p in enumerate(perm):
            inv[p] = i
    except TypeError:   # an entry that is not an integer
        return None
    return None if -1 in inv else tuple(inv)


def _orbits(perm: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...],
                                           tuple[int, ...]]:
    """Orbits of a permutation, each starting at its minimal element and
    listed in order of minimal element, and the orbit number of each
    element, filled in one walk; MapError if two elements share an image."""
    n = len(perm)
    index = [-1] * n
    out = []
    for start in range(n):
        if index[start] >= 0:
            continue
        k = len(out)
        orbit = [start]
        index[start] = k
        d = perm[start]
        while index[d] < 0:
            index[d] = k
            orbit.append(d)
            d = perm[d]
        if d != start:
            raise MapError("%d is the image of two elements" % d)
        out.append(tuple(orbit))
    return tuple(out), tuple(index)


# ---------------------------------------------------------------------------
# construction from rotation data
# ---------------------------------------------------------------------------

def map_from_rotations(rotations: Mapping[Hashable, Sequence[Hashable]],
                       outer: tuple[Hashable, Hashable],
                       coords: Mapping[Hashable, complex] | None = None,
                       tags: Mapping[Hashable, str] | None = None) -> PlanarMap:
    """Build a PlanarMap from per-vertex ccw edge-key rotations.

    Args:
      rotations: vertex key -> cyclic sequence of edge keys in ccw order.
        Every edge key must occur exactly twice overall (twice at the same
        vertex for a loop).  A vertex with an empty rotation has no dart and
        is left out of the map.  Vertex ids follow the sigma-orbit numbering
        (by minimal dart), edge ids the order of first appearance.
      outer: ``(vertex key, edge key)`` naming the dart originating at that
        vertex along that edge (its first occurrence in the vertex's
        rotation, for a loop) whose *left* face is the outer face.
      coords: optional vertex key -> complex embedding.
      tags: optional vertex key -> tag.
    """
    vertex_keys = list(rotations.keys())
    edge_keys: list[Hashable] = []
    # edge key -> its first-scanned dart 2e while the second is still to
    # come, -1 once both are assigned (2e+1 goes to the second slot)
    pending: dict[Hashable, int] = {}
    darts_of: dict[Hashable, list[int]] = {}   # vertex key -> darts, ccw
    for v in vertex_keys:
        ds = []
        for ek in rotations[v]:
            d = pending.get(ek)
            if d is None:
                d = pending[ek] = 2 * len(edge_keys)
                edge_keys.append(ek)
            elif d < 0:
                _raise_bad_edge_count(rotations, vertex_keys)
            else:
                pending[ek] = -1
                d += 1
            ds.append(d)
        darts_of[v] = ds
    if any(d >= 0 for d in pending.values()):
        _raise_bad_edge_count(rotations, vertex_keys)

    sigma = [0] * (2 * len(edge_keys))
    for ds in filter(None, darts_of.values()):   # empty rotations: no darts
        prev = ds[-1]
        for d in ds:
            sigma[prev] = d
            prev = d

    ov, oe = outer
    outer_dart = next((d for d, ek in zip(darts_of[ov], rotations[ov])
                       if ek == oe), None)
    if outer_dart is None:
        raise MapError("outer dart (%r, %r) not found" % (ov, oe))

    # vertex ids follow sigma-orbit numbering (by minimal dart), which need
    # not match rotations order; each non-empty rotation is one orbit, so
    # order the keys by their minimal dart.
    ordered_keys = [v for _, v in sorted(
        (min(ds), v) for v, ds in darts_of.items() if ds)]

    coord_list = None
    if coords is not None:
        coord_list = [complex(coords[k]) for k in ordered_keys]
    tag_list = None
    if tags is not None:
        tag_list = [tags[k] for k in ordered_keys]

    return PlanarMap(sigma, outer_dart, coords=coord_list, tags=tag_list,
                     vertex_keys=ordered_keys, edge_keys=edge_keys)


def _raise_bad_edge_count(rotations, vertex_keys) -> None:
    """Name the first edge key, in order of first appearance, that does
    not occur exactly twice."""
    counts: dict[Hashable, int] = {}
    for v in vertex_keys:
        for ek in rotations[v]:
            counts[ek] = counts.get(ek, 0) + 1
    for ek, c in counts.items():
        if c != 2:
            raise MapError("edge key %r occurs %d times (want 2)" % (ek, c))


def build_map(rotations: Mapping[Hashable, Sequence[Hashable]],
              outer: tuple[Hashable, Hashable],
              coords: Mapping[Hashable, complex] | None = None) -> PlanarMap:
    """Validated map construction for input graphs: :func:`map_from_rotations`
    followed by :func:`validate_simple_input`.

    Args:
      rotations: vertex key -> ccw cyclic order of incident edge keys; each
        edge key occurs at both of its ends.
      outer: (vertex key, edge key) naming the dart whose left face is
        outer, as in :func:`map_from_rotations`.
      coords: optional embedding.

    Raises:
      NotSimpleError: loop or parallel edge.
      DegreeTooLowError: vertex of degree < 2 (or unlisted/isolated vertex).
      DisconnectedError: more than one component.
      NonPlanarError: Euler's formula fails for the designated rotation.
    """
    m = map_from_rotations(rotations, outer, coords=coords)
    if len(rotations) != len(m.vertices):
        raise DegreeTooLowError("isolated vertex in rotation data")
    return validate_simple_input(m)


def validate_simple_input(m: PlanarMap) -> PlanarMap:
    """The build_map invariants, checked on an already-built map.

    Used for graphs loaded from files, which bypass build_map.  Raises the
    same errors: NotSimpleError on loops/parallel edges, DegreeTooLowError
    below degree 2, DisconnectedError, NonPlanarError when Euler's formula
    fails.  A map has no isolated vertex (see :class:`PlanarMap`).
    """
    n = m.n_vertices
    seen_pairs = set()   # min * n + max of the ends of each edge so far
    ends = m._vertex_of
    for u, v in zip(ends[0::2], ends[1::2]):
        if u == v:
            raise NotSimpleError("loop at vertex %d" % u)
        pair = u * n + v if u < v else v * n + u
        if pair in seen_pairs:
            raise NotSimpleError("parallel edge between %d and %d" % (u, v))
        seen_pairs.add(pair)
    for v, rot in enumerate(m.vertices):
        if len(rot) < 2:
            raise DegreeTooLowError("vertex %d has degree %d" % (v, len(rot)))
    if not m.is_connected():
        raise DisconnectedError("graph is not connected")
    if m.euler_characteristic() != 2:
        raise NonPlanarError("V - E + F = %d != 2 (rotation system is not "
                             "planar for this outer face)"
                             % m.euler_characteristic())
    return m


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def dual_map(m: PlanarMap) -> PlanarMap:
    """Planar dual on the same dart set: sigma* = phi, alpha* = alpha.

    Dual dart d originates at the dual vertex f_left(d) and its twin at
    f_right(d), so each dual edge crosses its primal edge; edge indices are
    shared with the primal map.  The dual's outer face is designated by the
    dart alpha(sigma(d0)) for d0 the stored outer dart of m; that face
    corresponds to the primal vertex v(d0), and this particular choice
    makes dualizing twice reproduce m exactly -- dual(dual(m)) has
    sigma'' = alpha o sigma o alpha and outer dart alpha(d0), i.e. the
    alpha-relabeling of m with the *same* outer face.
    """
    # dual vertices are phi-orbits numbered by min dart: m's face numbering
    coords = face_points(m) if m.coords is not None else None
    return PlanarMap(m._phi, m.sigma[m.outer_dart] ^ 1, coords=coords,
                     edge_keys=m.edge_keys)


def far_point(coords: Sequence[complex]) -> complex:
    """2.5 radii (one unit if all coincide) right of the centroid of
    `coords`: where the outer face's vertex and the root are drawn."""
    center = sum(coords) / len(coords)
    radius = max(abs(z - center) for z in coords)
    return center + 2.5 * (radius if radius else 1.0)


def face_points(m: PlanarMap) -> list[complex]:
    """A point per face of an embedded map: the centroid of an inner
    face's corners, `far_point` of the vertices for the outer face."""
    pts = [sum(m.coords[m.vertex_of(d)] for d in rot) / len(rot)
           for rot in m.faces]
    pts[m.outer_face] = far_point(m.coords)
    return pts


# ---------------------------------------------------------------------------
# canonical form / isomorphism (test helper)
# ---------------------------------------------------------------------------

def canonical_key(m: PlanarMap) -> tuple:
    """Canonical invariant of a connected map under dart relabeling.

    Breadth-first relabeling from every possible anchor dart; the minimal
    encoding wins.  Encodes sigma and alpha in the new labels plus which
    face is outer.  Quadratic in the dart count -- test-sized inputs only.
    """
    n = len(m.sigma)
    best = None
    for anchor in range(n):
        labels = {anchor: 0}
        order = [anchor]
        head = 0
        while head < len(order):
            d = order[head]
            head += 1
            for nxt in (m.sigma[d], d ^ 1):
                if nxt not in labels:
                    labels[nxt] = len(order)
                    order.append(nxt)
        enc = []
        for d in order:
            enc.append(labels[m.sigma[d]])
            enc.append(labels[d ^ 1])
        enc.append(min(labels[d] for d in m.outer_orbit))
        key = tuple(enc)
        if best is None or key < best:
            best = key
    return best


def is_isomorphic(a: PlanarMap, b: PlanarMap) -> bool:
    """Same map, outer face included, up to dart relabeling."""
    return canonical_key(a) == canonical_key(b)
