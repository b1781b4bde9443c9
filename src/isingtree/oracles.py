"""Exact brute-force oracles: spin sums, dimer sums, tree sums, determinants.

Everything here is deliberately elementary -- straight enumerations, one
dynamic program over matched-vertex sets (:func:`dimer_Z`) and one sparse
LU kernel (:func:`complex_det`, Markowitz order with threshold pivoting)
for det K and the matrix-tree minors -- so results can serve as ground
truth for the structured constructions.  Beside the spin and dimer sums sit
their polynomial routes, which use none of the chain's constructions: the
Kac-Ward determinant (:func:`kac_ward_Z2`) and the determinant with +-1
Kasteleyn signs (:func:`signed_dimer_Z`).  There is one search for
oriented spanning trees (``correspondence.tree_pair_sum`` also runs it, on
the extended primal); it backtracks on an explicit stack over integer
adjacency lists and carries the weight products on its stack: a frame
multiplies its arc's weight into the product of the frames below it, so a
sum adds each configuration for one multiplication.  The last node is
searched in place, each of its arcs that closes no cycle completing one
tree, and the search yields only each tree's product, leaving its arcs in
a list the caller passes in.  Both tree sums, `ost_Z` and
``correspondence.tree_pair_sum``, add their terms by one rule,
:func:`_rounded_sum`: the sum is rounded once, so it does not depend on the
order in which the search finds the trees.  `dimer_Z` makes a matching
search's choices (the first unmatched vertex, along each free edge in edge
order) but merges the partial matchings that cover the same vertices, so
it visits each matched set once, whatever number of matchings pass through
it; it uses no sign and no determinant.  One cap, :data:`STATE_CAP`
(10^7), guards against runaway inputs: it bounds the states an enumeration
explores -- one per spin configuration for :func:`ising_Z`, one per node
of the search tree for the tree search, one per distinct set of matched
vertices for `dimer_Z`.  Exceeding it raises :class:`TooLargeError`
rather than silently grinding.  The reference enumerations of the test
suite (``tests/reference.py``) read the same cap.
"""

from __future__ import annotations

import cmath
import heapq
import math
from functools import reduce
from itertools import islice
from operator import add
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .maps import PlanarMap
from .report import magnitude


class TooLargeError(Exception):
    """Brute-force enumeration would exceed its configured cap."""


# looked up at each call, so one patch governs every search and gate
STATE_CAP = 10 ** 7


# ---------------------------------------------------------------------------
# Ising partition functions
# ---------------------------------------------------------------------------

def ising_Z(m: PlanarMap, J: Sequence[float]) -> float:
    """Free-boundary Ising partition function by full spin enumeration:
    bit v of the configuration number set means spin -1 at vertex v."""
    n = m.n_vertices
    if 2 ** n > STATE_CAP:
        raise TooLargeError("2^%d spin configurations exceed the cap" % n)
    # per edge its ends and the values of J_e s_u s_v, spins equal and
    # spins opposite: the same floats as the products, added in edge order
    edges = [(*m.endpoints(e), (J[e], -J[e])) for e in range(m.n_edges)]
    total = 0.0
    for bits in range(2 ** n):
        energy = 0.0
        for u, v, js in edges:
            energy += js[(bits >> u ^ bits >> v) & 1]
        total += math.exp(energy)
    return total


def kac_ward_Z2(m: PlanarMap, J: Sequence[float]) -> complex:
    """Squared free-boundary Ising partition function by the Kac-Ward
    formula on the straight-line embedding ``m.coords``:
    Z^2 = 4^V prod_e cosh^2 J_e det(I - Lambda), where Lambda[d, f] =
    tanh J_f e^{i alpha/2} for each dart f leaving the head of dart d other
    than d's reverse, alpha in (-pi, pi) being the turn from d to f."""
    if m.coords is None:
        raise ValueError("the Kac-Ward route needs vertex coordinates")
    xy, vertex_of = m.coords, m.vertex_of
    step = [xy[vertex_of[d ^ 1]] - xy[vertex_of[d]]
            for d in range(len(m.sigma))]
    t = [math.tanh(j) for j in J]
    rows = []
    for d, sd in enumerate(step):
        row = {d: 1.0 + 0j}
        for f in m.vertices[vertex_of[d ^ 1]]:
            if f != d ^ 1:
                turn = step[f] / sd
                # the principal root of the unit turn is e^{i alpha/2}
                row[f] = -t[f >> 1] * cmath.sqrt(turn / abs(turn))
        rows.append(row)
    # float products overflow to inf instead of raising
    scale = math.prod([4.0] * m.n_vertices + [math.cosh(j) ** 2 for j in J])
    return scale * complex_det(rows)


# ---------------------------------------------------------------------------
# dimer partition functions
# ---------------------------------------------------------------------------

def _lower_incidences(m: PlanarMap,
                      skip_vertex: int | None) -> list[list[tuple[int, int]]]:
    """The vertices of m other than `skip_vertex`, renumbered 0..n-1 in
    vertex order, each with its (edge, other end) pairs in edge order.
    `dimer_Z` matches the first unmatched vertex, so the vertices before it
    are all matched already and an edge is listed at its lower end only."""
    pos = {v: i for i, v in enumerate(
        v for v in range(m.n_vertices) if v != skip_vertex)}
    incid: list[list[tuple[int, int]]] = [[] for _ in pos]
    for e in range(m.n_edges):
        u, v = m.endpoints(e)
        if u in pos and v in pos and u != v:
            lo, hi = sorted((pos[u], pos[v]))
            incid[lo].append((e, hi))
    return incid


def dimer_Z(m: PlanarMap, weights: Mapping, skip_vertex: int | None = None) -> complex:
    """Weighted dimer partition function: sum over perfect matchings of the
    product of edge weights (of m minus `skip_vertex`, when given).
    `weights` holds every edge's weight, keyed by edge key when the map
    carries edge keys, else by edge id.

    A forward dynamic program over a backtracking matching search that
    matches the first unmatched vertex along each free edge, in edge order:
    what that search still has to do depends only on the set of vertices
    matched so far, so it keeps, per first unmatched vertex, a dict from
    the bitmask of matched vertices to the sum of the weight products of
    the partial matchings that reach it, and extends each set along the
    first unmatched vertex's free edges, in edge order.  The sum kept for
    the set of all vertices is Z.  Each distinct matched set, the empty
    start included, costs one unit of the state cap."""
    incid = _lower_incidences(m, skip_vertex)
    n = len(incid)
    if n % 2:
        return 0j
    budget = STATE_CAP - 1
    if budget < 0:
        raise TooLargeError("matching enumeration exceeded the state cap")
    w = [weights[key] for key in m.edge_keys]
    # sums[v]: matched set (bits below v all set, v clear) -> summed products
    sums: list[dict[int, complex]] = [{} for _ in range(n + 1)]
    sums[0][0] = 1.0 + 0j
    for v in range(n):
        # per edge from v to a later vertex: the bits its pair sets, its weight
        pairs = [(1 << v | 1 << o, w[e]) for e, o in incid[v]]
        for done, p in sums[v].items():
            for bits, x in pairs:
                if not done & bits:
                    k = done | bits
                    # the lowest clear bit of k: its first unmatched vertex
                    to = sums[(~k & (k + 1)).bit_length() - 1]
                    if k in to:
                        to[k] += p * x
                    else:
                        budget -= 1
                        if budget < 0:
                            raise TooLargeError(
                                "matching enumeration exceeded the state cap")
                        to[k] = p * x
        sums[v] = {}   # release the finished layer
    return sums[n].get((1 << n) - 1, 0j)


def kasteleyn_signs(m: PlanarMap) -> list[int]:
    """A +-1 sign per edge of a connected plane map such that every inner
    face of length l has sign product (-1)^(l/2 + 1) (Kasteleyn 1967).

    +1 on a breadth-first spanning tree from vertex 0; the other edges are
    the dual tree, walked breadth first from the outer face, and each inner
    face, leaves first, sets the edge to its parent face."""
    vertex_of, face_of = m.vertex_of, m.face_of
    sign = [1] * m.n_edges
    in_tree = [False] * m.n_edges
    seen = [False] * m.n_vertices
    seen[0] = True
    order = [0]
    for v in order:
        for d in m.vertices[v]:
            u = vertex_of[d ^ 1]
            if not seen[u]:
                seen[u] = in_tree[d >> 1] = True
                order.append(u)
    parent = [-1] * m.n_faces   # the dual-tree edge to a face's parent
    parent[m.outer_face] = m.n_edges
    faces = [m.outer_face]
    for f in faces:
        for d in m.faces[f]:
            g = face_of[d ^ 1]
            if not in_tree[d >> 1] and parent[g] < 0:
                parent[g] = d >> 1
                faces.append(g)
    for f in reversed(faces[1:]):
        orb, pe = m.faces[f], parent[f]
        p = 1 if len(orb) % 4 else -1
        for d in orb:
            if d >> 1 != pe:
                p *= sign[d >> 1]
        sign[pe] = p
    return sign


def signed_dimer_Z(m: PlanarMap, weights: Mapping,
                   skip_vertex: int | None = None) -> tuple[complex, int]:
    """`dimer_Z` by Kasteleyn's determinant, with the number of perfect
    matchings: (sum, count).  ``m`` is a connected plane bipartite map whose
    edge e runs from its black at dart 2e to its white at dart 2e+1, and
    `skip_vertex`, when given, lies on the outer face.

    With `kasteleyn_signs`, every perfect matching enters det of the signed
    white-by-black matrix with one common sign eps, so the det of the signed
    unit matrix is eps times the count, and the signed weight matrix gives
    eps times the sum, phase included for complex weights."""
    sign = kasteleyn_signs(m)
    cols, rows = index = ({}, {})   # black -> column, white -> row
    for d in range(len(m.sigma)):
        v = m.vertex_of[d]
        if v != skip_vertex:
            index[d & 1].setdefault(v, len(index[d & 1]))
    if len(rows) != len(cols):
        return 0j, 0
    unit, weighted = [{} for _ in rows], [{} for _ in rows]
    for e in range(m.n_edges):
        b, w = m.endpoints(e)
        if skip_vertex not in (b, w):
            i, j, s = rows[w], cols[b], sign[e]
            unit[i][j] = unit[i].get(j, 0j) + s
            weighted[i][j] = (weighted[i].get(j, 0j)
                              + s * weights[m.edge_keys[e]])
    det1 = complex_det(unit).real
    if abs(det1) < 0.5:
        return 0j, 0
    # a NaN unit determinant (past float range) gives no sign: NaN, not -1
    eps = 1 if det1 > 0 else -1 if det1 < 0 else math.nan
    return complex_det(weighted) * eps, _as_count(abs(det1))


def _as_count(x: float) -> int | float:
    """A float that counts configurations, as an int; inf or nan (from a
    determinant that overflowed) as it is."""
    return round(x) if math.isfinite(x) else x


# ---------------------------------------------------------------------------
# weighted digraphs and oriented spanning trees
# ---------------------------------------------------------------------------

class Arc(NamedTuple):
    """Weighted arc tail -> head; `kind` is its corner-graph role ("cos",
    "sin", "root", "b3w", "b3r") or "".  Like every record of the package
    it is a named tuple: immutable, equal and hashed by its fields."""
    tail: Hashable
    head: Hashable
    weight: complex
    kind: str = ""


class WeightedDigraph(NamedTuple):
    nodes: tuple[Hashable, ...]
    arcs: tuple[Arc, ...]


def _osts(out: Sequence[Sequence[tuple]], order: Sequence[int],
          chosen: list[int]) -> Iterator[complex]:
    """Backtracking over the spanning trees oriented towards the nodes of
    ``range(len(out))`` that `order` leaves out (one root, or several that
    stand for one): each node of `order`, in turn, keeps one out-arc (arc
    id, head, weight) of ``out[node]`` that closes no cycle.  Yields each
    tree's product of weights, multiplied in depth order, and leaves the
    tree's arc ids, one per depth, in `chosen` (a list of ``len(order)``
    items the caller passes in and reads at each yield).  The last node of
    `order` is searched in place: once every other node has its arc, each
    of its out-arcs that closes no cycle completes one tree.  Each partial
    state, the empty start included, costs one unit of the state cap."""
    budget = STATE_CAP - 1
    if budget < 0:
        raise TooLargeError("tree enumeration exceeded the state cap")
    depth = len(order)
    if depth == 0:
        yield 1.0 + 0j
        return
    stop = depth - 1
    last, tail = order[stop], out[order[stop]]
    head = [-1] * len(out)       # head of a node's chosen arc, -1 if none
    prods = [1.0 + 0j] * stop    # prods[i]: product of chosen[:i]
    # per depth but the last, an iterator over the out-arcs still to try
    todo = [iter(out[order[0]])] + [None] * (stop - 1)
    i = 0
    p = 1.0 + 0j   # the product of the arcs chosen before the last node's
    while i >= 0:
        if i < stop:
            u = order[i]
            head[u] = -1
            for ai, h0, x in todo[i]:
                # the arcs chosen before u's form no cycle and u has no head
                # yet, so the walk from the arc's head ends at u only if the
                # arc closes a cycle
                h = h0
                while head[h] >= 0:
                    h = head[h]
                if h != u:
                    break
            else:
                i -= 1
                continue
            head[u] = h0
            chosen[i] = ai
            budget -= 1
            if budget < 0:
                raise TooLargeError("tree enumeration exceeded the state cap")
            if i + 1 < stop:
                i += 1
                prods[i] = prods[i - 1] * x
                todo[i] = iter(out[order[i]])
                continue
            p = prods[i] * x
        else:
            i = -1   # the last node is the only one: one pass, then done
        # every other node has its arc: the last node is searched in place
        for ai, h0, x in tail:
            h = h0
            while head[h] >= 0:
                h = head[h]
            if h != last:
                budget -= 1
                if budget < 0:
                    raise TooLargeError(
                        "tree enumeration exceeded the state cap")
                chosen[stop] = ai
                yield p * x


# _rounded_sum adds its terms in blocks of this many
_BLOCK = 4096


def _fsum(xs: list[float]) -> float:
    """`math.fsum(xs)`, or the running sum where fsum's partials overflow."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return reduce(add, xs, 0.0)


def _carry(xs: list[float]) -> list[float]:
    """The floats `xs` (extended in place) as a few floats with the same
    exact sum: their exactly rounded sum, then the exactly rounded sum of
    what that leaves, and so on until what is left is 0 (or the sum is not
    finite); each round leaves at most half a unit in the last place of the
    part before, a multiple of 2^-1074, so there are at most about 40.
    Carried into the next block, they lose nothing, so the last block's
    `_fsum` rounds the sum of all the terms once, wherever the blocks end,
    in memory that does not grow with their number."""
    parts = [_fsum(xs)]
    while parts[-1] and math.isfinite(parts[-1]):
        xs.append(-parts[-1])
        parts.append(_fsum(xs))
    return parts


def _rounded_sum(terms: Iterable[complex]) -> tuple[complex, int]:
    """The sum of `terms` and their number: (sum, count).  The sum is
    rounded once, not term by term: `math.fsum` adds the real and imaginary
    parts apart, and before each block of `_BLOCK` terms joins them, the
    parts so far are cut down by `_carry` to a few floats with the same
    exact sum; past float range a part reads as a running total (`_fsum`)."""
    terms = iter(terms)
    re: list[float] = []
    im: list[float] = []
    count = 0
    while block := list(islice(terms, _BLOCK)):
        count += len(block)
        re = _carry(re) + [w.real for w in block]
        im = _carry(im) + [w.imag for w in block]
    return complex(_fsum(re), _fsum(im)), count


def _ost_args(g: WeightedDigraph, root: Hashable) -> tuple[list, list]:
    """The graph arguments of `_osts` for `g`: out-arcs by node index, and
    the non-root node indices fewest out-arcs first, ties in node order (a
    stable sort).  Nodes with few choices taken first keep the upper levels
    of the search narrow: on the corner graphs of C3-C6 and grid 2x3 the
    search visits 9-23 % fewer partial states than in node order, and finds
    the same trees."""
    idx = {v: i for i, v in enumerate(g.nodes)}
    out: list[list[tuple]] = [[] for _ in g.nodes]
    for ai, a in enumerate(g.arcs):
        out[idx[a.tail]].append((ai, idx[a.head], a.weight))
    order = [i for i, v in enumerate(g.nodes) if v != root]
    return out, sorted(order, key=lambda i: len(out[i]))


def ost_Z(g: WeightedDigraph, root: Hashable) -> complex:
    """Partition function of oriented spanning trees rooted at `root`,
    by exhaustive enumeration: the tree products `_osts` yields in the
    order of `_ost_args`, each multiplied in that order, go straight to
    `_rounded_sum`, so the sum does not depend on the order in which the
    trees are found."""
    out, order = _ost_args(g, root)
    return _rounded_sum(_osts(out, order, [0] * len(order)))[0]


def count_osts(g: WeightedDigraph, root: Hashable) -> int | float:
    """The number of spanning trees oriented towards `root`, as `ost_Z`
    adds them up: the matrix-tree determinant with every arc weight set to
    1."""
    unit = WeightedDigraph(g.nodes, tuple(a._replace(weight=1.0)
                                          for a in g.arcs))
    return _as_count(magnitude(matrix_tree_Z(unit, root)))


# ---------------------------------------------------------------------------
# Laplacians, determinants, the matrix-tree route
# ---------------------------------------------------------------------------

def laplacian(g: WeightedDigraph, root: Hashable) -> list[dict[int, complex]]:
    """Reduced Laplacian D - A at `root` (its row and column deleted) as
    sparse rows, other nodes in ``g.nodes`` order, built in one pass: an
    arc adds its weight to its tail's diagonal and subtracts it at its
    head's column."""
    k = g.nodes.index(root)
    idx = {v: i - (i > k) for i, v in enumerate(g.nodes)}
    idx[root] = -1
    rows: list[dict[int, complex]] = [{} for _ in range(len(g.nodes) - 1)]
    for tail, head, w, _ in g.arcs:
        i, j = idx[tail], idx[head]
        if i >= 0:
            r = rows[i]
            if j >= 0:
                r[j] = r.get(j, 0j) - w
            r[i] = r.get(i, 0j) + w
    return rows


def matrix_tree_Z(g: WeightedDigraph, root: Hashable) -> complex:
    """Oriented-spanning-tree partition function via the matrix-tree
    determinant: det of the reduced Laplacian at `root`."""
    return complex_det(laplacian(g, root))


def complex_det(rows: Sequence[Mapping[int, complex]]) -> complex:
    """Determinant by sparse LU elimination: the sign of the row -> pivot
    column permutation times the product of the pivots.

    `rows` holds one sparse row per matrix row: a dict column -> entry,
    columns 0..n-1, zero entries allowed; rows are copied, never changed.
    Markowitz order with threshold partial pivoting: the active column with
    the fewest entries, then, of its entries of modulus >= 0.1 * the
    column's largest, the one in the shortest row, chosen in one pass over
    the column in set order.
    On a tie in row length a later entry wins only with over 1.5 times the
    kept one's modulus: near-equal moduli keep set order, which costs less
    fill, and a clearly larger pivot still wins, which keeps growth low.
    The 0x0 determinant is 1; an empty pivot column, or one whose largest
    entry is below 1e-13 in modulus, makes the result 0.
    """
    n = len(rows)
    a = [{j: complex(x) for j, x in r.items() if x != 0} for r in rows]
    if any(not 0 <= j < n for row in a for j in row):
        raise ValueError("determinant of a non-square matrix")
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(a):
        for j in row:
            col_rows[j].add(i)
    # lazy min-heap of entries << shift | column, which pops in the order of
    # the pairs (entries, column); stale items are skipped on pop
    shift = n.bit_length()
    mask = (1 << shift) - 1
    heap = [len(s) << shift | j for j, s in enumerate(col_rows)]
    heapq.heapify(heap)
    done = [False] * n
    col_of_row = [0] * n
    det = 1.0 + 0j
    for _ in range(n):
        while True:
            key = heapq.heappop(heap)
            c = key & mask
            if not done[c] and key >> shift == len(col_rows[c]):
                break
        done[c] = True
        cand = col_rows[c]
        mods = [abs(a[i][c]) for i in cand]
        big = max(mods, default=0.0)
        if big < 1e-13:
            return 0j
        # one pass in set order; a candidate replaces the kept one only if
        # its row is shorter, or as short with over 1.5 times the modulus
        low = 0.1 * big
        p, p_len, p_mod = -1, n + 1, 0.0
        for i, x in zip(cand, mods):
            if x >= low:
                k = len(a[i])
                if k < p_len or (k == p_len and x > 1.5 * p_mod):
                    p, p_len, p_mod = i, k, x
        col_of_row[p] = c
        prow = a[p]
        piv = prow.pop(c)
        det *= piv
        cand.discard(p)
        for j in prow:
            col_rows[j].discard(p)
        pivot_items = list(prow.items())
        for i in cand:
            row = a[i]
            f = row.pop(c) / piv
            for j, x in pivot_items:
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                    col_rows[j].add(i)
                else:
                    row[j] = y - f * x
        for j in prow:
            heapq.heappush(heap, len(col_rows[j]) << shift | j)
    # sign of the permutation row -> pivot column, one transposition at a time
    for i in range(n):
        while col_of_row[i] != i:
            j = col_of_row[i]
            col_of_row[i], col_of_row[j] = col_of_row[j], j
            det = -det
    return det
