"""The chain from the Kasteleyn determinant to spanning trees of the
extended graph, as `verify` checks it: each stage's weighted object, and
the identities between their totals.

Stages, each with its own weighted object and a weight-preserving map to the
next:

1. the *corner graph*: one node per corner of the primal map plus a root;
   the two out-arcs of a corner carry the Kasteleyn entries of its white
   (i cos theta across the primal edge, sin theta across the dual one), and
   boundary corners get a root arc carrying minus the white's row sum.
   Oriented spanning trees of this graph are counted by det of the root
   minor, which equals (-1)^V det K after a row permutation;
2. the *split corner graph*: every boundary corner is split into an in-node
   and an out-node so that all non-root nodes have exactly two out-arcs,
   with the same tree total;
3. the perfect matchings of the *extended double graph* minus one outer
   black s, whose tau2 dimer sum times the unit-modulus `class_prefactor`
   is the split graph's tree total;
4. pairs of oriented spanning trees of the extended primal/dual pair,
   whose tau-weighted sum times `matched_split_constant` is the double's
   dimer sum.

The maps between the stages on the level of configurations -- trees to
split trees, split trees to rule-compliant double trees, their classes to
matchings, matchings to tree pairs -- are in :mod:`isingtree.construction`,
which no command runs.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Hashable, Mapping, NamedTuple

from .derived import (ExtendedPair, extended_double, extended_pair,
                      quad_graph, quadri_tiling)
from .isoradial import (BoundaryAngles, IsoradialData, TauWeights,
                        boundary_angles, critical_couplings, dimer_weights,
                        double_weights, tree_weights_tau, validate_isoradial)
from .kasteleyn import KasteleynMatrix, build_kasteleyn
from . import oracles
from .maps import PlanarMap, dual_map
from .oracles import (Arc, TooLargeError, WeightedDigraph, _osts,
                      _rounded_sum, count_osts, dimer_Z, ising_Z, kac_ward_Z2,
                      matrix_tree_Z, ost_Z, signed_dimer_Z)
from .report import Report, Skip, check, magnitude, tolerance

ROOT = ("r",)
# verify_main_theorem enumerates the corner graph's oriented spanning trees
# only when there are at most this many: C6 (10,439) and grid 2x3 (44,384)
# are enumerated, C7 (50,821) is not
OST_CAP = 50000


class DirectedModel(NamedTuple):
    """A weighted digraph whose oriented spanning trees the chain counts,
    together with the primal map its corners refer to."""
    graph: WeightedDigraph
    map: PlanarMap


def build_G0(gq: PlanarMap, K: KasteleynMatrix, m: PlanarMap) -> DirectedModel:
    """Corner graph: contract the external edges of the quadri-tiling graph.

    Node ('c', d) is the contraction of black ('b', d) with white
    ('w', sigma d); its out-arcs carry that white's Kasteleyn row:

    * to ('c', sigma d)        weight K[w, ('b', sigma d)]        kind "cos"
    * to ('c', alpha sigma d)  weight K[w, ('b', alpha sigma d)]  kind "sin"
    * boundary corners only: to the root, weight -(row sum)       kind "root"

    Interior rows sum to zero, so interior corners get no root arc and the
    root-minor determinant of the corner Laplacian is det K up to the sign
    of the row permutation sigma, which is (-1)^V.
    """
    # gq is not read; the parameter keeps the (gq, K, m) order callers use.
    # Row and column d of K are white ('w', d) and black ('b', d).
    nodes = [("c", d) for d in range(len(m.sigma))] + [ROOT]
    arcs = []
    for d in range(len(m.sigma)):
        sd = m.sigma[d]
        row = K.rows[sd]
        cos = row.get(sd, 0j)
        sin = row.get(sd ^ 1, 0j)
        arcs.append(Arc(("c", d), ("c", sd), cos, "cos"))
        arcs.append(Arc(("c", d), ("c", sd ^ 1), sin, "sin"))
        if m.is_outer_dart(d):
            # a left fold: the same digits under every interpreter
            arcs.append(Arc(("c", d), ROOT, -reduce(add, row.values(), 0j),
                            "root"))
    return DirectedModel(WeightedDigraph(tuple(nodes), tuple(arcs)), m)


def permutation_sign(m: PlanarMap) -> int:
    """Sign of the dart permutation sigma = prod over vertices of a cycle of
    length deg(v): (-1)^(sum (deg - 1)) = (-1)^(2E - V) = (-1)^V."""
    return -1 if m.n_vertices % 2 else 1


def build_G(g0: DirectedModel) -> DirectedModel:
    """Split each boundary corner x into an in-node ('b', d) and an out-node
    ('w', d): the in-node keeps x's incoming arcs and feeds the out-node
    with weight 1 or the root with weight (e^{-i theta_bd} - 1); the
    out-node inherits x's two non-root out-arcs.  Every non-root node then
    has out-degree <= 2 and in particular the tree weights factor through
    rho0 = (e^{-i theta_bd} - 1)(i cos theta + sin theta)."""
    m = g0.map
    w0: dict[tuple, complex] = {}
    for a in g0.graph.arcs:
        w0[(a.tail[1], a.kind)] = a.weight

    def head(c: int):
        return ("b", c) if m.is_outer_dart(c) else ("c", c)

    nodes: list[Hashable] = []
    for d in range(len(m.sigma)):
        if m.is_outer_dart(d):
            nodes += [("b", d), ("w", d)]
        else:
            nodes.append(("c", d))
    nodes.append(ROOT)

    arcs = []
    for d in range(len(m.sigma)):
        tail = ("w", d) if m.is_outer_dart(d) else ("c", d)
        sd = m.sigma[d]
        arcs.append(Arc(tail, head(sd), w0[(d, "cos")], "cos"))
        arcs.append(Arc(tail, head(sd ^ 1), w0[(d, "sin")], "sin"))
        if m.is_outer_dart(d):
            rho0 = w0[(d, "root")]
            split = rho0 / (w0[(d, "cos")] + w0[(d, "sin")])
            arcs.append(Arc(("b", d), ("w", d), 1.0 + 0j, "b3w"))
            arcs.append(Arc(("b", d), ROOT, split, "b3r"))
    return DirectedModel(WeightedDigraph(tuple(nodes), tuple(arcs)), m)


# ---------------------------------------------------------------------------
# the constants between the stages' totals
# ---------------------------------------------------------------------------

def class_prefactor(iso: IsoradialData, bnd: BoundaryAngles) -> complex:
    """Unit-modulus constant relating a class weight to its matching's tau2
    product: prod over edges of i e^{-i theta_e} times prod over boundary
    corners of -i e^{-i theta_bd/2}."""
    p = 1.0 + 0j
    for t in iso.theta:
        p *= 1j * complex(math.cos(t), -math.sin(t))
    for delta in iso.map.outer_orbit:
        half = bnd.theta[delta] / 2.0
        p *= -1j * complex(math.cos(half), -math.sin(half))
    return p


def matched_split_constant(iso: IsoradialData, ext: ExtendedPair) -> complex:
    """Constant relating the tau2 dimer sum on the double minus s to the
    tau-weighted tree-pair sum: prod over edges of cos theta_e times
    i^(number of extended-dual vertices minus one)."""
    c = 1.0 + 0j
    for t in iso.theta:
        c *= math.cos(t)
    return c * 1j ** ((ext.dual.n_vertices - 1) % 4)


# ---------------------------------------------------------------------------
# stage 4: the tree-pair sum, by enumeration and by determinant
# ---------------------------------------------------------------------------

def _outer_spokes(ext: ExtendedPair, s_key: tuple) -> tuple[list, int]:
    """The root's darts, one per spoke ('bd', b_i), in its ccw rotation,
    and the index j of s = ('u', b_j); ValueError when s is not an
    outer ('u', delta)."""
    P = ext.primal
    darts = P.vertices[P.vertex_id(ROOT)]
    try:
        return darts, [("u", P.edge_keys[d >> 1][1])
                       for d in darts].index(s_key)
    except ValueError:
        raise ValueError("s must be an outer-orbit dart") from None


def tree_pair_sum(ext: ExtendedPair, tw: TauWeights,
                  s_key: tuple) -> tuple[complex, int]:
    """Sum over spanning trees T of the extended primal graph of
    tau(T oriented to the root) * tau(dual complement oriented to s).
    Returns (sum, number of trees).

    The trees are searched as trees oriented to the root, once each: every
    vertex, in breadth-first order from the root, keeps one out-arc, tried
    in primal edge order, and the product of the primal arc weights rides
    on the search stack.  The search gives each spoke its own sink, so a
    vertex's chosen arc is named by its head, and the list of arc ids the
    search fills in is the tree's head array.

    The dual complement T* is not walked.  Its ('dual', e) arcs weigh 1,
    and its rim arcs follow from T by planar duality (the fundamental cycle
    of a spoke is the dual of the fundamental cut of its rim edge).  Let
    b_0 .. b_{k-1} be the spokes in the root's rotation and s = ('u', b_j).
    The rim edge ('rim', b_i) lies in T* exactly when spoke i does not lie
    in T; then, if the tree path from v(b_i) enters the root by spoke g,
    the rim arc runs u_{b_{i-1}} -> u_{b_i} when (j - i) mod k < (g - i)
    mod k, and back otherwise.  So per tree the heads are followed from
    each spoke's vertex to its sink, and the rim factors are multiplied in
    the root's rotation order, from a table of both directions built once.
    The terms are added by `oracles._rounded_sum`, rounded once, like the
    corner trees of `ost_Z`."""
    P = ext.primal
    darts, j = _outer_spokes(ext, s_key)
    k = len(darts)
    root = P.vertex_id(ROOT)
    # per vertex, in primal edge order: (the other end, edge key, weight of
    # the arc away from the vertex)
    inc: list[list[tuple]] = [[] for _ in range(P.n_vertices)]
    for e, key in enumerate(P.edge_keys):
        u, v = P.endpoints(e)
        ku, kv = P.vertex_keys[u], P.vertex_keys[v]
        inc[u].append((v, key, tw.arc(key, ku, kv)))
        inc[v].append((u, key, tw.arc(key, kv, ku)))
    order = [root]
    seen = [False] * P.n_vertices
    seen[root] = True
    for u in order:
        for v, _, _ in inc[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    # vertices by breadth-first position 0 .. n-1, spoke i's sink n + i;
    # each arc's id is its head
    n = len(order) - 1
    node = [0] * P.n_vertices
    for i, v in enumerate(order[1:]):
        node[v] = i
    b = [P.edge_keys[d >> 1][1] for d in darts]
    sink = {("bd", x): n + i for i, x in enumerate(b)}
    out: list[list[tuple]] = [[] for _ in range(n + k)]
    for u in order[1:]:
        for v, key, a in inc[u]:
            h = sink[key] if v == root else node[v]
            out[node[u]].append((h, h, a))
    # per spoke i: its vertex, and by exit spoke g the factor of rim edge
    # i, None where it lies outside T* (g == i)
    rims = []
    for i, d in enumerate(darts):
        key, near, far = ("rim", b[i]), ("u", b[i]), ("u", b[i - 1])
        cw, ccw = tw.arc(key, far, near), tw.arc(key, near, far)
        rims.append((node[P.vertex_of[d ^ 1]],
                     [None if g == i else
                      cw if (j - i) % k < (g - i) % k else ccw
                      for g in range(k)]))

    def terms():
        heads = [0] * n   # each tree's head array, filled in by the search
        for w in _osts(out, range(n), heads):
            for v, factor in rims:
                h = heads[v]
                while h < n:
                    h = heads[h]
                a = factor[h - n]
                if a is not None:
                    w *= a
            yield w

    return _rounded_sum(terms())


def tree_pair_det(ext: ExtendedPair, tw: TauWeights, s_key: tuple) -> complex:
    """`tree_pair_sum` by one matrix-tree determinant.

    Let w be tan theta on ('e', e) and 2 sin(theta_bd/2) on the spoke
    ('bd', delta).  A primal tree oriented to the root weighs the product
    of w over its edges (it uses every spoke towards the root), and its dual
    complement crosses exactly the primal edges it leaves out.  So the sum
    is prod w times the oriented-tree sum of the extended dual rooted at s
    in which each arc weighs `tw.arc` divided by w of the primal edge it
    crosses: ('dual', e) crosses ('e', e) and ('rim', delta) crosses
    ('bd', delta).  ValueError when s is not an outer ('u', delta)."""
    _outer_spokes(ext, s_key)
    S = ext.dual
    w = {**tw.primal, **tw.spoke}
    arcs = []
    for e, key in enumerate(S.edge_keys):
        cross = w[("e" if key[0] == "dual" else "bd", key[1])]
        a, b = (S.vertex_keys[v] for v in S.endpoints(e))
        arcs.append(Arc(a, b, tw.arc(key, a, b) / cross))
        arcs.append(Arc(b, a, tw.arc(key, b, a) / cross))
    return math.prod(w.values()) * matrix_tree_Z(
        WeightedDigraph(S.vertex_keys, tuple(arcs)), s_key)


# ---------------------------------------------------------------------------
# the full verification pipeline
# ---------------------------------------------------------------------------

class Chain:
    """The chain's stages on one map, each built the first time it is read
    and then kept, so a caller builds only the stages it reads, in the order
    it reads them.  ``s_key`` is the outer black s = ('u', s_dart) removed
    from the double; s_dart defaults to the minimal outer-orbit dart."""

    # stage -> its builder, which reads the stages it needs off the chain
    _BUILD = {
        "iso": lambda c: validate_isoradial(c.m, c.theta_exact),
        "bnd": lambda c: boundary_angles(c.iso),
        "gq": lambda c: quadri_tiling(c.m),
        "K": lambda c: build_kasteleyn(c.gq, c.iso, c.bnd),
        "g0": lambda c: build_G0(c.gq, c.K, c.m),
        "g": lambda c: build_G(c.g0),
        "dd": lambda c: extended_double(c.m),
        "double_weights": lambda c: double_weights(c.iso, c.bnd, c.dd),
        "ext": lambda c: extended_pair(c.m),
        "tw": lambda c: tree_weights_tau(c.iso, c.bnd),
        "dual": lambda c: dual_map(c.m),
        "quad": lambda c: quad_graph(c.m),
    }

    def __init__(self, m: PlanarMap, theta_exact: Mapping | None = None,
                 s_dart: int | None = None):
        s_dart = min(m.outer_orbit) if s_dart is None else s_dart
        if s_dart not in m.outer_orbit:
            raise ValueError("s must be an outer-orbit dart")
        self.m, self.theta_exact, self.s_key = m, theta_exact, ("u", s_dart)

    def __getattr__(self, name: str):
        # reached only for a stage not built yet: build it and keep it
        if name not in Chain._BUILD:
            raise AttributeError(name)
        value = self.__dict__[name] = Chain._BUILD[name](self)
        return value


def verify_main_theorem(m: PlanarMap,
                        theta_exact: Mapping | None = None, *,
                        tol: float = 1e-9,
                        s_dart: int | None = None) -> Report:
    """Run the whole chain on one isoradial map and check every identity.

    The stages are read off one `Chain`, which checks s first.  Every
    exponential quantity has a polynomial route, which always runs: the
    spin sum by Kac-Ward, both dimer sums by Kasteleyn signs, the tree-pair
    sum and the corner trees by matrix-tree determinants.  Its brute-force
    route runs only when the number of configurations it visits, predicted
    exactly before it starts (2^V spins, a signed unit determinant for the
    matchings and for the tree pairs, a unit matrix-tree determinant for
    the corner trees), fits the route's cap: `OST_CAP` for the corner
    trees, the state cap (`oracles.STATE_CAP`) for the others.  A check
    reads the brute-force value when that route ran, else the polynomial
    one; when both ran, an agreement check compares them.  A declined
    route, or one whose enumeration hits the state cap on the way, goes to
    `Report.skipped` and the checks go on.  A NaN, infinite or negative
    `tol` raises ValueError.
    """
    tol = tolerance(tol)
    c = Chain(m, theta_exact, s_dart)
    rep = Report()

    def route(name, count, cap, brute):
        """brute() if `count` fits `cap` and no cap stops it, else None."""
        if not count <= cap:
            rep.skipped.append(Skip(name, count, cap,
                                    "predicted count exceeds the cap"))
            return None
        try:
            return brute()
        except TooLargeError as exc:
            rep.skipped.append(Skip(name, count, cap, str(exc)))
            return None

    def agree(name, poly, brute):
        """`brute`, checked against `poly`, if its route ran, else `poly`."""
        if brute is None:
            return poly
        rep.add(check(name, poly, brute, tol))
        return brute

    iso = c.iso
    J = critical_couplings(iso)
    zi = route("spins", 2 ** m.n_vertices, oracles.STATE_CAP, lambda: ising_Z(m, J))
    zi2 = agree("ising-Z2[kac-ward-vs-spins]", kac_ward_Z2(m, J),
                None if zi is None else zi * zi)
    bnd, gq, K = c.bnd, c.gq, c.K
    rep.add(check("flat-phasing[max curvature deviation]",
                  K.flatness.max_deviation, 0.0, tol, absolute=True))
    detK = K.det()

    nu = dimer_weights(J, gq)
    zq, n_quadri = signed_dimer_Z(gq, nu)
    zq = agree("dimer-sum[signed-det-vs-enumeration, quadri-tiling]", zq,
               route("matchings[quadri-tiling]", n_quadri, oracles.STATE_CAP,
                     lambda: dimer_Z(gq, nu)))
    rep.add(check("dimer-sum-vs-det[quadri-tiling]", zq, magnitude(detK), tol))

    # 2^V as V exact doublings, which overflow to inf instead of raising
    # as float(2 ** V) does from V = 1024 on
    doubled = [2.0] * m.n_vertices
    rhs = math.prod(doubled,
                    start=math.prod(math.cosh(2 * j) for j in J)) * zq
    rep.add(check("squared-ising[critical]", zi2, rhs, tol))

    # white row sums: zero inside, i e^{-i theta}(1 - e^{-i theta_bd}) on the
    # boundary (absolute deviation aggregated over rows)
    dev = 0.0
    for w, row in enumerate(K.rows):   # row w is the white ('w', w)
        srow = reduce(add, row.values(), 0j)
        delta = m.sigma_inv[w]
        if m.is_outer_dart(delta):
            th = iso.theta[w >> 1]
            tb = bnd.theta[delta]
            want = (1j * complex(math.cos(th), -math.sin(th))
                    * (1 - complex(math.cos(tb), -math.sin(tb))))
            dev = max(dev, abs(srow - want))
        else:
            dev = max(dev, abs(srow))
    rep.add(check("white-row-sums[max deviation]", dev, 0.0, tol,
                  absolute=True))

    g0 = c.g0.graph
    z0_det = matrix_tree_Z(g0, ROOT)
    sign = permutation_sign(m)
    rep.add(check("corner-tree-det-vs-det-K", z0_det, sign * detK, tol))

    z0_enum = route("corner-trees", count_osts(g0, ROOT), OST_CAP,
                    lambda: ost_Z(g0, ROOT))
    if z0_enum is not None:
        rep.add(check("corner-tree-enumeration-vs-det", z0_enum, z0_det, tol))

    zg_det = matrix_tree_Z(c.g.graph, ROOT)
    rep.add(check("split-corner-tree-vs-corner-tree", zg_det, z0_det, tol))

    dd, tau2 = c.dd, c.double_weights[1]
    s = dd.vertex_id(c.s_key)
    pref = class_prefactor(iso, bnd)
    zdd, n_double = signed_dimer_Z(dd, tau2, skip_vertex=s)
    zdd = agree("dimer-sum[signed-det-vs-enumeration, double]", zdd,
                route("matchings[double]", n_double, oracles.STATE_CAP,
                      lambda: dimer_Z(dd, tau2, skip_vertex=s)))
    rep.add(check("double-tree-sum-vs-split-tree", pref * zdd, zg_det, tol))

    # Temperley: the tree pairs are as many as the double's matchings
    pairs = route("tree-pairs", n_double, oracles.STATE_CAP,
                  lambda: tree_pair_sum(c.ext, c.tw, c.s_key))
    zrs, n_trees = (None, n_double) if pairs is None else pairs
    zrs = agree("tree-pair-sum[matrix-tree-vs-enumeration]",
                tree_pair_det(c.ext, c.tw, c.s_key), zrs)
    c_split = matched_split_constant(iso, c.ext)
    rep.add(check("matched-split-transfer[double-dimer-vs-tree-pairs]",
                  zdd, c_split * zrs, tol))

    rep.add(check("main-theorem[spin-route]", zi2,
                  math.prod(doubled, start=magnitude(zrs)), tol))
    cosprod = math.prod(math.cos(t) for t in iso.theta)
    rep.add(check("main-theorem[determinant-route]", magnitude(zrs),
                  magnitude(detK) / cosprod, tol))

    rep.constants.update({
        "det_K": detK,
        "row_permutation_sign": sign,
        "class_prefactor": pref,
        "matched_split_constant": c_split,
        "n_tree_pairs": n_trees,
        "regular_embedding": True,  # validation rejects the rest
    })
    return rep
