"""The chain from the Kasteleyn determinant to spanning trees of the
extended graph.

Stages, each with its own weighted object and a weight-preserving map to the
next:

1. the *corner graph*: one node per corner of the primal map plus a root;
   the two out-arcs of a corner carry the Kasteleyn entries of its white
   (i cos theta across the primal edge, sin theta across the dual one), and
   boundary corners get a root arc carrying minus the white's row sum.
   Oriented spanning trees of this graph are counted by det of the root
   minor, which equals (-1)^V det K after a row permutation;
2. the *split corner graph*: every boundary corner is split into an in-node
   and an out-node so that all non-root nodes have exactly two out-arcs;
   each corner-graph tree maps to 2^(number of root arcs) split trees of the
   same total weight;
3. spanning trees of the *extended double graph* in which every white keeps
   exactly two edges subject to local rules; these are grouped into classes
   indexed by the perfect matchings of the double minus one outer black s,
   and each class weight has a closed form: a constant unit-modulus
   prefactor times the matching's tau2 product;
4. pairs of oriented spanning trees of the extended primal/dual pair, via
   splitting each matched edge through its white.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import add
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from .derived import (ExtendedPair, extended_double, extended_pair,
                      quad_graph, quadri_tiling)
from .isoradial import (BoundaryAngles, IsoradialData, TauWeights,
                        boundary_angles, critical_couplings, dimer_weights,
                        double_weights, tree_weights_tau, validate_isoradial)
from .kasteleyn import KasteleynMatrix, build_kasteleyn
from .maps import PlanarMap, dual_map
from .oracles import (Arc, TooLargeError, WeightedDigraph, dimer_Z,
                      enumerate_spanning_trees, ising_Z, is_spanning_tree,
                      matrix_tree_Z, ost_Z, state_cap)
from .report import Report, check

ROOT = ("r",)
# verify_main_theorem enumerates the corner graph's oriented spanning trees
# only when the product of its out-degrees is at most this
OST_ENUM_BUDGET = 200000


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
# stage 1 -> stage 2: tree images under the splitting
# ---------------------------------------------------------------------------

def _arcs_by_tail_kind(g: WeightedDigraph) -> dict[tuple, int]:
    return {(a.tail, a.kind): i for i, a in enumerate(g.arcs)}


def map_ost_A_to_D(g0: DirectedModel, g: DirectedModel,
                   tree: Iterable[int]) -> list[frozenset[int]]:
    """Images of a corner-graph tree in the split graph.

    A corner whose tree arc crosses an edge keeps the same arc at its
    out-node, with the in-node feeding it; a corner whose tree arc goes to
    the root maps to the in-node's root arc combined with *either* out-arc
    of the out-node, so the image is a set of 2^(number of root arcs) split
    trees whose weights sum to the original tree weight."""
    m = g0.map
    by_tk = _arcs_by_tail_kind(g.graph)
    base: list[int] = []
    options: list[tuple[int, ...]] = []
    for ai in tree:
        arc = g0.graph.arcs[ai]
        d = arc.tail[1]
        if not m.is_outer_dart(d):
            base.append(by_tk[(("c", d), arc.kind)])
        elif arc.kind in ("cos", "sin"):
            base.append(by_tk[(("w", d), arc.kind)])
            base.append(by_tk[(("b", d), "b3w")])
        else:  # root arc
            base.append(by_tk[(("b", d), "b3r")])
            options.append((by_tk[(("w", d), "cos")],
                            by_tk[(("w", d), "sin")]))
    out = []
    for combo in itertools.product(*options):
        out.append(frozenset(base) | frozenset(combo))
    return out


def split_tree_preimage(g0: DirectedModel, g: DirectedModel,
                        tree_arcs: frozenset[int]) -> tuple[int, ...]:
    """Inverse of map_ost_A_to_D on a single split tree: collapse each
    boundary pair back to one corner arc (root if the in-node exits to the
    root, else the out-node's arc kind)."""
    m = g0.map
    by_tk = _arcs_by_tail_kind(g0.graph)
    kind_of: dict[tuple, str] = {}
    for ai in tree_arcs:
        a = g.graph.arcs[ai]
        kind_of[a.tail] = a.kind
    chosen = []
    for d in range(len(m.sigma)):
        if m.is_outer_dart(d):
            kind = "root" if kind_of[("b", d)] == "b3r" else kind_of[("w", d)]
        else:
            kind = kind_of[("c", d)]
        chosen.append(by_tk[(("c", d), kind)])
    return tuple(chosen)


# ---------------------------------------------------------------------------
# stage 2 -> stage 3: duality into the extended double graph
# ---------------------------------------------------------------------------

def dual_in_double(g: DirectedModel, tree_arcs: Iterable[int]) -> frozenset:
    """Double-graph spanning tree dual to a split-graph tree.

    Each present arc at a corner contributes the half-edge dual to its
    *absent* sibling (so the half's weight is the present arc's weight):

    * corner d exits "cos" -> keep ('hd', alpha sigma d);
    * corner d exits "sin" -> keep ('hp', sigma d);
    * in-node keeps "b3w"  -> keep ('hr', d, 1);
    * in-node keeps "b3r"  -> keep ('hb', d);

    and every boundary corner contributes its weight-1 split rim half
    ('hr', d, 0) unconditionally.
    """
    m = g.map
    keys: set = set()
    for ai in tree_arcs:
        a = g.graph.arcs[ai]
        d = a.tail[1] if a.tail != ROOT else None
        if a.tail[0] in ("c", "w"):
            sd = m.sigma[d]
            keys.add(("hd", sd ^ 1) if a.kind == "cos" else ("hp", sd))
        elif a.tail[0] == "b":
            keys.add(("hr", d, 1) if a.kind == "b3w" else ("hb", d))
    for delta in m.outer_orbit:
        keys.add(("hr", delta, 0))
    return frozenset(keys)


def check_local_rules(m: PlanarMap, edges: frozenset) -> list[str]:
    """Violations of the double-tree local rules for an edge-key set.

    Interior white of edge e with darts (e1, e2): exactly one of
    {('hp', e1), ('hd', e2)} and exactly one of {('hp', e2), ('hd', e1)}.
    Boundary white at corner delta: the split half ('hr', delta, 0) present,
    plus exactly one of {('hr', delta, 1), ('hb', delta)}.
    """
    bad = []
    for e in range(m.n_edges):
        e1, e2 = 2 * e, 2 * e + 1
        for pair in (((("hp", e1)), (("hd", e2))), ((("hp", e2)), (("hd", e1)))):
            if (pair[0] in edges) + (pair[1] in edges) != 1:
                bad.append("white of edge %d breaks pair %r" % (e, pair))
    for delta in m.outer_orbit:
        if ("hr", delta, 0) not in edges:
            bad.append("boundary white %d misses its split half" % delta)
        if ((("hr", delta, 1) in edges) + (("hb", delta) in edges)) != 1:
            bad.append("boundary white %d breaks its exit pair" % delta)
    return bad


def rule_tree_to_split_tree(g: DirectedModel,
                            edges: frozenset) -> frozenset[int]:
    """Inverse of dual_in_double: read each corner's present arc off the
    rule-compliant double tree and return the split-graph arc set."""
    m = g.map
    by_tk = _arcs_by_tail_kind(g.graph)
    arcs = set()
    for d in range(len(m.sigma)):
        sd = m.sigma[d]
        kind = "cos" if ("hd", sd ^ 1) in edges else "sin"
        tail = ("w", d) if m.is_outer_dart(d) else ("c", d)
        arcs.add(by_tk[(tail, kind)])
        if m.is_outer_dart(d):
            bkind = "b3w" if ("hr", d, 1) in edges else "b3r"
            arcs.add(by_tk[(("b", d), bkind)])
    return frozenset(arcs)


def enumerate_rule_trees(dd: PlanarMap, m: PlanarMap) -> Iterator[frozenset]:
    """All spanning trees of the double satisfying the local rules, by
    direct product over per-white choices filtered for acyclicity.  The
    candidate count is 4^E * 2^boundary; subject to the state cap."""
    choices: list[tuple] = []
    for e in range(m.n_edges):
        e1, e2 = 2 * e, 2 * e + 1
        choices.append(tuple((a, b) for a in (("hp", e1), ("hd", e2))
                       for b in (("hp", e2), ("hd", e1))))
    for delta in m.outer_orbit:
        choices.append(tuple((("hr", delta, 0), x)
                       for x in (("hr", delta, 1), ("hb", delta))))
    total = 1
    for c in choices:
        total *= len(c)
    if total > state_cap():
        raise TooLargeError("%d rule configurations exceed the state cap" % total)
    ends = dd.key_ends
    n = dd.n_vertices
    for combo in itertools.product(*choices):
        keys = [k for pair in combo for k in pair]
        if is_spanning_tree(n, [ends[k] for k in keys]):
            yield frozenset(keys)


# ---------------------------------------------------------------------------
# stage 3: matchings index tree classes
# ---------------------------------------------------------------------------

def tree_to_matching(dd: PlanarMap, s_key: tuple,
                     edges: frozenset) -> frozenset:
    """Orient a double-graph spanning tree towards s and keep the out-edge
    of every black except s: a perfect matching of the double minus s."""
    ends = dd.key_ends
    s = dd.vertex_id(s_key)
    adj: dict[int, list[tuple]] = {}
    for k in edges:
        u, v = ends[k]
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    parent_edge: dict[int, object] = {s: None}
    queue = [s]
    while queue:
        u = queue.pop()
        for v, k in adj.get(u, ()):
            if v not in parent_edge:
                parent_edge[v] = k
                queue.append(v)
    if len(parent_edge) != dd.n_vertices:
        raise ValueError("edge set does not span the double graph")
    out = set()
    for v in range(dd.n_vertices):
        if v != s and dd.tags[v] != "white":
            out.add(parent_edge[v])
    return frozenset(out)


class CompatClass(NamedTuple):
    """Tree class of one matching: all rule-compliant completions of M."""
    matching: frozenset
    trees: tuple[frozenset, ...]
    weight_sum: complex       # sum over trees of prod rho_star
    closed_form: complex      # prefactor * prod tau2(M)
    n_rejected: int           # completions that failed the tree check


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


def matching_to_trees(dd: PlanarMap, m: PlanarMap, matching: frozenset,
                      rho_star: Mapping, tau2: Mapping,
                      prefactor: complex) -> CompatClass:
    """Expand a perfect matching of the double minus s into its tree class.

    Every white's matched edge is kept; the second edge runs over the
    rule-allowed partners (two choices when the matched edge leaves the
    partner pair free, one otherwise).  Every completion should be a
    spanning tree; failures are counted, not silently dropped.
    """
    match_at: dict[tuple, tuple] = {}
    ends = dd.key_ends
    for k in matching:
        u, v = ends[k]
        for vid in (u, v):
            if dd.tags[vid] == "white":
                match_at[dd.vertex_key(vid)] = k

    options: list[tuple] = []
    for e in range(m.n_edges):
        e1, e2 = 2 * e, 2 * e + 1
        pair1 = (("hp", e1), ("hd", e2))
        pair2 = (("hp", e2), ("hd", e1))
        ew = match_at[("we", e)]
        options.append(pair2 if ew in pair1 else pair1)
    for delta in m.outer_orbit:
        ew = match_at[("wb", delta)]
        if ew == ("hr", delta, 0):
            options.append((("hr", delta, 1), ("hb", delta)))
        else:
            options.append((("hr", delta, 0),))

    trees = []
    weight_sum = 0j
    rejected = 0
    base = frozenset(matching)
    for combo in itertools.product(*options):
        edges = base | frozenset(combo)
        if is_spanning_tree(dd.n_vertices, [ends[k] for k in edges]):
            trees.append(edges)
            p = 1.0 + 0j
            for k in edges:
                p *= rho_star[k]
            weight_sum += p
        else:
            rejected += 1
    closed = prefactor
    for k in matching:
        closed *= tau2[k]
    return CompatClass(matching=matching, trees=tuple(trees),
                       weight_sum=weight_sum, closed_form=closed,
                       n_rejected=rejected)


# ---------------------------------------------------------------------------
# superposition parity
# ---------------------------------------------------------------------------

class CycleParity(NamedTuple):
    """Vertex classification of one alternating cycle.

    Whites on the cycle split by the kinds of their two black neighbours
    along it: n1 both of the same kind, n2 dual-black then primal-black, n3
    primal-black then dual-black (in walk order).  n4 and n5 count whites
    and blacks strictly inside.  n2 = n3 holds for every closed walk; a
    cycle living inside a rule-compliant configuration would force
    n5 - n4 = 1 by an Euler count, whereas a genuine superposition cycle
    has its interior perfectly matched by doubled edges, hence an even
    n4 + n5 -- the clash is what rules out cycles in tree completions."""
    length: int
    n1: int
    n2: int
    n3: int
    n4: int
    n5: int
    s_on: bool
    s_inside: bool

    @property
    def interior_vertices(self) -> int:
        return self.n4 + self.n5


class ParityReport(NamedTuple):
    cycles: tuple[CycleParity, ...]


def parity_check(dd: PlanarMap, s_key: tuple, m1: frozenset,
                 m2: frozenset) -> ParityReport:
    """Analyze the superposition of two perfect matchings of the double
    minus s: each connected component of the symmetric difference is an
    alternating cycle; classify its whites and interior vertices as in
    CycleParity and record whether s lies on or inside it."""
    ends = dd.key_ends
    diff = m1 ^ m2
    adj: dict[int, list[tuple]] = {}
    for k in diff:
        u, v = ends[k]
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    s = dd.vertex_id(s_key)

    seen_edges: set = set()
    cycles = []
    for start_key in sorted(diff):
        if start_key in seen_edges:
            continue
        # walk the cycle
        cyc_edges = [start_key]
        seen_edges.add(start_key)
        u0, v0 = ends[start_key]
        path = [u0, v0]
        cur, prev_key = v0, start_key
        while True:
            nxts = [(w, k) for (w, k) in adj[cur] if k != prev_key]
            if len(nxts) != 1:
                raise ValueError("superposition component is not a simple cycle")
            cur, prev_key = nxts[0]
            if prev_key in seen_edges:
                break
            seen_edges.add(prev_key)
            cyc_edges.append(prev_key)
            path.append(cur)
        cycle_vertices = path[:-1] if path[0] == path[-1] else path
        cycles.append((cyc_edges, cycle_vertices))

    reports = []
    for cyc_edges, verts in cycles:
        on = set(verts)
        inside = _strictly_inside(dd, frozenset(cyc_edges))
        n4 = sum(1 for v in inside if dd.tags[v] == "white")
        n5 = len(inside) - n4
        n1 = n2 = n3 = 0
        k = len(verts)
        for i, v in enumerate(verts):
            if dd.tags[v] != "white":
                continue
            prev = dd.tags[verts[(i - 1) % k]]
            nxt = dd.tags[verts[(i + 1) % k]]
            if prev == nxt:
                n1 += 1
            elif prev == "black-dual":
                n2 += 1
            else:
                n3 += 1
        reports.append(CycleParity(
            length=len(cyc_edges), n1=n1, n2=n2, n3=n3, n4=n4, n5=n5,
            s_on=s in on, s_inside=s in inside))
    return ParityReport(cycles=tuple(reports))


def _strictly_inside(dd: PlanarMap, cycle_keys: frozenset) -> set[int]:
    """Vertices strictly inside a simple cycle: flood the faces from the
    outer face without crossing cycle edges; a vertex is inside iff none of
    its incident faces was reached."""
    reached = {dd.outer_face}
    stack = [dd.outer_face]
    while stack:
        f = stack.pop()
        for d in dd.faces[f]:
            if dd.edge_key(dd.edge_of(d)) in cycle_keys:
                continue
            g = dd.face_of(d ^ 1)
            if g not in reached:
                reached.add(g)
                stack.append(g)
    inside = set()
    for v in range(dd.n_vertices):
        if all(dd.face_of(d) not in reached for d in dd.vertices[v]):
            inside.add(v)
    return inside


# ---------------------------------------------------------------------------
# stage 3 -> stage 4: splitting matched edges (the tree/dual-tree pair)
# ---------------------------------------------------------------------------

class TreePair(NamedTuple):
    primal_arcs: tuple[tuple, ...]    # (tail key, head key, edge key)
    dual_arcs: tuple[tuple, ...]


def matching_to_tree_pair(m: PlanarMap, matching: frozenset) -> TreePair:
    """Split every matched edge through its white into an arc of the
    extended primal graph (from the matched black-primal) or of the extended
    dual graph (from the matched black-dual):

    * ('hp', d) matched: primal arc v(d) -> v(alpha d) along edge e(d);
    * ('hb', delta):     primal arc v(delta) -> root along the spoke;
    * ('hd', d) matched: dual arc side(d) -> side(alpha d) along e(d)'s dual;
    * ('hr', delta, 0):  dual rim arc u_{alpha sigma delta} -> u_delta;
    * ('hr', delta, 1):  dual rim arc u_delta -> u_{alpha sigma delta}.
    """
    def side(x: int):
        return ("u", x) if m.is_outer_dart(x) else ("f", m.face_of(x))

    primal, dual = [], []
    for k in sorted(matching):
        kind = k[0]
        if kind == "hp":
            d = k[1]
            primal.append((("p", m.vertex_of(d)), ("p", m.vertex_of(d ^ 1)),
                           ("e", d >> 1)))
        elif kind == "hb":
            delta = k[1]
            primal.append((("p", m.vertex_of(delta)), ROOT, ("bd", delta)))
        elif kind == "hd":
            d = k[1]
            dual.append((side(d), side(d ^ 1), ("dual", d >> 1)))
        elif kind == "hr":
            delta = k[1]
            u_far = ("u", m.sigma[delta] ^ 1)
            u_near = ("u", delta)
            if k[2] == 0:
                dual.append((u_far, u_near, ("rim", delta)))
            else:
                dual.append((u_near, u_far, ("rim", delta)))
        else:
            raise ValueError("unexpected matched edge %r" % (k,))
    return TreePair(primal_arcs=tuple(primal), dual_arcs=tuple(dual))


def arcs_form_ost(arcs: Iterable[tuple], nodes: Iterable, root) -> bool:
    """True when every non-root node has exactly one out-arc and iterating
    out-arcs always reaches the root."""
    nxt = {}
    for tail, head, _key in arcs:
        if tail in nxt:
            return False
        nxt[tail] = head
    nodes = list(nodes)
    if set(nxt) != set(nodes) - {root}:
        return False
    for v in nodes:
        seen = set()
        while v != root:
            if v in seen:
                return False
            seen.add(v)
            v = nxt[v]
    return True


def matched_split_constant(iso: IsoradialData, ext: ExtendedPair) -> complex:
    """Constant relating the tau2 dimer sum on the double minus s to the
    tau-weighted tree-pair sum: prod over edges of cos theta_e times
    i^(number of extended-dual vertices minus one)."""
    c = 1.0 + 0j
    for t in iso.theta:
        c *= math.cos(t)
    return c * 1j ** ((ext.dual.n_vertices - 1) % 4)


def tree_pair_weight(tp: TreePair, tw: TauWeights) -> complex:
    p = 1.0 + 0j
    for tail, head, key in tp.primal_arcs:
        p *= tw.arc(key, tail, head)
    for tail, head, key in tp.dual_arcs:
        p *= tw.arc(key, tail, head)
    return p


def tree_pair_sum(ext: ExtendedPair, tw: TauWeights,
                  s_key: tuple) -> tuple[complex, int]:
    """Sum over spanning trees T of the extended primal graph of
    tau(T oriented to the root) * tau(dual complement oriented to s).
    Returns (sum, number of trees).

    Each tree and its dual complement are oriented by a breadth-first
    search from their roots that takes a vertex's edges in primal edge order
    and multiplies the arc weights in discovery order, so the product order,
    hence the last digits of the sum, depends on no hash order."""
    P, S = ext.primal, ext.dual

    def incidences(g: PlanarMap, edge_of: list[int]) -> list[list[tuple]]:
        # per vertex x of g, in primal edge order: (primal edge, the other
        # end y, weight of the arc y -> x)
        inc: list[list[tuple]] = [[] for _ in range(g.n_vertices)]
        for e, ge in enumerate(edge_of):
            key = g.edge_key(ge)
            u, v = g.endpoints(ge)
            ku, kv = g.vertex_key(u), g.vertex_key(v)
            inc[u].append((e, v, tw.arc(key, kv, ku)))
            inc[v].append((e, u, tw.arc(key, ku, kv)))
        return inc

    p_inc = incidences(P, list(range(P.n_edges)))
    s_inc = incidences(S, [S.edge_id(("dual" if k[0] == "e" else "rim", k[1]))
                           for k in P.edge_keys])
    p_root, s_root = P.vertex_id(ROOT), S.vertex_id(s_key)
    in_tree = [False] * P.n_edges
    total = 0j
    count = 0
    for tree in enumerate_spanning_trees(P):
        for e in tree:
            in_tree[e] = True
        w = 1.0 + 0j
        for inc, root, side in ((p_inc, p_root, True), (s_inc, s_root, False)):
            seen = [False] * len(inc)
            seen[root] = True
            order = [root]
            for u in order:
                for e, v, a in inc[u]:
                    if in_tree[e] == side and not seen[v]:
                        seen[v] = True
                        order.append(v)
                        w *= a
        for e in tree:
            in_tree[e] = False
        total += w
        count += 1
    return total, count


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
                        theta_exact: Mapping | None = None,
                        tol: float = 1e-9,
                        s_dart: int | None = None) -> Report:
    """Run the whole chain on one isoradial map and check every identity.

    The stages are read off one `Chain`, which checks s first; the spins
    are summed right after the embedding is validated, before K is built.
    The corner graph's oriented spanning trees are enumerated only when the
    product of its out-degrees is at most OST_ENUM_BUDGET; the determinant /
    aggregated routes run always, so every reported identity is still
    checked by two independent computations.
    """
    c = Chain(m, theta_exact, s_dart)
    rep = Report()
    iso = c.iso
    J = critical_couplings(iso)
    zi = ising_Z(m, J)   # first: its 2^V cap fails fast on a large graph
    bnd, gq, K = c.bnd, c.gq, c.K
    rep.add(check("flat-phasing[max curvature deviation]",
                  K.flatness.max_deviation, 0.0, tol, absolute=True))
    detK = K.det()

    nu = dimer_weights(J, gq)
    zq = dimer_Z(gq, nu)
    rep.add(check("dimer-sum-vs-det[quadri-tiling]", zq, abs(detK), tol))

    rhs = (2 ** m.n_vertices) * math.prod(math.cosh(2 * j) for j in J) * zq
    rep.add(check("squared-ising[critical]", zi * zi, rhs, tol))

    # white row sums: zero inside, i e^{-i theta}(1 - e^{-i theta_bd}) on the
    # boundary (absolute deviation aggregated over rows)
    dev = 0.0
    for w, row in enumerate(K.rows):   # row w is the white ('w', w)
        srow = reduce(add, row.values(), 0j)
        delta = m.sigma_inv[w]
        if m.is_outer_dart(delta):
            th = iso.theta[m.edge_of(w)]
            tb = bnd.theta[delta]
            want = (1j * complex(math.cos(th), -math.sin(th))
                    * (1 - complex(math.cos(tb), -math.sin(tb))))
            dev = max(dev, abs(srow - want))
        else:
            dev = max(dev, abs(srow))
    rep.add(check("white-row-sums[max deviation]", dev, 0.0, tol,
                  absolute=True))

    z0_det = matrix_tree_Z(c.g0.graph, ROOT)
    sign = permutation_sign(m)
    rep.add(check("corner-tree-det-vs-det-K", z0_det, sign * detK, tol))

    out_prod = 1
    for node, arcs in c.g0.graph.out_map().items():
        if node != ROOT:
            out_prod *= max(len(arcs), 1)
        if out_prod > OST_ENUM_BUDGET:
            break
    if out_prod <= OST_ENUM_BUDGET:
        z0_enum = ost_Z(c.g0.graph, ROOT)
        rep.add(check("corner-tree-enumeration-vs-det", z0_enum, z0_det, tol))

    zg_det = matrix_tree_Z(c.g.graph, ROOT)
    rep.add(check("split-corner-tree-vs-corner-tree", zg_det, z0_det, tol))

    dd = c.dd
    pref = class_prefactor(iso, bnd)
    zdd = dimer_Z(dd, c.double_weights[1], skip_vertex=dd.vertex_id(c.s_key))
    rep.add(check("double-tree-sum-vs-split-tree", pref * zdd, zg_det, tol))

    zrs, n_trees = tree_pair_sum(c.ext, c.tw, c.s_key)
    c_split = matched_split_constant(iso, c.ext)
    rep.add(check("matched-split-transfer[double-dimer-vs-tree-pairs]",
                  zdd, c_split * zrs, tol))

    rep.add(check("main-theorem[spin-route]", zi * zi,
                  (2 ** m.n_vertices) * abs(zrs), tol))
    cosprod = math.prod(math.cos(t) for t in iso.theta)
    rep.add(check("main-theorem[determinant-route]", abs(zrs),
                  abs(detK) / cosprod, tol))

    rep.constants.update({
        "det_K": detK,
        "row_permutation_sign": sign,
        "class_prefactor": pref,
        "matched_split_constant": c_split,
        "n_tree_pairs": n_trees,
        "regular_embedding": iso.regular,
    })
    return rep
