"""The chain's construction on the level of configurations: the maps that
carry each stage's trees, matchings and tree pairs to the next, weight for
weight.

The stages are those of :mod:`isingtree.correspondence`, whose totals
``verify`` checks; here each configuration is followed:

1 -> 2. a corner-graph tree maps to 2^(number of root arcs) split trees of
   the same total weight (`map_ost_A_to_D`), and back
   (`split_tree_preimage`);
2 -> 3. a split tree is dual to a spanning tree of the extended double graph
   in which every white keeps exactly two edges subject to local rules,
   stated once, per white, in `_white_rules` (`dual_in_double`,
   `rule_tree_to_split_tree`, `enumerate_rule_trees`);
3. the rule trees fall into classes indexed by the perfect matchings of the
   double minus one outer black s (`tree_to_matching`,
   `matching_to_trees`), and each class weight has a closed form: the
   unit-modulus `correspondence.class_prefactor` times the matching's tau2
   product.  `parity_check` classifies the cycles of two superposed
   matchings, the parity half of the acyclicity argument;
3 -> 4. splitting each matched edge through its white gives a pair of
   oriented spanning trees of the extended primal/dual pair
   (`matching_to_tree_pair`, weighed by `tree_pair_weight`).

No command runs these maps, and no other module of the package imports
this one: the tests run them on graphs small enough to enumerate.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import oracles
from .correspondence import ROOT, DirectedModel
from .isoradial import TauWeights
from .maps import PlanarMap
from .oracles import TooLargeError, WeightedDigraph


# ---------------------------------------------------------------------------
# undirected spanning trees
# ---------------------------------------------------------------------------

def _find(p: list[int], x: int) -> int:
    """Root of x in the union-find parent list p, halving the path."""
    while p[x] != x:
        p[x] = p[p[x]]
        x = p[x]
    return x


def is_spanning_tree(n_vertices: int,
                     edges: Iterable[tuple[int, int]]) -> bool:
    p = list(range(n_vertices))
    count = 0
    for u, v in edges:
        ru, rv = _find(p, u), _find(p, v)
        if ru == rv:
            return False
        p[ru] = rv
        count += 1
    return count == n_vertices - 1


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

def _half(m: PlanarMap, d: int, kind: str) -> tuple:
    """The double half that corner d's split-graph arc of this kind stands
    for: the half dual to the arc's *absent* sibling, so the half's weight
    is the arc's weight.

    * corner d exits "cos" -> ('hd', alpha sigma d);
    * corner d exits "sin" -> ('hp', sigma d);
    * in-node keeps "b3w"  -> ('hr', d, 1);
    * in-node keeps "b3r"  -> ('hb', d).
    """
    if kind == "cos":
        return ("hd", m.sigma[d] ^ 1)
    if kind == "sin":
        return ("hp", m.sigma[d])
    return ("hr", d, 1) if kind == "b3w" else ("hb", d)


def dual_in_double(g: DirectedModel, tree_arcs: Iterable[int]) -> frozenset:
    """Double-graph spanning tree dual to a split-graph tree: the `_half`
    of every tree arc, and every boundary corner's weight-1 split rim half
    ('hr', d, 0) unconditionally."""
    m = g.map
    keys = {_half(m, a.tail[1], a.kind)
            for a in (g.graph.arcs[ai] for ai in tree_arcs)}
    keys.update(("hr", delta, 0) for delta in m.outer_orbit)
    return frozenset(keys)


def _white_rules(m: PlanarMap) -> list[tuple]:
    """The double's local rules: (white key, its two key pairs) for the
    interior whites by edge, then the boundary whites by outer-orbit dart;
    a rule tree keeps exactly one key of each pair.

    * interior white ('we', e) with darts (e1, e2) = (2e, 2e + 1):
      {('hp', e1), ('hd', e2)} and {('hp', e2), ('hd', e1)};
    * boundary white ('wb', delta): its split half {('hr', delta, 0)},
      always kept, and its exit pair {('hr', delta, 1), ('hb', delta)}.
    """
    rules = [(("we", e), ((("hp", 2 * e), ("hd", 2 * e + 1)),
                          (("hp", 2 * e + 1), ("hd", 2 * e))))
             for e in range(m.n_edges)]
    rules += [(("wb", d), ((("hr", d, 0),), (("hr", d, 1), ("hb", d))))
              for d in m.outer_orbit]
    return rules


def check_local_rules(m: PlanarMap, edges: frozenset) -> list[str]:
    """Violations of the double-tree local rules (`_white_rules`) for an
    edge-key set: one per pair that does not keep exactly one key."""
    bad = []
    for white, pairs in _white_rules(m):
        for pair in pairs:
            kept = sum(k in edges for k in pair)
            if kept != 1:
                bad.append("white %r keeps %d of %r" % (white, kept, pair))
    return bad


def rule_tree_to_split_tree(g: DirectedModel,
                            edges: frozenset) -> frozenset[int]:
    """Inverse of dual_in_double: the split-graph arcs whose `_half` the
    rule-compliant double tree keeps (one of each corner's two)."""
    m = g.map
    return frozenset(i for i, a in enumerate(g.graph.arcs)
                     if _half(m, a.tail[1], a.kind) in edges)


def enumerate_rule_trees(dd: PlanarMap, m: PlanarMap) -> Iterator[frozenset]:
    """All spanning trees of the double satisfying the local rules, by
    direct product over the pairs of `_white_rules` filtered for
    acyclicity.  The candidate count is 4^E * 2^boundary; subject to the
    state cap."""
    pairs = [pair for _, two in _white_rules(m) for pair in two]
    total = math.prod(len(pair) for pair in pairs)
    if total > oracles.STATE_CAP:
        raise TooLargeError("%d rule configurations exceed the state cap" % total)
    ends, n = dd.key_ends, dd.n_vertices
    for keys in itertools.product(*pairs):
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


def matching_to_trees(dd: PlanarMap, m: PlanarMap, matching: frozenset,
                      rho_star: Mapping, tau2: Mapping,
                      prefactor: complex) -> CompatClass:
    """Expand a perfect matching of the double minus s into its tree class.

    Every white's matched edge is kept and fills one of its two
    `_white_rules` pairs; the second edge runs over the other pair (two
    choices, or one when that is a boundary white's split half).  Every
    completion should be a spanning tree; failures are counted, not
    silently dropped.
    """
    match_at: dict[tuple, tuple] = {}
    ends = dd.key_ends
    for k in matching:
        for vid in ends[k]:
            if dd.tags[vid] == "white":
                match_at[dd.vertex_key(vid)] = k

    options = [b if match_at[white] in a else a
               for white, (a, b) in _white_rules(m)]

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


def parity_check(dd: PlanarMap, s_key: tuple, m1: frozenset,
                 m2: frozenset) -> tuple[CycleParity, ...]:
    """Analyze the superposition of two perfect matchings of the double
    minus s: each connected component of the symmetric difference is an
    alternating cycle; classify its whites and interior vertices as in
    CycleParity and record whether s lies on or inside it.

    Every vertex of a cycle has one edge of each matching on it, so a cycle
    is walked from its least edge key, from that edge's first end, by
    taking the two matchings' partners in turn."""
    ends = dd.key_ends
    # per matching: vertex -> (its partner, the edge key) on the cycles
    partner: tuple[dict, dict] = ({}, {})
    for side, only in zip(partner, (m1 - m2, m2 - m1)):
        for k in only:
            u, v = ends[k]
            side[u], side[v] = (v, k), (u, k)
    s = dd.vertex_id(s_key)

    seen: set = set()
    reports = []
    for start in sorted(m1 ^ m2):
        if start in seen:
            continue
        turn = 0 if start in m1 else 1
        u0, cur = ends[start]
        verts, cyc_edges = [u0], [start]
        while cur != u0:
            turn ^= 1
            verts.append(cur)
            cur, key = partner[turn][cur]
            cyc_edges.append(key)
        seen.update(cyc_edges)
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
            s_on=s in verts, s_inside=s in inside))
    return tuple(reports)


def _strictly_inside(dd: PlanarMap, cycle_keys: frozenset) -> set[int]:
    """Vertices strictly inside a simple cycle: flood the faces from the
    outer face without crossing cycle edges; a vertex is inside iff none of
    its incident faces was reached."""
    reached = {dd.outer_face}
    stack = [dd.outer_face]
    while stack:
        f = stack.pop()
        for d in dd.faces[f]:
            if dd.edge_key(d >> 1) in cycle_keys:
                continue
            g = dd.face_of[d ^ 1]
            if g not in reached:
                reached.add(g)
                stack.append(g)
    inside = set()
    for v in range(dd.n_vertices):
        if all(dd.face_of[d] not in reached for d in dd.vertices[v]):
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
        return ("u", x) if m.is_outer_dart(x) else ("f", m.face_of[x])

    primal, dual = [], []
    for k in sorted(matching):
        kind = k[0]
        if kind == "hp":
            d = k[1]
            primal.append((("p", m.vertex_of[d]), ("p", m.vertex_of[d ^ 1]),
                           ("e", d >> 1)))
        elif kind == "hb":
            delta = k[1]
            primal.append((("p", m.vertex_of[delta]), ROOT, ("bd", delta)))
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


def tree_pair_weight(tp: TreePair, tw: TauWeights) -> complex:
    p = 1.0 + 0j
    for tail, head, key in tp.primal_arcs:
        p *= tw.arc(key, tail, head)
    for tail, head, key in tp.dual_arcs:
        p *= tw.arc(key, tail, head)
    return p
