"""JSON and DOT serialization.

The graph schema stores the rotation system directly::

    {"vertices":   [{"id": 0, "x": 1.0, "y": 0.0, "tag": null}, ...],
     "darts":      [{"id": 0, "twin": 1, "next": 2, "vertex": 0}, ...],
     "outer_face": 0,
     "angles":     {"0": {"radians": 0.785..., "pi_rational": "1/4"}, ...}}

"next" is sigma (the next dart counterclockwise at the same vertex); twins
are required to pair as 2i / 2i+1, matching the in-memory convention.  The
optional "angles" block carries the rhombus half-angle of each edge in
radians, plus the exact rational multiple of pi when one is known, so that
reloaded graphs keep closure identities exact.

All writers emit deterministic output (sorted keys, fixed ordering by id)
so repeated exports are byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import pi
from typing import Mapping

from .maps import MapError, PlanarMap
from .oracles import WeightedDigraph
from .report import Report


# ---------------------------------------------------------------------------
# planar maps
# ---------------------------------------------------------------------------

def map_to_json_dict(m: PlanarMap,
                     theta: Mapping[int, float] | None = None,
                     theta_exact: Mapping[int, Fraction] | None = None) -> dict:
    vertices = []
    for v in range(m.n_vertices):
        z = m.coords[v] if m.coords is not None else None
        vertices.append({
            "id": v,
            "x": None if z is None else z.real,
            "y": None if z is None else z.imag,
            "tag": m.tags[v] if m.tags is not None else None,
        })
    darts = [{"id": d, "twin": d ^ 1, "next": m.sigma[d],
              "vertex": m.vertex_of(d)} for d in range(len(m.sigma))]
    out = {"vertices": vertices, "darts": darts, "outer_face": m.outer_face}
    if theta is not None or theta_exact is not None:
        angles = {}
        for e in range(m.n_edges):
            q = theta_exact.get(e) if theta_exact is not None else None
            if theta is not None and e in theta:
                rad = float(theta[e])
            elif q is not None:
                rad = float(q) * pi
            else:
                continue
            angles[str(e)] = {
                "radians": rad,
                "pi_rational": None if q is None else "%d/%d" % (q.numerator,
                                                                 q.denominator),
            }
        if angles:
            out["angles"] = angles
    return out


def map_from_json_dict(data: dict) -> tuple[PlanarMap,
                                            dict[int, Fraction] | None]:
    """Rebuild a map (and its exact angles, if stored) from the schema.

    Validates structural consistency -- twin pairing, sigma being a
    permutation, dart/vertex incidence matching the sigma orbits -- but not
    simplicity or degrees: derived multigraph exports round-trip too.  Use
    maps.validate_simple_input on graphs meant as model input.
    """
    darts = sorted(data["darts"], key=lambda r: r["id"])
    n = len(darts)
    if [r["id"] for r in darts] != list(range(n)):
        raise MapError("dart ids must be 0..%d" % (n - 1))
    for r in darts:
        if r["twin"] != r["id"] ^ 1:
            raise MapError("dart %d: twin must be %d" % (r["id"], r["id"] ^ 1))
    sigma = [r["next"] for r in darts]

    vertices = sorted(data["vertices"], key=lambda r: r["id"])
    if [r["id"] for r in vertices] != list(range(len(vertices))):
        raise MapError("vertex ids must be 0..%d" % (len(vertices) - 1))

    # orbits first, to check the declared incidences and find the outer face
    m = PlanarMap(sigma, 0 if n else None)
    outer = data["outer_face"] if n else None
    if n and not 0 <= outer < len(m.faces):
        raise MapError("no face with id %d" % outer)
    covered = len(m.vertices)
    if len(vertices) < covered:
        raise MapError("fewer vertices than sigma orbits")
    for r in darts:
        if m.vertex_of(r["id"]) != r["vertex"]:
            raise MapError("dart %d: vertex %d does not match the rotation "
                           "orbits (expected %d)"
                           % (r["id"], r["vertex"], m.vertex_of(r["id"])))

    coords = None
    if all(r["x"] is not None and r["y"] is not None for r in vertices):
        coords = [complex(r["x"], r["y"]) for r in vertices[:covered]]
    tags = None
    if any(r.get("tag") is not None for r in vertices):
        tags = [r.get("tag") for r in vertices[:covered]]
    isolated = tuple(r.get("tag") for r in vertices[covered:])

    m = PlanarMap(sigma, m.faces[outer][0] if n else None, coords=coords,
                  tags=tags, isolated_tags=isolated)

    exact = None
    if "angles" in data:
        exact = {}
        for key, entry in data["angles"].items():
            q = entry.get("pi_rational")
            exact[int(key)] = None if q is None else Fraction(q)
    return m, exact


def dumps_map(m: PlanarMap, theta=None, theta_exact=None) -> str:
    return json.dumps(map_to_json_dict(m, theta, theta_exact),
                      indent=2, sort_keys=True) + "\n"


def loads_map(text: str) -> tuple[PlanarMap, dict[int, Fraction] | None]:
    try:
        return map_from_json_dict(json.loads(text))
    except (KeyError, IndexError, TypeError) as exc:
        raise MapError("malformed graph document: %s" % exc)


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

# tag -> (shape, fillcolor, fontcolor)
_TAG_STYLE = {
    None: ("circle", "lightgray", "black"),
    "primal": ("circle", "gray25", "white"),
    "dual": ("diamond", "white", "black"),
    "black-primal": ("circle", "gray25", "white"),
    "black-dual": ("diamond", "gray25", "white"),
    "white": ("circle", "white", "black"),
}


def map_to_dot(m: PlanarMap, name: str = "g") -> str:
    lines = ["graph %s {" % name, "  layout=neato;",
             "  node [fontsize=10, fixedsize=false];"]
    for v in range(m.n_vertices):
        tag = m.tags[v] if m.tags is not None else None
        shape, fill, font = _TAG_STYLE.get(tag, ("circle", "white", "black"))
        attrs = ['label="%s"' % (_label(m.vertex_key(v)),),
                 "shape=%s" % shape, "style=filled",
                 "fillcolor=%s" % fill, "fontcolor=%s" % font]
        if m.coords is not None and v < len(m.coords):
            z = m.coords[v]
            attrs.append('pos="%.6f,%.6f!"' % (z.real, z.imag))
        lines.append("  v%d [%s];" % (v, ", ".join(attrs)))
    for e in range(m.n_edges):
        u, v = m.endpoints(e)
        lines.append('  v%d -- v%d [label="%s"];' % (u, v, _label(m.edge_key(e))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dot(g: WeightedDigraph, name: str = "g") -> str:
    lines = ["digraph %s {" % name, "  node [fontsize=10, shape=box];"]
    ids = {node: i for i, node in enumerate(g.nodes)}
    for node, i in ids.items():
        lines.append('  n%d [label="%s"];' % (i, _label(node)))
    for a in g.arcs:
        lines.append('  n%d -> n%d [label="%s"];'
                     % (ids[a.tail], ids[a.head], a.kind or ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(k) for k in key)
    return str(key)


# ---------------------------------------------------------------------------
# digraphs, weights, reports as JSON
# ---------------------------------------------------------------------------

def digraph_to_json_dict(g: WeightedDigraph) -> dict:
    return {
        "nodes": [_label(node) for node in g.nodes],
        "arcs": [{"tail": _label(a.tail), "head": _label(a.head),
                  "re": a.weight.real, "im": complex(a.weight).imag,
                  "kind": a.kind} for a in g.arcs],
    }


def weights_to_json_dict(weights: Mapping) -> dict:
    out = {}
    for key in sorted(weights, key=_label):
        z = complex(weights[key])
        out[_label(key)] = {"re": z.real, "im": z.imag}
    return out


def dumps_report(rep: Report) -> str:
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
