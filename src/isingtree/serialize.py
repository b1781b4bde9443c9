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

The text writers (``dumps_map`` and ``dumps_digraph`` for JSON,
``map_to_dot`` and ``digraph_to_dot`` for DOT) fill one ``%`` template per
record and run no JSON encoder: ``json.dumps`` with ``indent`` always runs
the pure-Python encoder, about eight times slower on grid 20x20 maps.
Contract: the JSON writers' bytes equal ``json.dumps(<dict>, indent=2,
sort_keys=True) + "\n"`` over the schema reference (``map_to_json_dict``,
``digraph_to_json_dict``).  Id fields are ints written with ``%d``; every
other leaf goes through ``_json_scalar``, which writes None, bools, ints,
floats (``repr``, or NaN / Infinity / -Infinity) and strings
(``encode_basestring_ascii``) as ``json`` does.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import inf, pi
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
    """The graph document as a dict: the schema reference of `dumps_map`."""
    vertices = [{"id": v, "x": x, "y": y, "tag": tag}
                for v, x, y, tag in _vertex_rows(m)]
    darts = [{"id": d, "twin": d ^ 1, "next": m.sigma[d],
              "vertex": m.vertex_of[d]} for d in range(len(m.sigma))]
    out = {"vertices": vertices, "darts": darts, "outer_face": m.outer_face}
    angles = {key: {"radians": rad, "pi_rational": q}
              for key, rad, q in _angle_rows(m, theta, theta_exact)}
    if angles:
        out["angles"] = angles
    return out


def _vertex_rows(m: PlanarMap):
    """(id, x, y, tag) per vertex; x, y and tag are None when absent."""
    coords = m.coords
    for v, tag in enumerate(m.tags):
        if coords is not None:
            yield v, coords[v].real, coords[v].imag, tag
        else:
            yield v, None, None, tag


def _angle_rows(m: PlanarMap, theta, theta_exact):
    """(key, radians, pi_rational) per edge with a known angle, keys sorted
    as strings (the order of ``sort_keys``)."""
    rows = []
    for e in range(m.n_edges):
        q = theta_exact.get(e) if theta_exact is not None else None
        if theta is not None and e in theta:
            rad = float(theta[e])
        elif q is not None:
            rad = float(q) * pi
        else:
            continue
        rows.append((str(e), rad, None if q is None
                     else "%d/%d" % (q.numerator, q.denominator)))
    rows.sort()
    return rows


def map_from_json_dict(data: dict) -> tuple[PlanarMap,
                                            dict[int, Fraction] | None]:
    """Rebuild a map (and its exact angles, if stored) from the schema.

    Validates structural consistency -- at least one dart, twin pairing,
    sigma being a permutation, one vertex per sigma orbit, dart/vertex
    incidence matching the sigma orbits -- but not simplicity or degrees:
    derived multigraph exports round-trip too.  Use
    maps.validate_simple_input on graphs meant as model input.
    """
    darts = sorted(data["darts"], key=lambda r: r["id"])
    n = len(darts)
    _require_ints([r["id"] for r in darts], "dart ids must be integers")
    if [r["id"] for r in darts] != list(range(n)):
        raise MapError("dart ids must be 0..%d" % (n - 1))
    for field in ("twin", "next", "vertex"):
        _require_ints([r[field] for r in darts],
                      "dart %s fields must be integers" % field)
    for r in darts:
        if r["twin"] != r["id"] ^ 1:
            raise MapError("dart %d: twin must be %d" % (r["id"], r["id"] ^ 1))
    sigma = [r["next"] for r in darts]

    vertices = sorted(data["vertices"], key=lambda r: r["id"])
    _require_ints([r["id"] for r in vertices], "vertex ids must be integers")
    if [r["id"] for r in vertices] != list(range(len(vertices))):
        raise MapError("vertex ids must be 0..%d" % (len(vertices) - 1))

    coords = None
    if all(r["x"] is not None and r["y"] is not None for r in vertices):
        if any(type(r[c]) is bool for r in vertices for c in "xy"):
            raise MapError("vertex coordinates must be numbers")
        coords = [complex(r["x"], r["y"]) for r in vertices]
    tags = [r.get("tag") for r in vertices]
    for v, tag in enumerate(tags):
        if not (tag is None or isinstance(tag, str)):
            raise MapError("vertex %d: tag must be null or a string" % v)
    m = PlanarMap(sigma, 0 if n else None, coords=coords, tags=tags)

    outer = data["outer_face"]
    _require_ints([outer], "outer_face must be an integer")
    if not 0 <= outer < len(m.faces):
        raise MapError("no face with id %d" % outer)
    if len(vertices) < len(m.vertices):
        raise MapError("fewer vertices than sigma orbits")
    if len(vertices) > len(m.vertices):
        raise MapError("more vertices than sigma orbits")
    for r in darts:
        if m.vertex_of[r["id"]] != r["vertex"]:
            raise MapError("dart %d: vertex %d does not match the rotation "
                           "orbits (expected %d)"
                           % (r["id"], r["vertex"], m.vertex_of[r["id"]]))
    m = m.with_outer_dart(m.faces[outer][0])

    exact = None
    if "angles" in data:
        if not isinstance(data["angles"], dict):
            raise MapError("angles must be a JSON object")
        exact = {}
        for key, entry in data["angles"].items():
            e = int(key)   # only the spelling str(e) names edge e
            if key != str(e) or not 0 <= e < m.n_edges:
                raise MapError("angle key %r is not an edge id in 0..%d"
                               % (key, m.n_edges - 1))
            if not isinstance(entry, dict):
                raise MapError("angle %s must be a JSON object" % key)
            q = entry.get("pi_rational")
            if type(q) is bool:
                raise MapError("angle %s: pi_rational must be a string, a "
                               "number or null" % key)
            if q is not None:
                q = Fraction(q)
                # half-angles lie in (0, pi/2); exact, before any float(q)
                if not 0 < q < Fraction(1, 2):
                    raise MapError("angle %s: pi_rational %s is not in "
                                   "(0, 1/2)" % (key, entry["pi_rational"]))
            exact[e] = q
    return m, exact


def _require_ints(values: list, message: str) -> None:
    """MapError(message) unless every value is a JSON integer: not a bool,
    and not a float, even an integral one."""
    if not set(map(type, values)) <= {int}:
        raise MapError(message)


_VERTEX = ('    {\n      "id": %d,\n      "tag": %s,\n      "x": %s,\n'
           '      "y": %s\n    }')
_DART = ('    {\n      "id": %d,\n      "next": %d,\n      "twin": %d,\n'
         '      "vertex": %d\n    }')
_ANGLE = '    "%s": {\n      "pi_rational": %s,\n      "radians": %s\n    }'


def dumps_map(m: PlanarMap, theta=None, theta_exact=None) -> str:
    """`map_to_json_dict` as indented JSON with sorted keys, written
    directly (see the module docstring for the byte-identity contract)."""
    sc = _json_scalar
    sigma, vertex_of = m.sigma, m.vertex_of
    parts = ["{\n"]
    angles = _angle_rows(m, theta, theta_exact)
    if angles:
        parts.append('  "angles": {\n%s\n  },\n' % ",\n".join(
            [_ANGLE % (key, sc(q), sc(rad)) for key, rad, q in angles]))
    parts.append('  "darts": %s,\n' % _json_list(
        [_DART % (d, sigma[d], d ^ 1, vertex_of[d])
         for d in range(len(sigma))]))
    parts.append('  "outer_face": %d,\n' % m.outer_face)
    parts.append('  "vertices": %s\n}\n' % _json_list(
        [_VERTEX % (v, sc(tag), sc(x), sc(y))
         for v, x, y, tag in _vertex_rows(m)]))
    return "".join(parts)


def loads_map(text: str) -> tuple[PlanarMap, dict[int, Fraction] | None]:
    """`map_from_json_dict` of a JSON text; any text that is not a graph
    document raises MapError."""
    try:
        return map_from_json_dict(json.loads(text))
    # text that is not JSON (a ValueError), nesting too deep for the
    # decoder, a missing field, an angle "1/0" or "abc"
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError,
            RecursionError) as exc:
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


_DOT_NODE = ('  v%d [label="%s", shape=%s, style=filled, fillcolor=%s, '
             'fontcolor=%s];')
# a vertex with coordinates is pinned at them
_DOT_PLACED = _DOT_NODE[:-2] + ', pos="%.6f,%.6f!"];'


def map_to_dot(m: PlanarMap, name: str = "g") -> str:
    lines = ["graph %s {" % name, "  layout=neato;",
             "  node [fontsize=10, fixedsize=false];"]
    coords = m.coords
    for v, (key, tag) in enumerate(zip(m.vertex_keys, m.tags)):
        shape, fill, font = _TAG_STYLE.get(tag, ("circle", "white", "black"))
        label = _label(key)
        if coords is not None:
            z = coords[v]
            lines.append(_DOT_PLACED % (v, label, shape, fill, font,
                                        z.real, z.imag))
        else:
            lines.append(_DOT_NODE % (v, label, shape, fill, font))
    for e, key in enumerate(m.edge_keys):
        u, v = m.endpoints(e)
        lines.append('  v%d -- v%d [label="%s"];' % (u, v, _label(key)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dot(g: WeightedDigraph, name: str = "g") -> str:
    lines = ["digraph %s {" % name, "  node [fontsize=10, shape=box];"]
    ids = {node: i for i, node in enumerate(g.nodes)}
    lines += ['  n%d [label="%s"];' % (i, _label(node))
              for node, i in ids.items()]
    lines += ['  n%d -> n%d [label="%s"];'
              % (ids[a.tail], ids[a.head], a.kind or "") for a in g.arcs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(key) -> str:
    if isinstance(key, tuple):
        return ",".join(map(str, key))
    return str(key)


# ---------------------------------------------------------------------------
# digraphs and reports as JSON
# ---------------------------------------------------------------------------

def digraph_to_json_dict(g: WeightedDigraph) -> dict:
    """The digraph document as a dict: the schema reference of
    `dumps_digraph`."""
    return {
        "nodes": [_label(node) for node in g.nodes],
        "arcs": [{"tail": _label(a.tail), "head": _label(a.head),
                  "re": a.weight.real, "im": complex(a.weight).imag,
                  "kind": a.kind} for a in g.arcs],
    }


_ARC = ('    {\n      "head": %s,\n      "im": %s,\n      "kind": %s,\n'
        '      "re": %s,\n      "tail": %s\n    }')


def dumps_digraph(g: WeightedDigraph) -> str:
    """`digraph_to_json_dict` as indented JSON with sorted keys, written
    directly (see the module docstring for the byte-identity contract)."""
    sc = _json_scalar
    quoted = {node: _json_str(_label(node)) for node in g.nodes}
    arcs = [_ARC % (quoted[a.head], sc(complex(a.weight).imag), sc(a.kind),
                    sc(a.weight.real), quoted[a.tail]) for a in g.arcs]
    nodes = ["    " + quoted[node] for node in g.nodes]
    return '{\n  "arcs": %s,\n  "nodes": %s\n}\n' % (_json_list(arcs),
                                                        _json_list(nodes))


def _json_list(records: list[str]) -> str:
    """A list of records already indented by four spaces, closed at two."""
    if not records:
        return "[]"
    return "[\n%s\n  ]" % ",\n".join(records)


def _json_scalar(x) -> str:
    """One JSON leaf, as ``json.dumps`` writes it.  Finite floats, the
    commonest leaf, are tested first."""
    if isinstance(x, float):
        if -inf < x < inf:
            return float.__repr__(x)
        if x != x:
            return "NaN"
        return "Infinity" if x > 0 else "-Infinity"
    if isinstance(x, str):
        return _json_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(x).__name__)


def _finite(x):
    """`x` with every non-finite float, at any depth, as None."""
    if isinstance(x, float):
        return x if -inf < x < inf else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite(v) for v in x]
    return x


def dumps_report(rep: Report) -> str:
    """The report as RFC 8259 JSON: a NaN or infinite value, which only a
    failed check or an overflowed count holds, is written as null."""
    return json.dumps(_finite(rep.to_dict()), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
