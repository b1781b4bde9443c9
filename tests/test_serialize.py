"""JSON round trips, loader validation, DOT export, report shapes."""

import json
import math
from fractions import Fraction

import pytest

from isingtree.generators import cycle, rhombic
from isingtree.maps import MapError, PlanarMap, canonical_key, is_isomorphic
from isingtree.oracles import Arc, WeightedDigraph
from isingtree.report import Report, check
from isingtree.serialize import (_json_scalar, digraph_to_dot,
                                 digraph_to_json_dict, dumps_digraph,
                                 dumps_map, dumps_report, loads_map,
                                 map_to_dot, map_to_json_dict)


def test_map_round_trip_keeps_structure_and_coords(pipelines):
    for p in pipelines.values():
        text = dumps_map(p.m)
        back, exact = loads_map(text)
        assert back.sigma == p.m.sigma
        assert back.outer_face == p.m.outer_face
        assert exact is None
        for a, b in zip(back.coords, p.m.coords):
            assert a == pytest.approx(b, abs=1e-12)


def test_map_round_trip_keeps_exact_angles():
    m, theta = rhombic(2, 3, Fraction(1, 6))
    text = dumps_map(m, theta={e: math.pi * float(q) for e, q in theta.items()},
                     theta_exact=theta)
    back, exact = loads_map(text)
    assert exact == theta
    assert is_isomorphic(back, m)


def test_float_angles_survive_without_exact_part():
    m, theta = rhombic(2, 2, 0.7)
    text = dumps_map(m, theta={e: 0.7 for e in range(m.n_edges)})
    _, exact = loads_map(text)
    assert exact == {e: None for e in range(m.n_edges)}
    data = json.loads(text)
    assert data["angles"]["0"]["pi_rational"] is None


def test_multigraph_round_trip(c4):
    # the extended double has parallel edges; the dart schema keeps them
    text = dumps_map(c4.dd)
    back, _ = loads_map(text)
    assert back.sigma == c4.dd.sigma
    assert back.tags == c4.dd.tags
    assert canonical_key(back) == canonical_key(c4.dd)


def test_dumps_is_deterministic(c3):
    assert dumps_map(c3.m) == dumps_map(c3.m)
    assert dumps_map(c3.m).endswith("\n")


def test_loader_rejects_bad_twin():
    m, _ = cycle(3)
    data = map_to_json_dict(m)
    data["darts"][0]["twin"] = 2
    with pytest.raises(MapError):
        loads_map(json.dumps(data))


def test_loader_rejects_gapped_dart_ids():
    m, _ = cycle(3)
    data = map_to_json_dict(m)
    data["darts"][3]["id"] = 17
    with pytest.raises(MapError):
        loads_map(json.dumps(data))


def test_loader_rejects_wrong_incidence():
    m, _ = cycle(3)
    data = map_to_json_dict(m)
    data["darts"][0]["vertex"] = (data["darts"][0]["vertex"] + 1) % 3
    with pytest.raises(MapError):
        loads_map(json.dumps(data))


def test_loader_rejects_missing_outer_face():
    m, _ = cycle(3)
    data = map_to_json_dict(m)
    data["outer_face"] = 99
    with pytest.raises(MapError):
        loads_map(json.dumps(data))


def test_loader_rejects_shapeless_document():
    with pytest.raises(MapError, match="malformed graph document"):
        loads_map('{"not": "a map"}')


def test_loader_rejects_out_of_range_dart_reference():
    m, _ = cycle(3)
    data = map_to_json_dict(m)
    data["darts"][0]["next"] = 99
    with pytest.raises(MapError):
        loads_map(json.dumps(data))


def _all_darts_at_vertex_0(data):
    for r in data["darts"]:
        r["vertex"] = 0


# one edit of the C3 document each, with the loader's message; recorded from
# the loader that built a throwaway map to count orbits and find the outer
# face, so one map build must keep every check and its wording (the last
# four, angles and tags of the wrong JSON type, used to end in tracebacks)
LOADER_ERRORS = [
    (lambda d: d["darts"][0].update(twin=2), "dart 0: twin must be 1"),
    (lambda d: d["darts"][3].update(id=17), "dart ids must be 0..5"),
    (lambda d: d["darts"][0].update(vertex=1),
     "dart 0: vertex 1 does not match the rotation orbits (expected 0)"),
    (lambda d: d["darts"][0].update(vertex=7),
     "dart 0: vertex 7 does not match the rotation orbits (expected 0)"),
    (_all_darts_at_vertex_0,
     "dart 1: vertex 0 does not match the rotation orbits (expected 1)"),
    (lambda d: d.update(outer_face=99), "no face with id 99"),
    (lambda d: d["darts"][0].update(next=99),
     "sigma is not a permutation of 0..5"),
    (lambda d: d["vertices"].pop(), "fewer vertices than sigma orbits"),
    (lambda d: d["vertices"].append(dict(d["vertices"][0], id=3)),
     "more vertices than sigma orbits"),
    (lambda d: d["darts"].clear(), "outer face dart required"),
    (lambda d: d["darts"].pop(), "odd number of darts"),
    (lambda d: d.clear(), "malformed graph document: 'darts'"),
    (lambda d: d.update(angles=[]), "angles must be a JSON object"),
    (lambda d: d.update(angles={"0": 5}), "angle 0 must be a JSON object"),
    (lambda d: d["vertices"][1].update(tag=[1]),
     "vertex 1: tag must be null or a string"),
    (lambda d: d["vertices"][2].update(tag={"a": 1}),
     "vertex 2: tag must be null or a string"),
]


# malformed exact angles on the C4 document: a zero denominator, no
# fraction at all, an infinite float, a key that is not an edge id
BAD_ANGLES = {
    "zero-denominator": lambda d: d["angles"]["0"].update(pi_rational="1/0"),
    "not-a-fraction": lambda d: d["angles"]["0"].update(pi_rational="abc"),
    "infinite": lambda d: d["angles"]["0"].update(pi_rational=math.inf),
    "key-not-an-int": lambda d: d["angles"].update(x=d["angles"].pop("0")),
}


@pytest.mark.parametrize("edit", BAD_ANGLES.values(), ids=BAD_ANGLES)
def test_loader_rejects_malformed_angles(edit):
    m, exact = cycle(4)
    data = json.loads(dumps_map(m, theta_exact=exact))
    edit(data)
    with pytest.raises(MapError, match="^malformed graph document: "):
        loads_map(json.dumps(data))


# text that is not a graph document: cut off, not JSON at all, or nested
# past the decoder's recursion limit
NOT_A_DOCUMENT = {
    "truncated": '{"darts": ',
    "not-json": "darts: []",
    "too-deep": "[" * 100000,
}


@pytest.mark.parametrize("text", NOT_A_DOCUMENT.values(), ids=NOT_A_DOCUMENT)
def test_loader_rejects_text_that_is_not_a_document(text):
    with pytest.raises(MapError, match="^malformed graph document: "):
        loads_map(text)


@pytest.mark.parametrize("key", ["999", "4", "-1", "01", " 2", "+1"],
                         ids=["999", "4", "-1", "01", "space-2", "+1"])
def test_loader_rejects_angle_keys_that_are_not_edge_ids(key):
    # a negative key would index the edge list from its end, and another
    # spelling of an edge id ("01" for "1") would replace that edge's angle
    m, exact = cycle(4)
    data = json.loads(dumps_map(m, theta_exact=exact))
    data["angles"][key] = data["angles"]["0"]
    with pytest.raises(MapError) as exc:
        loads_map(json.dumps(data))
    assert str(exc.value) == "angle key %r is not an edge id in 0..3" % key


@pytest.mark.parametrize("edit,message", LOADER_ERRORS)
def test_loader_error_messages(edit, message):
    data = map_to_json_dict(cycle(3)[0])
    assert [r["vertex"] for r in data["darts"]] == [0, 1, 0, 2, 2, 1]
    edit(data)
    with pytest.raises(MapError) as exc:
        loads_map(json.dumps(data))
    assert str(exc.value) == message


def test_dot_export_of_quadri_tiling(c4):
    dot = map_to_dot(c4.gq)
    assert dot.count("shape=") >= 16  # one styled node per vertex
    assert "--" in dot and dot.startswith("graph")
    assert map_to_dot(c4.gq) == dot


def test_digraph_exports(c3):
    g = c3.g0.graph
    dot = digraph_to_dot(g)
    assert dot.startswith("digraph") and "->" in dot
    data = digraph_to_json_dict(g)
    assert len(data["arcs"]) == len(g.arcs)
    assert len(data["nodes"]) == len(g.nodes)
    kinds = {a["kind"] for a in data["arcs"]}
    assert kinds == {"cos", "sin", "root"}


def _reference(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _assert_map_text(m, theta=None, theta_exact=None):
    assert (dumps_map(m, theta, theta_exact)
            == _reference(map_to_json_dict(m, theta, theta_exact)))


def test_dumps_map_equals_the_json_reference(pipelines):
    for p in pipelines.values():
        theta = dict(enumerate(p.iso.theta))
        for t in (None, theta):
            for q in (None, p.theta_exact):
                _assert_map_text(p.m, t, q)
        for derived in (p.dual, p.quad, p.gq, p.dd):
            _assert_map_text(derived)


def test_dumps_map_partial_angles_sort_as_strings():
    # seventeen edges: keys "10" to "16" sort before "2"; edge 3 has no angle
    m, exact = rhombic(3, 4, Fraction(1, 6))
    theta = {e: 0.5 for e in range(m.n_edges) if e != 3}
    exact = {e: q for e, q in exact.items() if e % 2 == 0}
    assert m.n_edges == 17
    _assert_map_text(m, theta, exact)
    _assert_map_text(m, None, exact)


def test_dumps_map_edge_cases():
    c3, _ = cycle(3)
    odd = [complex(float("nan"), -0.0), complex(float("inf"), 1e-300),
           complex(-float("inf"), 2.5e17)]
    cases = [
        PlanarMap(c3.sigma, c3.outer_dart),                # no coords
        PlanarMap(c3.sigma, c3.outer_dart, coords=odd,
                  tags=["caf\u00e9", 'q"uote', "tab\t"]),
    ]
    for m in cases:
        _assert_map_text(m)
    assert '"x": NaN' in dumps_map(cases[1])


def test_dumps_digraph_equals_the_json_reference(pipelines):
    for p in pipelines.values():
        for g in (p.g0.graph, p.g.graph):
            assert dumps_digraph(g) == _reference(digraph_to_json_dict(g))


def test_dumps_digraph_edge_cases():
    g = WeightedDigraph(
        nodes=("a", ("b", 1), "\u00fcber"),
        arcs=(Arc("a", ("b", 1), 1, None),             # int weight, no kind
              Arc(("b", 1), "\u00fcber", 2.5 - 1j, "cos"),
              Arc("\u00fcber", "a", complex(float("nan"), float("inf")))))
    for h in (g, WeightedDigraph(nodes=(), arcs=())):
        assert dumps_digraph(h) == _reference(digraph_to_json_dict(h))
    assert '"re": 1,' in dumps_digraph(g)
    assert '  n0 -> n1 [label=""];\n' in digraph_to_dot(g)
    assert dumps_digraph(WeightedDigraph(nodes=(), arcs=())) == (
        '{\n  "arcs": [],\n  "nodes": []\n}\n')


class _Float(float):
    pass


@pytest.mark.parametrize("x", [
    0.0, -0.0, 5e-324, -5e-324, 1e308, 0.1, -2.5e17, float("nan"),
    float("inf"), -float("inf"), _Float(1.5), _Float(float("-inf")),
    True, False, None, 0, -7, 2 ** 70, "", "caf\u00e9 \"q\"\t"])
def test_json_scalar_equals_json_dumps(x):
    assert _json_scalar(x) == json.dumps(x)


def test_report_serialization_round_trip():
    rep = Report()
    rep.add(check("alpha", 1.0, 1.0 + 1e-12, 1e-9))
    rep.add(check("beta", 1j, 2j, 1e-9))
    rep.constants["gamma"] = 3 + 4j
    data = json.loads(dumps_report(rep))
    assert [c["name"] for c in data["checks"]] == ["alpha", "beta"]
    assert data["checks"][0]["pass"] is True
    assert data["checks"][1]["pass"] is False
    assert data["pass"] is False
    assert data["constants"]["gamma"] == {"re": 3.0, "im": 4.0}


def test_relative_error_is_symmetric_and_scaled():
    from isingtree.report import rel_err
    assert rel_err(0.0, 0.0) == 0.0
    assert rel_err(1e6, 1e6 * (1 + 1e-10)) == pytest.approx(1e-10, rel=1e-3)
    assert rel_err(2.0, 1.0) == rel_err(1.0, 2.0) == 0.5
