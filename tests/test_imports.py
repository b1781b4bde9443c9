"""Every module of the package uses each name it imports, and a command
imports only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import isingtree

PACKAGE = Path(isingtree.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in import order.

    A name counts as read where it appears as an expression (a call, an
    attribute base, an annotation); ``from __future__`` imports are
    directives, not names."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # the scan itself, on sources with a known answer
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]
    assert unused_imports("from a.b import c as d, e\nprint(e)\n") == ["d"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import os.path\nos.path.join()\n") == []
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


# the configuration-level construction, which only the tests run
CONSTRUCTION = (
    "_arcs_by_tail_kind", "map_ost_A_to_D", "split_tree_preimage", "_half",
    "dual_in_double", "_white_rules", "check_local_rules",
    "rule_tree_to_split_tree", "enumerate_rule_trees", "tree_to_matching",
    "CompatClass", "matching_to_trees", "CycleParity", "parity_check",
    "_strictly_inside", "TreePair", "matching_to_tree_pair", "arcs_form_ost",
    "tree_pair_weight", "is_spanning_tree", "_find")
# the reference enumerations, kept with the tests
REFERENCE = ("enumerate_matchings", "enumerate_osts", "det_cofactor")


def test_the_construction_and_the_references_leave_the_layer_modules():
    from isingtree import construction, correspondence, oracles
    import reference

    assert all(hasattr(construction, name) for name in CONSTRUCTION)
    assert all(hasattr(reference, name) for name in REFERENCE)
    for module in (correspondence, oracles):
        assert [n for n in CONSTRUCTION + REFERENCE
                if hasattr(module, n)] == []


def test_no_command_and_no_layer_module_loads_the_construction():
    # a fresh process: the CLI first, then every layer module; per step, the
    # package modules loaded and the construction or reference names they
    # define
    layers = ("generators", "maps", "isoradial", "derived", "kasteleyn",
              "oracles", "correspondence", "report", "serialize", "cli")
    script = ("import importlib, json, sys\n"
              "def loaded():\n"
              "    return {k: sorted(n for n in %r if hasattr(v, n))\n"
              "            for k, v in sys.modules.items()\n"
              "            if k.startswith('isingtree')}\n"
              "import isingtree.cli\n"
              "after_cli = loaded()\n"
              "for layer in %r:\n"
              "    importlib.import_module('isingtree.' + layer)\n"
              "print(json.dumps([after_cli, loaded()]))\n"
              % (CONSTRUCTION + REFERENCE, layers))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    after_cli, after_layers = json.loads(proc.stdout)
    assert "isingtree.cli" in after_cli
    assert {"isingtree." + layer for layer in layers} <= set(after_layers)
    for modules in (after_cli, after_layers):
        assert "isingtree.construction" not in modules
        assert {k: v for k, v in modules.items() if v} == {}
