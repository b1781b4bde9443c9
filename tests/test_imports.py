"""Every module of the package uses each name it imports."""

import ast
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
