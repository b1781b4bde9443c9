"""The package's records: immutable named tuples, and cheap to import."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isingtree
from isingtree.construction import CompatClass, CycleParity, TreePair
from isingtree.correspondence import DirectedModel
from isingtree.derived import ExtendedPair
from isingtree.isoradial import BoundaryAngles, IsoradialData, TauWeights
from isingtree.kasteleyn import FlatnessReport, KasteleynMatrix
from isingtree.oracles import Arc, WeightedDigraph
from isingtree.report import CheckResult, Report

# every record class with its fields in order; only Arc.kind has a
# default, ""
RECORDS = {
    DirectedModel: ("graph", "map"),
    CompatClass: ("matching", "trees", "weight_sum", "closed_form",
                  "n_rejected"),
    CycleParity: ("length", "n1", "n2", "n3", "n4", "n5", "s_on",
                  "s_inside"),
    TreePair: ("primal_arcs", "dual_arcs"),
    ExtendedPair: ("primal", "dual"),
    IsoradialData: ("map", "theta", "theta_exact", "centers"),
    BoundaryAngles: ("theta", "exact", "max_mismatch"),
    TauWeights: ("primal", "spoke", "rim_cw"),
    FlatnessReport: ("curvatures", "max_deviation"),
    KasteleynMatrix: ("rows", "flatness"),
    WeightedDigraph: ("nodes", "arcs"),
    CheckResult: ("name", "lhs", "rhs", "err", "passed"),
    Arc: ("tail", "head", "weight", "kind"),
}
DEFAULTS = {(Arc, "kind"): ""}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_is_immutable_and_equal_by_fields(cls):
    names = RECORDS[cls]
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    assert [p.default for p in params.values()] == [
        DEFAULTS.get((cls, n), inspect.Parameter.empty) for n in names]
    # fresh, equal but distinct field values on each side
    a = cls(*[("v", i) for i in range(len(names))])
    b = cls(**{n: ("v", i) for i, n in enumerate(names)})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert [getattr(a, n) for n in names] == [("v", i)
                                               for i in range(len(names))]
    assert a != cls(*[("v", i) for i in range(len(names) - 1)], ("w",))
    for n in names:
        with pytest.raises(AttributeError):
            setattr(a, n, 0)
    with pytest.raises(AttributeError):
        a.extra = 0


def test_record_methods_survive(c3):
    assert c3.K.det() == KasteleynMatrix(*c3.K).det()
    assert CycleParity(4, 1, 1, 1, 2, 3, False, True).interior_vertices == 5
    assert CheckResult("x", 1, 1, 0.0, True).to_dict() == {
        "name": "x", "lhs": 1.0, "rhs": 1.0, "rel_err": 0.0, "pass": True}


def test_reports_start_empty_and_apart():
    a, b = Report(), Report()
    a.add(CheckResult("x", 1, 1, 0.0, True))
    a.constants["k"] = 1
    assert (b.checks, b.constants) == ([], {})
    assert a.passed and a.to_dict()["pass"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(isingtree.__file__).resolve().parents[1])
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import isingtree.cli\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    new = json.loads(proc.stdout)
    assert "isingtree.cli" in new
    assert "dataclasses" not in new and "inspect" not in new
