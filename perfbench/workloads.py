"""The benchmark's three workloads.

A workload turns the seed into inputs when it is built (that is set-up
work) and then runs one operation per graph.  An operation times only its
calls into the package, inside ``Stopwatch.timed``, and checks the outputs
afterwards, untimed.  Every call goes through a module attribute looked up
at call time (``self.mods.kasteleyn.build_kasteleyn``), so the traced run's
recorders see it.

The seed picks where a run starts: the rhombic half-angle beta among
``BETAS`` and, on ``desk_verify``, the outer dart passed as ``--root-s``.
Every pass then moves on to the next beta and the next dart, so that a run
of several passes covers them all and its median times hardly depend on
the seed (both change the cost: see NOTES.md).  Graph names are the same
for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction

BETAS = (Fraction(1, 5), Fraction(1, 6), Fraction(1, 8))
TOL = 1e-9


class Stopwatch:
    """Adds up the time spent inside ``timed()`` blocks.  A tracer, when
    given, records only inside them, so output checks are never traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    @contextlib.contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.recording = False


def rel_diff(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class Workload:
    """Base: `GRAPHS` lists (name, generator, params); a None param stands
    for beta.  `run` returns (checks run, checks skipped, problems) for one
    operation."""

    name = ""
    GRAPHS: tuple = ()

    def __init__(self, mods, seed: int, workdir: str):
        self.mods = mods
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.first_beta = self.rng.randrange(len(BETAS))
        self.inputs = {}     # (name, beta or None) -> (map, exact angles)
        self.specs = {}      # (name, beta or None) -> CLI generator spec
        for name, kind, params in self.GRAPHS:
            for beta in BETAS if None in params else (None,):
                args = tuple(beta if p is None else p for p in params)
                self.inputs[name, beta] = getattr(mods.generators, kind)(*args)
                self.specs[name, beta] = "%s:%s" % (kind, ",".join(map(str, args)))

    def key(self, name: str, pass_index: int) -> tuple:
        """Input key of a graph in a pass: beta moves on every pass."""
        beta = BETAS[(self.first_beta + pass_index) % len(BETAS)]
        return (name, beta) if (name, beta) in self.inputs else (name, None)

    def sizes(self, name: str) -> tuple[int, int]:
        m = self.inputs[self.key(name, 0)][0]
        return m.n_vertices, m.n_edges

    def describe(self) -> dict:
        return {"first_beta": str(BETAS[self.first_beta])}

    def run(self, name: str, watch: Stopwatch,
            pass_index: int) -> tuple[int, int, list[str]]:
        raise NotImplementedError


class DeskVerify(Workload):
    """`isingtree verify` in-process on desk-scale graphs.  C3-C6 run the
    corner-tree enumeration and C7 onwards decline it, so both paths run.

    The `--root-s` dart changes the cost of the double-graph matching
    enumeration by up to 1.4x on a 3x3 grid, which is why the dart moves on
    along the outer orbit every pass; a 30 s run has about ten passes."""

    name = "desk_verify"
    GRAPHS = tuple(("C%d" % n, "cycle", (n,)) for n in range(3, 10)) + (
        ("grid2x3", "grid", (2, 3)),
        ("grid2x4", "grid", (2, 4)),
        ("rhombic2x4", "rhombic", (2, 4, None)),
    )

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        self.first_dart = {name: self.rng.randrange(len(self.orbit(name)))
                           for name, _kind, _params in self.GRAPHS}
        # identity names of the smallest graph's report, set by its first run
        self.expected: list[str] | None = None

    def orbit(self, name):
        """Outer darts of a graph, the same for every beta."""
        return self.inputs[self.key(name, 0)][0].outer_orbit

    def root_dart(self, name, pass_index):
        orbit = self.orbit(name)
        return orbit[(self.first_dart[name] + pass_index) % len(orbit)]

    def describe(self):
        return {**super().describe(),
                "first_root_darts": {name: self.root_dart(name, 0)
                                     for name, _kind, _params in self.GRAPHS}}

    def run(self, name, watch, pass_index):
        argv = ["verify", "--generator", self.specs[self.key(name, pass_index)],
                "--format", "json",
                "--root-s", str(self.root_dart(name, pass_index))]
        out = io.StringIO()
        with watch.timed(), contextlib.redirect_stdout(out):
            rc = self.mods.cli.main(argv)
        checks = json.loads(out.getvalue())["checks"]
        names = [c["name"] for c in checks]
        if self.expected is None and name == self.GRAPHS[0][0]:
            self.expected = names
        problems = ["%s failed" % c["name"] for c in checks if not c["pass"]]
        if rc != 0:
            problems.append("exit code %d" % rc)
        skipped = len(set(self.expected or names) - set(names))
        return len(checks), skipped, problems


class DetChain(Workload):
    """The polynomial stages of the chain, called directly, on graphs that
    `verify` cannot reach today."""

    name = "det_chain"
    GRAPHS = (
        ("grid6x6", "grid", (6, 6)),
        ("grid10x10", "grid", (10, 10)),
        ("grid14x14", "grid", (14, 14)),
        ("rhombic10x10", "rhombic", (10, 10, None)),
    )

    def run(self, name, watch, pass_index):
        m, exact = self.inputs[self.key(name, pass_index)]
        iso_m, der, kas = (self.mods.isoradial, self.mods.derived,
                           self.mods.kasteleyn)
        co, orc = self.mods.correspondence, self.mods.oracles
        with watch.timed():
            iso = iso_m.validate_isoradial(m, exact)
            bnd = iso_m.boundary_angles(iso)
            gq = der.quadri_tiling(m)
            phases = kas.assign_phases(gq, iso, bnd)
            flat = kas.check_flat(gq, phases)
            K = kas.build_kasteleyn(gq, iso, bnd, phases)
            det_k = K.det()
            g0 = co.build_G0(gq, K, m)
            z0 = orc.matrix_tree_Z(g0.graph, co.ROOT)
            g = co.build_G(g0)
            zg = orc.matrix_tree_Z(g.graph, co.ROOT)
            dd = der.extended_double(m)
            iso_m.double_weights(iso, bnd, dd)
            der.extended_pair(m)
            iso_m.tree_weights_tau(iso, bnd)
            sign = co.permutation_sign(m)
        problems = []
        if not flat.max_deviation <= TOL:
            problems.append("not flat: deviation %.3g" % flat.max_deviation)
        err = rel_diff(z0, sign * det_k)
        if not err <= TOL:
            problems.append("matrix_tree_Z(G0) vs sign*det K: %.3g" % err)
        err = rel_diff(zg, z0)
        if not err <= TOL:
            problems.append("matrix_tree_Z(G) vs matrix_tree_Z(G0): %.3g" % err)
        return 3, 0, problems


MAP_KINDS = ("primal", "dual", "quad", "quadri_tiling", "extended_double")
DIGRAPH_KINDS = ("G0", "G")
EXPORTS = (tuple((k, "json") for k in MAP_KINDS)
           + tuple((k, "dot") for k in MAP_KINDS)
           + tuple((k, "json") for k in DIGRAPH_KINDS))


class ExportRoundtrip(Workload):
    """`isingtree export` of every derived graph, each JSON map read back
    with the validating loader.

    Checks: every JSON map re-dumps to the same bytes; every DOT file has
    one edge line per edge of the same map; each digraph parses with the
    right node count.  One kind per pass, rotating, is exported a second
    time and must match byte for byte; on the rhombic graph the same kind
    must also equal a direct build (`is_isomorphic` for maps, equal JSON
    for digraphs).  `is_isomorphic` is quadratic in darts, which is why it
    runs on the small graph only."""

    name = "export_roundtrip"
    GRAPHS = (
        ("rhombic6x6", "rhombic", (6, 6, None)),
        ("grid20x20", "grid", (20, 20)),
    )
    ISO_GRAPH = "rhombic6x6"

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        self._direct: dict[tuple, object] = {}   # (kind, input key) -> build

    def _export(self, key, kind, fmt, suffix=""):
        path = os.path.join(self.workdir, "%s-%s%s.%s"
                            % (key[0], kind, suffix, fmt))
        rc = self.mods.cli.main(["export", kind, "--generator", self.specs[key],
                                 "--format", fmt, "--out", path])
        return rc, path

    def run(self, name, watch, pass_index):
        ser = self.mods.serialize
        key = self.key(name, pass_index)
        rcs, paths, loaded = {}, {}, {}
        with watch.timed():
            for kind, fmt in EXPORTS:
                rcs[kind, fmt], paths[kind, fmt] = self._export(key, kind, fmt)
                if fmt == "json" and kind in MAP_KINDS:
                    with open(paths[kind, fmt]) as fh:
                        text = fh.read()
                    loaded[kind] = (text, ser.loads_map(text))

        problems = ["%s %s: exit code %d" % (k, f, rc)
                    for (k, f), rc in rcs.items() if rc != 0]
        for kind, (text, (m, exact)) in loaded.items():
            if self._redump(kind, m, exact) != text:
                problems.append("%s: re-dump differs from the export" % kind)
            with open(paths[kind, "dot"]) as fh:
                edges = sum(" -- " in line for line in fh)
            if edges != m.n_edges:
                problems.append("%s dot: %d edge lines for %d edges"
                                % (kind, edges, m.n_edges))
        for kind in DIGRAPH_KINDS:
            with open(paths[kind, "json"]) as fh:
                doc = json.load(fh)
            want = self._digraph_nodes(key, kind)
            if len(doc["nodes"]) != want:
                problems.append("%s: %d nodes, want %d"
                                % (kind, len(doc["nodes"]), want))

        kinds = MAP_KINDS + DIGRAPH_KINDS
        kind = kinds[pass_index % len(kinds)]
        rc, again = self._export(key, kind, "json", "-again")
        with open(paths[kind, "json"]) as a, open(again) as b:
            if rc != 0 or a.read() != b.read():
                problems.append("%s: second export differs" % kind)
        checks = len(EXPORTS) + 1
        if name == self.ISO_GRAPH:
            checks += 1
            if not self._same_as_direct(key, kind, loaded, paths):
                problems.append("%s: differs from a direct build" % kind)
        return checks, 0, problems

    def _redump(self, kind, m, exact):
        ser = self.mods.serialize
        if kind != "primal":
            return ser.dumps_map(m)
        # the primal export writes the radians validate_isoradial measures
        iso = self.mods.isoradial.validate_isoradial(m, exact)
        return ser.dumps_map(m, theta=dict(enumerate(iso.theta)),
                             theta_exact=exact)

    def _chain(self, key):
        M = self.mods
        m, exact = self.inputs[key]
        iso = M.isoradial.validate_isoradial(m, exact)
        gq = M.derived.quadri_tiling(m)
        K = M.kasteleyn.build_kasteleyn(gq, iso, M.isoradial.boundary_angles(iso))
        g0 = M.correspondence.build_G0(gq, K, m)
        return g0, M.correspondence.build_G(g0)

    def _digraph_nodes(self, key, kind):
        """Corner graph: one node per dart plus the root; the split graph
        adds one node per boundary corner."""
        m = self.inputs[key][0]
        darts = 2 * m.n_edges + 1
        return darts if kind == "G0" else darts + len(m.outer_orbit)

    def _same_as_direct(self, key, kind, loaded, paths):
        M = self.mods
        m = self.inputs[key][0]
        if kind in DIGRAPH_KINDS:
            if (kind, key) not in self._direct:
                g0, g = self._chain(key)
                model = g0 if kind == "G0" else g
                self._direct[kind, key] = json.loads(json.dumps(
                    M.serialize.digraph_to_json_dict(model.graph)))
            with open(paths[kind, "json"]) as fh:
                return json.load(fh) == self._direct[kind, key]
        if (kind, key) not in self._direct:
            self._direct[kind, key] = {
                "primal": lambda: m,
                "dual": lambda: M.maps.dual_map(m),
                "quad": lambda: M.derived.quad_graph(m),
                "quadri_tiling": lambda: M.derived.quadri_tiling(m),
                "extended_double": lambda: M.derived.extended_double(m),
            }[kind]()
        return M.maps.is_isomorphic(loaded[kind][1][0], self._direct[kind, key])


WORKLOADS = {w.name: w for w in (DeskVerify, DetChain, ExportRoundtrip)}
