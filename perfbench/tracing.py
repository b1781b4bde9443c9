"""Span recorder for the benchmark's traced run.

The package looks its collaborators up as module attributes at call time
(``correspondence.dimer_Z``, ``kasteleyn.complex_det``, ...).  Replacing
every such attribute with a recorder therefore traces each call that
crosses a layer boundary without changing a file of the package.

* A *span* is one call of a public function of a layer module: its name,
  start, end, parent span and the operation (graph) it belongs to.  Spans
  stay in memory and are written out when the benchmark ends.
* A function's *self time* is its span's duration minus the part covered by
  its child spans.  The work a hook does to count sizes (matrix non-zeros,
  for instance) is charged to no span; it shows in ``trace.overhead_s``.
* Generator functions are not spans, because their work interleaves with
  the caller's: their yields are counted and their time stays in the
  caller's self time (``enumerate_matchings`` inside ``dimer_Z``).
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

LAYERS = ("generators", "maps", "isoradial", "derived", "kasteleyn",
          "oracles", "correspondence", "report", "serialize", "cli")

# Only `cli.main` is a span in the cli layer; the command functions it
# dispatches to, argument parsing and file writes are its self time.
ONLY = {"cli": ("main",)}

# helpers called once per face or corner by their own layer: not spans, so
# their time stays in the caller's self time (check_flat, boundary_angles)
INLINE = ("kasteleyn.curvature", "isoradial.outer_center")

# yields of these generator functions are counted under the given name
YIELD_COUNTS = {
    "oracles.enumerate_matchings": "oracles.matchings",
    "oracles.enumerate_spanning_trees": "oracles.spanning_trees",
    "oracles.enumerate_osts": "oracles.oriented_trees",
}

# span names that add up several functions of one layer
AGGREGATES = {
    "isoradial.weights": ("isoradial.critical_couplings",
                          "isoradial.dimer_weights",
                          "isoradial.tree_weights_tau",
                          "isoradial.double_weights"),
}


def _rows(mat):
    return mat.rows if hasattr(mat, "rows") else mat


def _nnz(rows) -> int:
    return sum(1 for r in rows for x in r if x != 0)


def _count_det(counts, args, kwargs, result):
    rows = _rows(args[0])
    n = len(rows)
    counts["oracles.complex_det_calls"] += 1
    counts["oracles.det_nnz"] += _nnz(rows)
    counts["oracles.det_flops_dense_computed"] += 8 * n ** 3 // 3
    counts["oracles.det_order_max"] = max(counts["oracles.det_order_max"], n)


def _count_kasteleyn(counts, args, kwargs, result):
    counts["kasteleyn.K_order"] += len(result.whites)
    counts["kasteleyn.K_nnz"] += _nnz(result.rows)


def _count_verify(counts, args, kwargs, result):
    counts["correspondence.verify_graphs"] += 1
    if not any(c.name == "corner-tree-enumeration-vs-det"
               for c in result.checks):
        counts["correspondence.ost_enum_declined"] += 1


def _count_spins(counts, args, kwargs, result):
    counts["oracles.spin_configs"] += 2 ** args[0].n_vertices


def _count_tree_pairs(counts, args, kwargs, result):
    counts["correspondence.n_tree_pairs"] += result[1]


# Graph documents only: a verify report's size is left out because its float
# digits depend on set iteration order, hence on the process's hash seed.
def _count_written(counts, args, kwargs, result):
    counts["serialize.bytes_written"] += len(result)


def _count_read(counts, args, kwargs, result):
    counts["serialize.bytes_read"] += len(args[0])


# qualified function name -> hook(counts, args, kwargs, result), run after
# the call returns
HOOKS = {
    "oracles.complex_det": _count_det,
    "oracles.ising_Z": _count_spins,
    "kasteleyn.build_kasteleyn": _count_kasteleyn,
    "correspondence.tree_pair_sum": _count_tree_pairs,
    "correspondence.verify_main_theorem": _count_verify,
    "serialize.dumps_map": _count_written,
    "serialize.map_to_dot": _count_written,
    "serialize.digraph_to_dot": _count_written,
    "serialize.loads_map": _count_read,
}


def _dimer_span(args, kwargs) -> str:
    """dimer_Z runs on the quadri-tiling without a removed vertex and on the
    extended double minus s with one."""
    skip = kwargs.get("skip_vertex", args[2] if len(args) > 2 else None)
    return "oracles.dimer_Z." + ("quadri" if skip is None else "double")


# every counter the hooks and yield counters can produce
COUNTERS = frozenset(YIELD_COUNTS.values()) | {
    "oracles.complex_det_calls", "oracles.det_nnz",
    "oracles.det_flops_dense_computed", "oracles.det_order_max",
    "oracles.spin_configs", "kasteleyn.K_order", "kasteleyn.K_nnz",
    "correspondence.n_tree_pairs", "correspondence.verify_graphs",
    "correspondence.ost_enum_declined", "serialize.bytes_written",
    "serialize.bytes_read"}

SPAN_NAMES = {"oracles.dimer_Z": _dimer_span}
SPLIT_NAMES = {"oracles.dimer_Z": ("oracles.dimer_Z.quadri",
                                   "oracles.dimer_Z.double")}


class Tracer:
    """Records spans and counts while `recording` is true.

    `install` swaps the recorders into the given modules; `uninstall` puts
    the original functions back.
    """

    def __init__(self, modules: dict):
        self.modules = modules          # layer name -> module
        self.recording = False
        self.op = None                  # operation id shared by its spans
        self.spans: list[tuple] = []    # (id, parent, name, start, end, op)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.span_names: set[str] = set()
        self._stack: list[list] = []    # [span id, time covered by children]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or name not in ONLY.get(layer, (name,))):
                    continue
                qual = "%s.%s" % (layer, name)
                if qual in INLINE:
                    continue
                if inspect.isgeneratorfunction(fn):
                    wrappers[fn] = self._yield_counter(
                        YIELD_COUNTS.get(qual, qual + ".yields"), fn)
                else:
                    wrappers[fn] = self._recorder(qual, fn)
                    self.span_names.update(SPLIT_NAMES.get(qual, (qual,)))
        self.span_names.update(AGGREGATES)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in self._saved:
            setattr(mod, name, obj)
        self._saved.clear()

    # -- recorders ----------------------------------------------------------

    def _recorder(self, qual: str, fn):
        clock = time.perf_counter
        name_of = SPAN_NAMES.get(qual)
        hook = HOOKS.get(qual)

        def recorder(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs) if name_of else qual
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, parent[0] if parent else None, name,
                                   start, end, self.op))
                self.self_time[name] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
            if hook is not None:
                t = clock()
                hook(self.counts, args, kwargs, result)
                if parent is not None:
                    parent[1] += clock() - t
            return result

        return recorder

    def _yield_counter(self, counter: str, fn):
        def counted(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return self._count_yields(counter, gen) if self.recording else gen
        return counted

    def _count_yields(self, counter: str, gen):
        n = 0
        try:
            for item in gen:
                n += 1
                yield item
        finally:
            self.counts[counter] += n

    # -- results ------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        """Self time of a span name or of an aggregate in AGGREGATES."""
        if name in AGGREGATES:
            return sum(self.self_time[n] for n in AGGREGATES[name])
        if name not in self.span_names:
            raise KeyError("no span named %r" % name)
        return self.self_time[name]

    def layer_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in self.self_time.items()
                   if n.startswith(prefix))

    def reset(self) -> None:
        self.self_time.clear()
        self.counts.clear()
