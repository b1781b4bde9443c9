"""isingtree benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_verify --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; nothing is built or
installed.  One process, one thread.

A run has three phases:

1. Set-up, repeated ``SETUP_REPS`` times: a fresh import of every layer
   module, the seed's inputs, and one warm-up operation (the workload's
   first graph).  ``setup_s`` is the median.
2. Timed passes over every graph of the workload, repeated until
   ``--seconds`` have passed, with tracing off.  ``wall_s`` is one pass:
   the sum over graphs of each graph's median time.

   ``wall_s`` and ``setup_s`` are in reference-host seconds: each time is
   scaled by ``HOST_REF_S`` over the time of a fixed calibration loop run
   just before and after it, which cancels most of the host's speed drift
   (``calibrate``; NOTES.md has the measurements).  The raw times are
   printed too, as ``wall_raw_s`` and ``setup_raw_s``.
3. With ``--trace 1`` only: two more passes with every public function of
   every layer module wrapped by a span recorder (see tracing.py).  The
   per-layer metrics come from these passes, the counts of the two must be
   identical, and the spans are written to ``perfbench/out/``.

Every operation's output is checked; a failed check or an exception counts
as a failed operation.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that BENCHMARK.json
names for the mode: its ``end_to_end`` list with ``--trace 0``, its
``per_layer`` list with ``--trace 1``.  The exit code is 0 only when every
check passed.  Without ``src/isingtree`` in the checkout the run exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, Stopwatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5
TRACED_PASSES = 2

# per-layer metric names that do not follow "<span name>_s"
SELF_ALIASES = {"oracles.matrix_tree_Z_self_s": "oracles.matrix_tree_Z",
                "cli.main_self_s": "cli.main"}


# Seconds the calibration loop takes on the reference host; normalised
# times read as seconds on a host where `calibrate()` takes this long.
HOST_REF_S = 0.03


def calibrate() -> float:
    """Time a fixed pure-Python loop that does not use the package.

    The measuring host's speed drifts by up to 1.5x over tens of seconds
    (see NOTES.md).  Timing this loop right before and after an operation
    measures the host's speed at that moment, and dividing by it cancels
    most of the drift while leaving every change in the package's own
    speed visible.  The loop mixes what the package's hot paths do: tuple
    keys in dicts, small frozensets, complex arithmetic and a keyed sort.
    """
    start = time.perf_counter()
    counts: dict = {}
    acc = 0j
    for i in range(20000):
        key = ("w", i % 977, i & 7)
        counts[key] = counts.get(key, 0) + 1
        acc += complex(i % 13, 1.0) * (0.5 - 0.25j)
        if len(frozenset((i, i + 1, i % 5))) == 2:
            acc -= 1
    pairs = [(i, -i) for i in range(20000)]
    pairs.sort(key=lambda p: p[1])
    return time.perf_counter() - start


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_package() -> SimpleNamespace:
    """Import every layer module afresh from the checkout's src/."""
    if not (SRC / "isingtree" / "__init__.py").is_file():
        raise SetupError("no package at %s" % (SRC / "isingtree"))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules
                if k == "isingtree" or k.startswith("isingtree.")]:
        del sys.modules[key]
    mods = SimpleNamespace(**{
        layer: importlib.import_module("isingtree." + layer)
        for layer in tracing.LAYERS})
    if SRC not in Path(mods.cli.__file__).resolve().parents:
        raise SetupError("isingtree imported from %s, not from %s"
                         % (mods.cli.__file__, SRC))
    return mods


class Tally:
    """Operations attempted and failed, and per-graph times: raw, and
    normalised by the host speed `calibrate` measured around each one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.normalised: dict[str, list[float]] = {}
        self.calibrations: list[float] = []

    def run_op(self, wl, name, pass_index, tracer=None):
        """Run one operation; returns (seconds, checks, skipped) or None."""
        watch = Stopwatch(tracer)
        self.attempted += 1
        if tracer is not None:
            tracer.op = "%s/%d" % (name, self.attempted)
        try:
            checks, skipped, problems = wl.run(name, watch, pass_index)
        except Exception:
            self.failed += 1
            self.problems.append("%s: %s" % (name, traceback.format_exc()))
            return None
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (name, p) for p in problems)
        return watch.seconds, checks, skipped

    def run_pass(self, wl, pass_index, tracer=None):
        """One pass over every graph; returns (seconds, checks, skipped).
        Untraced passes record each graph's time."""
        total = [0.0, 0, 0]
        for name, _kind, _params in wl.GRAPHS:
            gc.collect()
            before = calibrate() if tracer is None else 0.0
            res = self.run_op(wl, name, pass_index, tracer)
            if res is None:
                continue
            if tracer is None:
                host = (before + calibrate()) / 2
                self.calibrations.append(host)
                self.times.setdefault(name, []).append(res[0])
                self.normalised.setdefault(name, []).append(
                    res[0] * HOST_REF_S / host)
            for i, x in enumerate(res):
                total[i] += x
        return tuple(total)


def set_up(workload_cls, seed, workdir, tally):
    """SETUP_REPS fresh set-ups; returns the last (modules, workload) and
    the median set-up time, raw and normalised."""
    raw, normalised = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        mods = import_package()
        wl = workload_cls(mods, seed, workdir)
        tally.run_op(wl, wl.GRAPHS[0][0], 0)
        raw.append(time.perf_counter() - start)
        normalised.append(raw[-1] * HOST_REF_S * 2 / (before + calibrate()))
    return mods, wl, statistics.median(raw), statistics.median(normalised)


def traced_values(wl, tracer, per_layer, tally):
    """Run TRACED_PASSES traced passes on the inputs of pass 0 (the same
    beta and darts, so the counts must repeat); returns (per-layer values,
    counts of each pass, traced pass seconds)."""
    values, counts, walls = [], [], []
    tracer.install()
    try:
        for i in range(TRACED_PASSES):
            tracer.reset()
            seconds, _checks, skipped = tally.run_pass(wl, 0, tracer)
            walls.append(seconds)
            counts.append(dict(tracer.counts))
            values.append(layer_values(wl, tracer, per_layer, seconds, skipped))
    finally:
        tracer.uninstall()
    # times are medians; counts are equal in every pass (checked by the caller)
    merged = {k: statistics.median(v[k] for v in values) if k.endswith("_s")
              else values[0][k] for k in values[0]}
    return merged, counts, statistics.median(walls)


def layer_values(wl, tracer, per_layer, traced_wall, skipped):
    """Per-layer metrics of one traced pass, except op.* and trace.*."""
    out = {}
    for spec in per_layer:
        name = spec["name"]
        if name.startswith(("op.", "trace.")):
            continue
        if name in SELF_ALIASES:
            out[name] = tracer.self_seconds(SELF_ALIASES[name])
        elif name.startswith("layer."):
            layer = name[len("layer."):-len("_s")]
            if layer not in tracing.LAYERS:
                raise KeyError("unknown layer in %r" % name)
            out[name] = tracer.layer_seconds(layer)
        elif name in tracing.COUNTERS:
            out[name] = tracer.counts.get(name, 0)
        elif name == "generators.V":
            out[name] = sum(wl.sizes(g)[0] for g, _k, _p in wl.GRAPHS)
        elif name == "generators.E":
            out[name] = sum(wl.sizes(g)[1] for g, _k, _p in wl.GRAPHS)
        elif name == "report.checks_skipped":
            out[name] = skipped
        elif name.endswith("_s"):
            out[name] = tracer.self_seconds(name[:-len("_s")])
        else:
            raise KeyError("no rule for per-layer metric %r" % name)
    spans = sum(tracer.self_time.values())
    out["trace.wall_s"] = traced_wall
    out["trace.outside_spans_s"] = traced_wall - spans
    listed = sum(v for k, v in out.items() if k.endswith("_s")
                 and not k.startswith(("layer.", "trace.")))
    out["trace.listed_share"] = listed / traced_wall
    return out


def op_values(wl, per_layer, wall):
    """op.<workload>.<graph>_s: median untraced time of each graph; 0 for
    the graphs of other workloads."""
    known = {"op.%s.%s_s" % (w.name, g): (w is type(wl), g)
             for w in WORKLOADS.values() for g, _k, _p in w.GRAPHS}
    out = {}
    for spec in per_layer:
        name = spec["name"]
        if not name.startswith("op."):
            continue
        if name not in known:
            raise KeyError("unknown graph metric %r" % name)
        mine, graph = known[name]
        out[name] = statistics.median(wall[graph]) if mine else 0.0
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        OUT.mkdir(parents=True, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="export-", dir=OUT)
    except OSError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    try:
        return measure(args, spec, workdir)
    except SetupError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir) -> int:
    tally = Tally()
    mods, wl, setup_raw_s, setup_s = set_up(WORKLOADS[args.workload],
                                            args.seed, workdir, tally)
    print("workload=%s seed=%d %s" % (wl.name, args.seed,
                                      json.dumps(wl.describe())))

    checks, skipped = [], []
    start = time.perf_counter()
    while not checks or time.perf_counter() - start < args.seconds:
        _seconds, c, s = tally.run_pass(wl, len(checks) + 1)
        checks.append(c)
        skipped.append(s)
    wall_raw_s = sum(statistics.median(v) for v in tally.times.values())
    wall_s = sum(statistics.median(v) for v in tally.normalised.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    if args.trace:
        tracer = tracing.Tracer(vars(mods))
        values, counts, traced_wall = traced_values(
            wl, tracer, spec["per_layer"], tally)
        values.update(op_values(wl, spec["per_layer"], tally.times))
        values["trace.overhead_s"] = traced_wall - wall_raw_s
        if any(c != counts[0] for c in counts):
            correct = False
            tally.problems.append("counts differ between traced passes: %r"
                                  % counts)
        write_spans(args, wl, tracer)
        chosen = spec["per_layer"]
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss_mb,
                  "checks_run": statistics.median_low(checks)}
        chosen = spec["end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in chosen}

    for line in tally.problems[:20]:
        print("FAILED %s" % line.rstrip(), file=sys.stderr)
    summary = {
        "passes": (len(checks), "count"),
        "ops_attempted": (tally.attempted, "count"),
        "ops_failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "checks_skipped": (statistics.median_low(skipped), "count"),
        "wall_raw_s": (wall_raw_s, "s"),
        "setup_raw_s": (setup_raw_s, "s"),
        "host_slowdown": (statistics.median(tally.calibrations) / HOST_REF_S,
                          "ratio"),
    }
    for name, (value, unit) in {**summary, **metrics}.items():
        print("%-44s %16.6g %s" % (name, value, unit))
    correct = correct and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def write_spans(args, wl, tracer) -> None:
    path = OUT / ("spans-%s-seed%d.json" % (wl.name, args.seed))
    doc = {"workload": wl.name, "seed": args.seed, **wl.describe(),
           "spans": [dict(zip(("id", "parent", "name", "start", "end", "op"), s))
                     for s in tracer.spans]}
    path.write_text(json.dumps(doc) + "\n")
    print("spans: %d written to %s" % (len(tracer.spans), path.relative_to(ROOT)))


if __name__ == "__main__":
    sys.exit(main())
