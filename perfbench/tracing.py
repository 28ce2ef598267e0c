"""Per-layer spans recorded from outside the program.

:func:`install` replaces the public functions of each ``metricdepth``
layer, in every module that holds a reference to them, with timing
wrappers. A span is ``(name, start, end, parent, op, tag)``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the operation it
belongs to and ``tag`` a detail some layers need (the depth method, the
evaluation count of an out-of-sample result, whether a decode failed).
Spans stay in memory until the run ends. Recording is off unless
``Tracer.enabled`` is set, so traced and untraced rounds can alternate in
one process.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs wrapped as layer boundaries
LAYER_FUNCTIONS = [
    ("spaces", "distance_matrix"),
    ("spaces", "query_distances"),
    ("depths", "depth_values"),
    ("depths", "depth_of_query"),
    ("depths", "mod3_depth_subsampled"),
    ("deepest", "deepest_in_sample"),
    ("deepest", "deepest_out_of_sample"),
    ("deepest", "optimize_box"),
    ("deepest", "cholesky_decode"),
    ("inference", "permutation_test"),
    ("inference", "statistic_from_dm"),
    ("simulation", "gen_correlation_sample"),
    ("simulation", "gen_histogram_groups"),
    ("cli", "main"),
]
# file reads and writes the CLI makes, counted together as ``cli.io``
CLI_IO_FUNCTIONS = ["load_objects", "load_histogram_csv", "read_distance_csv",
                    "write_distance_csv", "dump_report"]

# the layer metrics :func:`summarize` reports, in report order
SUMMARY_METRICS = [
    "spaces.distance_matrix.calls", "spaces.distance_matrix.s",
    "spaces.query_distances.calls", "spaces.query_distances.s",
    "depths.depth_values.calls", "depths.depth_values.s",
    "depths.depth_values.MOD3.s", "depths.depth_values.MOD2.s",
    "depths.depth_values.MLD.s", "depths.depth_values.MSD.s",
    "depths.depth_values.MHD.s",
    "depths.depth_of_query.calls", "depths.depth_of_query.s",
    "depths.mod3_depth_subsampled.calls", "depths.mod3_depth_subsampled.s",
    "deepest.deepest_in_sample.calls", "deepest.deepest_in_sample.s",
    "deepest.deepest_out_of_sample.calls", "deepest.deepest_out_of_sample.s",
    "deepest.optimize_box.calls", "deepest.optimize_box.s", "deepest.optimize_box.self_s",
    "deepest.evaluations",
    "deepest.cholesky_decode.calls", "deepest.cholesky_decode.s",
    "deepest.decode_failures", "deepest.decode_ok_ratio",
    "inference.permutation_test.calls", "inference.permutation_test.s",
    "inference.permutation_test.self_s",
    "inference.statistic_from_dm.calls", "inference.statistic_from_dm.s",
    "simulation.gen_correlation_sample.s", "simulation.gen_histogram_groups.s",
    "cli.main.calls", "cli.main.s", "cli.main.self_s",
    "cli.io.s",
]


def _tag(name, args, kwargs, result, error):
    if name == "depths.depth_values":
        method = args[1] if len(args) > 1 else kwargs.get("method")
        return str(getattr(method, "value", method)).upper()
    if name == "deepest.deepest_out_of_sample" and error is None:
        return int(result.evaluations)
    if name == "deepest.cholesky_decode":
        return "failed" if error is not None else "ok"
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op,
                                     _tag(name, args, kwargs, result, error))
        return wrapper

    def install(self, package):
        """Wrap every layer function of ``package`` (the imported metricdepth)."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for modname, fname in LAYER_FUNCTIONS:
            original = getattr(getattr(package, modname), fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in modules:
                if mod.__dict__.get(fname) is original:
                    setattr(mod, fname, wrapper)
        cli = package.cli
        for fname in CLI_IO_FUNCTIONS:
            setattr(cli, fname, self._wrap("cli.io", getattr(cli, fname)))


def summarize(spans, ops):
    """Per-operation layer metrics from the spans of ``ops`` operations.

    ``calls``, ``s`` and ``self_s`` are totals divided by the number of
    operations; ``self_s`` is a span's duration minus its direct children's.
    Spans outside any operation (``op`` < 0, the set-up) are left out,
    except generator times (``simulation.*.s``): those are seconds per
    call, since data may be generated at set-up rather than inside an
    operation.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, tag in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_s = {}, {}, {}
    method_s = {}
    evaluations = 0
    decode_failed = 0
    for k, (name, start, end, parent, op, tag) in enumerate(spans):
        if op < 0 and not name.startswith("simulation."):
            continue  # set-up work outside any operation
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[k]
        if name == "depths.depth_values":
            method_s[tag] = method_s.get(tag, 0.0) + dur
        elif name == "deepest.deepest_out_of_sample" and tag is not None:
            evaluations += tag
        elif name == "deepest.cholesky_decode" and tag == "failed":
            decode_failed += 1
    per = 1.0 / max(ops, 1)
    out = {}
    for modname, fname in LAYER_FUNCTIONS:
        name = f"{modname}.{fname}"
        if modname == "simulation":
            n = calls.get(name, 0)
            out[f"{name}.s"] = (total.get(name, 0.0) / n, "s") if n else (0.0, "s")
            continue
        out[f"{name}.calls"] = (calls.get(name, 0) * per, "count")
        out[f"{name}.s"] = (total.get(name, 0.0) * per, "s")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) * per, "s")
    for method in ("MOD3", "MOD2", "MLD", "MSD", "MHD"):
        out[f"depths.depth_values.{method}.s"] = (method_s.get(method, 0.0) * per, "s")
    decodes = calls.get("deepest.cholesky_decode", 0)
    out["deepest.evaluations"] = (evaluations * per, "count")
    out["deepest.decode_failures"] = (decode_failed * per, "count")
    out["deepest.decode_ok_ratio"] = (
        (decodes - decode_failed) / decodes if decodes else 1.0, "ratio")
    out["cli.io.s"] = (total.get("cli.io", 0.0) * per, "s")
    return {name: out[name] for name in SUMMARY_METRICS}
