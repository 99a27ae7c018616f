"""Span recorder for the traced run.

Spans are (id, name, start, end, parent, counts).  They are installed by
replacing module attributes of the program with timing wrappers, in the
traced process only, and kept in memory until the run writes them out.
Every binding of a wrapped function inside the package is replaced, so
package-level re-exports (``rankr.iwasawa``) are traced too.  A target
that a refactor has removed is reported as missing instead of failing
the run.

Spans opened on worker threads with no open span of their own take the
main thread's innermost open span as parent, so work fanned out to a
thread pool is charged to the stage that started it.  Self time is a
span's duration minus the union of its children's intervals.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts")

    def __init__(self, sid, name, start, parent):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}

    def as_row(self):
        return [self.id, self.name, self.start, self.end, self.parent, self.counts]


class Recorder:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self.context = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        if not self.enabled:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def close(self, span):
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper; hooks run inside the span and may add counts."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rec.open(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                if before is not None:
                    before(rec, span, fn, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, span, args, kwargs, result)
                return result
            finally:
                rec.close(span)

        return traced


# ---------------------------------------------------------------------------
# Count hooks.  Each gets (recorder, span, args, kwargs, result).


def _count(key, measure):
    def after(rec, span, args, kwargs, result):
        span.counts[key] = span.counts.get(key, 0) + int(measure(args, result))

    return after


def _rows_of_first_arg(args, result):
    return len(args[0])


def _rows_of_second_arg(args, result):
    return len(args[1])


def _set_eps(rec, span, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    rec.context["eps"] = float(bound.arguments.get("eps", np.nan))


def _refine_counts(rec, span, args, kwargs, result):
    dists = np.asarray(result)
    span.counts["rows"] = int(dists.size)
    span.counts["hits"] = int((dists < rec.context.get("eps", np.nan)).sum())


def _word_values_counts(rec, span, args, kwargs, result):
    span.counts["max_rows"] = len(result[0])


def _classify_counts(rec, span, args, kwargs, result):
    tags = result[0]
    span.counts["unresolved"] = int(sum(1 for t in tags if t == "unresolved"))


def _cyclic_counts(rec, span, args, kwargs, result):
    span.counts["rows_in"] = len(args[0])
    span.counts["kept"] = len(result)


def _csv_bytes(rec, span, args, kwargs, result):
    span.counts["bytes"] = len(result)


class _TracedTree:
    """KD-tree proxy that records query spans, query points and hits."""

    def __init__(self, rec, tree):
        self._rec = rec
        self._tree = tree

    def query(self, x, *args, **kwargs):
        span = self._rec.open("limitset.kdtree.query")
        try:
            result = self._tree.query(x, *args, **kwargs)
        finally:
            self._rec.close(span)
        if span is not None:
            k = kwargs.get("k", args[0] if args else 1)
            per = k if np.isscalar(k) else len(k)
            points = 1 if np.ndim(x) == 1 else len(x)
            span.counts["queries"] = points
            span.counts["candidates"] = points * int(per)
        return result

    def query_ball_point(self, x, r, *args, **kwargs):
        span = self._rec.open("limitset.kdtree.query")
        try:
            result = self._tree.query_ball_point(x, r, *args, **kwargs)
        finally:
            self._rec.close(span)
        if span is not None:
            if np.ndim(x) == 1:
                span.counts["queries"] = 1
                span.counts["candidates"] = len(result)
            else:
                span.counts["queries"] = len(x)
                span.counts["candidates"] = int(sum(len(h) for h in result))
        return result

    def __getattr__(self, name):
        return getattr(self._tree, name)


def _traced_tree_factory(rec, cls):
    def make(*args, **kwargs):
        span = rec.open("limitset.kdtree.build")
        try:
            tree = cls(*args, **kwargs)
        finally:
            rec.close(span)
        return _TracedTree(rec, tree)

    return make


# (module, attribute, span name, before hook, after hook)
TARGETS = [
    ("cli", "load_spec", "cli.load_spec", None, None),
    ("cli", "build_group", "cli.build_group", None, None),
    ("cli", "_write_json", "cli.emit", None, None),
    ("plotting", "write_chart", "cli.emit", None, None),
    ("limitset", "enumerate_samples", "limitset.enumerate_samples", None, None),
    ("limitset", "_word_values", "limitset.word_values", None, _word_values_counts),
    ("limitset", "_grow_block", "limitset.grow", None,
     _count("rows", lambda args, result: len(result[0]))),
    ("limitset", "_stack_cartan", "limitset.cartan", None,
     _count("rows", _rows_of_first_arg)),
    ("limitset", "_stack_log_moduli", "limitset.moduli", None,
     _count("rows", _rows_of_first_arg)),
    ("limitset", "_classify_stack", "limitset.classify_stack", None, _classify_counts),
    ("limitset", "_cyclic_canonical", "limitset.cyclic_canonical", None, _cyclic_counts),
    ("limitset", "limit_cone_sample", "limitset.limit_cone_sample", None, None),
    ("limitset", "directional_sample", "limitset.directional_sample", None, None),
    ("limitset", "one_sided_distance", "limitset.one_sided_distance", None, None),
    ("limitset", "cone_theorem_check", "limitset.cone_theorem_check", None, None),
    ("limitset", "minimality_check", "limitset.minimality_check", _set_eps, None),
    ("limitset", "product_structure_check", "limitset.product_structure_check",
     _set_eps, None),
    ("limitset", "axial_density_check", "limitset.axial_density_check",
     _set_eps, None),
    ("limitset", "_exact_flag_dists", "limitset.refine", None, _refine_counts),
    ("limitset", "write_csv", "limitset.write_csv", None, _csv_bytes),
    ("boundary", "flag_from_frame", "boundary.flag_convert", None, None),
    ("boundary", "flag_frame", "boundary.flag_convert", None, None),
    ("boundary", "act_frames", "boundary.act_frames", None,
     _count("frames", _rows_of_second_arg)),
    ("boundary", "frames_to_projector_stack", "boundary.projector_stack", None,
     _count("frames", _rows_of_first_arg)),
    ("boundary", "act", "boundary.act", None, None),
    ("boundary", "busemann", "boundary.busemann", None, None),
    ("boundary", "transverse", "boundary.transverse", None, None),
    ("boundary", "directional_distance", "boundary.directional_distance", None, None),
    ("schottky", "build_table", "schottky.build_table", None, None),
    ("schottky", "certify_klein", "schottky.certify", None, None),
    ("schottky", "check_nonelementary", "schottky.check_nonelementary", None, None),
    ("schottky", "sample_flags_near", "schottky.sample_flags_near", None,
     _count("samples", _rows_of_second_arg)),
    ("schottky", "_generator_margin", "schottky.generator_margin", None, None),
    ("decompositions", "cartan_decompose", "decompositions.cartan_decompose",
     None, None),
    ("decompositions", "point_distance", "decompositions.point_distance", None, None),
    ("decompositions", "iwasawa", "decompositions.iwasawa", None, None),
    ("kernel", "jacobi_eigh", "kernel.jacobi_eigh", None, None),
    ("kernel", "qr_decompose", "kernel.qr_decompose", None, None),
    ("kernel", "eig_real", "kernel.eig_real", None, None),
    ("isometries", "classify", "isometries.classify", None, None),
    ("isometries", "jordan_decompose", "isometries.jordan_decompose", None, None),
    ("isometries", "fixed_points", "isometries.fixed_points", None, None),
]


class Instrumentation:
    """Installs the TARGETS wrappers on a package and takes them off again."""

    def __init__(self, rec, package):
        self.rec = rec
        self.package = package
        self.missing = []
        self._patched = []

    def _owners(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith(prefix) and m is not None
        ]

    def _replace(self, original, wrapper):
        for owner in self._owners():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def install(self):
        prefix = self.package.__name__ + "."
        for module_name, attr, span_name, before, after in TARGETS:
            module = sys.modules.get(prefix + module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._replace(original, self.rec.wrap(span_name, original, before, after))
        limitset = sys.modules.get(prefix + "limitset")
        tree_cls = getattr(limitset, "cKDTree", None)
        if tree_cls is None:
            self.missing.append("limitset.cKDTree")
        else:
            self._patched.append((limitset, "cKDTree", tree_cls))
            limitset.cKDTree = _traced_tree_factory(self.rec, tree_cls)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


# ---------------------------------------------------------------------------
# Aggregation


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def aggregate(spans):
    """Per-name totals: calls, total_s, self_s and summed counts.

    Counts named max_* are maxima.  Every span is also filed under
    "<parent name>><name>", so callers can select calls by their caller."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    agg = defaultdict(lambda: defaultdict(float))
    for s in spans:
        duration = s.end - s.start
        own = duration - _union_length(children[s.id], s.start, s.end)
        keys = [s.name]
        parent = by_id.get(s.parent)
        if parent is not None:
            keys.append(f"{parent.name}>{s.name}")
        for key in keys:
            entry = agg[key]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own
            for name, value in s.counts.items():
                if name.startswith("max_"):
                    entry[name] = max(entry[name], value)
                else:
                    entry[name] += value
    return agg


class Tally:
    """Read access to aggregate(); absent spans and counts read as 0."""

    def __init__(self, agg):
        self.agg = agg

    def get(self, key, field):
        entry = self.agg.get(key)
        return float(entry.get(field, 0.0)) if entry else 0.0


def peak_mb(fn):
    """Peak traced allocation of fn() in MB, measured with tracemalloc.

    Kept out of the traced pass: tracing allocations slows Python-heavy
    stages and would distort their span times."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def top_coverage(spans, wall):
    """Share of wall time covered by the spans directly under step roots."""
    roots = {s.id: s for s in spans if s.name.startswith("step.")}
    covered = 0.0
    for root in roots.values():
        intervals = [(s.start, s.end) for s in spans if s.parent == root.id]
        covered += _union_length(intervals, root.start, root.end)
    return covered / wall if wall > 0 else 0.0
