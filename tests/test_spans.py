"""The benchmark's span targets name functions of the package.

perfbench/spans.py traces a run by wrapping the functions it lists in
TARGETS, and reports a target it cannot find as missing instead of
failing; a refactor that renames a traced function would silently zero
its spans, and one that changes what a traced function returns can break
the hook that counts its rows.  These tests read the file itself."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import rankr
from rankr import limitset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Targets whose functions are already gone; the benchmark lists them as
# missing until its span list is revised.
GONE = {("limitset", "_cyclic_canonical"), ("kernel", "jacobi_eigh")}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return [(module, attr) for module, attr, *_ in _spans().TARGETS]


def test_span_targets_exist():
    targets = _targets()
    assert GONE <= set(targets)
    for module, attr in targets:
        found = callable(getattr(importlib.import_module(f"rankr.{module}"), attr, None))
        # A target in GONE that comes back leaves GONE.
        assert found == ((module, attr) not in GONE), f"{module}.{attr}"


def test_traced_growth_counts_every_grown_row(sl3_group):
    spans = _spans()
    rec = spans.Recorder()
    hooks = spans.Instrumentation(rec, rankr)
    try:
        hooks.install()
        rec.enabled = True
        limitset.enumerate_samples(sl3_group[0], 5)
    finally:
        rec.enabled = False
        hooks.uninstall()
    tally = spans.Tally(spans.aggregate(rec.spans))
    words = limitset.word_count(2, 5)
    # Every word but the identity is grown once.
    assert tally.get("limitset.grow", "rows") == words - 1
    assert tally.get("limitset.word_values", "max_rows") == words


def test_fresh_import_traces_the_lazy_kd_tree():
    # limitset imports cKDTree on first use; the benchmark finds it by
    # getattr on a fresh import all the same, and its trees open spans.
    code = f"""
import importlib.util, sys
sys.path.insert(0, {str(SPANS.parents[1] / "src")!r})
import numpy as np
import rankr, rankr.cli
from rankr import limitset
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
rec = spans.Recorder()
hooks = spans.Instrumentation(rec, rankr)
hooks.install()
rec.enabled = True
limitset.one_sided_distance(np.eye(3), np.ones((2, 3)))
rec.enabled = False
hooks.uninstall()
print(",".join(sorted(hooks.missing)))
print(spans.Tally(spans.aggregate(rec.spans)).get("limitset.kdtree.build", "calls"))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [",".join(sorted(f"{m}.{a}" for m, a in GONE)), "1.0"]
