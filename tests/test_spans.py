"""The benchmark's span targets name functions of the package.

perfbench/spans.py traces a run by wrapping the functions it lists in
TARGETS, and reports a target it cannot find as missing instead of
failing; a refactor that renames a traced function would silently zero
its spans.  This test reads the list from the file itself."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Targets whose functions are already gone; the benchmark lists them as
# missing until its span list is revised.
GONE = {("limitset", "_cyclic_canonical"), ("kernel", "jacobi_eigh")}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS]


def test_span_targets_exist():
    targets = _targets()
    assert GONE <= set(targets)
    for module, attr in targets:
        found = callable(getattr(importlib.import_module(f"rankr.{module}"), attr, None))
        # A target in GONE that comes back leaves GONE.
        assert found == ((module, attr) not in GONE), f"{module}.{attr}"
