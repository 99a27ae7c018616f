"""What the benchmark measures, and why.

This module is the source of BENCHMARK.json: ``python3 perfbench/spec.py``
prints it, and the benchmark refuses to run when the file at the root of
the checkout disagrees.  Each per-layer metric carries the end-to-end
metric and workload it should move (``moves``); BENCHMARK.json has no
field for that, so it lives here.
"""

import json
import os
import sys

RUN_SECONDS = 40

WORKLOADS = [
    ("enumerate",
     "producer side of enumeration: sl3 enumerate and cone with CSV (growth, "
     "Cartan, moduli, frame SVD, dedupe, CSV) and a seeded SL(8) enumerate "
     "(compounds, classifier at n=8)"),
    ("query",
     "consumer side and per-object paths: sl3 minimality, product, axdens "
     "(KD queries, refine, Flag conversions), schottky build at 2000 and "
     "seeded scalar calls for n=2..8"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _field(key, field):
    return lambda t, x: t.get(key, field)


def _self(key):
    return _field(key, "self_s")


def _calls(key):
    return _field(key, "calls")


def _extra(key):
    return lambda t, x: x.get(key, 0.0)


ORBIT = "sl3_enumerate_words_per_s and sl8_enumerate_words_per_s on enumerate"
DENSITY = ("minimality_s, product_s and axdens_s on query; no change to the "
           "other steps")
POINTWISE = "pointwise_calls_per_s on query"
SCHOTTKY = ("schottky_build_s on query; per-command time elsewhere, since the "
            "table is rebuilt per command")

# (name, unit, better, moves, value(tally, extra))
PER_LAYER = [
    ("limitset.grow.self_s", "s", "lower", "cone_s on enumerate",
     _self("limitset.grow")),
    ("limitset.grow.rows", "count", "lower", "cone_s on enumerate",
     _field("limitset.grow", "rows")),
    ("limitset.grow.rows_per_word", "ratio", "lower",
     "cone_s on enumerate; exposes the repeated enumerations of cone",
     lambda t, x: _ratio(t.get("limitset.grow", "rows"),
                         t.get("limitset.word_values", "max_rows"))),
    ("limitset.cartan.self_s", "s", "lower",
     "sl8_enumerate_words_per_s (most) and sl3_enumerate_words_per_s on enumerate",
     _self("limitset.cartan")),
    ("limitset.cartan.rows", "count", "lower",
     "sl8_enumerate_words_per_s and sl3_enumerate_words_per_s on enumerate",
     _field("limitset.cartan", "rows")),
    ("limitset.moduli.self_s", "s", "lower",
     "sl8_enumerate_words_per_s (most) and sl3_enumerate_words_per_s on enumerate",
     _self("limitset.moduli")),
    ("limitset.moduli.rows", "count", "lower",
     "sl8_enumerate_words_per_s and sl3_enumerate_words_per_s on enumerate",
     _field("limitset.moduli", "rows")),
    ("limitset.frames_svd.self_s", "s", "lower", ORBIT,
     _self("limitset.enumerate_samples")),
    ("limitset.classify_slow.rows", "count", "lower",
     "sl8_enumerate_words_per_s on enumerate",
     _calls("limitset.classify_stack>isometries.classify")),
    # Inclusive time of the per-matrix classify calls: the slow path's cost.
    ("limitset.classify_slow.self_s", "s", "lower",
     "sl8_enumerate_words_per_s on enumerate",
     _field("limitset.classify_stack>isometries.classify", "total_s")),
    ("limitset.unresolved.rows", "count", "lower",
     "sl8_enumerate_words_per_s on enumerate",
     _field("limitset.classify_stack", "unresolved")),
    ("limitset.cyclic_canonical.self_s", "s", "lower",
     "cone_s and peak_rss_mb on enumerate",
     _self("limitset.cyclic_canonical")),
    ("limitset.cone.kept_ratio", "ratio", "higher",
     "cone_s and peak_rss_mb on enumerate",
     lambda t, x: _ratio(t.get("limitset.cyclic_canonical", "kept"),
                         t.get("limitset.cyclic_canonical", "rows_in"))),
    ("limitset.kdtree.build_s", "s", "lower", DENSITY,
     _field("limitset.kdtree.build", "total_s")),
    ("limitset.kdtree.query_s", "s", "lower", DENSITY,
     _field("limitset.kdtree.query", "total_s")),
    ("limitset.kdtree.queries", "count", "lower", DENSITY,
     _field("limitset.kdtree.query", "queries")),
    ("limitset.kdtree.candidates", "count", "lower", DENSITY,
     _field("limitset.kdtree.query", "candidates")),
    ("limitset.refine.self_s", "s", "lower", DENSITY, _self("limitset.refine")),
    ("limitset.refine.hit_ratio", "ratio", "higher", DENSITY,
     lambda t, x: _ratio(t.get("limitset.refine", "hits"),
                         t.get("limitset.refine", "rows"))),
    ("limitset.write_csv.self_s", "s", "lower",
     "sl3_enumerate_words_per_s and peak_rss_mb on enumerate",
     _self("limitset.write_csv")),
    ("limitset.write_csv.bytes", "B", "lower",
     "sl3_enumerate_words_per_s on enumerate; must not change (byte-identical CSV)",
     _field("limitset.write_csv", "bytes")),
    ("limitset.enumerate.peak_mb", "MB", "lower",
     "sl3_enumerate_words_per_s and peak_rss_mb on enumerate",
     _extra("limitset.enumerate.peak_mb")),
    ("boundary.flag_convert.self_s", "s", "lower",
     "minimality_s and schottky_build_s on query",
     _self("boundary.flag_convert")),
    ("boundary.flag_convert.calls", "count", "lower",
     "minimality_s and schottky_build_s on query",
     _calls("boundary.flag_convert")),
    ("boundary.act_frames.self_s", "s", "lower",
     "minimality_s and schottky_build_s on query",
     _self("boundary.act_frames")),
    ("boundary.act_frames.frames", "count", "lower",
     "minimality_s and schottky_build_s on query",
     _field("boundary.act_frames", "frames")),
    ("boundary.projector_stack.self_s", "s", "lower",
     "minimality_s and schottky_build_s on query",
     _self("boundary.projector_stack")),
    ("boundary.projector_stack.frames", "count", "lower",
     "minimality_s and schottky_build_s on query",
     _field("boundary.projector_stack", "frames")),
    ("boundary.act.self_s", "s", "lower", POINTWISE, _self("boundary.act")),
    ("boundary.act.calls", "count", "lower", POINTWISE, _calls("boundary.act")),
    ("boundary.busemann.self_s", "s", "lower", POINTWISE, _self("boundary.busemann")),
    ("boundary.busemann.calls", "count", "lower", POINTWISE,
     _calls("boundary.busemann")),
    ("boundary.transverse.self_s", "s", "lower", POINTWISE,
     _self("boundary.transverse")),
    ("boundary.transverse.calls", "count", "lower", POINTWISE,
     _calls("boundary.transverse")),
    ("schottky.build_table.self_s", "s", "lower", SCHOTTKY,
     _self("schottky.build_table")),
    ("schottky.power_steps", "count", "lower", SCHOTTKY,
     _calls("schottky.build_table>schottky.generator_margin")),
    ("schottky.certify.self_s", "s", "lower", SCHOTTKY, _self("schottky.certify")),
    ("schottky.sample_flags_near.self_s", "s", "lower", SCHOTTKY,
     _self("schottky.sample_flags_near")),
    ("schottky.samples", "count", "lower", SCHOTTKY,
     _field("schottky.sample_flags_near", "samples")),
    ("schottky.generator_margin.self_s", "s", "lower", SCHOTTKY,
     _self("schottky.generator_margin")),
    ("decompositions.cartan_decompose.self_s", "s", "lower",
     POINTWISE + "; nothing on enumerate",
     _self("decompositions.cartan_decompose")),
    ("decompositions.cartan_decompose.calls", "count", "lower",
     POINTWISE + "; nothing on enumerate",
     _calls("decompositions.cartan_decompose")),
    ("kernel.jacobi_eigh.self_s", "s", "lower",
     POINTWISE + "; nothing on enumerate", _self("kernel.jacobi_eigh")),
    ("kernel.jacobi_eigh.calls", "count", "lower",
     POINTWISE + "; nothing on enumerate", _calls("kernel.jacobi_eigh")),
    ("decompositions.iwasawa.self_s", "s", "lower",
     POINTWISE + "; nothing on enumerate",
     _self("decompositions.iwasawa")),
    ("kernel.qr_decompose.self_s", "s", "lower",
     POINTWISE + "; nothing on enumerate", _self("kernel.qr_decompose")),
    ("kernel.qr_decompose.calls", "count", "lower",
     POINTWISE + "; nothing on enumerate", _calls("kernel.qr_decompose")),
    ("isometries.classify.self_s", "s", "lower",
     POINTWISE + "; sl8_enumerate_words_per_s on enumerate",
     _self("isometries.classify")),
    ("isometries.classify.calls", "count", "lower",
     POINTWISE + "; sl8_enumerate_words_per_s on enumerate",
     _calls("isometries.classify")),
    ("isometries.jordan_decompose.self_s", "s", "lower",
     POINTWISE + "; sl8_enumerate_words_per_s on enumerate",
     _self("isometries.jordan_decompose")),
    ("isometries.eig_attempts_per_call", "ratio", "lower",
     POINTWISE + "; sl8_enumerate_words_per_s on enumerate",
     lambda t, x: _ratio(t.get("isometries.jordan_decompose>kernel.eig_real", "calls"),
                         t.get("isometries.jordan_decompose", "calls"))),
    ("isometries.fixed_points.self_s", "s", "lower",
     POINTWISE + "; sl8_enumerate_words_per_s on enumerate",
     _self("isometries.fixed_points")),
    ("cli.build_group.self_s", "s", "lower",
     "per-command times of the sl3 steps on enumerate and query", _self("cli.build_group")),
    ("cli.build_group.calls", "count", "lower",
     "per-command times of the sl3 steps on enumerate and query", _calls("cli.build_group")),
    ("cli.emit.self_s", "s", "lower",
     "per-command times of the sl3 steps on enumerate and query", _self("cli.emit")),
    ("trace_overhead_frac", "ratio", "lower",
     "nothing: traced wall_s over untraced wall_s, minus 1",
     _extra("trace_overhead_frac")),
    ("trace.top_span_coverage", "ratio", "higher",
     "nothing: share of traced wall_s under spans directly below the steps",
     _extra("trace.top_span_coverage")),
]

# Scaling tables of the traced run: reported, not gated.
SCALING_N = (4, 6, 8)
SCALING_L = (6, 7, 8, 9, 10)
for _n in SCALING_N:
    for _stage in ("cartan", "moduli"):
        PER_LAYER.append(
            (f"scaling.{_stage}.us_per_word.n{_n}", "us/word", "lower",
             f"sl8_enumerate_words_per_s on enumerate (recipe at n={_n})",
             _extra(f"scaling.{_stage}.us_per_word.n{_n}")))
for _l in SCALING_L:
    PER_LAYER.append(
        (f"scaling.grow.us_per_word.L{_l}", "us/word", "lower",
         f"sl3_enumerate_words_per_s and cone_s on enumerate (L={_l})",
         _extra(f"scaling.grow.us_per_word.L{_l}")))


def detail_unit(key) -> str:
    """Unit of a workload metric on the detail line."""
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.startswith("pointwise_call_us"):
        return "us"
    return "ratio"


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }


def check_benchmark_json(root) -> str | None:
    """None when BENCHMARK.json at root matches this module, else why not."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            found = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return f"cannot read {path}: {exc}"
    if found != benchmark_json():
        return f"{path} disagrees with perfbench/spec.py"
    return None


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
