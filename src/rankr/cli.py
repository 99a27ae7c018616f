"""Batch command-line interface.

Subcommands: decompose (matrix factorizations and classification),
schottky (build or re-check ping-pong tables) and limitset (orbit
enumeration and the limit-set experiments).  Group specs are JSON; see
load_spec for the schema.  Exit codes: 0 success, 1 malformed input,
2 numerical-reliability error, 3 power escalation exhausted,
4 certification failed, 5 empty sample.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import (
    boundary,
    decompositions,
    defaults,
    isometries,
    lie,
    limitset,
    plotting,
    schottky,
)
from .errors import (
    EmptySample,
    IllConditionedCell,
    IllConditionedSpectrum,
    PowerExhausted,
    RankrError,
    SpecError,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_ILL_CONDITIONED = 2
EXIT_POWER_EXHAUSTED = 3
EXIT_CERT_FAILED = 4
EXIT_EMPTY_SAMPLE = 5

# Largest schottky --resolution, five times the default.  Memory grows with
# resolution * n^3 (the Cayley basis and eigenvector outer products of one
# neighbourhood): certifying groupspecs/sl3_l2.json peaks at about 1.9 kB
# per sample under tracemalloc, so tens of kB per sample at n = 8.
MAX_RESOLUTION = 10_000


def config_hash(spec: dict) -> str:
    """sha256 of the canonical (key-sorted) JSON; field order never matters."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _chamber_center(n: int) -> np.ndarray:
    h = np.arange(n - 1, -(n + 1), -2, dtype=float)
    return h / np.linalg.norm(h)


def _spec_matrix(value, shape, what) -> np.ndarray:
    """A finite float array of the given shape, or a SpecError naming it."""
    try:
        m = np.asarray(value, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise SpecError(f"{what} is not numeric: {exc}")
    if m.shape != shape or not np.all(np.isfinite(m)):
        size = "x".join(str(d) for d in shape)
        raise SpecError(f"{what} is not a finite {size} array")
    return m


def _generator_labels(entries) -> list:
    """Each generator's name, or the default label of its place."""
    places = limitset.default_names(len(entries))
    return [e.get("name", x) for e, x in zip(entries, places)]


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read group spec: {exc}")
    if not isinstance(spec, dict) or "n" not in spec:
        raise SpecError("group spec must be an object with an 'n' field")
    n = spec["n"]
    if not isinstance(n, int) or not 2 <= n <= 8:
        raise SpecError("n must be an integer in [2, 8]")
    seed = spec.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise SpecError("seed must be a non-negative integer")
    if spec.get("tolerances", {}) != {}:
        raise SpecError(
            "'tolerances' is not read by any command; leave it out or use {}"
        )
    has_gens = "generators" in spec
    has_schottky = "schottky" in spec
    if has_gens == has_schottky:
        raise SpecError("exactly one of 'generators' or 'schottky' is required")
    if has_gens:
        if not isinstance(spec["generators"], list) or not spec["generators"]:
            raise SpecError("'generators' must be a non-empty list")
        for i, entry in enumerate(spec["generators"]):
            if not isinstance(entry, dict) or "matrix" not in entry:
                raise SpecError(f"generator {i} has no 'matrix'")
            name = entry.get("name", i)
            if "name" in entry and not (
                isinstance(name, str) and name.isprintable() and name not in ("", "e")
                and not set(name) & set(",\".'")
            ):
                raise SpecError(
                    f"generator {i} name must be a non-empty string, printable, "
                    "not 'e' and free of , \" . '"
                )
            m = _spec_matrix(entry["matrix"], (n, n), f"generator {name}")
            if abs(np.linalg.det(m) - 1.0) > defaults.EPS_DET * 1e3:
                raise SpecError(f"generator {name} is not det 1")
        labels = _generator_labels(spec["generators"])
        if len(set(labels)) < len(labels):
            raise SpecError(f"generator labels must be distinct, got {labels}")
    else:
        recipe = spec["schottky"]
        if not isinstance(recipe, dict) or "flags" not in recipe or "L" not in recipe:
            raise SpecError("schottky recipe needs 'flags' and 'L'")
        frames = recipe["flags"]
        extra = recipe.get("parabolic_flags", [])
        if not all(isinstance(v, list) for v in (frames, extra, recipe["L"])):
            raise SpecError("schottky 'flags', 'parabolic_flags' and 'L' must be lists")
        if len(frames) != 2 * len(recipe["L"]):
            raise SpecError("schottky recipe needs two flags per L vector")
        # The radius rule min_sep / 3 needs a pair of flags.
        if len(frames) + len(extra) < 2:
            raise SpecError(
                "schottky recipe needs an L vector or a parabolic flag, "
                "and at least two flags in all"
            )
        for i, frame in enumerate(frames + extra):
            _spec_matrix(frame, (n, n), f"flag frame {i}")
        for i, ell in enumerate(recipe["L"]):
            ell = _spec_matrix(ell, (n,), f"L vector {i}")
            try:
                interior = lie.chamber_classify(ell)[0] == "interior"
            except ValueError:  # not traceless
                interior = False
            if not interior:
                raise SpecError(
                    f"L vector {i} must be traceless and strictly descending "
                    "(inside the chamber)"
                )
        for key in ("radius_policy", "radius_scale"):
            value = recipe.get(key, 1.0)
            if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
                raise SpecError(f"{key} must be a finite number above 0")
    return spec


def build_group(spec: dict):
    """Resolve a spec into (generator matrices, names, table-or-None)."""
    n = spec["n"]
    if "generators" in spec:
        names = _generator_labels(spec["generators"])
        gens = [np.asarray(e["matrix"], dtype=float) for e in spec["generators"]]
        return gens, names, None
    recipe = spec["schottky"]
    ells = [np.asarray(v, dtype=float) for v in recipe["L"]]
    center = _chamber_center(n)
    frames = recipe["flags"] + recipe.get("parabolic_flags", [])
    frames = boundary.canonical_frames(np.asarray(frames, dtype=float))
    flags = [boundary.Flag(f) for f in frames]
    points = []
    for m, ell in enumerate(ells):
        unit = ell / np.linalg.norm(ell)
        points.append(boundary.boundary_point(flags[2 * m], -unit[::-1]))
        points.append(boundary.boundary_point(flags[2 * m + 1], unit))
    for flag in flags[2 * len(ells) :]:
        points.append(boundary.boundary_point(flag, center))
    table = schottky.build_table(
        points,
        ells,
        radius_policy=recipe.get("radius_policy", 0.3),
        seed=spec.get("seed", 0),
    )
    if "radius_scale" in recipe:
        table.radii = table.radii * float(recipe["radius_scale"])
    names = limitset.default_names(len(table.base_generators))
    return table.effective_generators(), names, table


def _parse_matrix(args, spec):
    if args.matrix:
        try:
            m = np.asarray(json.loads(args.matrix), dtype=float)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise SpecError(f"bad inline matrix: {exc}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpecError("inline matrix must be square")
        return _spec_matrix(m, m.shape, "inline matrix")
    if spec and "generators" in spec:
        return np.asarray(spec["generators"][0]["matrix"], dtype=float)
    raise SpecError("decompose needs --matrix or a spec with generators")


def cmd_decompose(args) -> int:
    spec = load_spec(args.input) if args.input else None
    g = _parse_matrix(args, spec)
    report = {"which": args.which, "matrix": g.tolist()}
    if args.which == "kak":
        dec = decompositions.cartan_decompose(g)
        report.update(
            k1=dec.k1.tolist(),
            h=dec.h.tolist(),
            k2=dec.k2.tolist(),
            residual=float(np.linalg.norm(dec.reconstruct() - g)),
        )
    elif args.which == "kan":
        dec = decompositions.iwasawa(g)
        report.update(
            k=dec.k.tolist(),
            a=dec.a.tolist(),
            nplus=dec.nplus.tolist(),
            residual=float(np.linalg.norm(dec.reconstruct() - g)),
        )
    elif args.which == "jordan":
        cls = isometries.classify(g)
        parts = cls.parts
        report.update(
            e=parts.e.tolist(),
            h=parts.h.tolist(),
            u=parts.u.tolist(),
            residual=float(np.linalg.norm(parts.reconstruct() - g)),
            klass=cls.tag,
            translation=cls.translation.tolist(),
        )
    else:
        w = decompositions.bruhat_cell(g)
        report.update(permutation=list(w.perm))
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_report(args, spec, checks, metrics, outputs):
    return {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.command,
        "config_hash": config_hash(spec),
        "checks": checks,
        "metrics": metrics,
        "outputs": sorted(outputs),
    }


def cmd_schottky(args) -> int:
    spec = load_spec(args.input)
    if args.resolution < 1:
        raise SpecError("--resolution must be at least 1")
    if args.resolution > MAX_RESOLUTION:
        raise SpecError(f"--resolution must be at most {MAX_RESOLUTION}")
    if args.action == "check":
        if args.table is None:
            raise SpecError("schottky check needs --table")
        try:
            with open(args.table, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"cannot read table: {exc}")
        table = schottky.PingPongTable.from_json_dict(data)
    else:
        _, _, table = build_group(spec)
        if table is None:
            raise SpecError("schottky subcommand needs a schottky recipe")
    os.makedirs(args.out, exist_ok=True)
    report = schottky.certify_klein(
        table, resolution=args.resolution, seed=spec.get("seed", 0) + 1
    )
    outputs = []
    table_path = os.path.join(args.out, "table.json")
    report_path = os.path.join(args.out, "certification.json")
    _write_json(table_path, table.to_json_dict())
    _write_json(report_path, report.to_json_dict())
    outputs += [table_path, report_path]
    checks = {"certification": report.status}
    if report.certified:
        ok, reason = schottky.check_nonelementary(table)
        checks["nonelementary"] = ok
        checks["nonelementary_reason"] = reason
    run = _run_report(
        args,
        spec,
        checks,
        {
            "min_margin": report.min_margin,
            "powers": list(table.powers),
            "radii": table.radii.tolist(),
        },
        outputs,
    )
    run_path = os.path.join(args.out, "run_report.json")
    _write_json(run_path, run)
    print(json.dumps(run, indent=2, sort_keys=True))
    return EXIT_OK if report.certified else EXIT_CERT_FAILED


def cmd_limitset(args) -> int:
    spec = load_spec(args.input)
    for flag in ("max_word", "min_word", "cone_word", "target"):
        if getattr(args, f"{flag}_length") < 1:
            raise SpecError(f"--{flag.replace('_', '-')}-length must be at least 1")
    if args.min_word_length > args.max_word_length:
        raise SpecError("--min-word-length must be at most --max-word-length")
    if args.workers is not None and args.workers < 1:
        raise SpecError("--workers must be at least 1")
    if not 0.0 < args.tol <= sys.float_info.max:
        raise SpecError("--tol must be finite and above 0")
    if args.seed is not None and args.seed < 0:
        raise SpecError("--seed must be a non-negative integer")
    workers = limitset.resolve_workers(args.workers)
    os.makedirs(args.out, exist_ok=True)
    gens, names, table = build_group(spec)
    outputs = []
    checks = {}
    metrics = {}
    want = (
        {"csv", "json", "svg"} if args.format == "all" else {args.format}
    )

    def emit_csv(samples, filename):
        path = os.path.join(args.out, filename)
        limitset.write_csv(samples, path, names=names, table=table)
        outputs.append(path)

    if args.subcommand == "enumerate":
        samples = limitset.enumerate_samples(gens, args.max_word_length, workers)
        metrics["words"] = len(samples)
        if "csv" in want:
            emit_csv(samples, "samples.csv")
        checks["enumerate"] = "ok"
    elif args.subcommand == "cone":
        # One growth of the cone orbit and one of the max-length orbit feed
        # the report, the chart and the CSV alike.
        length = args.max_word_length
        lp_values = tuple(
            lp for lp in (length - 4, length - 2, length)
            if lp >= args.min_word_length
        )
        cone = limitset.limit_cone_sample(gens, args.cone_word_length, workers)
        samples = limitset.enumerate_samples(gens, length, workers)
        report = limitset.cone_report(
            cone, samples, lp_values, args.cone_word_length
        )
        checks["trend_non_increasing"] = report["trend_non_increasing"]
        metrics["cone"] = report
        if "svg" in want and spec["n"] in (2, 3):
            shell = limitset.directions_in_range(samples, length, length)
            path = os.path.join(args.out, "cone.svg")
            plotting.write_chart(path, shell, cone, title="directions vs limit cone")
            outputs.append(path)
        if "csv" in want:
            emit_csv(samples, "samples.csv")
    elif args.subcommand in ("minimality", "product", "axdens"):
        if table is None:
            raise SpecError(f"{args.subcommand} needs a schottky recipe")
        if args.subcommand == "minimality":
            probe = limitset.enumerate_samples(
                gens, args.target_length, workers
            )
            shell = probe.lengths == args.target_length
            report = limitset.minimality_check(
                table,
                table.points[1],
                probe.frames[shell],
                args.max_word_length,
                eps=args.tol,
                workers=workers,
            )
            checks["all_approached"] = report["all_approached"]
            checks["containment_fraction"] = report["containment_fraction"]
        elif args.subcommand == "product":
            report = limitset.product_structure_check(
                table,
                args.max_word_length,
                eps=args.tol,
                seed=spec.get("seed", 0) if args.seed is None else args.seed,
                workers=workers,
            )
            checks["success_fraction"] = report["success_fraction"]
        else:
            report = limitset.axial_density_check(
                table, args.max_word_length, eps=args.tol, workers=workers
            )
            checks["all_within_eps"] = report["all_within_eps"]
        metrics[args.subcommand] = report
    run = _run_report(args, spec, checks, metrics, outputs)
    run_path = os.path.join(args.out, "run_report.json")
    _write_json(run_path, run)
    print(json.dumps(run, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankr",
        description="decompositions, ping-pong tables and limit-set "
        "experiments for discrete subgroups of SL(n,R)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="factor a single matrix")
    p_dec.add_argument("--which", choices=["kak", "kan", "jordan", "bruhat"],
                       required=True)
    p_dec.add_argument("--input", help="group spec JSON (first generator)")
    p_dec.add_argument("--matrix", help="inline JSON matrix")
    p_dec.set_defaults(func=cmd_decompose)

    p_sch = sub.add_parser("schottky", help="build or re-check a table")
    p_sch.add_argument("action", choices=["build", "check"])
    p_sch.add_argument("--input", required=True)
    p_sch.add_argument("--out", default=".")
    p_sch.add_argument("--table", help="existing table JSON (check)")
    p_sch.add_argument("--resolution", type=int, default=2000)
    p_sch.set_defaults(func=cmd_schottky)

    p_lim = sub.add_parser("limitset", help="orbit and limit-set experiments")
    p_lim.add_argument(
        "subcommand",
        choices=["enumerate", "cone", "minimality", "product", "axdens"],
    )
    p_lim.add_argument("--input", required=True)
    p_lim.add_argument("--out", default=".")
    p_lim.add_argument("--max-word-length", type=int, default=8)
    p_lim.add_argument("--min-word-length", type=int, default=1)
    p_lim.add_argument("--cone-word-length", type=int, default=12)
    p_lim.add_argument("--target-length", type=int, default=8)
    p_lim.add_argument("--tol", type=float, default=0.1)
    p_lim.add_argument("--seed", type=int,
                       help="pair sampling seed of product (default: the spec seed)")
    p_lim.add_argument("--workers", type=int, default=None)
    p_lim.add_argument("--format", choices=["csv", "json", "svg", "all"],
                       default="all")
    p_lim.set_defaults(func=cmd_limitset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IllConditionedCell, IllConditionedSpectrum) as exc:
        print(f"numerical reliability error: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    except np.linalg.LinAlgError as exc:
        print(f"numerical reliability error: LAPACK failed: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    except PowerExhausted as exc:
        print(f"power escalation exhausted: {exc}", file=sys.stderr)
        return EXIT_POWER_EXHAUSTED
    except EmptySample as exc:
        print(f"empty sample: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SAMPLE
    except RankrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
