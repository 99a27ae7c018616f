"""Batch command-line interface.

Subcommands: decompose (matrix factorizations and classification),
schottky (build or re-check ping-pong tables) and limitset (orbit
enumeration and the limit-set experiments).  Group specs are JSON; see
load_spec for the schema.  Exit codes: 0 success, 1 malformed input,
2 numerical-reliability error, 3 power escalation exhausted,
4 certification failed, 5 empty sample.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict

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
    SingularMatrix,
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

# Largest size of the factored words one limitset length may grow: each of
# the word_count(generators, length) words holds its q and nu frames and its
# a vector, 8(2n^2 + n) bytes.  Under tracemalloc `limitset enumerate` on
# groupspecs/sl3_l2.json peaks at about 3.7 times that at lengths 8 and 10,
# so this caps such a run near 1 GB; the cone default length 12 on that
# spec asks for 179 MB of words (every reduced word: the cone grows only
# the necklaces, fewer).
MAX_WORD_BYTES = 2**28


def config_hash(spec: dict) -> str:
    """sha256 of the canonical (key-sorted) JSON; field order never matters."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def _sl_matrix(value, n, what) -> np.ndarray:
    """A finite n x n matrix of det 1 (within EPS_DET * 1e3), n in [2, 8],
    or a SpecError naming it."""
    if not 2 <= n <= 8:
        raise SpecError(f"{what} must be n x n with n in [2, 8]")
    m = _spec_matrix(value, (n, n), what)
    with np.errstate(over="ignore", under="ignore"):  # an inf or 0 det fails
        det = np.linalg.det(m)
    if abs(det - 1.0) > defaults.EPS_DET * 1e3:
        raise SpecError(f"{what} is not det 1")
    return m


def _generator_labels(entries) -> list:
    """Each generator's name, or the default label of its place."""
    places = limitset.default_names(len(entries))
    return [e.get("name", x) for e, x in zip(entries, places)]


def _known_keys(entry: dict, known, what):
    """SpecError naming every key of entry outside known."""
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise SpecError(f"{what} has unknown keys {unknown}; known: {sorted(known)}")


def _read_json(path, what):
    """The JSON value in path, or a SpecError "cannot read {what}"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read {what}: {exc}")


def load_spec(path: str) -> dict:
    spec = _read_json(path, "group spec")
    if not isinstance(spec, dict) or "n" not in spec:
        raise SpecError("group spec must be an object with an 'n' field")
    _known_keys(spec, ("n", "seed", "tolerances", "generators", "schottky"), "spec")
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
            _known_keys(entry, ("matrix", "name"), f"generator {i}")
            name = entry.get("name", i)
            if "name" in entry and not (
                isinstance(name, str) and name.isprintable() and name not in ("", "e")
                and not set(name) & set(",\".'")
            ):
                raise SpecError(
                    f"generator {i} name must be a non-empty string, printable, "
                    "not 'e' and free of , \" . '"
                )
            _sl_matrix(entry["matrix"], n, f"generator {name}")
        labels = _generator_labels(spec["generators"])
        if len(set(labels)) < len(labels):
            raise SpecError(f"generator labels must be distinct, got {labels}")
    else:
        recipe = spec["schottky"]
        if not isinstance(recipe, dict) or "flags" not in recipe or "L" not in recipe:
            raise SpecError("schottky recipe needs 'flags' and 'L'")
        _known_keys(
            recipe,
            ("flags", "L", "parabolic_flags", "radius_scale"),
            "schottky recipe",
        )
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
            # Keeps the generator e^L and the norm of L that scales it finite
            # and away from 0.
            with np.errstate(over="ignore", under="ignore"):
                scales = np.exp(ell)
            if not (np.isfinite(scales).all() and (scales > 0).all()
                    and (scales[:-1] > scales[1:]).all()):
                raise SpecError(
                    f"L vector {i} must have e^L finite, above 0 and strictly "
                    "descending"
                )
        scale = recipe.get("radius_scale", 1.0)
        if type(scale) not in (int, float) or not 0 < scale <= sys.float_info.max:
            raise SpecError("radius_scale must be a finite number above 0")
    return spec


def build_group(spec: dict):
    """Resolve a spec into (generator matrices, names, table-or-None)."""
    if "generators" in spec:
        names = _generator_labels(spec["generators"])
        gens = [np.asarray(e["matrix"], dtype=float) for e in spec["generators"]]
        return gens, names, None
    recipe = spec["schottky"]
    frames = recipe["flags"] + recipe.get("parabolic_flags", [])
    flags = [boundary.Flag(f) for f in frames]
    table = schottky.build_table(flags, recipe["L"], seed=spec.get("seed", 0))
    if "radius_scale" in recipe:
        table.radii = table.radii * float(recipe["radius_scale"])
    names = limitset.default_names(len(table.base_generators))
    return table.effective_generators(), names, table


def _parse_matrix(args):
    if args.input is not None:
        spec = load_spec(args.input)
        if "generators" not in spec:
            raise SpecError("decompose --input needs a spec with generators")
        return np.asarray(spec["generators"][0]["matrix"], dtype=float)
    try:
        m = np.asarray(json.loads(args.matrix), dtype=float)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise SpecError(f"bad inline matrix: {exc}")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecError("inline matrix must be square")
    return _sl_matrix(m, len(m), "inline matrix")


def cmd_decompose(args) -> int:
    g = _parse_matrix(args)
    report = {"which": args.which, "matrix": g.tolist()}
    factor = {"kak": decompositions.cartan_decompose, "kan": decompositions.iwasawa}
    if args.which in factor:
        dec = factor[args.which](g)
        report.update(
            {k: v.tolist() for k, v in asdict(dec).items()},
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
    """Write payload to path as key-sorted JSON; returns path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _finish(args, spec, checks, metrics, outputs):
    """Write run_report.json into --out and print it."""
    run = {
        "command": " ".join(args.argv),
        "config_hash": config_hash(spec),
        "checks": checks,
        "metrics": metrics,
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(args.out, "run_report.json"), run)
    print(json.dumps(run, indent=2, sort_keys=True))


def cmd_schottky(args) -> int:
    spec = load_spec(args.input)
    if args.resolution < 1:
        raise SpecError("--resolution must be at least 1")
    if args.resolution > MAX_RESOLUTION:
        raise SpecError(f"--resolution must be at most {MAX_RESOLUTION}")
    if args.action == "check":
        table = schottky.PingPongTable.from_json_dict(_read_json(args.table, "table"))
        if table.n != spec["n"]:
            raise SpecError(f"table is for n = {table.n}, the spec for n = {spec['n']}")
    else:
        _, _, table = build_group(spec)
        if table is None:
            raise SpecError("schottky subcommand needs a schottky recipe")
    os.makedirs(args.out, exist_ok=True)
    report = schottky.certify_klein(
        table, resolution=args.resolution, seed=spec.get("seed", 0) + 1
    )
    outputs = [
        _write_json(os.path.join(args.out, "table.json"), table.to_json_dict()),
        _write_json(os.path.join(args.out, "certification.json"), asdict(report)),
    ]
    ok, reason = schottky.check_nonelementary(table)
    checks = {
        "certification": report.status,
        "nonelementary": ok,
        "nonelementary_reason": reason,
    }
    metrics = {
        "min_margin": report.min_margin,
        "powers": list(table.powers),
        "radii": table.radii.tolist(),
    }
    _finish(args, spec, checks, metrics, outputs)
    return EXIT_OK if report.certified else EXIT_CERT_FAILED


def cmd_limitset(args) -> int:
    spec = load_spec(args.input)
    # Only the experiment's own flags are in args (see build_parser).
    lengths = {k: v for k, v in vars(args).items() if k.endswith("_length")}
    for key, length in lengths.items():
        if length < 1:
            raise SpecError(f"--{key.replace('_', '-')} must be at least 1")
    if lengths.get("min_word_length", 1) > args.max_word_length:
        raise SpecError("--min-word-length must be at most --max-word-length")
    if args.workers is not None and args.workers < 1:
        raise SpecError("--workers must be at least 1")
    if "tol" in vars(args) and not 0.0 < args.tol <= sys.float_info.max:
        raise SpecError("--tol must be finite and above 0")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise SpecError("--seed must be a non-negative integer")
    if args.format == "svg" and spec["n"] not in (2, 3):
        raise SpecError("--format svg needs n = 2 or 3")
    gens, names, table = build_group(spec)
    if table is None and args.subcommand == "minimality":
        raise SpecError("minimality needs a schottky recipe")
    word_bytes = 8 * (2 * spec["n"] ** 2 + spec["n"])
    for key, length in lengths.items():
        if limitset.word_count(len(gens), length) * word_bytes > MAX_WORD_BYTES:
            raise SpecError(
                f"--{key.replace('_', '-')} {length} asks for more than "
                f"{MAX_WORD_BYTES} bytes of words"
            )
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    checks = {}
    metrics = {}
    want = {"csv", "json", "svg"} if args.format == "all" else {args.format}

    def emit_csv(samples, filename):
        path = os.path.join(args.out, filename)
        limitset.write_csv(samples, path, names=names, table=table)
        outputs.append(path)

    if args.subcommand == "enumerate":
        samples = limitset.enumerate_samples(gens, args.max_word_length, args.workers)
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
        cone = limitset.limit_cone_sample(gens, args.cone_word_length, args.workers)
        samples = limitset.enumerate_samples(gens, length, args.workers)
        report = limitset.cone_report(
            cone, samples, lp_values, args.cone_word_length
        )
        checks["trend_non_increasing"] = report["trend_non_increasing"]
        if "svg" in want and spec["n"] in (2, 3):
            shell = limitset.directions_in_range(samples, length, length)
            path = os.path.join(args.out, "cone.svg")
            plotting.write_chart(path, shell, cone)
            outputs.append(path)
        if "csv" in want:
            emit_csv(samples, "samples.csv")
    elif args.subcommand == "minimality":
        probe = limitset.enumerate_samples(gens, args.target_length, args.workers)
        shell = probe.lengths == args.target_length
        report = limitset.minimality_check(
            table,
            probe.frames[shell],
            args.max_word_length,
            eps=args.tol,
            workers=args.workers,
        )
        checks["all_approached"] = report["all_approached"]
        checks["containment_fraction"] = report["containment_fraction"]
    elif args.subcommand == "product":
        report = limitset.product_structure_check(
            gens,
            args.max_word_length,
            eps=args.tol,
            seed=spec.get("seed", 0) if args.seed is None else args.seed,
            workers=args.workers,
        )
        checks["success_fraction"] = report["success_fraction"]
    else:
        report = limitset.axial_density_check(
            gens, args.max_word_length, eps=args.tol, workers=args.workers
        )
        checks["all_within_eps"] = report["all_within_eps"]
    if args.subcommand != "enumerate":
        metrics[args.subcommand] = report
    _finish(args, spec, checks, metrics, outputs)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as SpecError, not argparse's exit 2."""

    def error(self, message):
        raise SpecError(message)


# Built once: rebuilt per main() call, it crept the RSS of a long process.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankr",
        description="decompositions, ping-pong tables and limit-set "
        "experiments for discrete subgroups of SL(n,R)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="factor a single matrix")
    p_dec.add_argument("--which", choices=["kak", "kan", "jordan", "bruhat"],
                       required=True)
    source = p_dec.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="group spec JSON (first generator)")
    source.add_argument("--matrix", help="inline JSON matrix")
    p_dec.set_defaults(func=cmd_decompose)

    spec_out = _Parser(add_help=False)
    spec_out.add_argument("--input", required=True, help="group spec JSON")
    spec_out.add_argument("--out", default=".")

    p_sch = _Parser(add_help=False, parents=[spec_out])
    p_sch.add_argument("--resolution", type=int, default=2000)
    p_sch.set_defaults(func=cmd_schottky)
    actions = sub.add_parser("schottky", help="build or re-check a table")
    actions = actions.add_subparsers(dest="action", required=True)
    actions.add_parser("build", parents=[p_sch], help="build and certify a table")
    p_check = actions.add_parser("check", parents=[p_sch], help="re-check a table")
    p_check.add_argument("--table", required=True, help="table JSON of schottky build")

    p_lim = _Parser(add_help=False, parents=[spec_out])
    p_lim.add_argument("--max-word-length", type=int, default=8)
    p_lim.add_argument("--workers", type=int, default=None)
    p_lim.set_defaults(func=cmd_limitset)
    flags = {
        "--min-word-length": dict(type=int, default=1),
        "--cone-word-length": dict(type=int, default=12),
        "--target-length": dict(type=int, default=8),
        "--tol": dict(type=float, default=0.1),
        "--seed": dict(type=int, help="pair sampling seed (default: the spec's)"),
    }
    experiments = sub.add_parser("limitset", help="orbit and limit-set experiments")
    experiments = experiments.add_subparsers(dest="subcommand", required=True)
    # Each experiment's own flags and --format values.  The checks write
    # only run_report.json, so json is their one format.
    for name, extra, formats in (
        ("enumerate", (), ("csv", "json", "all")),
        ("cone", ("--min-word-length", "--cone-word-length"),
         ("csv", "json", "svg", "all")),
        ("minimality", ("--target-length", "--tol"), ("json",)),
        ("product", ("--tol", "--seed"), ("json",)),
        ("axdens", ("--tol",), ("json",)),
    ):
        p_exp = experiments.add_parser(name, parents=[p_lim])
        for flag in extra:
            p_exp.add_argument(flag, **flags[flag])
        p_exp.add_argument("--format", choices=formats, default=formats[-1])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        args.argv = argv  # the run report's command
        return args.func(args)
    except (IllConditionedCell, IllConditionedSpectrum, SingularMatrix) as exc:
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
    # An OSError here comes from making or writing --out, say a path that
    # names a file: _read_json reports its own reads.
    except (RankrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
