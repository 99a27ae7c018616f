"""The two workloads, their timed steps and their output checks.

Each workload joins two parts.  ``enumerate`` is the producer side of the
limit-set enumeration: `limitset enumerate` and `limitset cone` on the sl3
spec, then `limitset enumerate` on a seeded SL(8) spec.  ``query`` is the
consumer side and the per-object paths: `limitset minimality`, `product`
and `axdens` on the sl3 spec, `schottky build` on the bundled specs and a
seeded batch of scalar calls.

A workload runs in passes.  Each pass times its steps (CLI commands
through ``rankr.cli.main`` or batches of scalar API calls) and then checks
their outputs outside the timed region; a command or call whose exit code
or output check fails is a failed operation.  Checks hold for any correct
implementation: exact word lists and counts, invariants of the scalar
results, and stored references only where the repository already freezes
a value or the workload reads a bundled spec.

Word lengths are below the acceptance-criteria sizes so that a run
repeats each pass several times within its time budget: one below on
``enumerate`` (enumerate and shells at 9, cone at 11, SL(8) at 4), which
keeps it near 350 MB, and two below on ``query`` (L=8, minimality targets
at 6, axdens at 7).
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "sl3_l2.json")
SL3_SPEC = os.path.join("groupspecs", "sl3_l2.json")

ORBIT_L = 9
CONE_L = 11
DENSITY_L = 8
TARGET_L = 6
AXDENS_L = 7
SL8_N = 8
SL8_L = 4
SCHOTTKY_RESOLUTION = 2000
SCHOTTKY_SPECS = (("sl2_classical", 0), ("sl3_l2", 0), ("sl3_l2_doubled", 4))
# Frozen acceptance value of the product-structure experiment.
PRODUCT_SUCCESS_FRACTION = 1.0
TAGS = {
    "identity", "elliptic", "regular-axial", "nonregular-axial",
    "strictly-parabolic", "mixed-parabolic", "unresolved",
}
DIR_TOL = 1e-9
CONE_TOL = 1e-12


class Failed:
    """Stands in for the result of a scalar call that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


class CheckFailed(Exception):
    """An output check found a problem; the message says which."""


class Context:
    def __init__(self, rankr, root, work, seed, workers, recorder=None):
        self.rankr = rankr
        self.root = root
        self.work = work
        self.seed = seed
        self.workers = workers
        self.recorder = recorder
        self.tracing = False
        self.timings = {}
        self.ops = []

    def out(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def cli(self, argv):
        """Exit code of one CLI run, with its stdout discarded."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.rankr.cli.main([str(a) for a in argv])
        except Exception as exc:  # a traceback is a failed operation
            return Failed(exc)

    def step(self, name, fn):
        """Run fn as one timed step; a root span when tracing."""
        rec = self.recorder
        span = None
        if self.tracing:
            rec.enabled = True
            span = rec.open("step." + name)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.timings[name] = time.perf_counter() - start
            if span is not None:
                rec.close(span)
                rec.enabled = False

    def command(self, name, argv):
        """One CLI command as a timed step, writing to a fresh directory."""
        out = self.out(name)
        return out, self.step(name, lambda: self.cli(list(argv) + ["--out", out]))

    def check(self, name, fn):
        """Record one operation; fn returns its problems.  A check that
        raises, on a report that lacks a field say, fails the operation."""
        try:
            problems = list(fn())
        except CheckFailed as exc:
            problems = [str(exc)]
        except Exception as exc:  # a malformed output fails its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.ops.append((name, problems))


# ---------------------------------------------------------------------------
# Independent expectations


def reduced_words(alpha, max_length):
    """Reduced words in depth-first preorder, children in letter order."""
    words = []

    def grow(word):
        words.append(word)
        if len(word) < max_length:
            for c in range(alpha):
                if not word or c != word[-1] ^ 1:
                    grow(word + (c,))

    grow(())
    return words


def word_label(word, names="ab"):
    if not word:
        return "e"
    return ".".join(names[c >> 1] + ("'" if c & 1 else "") for c in word)


def words_of_length(rank, length):
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def word_count(length, rank=2):
    return 1 + sum(words_of_length(rank, k) for k in range(1, length + 1))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _unit_chamber_rows(v):
    """Row mask: unit norm, traceless, descending (the closed chamber)."""
    return (
        (np.abs(np.linalg.norm(v, axis=1) - 1.0) <= DIR_TOL)
        & (np.abs(v.sum(axis=1)) <= DIR_TOL)
        & np.all(v[:, :-1] >= v[:, 1:] - DIR_TOL, axis=1)
    )


def check_samples_csv(data, n, max_length, with_gaps, reference=None):
    """Problems found in a samples.csv payload (empty list when correct)."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    header = (
        ["word", "length", "class"]
        + [f"dir_{i + 1}" for i in range(n)]
        + [f"jdir_{i + 1}" for i in range(n)]
        + ["flag_dist_to_nearest_U"]
    )
    if lines[0] != ",".join(header):
        return [f"unexpected header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:-1]]
    words = reduced_words(4, max_length)
    if len(rows) != len(words) or any(len(row) != len(header) for row in rows):
        return [f"{len(rows)} rows of {len(words)}, or a row of the wrong width"]
    problems = []
    labels = [word_label(w) for w in words]
    wrong = [i for i, (row, w, label) in enumerate(zip(rows, words, labels))
             if row[0] != label or row[1] != str(len(w))]
    if wrong:
        problems.append(f"{len(wrong)} rows with the wrong word, first row {wrong[0]}")
    classes = [row[2] for row in rows]
    if any(t not in TAGS for t in classes) or [
        i for i, t in enumerate(classes) if t == "identity"
    ] != [0]:
        problems.append("unknown class, or identity not exactly on row 0")
    try:
        dirs = np.array([row[3:3 + n] for row in rows[1:]], dtype=float)
        jdirs = np.array([row[3 + n:3 + 2 * n] for row in rows
                          if row[3 + n]], dtype=float).reshape(-1, n)
        gaps = [row[-1] for row in rows]
        if not with_gaps:
            gaps_ok = not any(gaps)
        else:
            gaps_ok = np.all(np.isfinite(np.array(gaps, dtype=float)))
    except ValueError as exc:
        return problems + [f"unparsable number: {exc}"]
    if not _unit_chamber_rows(dirs).all():
        problems.append("a direction is not a unit chamber vector")
    if not _unit_chamber_rows(jdirs).all():
        problems.append("a Jordan direction is not a unit chamber vector")
    if not gaps_ok:
        problems.append("gap column has the wrong form")
    if reference is not None:
        digest = hashlib.sha256("\n".join(classes).encode()).hexdigest()
        if digest != reference["class_sha256"]:
            problems.append("class column differs from the reference")
        for key, expect in reference["rows"].items():
            got = rows[int(key)][3:3 + 2 * n]
            if [g == "" for g in got] != [e == "" for e in expect]:
                problems.append(f"row {key}: blank direction fields differ")
                continue
            diff = max(
                (abs(float(g) - float(e)) for g, e in zip(got, expect) if e),
                default=0.0,
            )
            if diff > DIR_TOL:
                problems.append(f"row {key}: directions off by {diff:.2e}")
    return problems


def _run_report(out, rc, expect_rc=0):
    if isinstance(rc, Failed) or rc != expect_rc:
        raise CheckFailed(f"exit {rc!r}, expected {expect_rc}")
    return _read_json(os.path.join(out, "run_report.json"))


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _enumerate_problems(out, rc, csv, n, length, with_gaps, reference, previous):
    """Problems of one `limitset enumerate` run.  previous is the CSV of an
    earlier pass (None on the first)."""
    report = _run_report(out, rc)
    if csv is None:
        raise CheckFailed("no samples.csv")
    problems = check_samples_csv(csv, n, length, with_gaps, reference)
    if report["metrics"]["words"] != word_count(length):
        problems.append(f"word count {report['metrics']['words']}")
    if previous is not None and csv != previous:
        problems.append("samples.csv differs between passes")
    return problems


def _one_worker_problems(ctx, spec, length, expected):
    """The CSV of `limitset enumerate --workers 1` must equal expected."""
    out = ctx.out("workers-1")
    rc = ctx.cli(["limitset", "enumerate", "--input", spec, "--out", out,
                  "--max-word-length", length, "--workers", 1])
    if rc != 0 or _read_bytes(os.path.join(out, "samples.csv")) != expected:
        return [f"workers=1 CSV differs from workers={ctx.workers}"]
    return []


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def setup(self, ctx):
        raise NotImplementedError

    def run_pass(self, ctx):
        raise NotImplementedError

    def final_checks(self, ctx):
        pass

    def pass_metrics(self, timings):
        return {}

    def scaling(self, ctx, measure):
        """Traced-run extras: the scaling tables and the allocation peak of
        the workload's enumeration.  measure(fn) traces fn and returns its
        Tally."""
        return {}


class Sl3Orbit(Workload):
    def setup(self, ctx):
        self.spec = os.path.join(ctx.root, SL3_SPEC)
        ctx.rankr.cli.load_spec(self.spec)
        self.first_csv = None
        self.first_svg = None
        self.reference = None

    def run_pass(self, ctx):
        if self.reference is None:
            self.reference = _read_json(REFERENCE)
        out, rc = ctx.command("enumerate", [
            "limitset", "enumerate", "--input", self.spec,
            "--max-word-length", ORBIT_L, "--workers", ctx.workers])
        csv = _read_bytes(os.path.join(out, "samples.csv"))
        ctx.check("enumerate", lambda: _enumerate_problems(
            out, rc, csv, 3, ORBIT_L, True, self.reference["enumerate"],
            self.first_csv))
        if self.first_csv is None:
            self.first_csv = csv

        out, rc = ctx.command("cone", [
            "limitset", "cone", "--input", self.spec, "--max-word-length", ORBIT_L,
            "--cone-word-length", CONE_L, "--workers", ctx.workers])
        ctx.check("cone", lambda: self._cone_problems(out, rc))

    def _cone_problems(self, out, rc):
        report = _run_report(out, rc)
        problems = []
        rows = report["metrics"]["cone"]["rows"]
        shells = [r["shell_length"] for r in rows]
        if shells != [ORBIT_L - 4, ORBIT_L - 2, ORBIT_L]:
            problems.append(f"shell lengths {shells}")
        forward = rows[-1]["forward"]
        expect = self.reference["cone"]["forward_at_max"]
        if abs(forward - expect) > CONE_TOL:
            problems.append(f"forward at {ORBIT_L} is {forward!r}, reference {expect!r}")
        if report["checks"]["trend_non_increasing"] is not True:
            problems.append("forward distance trend is increasing")
        if _read_bytes(os.path.join(out, "samples.csv")) != self.first_csv:
            problems.append("cone samples.csv differs from enumerate's")
        svg = _read_bytes(os.path.join(out, "cone.svg"))
        if not svg or not svg.startswith(b"<svg"):
            problems.append("cone.svg missing or not SVG")
        elif self.first_svg is None:
            self.first_svg = svg
        elif svg != self.first_svg:
            problems.append("cone.svg differs between passes")
        return problems

    def final_checks(self, ctx):
        ctx.check("enumerate-workers-1", lambda: _one_worker_problems(
            ctx, self.spec, ORBIT_L, self.first_csv))

    def pass_metrics(self, timings):
        return {
            "sl3_enumerate_words_per_s": word_count(ORBIT_L) / timings["enumerate"],
            "cone_s": timings["cone"],
        }

    def scaling(self, ctx, measure):
        gens = _sl3_generators(ctx, self.spec)
        out = {"limitset.enumerate.peak_mb": spans.peak_mb(
            lambda: ctx.rankr.enumerate_samples(gens, ORBIT_L, ctx.workers))}
        for length in (6, 7, 8, 9, 10):
            tally = measure(lambda: ctx.rankr.enumerate_samples(gens, length, ctx.workers))
            out[f"scaling.grow.us_per_word.L{length}"] = 1e6 * _per(
                tally.get("limitset.grow", "self_s"), tally.get("limitset.grow", "rows"))
        return out


def _per(total, count):
    return total / count if count else 0.0


def _sl3_generators(ctx, spec):
    gens, _, _ = ctx.rankr.cli.build_group(ctx.rankr.cli.load_spec(spec))
    return gens


class Sl3Density(Workload):
    def setup(self, ctx):
        self.spec = os.path.join(ctx.root, SL3_SPEC)
        ctx.rankr.cli.load_spec(self.spec)

    def _command(self, ctx, sub, extra):
        return ctx.command(sub, [
            "limitset", sub, "--input", self.spec, "--format", "json",
            "--workers", ctx.workers] + extra)

    def run_pass(self, ctx):
        out, rc = self._command(ctx, "minimality", [
            "--target-length", TARGET_L, "--max-word-length", DENSITY_L,
            "--tol", 0.05])
        ctx.check("minimality", lambda: self._minimality_problems(out, rc))
        out, rc = self._command(ctx, "product", [
            "--max-word-length", DENSITY_L, "--tol", 0.1])
        ctx.check("product", lambda: self._product_problems(out, rc))
        out, rc = self._command(ctx, "axdens", ["--max-word-length", AXDENS_L])
        ctx.check("axdens", lambda: self._axdens_problems(out, rc))

    @staticmethod
    def _minimality_problems(out, rc):
        report = _run_report(out, rc)
        problems = []
        if report["checks"]["all_approached"] is not True:
            problems.append("not every target was approached")
        targets = report["metrics"]["minimality"]["targets"]
        if targets != words_of_length(2, TARGET_L):
            problems.append(f"{targets} targets")
        return problems

    @staticmethod
    def _product_problems(out, rc):
        frac = _run_report(out, rc)["checks"]["success_fraction"]
        return [] if frac == PRODUCT_SUCCESS_FRACTION else [f"success fraction {frac!r}"]

    @staticmethod
    def _axdens_problems(out, rc):
        got = _run_report(out, rc)["metrics"]["axdens"]
        problems = []
        expect = word_count(AXDENS_L) - word_count(3)
        if got["targets"] != expect:
            problems.append(f"{got['targets']} targets, expected {expect}")
        if not got["axial_words"] > 0 or not math.isfinite(got["worst_distance"]):
            problems.append("no axial words or a non-finite distance")
        return problems

    def pass_metrics(self, timings):
        return {
            "minimality_s": timings["minimality"],
            "product_s": timings["product"],
            "axdens_s": timings["axdens"],
        }

    def scaling(self, ctx, measure):
        gens = _sl3_generators(ctx, self.spec)
        return {"limitset.enumerate.peak_mb": spans.peak_mb(
            lambda: ctx.rankr.enumerate_samples(gens, DENSITY_L, ctx.workers))}


class Sl8Enumerate(Workload):
    """One seeded 2-generator SL(8) spec, enumerated to SL8_L."""

    def setup(self, ctx):
        self.spec = inputs.write_generator_spec(
            os.path.join(ctx.work, "sl8.json"), ctx.seed, SL8_N)
        ctx.rankr.cli.load_spec(self.spec)
        self.first_csv = None

    def run_pass(self, ctx):
        out, rc = ctx.command("sl8-enumerate", [
            "limitset", "enumerate", "--input", self.spec,
            "--max-word-length", SL8_L, "--workers", ctx.workers])
        csv = _read_bytes(os.path.join(out, "samples.csv"))
        ctx.check("sl8-enumerate", lambda: _enumerate_problems(
            out, rc, csv, SL8_N, SL8_L, False, None, self.first_csv))
        if self.first_csv is None:
            self.first_csv = csv

    def final_checks(self, ctx):
        ctx.check("sl8-enumerate-workers-1", lambda: _one_worker_problems(
            ctx, self.spec, SL8_L, self.first_csv))

    def pass_metrics(self, timings):
        return {"sl8_enumerate_words_per_s": word_count(SL8_L) / timings["sl8-enumerate"]}

    def scaling(self, ctx, measure):
        out = {}
        for n in (4, 6, SL8_N):
            gens = inputs.chamber_translation_generators(ctx.seed, n)
            tally = measure(lambda: ctx.rankr.enumerate_samples(gens, SL8_L, ctx.workers))
            for stage in ("cartan", "moduli"):
                out[f"scaling.{stage}.us_per_word.n{n}"] = 1e6 * _per(
                    tally.get(f"limitset.{stage}", "self_s"),
                    tally.get(f"limitset.{stage}", "rows"))
        return out


def _frame_projectors(frame):
    return np.stack([frame[:, :i] @ frame[:, :i].T for i in range(1, len(frame))])


def _flag_gap(rankr, flag, frame):
    """Flag distance between a Flag and the flag of an orthonormal frame."""
    mine = _frame_projectors(rankr.flag_frame(flag))
    return float(np.linalg.norm(mine - _frame_projectors(frame), axis=(1, 2)).max())


def _call_problems(value, test, n):
    if isinstance(value, Failed):
        return [repr(value)]
    return [] if test(value) else [f"n={n}: invariant does not hold"]


def _orthogonal(k):
    return np.linalg.norm(k.T @ k - np.eye(len(k))) <= 1e-9


class Geometry(Workload):
    def setup(self, ctx):
        self.specs = []
        for name, expect_rc in SCHOTTKY_SPECS:
            path = os.path.join(ctx.root, "groupspecs", name + ".json")
            ctx.rankr.cli.load_spec(path)
            self.specs.append((name, path, expect_rc))
        self.items = inputs.scalar_batch(ctx.seed)
        self.calls = 0
        self.latencies = []

    def run_pass(self, ctx):
        for name, path, expect_rc in self.specs:
            step = "schottky." + name
            out, rc = ctx.command(step, [
                "schottky", "build", "--input", path,
                "--resolution", SCHOTTKY_RESOLUTION])
            ctx.check(step, lambda: self._schottky_problems(out, rc, expect_rc))

        latencies = []
        results = ctx.step("pointwise", lambda: [
            self._item_calls(ctx.rankr, item, latencies) for item in self.items])
        self.calls = len(latencies)
        self.latencies = latencies
        for item, got in zip(self.items, results):
            for key, test in self._item_tests(ctx.rankr, item, got):
                ctx.check(key, functools.partial(_call_problems, got[key], test, item["n"]))

    @staticmethod
    def _schottky_problems(out, rc, expect_rc):
        report = _run_report(out, rc, expect_rc)
        cert = _read_json(os.path.join(out, "certification.json"))
        problems = []
        if cert["resolution"] != SCHOTTKY_RESOLUTION:
            problems.append(f"resolution {cert['resolution']}")
        if expect_rc == 0 and (cert["status"] != "certified-at-resolution"
                               or report["checks"]["nonelementary"] is not True):
            problems.append(f"status {cert['status']}")
        if expect_rc == 4 and (cert["status"] != "failed" or not cert["witness"]):
            problems.append("failure carries no witness")
        return problems

    @staticmethod
    def _item_calls(api, item, latencies):
        got = {}

        def call(key, fn, *args):
            start = time.perf_counter()
            try:
                got[key] = fn(*args)
            except Exception as exc:  # a raising call is a failed operation
                got[key] = Failed(exc)
            latencies.append(time.perf_counter() - start)
            return got[key]

        gx, gy = item["gx"], item["gy"]
        call("kak", api.cartan_decompose, gx)
        call("kan", api.iwasawa, gx)
        call("dxy", api.point_distance, gx, gy)
        call("dyx", api.point_distance, gy, gx)
        f1 = call("f1", api.flag_from_frame, item["frame1"])
        f2 = call("f2", api.flag_from_frame, item["frame2"])
        call("t12", api.transverse, f1, f2)
        call("t21", api.transverse, f2, f1)
        xi = call("xi", api.boundary_point, f1, item["direction"])
        moved = call("moved", api.boundary.act, gx, xi)
        call("back", api.boundary.act, item["gx_inv"], moved)
        call("busemann", api.busemann, xi, gx, gy)
        call("directional", api.directional_distance, xi, gx, gy)
        call("classify", api.classify, item["axial"])
        call("fixed", api.fixed_points, item["axial"])
        return got

    @staticmethod
    def _item_tests(api, item, got):
        """(call, invariant) pairs; each invariant holds for any correct
        implementation of that call on these inputs."""
        gx, n = item["gx"], item["n"]
        scale = np.linalg.norm(gx)

        def kak_ok(d):
            res = np.linalg.norm((d.k1 * np.exp(d.h)) @ d.k2 - gx) / scale
            return (res <= 1e-9 and np.all(np.diff(d.h) <= 1e-12)
                    and _orthogonal(d.k1) and _orthogonal(d.k2))

        def kan_ok(d):
            res = np.linalg.norm((d.k * np.exp(d.a)) @ d.nplus - gx) / scale
            unit = np.allclose(np.tril(d.nplus), np.eye(n), atol=1e-12)
            return res <= 1e-9 and unit and _orthogonal(d.k)

        dxy, t12, dd = got["dxy"], got["t12"], got["directional"]
        ell = item["axial_ell"]
        return [
            ("kak", kak_ok),
            ("kan", kan_ok),
            ("dxy", lambda d: d >= 0),
            ("dyx", lambda d: abs(d - dxy) <= 1e-9 * max(1.0, d)),
            ("f1", lambda f: _flag_gap(api, f, item["frame1"]) <= 1e-9),
            ("f2", lambda f: _flag_gap(api, f, item["frame2"]) <= 1e-9),
            ("t12", lambda t: 0 < t[1] <= 1 + 1e-12 and t[0] == (t[1] > 1e-6)),
            ("t21", lambda t: abs(t[1] - t12[1]) <= 1e-9 and t[0] == t12[0]),
            ("xi", lambda p: np.allclose(p.direction, item["direction"], atol=1e-12)),
            ("moved", lambda p: np.allclose(p.direction, item["direction"])),
            ("back", lambda p: _flag_gap(api, p.flag, item["frame1"]) <= 1e-8),
            ("busemann", lambda b: b <= dd + 1e-9 * max(1.0, abs(dd))),
            ("directional", math.isfinite),
            ("classify", lambda c: c.tag == "regular-axial"
             and np.linalg.norm(c.translation - ell) <= 1e-6),
            ("fixed", lambda pm: _flag_gap(api, pm[0].flag, item["axial_plus_frame"]) <= 1e-6
             and np.linalg.norm(pm[0].direction - ell / np.linalg.norm(ell)) <= 1e-6),
        ]

    def pass_metrics(self, timings):
        lat = np.array(self.latencies) * 1e6
        return {
            "schottky_build_s": sum(
                timings["schottky." + name] for name, _ in SCHOTTKY_SPECS),
            "pointwise_calls_per_s": self.calls / timings["pointwise"],
            "pointwise_call_us.p50": float(np.percentile(lat, 50)),
            "pointwise_call_us.p99": float(np.percentile(lat, 99)),
        }


class Combined(Workload):
    """Runs its parts one after the other in every pass.  The parts use
    distinct step, check and metric names, so their timings, operations
    and scaling entries merge without clashes."""

    parts = ()

    def __init__(self):
        self.members = [part() for part in self.parts]

    def setup(self, ctx):
        for member in self.members:
            member.setup(ctx)

    def run_pass(self, ctx):
        for member in self.members:
            member.run_pass(ctx)

    def final_checks(self, ctx):
        for member in self.members:
            member.final_checks(ctx)

    def pass_metrics(self, timings):
        merged = {}
        for member in self.members:
            merged.update(member.pass_metrics(timings))
        return merged

    def scaling(self, ctx, measure):
        merged = {}
        for member in self.members:
            merged.update(member.scaling(ctx, measure))
        return merged


class Enumerate(Combined):
    name = "enumerate"
    parts = (Sl3Orbit, Sl8Enumerate)


class Query(Combined):
    name = "query"
    parts = (Sl3Density, Geometry)


WORKLOADS = {w.name: w for w in (Enumerate, Query)}
