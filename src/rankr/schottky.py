"""Constructive Schottky groups on the full-flag boundary.

Given pairwise transverse prescribed fixed flags, we synthesize regular
axial generators (conjugated chamber translations) and generic parabolic
generators (conjugated regular unipotents), pick disjoint ping-pong
neighbourhoods, escalate generator powers until the ping-pong
containments hold, and certify the containments by sampling.  The
certification is statistical at an explicit resolution, not a proof; a
failure always carries a concrete witness.
"""

from dataclasses import dataclass, field

import numpy as np

from . import boundary, decompositions, defaults, isometries, kernel, lie
from .errors import (
    InsufficientGenerators,
    NotInterior,
    NotTransverse,
    PowerExhausted,
    RankrError,
    SpecError,
)

# Largest generator power build_table tries, and the boundary samples per
# neighbourhood it tries each power on.
_K_MAX = 60
_WORKING_RESOLUTION = 256


def adapt_frame(f_plus: boundary.Flag, f_minus: boundary.Flag) -> np.ndarray:
    """det-1 basis g sending the standard flag to f_plus and the reversed
    flag to f_minus.

    Column i spans the line V_i(f_plus) /\\ W_{n-i+1}(f_minus).
    """
    ok, _ = boundary.transverse(f_plus, f_minus)
    if not ok:
        raise NotTransverse("flags are not transverse")
    n = f_plus.n
    kp = boundary.flag_frame(f_plus)
    km = boundary.flag_frame(f_minus)
    cols = []
    for i in range(1, n + 1):
        u = kp[:, :i]
        w = km[:, : n - i + 1]
        stacked = np.concatenate([u, -w], axis=1)
        _, _, vh = np.linalg.svd(stacked)
        coeffs = vh[-1, :i]
        v = u @ coeffs
        cols.append(v / np.linalg.norm(v))
    g = np.column_stack(cols)
    g *= kernel.canonical_signs(g)
    d = np.linalg.det(g)
    if abs(d) < 1e-12:
        raise NotTransverse("adapted basis is numerically singular")
    return g / d ** (1.0 / n)


def make_axial(f_plus: boundary.Flag, f_minus: boundary.Flag, ell) -> np.ndarray:
    """Regular axial isometry with fixed flags (f_plus, f_minus) and
    translation vector ell (must be chamber-interior)."""
    ell = lie.as_cartan_vec(ell)
    kind, _ = lie.chamber_classify(ell)
    if kind != "interior":
        raise NotInterior("translation vector must be chamber-interior")
    g = adapt_frame(f_plus, f_minus)
    return (g * np.exp(ell)) @ np.linalg.inv(g)


def regular_unipotent(n: int) -> np.ndarray:
    return np.eye(n) + np.diag(np.ones(n - 1), 1)


def make_generic_parabolic(f: boundary.Flag) -> np.ndarray:
    """Generic parabolic isometry fixing the boundary points over flag f."""
    g = boundary.flag_frame(f)
    return g @ regular_unipotent(f.n) @ g.T


@dataclass
class PingPongTable:
    points: list  # 2l + p BoundaryPoints: (minus, plus) pairs then parabolic
    radii: np.ndarray
    base_generators: list  # l axial then p parabolic base isometries
    powers: list
    kinds: list  # "axial" | "parabolic"

    @property
    def n(self) -> int:
        return self.points[0].n

    @property
    def l_axial(self) -> int:
        return sum(1 for k in self.kinds if k == "axial")

    @property
    def p_parabolic(self) -> int:
        return sum(1 for k in self.kinds if k == "parabolic")

    def effective_generators(self):
        return [
            np.linalg.matrix_power(g, k)
            for g, k in zip(self.base_generators, self.powers)
        ]

    def neighborhood_indices(self, m: int):
        """(source-exclusion, target) neighborhood indices for generator m.

        Returns ((skip_fwd, target_fwd), (skip_bwd, target_bwd)).
        """
        if self.kinds[m] == "axial":
            minus, plus = 2 * m, 2 * m + 1
            return (minus, plus), (plus, minus)
        q = 2 * self.l_axial + (m - self.l_axial)
        return (q, q), (q, q)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "points": [
                {
                    "frame": boundary.flag_frame(p.flag).tolist(),
                    "direction": p.direction.tolist(),
                }
                for p in self.points
            ],
            "radii": self.radii.tolist(),
            "generators": [g.tolist() for g in self.base_generators],
            "powers": list(self.powers),
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PingPongTable":
        """The table of to_json_dict's output; SpecError when data is not
        one as build_table writes it: kinds axial, then parabolic; one
        generator and power per kind; two points and radii per axial
        generator and one per parabolic; finite n x n generators; finite
        radii above 0; integer powers in [1, _K_MAX]."""
        try:
            points = [
                boundary.boundary_point(
                    boundary.flag_from_frame(np.asarray(p["frame"], dtype=float)),
                    np.asarray(p["direction"], dtype=float),
                )
                for p in data["points"]
            ]
            table = cls(
                points=points,
                radii=np.asarray(data["radii"], dtype=float),
                base_generators=[kernel.as_matrix(g) for g in data["generators"]],
                powers=list(data["powers"]),
                kinds=list(data["kinds"]),
            )
        except (KeyError, IndexError, TypeError, ValueError, RankrError) as exc:
            raise SpecError(f"malformed table: {type(exc).__name__}: {exc}")
        l_count = table.kinds.count("axial")
        # (n, n) for every point (flag size, direction length) and generator.
        shapes = {(p.n, *p.direction.shape) for p in points}
        shapes |= {g.shape for g in table.base_generators}
        for ok, what in (
            (table.kinds, "needs at least one generator"),
            (
                table.kinds == ["axial"] * l_count
                + ["parabolic"] * (len(table.kinds) - l_count),
                "kinds must be 'axial', then 'parabolic'",
            ),
            (
                len(table.base_generators) == len(table.powers) == len(table.kinds),
                "needs one generator and one power per kind",
            ),
            (
                table.radii.shape == (len(points),)
                and len(points) == len(table.kinds) + l_count,
                "needs two points and radii per axial generator, one per parabolic",
            ),
            (len(shapes) == 1, "points and generators must share one dimension n"),
            (
                np.all(np.isfinite(table.radii) & (table.radii > 0)),
                "radii must be finite and above 0",
            ),
            (
                all(type(k) is int and 1 <= k <= _K_MAX for k in table.powers),
                f"powers must be integers in [1, {_K_MAX}]",
            ),
        ):
            if not ok:
                raise SpecError(f"malformed table: {what}")
        return table


@dataclass
class CertificationReport:
    status: str  # "certified-at-resolution" | "failed"
    resolution: int
    min_margin: float
    per_generator_margins: list
    reason: str = ""
    witness: dict | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified-at-resolution"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "resolution": self.resolution,
            "min_margin": self.min_margin,
            "per_generator_margins": self.per_generator_margins,
            "reason": self.reason,
            "witness": self.witness,
        }


def _cayley_map(skews: np.ndarray):
    """t -> Cay(tS) = (I + tS)(I - tS)^-1 for a batch of skew matrices S.

    One Hermitian eigensolve per batch, iS = V diag(w) V^H, gives
    S = V diag(lam) V^H with lam = -i w, so for every parameter vector t

        Cay(tS) = Re sum_k (1 + t lam_k) / (1 - t lam_k) v_k v_k^H
                = I + sum_k (-2 x_k^2 Re P_k + 2 x_k Im P_k) / (1 + x_k^2),

    where x_k = t w_k and P_k = v_k v_k^H.  The real and imaginary parts of
    the P_k are formed once, so each t costs one batched matrix-vector
    product and no linear solve.  The identity is split off, so the
    off-diagonal entries, of size 2t|S|, keep their relative accuracy at
    small t."""
    count, n, _ = skews.shape
    w, v = np.linalg.eigh(1j * skews)
    outer = np.einsum("nik,njk->nkij", v, v.conj())
    basis = np.concatenate([outer.real, outer.imag], axis=1).reshape(
        count, 2 * n, n * n
    )
    eye = np.eye(n).reshape(n * n)

    def cayley(t):
        x = t[:, None] * w
        scale = 2.0 / (1.0 + x * x)
        coef = np.concatenate([-x * x * scale, x * scale], axis=1)
        return (eye + np.matmul(coef[:, None, :], basis)[:, 0]).reshape(count, n, n)

    return cayley


def sample_flags_near(
    center: boundary.Flag, targets: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Frames of flags at prescribed flag distances from a center flag.

    Random unit skew directions S give the frames center @ Cay(tS).  The
    flag distance is invariant under the center frame, so each t is
    bisected for 50 steps on the distance of Cay(tS) to the standard
    flag, in the center's coordinates; only the final frames are rotated
    by the center."""
    n = center.n
    count = len(targets)
    raw = rng.standard_normal((count, n, n))
    skews = raw - raw.transpose(0, 2, 1)
    skews /= np.linalg.norm(skews, axis=(1, 2), keepdims=True)
    cayley = _cayley_map(skews)

    def dist(t):
        return boundary.standard_flag_distances(cayley(t))

    lo = np.zeros(count)
    hi = np.full(count, 0.5)
    for _ in range(12):  # grow until every path crosses its target
        short = dist(hi) < targets
        if not short.any():
            break
        hi[short] *= 2.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        low = dist(mid) < targets
        lo[low] = mid[low]
        hi[~low] = mid[~low]
    return np.matmul(boundary.flag_frame(center), cayley(0.5 * (lo + hi)))


def _sources(table: PingPongTable, resolution: int, rng):
    """(samples, complements) for the containment checks.

    samples[i]: boundary-biased flags of neighbourhood i plus its center;
    then, for each parabolic generator m in order, complements[m]: uniform
    flags rejected from its neighbourhood (the two-sided check)."""
    samples = []
    for point, radius in zip(table.points, table.radii):
        targets = rng.uniform(0.8 * radius, radius, size=resolution)
        frames = sample_flags_near(point.flag, targets, rng)
        samples.append(
            np.concatenate([frames, boundary.flag_frame(point.flag)[None]], axis=0)
        )
    complements = {}
    for m, kind in enumerate(table.kinds):
        if kind != "parabolic":
            continue
        q = table.neighborhood_indices(m)[0][0]
        kept = []
        need = resolution
        while need > 0:
            frames = boundary.random_frames(rng, 2 * need, table.n)
            dist = boundary.flag_distances_to_center(frames, table.points[q].flag)
            good = frames[dist > table.radii[q]][:need]
            kept.append(good)
            need -= len(good)
        complements[m] = np.concatenate(kept, axis=0)
    return samples, complements


def _generator_margin(table, m, gen_eff, samples, complement=None):
    """Min containment margin for generator m over all required sources.

    Each direction maps all of its sources (every neighbourhood but the
    excluded one, then the complement, as source -1) as one stack.
    Returns (margin, witness-or-None)."""
    worst = np.inf
    witness = None
    for direction, mat, (skip, tgt) in zip(
        ("forward", "backward"),
        (gen_eff, np.linalg.inv(gen_eff)),
        table.neighborhood_indices(m),
    ):
        ids = [i for i in range(len(table.points)) if i != skip]
        stacks = [samples[i] for i in ids]
        if complement is not None:
            ids.append(-1)
            stacks.append(complement)
        frames = np.concatenate(stacks, axis=0)
        images = boundary.act_frames(mat, frames)
        dist = boundary.flag_distances_to_center(images, table.points[tgt].flag)
        # A non-finite image (an overflowing power) is the worst violation;
        # as NaN it would compare False against every margin.
        dist[~np.isfinite(dist)] = np.inf
        idx = int(np.argmax(dist))
        margin = float(table.radii[tgt] - dist[idx])
        if margin < worst:
            ends = np.cumsum([len(f) for f in stacks])
            worst = margin
            witness = {
                "generator": m,
                "direction": direction,
                "source_neighborhood": ids[int(np.searchsorted(ends, idx, "right"))],
                "target_neighborhood": tgt,
                "image_distance": float(dist[idx]),
                "target_radius": float(table.radii[tgt]),
                "sample_frame": frames[idx].tolist(),
            }
    return worst, (witness if worst <= 0 else None)


def build_table(
    points,
    ell_choices,
    radius_policy: float = 0.3,
    seed: int = 0,
) -> PingPongTable:
    """Assemble generators and neighbourhoods and escalate powers.

    points: 2l+p boundary points, (minus, plus) pairs for the axial
    generators followed by p parabolic fixed points; ell_choices: one
    interior translation vector per axial generator.  Each power k up to
    _K_MAX is tried as matrix_power(base, k), the matrix
    effective_generators returns, on _WORKING_RESOLUTION samples per
    neighbourhood.
    """
    points = list(points)
    l_count = len(ell_choices)
    p_count = len(points) - 2 * l_count
    if l_count + p_count < 1 or p_count < 0:
        raise InsufficientGenerators("need at least one generator")
    flags = [p.flag for p in points]
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            ok, _ = boundary.transverse(flags[i], flags[j])
            if not ok:
                raise NotTransverse(f"prescribed flags {i} and {j} not transverse")

    gens = []
    kinds = []
    for m in range(l_count):
        gens.append(make_axial(flags[2 * m + 1], flags[2 * m], ell_choices[m]))
        kinds.append("axial")
    for m in range(p_count):
        gens.append(make_generic_parabolic(flags[2 * l_count + m]))
        kinds.append("parabolic")

    min_sep = min(
        boundary.flag_distance(flags[i], flags[j])
        for i in range(len(flags))
        for j in range(i + 1, len(flags))
    )
    radius = min(radius_policy, min_sep / 3.0)
    table = PingPongTable(
        points=points,
        radii=np.full(len(points), radius),
        base_generators=gens,
        powers=[1] * len(gens),
        kinds=kinds,
    )

    rng = np.random.default_rng(seed)
    samples, complements = _sources(table, _WORKING_RESOLUTION, rng)
    for m, base in enumerate(gens):
        power = None
        for k in range(1, _K_MAX + 1):
            margin, _ = _generator_margin(
                table, m, np.linalg.matrix_power(base, k), samples, complements.get(m)
            )
            if margin > 0:
                power = k
                break
        if power is None:
            raise PowerExhausted(
                f"generator {m} failed containment up to power {_K_MAX}"
            )
        table.powers[m] = power
    return table


def certify_klein(
    table: PingPongTable, resolution: int, seed: int = 1
) -> CertificationReport:
    """Sample-based certification of the ping-pong containments.

    Verifies neighbourhood disjointness and pairwise transversality, then
    checks that every generator maps the sampled sources into its target
    with positive margin.  Statistical evidence at the stated resolution,
    not a proof.
    """

    def failed(reason, min_margin, margins=(), witness=None):
        return CertificationReport(
            status="failed",
            resolution=resolution,
            min_margin=min_margin,
            per_generator_margins=list(margins),
            reason=reason,
            witness=witness,
        )

    if len(table.base_generators) < 2:
        return failed(
            "precondition: Klein's criterion needs at least two "
            "generator subgroups (one with three or more elements)",
            float("-inf"),
        )
    # Disjointness with separation slack.
    for i in range(len(table.points)):
        for j in range(i + 1, len(table.points)):
            dist = boundary.flag_distance(
                table.points[i].flag, table.points[j].flag
            )
            if dist <= table.radii[i] + table.radii[j] + defaults.DELTA_SEP:
                return failed(
                    "neighbourhoods overlap",
                    float(dist - table.radii[i] - table.radii[j]),
                    witness={"type": "overlap", "i": i, "j": j, "distance": dist},
                )
            ok, margin = boundary.transverse(
                table.points[i].flag, table.points[j].flag
            )
            if not ok:
                return failed(
                    "fixed flags not transverse",
                    margin,
                    witness={"type": "not-transverse", "i": i, "j": j},
                )

    rng = np.random.default_rng(seed)
    samples, complements = _sources(table, resolution, rng)
    margins = []
    witness = None
    for m, gen_eff in enumerate(table.effective_generators()):
        margin, wit = _generator_margin(
            table, m, gen_eff, samples, complements.get(m)
        )
        margins.append(margin)
        if wit is not None and witness is None:
            witness = wit
    min_margin = float(min(margins))
    if min_margin <= 0:
        return failed("containment violated", min_margin, margins, witness)
    return CertificationReport(
        status="certified-at-resolution",
        resolution=resolution,
        min_margin=min_margin,
        per_generator_margins=margins,
    )


def generator_fixed_flags(table: PingPongTable):
    """Fixed flag pair per generator: (plus, minus) for axial, (f, f) for
    parabolic."""
    out = []
    for m in range(len(table.kinds)):
        # The forward (skip, target) pair is (minus, plus); (q, q) for parabolic.
        (minus, plus), _ = table.neighborhood_indices(m)
        out.append((table.points[plus].flag, table.points[minus].flag))
    return out


def check_nonelementary(table_or_generators):
    """Transversality hypotheses for nonelementarity of the generated group.

    Every fixed flag of every generator must be transverse to both fixed
    flags of every other generator.  Returns (bool, reason).
    """
    if isinstance(table_or_generators, PingPongTable):
        fixed = generator_fixed_flags(table_or_generators)
    else:
        gens = list(table_or_generators)
        fixed = []
        for g in gens:
            cls = isometries.classify(g)
            u = cls.parts.u
            if cls.tag in ("regular-axial", "nonregular-axial", "mixed-parabolic"):
                plus, minus = isometries._fixed_points(cls.parts)
                fixed.append((plus.flag, minus.flag))
            elif cls.tag == "strictly-parabolic" and isometries._regular_unipotent(u):
                f = isometries.unipotent_fixed_flag(u)
                fixed.append((f, f))
            else:
                return False, f"generator of class {cls.tag} unsupported"
    if len(fixed) < 2:
        raise InsufficientGenerators("need at least two generators")
    for i in range(len(fixed)):
        for m in range(len(fixed)):
            if i == m:
                continue
            for fi in fixed[i]:
                for fm in fixed[m]:
                    ok, _ = boundary.transverse(fi, fm)
                    if not ok:
                        return False, (
                            f"fixed flags of generators {i} and {m} fail the "
                            "visibility condition"
                        )
    return True, "pairwise visibility conditions hold"
