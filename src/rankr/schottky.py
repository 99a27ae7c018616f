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
)


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
        v = v / np.linalg.norm(v)
        idx = int(np.argmax(np.abs(v)))
        if v[idx] < 0:
            v = -v
        cols.append(v)
    g = np.column_stack(cols)
    d = np.linalg.det(g)
    if abs(d) < 1e-12:
        raise NotTransverse("adapted basis is numerically singular")
    if d < 0:
        g[:, -1] *= -1.0
        d = -d
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
        points = [
            boundary.boundary_point(
                boundary.flag_from_frame(np.asarray(p["frame"], dtype=float)),
                np.asarray(p["direction"], dtype=float),
            )
            for p in data["points"]
        ]
        return cls(
            points=points,
            radii=np.asarray(data["radii"], dtype=float),
            base_generators=[np.asarray(g, dtype=float) for g in data["generators"]],
            powers=[int(k) for k in data["powers"]],
            kinds=list(data["kinds"]),
        )


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


def _cayley_frames(center_frame: np.ndarray, skews: np.ndarray, t: np.ndarray):
    """center @ (I + tS)(I - tS)^-1 for a batch of skew matrices."""
    n = center_frame.shape[0]
    eye = np.eye(n)
    a = skews * t[:, None, None]
    rot = np.linalg.solve((eye - a).transpose(0, 2, 1), (eye + a).transpose(0, 2, 1))
    rot = rot.transpose(0, 2, 1)
    return np.einsum("ij,njk->nik", center_frame, rot)


def sample_flags_near(
    center: boundary.Flag, targets: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Frames of flags at prescribed flag distances from a center flag.

    Random tangent directions, bisected along a Cayley path for 50 steps
    toward the parameter at which the flag distance matches each target.
    """
    n = center.n
    count = len(targets)
    frame = boundary.flag_frame(center)
    raw = rng.standard_normal((count, n, n))
    skews = raw - raw.transpose(0, 2, 1)
    skews /= np.linalg.norm(skews, axis=(1, 2), keepdims=True)

    def dist(t):
        frames = _cayley_frames(frame, skews, t)
        return boundary.flag_distances_to_center(
            boundary.frames_to_projector_stack(frames), center
        )

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
    return _cayley_frames(frame, skews, 0.5 * (lo + hi))


def _neighborhood_samples(table: PingPongTable, resolution: int, rng):
    """Per-neighborhood sample frames, boundary-biased plus the center."""
    out = []
    for point, radius in zip(table.points, table.radii):
        targets = rng.uniform(0.8 * radius, radius, size=resolution)
        frames = sample_flags_near(point.flag, targets, rng)
        frames = np.concatenate(
            [frames, boundary.flag_frame(point.flag)[None]], axis=0
        )
        out.append(frames)
    return out


def _complement_samples(table: PingPongTable, q: int, resolution: int, rng):
    """Uniform flags rejected from U_q (for the parabolic two-sided check)."""
    n = table.n
    center = table.points[q].flag
    radius = table.radii[q]
    kept = []
    need = resolution
    while need > 0:
        frames = boundary.random_frames(rng, 2 * need, n)
        dist = boundary.flag_distances_to_center(
            boundary.frames_to_projector_stack(frames), center
        )
        good = frames[dist > radius]
        kept.append(good[:need])
        need -= len(good[:need])
    return np.concatenate(kept, axis=0)


def _mapping_margin(table, gen, target_idx, source_frames):
    """Worst containment margin of gen(source flags) inside the target
    neighborhood, plus the worst offender's index and distance."""
    images = boundary.act_frames(gen, source_frames)
    dist = boundary.flag_distances_to_center(
        boundary.frames_to_projector_stack(images), table.points[target_idx].flag
    )
    worst = int(np.argmax(dist))
    return float(table.radii[target_idx] - dist[worst]), worst, float(dist[worst])


def _generator_margin(table, m, gen_eff, samples, complement=None):
    """Min containment margin for generator m over all required sources.

    Returns (margin, witness-or-None)."""
    inv = np.linalg.inv(gen_eff)
    (skip_f, tgt_f), (skip_b, tgt_b) = table.neighborhood_indices(m)
    worst = np.inf
    witness = None
    for direction, mat, skip, tgt in (
        ("forward", gen_eff, skip_f, tgt_f),
        ("backward", inv, skip_b, tgt_b),
    ):
        sources = [
            (i, samples[i]) for i in range(len(table.points)) if i != skip
        ]
        if table.kinds[m] == "parabolic" and complement is not None:
            sources.append((-1, complement))
        for i, frames in sources:
            margin, idx, dist = _mapping_margin(table, mat, tgt, frames)
            if margin < worst:
                worst = margin
                witness = {
                    "generator": m,
                    "direction": direction,
                    "source_neighborhood": i,
                    "target_neighborhood": tgt,
                    "image_distance": dist,
                    "target_radius": float(table.radii[tgt]),
                    "sample_frame": frames[idx].tolist(),
                }
    return worst, (witness if worst <= 0 else None)


def build_table(
    points,
    ell_choices,
    radius_policy: float = 0.3,
    k_max: int = 60,
    working_resolution: int = 256,
    seed: int = 0,
) -> PingPongTable:
    """Assemble generators and neighbourhoods and escalate powers.

    points: 2l+p boundary points, (minus, plus) pairs for the axial
    generators followed by p parabolic fixed points; ell_choices: one
    interior translation vector per axial generator.
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
    samples = _neighborhood_samples(table, working_resolution, rng)
    complements = {
        m: _complement_samples(table, table.neighborhood_indices(m)[0][0],
                               working_resolution, rng)
        for m in range(len(gens))
        if kinds[m] == "parabolic"
    }
    for m, base in enumerate(gens):
        power = None
        gen_eff = np.eye(table.n)
        for k in range(1, k_max + 1):
            gen_eff = gen_eff @ base
            margin, _ = _generator_margin(
                table, m, gen_eff, samples, complements.get(m)
            )
            if margin > 0:
                power = k
                break
        if power is None:
            raise PowerExhausted(
                f"generator {m} failed containment up to power {k_max}"
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
    if len(table.base_generators) < 2:
        return CertificationReport(
            status="failed",
            resolution=resolution,
            min_margin=float("-inf"),
            per_generator_margins=[],
            reason="precondition: Klein's criterion needs at least two "
            "generator subgroups (one with three or more elements)",
        )
    # Disjointness with separation slack.
    for i in range(len(table.points)):
        for j in range(i + 1, len(table.points)):
            dist = boundary.flag_distance(
                table.points[i].flag, table.points[j].flag
            )
            if dist <= table.radii[i] + table.radii[j] + defaults.DELTA_SEP:
                return CertificationReport(
                    status="failed",
                    resolution=resolution,
                    min_margin=float(
                        dist - table.radii[i] - table.radii[j]
                    ),
                    per_generator_margins=[],
                    reason="neighbourhoods overlap",
                    witness={"type": "overlap", "i": i, "j": j, "distance": dist},
                )
            ok, margin = boundary.transverse(
                table.points[i].flag, table.points[j].flag
            )
            if not ok:
                return CertificationReport(
                    status="failed",
                    resolution=resolution,
                    min_margin=margin,
                    per_generator_margins=[],
                    reason="fixed flags not transverse",
                    witness={"type": "not-transverse", "i": i, "j": j},
                )

    rng = np.random.default_rng(seed)
    samples = _neighborhood_samples(table, resolution, rng)
    margins = []
    witness = None
    for m, gen_eff in enumerate(table.effective_generators()):
        complement = None
        if table.kinds[m] == "parabolic":
            complement = _complement_samples(
                table, table.neighborhood_indices(m)[0][0], resolution, rng
            )
        margin, wit = _generator_margin(table, m, gen_eff, samples, complement)
        margins.append(margin)
        if wit is not None and witness is None:
            witness = wit
    min_margin = float(min(margins))
    if min_margin <= 0:
        return CertificationReport(
            status="failed",
            resolution=resolution,
            min_margin=min_margin,
            per_generator_margins=margins,
            reason="containment violated",
            witness=witness,
        )
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
    for m, kind in enumerate(table.kinds):
        if kind == "axial":
            out.append((table.points[2 * m + 1].flag, table.points[2 * m].flag))
        else:
            q = 2 * table.l_axial + (m - table.l_axial)
            out.append((table.points[q].flag, table.points[q].flag))
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
            if cls.tag in ("regular-axial", "nonregular-axial", "mixed-parabolic"):
                plus, minus = isometries.fixed_points(g)
                fixed.append((plus.flag, minus.flag))
            elif cls.tag == "strictly-parabolic" and isometries.is_generic_parabolic(g):
                f = isometries.unipotent_fixed_flag(isometries.jordan_decompose(g).u)
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
