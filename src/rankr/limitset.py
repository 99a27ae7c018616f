"""Orbit enumeration and limit-set experiments.

This is the throughput-sensitive part of the package.  Reduced words in
the generators are enumerated level by level as padded integer arrays
(letter 2i is generator i, letter 2i+1 its inverse, so xor 1 flips a
letter).

A word of length twelve in a ping-pong group is squeezed so hard that a
plain float64 product retains only its largest singular value; every
smaller one drowns in roundoff.  Each word is therefore carried in the
factored form  w = Q e^{diag a} N  (orthogonal frame, log scales, unit
upper triangular with moderate entries).  Prepending a generator updates
the factorization exactly, because QR commutes with right diagonal
scaling:  g Q e^a N = Q' (R' e^a) N  with QR(g Q) = Q' R' computed on a
well-scaled matrix.  Cartan vectors come from one batched SVD of the
graded factor e^a N (kernel.graded_log_singular_values), which keeps the
small singular values to relative accuracy; only the eigenvalue moduli
are read off through exterior powers, with the exponents carried
symbolically.  Directions stay accurate at any word length.

Emitted sample order is the depth-first preorder of the word tree with
children in fixed alphabet order (a < a' < b < b' < ...), recovered by a
single lexicographic sort, so the stream is byte-identical for any
worker count.
"""

import os
import string
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree

from . import boundary, defaults, isometries, kernel
from .errors import (
    EmptySample,
    IdentityInput,
    IllConditionedSpectrum,
    InsufficientGenerators,
)

_PAD = -1
_LOG_OVERFLOW = 345.0  # log 1e150


def resolve_workers(workers=None) -> int:
    """An explicit worker count wins; else RANKR_THREADS; else the CPU count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("RANKR_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def word_count(l: int, max_length: int) -> int:
    """Number of reduced words of length <= max_length in rank l."""
    if l == 1:
        return 2 * max_length + 1
    return 1 + 2 * l * ((2 * l - 1) ** max_length - 1) // (2 * l - 2)


def _letter_stack(generators):
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise InsufficientGenerators("need at least one generator")
    letters = []
    for g in gens:
        letters.append(g)
        letters.append(np.linalg.inv(g))
    return np.stack(letters)


def _prepend(letter, q, a, nu):
    """Factored update (q, a, nu) -> factorization of letter @ q e^a nu."""
    prod = np.einsum("ij,njk->nik", letter, q)
    q2, r2 = kernel.qr_pos(prod)
    rd = np.einsum("nii->ni", r2)
    a2 = a + np.log(rd)
    # Unit-upper factor of (r2 e^a): entry (i, j) picks up e^{a_j - a_i}.
    expo = a[:, None, :] - a[:, :, None]
    upper = np.triu(np.ones_like(expo), 1)
    ratio = (r2 / rd[:, :, None]) * upper
    # An exactly zero entry stays zero even when its grading exponent
    # overflows; without the mask 0 * inf would poison the factor.
    with np.errstate(over="ignore", invalid="ignore"):
        mixer = ratio * np.exp(expo * upper)
    mixer[ratio == 0.0] = 0.0
    mixer += np.eye(a.shape[1])
    return q2, a2, np.einsum("nij,njk->nik", mixer, nu)


def _grow_block(letters, seed, max_length):
    """All reduced words ending with a fixed letter, grown by prepending.

    Returns padded word rows and the factored values (q, a, nu)."""
    alpha = len(letters)
    n = letters.shape[-1]
    words = np.full((1, max_length), _PAD, dtype=np.int8)
    words[0, 0] = seed
    q, r = kernel.qr_pos(letters[seed][None])
    rd = np.einsum("nii->ni", r)
    a = np.log(rd)
    nu = r / rd[:, :, None]
    out = [(words, q, a, nu)]
    for depth in range(1, max_length):
        prev_w, prev_q, prev_a, prev_nu = out[-1]
        first = prev_w[:, 0]
        chunks = []
        for c in range(alpha):
            mask = first != (c ^ 1)
            if not mask.any():
                continue
            w = np.full((int(mask.sum()), max_length), _PAD, dtype=np.int8)
            w[:, 0] = c
            w[:, 1 : depth + 1] = prev_w[mask, :depth]
            chunks.append(
                (w, *_prepend(letters[c], prev_q[mask], prev_a[mask], prev_nu[mask]))
            )
        out.append(tuple(np.concatenate(parts) for parts in zip(*chunks)))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _word_values(generators, max_length, workers=None):
    """All reduced words of length <= max_length in factored form.

    Rows are in depth-first preorder; row 0 is the identity word."""
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    letters = _letter_stack(generators)
    n = letters.shape[-1]
    count = resolve_workers(workers)
    blocks = list(range(len(letters)))
    if count > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=min(count, len(blocks))) as pool:
            results = list(
                pool.map(lambda s: _grow_block(letters, s, max_length), blocks)
            )
    else:
        results = [_grow_block(letters, s, max_length) for s in blocks]
    words = np.concatenate(
        [np.full((1, max_length), _PAD, dtype=np.int8)]
        + [r[0] for r in results]
    )
    q = np.concatenate([np.eye(n)[None]] + [r[1] for r in results])
    a = np.concatenate([np.zeros((1, n))] + [r[2] for r in results])
    nu = np.concatenate([np.eye(n)[None]] + [r[3] for r in results])
    # Preorder = lexicographic with the pad sorting first.
    order = np.lexsort(tuple(words[:, j] for j in range(max_length - 1, -1, -1)))
    return words[order], q[order], a[order], nu[order]


def _materialize(q, a, nu):
    """Assemble w = q e^a nu; safe while max(a) stays below ~700."""
    return np.einsum("nij,njk->nik", q, np.exp(a)[:, :, None] * nu)


def _stack_cartan(a, nu):
    """Centered log singular values of a stack of factored words.

    The graded factor e^a nu goes through the graded SVD kernel, which
    keeps the small singular values however squeezed the word is."""
    ls = kernel.graded_log_singular_values(a, nu)
    return ls - ls.mean(axis=1, keepdims=True)


def _stack_log_moduli(q, a, nu):
    """Centered log eigenvalue moduli of a stack of factored words.

    |l_1 ... l_k| is the dominant eigenvalue modulus of the k-th exterior
    power, an isolated and well-conditioned quantity; a plain eigenvalue
    call on the assembled product would fuse the small moduli into
    spurious complex pairs."""
    count, n = a.shape
    cum = np.zeros((n + 1, count))
    for k in range(1, n):
        # k-th exterior power of e^a nu: row log-weights w, moderate part cn.
        w = kernel.combo_sums(a, k)
        cn = nu if k == 1 else kernel.compound(nu, k)
        cq = q if k == 1 else kernel.compound(q, k)
        shift = w.max(axis=1)
        m = np.einsum(
            "nij,njk->nik", cq, np.exp(w - shift[:, None])[:, :, None] * cn
        )
        scale = np.maximum(np.abs(m).max(axis=(1, 2)), 1e-300)
        top = np.abs(np.linalg.eigvals(m / scale[:, None, None])).max(axis=1)
        cum[k] = np.log(np.maximum(top, 1e-300)) + np.log(scale) + shift
    cum[n] = a.sum(axis=1)
    lm = np.diff(cum, axis=0).T
    lm = np.sort(lm, axis=1)[:, ::-1]
    return lm - lm.mean(axis=1, keepdims=True)


class SampleSet:
    """Columnar store of orbit samples, one row per reduced word.

    Word values live in the factored form q e^a nu (see module notes);
    value(i) assembles the actual matrix."""

    def __init__(self, words, lengths, q, a, nu, dirs, frames, tags, jdirs):
        self.words = words
        self.lengths = lengths
        self.q = q
        self.a = a
        self.nu = nu
        self.dirs = dirs
        self.frames = frames
        self.tags = tags
        self.jdirs = jdirs  # NaN rows when not axial
        self.overflow = a.max(axis=1) > _LOG_OVERFLOW

    def __len__(self):
        return len(self.lengths)

    @property
    def n(self) -> int:
        return self.q.shape[-1]

    def word_tuple(self, i) -> tuple:
        row = self.words[i]
        return tuple(int(c) for c in row[row != _PAD])

    def value(self, i) -> np.ndarray:
        return _materialize(self.q[i][None], self.a[i][None], self.nu[i][None])[0]

    def values(self) -> np.ndarray:
        return _materialize(self.q, self.a, self.nu)


def _classify_stack(q, a, nu, lengths):
    """Per-row class tags and Jordan directions for a factored word stack.

    Distinct eigenvalue moduli force a regular axial isometry (each
    generalized eigenspace is a real line), which covers almost every word
    of a free discrete group; the rare remainder goes through the exact
    per-matrix classifier."""
    count, n = a.shape
    ell = _stack_log_moduli(q, a, nu)
    norms = np.linalg.norm(ell, axis=1)
    gaps = np.min(ell[:, :-1] - ell[:, 1:], axis=1)
    tags = np.empty(count, dtype=object)
    jdirs = np.full((count, n), np.nan)
    # Rows whose smallest modulus gap could still be eigenvalue noise take
    # the exact per-matrix path.
    regular = (norms > 1e-8) & (gaps > 1e-6 * np.maximum(1.0, norms))
    tags[regular] = "regular-axial"
    jdirs[regular] = ell[regular] / norms[regular, None]
    tags[lengths == 0] = "identity"
    jdirs[lengths == 0] = np.nan
    slow = np.flatnonzero((~regular) & (lengths > 0))
    for i in slow:
        g = _materialize(q[i][None], a[i][None], nu[i][None])[0]
        try:
            cls = isometries.classify(g)
        except IdentityInput:
            tags[i] = "elliptic"
            continue
        except (IllConditionedSpectrum, np.linalg.LinAlgError):
            tags[i] = "unresolved"
            continue
        tags[i] = cls.tag
        if "axial" in cls.tag:
            jdirs[i] = cls.translation / np.linalg.norm(cls.translation)
    return tags, jdirs


def _unit_directions(h):
    """Rows of h scaled to unit norm; rows with a vanishing Cartan vector
    stay zero."""
    norms = np.linalg.norm(h, axis=1)
    dirs = np.zeros_like(h)
    nz = norms > 1e-12
    dirs[nz] = h[nz] / norms[nz, None]
    return dirs


def enumerate_samples(generators, max_length, workers=None) -> SampleSet:
    """Every reduced word of length <= max_length, fully annotated.

    Angular flags come from one batched SVD of the graded factor (the
    singular frames stay accurate however squeezed the word is); Cartan
    vectors from the graded SVD kernel; class tags and Jordan directions
    from one batched dominant-eigenvalue pass."""
    words, q, a, nu = _word_values(generators, max_length, workers)
    lengths = (words != _PAD).sum(axis=1)
    # Left singular frames of e^a nu, rotated by q.
    shift = a.max(axis=1)
    graded = np.exp(a - shift[:, None])[:, :, None] * nu
    u, _, _ = np.linalg.svd(graded)
    frames = np.einsum("nij,njk->nik", q, u)
    dirs = _unit_directions(_stack_cartan(a, nu))
    tags, jdirs = _classify_stack(q, a, nu, lengths)
    return SampleSet(words, lengths, q, a, nu, dirs, frames, tags, jdirs)


def orbit_directions(generators, max_length, workers=None):
    """(lengths, unit Cartan directions) of every reduced word of length
    <= max_length: the part of enumerate_samples that shells need, with
    no frames and no classification.  Zero rows mark words whose Cartan
    vector vanishes."""
    words, _, a, nu = _word_values(generators, max_length, workers)
    return (words != _PAD).sum(axis=1), _unit_directions(_stack_cartan(a, nu))


def _snap_unique(dirs: np.ndarray) -> np.ndarray:
    """Grid-snap directions and drop duplicates; rows come back sorted."""
    if len(dirs) == 0:
        return dirs
    snapped = np.round(dirs / defaults.DIR_SNAP) * defaults.DIR_SNAP
    snapped[snapped == 0.0] = 0.0  # normalize -0.0
    return np.unique(snapped, axis=0)


def _cyclic_canonical(words, lengths, max_length):
    """Indices of one representative per cyclic-rotation class.

    Input rows must be cyclically reduced.  Each rotation is encoded in a
    base-(alphabet+1) integer together with the length, and the minimum
    over rotations keys the deduplication."""
    base = int(words.max()) + 2
    codes = np.full(len(words), np.iinfo(np.int64).max, dtype=np.int64)
    for length in np.unique(lengths):
        idx = np.flatnonzero(lengths == length)
        w = words[idx, :length].astype(np.int64) + 1
        powers = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
        best = None
        for r in range(int(length)):
            rolled = np.concatenate([w[:, r:], w[:, :r]], axis=1)
            code = rolled @ powers
            best = code if best is None else np.minimum(best, code)
        codes[idx] = best + np.int64(length) * base ** np.int64(max_length)
    _, keep = np.unique(codes, return_index=True)
    return np.sort(keep)


def limit_cone_sample(generators, max_length, workers=None) -> np.ndarray:
    """Unit translation directions of the regular axial words.

    Conjugate words share the translation vector, so only cyclically
    reduced words are kept, deduplicated up to cyclic rotation, and the
    resulting directions are grid-snapped."""
    words, q, a, nu = _word_values(generators, max_length, workers)
    lengths = (words != _PAD).sum(axis=1)
    first = words[:, 0]
    last = words[np.arange(len(words)), np.maximum(lengths - 1, 0)]
    cyc = (lengths >= 1) & ((first != (last ^ 1)) | (lengths == 1))
    words, q, a, nu, lengths = (
        words[cyc], q[cyc], a[cyc], nu[cyc], lengths[cyc],
    )
    keep = _cyclic_canonical(words, lengths, max_length)
    tags, jdirs = _classify_stack(q[keep], a[keep], nu[keep], lengths[keep])
    axial = np.array(["axial" in t for t in tags])
    good = axial & ~np.isnan(jdirs[:, 0])
    if not good.any():
        raise EmptySample("no axial words found")
    return _snap_unique(jdirs[good])


def directional_sample(
    generators, max_length, min_length=6, workers=None
) -> np.ndarray:
    """Cartan directions of words with length in [min_length, max_length]."""
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    lengths, dirs = orbit_directions(generators, max_length, workers)
    return directions_in_range(lengths, dirs, min_length, max_length)


def directions_in_range(lengths, dirs, min_length, max_length) -> np.ndarray:
    """Grid-snapped unit Cartan directions of the words with length in
    [min_length, max_length], picked from per-word directions that
    orbit_directions or enumerate_samples already computed.  A word's
    direction is the same arithmetic whatever length its orbit was grown
    to, so one orbit serves every shell up to its length."""
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    mask = (lengths >= min_length) & (lengths <= max_length)
    if not mask.any():
        raise EmptySample("no words in the requested length range")
    picked = dirs[mask]
    return _snap_unique(picked[picked.any(axis=1)])


def one_sided_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of the distance to the nearest point of b."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySample("one-sided distance of an empty set")
    d, _ = cKDTree(b).query(a)
    return float(np.max(d))


def cone_theorem_check(
    generators, lp_values=(6, 8, 10), l_cone=12, workers=None
) -> dict:
    """Directional samples against the limit cone at increasing depth.

    For each shell depth the directions of the words of exactly that
    length are compared with the axial translation directions gathered up
    to l_cone; the forward distance should shrink as the shell deepens.
    The cone and the deepest orbit are each grown once."""
    cone = limit_cone_sample(generators, l_cone, workers)
    lengths = dirs = None
    if lp_values:
        lengths, dirs = orbit_directions(generators, max(lp_values), workers)
    return cone_report(cone, lengths, dirs, lp_values, l_cone)


def cone_report(cone, lengths, dirs, lp_values, l_cone) -> dict:
    """The cone_theorem_check report from a computed cone and per-word
    directions (as returned by orbit_directions) reaching max(lp_values)."""
    rows = []
    for lp in lp_values:
        shell = directions_in_range(lengths, dirs, lp, lp)
        rows.append(
            {
                "shell_length": int(lp),
                "forward": one_sided_distance(shell, cone),
                "backward": one_sided_distance(cone, shell),
            }
        )
    forward = [r["forward"] for r in rows]
    trend = all(b <= a + 1e-15 for a, b in zip(forward, forward[1:]))
    return {
        "cone_length": int(l_cone),
        "cone_size": int(len(cone)),
        "rows": rows,
        "trend_non_increasing": trend,
    }


def _flag_embed(frames: np.ndarray) -> np.ndarray:
    """Flatten projector chains; Euclidean distance here dominates the
    flag distance and is dominated by sqrt(n-1) times it."""
    n = frames.shape[-1]
    stack = boundary.frames_to_projector_stack(frames)
    return stack.reshape(len(frames), (n - 1) * n * n)


def _exact_flag_dists(embed_rows, target_row, n):
    diff = (embed_rows - target_row).reshape(len(embed_rows), n - 1, n * n)
    return np.linalg.norm(diff, axis=2).max(axis=1)


def _nearest_exact(points, queries, exact, stretch):
    """(bound, best): the Euclidean and the exact nearest distance from
    each query row to the point rows.

    exact(rows, query) is a metric d with d <= D <= stretch * d against
    the Euclidean distance D, so the exact nearest point lies within
    stretch * bound of the query, and only that ball is refined."""
    tree = cKDTree(points)
    bound, _ = tree.query(queries)
    balls = tree.query_ball_point(queries, bound * stretch + 1e-12)
    best = np.array(
        [exact(points[ball], q).min() for ball, q in zip(balls, queries)]
    )
    return bound, best


def gap_to_neighborhoods(frames: np.ndarray, table) -> np.ndarray:
    """min over table neighborhoods of (flag distance to center - radius).

    Negative means the flag sits inside some neighborhood."""
    stack = boundary.frames_to_projector_stack(frames)
    gaps = np.full(len(frames), np.inf)
    for point, radius in zip(table.points, table.radii):
        d = boundary.flag_distances_to_center(stack, point.flag)
        gaps = np.minimum(gaps, d - radius)
    return gaps


def minimality_check(
    table, xi0, targets, max_length, eps=0.05, workers=None
) -> dict:
    """Orbit density and neighborhood containment for a certified table.

    (a) every target flag must be eps-approached by the orbit of xi0 under
    words of length <= max_length; (b) every angular flag of a word of
    length >= 2 must land inside the union of the table neighborhoods."""
    generators = table.effective_generators()
    samples = enumerate_samples(generators, max_length, workers)
    n = samples.n
    frame0 = boundary.flag_frame(xi0.flag)
    prod = np.einsum("nij,jk->nik", samples.values(), frame0)
    embed = _flag_embed(kernel.qr_pos(prod)[0])
    queries = _flag_embed(
        np.array([boundary.flag_frame(t) for t in targets]).reshape(-1, n, n)
    )
    bound, best = _nearest_exact(
        embed, queries, lambda rows, q: _exact_flag_dists(rows, q, n),
        np.sqrt(n - 1),
    )
    approached = best < eps
    worst = float(np.where(approached, best, bound).max(initial=0.0))
    long_mask = samples.lengths >= 2
    gaps = gap_to_neighborhoods(samples.frames[long_mask], table)
    contained = gaps < 0.0
    return {
        "eps": eps,
        "targets": len(targets),
        "all_approached": bool(approached.all()),
        "approached_fraction": float(approached.mean()) if len(targets) else 1.0,
        "worst_target_distance": worst,
        "containment_fraction": float(np.mean(contained)),
        "containment_worst_gap": float(gaps.max()),
    }


def product_structure_check(
    table, max_length, eps=0.1, pair_count=200, min_length=2, seed=0, workers=None
) -> dict:
    """Cross-pairing test of the product structure of the limit set.

    Flags and directions are drawn from different words; a pair succeeds
    when a single word realizes both within eps."""
    generators = table.effective_generators()
    samples = enumerate_samples(generators, max_length, workers)
    n = samples.n
    mask = samples.lengths >= min_length
    idx = np.flatnonzero(mask)
    embed = _flag_embed(samples.frames[idx])
    dirs = samples.dirs[idx]
    flag_tree = cKDTree(embed)
    rng = np.random.default_rng(seed)
    successes = 0
    for _ in range(pair_count):
        i, j = rng.choice(len(idx), size=2, replace=False)
        ball = np.asarray(
            flag_tree.query_ball_point(embed[i], eps * np.sqrt(n - 1)), dtype=np.intp
        )
        # Every word within eps of flag i lies in its flag ball; keep the
        # part of that ball inside the direction ball of j.
        both = ball[np.linalg.norm(dirs[ball] - dirs[j], axis=1) <= eps]
        if (_exact_flag_dists(embed[both], embed[i], n) < eps).any():
            successes += 1
    return {
        "eps": eps,
        "pairs": pair_count,
        "successes": successes,
        "success_fraction": successes / pair_count,
    }


def _axial_plus_frames(vals):
    """Attracting fixed flags of a stack of regular axial matrices.

    Eigenvectors ordered by descending modulus, then Iwasawa-projected."""
    w, v = np.linalg.eig(vals)
    order = np.argsort(-np.abs(w), axis=1)
    basis = np.take_along_axis(v, order[:, None, :], axis=2).real
    return kernel.qr_pos(basis)[0]


def axial_density_check(
    table, max_length, eps=0.1, min_length=4, workers=None
) -> dict:
    """Attracting fixed points of axial words versus the orbit samples.

    Every long-word sample (angular flag, Cartan direction) must be
    eps-close to the (fixed flag, translation direction) of some regular
    axial word; reports the worst joint distance."""
    generators = table.effective_generators()
    samples = enumerate_samples(generators, max_length, workers)
    n = samples.n
    regular = np.array([t == "regular-axial" for t in samples.tags])
    if not regular.any():
        raise EmptySample("no regular axial words found")
    plus_frames = _axial_plus_frames(
        _materialize(samples.q[regular], samples.a[regular], samples.nu[regular])
    )
    plus_embed = np.concatenate(
        [_flag_embed(plus_frames), samples.jdirs[regular]], axis=1
    )
    target_mask = samples.lengths >= min_length
    target_embed = np.concatenate(
        [_flag_embed(samples.frames[target_mask]), samples.dirs[target_mask]],
        axis=1,
    )
    flag_dim = plus_embed.shape[1] - n

    def joint(rows, row):
        flag = _exact_flag_dists(rows[:, :flag_dim], row[:flag_dim], n)
        direction = np.linalg.norm(rows[:, flag_dim:] - row[flag_dim:], axis=1)
        return np.maximum(flag, direction)

    _, best = _nearest_exact(
        plus_embed, target_embed, joint, np.sqrt(n - 1) + 1.0
    )
    worst = float(best.max(initial=0.0))
    return {
        "eps": eps,
        "targets": int(target_mask.sum()),
        "axial_words": int(regular.sum()),
        "all_within_eps": bool((best < eps).all()),
        "worst_distance": worst,
    }


def word_separation(generators, max_length, workers=None) -> float:
    """Minimal pairwise Frobenius distance over all reduced-word values.

    Positive separation at every length is the numerical face of freeness:
    no two distinct words evaluate to the same matrix."""
    from scipy.spatial.distance import pdist

    words, q, a, nu = _word_values(generators, max_length, workers)
    flat = _materialize(q, a, nu).reshape(len(words), -1)
    return float(pdist(flat).min())


# ---------------------------------------------------------------------------
# CSV emission


def default_names(l: int):
    letters = string.ascii_lowercase
    if l <= len(letters):
        return [letters[i] for i in range(l)]
    return [f"g{i + 1}" for i in range(l)]


def word_label(word: tuple, names) -> str:
    if not word:
        return "e"
    return ".".join(
        names[c >> 1] + ("'" if c & 1 else "") for c in word
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(samples: SampleSet, path, names=None, table=None):
    """Sample CSV: word, length, class, Cartan direction, Jordan direction
    (blank when not axial) and, with a table, the signed gap to the
    nearest neighborhood.  UTF-8, LF endings, deterministic bytes."""
    n = samples.n
    if names is None:
        top = int(samples.words.max())
        names = default_names((top >> 1) + 1 if top >= 0 else 0)
    header = (
        ["word", "length", "class"]
        + [f"dir_{i + 1}" for i in range(n)]
        + [f"jdir_{i + 1}" for i in range(n)]
        + ["flag_dist_to_nearest_U"]
    )
    gaps = None
    if table is not None:
        gaps = gap_to_neighborhoods(samples.frames, table)
    lines = [",".join(header)]
    for i in range(len(samples)):
        row = [
            word_label(samples.word_tuple(i), names),
            str(int(samples.lengths[i])),
            samples.tags[i],
        ]
        row += [_fmt(x) for x in samples.dirs[i]]
        if np.isnan(samples.jdirs[i][0]):
            row += [""] * n
        else:
            row += [_fmt(x) for x in samples.jdirs[i]]
        row.append("" if gaps is None else _fmt(gaps[i]))
        lines.append(",".join(row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data
