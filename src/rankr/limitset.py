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
well-scaled matrix, and R' e^a = e^{a'} M, M unit upper triangular, by
kernel.grade, the one re-factorisation.  Cartan vectors and angular flags
come from one batched SVD of the graded factor e^a N (kernel.graded_svd),
which keeps the small singular values to relative accuracy.  The
eigenvalue moduli of a word whose log scales spread at most
_DIRECT_SPREAD come from one n x n eigenvalue call on a matrix similar to
it; a wider word's are read off its exterior powers, with the exponents
carried symbolically.  The exterior powers of q and N come from
kernel.compounds (LAPACK 2-minors, Laplace expansion above), a block of
words at a time.
Directions stay accurate at any word length.

Limit cones need one cyclically reduced word per conjugacy class, since
conjugate words share their translation vector: the necklaces, listed by a
pruned FKM pass.  The cone grows only the necklaces and their suffixes,
about a seventh of the reduced words at cone length 11.

Emitted sample order is the depth-first preorder of the word tree with
children in fixed alphabet order (a < a' < b < b' < ...), which one
lexicographic sort of the integer word rows gives before any value is
computed.  Words then grow level by level from the identity, each straight
into its preorder row, and growth, the moduli and the Cartan kernels all
run in equal row blocks on the worker pool; every row is computed on its
own, so the stream is byte-identical for any worker count or block size.
"""

import io
import os
import string
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from itertools import chain
from math import comb

import numpy as np

from . import boundary, defaults, isometries, kernel
from .errors import (
    EmptySample,
    IdentityInput,
    IllConditionedSpectrum,
    InsufficientGenerators,
)

_PAD = -1
_LOG_OVERFLOW = 345.0  # log 1e150
_MODULI_BLOCK = 1 << 16  # matrix entries per row block of the stack kernels
_CSV_BLOCK = 1024
_REFINE_BLOCK = 1 << 12  # (point, query) pairs per batched refine
# Widest spread max a - min a of a word's log scales at which one n x n
# eigenvalue call gives its moduli (see _stack_log_moduli): on cyclically
# reduced words up to n = 8 it stays within 1.8e-13 of the exterior powers
# there, and at a spread of 90 it can be off by 10.  It is below the spread
# of every sl3_l2 row the benchmark reference pins (27.3 and more).
_DIRECT_SPREAD = 16.0


def __getattr__(name):
    # scipy.spatial is most of the package's import time and only the KD
    # checks use it, so cKDTree is imported on first use and kept as a
    # module attribute, which _kd_tree reads at call time.
    if name != "cKDTree":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.spatial import cKDTree

    globals()[name] = cKDTree
    return cKDTree


def _kd_tree(rows):
    """cKDTree(rows), with cKDTree looked up on this module when called."""
    return sys.modules[__name__].cKDTree(rows)


def resolve_workers(workers=None) -> int:
    """An explicit worker count (below 1 means 1), else the CPU count."""
    if workers is not None:
        return max(1, int(workers))
    return os.cpu_count() or 1


def _fan_out(fn, items, workers=None) -> list:
    """[fn(x) for x in items], on min(workers, len(items)) threads when
    that is more than one.  Every stage fanned out here is LAPACK calls and
    large elementwise operations, which release the GIL."""
    count = min(resolve_workers(workers), len(items))
    if count < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, items))


def _row_blocks(count, step) -> list:
    """Slices of equal blocks of at most step rows that cover count rows.

    The stack kernels compute each row on its own, so neither the blocks
    nor the thread that runs each one change a bit."""
    parts = max(1, -(-count // max(1, step)))
    edges = [count * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


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


def _prepend(letters, q, a, nu):
    """Factored update (q, a, nu) -> factorization of letters @ q e^a nu,
    one letter per row."""
    q2, r2 = kernel.qr_pos(np.einsum("nij,njk->nik", letters, q))
    a2, mixer = kernel.grade(r2, a)
    return q2, a2, np.einsum("nij,njk->nik", mixer, nu)


def _row_keys(rows):
    """One opaque byte-string key per row of a 2-D array, for exact row
    lookups."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]


def _grow_block(letters, first, parent, place, values, workers=None):
    """One level of word growth: letter first[i] prepended to the word in
    row parent[i] of values = (q, a, nu), written to row place[i].

    Rows run in blocks of at most _MODULI_BLOCK entries of the three fields
    on the worker pool; each block gathers its parents, which an earlier
    level wrote, and writes only its own rows.  Returns (place, first), one
    entry per grown row."""
    q, a, nu = values
    n = q.shape[-1]

    def block(rows):
        up, at = parent[rows], place[rows]
        q[at], a[at], nu[at] = _prepend(letters[first[rows]], q[up], a[up], nu[up])

    _fan_out(block, _row_blocks(len(first), _MODULI_BLOCK // (2 * n * n + n)), workers)
    return place, first


def _word_values(generators, max_length, workers=None, targets=None):
    """All reduced words of length <= max_length in factored form, or with
    targets (padded reduced word rows) only the identity, the targets and
    their suffixes.

    The word tree is laid out in integers first, level by level from the
    identity: level d + 1 prepends each letter c to the level-d rows that do
    not start with c's inverse, or with targets only to the suffixes the
    targets need, since a word is grown from its suffix one letter shorter.
    One sort gives each row its place in depth-first preorder, and then each
    level is grown by one _grow_block call straight into those places.
    Row 0 is the identity word."""
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    letters = _letter_stack(generators)
    alpha, n = len(letters), letters.shape[-1]
    words = [np.full((1, max_length), _PAD, dtype=np.int8)]
    parents = []  # per level, the row each new word is grown from
    edges = [0, 1]  # level d is rows edges[d]:edges[d + 1]
    if targets is not None:
        lengths = (targets != _PAD).sum(axis=1)
        node = np.zeros(len(targets), dtype=np.int64)  # row of each suffix
    for depth in range(max_length):
        first = words[-1][:, 0]
        if targets is None:
            picks = [np.flatnonzero(first != (c ^ 1)) for c in range(alpha)]
        else:
            # A target longer than depth needs its suffix of length
            # depth + 1: its next letter c prepended to its suffix row r in
            # this level.  The next level's rows are the cells (c, r) of
            # used in row-major order, the order they grow in.
            long = lengths > depth
            targets, lengths, node = targets[long], lengths[long], node[long]
            if not len(targets):
                break
            letter = targets[np.arange(len(targets)), lengths - depth - 1]
            used = np.zeros((alpha, len(first)), dtype=bool)
            used[letter, node] = True
            node = np.cumsum(used).reshape(used.shape)[letter, node] - 1
            picks = [np.flatnonzero(rows) for rows in used]
        rows = np.concatenate(picks)
        c = np.repeat(np.arange(alpha, dtype=np.int8), [len(p) for p in picks])
        words.append(np.insert(words[-1][rows, :-1], 0, c, axis=1))
        parents.append(edges[-2] + rows)
        edges.append(edges[-1] + len(rows))
    words = np.concatenate(words)
    # Preorder = lexicographic with the pad sorting first.
    order = np.lexsort(words.T[::-1])
    dest = np.empty_like(order)
    dest[order] = np.arange(len(order))
    size = len(order)
    values = np.empty((size, n, n)), np.zeros((size, n)), np.empty((size, n, n))
    values[0][dest[0]] = values[2][dest[0]] = np.eye(n)  # the identity
    for up, lo, hi in zip(parents, edges[1:], edges[2:]):
        _grow_block(letters, words[lo:hi, 0], dest[up], dest[lo:hi], values, workers)
    return (words[order], *values)


def _materialize(q, a, nu):
    """Assemble w = q e^a nu; safe while max(a) stays below ~700."""
    return np.einsum("nij,njk->nik", q, np.exp(a)[:, :, None] * nu)


def _stack_cartan(q, a, nu, workers=None):
    """(centered log singular values, angular frames) of a stack of
    factored words: both halves of each word's Cartan decomposition.

    One graded SVD of e^a nu (kernel.graded_svd) keeps the small singular
    values however squeezed the word is, and its left singular frames,
    rotated by q, give the angular flags; blocks of at most _MODULI_BLOCK
    entries run on the worker pool."""
    ls = np.empty(a.shape)
    frames = np.empty(q.shape)

    def block(rows):
        ls[rows], left = kernel.graded_svd(a[rows], nu[rows])
        frames[rows] = np.einsum("nij,njk->nik", q[rows], left)

    _fan_out(block, _row_blocks(len(q), _MODULI_BLOCK // q.shape[-1] ** 2), workers)
    return ls - ls.mean(axis=1, keepdims=True), frames


def _stack_log_moduli(q, a, nu, workers=None):
    """Centered log eigenvalue moduli of a stack of factored words.

    A word whose log scales a spread by at most _DIRECT_SPREAD takes its
    moduli from one eigenvalue call on e^{a - max a} (nu q), which is
    similar to q e^a nu up to the factor e^{max a}.  Past that spread a
    plain eigenvalue call fuses the small moduli into spurious complex
    pairs, so a wider word reads |l_1 ... l_k| as the dominant eigenvalue
    modulus of its k-th exterior power, an isolated and well-conditioned
    quantity.  The exterior powers of q and nu come from one
    kernel.compounds pass each per block of words: LAPACK determinants for
    the 2-minors and a Laplace expansion over those for every larger minor.
    Either route computes each row on its own."""
    count, n = a.shape
    lm = np.empty((count, n))
    wide = a.max(axis=1) - a.min(axis=1) > _DIRECT_SPREAD

    def block(rows):
        rows = np.arange(rows.start, rows.stop)
        near, far = rows[~wide[rows]], rows[wide[rows]]
        if len(near):
            top = a[near].max(axis=1, keepdims=True)
            m = np.exp(a[near] - top)[:, :, None] * np.matmul(nu[near], q[near])
            lm[near] = np.log(np.abs(np.linalg.eigvals(m))) + top
        if not len(far):
            return
        cum = np.zeros((n + 1, len(far)))  # cum[k] = log |l_1 ... l_k|
        cum[n] = a[far].sum(axis=1)
        powers = zip(
            kernel.compounds(q[far], n - 1), kernel.compounds(nu[far], n - 1)
        )
        for k, (cq, cn) in enumerate(powers, start=1):
            # k-th exterior power of e^a nu: row log-weights w, moderate part cn.
            w = kernel.combo_sums(a[far], k)
            shift = w.max(axis=1)
            m = np.einsum(
                "nij,njk->nik", cq, np.exp(w - shift[:, None])[:, :, None] * cn
            )
            scale = np.maximum(np.abs(m).max(axis=(1, 2)), 1e-300)
            top = np.abs(np.linalg.eigvals(m / scale[:, None, None])).max(axis=1)
            cum[k] = np.log(np.maximum(top, 1e-300)) + np.log(scale) + shift
        lm[far] = np.diff(cum, axis=0).T

    # Blocks of at most _MODULI_BLOCK entries per exterior power keep the
    # Laplace passes in cache and the memory bounded at any word count.
    step = _MODULI_BLOCK // comb(n, n // 2) ** 2
    _fan_out(block, _row_blocks(count, step), workers)
    lm = np.sort(lm, axis=1)[:, ::-1]
    return lm - lm.mean(axis=1, keepdims=True)


class SampleSet:
    """Columnar store of orbit samples, one row per reduced word.

    Word values live in the factored form q e^a nu (see module notes).  The
    columns dirs, frames, tags, jdirs and overflow are computed on first
    access, in equal row blocks on the worker pool: a check pays only for
    the columns it reads.
    Reading dirs or frames computes both, from one graded SVD per word.
    workers is the pool size the columns are computed with (see
    resolve_workers); it changes no bit of them."""

    def __init__(self, words, q, a, nu, workers=None):
        self.words = words
        self.lengths = (words != _PAD).sum(axis=1)
        self.q = q
        self.a = a
        self.nu = nu
        self.workers = resolve_workers(workers)

    def __len__(self):
        return len(self.lengths)

    @property
    def n(self) -> int:
        return self.q.shape[-1]

    @cached_property
    def _cartan(self):
        h, frames = _stack_cartan(self.q, self.a, self.nu, self.workers)
        # Unit Cartan directions; rows whose Cartan vector vanishes stay 0.
        norms = np.linalg.norm(h, axis=1, keepdims=True)
        return np.divide(h, norms, out=np.zeros_like(h), where=norms > 1e-12), frames

    dirs = property(lambda self: self._cartan[0])
    frames = property(lambda self: self._cartan[1])  # angular flags

    @cached_property
    def _classes(self):
        return _classify_stack(self.q, self.a, self.nu, self.lengths, self.workers)

    tags = property(lambda self: self._classes[0])
    jdirs = property(lambda self: self._classes[1])  # NaN rows when not axial

    @cached_property
    def overflow(self) -> np.ndarray:
        return self.a.max(axis=1) > _LOG_OVERFLOW

    def word_tuple(self, i) -> tuple:
        row = self.words[i]
        return tuple(int(c) for c in row[row != _PAD])


def _classify_stack(q, a, nu, lengths, workers=None):
    """Per-row class tags and Jordan directions for a factored word stack.

    Distinct eigenvalue moduli force a regular axial isometry (each
    generalized eigenspace is a real line), which covers almost every word
    of a free discrete group; the rare remainder goes through the exact
    per-matrix classifier."""
    count, n = a.shape
    ell = _stack_log_moduli(q, a, nu, workers)
    norms = np.linalg.norm(ell, axis=1)
    gaps = np.min(ell[:, :-1] - ell[:, 1:], axis=1)
    tags = np.empty(count, dtype=object)
    jdirs = np.full((count, n), np.nan)
    # Rows whose smallest modulus gap could still be eigenvalue noise take
    # the exact per-matrix path.
    regular = (norms > kernel.ID_TOL) & (gaps > 1e-6 * np.maximum(1.0, norms))
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


def enumerate_samples(generators, max_length, workers=None) -> SampleSet:
    """Every reduced word of length <= max_length, as a SampleSet whose
    columns are computed when first read."""
    return SampleSet(*_word_values(generators, max_length, workers), workers)


def _snap_unique(dirs: np.ndarray) -> np.ndarray:
    """Grid-snap directions and drop duplicates; rows come back sorted."""
    snapped = np.round(dirs / defaults.DIR_SNAP) * defaults.DIR_SNAP
    snapped[snapped == 0.0] = 0.0  # normalize -0.0
    return np.unique(snapped, axis=0)


def _necklaces(alpha, max_length):
    """Padded rows, in preorder, of the reduced and cyclically reduced words
    of length <= max_length over alpha letters that are least among their
    rotations in the letter order 0 < 1 < ... (a < a' < b < ...): one word
    per cyclic-rotation class.

    A pruned FKM pass (Fredricksen, Kessler & Maiorana) walks the tree of
    prenecklaces in preorder and skips each letter that cancels the one
    before it.  That cuts only subtrees of unreduced words, so every reduced
    prenecklace is still reached; one is a necklace when its length is a
    multiple of its period p, the length of its longest Lyndon prefix."""
    if max_length < 1:
        return np.empty((0, 0), dtype=np.int8)
    # Rows go straight into one byte buffer: a list of per-row objects would
    # take several times the memory of the array returned.
    out = bytearray()
    word = bytearray(max_length)
    pad = np.int8(_PAD).tobytes() * max_length

    def visit(t, p):
        if t and t % p == 0 and word[0] != word[t - 1] ^ 1:
            out.extend(word[:t])
            out.extend(pad[t:])
        if t == max_length:
            return
        lo, back = (word[t - p], word[t - 1] ^ 1) if t else (0, _PAD)
        for j in range(lo, alpha):
            if j != back:
                word[t] = j
                visit(t + 1, p if j == lo else t + 1)

    visit(0, 1)
    return np.frombuffer(out, dtype=np.int8).reshape(-1, max_length)


def _necklace_values(generators, max_length, workers=None):
    """The words of _necklaces(2l, max_length) in factored form, in
    preorder.  Only the necklaces and their suffixes are grown."""
    reps = _necklaces(2 * len(generators), max_length)
    words, q, a, nu = _word_values(generators, max_length, workers, reps)
    keep = np.isin(_row_keys(words), _row_keys(reps))
    return words[keep], q[keep], a[keep], nu[keep]


def limit_cone_sample(generators, max_length, workers=None) -> np.ndarray:
    """Unit translation directions of the regular axial words.

    Conjugate words share the translation vector, so one cyclically reduced
    word per rotation class is enough: the necklaces, of which only the
    suffixes are ever grown.  The resulting directions are grid-snapped."""
    samples = SampleSet(*_necklace_values(generators, max_length, workers), workers)
    # A row has a Jordan direction exactly when its tag is axial.
    good = ~np.isnan(samples.jdirs[:, 0])
    if not good.any():
        raise EmptySample("no axial words found")
    return _snap_unique(samples.jdirs[good])


def directional_sample(
    generators, max_length, min_length=6, workers=None
) -> np.ndarray:
    """Cartan directions of words with length in [min_length, max_length]."""
    samples = enumerate_samples(generators, max_length, workers)
    return directions_in_range(samples, min_length, max_length)


def directions_in_range(samples, min_length, max_length) -> np.ndarray:
    """Grid-snapped unit Cartan directions of the words of a SampleSet with
    length in [min_length, max_length].  A word's direction is the same
    arithmetic whatever length its orbit was grown to, so one orbit serves
    every shell up to its length."""
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    mask = (samples.lengths >= min_length) & (samples.lengths <= max_length)
    if not mask.any():
        raise EmptySample("no words in the requested length range")
    picked = samples.dirs[mask]
    return _snap_unique(picked[picked.any(axis=1)])


def one_sided_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max over a of the distance to the nearest point of b."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySample("one-sided distance of an empty set")
    d, _ = _kd_tree(b).query(a)
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
    samples = None
    if lp_values:
        samples = enumerate_samples(generators, max(lp_values), workers)
    return cone_report(cone, samples, lp_values, l_cone)


def cone_report(cone, samples, lp_values, l_cone) -> dict:
    """The cone_theorem_check report from a computed cone and a SampleSet
    reaching max(lp_values)."""
    rows = []
    for lp in lp_values:
        shell = directions_in_range(samples, lp, lp)
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


def _exact_flag_dists(frames, centers):
    """Flag distance from each frame's flag to its paired center frame's."""
    return boundary.standard_flag_distances(centers.mT @ frames)


def _nearest_exact(points, queries):
    """(bound, best): the Euclidean and the exact nearest distance from
    each query to the points.

    points and queries are (frames, dirs) pairs, dirs None or unit Cartan
    directions.  The exact distance d is the flag distance, or its max with
    the direction distance.  The KD rows [_flag_embed(frames), dirs] have
    d <= D <= stretch * d against their Euclidean distance D, stretch
    sqrt(n-1) (plus 1 with dirs), so the exact nearest point lies within
    stretch * bound of the query, and only that ball is refined.  The
    balls are flattened into (point, query) pairs and refined a block of
    whole balls at a time, at most _REFINE_BLOCK pairs unless one ball
    alone is larger."""
    (frames, dirs), (query_frames, query_dirs) = points, queries
    stretch = np.sqrt(frames.shape[-1] - 1) + (dirs is not None)

    def embed(frames, dirs):
        rows = _flag_embed(frames)
        return rows if dirs is None else np.concatenate([rows, dirs], axis=1)

    tree = _kd_tree(embed(frames, dirs))
    rows = embed(query_frames, query_dirs)
    bound, _ = tree.query(rows)
    balls = tree.query_ball_point(rows, bound * stretch + 1e-12)
    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cand = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=sizes.sum())
    owner = np.repeat(np.arange(len(rows)), sizes)
    best = np.empty(len(rows))
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, np.searchsorted(ends, starts[lo] + _REFINE_BLOCK, "right"))
        pairs = slice(starts[lo], ends[hi - 1])
        point, query = cand[pairs], owner[pairs]
        dists = _exact_flag_dists(frames[point], query_frames[query])
        if dirs is not None:
            direction = np.linalg.norm(dirs[point] - query_dirs[query], axis=1)
            dists = np.maximum(dists, direction)
        best[lo:hi] = np.minimum.reduceat(dists, starts[lo:hi] - starts[lo])
        lo = hi
    return bound, best


def gap_to_neighborhoods(frames: np.ndarray, table) -> np.ndarray:
    """min over table neighborhoods of (flag distance to center - radius).

    Negative means the flag sits inside some neighborhood."""
    gaps = np.full(len(frames), np.inf)
    for point, radius in zip(table.points, table.radii):
        d = boundary.flag_distances_to_center(frames, point.flag)
        gaps = np.minimum(gaps, d - radius)
    return gaps


def minimality_check(
    table, xi0, targets, max_length, eps=0.1, workers=None
) -> dict:
    """Orbit density and neighborhood containment for a certified table.

    (a) the flag of every target frame, an (N, n, n) stack of orthonormal
    frames, must be eps-approached by the orbit of xi0 under words of
    length <= max_length; (b) every angular flag of a word of length >= 2
    must land inside the union of the table neighborhoods.  The words of
    f^T g f are grown, f the frame of xi0: each q is the Iwasawa K-part of
    f^T w f, so f q frames w xi0 at any length, and f times an angular
    frame of f^T w f is one of w.  EmptySample below length 2."""
    f = boundary.flag_frame(xi0.flag)
    generators = [f.T @ g @ f for g in table.effective_generators()]
    samples = enumerate_samples(generators, max_length, workers)
    long_mask = samples.lengths >= 2
    if not long_mask.any():
        raise EmptySample("containment needs words of length >= 2")
    targets = np.asarray(targets, dtype=float).reshape(-1, samples.n, samples.n)
    bound, best = _nearest_exact((f @ samples.q, None), (targets, None))
    approached = best < eps
    worst = float(np.where(approached, best, bound).max(initial=0.0))
    gaps = gap_to_neighborhoods(f @ samples.frames[long_mask], table)
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
    table, max_length, eps=0.1, pair_count=200, seed=0, workers=None
) -> dict:
    """Cross-pairing test of the product structure of the limit set.

    Flags and directions are drawn from different words of length at
    least 2; a pair succeeds when a single word realizes both within eps.
    EmptySample with fewer than two such words."""
    generators = table.effective_generators()
    samples = enumerate_samples(generators, max_length, workers)
    idx = np.flatnonzero(samples.lengths >= 2)
    if len(idx) < 2:
        raise EmptySample("product needs two words of length >= 2")
    frames, dirs = samples.frames[idx], samples.dirs[idx]
    rng = np.random.default_rng(seed)
    pairs = np.array(
        [rng.choice(len(idx), size=2, replace=False) for _ in range(pair_count)]
    )
    # A pair (i, j) asks for one word near flag i and direction j.
    _, best = _nearest_exact(
        (frames, dirs), (frames[pairs[:, 0]], dirs[pairs[:, 1]])
    )
    successes = int((best < eps).sum())
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


def axial_density_check(table, max_length, eps=0.1, workers=None) -> dict:
    """Attracting fixed points of axial words versus the orbit samples.

    Every sample of a word of length >= 4 (angular flag, Cartan direction)
    must be eps-close to the (fixed flag, translation direction) of some
    regular axial word; reports the worst joint distance.  EmptySample
    without words of length >= 4 or regular axial words."""
    generators = table.effective_generators()
    samples = enumerate_samples(generators, max_length, workers)
    target_mask = samples.lengths >= 4
    if not target_mask.any():
        raise EmptySample("no words of length >= 4")
    regular = np.array([t == "regular-axial" for t in samples.tags])
    if not regular.any():
        raise EmptySample("no regular axial words found")
    plus_frames = _axial_plus_frames(
        _materialize(samples.q[regular], samples.a[regular], samples.nu[regular])
    )
    _, best = _nearest_exact(
        (plus_frames, samples.jdirs[regular]),
        (samples.frames[target_mask], samples.dirs[target_mask]),
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
    # Every letter but e, the identity's label, then g1, g2, ...
    letters = string.ascii_lowercase.replace("e", "")
    if l <= len(letters):
        return [letters[i] for i in range(l)]
    return [f"g{i + 1}" for i in range(l)]


def word_label(word: tuple, names) -> str:
    if not word:
        return "e"
    return ".".join(
        names[c >> 1] + ("'" if c & 1 else "") for c in word
    )


def write_csv(samples: SampleSet, path, names=None, table=None):
    """Sample CSV: word, length, class, Cartan direction, Jordan direction
    (blank when not axial) and, with a table, the signed gap to the
    nearest neighborhood.  UTF-8, LF endings, deterministic bytes; every
    float is written with format(x, ".17g")."""
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
    if table is None:
        gaps = [""] * len(samples)
    else:
        gaps = gap_to_neighborhoods(samples.frames, table).tolist()
        gaps = [format(x, ".17g") for x in gaps]
    labels = [word_label((c,), names) for c in range(2 * len(names))]
    # One %-template per row; "%.17g" % x is format(x, ".17g").  Rows with
    # no Jordan direction get blank cells.
    cells = ",".join(["%.17g"] * n)
    with_jdir = f"%s,%d,%s,{cells},{cells},%s"
    no_jdir = f"%s,%d,%s,{cells},{',' * (n - 1)},%s"
    out = io.BytesIO()
    out.write((",".join(header) + "\n").encode("utf-8"))
    # Columns go to Python lists, and rows to bytes, _CSV_BLOCK rows at a
    # time: converting all rows at once makes tens of MB of small objects
    # live together, which fragments the heap of a process that writes
    # many files.  One growing buffer, not a list of blocks, leaves no
    # holes between them.  Word rows are padded at the end, so a row's
    # letters are its first `length`.
    for lo in range(0, len(samples), _CSV_BLOCK):
        rows = slice(lo, lo + _CSV_BLOCK)
        lines = []
        for word, length, tag, d, j, gap in zip(
            samples.words[rows].tolist(),
            samples.lengths[rows].tolist(),
            samples.tags[rows].tolist(),
            samples.dirs[rows].tolist(),
            samples.jdirs[rows].tolist(),
            gaps[rows],
        ):
            label = ".".join([labels[c] for c in word[:length]]) or "e"
            if j[0] != j[0]:
                lines.append(no_jdir % (label, length, tag, *d, gap))
            else:
                lines.append(with_jdir % (label, length, tag, *d, *j, gap))
        out.write(("\n".join(lines) + "\n").encode("utf-8"))
    data = out.getvalue()
    with open(path, "wb") as fh:
        fh.write(data)
    return data
