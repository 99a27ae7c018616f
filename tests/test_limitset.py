import itertools
import json
import sys
import tracemalloc
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from rankr import boundary, decompositions, kernel, limitset
from rankr.errors import EmptySample, IllConditionedSpectrum, InsufficientGenerators
from conftest import (
    PERFBENCH,
    ball_product_successes,
    cyclic_canonical,
    det_compounds,
    exterior_log_singular_values,
    perfbench_inputs,
    random_sl,
    random_so,
    unipotent_draws,
)


def _shear_pair():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [2.0, 1.0]])
    return [a, b]


def test_word_count():
    assert limitset.word_count(2, 3) == 53
    assert limitset.word_count(1, 5) == 11
    assert limitset.word_count(2, 1) == 5
    assert limitset.word_count(3, 2) == 37


def test_resolve_workers(monkeypatch):
    assert limitset.resolve_workers(3) == 3
    assert limitset.resolve_workers(0) == limitset.resolve_workers(-2) == 1
    monkeypatch.setattr(limitset.os, "cpu_count", lambda: 5)
    assert limitset.resolve_workers() == 5
    monkeypatch.setattr(limitset.os, "cpu_count", lambda: None)
    assert limitset.resolve_workers() == 1


def test_enumerate_counts_and_order():
    samples = limitset.enumerate_samples(_shear_pair(), 3)
    assert len(samples) == 53
    assert samples.word_tuple(0) == ()
    assert samples.tags[0] == "identity"
    # Depth-first preorder: the identity, then the subtree under "a".
    assert samples.word_tuple(1) == (0,)
    assert samples.word_tuple(2) == (0, 0)
    assert samples.word_tuple(3) == (0, 0, 0)
    words = [samples.word_tuple(i) for i in range(len(samples))]
    assert len(set(words)) == len(words)
    for w in words:
        for x, y in zip(w, w[1:]):
            assert y != (x ^ 1)


def test_factored_values_match_naive_products():
    gens = _shear_pair()
    letters = [gens[0], np.linalg.inv(gens[0]), gens[1], np.linalg.inv(gens[1])]
    samples = limitset.enumerate_samples(gens, 4)
    vals = limitset._materialize(samples.q, samples.a, samples.nu)
    for i in range(len(samples)):
        naive = np.eye(2)
        for c in samples.word_tuple(i):
            naive = naive @ letters[c]
        assert np.linalg.norm(vals[i] - naive) < 1e-10 * max(
            1.0, np.linalg.norm(naive)
        )


def test_factored_cartan_matches_kernel_at_short_lengths():
    rng = np.random.default_rng(0)
    gens = [random_sl(rng, 3), random_sl(rng, 3)]
    samples = limitset.enumerate_samples(gens, 4)
    vals = limitset._materialize(samples.q, samples.a, samples.nu)
    for i in range(len(samples)):
        if samples.lengths[i] == 0:
            continue
        h = decompositions.cartan_decompose(vals[i]).h
        norm = np.linalg.norm(h)
        if norm < 1e-8:
            continue
        assert np.linalg.norm(samples.dirs[i] - h / norm) < 1e-7


def test_directions_survive_extreme_squeezing():
    # By length 16 a shear-pair product is far beyond float64 dynamic
    # range in its small singular values; the factored form keeps the
    # Cartan direction unit-norm, traceless, and chamber-ordered.
    samples = limitset.enumerate_samples(_shear_pair(), 16 // 4)
    four = np.flatnonzero(samples.lengths == 4)[:2]
    gens4 = limitset._materialize(samples.q[four], samples.a[four], samples.nu[four])
    deep = limitset.enumerate_samples(gens4, 4)
    mask = deep.lengths == 4
    dirs = deep.dirs[mask]
    assert np.all(np.isfinite(dirs))
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)
    assert np.all(dirs.sum(axis=1) < 1e-9)
    assert np.all(dirs[:, 0] >= dirs[:, 1] - 1e-12)


def test_classification_tags():
    samples = limitset.enumerate_samples(_shear_pair(), 2)
    words = [samples.word_tuple(i) for i in range(len(samples))]
    for i, word in enumerate(words):
        if samples.lengths[i] == 0:
            assert samples.tags[i] == "identity"
        elif word in ((0,), (1,), (2,), (3,)):
            assert samples.tags[i] == "strictly-parabolic"
            assert np.isnan(samples.jdirs[i]).all()
        elif word[0] == (word[1] ^ 1):
            raise AssertionError("non-reduced word emitted")
        elif word[1] == (word[0] ^ 1):
            raise AssertionError("non-reduced word emitted")
    ab = words.index((0, 2))
    assert samples.tags[ab] == "regular-axial"
    assert not np.isnan(samples.jdirs[ab]).any()
    identity = limitset._materialize(samples.q[:1], samples.a[:1], samples.nu[:1])
    assert np.allclose(identity[0], np.eye(2))
    # a.b = [[5, 2], [2, 1]]; its top eigenvalue fixes the direction.
    lam = max(abs(np.linalg.eigvals(np.array([[5.0, 2.0], [2.0, 1.0]]))))
    expect = np.array([np.log(lam), -np.log(lam)])
    expect = expect / np.linalg.norm(expect)
    assert np.allclose(samples.jdirs[ab], expect, atol=1e-10)


def test_identity_words_are_elliptic():
    # With b = a^-1 the word a.b is the identity up to roundoff, which the
    # per-matrix classifier refuses (IdentityInput): its row is tagged
    # elliptic, and only the empty word is tagged identity.
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    samples = limitset.enumerate_samples([g, np.linalg.inv(g)], 2)
    words = [samples.word_tuple(i) for i in range(len(samples))]
    assert samples.tags[0] == "identity"
    for word in ((0, 2), (1, 3), (2, 0), (3, 1)):
        assert samples.tags[words.index(word)] == "elliptic"
    assert list(samples.tags).count("identity") == 1


@pytest.mark.parametrize("error", [IllConditionedSpectrum, np.linalg.LinAlgError])
def test_rows_the_classifier_cannot_resolve_are_unresolved(monkeypatch, error):
    def fail(g):
        raise error("no reliable spectrum")

    monkeypatch.setattr(limitset.isometries, "classify", fail)
    samples = limitset.enumerate_samples(_shear_pair(), 2)
    words = [samples.word_tuple(i) for i in range(len(samples))]
    # The letters are parabolic, so they take the per-matrix path.
    for word in ((0,), (1,), (2,), (3,)):
        assert samples.tags[words.index(word)] == "unresolved"
        assert np.isnan(samples.jdirs[words.index(word)]).all()
    assert samples.tags[words.index((0, 2))] == "regular-axial"


def _direct_columns(samples):
    """Every derived column of a SampleSet, computed outside it."""
    tags, jdirs = limitset._classify_stack(
        samples.q, samples.a, samples.nu, samples.lengths
    )
    h, frames = limitset._stack_cartan(samples.q, samples.a, samples.nu)
    norms = np.linalg.norm(h, axis=1)
    nz = norms > 1e-12
    dirs = np.zeros_like(h)
    dirs[nz] = h[nz] / norms[nz, None]
    return {
        "dirs": dirs,
        "frames": frames,
        "tags": tags,
        "jdirs": jdirs,
        "overflow": samples.a.max(axis=1) > limitset._LOG_OVERFLOW,
    }


def test_lazy_columns_are_bit_identical_in_any_order(sl3_group):
    rng = np.random.default_rng(11)
    for gens, length in (
        (sl3_group[0], 5),
        ([random_sl(rng, 4), random_sl(rng, 4)], 3),
    ):
        first = limitset.enumerate_samples(gens, length)
        second = limitset.enumerate_samples(gens, length)
        for name in ("tags", "frames", "dirs"):
            getattr(first, name)
        for name in ("dirs", "frames", "tags"):
            getattr(second, name)
        for name, expect in _direct_columns(first).items():
            for samples in (first, second):
                assert np.array_equal(
                    getattr(samples, name), expect, equal_nan=name == "jdirs"
                ), name


def test_limit_cone_single_axial():
    gamma = np.diag([np.exp(2.0), np.e, np.exp(-3.0)])
    dirs = limitset.limit_cone_sample([gamma], 4)
    # Words are powers of gamma and its inverse: two direction classes.
    ell = np.array([2.0, 1.0, -3.0])
    unit = ell / np.linalg.norm(ell)
    iota = -unit[::-1]
    assert dirs.shape == (2, 3)
    got = {tuple(np.round(d, 6)) for d in dirs}
    want = {tuple(np.round(unit, 6)), tuple(np.round(iota, 6))}
    assert got == want


def test_limit_cone_symmetric_axial_is_one_direction():
    gamma = np.diag([np.e, 1.0, np.exp(-1.0)])
    dirs = limitset.limit_cone_sample([gamma], 5)
    assert dirs.shape == (1, 3)


def test_limit_cone_cyclic_dedup():
    # a.b and b.a are conjugate; the cone keeps one direction for the pair.
    gens = _shear_pair()
    samples = limitset.enumerate_samples(gens, 2)
    words = [samples.word_tuple(i) for i in range(len(samples))]
    ab, ba = words.index((0, 2)), words.index((2, 0))
    assert np.allclose(samples.jdirs[ab], samples.jdirs[ba], atol=1e-12)
    dirs = limitset.limit_cone_sample(gens, 2)
    # Length-2 axial classes up to rotation and the snap grid.
    assert 1 <= len(dirs) <= 4


def test_limit_cone_requires_axial_words():
    with pytest.raises(EmptySample):
        limitset.limit_cone_sample([np.array([[1.0, 1.0], [0.0, 1.0]])], 3)
    with pytest.raises(InsufficientGenerators):
        limitset.limit_cone_sample([], 3)


def _cone_rows_by_full_growth(gens, max_length):
    """Every reduced word grown, then the cyclically reduced ones kept and
    one per rotation class (the cone words before necklace growth)."""
    words, q, a, nu = limitset._word_values(gens, max_length)
    lengths = (words != -1).sum(axis=1)
    last = words[np.arange(len(words)), np.maximum(lengths - 1, 0)]
    cyc = np.flatnonzero((lengths == 1) | ((lengths > 1) & (words[:, 0] != (last ^ 1))))
    keep = cyc[cyclic_canonical(words[cyc], lengths[cyc], max_length)]
    return words[keep], q[keep], a[keep], nu[keep]


def test_necklace_growth_matches_full_growth(sl3_group, sl2_group):
    rng = np.random.default_rng(31)
    cases = [(sl3_group[0], length, 1) for length in range(1, 10)]
    cases += [
        (sl3_group[0], 7, 2),
        (sl2_group[0], 8, 1),
        ([random_sl(rng, 3) for _ in range(3)], 6, 2),
    ]
    for gens, length, workers in cases:
        got = limitset._necklace_values(gens, length, workers)
        want = _cone_rows_by_full_growth(gens, length)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_necklaces_are_least_rotations():
    for alpha, max_length in ((2, 6), (4, 7), (6, 5)):
        want = [
            w
            for m in range(1, max_length + 1)
            for w in itertools.product(range(alpha), repeat=m)
            if all(w[i] != w[i - 1] ^ 1 for i in range(m))
            and all(w <= w[r:] + w[:r] for r in range(m))
        ]
        rows = limitset._necklaces(alpha, max_length)
        got = [tuple(int(c) for c in row if c >= 0) for row in rows]
        assert got == sorted(want)
    # One generator: the necklaces are exactly the powers a^m and a'^m.
    got = {tuple(int(c) for c in row if c >= 0) for row in limitset._necklaces(2, 5)}
    assert got == {(c,) * m for c in (0, 1) for m in range(1, 6)}
    assert limitset._necklaces(4, 0).shape == (0, 0)


def test_necklace_growth_grows_only_suffixes(sl3_group):
    gens = sl3_group[0]
    for length in (5, 9):
        reps = limitset._necklaces(4, length)
        words = limitset._word_values(gens, length, targets=reps)[0]
        grown = {tuple(int(c) for c in row if c >= 0) for row in words}
        suffixes = {()} | {(c,) for c in range(4)}
        for row in reps:
            word = tuple(int(c) for c in row if c >= 0)
            suffixes |= {word[k:] for k in range(len(word))}
        assert len(words) == len(grown) == len(suffixes)
        assert grown == suffixes
        assert len(words) < limitset.word_count(2, length)


def test_directional_sample_shell():
    gens = _shear_pair()
    dirs = limitset.directional_sample(gens, 3, min_length=3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)
    with pytest.raises(EmptySample):
        limitset.directional_sample(gens, 2, min_length=3)
    with pytest.raises(ValueError):
        limitset.directional_sample(gens, 2, min_length=0)


def test_one_sided_distance():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.1]])
    assert abs(limitset.one_sided_distance(a, b) - np.hypot(1.0, 0.1)) < 1e-12
    assert abs(limitset.one_sided_distance(b, a) - 0.1) < 1e-12
    with pytest.raises(EmptySample):
        limitset.one_sided_distance(a, np.empty((0, 2)))


def test_cone_theorem_rank_one_collapses():
    # In SL(2) every Cartan direction equals the single cone direction.
    report = limitset.cone_theorem_check(
        _shear_pair(), lp_values=(3, 4), l_cone=5
    )
    assert report["trend_non_increasing"]
    for row in report["rows"]:
        assert row["forward"] == 0.0


def test_cone_theorem_higher_rank_trend(sl3_group):
    gens, _, table = sl3_group
    report = limitset.cone_theorem_check(
        table.effective_generators(), lp_values=(5, 7), l_cone=8
    )
    assert report["trend_non_increasing"]
    assert report["rows"][1]["forward"] <= report["rows"][0]["forward"]
    assert report["cone_size"] > 0


def test_minimality_and_containment(sl3_group):
    _, _, table = sl3_group
    xi0 = table.points[1]
    rng = np.random.default_rng(0)
    samples = limitset.enumerate_samples(table.effective_generators(), 4)
    targets = samples.frames[
        rng.choice(np.flatnonzero(samples.lengths == 4), size=5, replace=False)
    ]
    report = limitset.minimality_check(table, xi0, targets, 6, eps=0.1)
    assert report["all_approached"]
    assert report["containment_fraction"] == 1.0
    assert report["containment_worst_gap"] < 0.0


def test_product_structure(sl3_group):
    _, _, table = sl3_group
    report = limitset.product_structure_check(
        table, 6, eps=0.15, pair_count=50, seed=0
    )
    assert report["success_fraction"] > 0.9
    again = limitset.product_structure_check(
        table, 6, eps=0.15, pair_count=50, seed=0
    )
    assert report == again


@pytest.mark.parametrize("max_length", [5, 6, 7])
def test_product_structure_matches_flag_ball_loop(sl3_group, max_length):
    _, _, table = sl3_group
    counts = []
    for eps in (0.003, 0.01, 0.04, 0.1):
        for seed in (0, 1):
            report = limitset.product_structure_check(
                table, max_length, eps=eps, pair_count=200, seed=seed
            )
            expect = ball_product_successes(table, max_length, eps, 200, seed)
            assert report["successes"] == expect
            counts.append(expect)
    # The grid holds pairs that fail as well as pairs that succeed.
    assert min(counts) < 200 and max(counts) > 0


def test_axial_density(sl3_group):
    _, _, table = sl3_group
    report = limitset.axial_density_check(table, 6, eps=0.2)
    assert report["all_within_eps"]
    assert report["worst_distance"] < 0.2


def test_axial_density_without_regular_axial_words_is_empty():
    # Every word of two rotations is elliptic.
    rng = np.random.default_rng(3)
    gens = [random_so(rng, 3), random_so(rng, 3)]
    table = SimpleNamespace(effective_generators=lambda: gens)
    with pytest.raises(EmptySample, match="no regular axial words found"):
        limitset.axial_density_check(table, 4)


def test_directional_sample_of_rotations_is_an_empty_stack():
    # Every word of two rotations has Cartan vector 0, so no direction is
    # kept, and the empty stack keeps its n columns.
    rng = np.random.default_rng(3)
    gens = [random_so(rng, 3), random_so(rng, 3)]
    dirs = limitset.directional_sample(gens, 3, min_length=1)
    assert dirs.shape == (0, 3) and dirs.dtype == float


def test_word_and_shell_lengths_start_at_one():
    gens = _shear_pair()
    with pytest.raises(ValueError, match="max_length must be at least 1"):
        limitset.enumerate_samples(gens, 0)
    samples = limitset.enumerate_samples(gens, 3)
    with pytest.raises(ValueError, match="min_length must be at least 1"):
        limitset.directions_in_range(samples, 0, 3)


def _kd_rows(frames, dirs):
    rows = limitset._flag_embed(frames)
    return rows if dirs is None else np.concatenate([rows, dirs], axis=1)


def _brute_nearest(points, queries):
    """(Euclidean, exact) nearest distances over every point, for
    (frames, dirs) pairs as _nearest_exact takes them: Euclidean between
    the KD rows, exact as the flag distance to each query's flag, or its
    max with the direction distance."""
    (frames, dirs), (query_frames, query_dirs) = points, queries
    gaps = _kd_rows(frames, dirs)[None] - _kd_rows(query_frames, query_dirs)[:, None]
    exact = []
    for k, frame in enumerate(query_frames):
        # The query's own frame, as _nearest_exact takes it: a Flag's
        # canonical frame gives the same distances only up to rounding.
        dist = boundary.standard_flag_distances(np.matmul(frame.T, frames))
        if dirs is not None:
            dist = np.maximum(dist, np.linalg.norm(dirs - query_dirs[k], axis=1))
        exact.append(dist.min())
    return np.linalg.norm(gaps, axis=2).min(axis=1), np.array(exact)


def test_nearest_exact_is_brute_force_minimum(sl3_group):
    _, _, table = sl3_group
    rng = np.random.default_rng(5)
    for gens, length in (
        (table.effective_generators(), 5),
        ([random_sl(rng, 4), random_sl(rng, 4)], 3),
    ):
        samples = limitset.enumerate_samples(gens, length)
        flags = (samples.frames, None)
        queries = (boundary.random_frames(rng, 60, samples.n), None)
        bound, best = limitset._nearest_exact(flags, queries)
        euclid, exact = _brute_nearest(flags, queries)
        assert np.allclose(bound, euclid, rtol=0.0, atol=1e-12)
        assert np.array_equal(best, exact)
        # Joint (flag, direction) rows, queried with other words' directions.
        joint = (samples.frames, samples.dirs)
        queries = (queries[0], samples.dirs[rng.choice(len(samples), 60)])
        _, best = limitset._nearest_exact(joint, queries)
        assert np.array_equal(best, _brute_nearest(joint, queries)[1])


def test_nearest_exact_blocks_change_no_bit(sl3_group, monkeypatch):
    _, _, table = sl3_group
    rng = np.random.default_rng(7)
    samples = limitset.enumerate_samples(table.effective_generators(), 5)
    frames, dirs = samples.frames, samples.dirs
    points = (frames, dirs)
    # Product pairs: one word's flag with another's direction.  Their balls
    # range from one row to dozens.
    pairs = rng.choice(len(samples), size=(40, 2))
    queries = (frames[pairs[:, 0]], dirs[pairs[:, 1]])
    calls = []
    refine = limitset._exact_flag_dists

    def counted(frames, centers):
        calls.append(len(frames))
        return refine(frames, centers)

    monkeypatch.setattr(limitset, "_exact_flag_dists", counted)
    bound, best = limitset._nearest_exact(points, queries)
    assert calls == [sum(calls)] and sum(calls) <= limitset._REFINE_BLOCK
    stretch = np.sqrt(samples.n - 1) + 1.0
    sizes = [
        len(ball)
        for ball in limitset.cKDTree(_kd_rows(*points)).query_ball_point(
            _kd_rows(*queries), bound * stretch + 1e-12
        )
    ]
    monkeypatch.setattr(limitset, "_REFINE_BLOCK", 7)
    calls.clear()
    blocked = limitset._nearest_exact(points, queries)
    assert np.array_equal(blocked[0], bound)
    assert np.array_equal(blocked[1], best)
    # Blocks of several balls split the stack, and a ball above the block
    # size is refined on its own.
    assert any(1 < c <= 7 and c not in sizes for c in calls)
    assert any(c > 7 for c in calls)
    assert all(c <= 7 or c in sizes for c in calls)
    assert sum(calls) == sum(sizes)
    calls.clear()
    bound, best = limitset._nearest_exact(points, (frames[:0], dirs[:0]))
    assert bound.shape == best.shape == (0,) and not calls


def test_minimality_and_axdens_distances_are_brute_force(sl3_group):
    _, _, table = sl3_group
    gens = table.effective_generators()
    xi0 = table.points[1]
    samples = limitset.enumerate_samples(gens, 5)
    # The orbit flag w xi0, moved one letter at a time, last letter first:
    # no word is built as a matrix.
    letters = [m for g in gens for m in (g, np.linalg.inv(g))]
    orbit = []
    for i in range(len(samples)):
        frame = boundary.flag_frame(xi0.flag)
        for c in reversed(samples.word_tuple(i)):
            frame = kernel.qr_pos(letters[c] @ frame)[0]
        orbit.append(frame)
    probe = limitset.enumerate_samples(gens, 4)
    targets = probe.frames[probe.lengths == 4]
    euclid, exact = _brute_nearest((np.array(orbit), None), (targets, None))
    # eps splits the targets, so both branches of the worst distance count.
    eps = float(np.median(exact))
    report = limitset.minimality_check(table, xi0, targets, 5, eps=eps)
    approached = exact < eps
    assert 0 < approached.sum() < len(targets)
    assert report["approached_fraction"] == approached.mean()
    assert report["worst_target_distance"] == pytest.approx(
        np.where(approached, exact, euclid).max(), rel=0.0, abs=1e-12
    )
    # Containment reads the angular flags of the words themselves.
    gaps = limitset.gap_to_neighborhoods(samples.frames[samples.lengths >= 2], table)
    assert report["containment_fraction"] == np.mean(gaps < 0.0)
    assert report["containment_worst_gap"] == pytest.approx(
        gaps.max(), rel=0.0, abs=1e-12
    )

    regular = samples.tags == "regular-axial"
    plus = limitset._axial_plus_frames(
        limitset._materialize(samples.q, samples.a, samples.nu)[regular]
    )
    long_words = samples.lengths >= 4
    exact = _brute_nearest(
        (plus, samples.jdirs[regular]),
        (samples.frames[long_words], samples.dirs[long_words]),
    )[1]
    report = limitset.axial_density_check(table, 5, eps=0.01)
    assert report["worst_distance"] == exact.max()
    assert report["all_within_eps"] == bool((exact < 0.01).all())


def test_minimality_without_targets(sl3_group):
    _, _, table = sl3_group
    report = limitset.minimality_check(table, table.points[1], [], 4)
    assert report["targets"] == 0
    assert report["all_approached"] is True
    assert report["approached_fraction"] == 1.0
    assert report["worst_target_distance"] == 0.0


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


def test_checks_compute_only_the_columns_they_read(sl3_group, monkeypatch):
    gens, _, table = sl3_group
    # The cone reads the classes of its necklaces; the orbits never do.
    cone = limitset.limit_cone_sample(gens, 6)
    monkeypatch.setattr(limitset, "limit_cone_sample", lambda *args: cone)
    for name in ("_classify_stack", "_stack_log_moduli"):
        monkeypatch.setattr(limitset, name, _refuse(name))
    targets = np.array([point.flag.frame for point in table.points])
    report = limitset.minimality_check(table, table.points[1], targets, 4)
    assert report["targets"] == len(targets)
    report = limitset.product_structure_check(table, 4, pair_count=20)
    assert report["pairs"] == 20
    assert len(limitset.directional_sample(gens, 5, min_length=4))
    report = limitset.cone_theorem_check(gens, lp_values=(3, 5), l_cone=6)
    assert [row["shell_length"] for row in report["rows"]] == [3, 5]


@pytest.mark.parametrize(
    "eps, successes", [(0.005, 262), (0.01, 279), (0.02, 288), (0.04, 297)]
)
def test_product_structure_small_eps(sl3_group, eps, successes):
    # Small eps makes some pairs fail, so the flag/direction ball
    # intersection decides the count.
    _, _, table = sl3_group
    report = limitset.product_structure_check(
        table, 7, eps=eps, pair_count=300, seed=3
    )
    assert report["successes"] == successes


def test_word_separation_positive(sl3_group):
    gens, _, table = sl3_group
    assert limitset.word_separation(table.effective_generators(), 4) > 1e-6
    assert limitset.word_separation(_shear_pair(), 4) > 1e-6


def test_worker_counts_agree():
    gens = _shear_pair()
    base = limitset.enumerate_samples(gens, 4, workers=1)
    for workers in (4, 8):
        other = limitset.enumerate_samples(gens, 4, workers=workers)
        assert np.array_equal(base.words, other.words)
        assert np.array_equal(base.a, other.a)
        assert np.array_equal(base.q, other.q)
        assert np.array_equal(base.nu, other.nu)


@pytest.mark.parametrize("case", ["sl3", "sl8"])
def test_growth_bits_do_not_depend_on_workers(sl3_group, case):
    # Every word, and the necklace targets with their suffixes.
    if case == "sl3":
        gens, length = sl3_group[0], 7
    else:
        rng = np.random.default_rng(29)
        gens, length = [random_sl(rng, 8), random_sl(rng, 8)], 3
    for targets in (None, limitset._necklaces(2 * len(gens), length)):
        want = limitset._word_values(gens, length, 1, targets)
        for workers in (2, 3, 64):
            got = limitset._word_values(gens, length, workers, targets)
            for part, expect in zip(got, want):
                assert part.shape == expect.shape
                assert part.tobytes() == expect.tobytes(), workers


def _block_stack(sl3_group, case):
    """(gens, length, words, q, a, nu, rows): generators, their word stack up
    to length and a block size in rows that splits it into at least 3 blocks
    of two sizes."""
    if case == "sl3":
        gens, length, rows = sl3_group[0], 6, 400
    else:
        rng = np.random.default_rng(23)
        gens, length, rows = [random_sl(rng, 8), random_sl(rng, 8)], 3, 12
    words, q, a, nu = limitset._word_values(gens, length, workers=1)
    blocks = limitset._row_blocks(len(words), rows)
    assert len(blocks) >= 3
    assert len({b.stop - b.start for b in blocks}) == 2
    return gens, length, words, q, a, nu, rows


def _blocked(monkeypatch, entries, fn):
    """fn() with _MODULI_BLOCK set to entries."""
    with monkeypatch.context() as patched:
        patched.setattr(limitset, "_MODULI_BLOCK", entries)
        return fn()


@pytest.mark.parametrize("case", ["sl3", "sl8"])
def test_blocks_and_workers_change_no_bit(sl3_group, monkeypatch, case):
    # Blocks write disjoint rows of one output; frequent thread switches
    # and more workers than cores would expose a lost or misplaced write.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_blocks_and_workers(sl3_group, monkeypatch, case)
    finally:
        sys.setswitchinterval(interval)


def _check_blocks_and_workers(sl3_group, monkeypatch, case):
    gens, length, words, q, a, nu, rows = _block_stack(sl3_group, case)
    n = q.shape[-1]
    necklaces = limitset._necklaces(2 * len(gens), length)
    # Entries per block that give `rows` rows per block in each kernel.
    moduli_entries = rows * comb(n, n // 2) ** 2
    row_entries = rows * n * n
    whole = 1 << 40
    kernels = [
        # Each kernel's outputs as a tuple: the Cartan kernel gives vectors
        # and frames.
        ("moduli", comb(n, n // 2) ** 2,
         lambda w: (limitset._stack_log_moduli(q, a, nu, w),)),
        ("cartan", n * n, lambda w: limitset._stack_cartan(q, a, nu, w)),
        # Growth blocks count the entries of q, a and nu.
        ("growth", 2 * n * n + n, lambda w: limitset._word_values(gens, length, w)),
        ("necklace growth", 2 * n * n + n,
         lambda w: limitset._word_values(gens, length, w, necklaces)),
    ]
    for name, entries_per_row, fn in kernels:
        want = _blocked(monkeypatch, whole, lambda: fn(1))
        # Blocks of `rows` rows on one to three workers, and one-row blocks.
        cases = [(rows * entries_per_row, workers) for workers in (1, 2, 3)]
        cases.append((entries_per_row, 2))
        for entries, workers in cases:
            got = _blocked(monkeypatch, entries, lambda: fn(workers))
            assert len(got) == len(want)
            for part, expect in zip(got, want):
                assert part.tobytes() == expect.tobytes(), (name, entries, workers)

    def columns(workers, moduli, row):
        samples = limitset.SampleSet(words, q, a, nu, workers)
        _blocked(monkeypatch, moduli, lambda: samples.tags)
        _blocked(monkeypatch, row, lambda: (samples.dirs, samples.frames))
        return samples

    want = columns(1, whole, whole)
    for workers in (1, 2, 3):
        got = columns(workers, moduli_entries, row_entries)
        assert got.workers == workers
        assert np.array_equal(got.tags, want.tags)
        assert np.array_equal(got.jdirs, want.jdirs, equal_nan=True)
        assert np.array_equal(got.dirs, want.dirs)
        assert np.array_equal(got.frames, want.frames)


def test_pools_start_one_thread_per_block_at_most(sl3_group, monkeypatch):
    started = []
    pool = limitset.ThreadPoolExecutor

    def recording(max_workers):
        started.append(max_workers)
        # A real pool, never larger than the blocks of this test.
        return pool(max_workers=min(max_workers, 4))

    monkeypatch.setattr(limitset, "ThreadPoolExecutor", recording)
    *_, q, a, nu, _ = _block_stack(sl3_group, "sl3")
    three = 500 * 9  # 3 blocks of 485 or 486 rows at n = 3
    assert len(limitset._row_blocks(len(a), three // 9)) == 3
    for fn in (
        lambda w: limitset._stack_log_moduli(q, a, nu, w),
        lambda w: limitset._stack_cartan(q, a, nu, w),
    ):
        _blocked(monkeypatch, three, lambda: fn(64))
        assert started == [3]
        # One worker, or one block, starts no pool.
        _blocked(monkeypatch, three, lambda: fn(1))
        _blocked(monkeypatch, 1 << 40, lambda: fn(64))
        assert started == [3]
        started.clear()
    # Word growth: a level that fits in one block starts no pool.  At n = 2
    # a row holds 10 entries, so blocks of 150 entries leave the levels of
    # 4 and 12 rows whole and split the last level, of 36 rows, into 3.
    def grow(workers):
        limitset._word_values(_shear_pair(), 3, workers)

    grow(64)
    assert started == []
    _blocked(monkeypatch, 150, lambda: grow(64))
    assert started == [3]
    _blocked(monkeypatch, 150, lambda: grow(1))
    assert started == [3]


@pytest.mark.parametrize("workers", [1, 2])
def test_word_values_peak_memory(sl3_group, workers):
    # The values are allocated once at full size and each level's blocks
    # write straight into their rows, so the peak stays below twice what is
    # returned.
    gens, _, _ = sl3_group
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = limitset._word_values(gens, 9, workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(a.nbytes for a in out)


def test_csv_deterministic_bytes(tmp_path):
    gens = _shear_pair()
    payloads = []
    for workers in (1, 4, 8):
        samples = limitset.enumerate_samples(gens, 3, workers=workers)
        path = tmp_path / f"w{workers}.csv"
        payloads.append(limitset.write_csv(samples, path))
    assert payloads[0] == payloads[1] == payloads[2]
    text = payloads[0].decode("utf-8")
    lines = text.split("\n")
    assert lines[0].startswith("word,length,class,dir_1")
    assert len(lines) == 53 + 2  # header + rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in text
    assert lines[1].split(",")[0] == "e"
    assert lines[2].split(",")[0] == "a"


def test_csv_includes_neighborhood_gap(sl3_group, tmp_path):
    _, names, table = sl3_group
    samples = limitset.enumerate_samples(table.effective_generators(), 3)
    data = limitset.write_csv(samples, tmp_path / "g.csv", names=names, table=table)
    lines = data.decode("utf-8").strip().split("\n")
    header = lines[0].split(",")
    assert header[-1] == "flag_dist_to_nearest_U"
    gap_col = [line.split(",")[-1] for line in lines[1:]]
    assert all(g != "" for g in gap_col)
    long_rows = [
        line for line in lines[1:] if int(line.split(",")[1]) >= 2
    ]
    assert all(float(line.split(",")[-1]) < 0.0 for line in long_rows)


def _reference_csv(samples, names, gaps):
    """Sample CSV written cell by cell from the per-row accessors."""
    n = samples.n
    fmt = lambda x: format(float(x), ".17g")
    header = (
        ["word", "length", "class"]
        + [f"dir_{i + 1}" for i in range(n)]
        + [f"jdir_{i + 1}" for i in range(n)]
        + ["flag_dist_to_nearest_U"]
    )
    lines = [",".join(header)]
    for i in range(len(samples)):
        row = [
            limitset.word_label(samples.word_tuple(i), names),
            str(int(samples.lengths[i])),
            samples.tags[i],
        ]
        row += [fmt(x) for x in samples.dirs[i]]
        if np.isnan(samples.jdirs[i][0]):
            row += [""] * n
        else:
            row += [fmt(x) for x in samples.jdirs[i]]
        row.append("" if gaps is None else fmt(gaps[i]))
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_matches_cell_by_cell_writer(sl3_group, tmp_path, monkeypatch):
    monkeypatch.setattr(limitset, "_CSV_BLOCK", 7)  # rows span many blocks
    _, names, table = sl3_group
    samples = limitset.enumerate_samples(table.effective_generators(), 4)
    gaps = limitset.gap_to_neighborhoods(samples.frames, table)
    data = limitset.write_csv(samples, tmp_path / "t.csv", names=names, table=table)
    assert data == _reference_csv(samples, names, gaps)
    # Parabolic rows (blank Jordan direction) and default names.
    samples = limitset.enumerate_samples(_shear_pair(), 3)
    assert np.isnan(samples.jdirs[:, 0]).any()
    data = limitset.write_csv(samples, tmp_path / "s.csv")
    assert data == _reference_csv(samples, ["a", "b"], None)


def test_csv_peak_stays_below_three_times_its_bytes(sl3_group, tmp_path):
    # Each _CSV_BLOCK of rows becomes bytes as it is formatted, so the text
    # of the whole file never sits beside its bytes.
    gens, names, table = sl3_group
    samples = limitset.enumerate_samples(gens, 8, workers=1)
    samples.dirs, samples.jdirs, samples.tags, samples.frames  # columns read
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        data = limitset.write_csv(samples, tmp_path / "s.csv", names=names, table=table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(data)


def test_word_labels():
    names = limitset.default_names(2)
    assert names == ["a", "b"]
    assert limitset.word_label((), names) == "e"
    assert limitset.word_label((0, 3, 1), names) == "a.b'.a'"
    # e labels the identity, so no generator takes it.
    assert limitset.default_names(5) == ["a", "b", "c", "d", "f"]
    assert "e" not in limitset.default_names(25)
    assert limitset.default_names(26)[0] == "g1"
    assert limitset.default_names(30)[0] == "g1"


def test_overflow_flag():
    g = np.diag([np.exp(40.0), np.exp(-40.0)])
    samples = limitset.enumerate_samples([g], 10)
    deep = samples.lengths == 10
    assert samples.overflow[deep].any()
    assert np.isfinite(samples.dirs[samples.overflow]).all()


def _exterior_power_cartan(a, nu):
    """Reference Cartan projection: log(s_1 ... s_k) is the log top singular
    value of the k-th exterior power of e^a nu, exponents kept symbolic."""
    ls = exterior_log_singular_values(a, nu)
    return ls - ls.mean(axis=1, keepdims=True)


def _assert_matches_oracle(q, a, nu):
    got, frames = limitset._stack_cartan(q, a, nu)
    assert np.all(np.isfinite(got))
    assert np.abs(got - _exterior_power_cartan(a, nu)).max() <= 1e-11
    # The frames of the same SVD stay finite and orthonormal at any spread.
    assert np.all(np.isfinite(frames))
    assert np.abs(frames.mT @ frames - np.eye(a.shape[1])).max() < 1e-13


def _one_scaled_svd(a, nu):
    """graded_svd's arithmetic on factors that one scaled SVD holds."""
    b, u, order = kernel._retriangularize(a, nu)
    shift = b.max(axis=1)
    _, sig, vh = np.linalg.svd(np.exp(b - shift[:, None])[:, :, None] * u)
    frames = np.empty_like(u)
    frames[np.arange(len(u))[:, None], order] = vh.transpose(0, 2, 1)
    return np.log(sig) + shift[:, None], frames


def test_stack_cartan_matches_exterior_powers(sl3_group):
    _, _, table = sl3_group
    stacks = [limitset._word_values(table.effective_generators(), 8)[1:]]
    rng = np.random.default_rng(21)
    for n, length in ((4, 4), (6, 4), (8, 3)):
        gens = [random_sl(rng, n), random_sl(rng, n)]
        stacks.append(limitset._word_values(gens, length)[1:])
    for q, a, nu in stacks:
        _assert_matches_oracle(q, a, nu)
        # No word here spreads wide enough to be split: the graded SVD is
        # bit for bit the one scaled SVD.
        got = kernel.graded_svd(a, nu)
        want = _one_scaled_svd(a, nu)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_stack_cartan_wide_spread_and_any_scale_order():
    # Spreads beyond what one scaled SVD holds are split where rows decouple.
    rng = np.random.default_rng(22)
    k1, k2 = random_so(rng, 3), random_so(rng, 3)
    g = k1 @ np.diag([np.exp(12.0), 1.0, np.exp(-12.0)]) @ k2
    _, q, a, nu = limitset._word_values([g], 36)
    assert np.ptp(a, axis=1).max() > 600.0
    _assert_matches_oracle(q, a, nu)
    # Scales in no particular order, as a factored form never produces but
    # the kernel accepts: the re-triangularization restores the grading.
    for n in (3, 5):
        a = rng.permuted(np.linspace(-150.0, 150.0, n)[None].repeat(50, 0), axis=1)
        nu = np.eye(n) + np.triu(rng.uniform(-3.0, 3.0, (50, n, n)), 1)
        _assert_matches_oracle(np.broadcast_to(np.eye(n), nu.shape), a, nu)


def _plain_svd_frames(samples):
    """Angular frames by a plain SVD of each scaled graded factor
    e^{a - max a} nu, rotated by q: the reference arithmetic."""
    shift = samples.a.max(axis=1)
    graded = np.exp(samples.a - shift[:, None])[:, :, None] * samples.nu
    return np.einsum("nij,njk->nik", samples.q, np.linalg.svd(graded)[0])


def test_frames_match_plain_scaled_svd(sl3_group):
    rng = np.random.default_rng(24)
    cases = [(sl3_group[0], 8)]
    cases += [([random_sl(rng, n), random_sl(rng, n)], 3) for n in (4, 6, 8)]
    for gens, length in cases:
        samples = limitset.enumerate_samples(gens, length)
        relative = _plain_svd_frames(samples).mT @ samples.frames
        assert boundary.standard_flag_distances(relative).max() < 1e-11


def _determinant_moduli(monkeypatch, q, a, nu):
    """_stack_log_moduli with the whole stack in one block and every
    exterior power taken from per-minor LAPACK determinants."""
    with monkeypatch.context() as patched:
        patched.setattr(kernel, "compounds", det_compounds)
        patched.setattr(limitset, "_MODULI_BLOCK", 1 << 40)
        return limitset._stack_log_moduli(q, a, nu)


def _one_block_moduli(monkeypatch, q, a, nu):
    """_stack_log_moduli with the whole stack in one block."""
    with monkeypatch.context() as patched:
        patched.setattr(limitset, "_MODULI_BLOCK", 1 << 40)
        return limitset._stack_log_moduli(q, a, nu)


def test_stack_log_moduli_matches_determinant_path(sl3_group, monkeypatch):
    _, _, table = sl3_group
    _, q, a, nu = limitset._word_values(table.effective_generators(), 8)
    # At n = 3 only 2-minors are needed, LAPACK determinants either way.
    want = _determinant_moduli(monkeypatch, q, a, nu)
    got = limitset._stack_log_moduli(q, a, nu)
    assert np.array_equal(got, want)
    assert np.array_equal(got, _one_block_moduli(monkeypatch, q, a, nu))
    rng = np.random.default_rng(21)
    for n, length in ((4, 4), (6, 4), (8, 3)):
        gens = [random_sl(rng, n), random_sl(rng, n)]
        words, q, a, nu = limitset._word_values(gens, length)
        lengths = (words != limitset._PAD).sum(axis=1)
        first = words[:, 0]
        last = words[np.arange(len(words)), np.maximum(lengths - 1, 0)]
        # Words that are not cyclically reduced have moduli at roundoff
        # noise level, so only cyclically reduced rows are compared.
        cyc = (lengths >= 1) & ((first != (last ^ 1)) | (lengths == 1))
        got = limitset._stack_log_moduli(q, a, nu)
        assert np.array_equal(got, _one_block_moduli(monkeypatch, q, a, nu))
        want = _determinant_moduli(monkeypatch, q, a, nu)
        assert np.abs(got - want)[cyc].max() <= 1e-11
        # These words are short enough for a plain eig of the product.
        plain = np.log(np.abs(np.linalg.eigvals(limitset._materialize(q, a, nu))))
        plain = np.sort(plain, axis=1)[:, ::-1]
        plain -= plain.mean(axis=1, keepdims=True)
        assert np.abs(got - plain)[cyc].max() <= 1e-9
        tags, _ = limitset._classify_stack(q, a, nu, lengths)
        with monkeypatch.context() as patched:
            patched.setattr(limitset, "_stack_log_moduli", lambda *_: want)
            want_tags, _ = limitset._classify_stack(q, a, nu, lengths)
        assert np.array_equal(tags, want_tags)


def _exterior_moduli(monkeypatch, q, a, nu):
    """_stack_log_moduli with every row on the exterior-power route."""
    with monkeypatch.context() as patched:
        patched.setattr(limitset, "_DIRECT_SPREAD", -1.0)
        return limitset._stack_log_moduli(q, a, nu)


def test_direct_moduli_match_exterior_powers_within_the_spread_bound(
    sl3_group, monkeypatch
):
    # Necklaces are cyclically reduced, so each row's moduli are well
    # defined; rows past the bound must not move a bit.
    inputs = perfbench_inputs()
    cases = [(sl3_group[2].effective_generators(), 11)]
    for seed in (1, 2, 3):
        for n, length in ((4, 7), (6, 6), (8, 5)):
            cases.append((inputs.chamber_translation_generators(seed, n), length))
    near_rows = 0
    for gens, length in cases:
        _, q, a, nu = limitset._necklace_values(gens, length)
        near = a.max(axis=1) - a.min(axis=1) <= limitset._DIRECT_SPREAD
        got = limitset._stack_log_moduli(q, a, nu)
        want = _exterior_moduli(monkeypatch, q, a, nu)
        assert np.array_equal(got[~near], want[~near])
        assert np.abs(got - want)[near].max(initial=0.0) <= 1e-12
        near_rows += near.sum()
    # Both routes are exercised: the SL(n) necklaces all spread less than
    # 16, and all but ten sl3 necklaces more.
    assert near_rows > 2500


def test_spread_bound_keeps_every_pinned_benchmark_row_on_exterior_powers(sl3_group):
    # The benchmark pins sampled direction cells of sl3_l2's L = 9
    # enumerate; rows past the bound keep their bits, so raising the bound
    # past a pinned row's spread would move a pinned cell.
    with open(PERFBENCH / "reference" / "sl3_l2.json", encoding="utf-8") as fh:
        reference = json.load(fh)["enumerate"]
    words, _, a, _ = limitset._word_values(
        sl3_group[2].effective_generators(), reference["max_word_length"]
    )
    rows = np.array(sorted(int(key) for key in reference["rows"]))
    rows = rows[(words[rows] != limitset._PAD).any(axis=1)]
    assert len(rows) == len(reference["rows"]) - 1  # all but the identity
    spread = a[rows].max(axis=1) - a[rows].min(axis=1)
    assert spread.min() > limitset._DIRECT_SPREAD


def test_sl8_unipotent_draw_is_not_called_regular():
    # The 30th SL(8) draw is a regular unipotent, and it and its inverse
    # spread less than the bound.  On exterior powers their moduli scatter
    # from -0.61 to 0.43, which passes the regularity test; one eig gives
    # equal-modulus pairs, which send both rows to the per-matrix
    # classifier.
    g = unipotent_draws()[(8, 29)]
    samples = limitset.enumerate_samples([g], 1)
    spread = samples.a.max(axis=1) - samples.a.min(axis=1)
    assert np.all(spread[1:] <= limitset._DIRECT_SPREAD)
    assert "regular-axial" not in samples.tags
