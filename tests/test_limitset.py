import numpy as np
import pytest

from rankr import boundary, decompositions, isometries, kernel, limitset
from rankr.errors import EmptySample, InsufficientGenerators
from conftest import random_sl, random_so


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
    monkeypatch.delenv("RANKR_THREADS", raising=False)
    assert limitset.resolve_workers(3) == 3
    assert limitset.resolve_workers() >= 1
    monkeypatch.setenv("RANKR_THREADS", "2")
    assert limitset.resolve_workers() == 2
    assert limitset.resolve_workers(7) == 7


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
    vals = samples.values()
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
    vals = samples.values()
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
    gens4 = [samples.value(i) for i in range(len(samples)) if samples.lengths[i] == 4][:2]
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
    assert np.allclose(samples.value(0), np.eye(2))
    # a.b = [[5, 2], [2, 1]]; its top eigenvalue fixes the direction.
    lam = max(abs(np.linalg.eigvals(np.array([[5.0, 2.0], [2.0, 1.0]]))))
    expect = np.array([np.log(lam), -np.log(lam)])
    expect = expect / np.linalg.norm(expect)
    assert np.allclose(samples.jdirs[ab], expect, atol=1e-10)


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
    targets = [
        boundary.flag_from_frame(samples.frames[i])
        for i in rng.choice(
            np.flatnonzero(samples.lengths == 4), size=5, replace=False
        )
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


def test_axial_density(sl3_group):
    _, _, table = sl3_group
    report = limitset.axial_density_check(table, 6, eps=0.2, min_length=4)
    assert report["all_within_eps"]
    assert report["worst_distance"] < 0.2


def _flag_metric(n):
    return lambda rows, q: limitset._exact_flag_dists(rows, q, n)


def _joint_metric(n):
    flag_dim = (n - 1) * n * n

    def joint(rows, q):
        flag = limitset._exact_flag_dists(rows[:, :flag_dim], q[:flag_dim], n)
        direction = np.linalg.norm(rows[:, flag_dim:] - q[flag_dim:], axis=1)
        return np.maximum(flag, direction)

    return joint


def _brute_nearest(points, queries, exact):
    """(Euclidean, exact) nearest distances over every point."""
    euclid = np.linalg.norm(points[None] - queries[:, None], axis=2).min(axis=1)
    return euclid, np.array([exact(points, q).min() for q in queries])


def test_nearest_exact_is_brute_force_minimum(sl3_group):
    _, _, table = sl3_group
    rng = np.random.default_rng(5)
    for gens, length in (
        (table.effective_generators(), 5),
        ([random_sl(rng, 4), random_sl(rng, 4)], 3),
    ):
        samples = limitset.enumerate_samples(gens, length)
        n = samples.n
        flags = limitset._flag_embed(samples.frames)
        queries = limitset._flag_embed(boundary.random_frames(rng, 60, n))
        bound, best = limitset._nearest_exact(
            flags, queries, _flag_metric(n), np.sqrt(n - 1)
        )
        euclid, exact = _brute_nearest(flags, queries, _flag_metric(n))
        assert np.allclose(bound, euclid, rtol=0.0, atol=1e-12)
        assert np.array_equal(best, exact)
        # Joint (flag, direction) rows, queried with other words' directions.
        joint = np.concatenate([flags, samples.dirs], axis=1)
        queries = np.concatenate(
            [queries, samples.dirs[rng.choice(len(samples), 60)]], axis=1
        )
        _, best = limitset._nearest_exact(
            joint, queries, _joint_metric(n), np.sqrt(n - 1) + 1.0
        )
        assert np.array_equal(best, _brute_nearest(joint, queries, _joint_metric(n))[1])


def test_minimality_and_axdens_distances_are_brute_force(sl3_group):
    _, _, table = sl3_group
    gens = table.effective_generators()
    xi0 = table.points[1]
    samples = limitset.enumerate_samples(gens, 5)
    orbit = np.einsum(
        "nij,jk->nik", samples.values(), boundary.flag_frame(xi0.flag)
    )
    orbit = limitset._flag_embed(kernel.qr_pos(orbit)[0])
    probe = limitset.enumerate_samples(gens, 4)
    frames = probe.frames[probe.lengths == 4]
    euclid, exact = _brute_nearest(
        orbit, limitset._flag_embed(frames), _flag_metric(3)
    )
    # eps splits the targets, so both branches of the worst distance count.
    eps = float(np.median(exact))
    targets = [boundary.flag_from_frame(f) for f in frames]
    report = limitset.minimality_check(table, xi0, targets, 5, eps=eps)
    approached = exact < eps
    assert 0 < approached.sum() < len(targets)
    assert report["approached_fraction"] == approached.mean()
    assert report["worst_target_distance"] == pytest.approx(
        np.where(approached, exact, euclid).max(), rel=0.0, abs=1e-12
    )

    regular = samples.tags == "regular-axial"
    plus = limitset._axial_plus_frames(samples.values()[regular])
    points = np.concatenate(
        [limitset._flag_embed(plus), samples.jdirs[regular]], axis=1
    )
    long_words = samples.lengths >= 4
    queries = np.concatenate(
        [limitset._flag_embed(samples.frames[long_words]), samples.dirs[long_words]],
        axis=1,
    )
    exact = _brute_nearest(points, queries, _joint_metric(3))[1]
    report = limitset.axial_density_check(table, 5, eps=0.01, min_length=4)
    assert report["worst_distance"] == exact.max()
    assert report["all_within_eps"] == bool((exact < 0.01).all())


def test_minimality_without_targets(sl3_group):
    _, _, table = sl3_group
    report = limitset.minimality_check(table, table.points[1], [], 4)
    assert report["targets"] == 0
    assert report["all_approached"] is True
    assert report["approached_fraction"] == 1.0
    assert report["worst_target_distance"] == 0.0


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


def test_word_labels():
    names = limitset.default_names(2)
    assert names == ["a", "b"]
    assert limitset.word_label((), names) == "e"
    assert limitset.word_label((0, 3, 1), names) == "a.b'.a'"
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
    ls = kernel._exterior_log_singular_values(a, nu)
    return ls - ls.mean(axis=1, keepdims=True)


def _assert_matches_oracle(a, nu):
    got = limitset._stack_cartan(a, nu)
    assert np.all(np.isfinite(got))
    assert np.abs(got - _exterior_power_cartan(a, nu)).max() <= 1e-11


def test_stack_cartan_matches_exterior_powers(sl3_group):
    _, _, table = sl3_group
    _, _, a, nu = limitset._word_values(table.effective_generators(), 8)
    _assert_matches_oracle(a, nu)
    rng = np.random.default_rng(21)
    for n, length in ((4, 4), (6, 4), (8, 3)):
        gens = [random_sl(rng, n), random_sl(rng, n)]
        _, _, a, nu = limitset._word_values(gens, length)
        _assert_matches_oracle(a, nu)


def test_stack_cartan_wide_spread_and_any_scale_order():
    # Spreads beyond defaults.GRADED_SPREAD take the exterior-power route.
    rng = np.random.default_rng(22)
    k1, k2 = random_so(rng, 3), random_so(rng, 3)
    g = k1 @ np.diag([np.exp(12.0), 1.0, np.exp(-12.0)]) @ k2
    _, _, a, nu = limitset._word_values([g], 36)
    assert np.ptp(a, axis=1).max() > 600.0
    _assert_matches_oracle(a, nu)
    # Scales in no particular order, as a factored form never produces but
    # the kernel accepts: the re-triangularization restores the grading.
    for n in (3, 5):
        a = rng.permuted(np.linspace(-150.0, 150.0, n)[None].repeat(50, 0), axis=1)
        nu = np.eye(n) + np.triu(rng.uniform(-3.0, 3.0, (50, n, n)), 1)
        _assert_matches_oracle(a, nu)
