import json

import numpy as np
import pytest

from rankr import boundary, cli, isometries, lie, limitset, schottky
from rankr.errors import InsufficientGenerators, NotInterior, NotTransverse, RankrError
from conftest import loop_generator_margin, random_chamber_dir, random_so, spec_path


def _random_transverse_pair(rng, n, min_margin=0.2):
    while True:
        f1 = boundary.random_flag(rng, n)
        f2 = boundary.random_flag(rng, n)
        ok, margin = boundary.transverse(f1, f2)
        if ok and margin > min_margin:
            return f1, f2


def test_adapt_frame_trivial_pairs():
    g = schottky.adapt_frame(boundary.standard_flag(3), boundary.reversed_flag(3))
    assert boundary.flags_equal(
        boundary.flag_from_frame(np.abs(g) @ np.eye(3)), boundary.standard_flag(3)
    )
    rng = np.random.default_rng(0)
    k = random_so(rng, 3)
    g = schottky.adapt_frame(
        boundary.flag_from_frame(k),
        boundary.flag_from_frame(k[:, ::-1] * np.array([1.0, 1.0, np.sign(np.linalg.det(k[:, ::-1]))])),
    )
    assert (
        boundary.flag_distance(
            boundary.act_flag(g, boundary.standard_flag(3)),
            boundary.flag_from_frame(k),
        )
        < 1e-8
    )


def test_adapt_frame_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        fp, fm = _random_transverse_pair(rng, n, min_margin=0.05)
        g = schottky.adapt_frame(fp, fm)
        assert abs(np.linalg.det(g) - 1.0) < 1e-9
        assert (
            boundary.flag_distance(
                boundary.act_flag(g, boundary.standard_flag(n)), fp
            )
            < 1e-8
        )
        assert (
            boundary.flag_distance(
                boundary.act_flag(g, boundary.reversed_flag(n)), fm
            )
            < 1e-8
        )
    with pytest.raises(NotTransverse):
        schottky.adapt_frame(boundary.standard_flag(3), boundary.standard_flag(3))


def test_make_axial_standard_pair_is_diagonal():
    ell = np.array([1.0, 0.0, -1.0])
    gamma = schottky.make_axial(
        boundary.standard_flag(3), boundary.reversed_flag(3), ell
    )
    assert np.allclose(gamma, np.diag(np.exp(ell)), atol=1e-10)
    with pytest.raises(NotInterior):
        schottky.make_axial(
            boundary.standard_flag(3), boundary.reversed_flag(3), [1.0, 1.0, -2.0]
        )


def test_make_axial_random_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        fp, fm = _random_transverse_pair(rng, n)
        ell = random_chamber_dir(rng, n, min_gap=0.3) * 2.0
        gamma = schottky.make_axial(fp, fm, ell)
        assert isometries.classify(gamma).tag == "regular-axial"
        assert np.allclose(isometries.translation_vector(gamma), np.sort(ell)[::-1], atol=1e-7)
        plus, minus = isometries.fixed_points(gamma)
        assert boundary.flag_distance(plus.flag, fp) < 1e-7
        assert boundary.flag_distance(minus.flag, fm) < 1e-7


def test_make_generic_parabolic():
    assert np.allclose(
        schottky.make_generic_parabolic(boundary.standard_flag(2)),
        [[1.0, 1.0], [0.0, 1.0]],
    )
    assert np.allclose(
        schottky.make_generic_parabolic(boundary.standard_flag(3)),
        np.eye(3) + np.diag([1.0, 1.0], 1),
    )
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = boundary.random_flag(rng, 3)
        gamma = schottky.make_generic_parabolic(f)
        assert isometries.classify(gamma).tag == "strictly-parabolic"
        assert isometries.is_generic_parabolic(gamma)
        assert boundary.flag_distance(boundary.act_flag(gamma, f), f) < 1e-8


def test_build_table_rejects_bad_inputs():
    rng = np.random.default_rng(4)
    f = boundary.random_flag(rng, 3)
    with pytest.raises(InsufficientGenerators):
        schottky.build_table([], [])
    with pytest.raises(NotTransverse):
        schottky.build_table([f, f], [np.array([1.5, 0.0, -1.5])])
    # One parabolic flag has no pair to take the least distance of.
    with pytest.raises(InsufficientGenerators):
        schottky.build_table([f], [])


@pytest.mark.parametrize(
    "name", ["sl2_classical.json", "sl3_l2.json", "sl3_l2_doubled.json", None]
)
def test_build_table_places_points_from_generators(name, parabolic_table):
    # Axial generator m's (minus, plus) points carry its translation
    # direction and that direction's opposition; parabolic points the
    # chamber centre rho / |rho|.
    if name is None:
        table = parabolic_table
    else:
        table = cli.build_group(cli.load_spec(spec_path(name)))[2]
    n = table.n
    rho = np.arange(n - 1, -n, -2, dtype=float)
    for m, (kind, base) in enumerate(zip(table.kinds, table.base_generators)):
        (minus, plus), _ = table.neighborhood_indices(m)
        if kind == "axial":
            ell = isometries.translation_vector(base)
            unit = ell / np.linalg.norm(ell)
            for point, want in ((plus, unit), (minus, lie.opposition(unit))):
                assert np.abs(table.points[point].direction - want).max() < 1e-9
        else:
            assert np.array_equal(
                table.points[plus].direction, rho / np.linalg.norm(rho)
            )
    assert table.kinds.count("parabolic") == (name is None)


def test_bundled_sl3_table_certifies(sl3_group):
    _, _, table = sl3_group
    assert table.powers == [2, 3]
    assert np.allclose(table.radii, 0.3)
    report = schottky.certify_klein(table, resolution=500, seed=1)
    assert report.certified
    assert report.min_margin > 0
    assert len(report.per_generator_margins) == 2


def test_margin_monotone_under_radius_shrink(sl3_group):
    _, _, table = sl3_group
    base = schottky.certify_klein(table, resolution=300, seed=1)
    shrunk = schottky.PingPongTable(
        points=table.points,
        radii=table.radii * 0.9,
        base_generators=table.base_generators,
        powers=list(table.powers),
        kinds=list(table.kinds),
    )
    again = schottky.certify_klein(shrunk, resolution=300, seed=1)
    assert base.certified and again.certified


def test_certify_fails_on_doubled_radii_with_witness(sl3_group):
    _, _, table = sl3_group
    doubled = schottky.PingPongTable(
        points=table.points,
        radii=table.radii * 2.0,
        base_generators=table.base_generators,
        powers=list(table.powers),
        kinds=list(table.kinds),
    )
    report = schottky.certify_klein(doubled, resolution=300, seed=1)
    assert not report.certified
    assert report.witness is not None


def test_certify_precondition_needs_two_generators(sl3_group):
    _, _, table = sl3_group
    single = schottky.PingPongTable(
        points=table.points[:2],
        radii=table.radii[:2],
        base_generators=table.base_generators[:1],
        powers=table.powers[:1],
        kinds=table.kinds[:1],
    )
    report = schottky.certify_klein(single, resolution=10, seed=1)
    assert not report.certified
    assert "precondition" in report.reason


def test_table_json_round_trip(sl3_group):
    _, _, table = sl3_group
    data = json.loads(json.dumps(table.to_json_dict()))
    back = schottky.PingPongTable.from_json_dict(data)
    assert back.powers == table.powers
    assert back.kinds == table.kinds
    assert np.allclose(back.radii, table.radii)
    for p, q in zip(back.points, table.points):
        assert boundary.flag_distance(p.flag, q.flag) < 1e-12
        assert np.allclose(p.direction, q.direction)
    for g, h in zip(back.base_generators, table.base_generators):
        assert np.allclose(g, h)


def test_neighborhood_indices():
    rng = np.random.default_rng(5)
    frames = boundary.random_frames(rng, 3, 3)
    h = random_chamber_dir(rng, 3)
    pts = [boundary.BoundaryPoint(boundary.flag_from_frame(f), h) for f in frames]
    table = schottky.PingPongTable(
        points=pts,
        radii=np.full(3, 0.1),
        base_generators=[np.eye(3), np.eye(3)],
        powers=[1, 1],
        kinds=["axial", "parabolic"],
    )
    assert table.neighborhood_indices(0) == ((0, 1), (1, 0))
    assert table.neighborhood_indices(1) == ((2, 2), (2, 2))


def test_sample_flags_near_hits_targets():
    rng = np.random.default_rng(6)
    center = boundary.random_flag(rng, 4)
    targets = rng.uniform(0.05, 0.4, size=64)
    frames = schottky.sample_flags_near(center, targets, rng)
    dists = boundary.flag_distances_to_center(frames, center)
    assert np.max(np.abs(dists - targets)) < 1e-6


def _unit_skews(rng, count, n):
    raw = rng.standard_normal((count, n, n))
    skews = raw - raw.transpose(0, 2, 1)
    return skews / np.linalg.norm(skews, axis=(1, 2), keepdims=True)


def _solve_cayley(skews, t):
    """(I + tS)(I - tS)^-1 by one linear solve per matrix."""
    eye = np.eye(skews.shape[-1])
    a = skews * t
    rot = np.linalg.solve((eye - a).transpose(0, 2, 1), (eye + a).transpose(0, 2, 1))
    return rot.transpose(0, 2, 1)


def test_cayley_map_matches_solve_form():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        skews = _unit_skews(rng, 50, n)
        cayley = schottky._cayley_map(skews)
        for t in (0.0, 1e-10, 1e-3, 0.1, 0.5, 1.0, 4.0):
            got = cayley(np.full(len(skews), t))
            assert np.abs(got - _solve_cayley(skews, t)).max() < 1e-14


def test_cayley_map_matches_exact_cayley_up_to_large_t():
    # I - tS has condition number up to about t, so the solve form itself
    # drifts at large t; the reference here is exact to 34 digits.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 34
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for n in range(2, 9):
        skews = _unit_skews(rng, 4, n)
        cayley = schottky._cayley_map(skews)
        for t in (1e-10, 0.5, 4.0, 64.0, 512.0, 2048.0):
            got = cayley(np.full(len(skews), t))
            for s, g in zip(skews, got):
                a = mpmath.matrix(s.tolist()) * t
                eye = mpmath.eye(n)
                ref = (eye + a) * mpmath.inverse(eye - a)
                ref = np.array(ref.tolist(), dtype=float)
                # Cay(tS) moves by up to about t |dS| when S moves by dS,
                # and S is known to eps: no evaluation does better than t eps.
                assert np.abs(g - ref).max() < 1e-14 + t * eps


def test_flag_distance_keeps_relative_accuracy_near_center():
    # d(C, C Cay(tS)) = 2 sqrt(2) t max_k ||S[k:, :k]|| + O(t^2).  The
    # centers are signed permutations, so C Cay(tS) is formed exactly and
    # the check sees only the distance's own rounding.
    rng = np.random.default_rng(9)
    t = 1e-10
    for n in range(2, 9):
        skews = _unit_skews(rng, 20, n)
        near = schottky._cayley_map(skews)(np.full(len(skews), t))
        expect = np.array(
            [2.0 * np.sqrt(2.0) * max(np.linalg.norm(s[k:, :k]) for k in range(1, n))
             for s in skews]
        )
        perm = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
        for frame in (np.eye(n), boundary.reversed_flag(n).frame, perm):
            center = boundary.flag_from_frame(frame)
            dist = boundary.flag_distances_to_center(
                np.matmul(center.frame, near), center
            )
            assert np.abs(dist / t / expect - 1.0).max() < 1e-6


def test_sample_flags_near_lands_on_targets_for_every_n():
    rng = np.random.default_rng(10)
    for n in range(2, 9):
        center = boundary.random_flag(rng, n)
        targets = rng.uniform(0.01, 0.5, size=200)
        frames = schottky.sample_flags_near(center, targets, rng)
        gram = np.matmul(frames.transpose(0, 2, 1), frames)
        assert np.abs(gram - np.eye(n)).max() < 1e-13
        dists = boundary.flag_distances_to_center(frames, center)
        assert np.abs(dists - targets).max() < 1e-12


def test_sample_flags_near_grows_its_bracket_to_far_targets():
    # At n = 3 every path of this draw is still short of distance 1.0 at the
    # initial bracket t = 0.5, so the bracket doubles before the bisection.
    center = boundary.random_flag(np.random.default_rng(1), 3)
    targets = np.full(20, 1.0)
    frames = schottky.sample_flags_near(center, targets, np.random.default_rng(2))
    dists = boundary.flag_distances_to_center(frames, center)
    assert np.abs(dists - targets).max() < 2e-15


def _bisected_flags_near(center, targets, rng):
    """sample_flags_near with 50 bisection steps after the same bracket
    growth, on the same draws: the reference for its accuracy."""
    n = center.n
    raw = rng.standard_normal((len(targets), n, n))
    skews = raw - raw.transpose(0, 2, 1)
    skews /= np.linalg.norm(skews, axis=(1, 2), keepdims=True)
    cayley = schottky._cayley_map(skews)

    def dist(t):
        return boundary.standard_flag_distances(cayley(t))

    lo = np.zeros(len(targets))
    hi = np.full(len(targets), 0.5)
    for _ in range(12):
        short = dist(hi) < targets
        if not short.any():
            break
        hi[short] *= 2.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        low = dist(mid) < targets
        lo[low] = mid[low]
        hi[~low] = mid[~low]
    return np.matmul(center.frame, cayley(0.5 * (lo + hi)))


def test_sample_flags_near_takes_at_most_sixteen_distance_evaluations(monkeypatch):
    # A 50-step bisection makes 51 or more evaluations of the distance.
    calls = []
    distances = boundary.standard_flag_distances

    def counted(frames):
        calls.append(len(frames))
        return distances(frames)

    monkeypatch.setattr(boundary, "standard_flag_distances", counted)
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        center = boundary.random_flag(rng, n)
        targets = rng.uniform(0.24, 0.3, size=2000)
        calls.clear()
        schottky.sample_flags_near(center, targets, rng)
        assert 1 <= len(calls) <= 16


def test_sample_flags_near_maps_only_the_rows_still_moving(monkeypatch):
    # Every row needs about eight evaluations; the last ones serve a few.
    rows = []
    distances = boundary.standard_flag_distances

    def counted(frames):
        rows.append(len(frames))
        return distances(frames)

    monkeypatch.setattr(boundary, "standard_flag_distances", counted)
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        center = boundary.random_flag(rng, n)
        targets = rng.uniform(0.24, 0.3, size=2000)
        rows.clear()
        schottky.sample_flags_near(center, targets, rng)
        assert rows[-1] <= 20
        assert sum(rows) <= 8 * 2000 + 40


@pytest.mark.parametrize(
    "low, high", [(0.24, 0.3), (0.48, 0.6), (0.005, 0.015), (1.0, 1.0)]
)
def test_sample_flags_near_is_as_close_as_bisection_on_every_row(low, high):
    # The bundled tables draw targets in [0.8 r, r] with r = 0.3 and 0.6.
    # Near 0.01 the miss at the bracket's low end is tiny, and at 1.0 the
    # bracket has to grow.
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        center = boundary.random_flag(rng, n)
        targets = rng.uniform(low, high, size=500)
        seed = int(rng.integers(2**32))
        worst = [
            np.abs(
                boundary.flag_distances_to_center(
                    sample(center, targets, np.random.default_rng(seed)), center
                )
                - targets
            ).max()
            for sample in (schottky.sample_flags_near, _bisected_flags_near)
        ]
        assert worst[0] < 2e-15
        assert worst[0] <= worst[1]


def test_flag_diameter_is_the_largest_flag_distance():
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        diameter = boundary.flag_diameter(n)
        standard, reversed_ = boundary.standard_flag(n), boundary.reversed_flag(n)
        assert abs(boundary.flag_distance(standard, reversed_) - diameter) < 1e-15
        frames = boundary.random_frames(rng, 500, n)
        assert boundary.standard_flag_distances(frames).max() < diameter


def test_sample_flags_near_rejects_targets_at_the_diameter_before_drawing():
    for n in range(2, 9):
        center = boundary.random_flag(np.random.default_rng(n), n)
        diameter = boundary.flag_diameter(n)
        for targets in ([0.1, diameter], [diameter + 0.5]):
            rng = np.random.default_rng(14)
            state = rng.bit_generator.state
            with pytest.raises(RankrError, match="flag diameter"):
                schottky.sample_flags_near(center, np.array(targets), rng)
            assert rng.bit_generator.state == state


def test_sample_flags_near_raises_for_paths_short_of_their_target():
    # 1.41 is below the diameter sqrt(2) at n = 2, but every path there is
    # the rotation by 2 arctan(t / sqrt(2)) and stays at distance 1.41 or
    # more only for t in about [1.31, 1.53], which the bracket's ends 1 and
    # 2 step over.
    center = boundary.random_flag(np.random.default_rng(15), 2)
    with pytest.raises(RankrError, match="still short of their target"):
        schottky.sample_flags_near(
            center, np.full(10, 1.41), np.random.default_rng(16)
        )


def test_schottky_build_exits_1_when_a_path_stays_short(tmp_path, capsys, monkeypatch):
    # Cayley paths that never leave the center stand in for a radius that
    # sampling cannot reach.
    def still(skews):
        return lambda t, rows=slice(None): np.broadcast_to(
            np.eye(skews.shape[-1]), (len(t), *skews.shape[1:])
        ).copy()

    monkeypatch.setattr(schottky, "_cayley_map", still)
    code = cli.main(["schottky", "build", "--input", spec_path("sl3_l2.json"),
                     "--out", str(tmp_path / "out"), "--resolution", "50"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "still short" in err
    assert err.count("\n") == 1


def test_check_nonelementary(sl3_group):
    _, _, table = sl3_group
    ok, reason = schottky.check_nonelementary(table)
    assert ok
    # The second generator reuses the first one's attracting point.
    shared = schottky.PingPongTable(
        points=[*table.points[:2], table.points[1], table.points[3]],
        radii=table.radii,
        base_generators=table.base_generators,
        powers=list(table.powers),
        kinds=list(table.kinds),
    )
    ok, reason = schottky.check_nonelementary(shared)
    assert not ok
    assert "generators 0 and 1" in reason
    single = schottky.PingPongTable(
        points=table.points[:2],
        radii=table.radii[:2],
        base_generators=table.base_generators[:1],
        powers=table.powers[:1],
        kinds=table.kinds[:1],
    )
    assert schottky.check_nonelementary(single) == (
        False, "need at least two generators"
    )


def test_parabolic_table_builds_and_certifies():
    # One axial and one parabolic generator with strongly transverse flags.
    rng = np.random.default_rng(20)
    best = None
    for _ in range(800):
        frames = boundary.random_frames(rng, 3, 3)
        flags = [boundary.flag_from_frame(f) for f in frames]
        margin = 1.0
        dist = np.inf
        for i in range(3):
            for j in range(i + 1, 3):
                _, m = boundary.transverse(flags[i], flags[j])
                margin = min(margin, m)
                dist = min(dist, boundary.flag_distance(flags[i], flags[j]))
        score = min(margin, dist / 4.0)
        if best is None or score > best[0]:
            best = (score, flags)
    _, flags = best
    table = schottky.build_table(flags, [np.array([1.5, 0.0, -1.5])], seed=0)
    assert table.kinds == ["axial", "parabolic"]
    report = schottky.certify_klein(table, resolution=300, seed=1)
    assert report.certified
    words = limitset.word_separation(table.effective_generators(), 4)
    assert words > 1e-6


def _with_radii(table, radii):
    return schottky.PingPongTable(
        points=table.points,
        radii=np.asarray(radii, dtype=float),
        base_generators=table.base_generators,
        powers=list(table.powers),
        kinds=list(table.kinds),
    )


def test_generator_margin_matches_per_source_loop(sl3_group, parabolic_table):
    _, _, table = sl3_group
    doubled = _with_radii(table, table.radii * 2.0)
    assert parabolic_table.kinds == ["axial", "parabolic"]
    assert parabolic_table.powers == [2, 59]
    witnesses = set()
    for tab in (table, doubled, parabolic_table):
        sources = schottky._sources(tab, 200, np.random.default_rng(1))
        for m, base in enumerate(tab.base_generators):
            for k in (1, tab.powers[m]):
                gen = np.linalg.matrix_power(base, k)
                got = schottky._generator_margin(tab, m, gen, sources)
                assert got == loop_generator_margin(tab, m, gen, sources)
                if got[1] is not None:
                    witnesses.add(got[1]["source_neighborhood"])
    # Containment witnesses from neighbourhood sources and the complement.
    assert -1 in witnesses and len(witnesses) > 1


def test_sources_lay_out_one_owner_tagged_stack(sl3_group, parabolic_table):
    _, _, table = sl3_group
    res = 40
    for tab in (table, parabolic_table):
        frames, owner = schottky._sources(tab, res, np.random.default_rng(3))
        parabolic = [m for m, kind in enumerate(tab.kinds) if kind == "parabolic"]
        # Each neighbourhood's rows in order, then each parabolic complement.
        expected = np.concatenate([
            np.repeat(np.arange(len(tab.points)), res + 1),
            np.repeat([-1 - m for m in parabolic], res),
        ])
        assert np.array_equal(owner, expected)
        assert frames.shape == (len(owner), tab.n, tab.n)
        for k, (point, radius) in enumerate(zip(tab.points, tab.radii)):
            own = frames[owner == k]
            assert np.array_equal(own[-1], boundary.flag_frame(point.flag))
            dist = boundary.flag_distances_to_center(own[:-1], point.flag)
            assert np.all((dist >= 0.8 * radius - 1e-9) & (dist <= radius + 1e-9))
        for m in parabolic:
            q = tab.neighborhood_indices(m)[0][0]
            dist = boundary.flag_distances_to_center(
                frames[owner == -1 - m], tab.points[q].flag
            )
            assert np.all(dist > tab.radii[q])


def test_certify_reports_overlapping_neighbourhoods(sl3_group):
    _, _, table = sl3_group
    wide = _with_radii(table, table.radii * 10.0)
    report = schottky.certify_klein(wide, resolution=10, seed=1)
    dist = boundary.flag_distance(table.points[0].flag, table.points[1].flag)
    assert report.status == "failed"
    assert report.reason == "neighbourhoods overlap"
    assert report.witness == {"type": "overlap", "i": 0, "j": 1, "distance": dist}
    assert report.min_margin == float(dist - wide.radii[0] - wide.radii[1])
    assert report.per_generator_margins == []


def test_certify_reports_non_transverse_fixed_flags(sl3_group):
    # (e1, e2, e3) and (e2, e1, e3) share their 2-plane: a flag distance
    # of sqrt 2, far beyond the radii, yet not transverse.
    _, _, table = sl3_group
    e = np.eye(3)
    f = boundary.flag_from_frame(e)
    g = boundary.flag_from_frame(e[:, [1, 0, 2]])
    assert boundary.flag_distance(f, g) == pytest.approx(np.sqrt(2.0))
    points = [
        boundary.BoundaryPoint(f, table.points[0].direction),
        boundary.BoundaryPoint(g, table.points[1].direction),
        *table.points[2:],
    ]
    bad = schottky.PingPongTable(
        points=points,
        radii=np.full(len(points), 0.05),
        base_generators=table.base_generators,
        powers=list(table.powers),
        kinds=list(table.kinds),
    )
    report = schottky.certify_klein(bad, resolution=10, seed=1)
    ok, margin = boundary.transverse(f, g)
    assert not ok
    assert report.status == "failed"
    assert report.reason == "fixed flags not transverse"
    assert report.witness == {"type": "not-transverse", "i": 0, "j": 1}
    assert report.min_margin == margin
    assert report.per_generator_margins == []
