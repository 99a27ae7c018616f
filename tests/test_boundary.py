import math

import numpy as np
import pytest

from rankr import boundary, decompositions, kernel
from rankr.errors import DimensionMismatch, NotOrthogonal, SingularMatrix, ZeroVector
from conftest import (
    loop_canonical_frame,
    loop_transverse_margin,
    projector_flag_distance,
    random_chamber_dir,
    random_sl,
    random_so,
    spec_frames,
)


def _random_point(rng, n, scale=0.15):
    s = rng.standard_normal((n, n)) * scale
    s = (s + s.T) / 2
    s -= np.trace(s) / n * np.eye(n)
    return kernel.sym_exp_log("exp", s)


def _random_boundary_point(rng, n, min_gap=0.25):
    return boundary.BoundaryPoint(
        boundary.random_flag(rng, n), random_chamber_dir(rng, n, min_gap)
    )


def test_flag_from_frame_standard_and_errors():
    f = boundary.standard_flag(3)
    assert np.allclose(
        boundary.frames_to_projector_stack(f.frame[None])[0][0],
        np.diag([1.0, 0.0, 0.0]),
    )
    assert np.allclose(
        boundary.frames_to_projector_stack(f.frame[None])[0][1],
        np.diag([1.0, 1.0, 0.0]),
    )
    with pytest.raises(NotOrthogonal):
        boundary.flag_from_frame(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_flag_is_canonical_by_construction():
    rng = np.random.default_rng(28)
    for n in range(2, 9):
        for _ in range(30):
            k = random_so(rng, n)
            m = rng.choice([-1.0, 1.0], n)
            expect = boundary.canonical_frames(k[None])[0]
            assert np.array_equal(boundary.Flag(k).frame, expect)
            assert np.array_equal(boundary.Flag(k * m).frame, expect)
    assert repr(boundary.standard_flag(3)) == "Flag(n=3)"


def test_canonical_frames_match_loop_oracle():
    rng = np.random.default_rng(18)
    for n in range(2, 9):
        frames = np.array([random_so(rng, n) for _ in range(60)])
        frames[::2] *= rng.choice([-1.0, 1.0], (30, 1, n))
        out = boundary.canonical_frames(frames)
        for frame, canon in zip(frames, out):
            assert np.array_equal(canon, loop_canonical_frame(frame))
        with pytest.raises(ValueError):  # the stack is read-only
            out[0, 0, 0] = 0.0
    for frame in spec_frames():
        expect = loop_canonical_frame(frame)
        assert np.array_equal(boundary.canonical_frames(frame[None])[0], expect)
        assert np.array_equal(boundary.flag_from_frame(frame).frame, expect)
    frames = np.array([random_so(rng, 3) for _ in range(4)])
    frames[2, 0, 0] += 1e-6
    with pytest.raises(NotOrthogonal):
        boundary.canonical_frames(frames)


def test_flag_invariants_on_random_frames():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        f = boundary.flag_from_frame(random_so(rng, n))
        for i, p in enumerate(boundary.frames_to_projector_stack(f.frame[None])[0]):
            assert np.linalg.norm(p @ p - p) < 1e-10
            assert np.linalg.norm(p - p.T) < 1e-12
            assert abs(np.trace(p) - (i + 1)) < 1e-9
        for p, q in zip(
            boundary.frames_to_projector_stack(f.frame[None])[0],
            boundary.frames_to_projector_stack(f.frame[None])[0][1:],
        ):
            assert np.linalg.norm(p @ q - p) < 1e-10


def test_flag_is_m_invariant_and_sign_blind():
    rng = np.random.default_rng(1)
    k = random_so(rng, 4)
    m = np.diag([-1.0, -1.0, 1.0, 1.0])
    assert boundary.flags_equal(
        boundary.flag_from_frame(k), boundary.flag_from_frame(k @ m)
    )
    # The canonical frame itself is exact under M, not just close.
    assert np.array_equal(
        boundary.flag_frame(boundary.flag_from_frame(k @ m)),
        boundary.flag_frame(boundary.flag_from_frame(k)),
    )
    # A single sign flip leaves projectors (and so the flag) unchanged too.
    k2 = random_so(rng, 2)
    flipped = k2 @ np.diag([-1.0, 1.0])
    f1 = boundary.flag_from_frame(k2)
    f2 = boundary.flag_from_frame(flipped)
    assert boundary.flags_equal(f1, f2)


def test_flag_frame_regenerates_flag():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        f = boundary.random_flag(rng, n)
        k = boundary.flag_frame(f)
        assert abs(np.linalg.det(k) - 1.0) < 1e-9
        with pytest.raises(ValueError):  # the flag's own frame is read-only
            k[0, 0] = 0.0
        assert boundary.flags_equal(f, boundary.flag_from_frame(k))


def test_flag_distance_metric():
    f = boundary.standard_flag(2)
    r = boundary.reversed_flag(2)
    assert boundary.flag_distance(f, f) == 0.0
    assert abs(boundary.flag_distance(f, r) - math.sqrt(2.0)) < 1e-12
    with pytest.raises(DimensionMismatch):
        boundary.flag_distance(f, boundary.standard_flag(3))
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a, b, c = (boundary.random_flag(rng, n) for _ in range(3))
        dab = boundary.flag_distance(a, b)
        assert dab >= 0
        assert abs(dab - boundary.flag_distance(b, a)) < 1e-14
        assert dab <= boundary.flag_distance(a, c) + boundary.flag_distance(
            c, b
        ) + 1e-12


def test_flag_distance_matches_projector_oracle():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        center = boundary.random_flag(rng, n)
        frames = boundary.random_frames(rng, 40, n)
        dists = boundary.flag_distances_to_center(frames, center)
        for frame, dist in zip(frames, dists):
            ref = projector_flag_distance(center.frame, frame)
            assert abs(dist - ref) < 1e-14
            flag = boundary.flag_from_frame(frame)
            assert abs(boundary.flag_distance(center, flag) - ref) < 1e-14
        # The standard flag's relative frame is the frame itself.
        assert np.array_equal(
            boundary.standard_flag_distances(frames),
            boundary.flag_distances_to_center(frames, boundary.standard_flag(n)),
        )


def test_act_basics():
    rng = np.random.default_rng(4)
    xi = _random_boundary_point(rng, 3)
    moved = boundary.act(np.eye(3), xi)
    assert boundary.flags_equal(moved.flag, xi.flag)
    assert np.allclose(moved.direction, xi.direction)

    k = random_so(rng, 3)
    std = boundary.BoundaryPoint(
        boundary.standard_flag(3), random_chamber_dir(rng, 3)
    )
    assert boundary.flags_equal(
        boundary.act(k, std).flag, boundary.flag_from_frame(k)
    )
    # A and N+ stabilize the standard regular point.
    an = np.diag([2.0, 1.0, 0.5]) @ (np.eye(3) + np.triu(rng.standard_normal((3, 3)), 1))
    assert boundary.flags_equal(boundary.act(an, std).flag, std.flag)


def test_act_is_a_left_action_preserving_direction():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        g1, g2 = random_sl(rng, n), random_sl(rng, n)
        xi = _random_boundary_point(rng, n)
        lhs = boundary.act(g1 @ g2, xi)
        rhs = boundary.act(g1, boundary.act(g2, xi))
        assert boundary.flag_distance(lhs.flag, rhs.flag) < 1e-8
        assert np.array_equal(lhs.direction, xi.direction)


def test_transverse():
    s3 = boundary.standard_flag(3)
    r3 = boundary.reversed_flag(3)
    ok, margin = boundary.transverse(s3, r3)
    assert ok and abs(margin - 1.0) < 1e-12
    ok, margin = boundary.transverse(s3, s3)
    assert not ok
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        ok, margin = boundary.transverse(
            boundary.random_flag(rng, n), boundary.random_flag(rng, n)
        )
        assert ok and 0.0 < margin <= 1.0 + 1e-12


def test_transverse_rejects_flags_of_different_n():
    with pytest.raises(DimensionMismatch):
        boundary.transverse(boundary.standard_flag(2), boundary.standard_flag(3))


def test_transverse_margin_matches_loop_oracle():
    rng = np.random.default_rng(19)
    for n in range(2, 9):
        for _ in range(20):
            f1, f2 = boundary.random_flag(rng, n), boundary.random_flag(rng, n)
            _, margin = boundary.transverse(f1, f2)
            assert margin == loop_transverse_margin(f1.frame, f2.frame)


def test_transverse_margin_k_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        f1, f2 = boundary.random_flag(rng, n), boundary.random_flag(rng, n)
        k = random_so(rng, n)
        _, m0 = boundary.transverse(f1, f2)
        _, m1 = boundary.transverse(
            boundary.act_flag(k, f1), boundary.act_flag(k, f2)
        )
        assert abs(m0 - m1) < 1e-9


def test_busemann_on_defining_ray():
    rng = np.random.default_rng(8)
    h = random_chamber_dir(rng, 3)
    xi = boundary.BoundaryPoint(boundary.standard_flag(3), h)
    for t in (0.3, 1.0, 2.5):
        val = boundary.busemann(xi, np.eye(3), np.diag(np.exp(h * t)))
        assert abs(val - t) < 1e-10
    g = _random_point(rng, 3)
    assert abs(boundary.busemann(xi, g, g)) < 1e-12


def test_busemann_cocycle_and_distance_bound():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        xi = _random_boundary_point(rng, n)
        gx, gy, gz = (_random_point(rng, n) for _ in range(3))
        bxy = boundary.busemann(xi, gx, gy)
        byz = boundary.busemann(xi, gy, gz)
        bxz = boundary.busemann(xi, gx, gz)
        assert abs(bxy + byz - bxz) < 1e-10
        from rankr import decompositions

        assert abs(bxy) <= decompositions.point_distance(gx, gy) + 1e-9


def _two_iwasawa_busemann(xi, gx, gy):
    k = xi.flag.frame
    ax = decompositions.iwasawa(np.linalg.solve(gx, k)).a
    ay = decompositions.iwasawa(np.linalg.solve(gy, k)).a
    return float(xi.direction @ (ax - ay))


def test_busemann_matches_two_iwasawa_form():
    rng = np.random.default_rng(20)
    for n in range(2, 9):
        for _ in range(30):
            xi = _random_boundary_point(rng, n, min_gap=0.05)
            gx, gy = random_sl(rng, n), _random_point(rng, n, scale=0.5)
            assert boundary.busemann(xi, gx, gy) == _two_iwasawa_busemann(xi, gx, gy)
    # A QR pivot below EPS_DET raises, in either point.
    xi = boundary.BoundaryPoint(boundary.standard_flag(3), random_chamber_dir(rng, 3))
    far = np.diag(np.exp([-25.0, 0.0, 25.0]))
    for gx, gy in ((np.eye(3), far), (far, np.eye(3))):
        with pytest.raises(SingularMatrix):
            _two_iwasawa_busemann(xi, gx, gy)
        with pytest.raises(SingularMatrix):
            boundary.busemann(xi, gx, gy)


def test_busemann_far_along_a_ray_raises_singular_matrix():
    # Far out, the solve against gy = k e^{tH} k^T meets an exactly zero LU
    # pivot for some frames; that is a clean SingularMatrix too.
    h = np.array([1.0, 0.2, -1.2])
    h = h / np.linalg.norm(h)
    raised = 0
    for k in boundary.random_frames(np.random.default_rng(0), 50, 3):
        xi = boundary.BoundaryPoint(boundary.flag_from_frame(k), h)
        gy = k @ np.diag(np.exp(35.0 * h)) @ k.T
        try:
            value = boundary.busemann(xi, np.eye(3), gy)
        except SingularMatrix:
            raised += 1
        else:
            assert np.isfinite(value)
    assert raised > 0


def test_busemann_horospherical_invariance():
    # N+ fixes the standard regular point and preserves its horospheres.
    rng = np.random.default_rng(10)
    h = random_chamber_dir(rng, 3)
    xi = boundary.BoundaryPoint(boundary.standard_flag(3), h)
    for _ in range(20):
        nplus = np.eye(3) + np.triu(rng.standard_normal((3, 3)), 1)
        assert abs(boundary.busemann(xi, np.eye(3), nplus)) < 1e-6


def test_busemann_matches_finite_ray_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        xi = _random_boundary_point(rng, n)
        gx, gy = _random_point(rng, n), _random_point(rng, n)
        closed = boundary.busemann(xi, gx, gy)
        oracle = boundary.busemann_oracle(xi, gx, gy)
        assert abs(closed - oracle) < 1e-6


def test_directional_distance_properties():
    rng = np.random.default_rng(12)
    g = _random_point(rng, 3)
    xi = _random_boundary_point(rng, 3)
    assert boundary.directional_distance(xi, g, g) == 0.0

    # Aligned direction saturates the distance bound.
    h = random_chamber_dir(rng, 3)
    xi = boundary.BoundaryPoint(boundary.standard_flag(3), h)
    t = 1.3
    val = boundary.directional_distance(xi, np.eye(3), np.diag(np.exp(h * t)))
    assert abs(val - t) < 1e-10

    from rankr import decompositions

    for _ in range(100):
        n = int(rng.integers(2, 5))
        xi = _random_boundary_point(rng, n)
        gx, gy = _random_point(rng, n), _random_point(rng, n)
        val = boundary.directional_distance(xi, gx, gy)
        assert -1e-12 <= val <= decompositions.point_distance(gx, gy) + 1e-9


def test_directional_distance_dominates_busemann_over_orbit():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        xi = _random_boundary_point(rng, n)
        gx, gy = _random_point(rng, n), _random_point(rng, n)
        val = boundary.directional_distance(xi, gx, gy)
        for _ in range(20):
            moved = boundary.act(random_sl(rng, n), xi)
            assert val >= boundary.busemann(moved, gx, gy) - 1e-6


def test_boundary_converges():
    rng = np.random.default_rng(14)
    xi = _random_boundary_point(rng, 3)
    assert boundary.boundary_converges([xi] * 5, xi, 1e-6)
    drift = boundary.BoundaryPoint(xi.flag, random_chamber_dir(rng, 3))
    if np.linalg.norm(drift.direction - xi.direction) > 1e-3:
        assert not boundary.boundary_converges([xi, drift], xi, 1e-6)
    assert not boundary.boundary_converges([], xi, 1e-6)


def test_boundary_point_constructor():
    rng = np.random.default_rng(15)
    f = boundary.random_flag(rng, 3)
    xi = boundary.boundary_point(f, [2.0, 0.0, -2.0])
    assert abs(np.linalg.norm(xi.direction) - 1.0) < 1e-12
    assert xi.is_regular()
    with pytest.raises(ValueError):
        boundary.boundary_point(f, [-1.0, 0.0, 1.0])
    # A zero direction has no unit vector; a NaN one used to pass through.
    with pytest.raises(ZeroVector):
        boundary.boundary_point(f, [0.0, 0.0, 0.0])
    for bad in ([float("nan"), 0.0, 0.0], [np.inf, 0.0, -np.inf], [1e200, 0.0, -1e200]):
        with pytest.raises(ValueError):
            boundary.boundary_point(f, bad)
    with pytest.raises(DimensionMismatch):
        boundary.boundary_point(f, [1.0, -1.0])


def test_batched_helpers_match_scalar_paths():
    rng = np.random.default_rng(16)
    n = 4
    frames = boundary.random_frames(rng, 20, n)
    center = boundary.random_flag(rng, n)
    dists = boundary.flag_distances_to_center(frames, center)
    g = random_sl(rng, n)
    acted = boundary.act_frames(g, frames)
    for i in range(len(frames)):
        f = boundary.flag_from_frame(frames[i])
        assert abs(dists[i] - boundary.flag_distance(f, center)) < 1e-10
        assert (
            boundary.flag_distance(
                boundary.flag_from_frame(acted[i]), boundary.act_flag(g, f)
            )
            < 1e-9
        )
