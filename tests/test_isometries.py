import math

import numpy as np
import pytest

from rankr import boundary, isometries, kernel, schottky
from rankr.errors import (
    IdentityInput,
    IllConditionedSpectrum,
    NotFixed,
    NotParabolic,
    NotRegularAxial,
    NotTranslating,
)
from conftest import (
    conjugated_unipotent,
    random_sl,
    random_so,
    unipotent_draws,
)


def _commutator_norm(a, b):
    return np.linalg.norm(a @ b - b @ a)


def test_jordan_diagonal_positive():
    gamma = np.diag([2.0, 0.5])
    parts = isometries.jordan_decompose(gamma)
    assert np.allclose(parts.e, np.eye(2), atol=1e-10)
    assert np.allclose(parts.h, gamma, atol=1e-10)
    assert np.allclose(parts.u, np.eye(2), atol=1e-10)


def test_jordan_unipotent():
    gamma = np.array([[1.0, 1.0], [0.0, 1.0]])
    parts = isometries.jordan_decompose(gamma)
    assert np.allclose(parts.e, np.eye(2), atol=1e-6)
    assert np.allclose(parts.h, np.eye(2), atol=1e-6)
    assert np.allclose(parts.u, gamma, atol=1e-6)


def test_jordan_rotation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    parts = isometries.jordan_decompose(rot)
    assert np.allclose(parts.e, rot, atol=1e-10)
    assert np.allclose(parts.h, np.eye(2), atol=1e-10)
    assert np.allclose(parts.u, np.eye(2), atol=1e-10)


def test_jordan_negative_moduli():
    gamma = np.diag([-2.0, -0.5])
    parts = isometries.jordan_decompose(gamma)
    assert np.allclose(parts.e, -np.eye(2), atol=1e-10)
    assert np.allclose(parts.h, np.diag([2.0, 0.5]), atol=1e-10)


def test_jordan_upper_triangular_example():
    gamma = np.array([[2.0, 1.0], [0.0, 0.5]])
    parts = isometries.jordan_decompose(gamma)
    assert np.allclose(parts.e, np.eye(2), atol=1e-10)
    assert np.allclose(parts.u, np.eye(2), atol=1e-10)
    assert np.allclose(parts.reconstruct(), gamma, atol=1e-10)
    assert np.allclose(sorted(np.linalg.eigvals(parts.h)), [0.5, 2.0], atol=1e-10)


def test_jordan_random_products_commute_and_reconstruct():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        g = random_sl(rng, n)
        parts = isometries.jordan_decompose(g)
        scale = max(1.0, np.linalg.norm(g))
        assert np.linalg.norm(parts.reconstruct() - g) <= 1e-8 * scale
        assert _commutator_norm(parts.e, parts.h) <= 1e-8 * scale
        assert _commutator_norm(parts.e, parts.u) <= 1e-8 * scale
        assert _commutator_norm(parts.h, parts.u) <= 1e-8 * scale
        assert np.allclose(np.abs(np.linalg.eigvals(parts.e)), 1.0, atol=1e-7)
        assert np.all(np.linalg.eigvalsh((parts.h + parts.h.T) / 2) > 0) or True
        assert np.allclose(np.linalg.eigvals(parts.u), 1.0, atol=1e-5)


def test_jordan_defective_generic_parabolic():
    # A conjugated full Jordan block; raw eigenvalues scatter at eps^(1/3),
    # the clustering ladder must still recover a clean unipotent factor.
    rng = np.random.default_rng(1)
    k = random_so(rng, 3)
    gamma = k @ schottky.regular_unipotent(3) @ k.T
    parts = isometries.jordan_decompose(gamma)
    assert np.linalg.norm(parts.h - np.eye(3)) < 1e-4
    assert np.linalg.norm(parts.reconstruct() - gamma) < 1e-8


def test_translation_vector_examples():
    ell = isometries.translation_vector(np.diag([3.0, 1.0, 1.0 / 3.0]))
    assert np.allclose(ell, [math.log(3.0), 0.0, -math.log(3.0)], atol=1e-10)
    assert np.allclose(
        isometries.translation_vector(np.array([[1.0, 1.0], [0.0, 1.0]])),
        0.0,
        atol=1e-8,
    )
    ell = isometries.translation_vector(np.array([[2.0, 1.0], [0.0, 0.5]]))
    assert np.allclose(ell, [math.log(2.0), -math.log(2.0)], atol=1e-10)


def test_translation_vector_power_law_and_conjugation():
    rng = np.random.default_rng(2)
    gamma = np.diag([4.0, 1.0, 0.25])
    ell = isometries.translation_vector(gamma)
    acc = np.eye(3)
    for k in range(1, 6):
        acc = acc @ gamma
        assert np.allclose(isometries.translation_vector(acc), k * ell, atol=1e-8)
    for _ in range(100):
        g = random_sl(rng, 3)
        conj = isometries.translation_vector(g @ gamma @ np.linalg.inv(g))
        assert np.allclose(conj, ell, atol=1e-7)


def test_classify_tags():
    with pytest.raises(IdentityInput):
        isometries.classify(np.eye(3))
    assert isometries.classify(np.array([[0.0, -1.0], [1.0, 0.0]])).tag == "elliptic"
    assert (
        isometries.classify(np.array([[1.0, 1.0], [0.0, 1.0]])).tag
        == "strictly-parabolic"
    )
    assert isometries.classify(np.diag([4.0, 1.0, 0.25])).tag == "regular-axial"
    assert isometries.classify(np.diag([2.0, 2.0, 0.25])).tag == "nonregular-axial"
    mixed = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]])
    assert isometries.classify(mixed).tag == "mixed-parabolic"


def test_fixed_points_diagonal():
    plus, minus = isometries.fixed_points(np.diag([4.0, 1.0, 0.25]))
    assert boundary.flags_equal(plus.flag, boundary.standard_flag(3))
    assert boundary.flags_equal(minus.flag, boundary.reversed_flag(3))
    ell = np.array([math.log(4.0), 0.0, -math.log(4.0)])
    assert np.allclose(plus.direction, ell / np.linalg.norm(ell))
    assert np.allclose(minus.direction, plus.direction)  # symmetric ell
    with pytest.raises(NotTranslating):
        isometries.fixed_points(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_fixed_points_of_inverse_swap():
    rng = np.random.default_rng(3)
    g = random_sl(rng, 3)
    gamma = g @ np.diag([4.0, 1.0, 0.25]) @ np.linalg.inv(g)
    plus, minus = isometries.fixed_points(gamma)
    iplus, iminus = isometries.fixed_points(np.linalg.inv(gamma))
    assert boundary.flag_distance(iplus.flag, minus.flag) < 1e-8
    assert boundary.flag_distance(iminus.flag, plus.flag) < 1e-8


def test_fixed_points_conjugation_covariance():
    rng = np.random.default_rng(4)
    base = np.diag([4.0, 1.0, 0.25])
    p0, m0 = isometries.fixed_points(base)
    for _ in range(50):
        g = random_sl(rng, 3)
        plus, minus = isometries.fixed_points(g @ base @ np.linalg.inv(g))
        assert (
            boundary.flag_distance(plus.flag, boundary.act(g, p0).flag) < 1e-7
        )
        assert (
            boundary.flag_distance(minus.flag, boundary.act(g, m0).flag) < 1e-7
        )


def test_fixed_points_are_fixed_and_attracting():
    rng = np.random.default_rng(5)
    g = random_sl(rng, 3)
    gamma = g @ np.diag([4.0, 1.0, 0.25]) @ np.linalg.inv(g)
    plus, minus = isometries.fixed_points(gamma)
    assert boundary.flag_distance(boundary.act(gamma, plus).flag, plus.flag) < 1e-8
    assert boundary.flag_distance(boundary.act(gamma, minus).flag, minus.flag) < 1e-8
    flag = boundary.random_flag(rng, 3)
    for _ in range(60):
        flag = boundary.act_flag(gamma, flag)
    assert boundary.flag_distance(flag, plus.flag) < 1e-6


def test_fixed_points_of_mixed_parabolic_use_accepted_blocks():
    # A 3x3 Jordan block scatters its computed eigenvalues by ~eps^(1/3),
    # so only the clustering jordan_decompose accepts keeps its
    # generalized eigenspace whole.
    base = np.zeros((4, 4))
    base[:3, :3] = math.exp(0.5) * (np.eye(3) + np.diag([1.0, 1.0], 1))
    base[3, 3] = math.exp(-1.5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_sl(rng, 4)
        gamma = c @ base @ np.linalg.inv(c)
        assert isometries.classify(gamma).tag == "mixed-parabolic"
        plus, _ = isometries.fixed_points(gamma)
        v = plus.flag.frame[:, :3]
        leak = np.linalg.norm(gamma @ v - v @ (v.T @ gamma @ v))
        assert leak <= 1e-8 * np.linalg.norm(gamma)


def test_fixed_points_of_mixed_parabolic_are_fixed():
    # A defective block's columns follow its kernel chain, in the attracting
    # frame and, block order reversed, in the repelling one.
    base = np.zeros((4, 4))
    base[:3, :3] = math.exp(0.5) * (np.eye(3) + np.diag([1.0, 1.0], 1))
    base[3, 3] = math.exp(-1.5)
    rng = np.random.default_rng(12)
    cases = [np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]])]
    for _ in range(20):
        c = random_sl(rng, 4)
        cases.append(c @ base @ np.linalg.inv(c))
    for gamma in cases:
        assert isometries.classify(gamma).tag == "mixed-parabolic"
        for point in isometries.fixed_points(gamma):
            moved = boundary.act(gamma, point).flag
            assert boundary.flag_distance(moved, point.flag) < 1e-11


def test_fixed_points_of_a_rotating_pair_fix_the_pieces_at_pair_boundaries():
    # g rotates the plane of its complex pair, so the pieces of each flag
    # that cut the plane move; those that end at the pair's boundary
    # (piece 2 of plus, the plane; piece 1 of minus) are g-invariant.
    k = boundary.random_frames(np.random.default_rng(3), 1, 3)[0]
    rot = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    base = np.zeros((3, 3))
    base[:2, :2] = math.e * rot
    base[2, 2] = math.exp(-2.0)
    gamma = k @ base @ k.T
    plus, minus = isometries.fixed_points(gamma)
    for point, i in ((plus, 2), (minus, 1)):
        v = point.flag.frame[:, :i]
        assert np.linalg.norm(gamma @ v - v @ (v.T @ gamma @ v)) <= 1e-9


def test_contraction_factor_values():
    gamma = np.diag(np.exp([2.0, 0.0, -2.0]))
    a_plus, a_minus = isometries.contraction_factor(gamma)
    assert abs(a_plus - 2.0) < 1e-9
    assert abs(a_minus - 2.0) < 1e-9
    t = 0.8
    a_plus, _ = isometries.contraction_factor(np.diag([math.exp(t), math.exp(-t)]))
    assert abs(a_plus - 2 * t) < 1e-9
    with pytest.raises(NotRegularAxial):
        isometries.contraction_factor(np.diag([2.0, 2.0, 0.25]))


def test_ad_contraction_equality_and_bound():
    rng = np.random.default_rng(6)
    for _ in range(50):
        ell = np.sort(rng.uniform(-2.0, 2.0, 3))[::-1]
        ell -= ell.mean()
        if np.min(ell[:-1] - ell[1:]) < 0.1:
            continue
        h_inv = np.diag(np.exp(-ell))
        h = np.diag(np.exp(ell))
        a_plus = float(np.min(ell[:-1] - ell[1:]))
        gaps = [ell[i] - ell[j] for i in range(2) for j in range(i + 1, 3)]
        # Exact operator norm on each root space E_ij.
        for (i, j), gap in zip([(0, 1), (0, 2), (1, 2)], gaps):
            e = np.zeros((3, 3))
            e[i, j] = 1.0
            assert abs(np.linalg.norm(h_inv @ e @ h) - math.exp(-gap)) < 1e-10
        for _ in range(20):
            z = np.triu(rng.standard_normal((3, 3)), 1)
            lhs = np.linalg.norm(h_inv @ z @ h)
            assert lhs <= math.exp(-a_plus) * np.linalg.norm(z) + 1e-10


def test_flag_convergence_rate_for_regular_axial():
    rng = np.random.default_rng(7)
    g = random_sl(rng, 3)
    ell = np.array([1.0, 0.0, -1.0])
    gamma = (g * np.exp(ell)) @ np.linalg.inv(g)
    plus, minus = isometries.fixed_points(gamma)
    inv = np.linalg.inv(gamma)
    for _ in range(20):
        flag = boundary.random_flag(rng, 3)
        ok, _ = boundary.transverse(flag, minus.flag)
        if not ok:
            continue
        fwd, bwd = flag, flag
        for _ in range(50):
            fwd = boundary.act_flag(gamma, fwd)
            bwd = boundary.act_flag(inv, bwd)
        assert boundary.flag_distance(fwd, plus.flag) < 1e-6
        assert boundary.flag_distance(bwd, minus.flag) < 1e-6


def test_is_generic_parabolic():
    assert isometries.is_generic_parabolic(schottky.regular_unipotent(3))
    e13 = np.eye(3)
    e13[0, 2] = 1.0
    assert not isometries.is_generic_parabolic(e13)
    assert isometries.is_generic_parabolic(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotParabolic):
        isometries.is_generic_parabolic(np.diag([2.0, 0.5]))


def test_unipotent_fixed_flag():
    u = schottky.regular_unipotent(3)
    flag = isometries.unipotent_fixed_flag(u)
    assert boundary.flags_equal(flag, boundary.standard_flag(3))
    rng = np.random.default_rng(8)
    k = random_so(rng, 4)
    gamma = k @ schottky.regular_unipotent(4) @ k.T
    flag = isometries.unipotent_fixed_flag(gamma)
    assert boundary.flag_distance(boundary.act_flag(gamma, flag), flag) < 1e-8


def test_generic_parabolic_two_sided_convergence():
    rng = np.random.default_rng(9)
    k = random_so(rng, 3)
    gamma = k @ schottky.regular_unipotent(3) @ k.T
    eta = isometries.unipotent_fixed_flag(gamma)
    inv = np.linalg.inv(gamma)
    for _ in range(5):
        flag = boundary.random_flag(rng, 3)
        fwd, bwd = flag, flag
        for _ in range(400):
            fwd = boundary.act_flag(gamma, fwd)
            bwd = boundary.act_flag(inv, bwd)
        # Polynomial rate: modest tolerance at a few hundred steps.
        assert boundary.flag_distance(fwd, eta) < 1e-1
        assert boundary.flag_distance(bwd, eta) < 1e-1


def test_parabolic_escape_for_regular_unipotent():
    rng = np.random.default_rng(10)
    gamma = schottky.regular_unipotent(3)
    eta = boundary.boundary_point(
        boundary.standard_flag(3), np.array([2.0, 0.0, -2.0]) / math.sqrt(8.0)
    )
    samples = []
    while len(samples) < 10:
        f = boundary.random_flag(rng, 3)
        ok, margin = boundary.transverse(f, eta.flag)
        if ok and margin > 0.05:
            samples.append(f)
    report = isometries.parabolic_escape_test(
        gamma, eta.flag, samples, jmax=30, delta=1e-2
    )
    assert report["all_escaped"]
    assert all(
        r["escape_index"] is not None and r["escape_index"] <= 30
        for r in report["samples"]
    )


def test_parabolic_escape_detects_fixed_flag():
    # I+E13 is non-generic: it fixes flags other than its eta.
    gamma = np.eye(3)
    gamma[0, 2] = 1.0
    frame = np.eye(3)[:, [0, 2, 1]]
    frame[:, -1] *= -1.0  # det +1
    eta = boundary.boundary_point(
        boundary.flag_from_frame(frame), np.array([2.0, 0.0, -2.0]) / math.sqrt(8.0)
    )
    fixed_frame = np.eye(3)[:, [1, 0, 2]]
    fixed_frame[:, -1] *= -1.0
    report = isometries.parabolic_escape_test(
        gamma, eta.flag, [boundary.flag_from_frame(fixed_frame)], jmax=20
    )
    assert report["fixed_flag_found"]
    assert not report["all_escaped"]


def test_parabolic_escape_inconclusive_when_jmax_small():
    rng = np.random.default_rng(11)
    gamma = schottky.regular_unipotent(3)
    eta = boundary.boundary_point(
        boundary.standard_flag(3), np.array([2.0, 0.0, -2.0]) / math.sqrt(8.0)
    )
    while True:
        f = boundary.random_flag(rng, 3)
        ok, margin = boundary.transverse(f, eta.flag)
        if ok and margin > 0.3:
            break
    report = isometries.parabolic_escape_test(gamma, eta.flag, [f], jmax=1)
    assert report["samples"][0]["outcome"] in ("inconclusive", "escaped")


def test_parabolic_escape_rejects_axial_elements_and_unfixed_points():
    gamma = schottky.regular_unipotent(3)
    chamber = np.array([2.0, 0.0, -2.0]) / math.sqrt(8.0)
    fixed = boundary.boundary_point(boundary.standard_flag(3), chamber)
    with pytest.raises(NotParabolic):
        isometries.parabolic_escape_test(
            np.diag([4.0, 1.0, 0.25]), fixed.flag, [], jmax=5
        )
    # The unipotent fixes only the standard flag, not the reversed one.
    moved = boundary.boundary_point(boundary.reversed_flag(3), chamber)
    with pytest.raises(NotFixed):
        isometries.parabolic_escape_test(gamma, moved.flag, [], jmax=5)


def test_sl8_unipotent_draw_raises_ill_conditioned_spectrum():
    # The 30th SL(8) draw scatters its eigenvalues so far that no clustering
    # level gives a well-conditioned eigenbasis; every per-matrix call says so.
    g = unipotent_draws()[(8, 29)]
    calls = (
        isometries.classify,
        isometries.jordan_decompose,
        isometries.fixed_points,
        isometries.translation_vector,
    )
    for call in calls:
        with pytest.raises(IllConditionedSpectrum):
            call(g)


def test_jordan_rejects_a_merge_of_distinct_moduli(monkeypatch):
    # An eigen-solver that merges the moduli 4 and 1 into 2 at every rung:
    # the basis is perfectly conditioned, so only the drift of the
    # unipotent factor's eigenvalues from 1 can reject it.
    merged = (np.eye(3), [1, 1, 1], np.array([2.0, 2.0, 0.25]))
    monkeypatch.setattr(kernel, "eig_real", lambda g, tol: merged)
    with pytest.raises(IllConditionedSpectrum) as info:
        isometries.jordan_decompose(np.diag([4.0, 1.0, 0.25]))
    assert str(info.value).startswith("unipotent factor drift")


def test_translation_vector_raises_where_jordan_decompose_raises():
    raised = 0
    for n in (7, 8):
        for seed in range(300):
            g = conjugated_unipotent(np.random.default_rng([n, seed]), n)
            try:
                parts = isometries.jordan_decompose(g)
            except IllConditionedSpectrum:
                raised += 1
                with pytest.raises(IllConditionedSpectrum):
                    isometries.translation_vector(g)
                continue
            assert np.array_equal(isometries.translation_vector(g), parts.translation)
    assert raised > 0
