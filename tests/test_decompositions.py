import math
import warnings

import numpy as np
import pytest

from rankr import boundary, decompositions, lie
from rankr.errors import IllConditionedCell, SingularMatrix
from conftest import random_sl, random_so


def test_cartan_decompose_identity():
    dec = decompositions.cartan_decompose(np.eye(3))
    assert np.allclose(dec.h, 0.0, atol=1e-12)
    assert np.linalg.norm(dec.reconstruct() - np.eye(3)) < 1e-12


def test_cartan_decompose_diagonal():
    dec = decompositions.cartan_decompose(np.diag([2.0, 1.0, 0.5]))
    assert np.allclose(dec.h, [math.log(2.0), 0.0, -math.log(2.0)], atol=1e-12)


def test_cartan_decompose_shear_golden_ratio():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    dec = decompositions.cartan_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(dec.h, [math.log(phi), -math.log(phi)], atol=1e-12)


def test_cartan_round_trip_and_determinants():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = random_sl(rng, n)
        dec = decompositions.cartan_decompose(g)
        assert np.linalg.norm(dec.reconstruct() - g) < 1e-9 * max(
            1, np.linalg.norm(g)
        )
        assert abs(np.linalg.det(dec.k1) - 1.0) < 1e-9
        assert abs(np.linalg.det(dec.k2) - 1.0) < 1e-9
        assert np.all(np.diff(dec.h) <= 1e-12)
        assert abs(dec.h.sum()) < 1e-9


def test_cartan_decompose_squeezed():
    # Squaring into the Gram matrix would drown e^{-13} below
    # sqrt(eps) * e^{10}; the small log singular value must survive.
    rng = np.random.default_rng(9)
    h = np.array([10.0, 3.0, -13.0])
    for _ in range(20):
        g = random_so(rng, 3) @ np.diag(np.exp(h)) @ random_so(rng, 3)
        dec = decompositions.cartan_decompose(g)
        assert np.abs(dec.h - h).max() < 1e-5
        assert abs(np.linalg.det(dec.k1) - 1.0) < 1e-9
        assert abs(np.linalg.det(dec.k2) - 1.0) < 1e-9


def test_cartan_decompose_raises_on_a_zero_or_infinite_singular_value():
    # No log of 0 or inf reaches h: each raises before any warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (
            np.diag([1e308, 1e-308]),
            np.diag([1.0, 0.0, 1.0]),
            np.array([[1.5e308, 1.5e308], [-1.5e308, 1.5e308]]),
        ):
            with pytest.raises(SingularMatrix, match="0 or not finite"):
                decompositions.cartan_decompose(g)
        with pytest.raises(SingularMatrix, match="0 or not finite"):
            decompositions.point_distance(np.eye(2), np.diag([1e308, 1e-308]))


def test_cartan_vector_basics():
    g = random_sl(np.random.default_rng(1), 3)
    assert np.linalg.norm(decompositions.cartan_vector(g, g)) < 1e-9
    t = 0.7
    h = decompositions.cartan_vector(np.eye(2), np.diag([math.exp(t), math.exp(-t)]))
    assert np.allclose(h, [t, -t], atol=1e-12)


def test_cartan_vector_g_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        g, gx, gy = (random_sl(rng, n) for _ in range(3))
        h1 = decompositions.cartan_vector(gx, gy)
        h2 = decompositions.cartan_vector(g @ gx, g @ gy)
        assert np.linalg.norm(h1 - h2) < 1e-8 * max(1.0, np.linalg.norm(h1))


def test_cartan_vector_symmetry_via_opposition():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        gx, gy = random_sl(rng, n), random_sl(rng, n)
        hxy = decompositions.cartan_vector(gx, gy)
        hyx = decompositions.cartan_vector(gy, gx)
        assert np.linalg.norm(hyx - lie.opposition(hxy)) < 1e-9 * max(
            1.0, np.linalg.norm(hxy)
        )


def test_distance_lower_bound_formula():
    # d(n e^H o, n' e^H' o) >= ||H' - H|| on random horospherical data.
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(2, 5))
        h1 = rng.standard_normal(n)
        h1 -= h1.mean()
        h2 = rng.standard_normal(n)
        h2 -= h2.mean()
        n1 = np.eye(n) + np.triu(rng.standard_normal((n, n)), 1)
        n2 = np.eye(n) + np.triu(rng.standard_normal((n, n)), 1)
        gx = n1 @ np.diag(np.exp(h1))
        gy = n2 @ np.diag(np.exp(h2))
        d = decompositions.point_distance(gx, gy)
        assert d >= np.linalg.norm(h2 - h1) - 1e-9


def test_iwasawa_examples():
    dec = decompositions.iwasawa(np.eye(3))
    assert np.allclose(dec.k, np.eye(3)) and np.allclose(dec.a, 0.0)

    dec = decompositions.iwasawa(np.array([[1.0, 0.0], [1.0, 1.0]]))
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(dec.k, [[s, -s], [s, s]], atol=1e-12)
    assert np.allclose(dec.a, [math.log(math.sqrt(2.0))] * 2 * np.array([1, -1]))
    assert np.allclose(dec.nplus, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)

    upper = np.array([[2.0, 3.0], [0.0, 0.5]])
    assert np.allclose(decompositions.iwasawa(upper).k, np.eye(2), atol=1e-12)


def test_iwasawa_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = random_sl(rng, n)
        dec = decompositions.iwasawa(g)
        assert np.linalg.norm(dec.reconstruct() - g) < 1e-10 * max(
            1, np.linalg.norm(g)
        )
        assert np.allclose(np.diag(dec.nplus), 1.0)
        assert np.allclose(np.tril(dec.nplus, -1), 0.0)


def test_bruhat_cell_examples():
    assert decompositions.bruhat_cell(np.eye(3)).perm == (0, 1, 2)
    rev = lie.longest_weyl(3).matrix()
    assert decompositions.bruhat_cell(rev) == lie.longest_weyl(3)


def test_bruhat_cell_random_in_big_cell():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        assert decompositions.bruhat_cell(random_sl(rng, n)) == lie.longest_weyl(n)


def test_bruhat_cell_identifies_every_cell():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for w in lie.all_weyl(n):
            nplus = np.eye(n) + np.triu(rng.standard_normal((n, n)), 1)
            p_upper = np.triu(rng.standard_normal((n, n)))
            p_upper[np.diag_indices(n)] = rng.uniform(0.5, 2.0, size=n)
            g = nplus @ w.matrix() @ p_upper
            assert decompositions.bruhat_cell(g) == w


def test_bruhat_cell_borderline_raises():
    g = np.array(
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1e-8, 1.0],
        ]
    )
    with pytest.raises(IllConditionedCell):
        decompositions.bruhat_cell(g)


def test_bruhat_cell_of_a_zero_matrix_has_no_permutation():
    # Every lower-left block has rank 0, so no column reaches a row.
    with pytest.raises(IllConditionedCell, match="rank pattern is not a permutation"):
        decompositions.bruhat_cell(np.zeros((3, 3)))


def test_kappa_of_identity_is_reversed_flag():
    for n in (2, 3, 4):
        flag = boundary.flag_from_frame(decompositions.kappa(np.eye(n)))
        assert boundary.flags_equal(flag, boundary.reversed_flag(n))


def test_kappa_matches_backward_chamber_limit():
    # kappa(n) is the flag asymptotic to the chamber n e^{-a+ t} o.
    nplus = np.array([[1.0, 1.0], [0.0, 1.0]])
    target = boundary.flag_from_frame(decompositions.kappa(nplus))
    t = 8.0
    g = nplus @ np.diag([math.exp(-t), math.exp(t)])
    limit = boundary.flag_from_frame(decompositions.cartan_decompose(g).k1)
    assert boundary.flag_distance(limit, target) < 1e-5


def test_kappa_injective_on_samples():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        n1 = np.eye(n) + np.triu(rng.standard_normal((n, n)), 1)
        n2 = np.eye(n) + np.triu(rng.standard_normal((n, n)), 1)
        f1 = boundary.flag_from_frame(decompositions.kappa(n1))
        f2 = boundary.flag_from_frame(decompositions.kappa(n2))
        assert boundary.flag_distance(f1, f2) > 1e-8
