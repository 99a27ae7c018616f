import numpy as np
import pytest

from rankr import kernel
from rankr.errors import (
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
)
from conftest import random_sl, random_so


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kernel.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        kernel.as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_normalize_det():
    g = kernel.normalize_det(np.diag([4.0, 1.0]))
    assert abs(np.linalg.det(g) - 1.0) < 1e-12
    with pytest.raises(SingularMatrix):
        kernel.normalize_det(np.diag([-4.0, 1.0]))


def test_jacobi_eigh_known_spectrum():
    # [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors (1,1), (1,-1).
    w, v = kernel.jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [3.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(v[:, 0]), [1.0, 1.0] / np.sqrt(2), atol=1e-12)


def test_jacobi_eigh_reconstructs_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        s = rng.standard_normal((n, n))
        s = s + s.T
        w, v = kernel.jacobi_eigh(s)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.linalg.norm(v.T @ v - np.eye(n)) < 1e-12
        assert np.linalg.norm((v * w) @ v.T - s) < 1e-10 * max(1, np.linalg.norm(s))


def test_qr_decompose_reconstructs_with_positive_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_sl(rng, n)
        q, r = kernel.qr_decompose(g)
        assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-12
        assert np.all(np.diag(r) > 0)
        assert np.linalg.norm(q @ r - g) < 1e-12 * max(1, np.linalg.norm(g))


def test_qr_decompose_rejects_singular():
    with pytest.raises(SingularMatrix):
        kernel.qr_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_singular_values_diagonal():
    sig = kernel.singular_values(np.diag([2.0, 1.0, 0.5]))
    assert np.allclose(sig, [2.0, 1.0, 0.5], atol=1e-12)


def test_singular_values_shear_golden_ratio():
    # Singular values of [[1,1],[0,1]] are the golden ratio and its inverse.
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    sig = kernel.singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(sig, [phi, 1.0 / phi], atol=1e-12)


def test_svd_frames_reconstruct():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_sl(rng, n)
        k1, sig, k2 = kernel.svd_frames(g)
        rebuilt = (k1 * sig) @ k2
        assert np.linalg.norm(rebuilt - g) < 1e-10 * max(1, np.linalg.norm(g))
        assert np.linalg.norm(k1.T @ k1 - np.eye(n)) < 1e-10
        assert np.linalg.norm(k2 @ k2.T - np.eye(n)) < 1e-10


def test_graded_log_singular_values_moderate_matches_plain_svd():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        a = rng.uniform(-2.0, 2.0, (20, n))
        m = rng.standard_normal((20, n, n))
        plain = np.log(np.linalg.svd(np.exp(a)[:, :, None] * m, compute_uv=False))
        got = kernel.graded_log_singular_values(a, m)
        assert np.abs(got - plain).max() < 1e-12


def test_graded_log_singular_values_closed_form_2x2():
    # e^{diag a} [[1, x], [0, 1]] with a_1 - a_2 = t has
    # log s_1 = a_1 + log(1 + x^2) / 2 + O(e^{-2t}) and s_1 s_2 = e^{a_1 + a_2},
    # on either side of the spread at which the exterior route takes over.
    for t in (40.0, 550.0, 800.0):
        for x in (0.0, 0.3, -7.0):
            a = np.array([[t / 2, -t / 2]])
            m = np.array([[[1.0, x], [0.0, 1.0]]])
            top = t / 2 + 0.5 * np.log1p(x * x)
            got = kernel.graded_log_singular_values(a, m)[0]
            assert np.allclose(got, [top, -top], atol=1e-12, rtol=0.0)
            # Reversed scales and swapped rows describe the same matrix.
            got = kernel.graded_log_singular_values(a[:, ::-1], m[:, ::-1])[0]
            assert np.allclose(got, [top, -top], atol=1e-12, rtol=0.0)


def test_eig_real_jordan_block_is_one_cluster():
    blocks = kernel.eig_real(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert len(blocks) == 1
    assert blocks[0].multiplicity == 2
    assert abs(blocks[0].value - 1.0) < 1e-6


def test_eig_real_complex_pair_is_conjugate():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    blocks = kernel.eig_real(rot)
    assert len(blocks) == 2
    vals = sorted(b.value.imag for b in blocks)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(blocks[0].basis, blocks[1].basis.conj())


def test_eig_real_sorted_by_modulus():
    g = np.diag([0.25, 4.0, 1.0])
    blocks = kernel.eig_real(g)
    assert [abs(b.value) for b in blocks] == sorted(
        [abs(b.value) for b in blocks], reverse=True
    )
    assert abs(blocks[0].value - 4.0) < 1e-12


def test_eig_real_generalized_basis_spans_kernel_chain():
    rng = np.random.default_rng(3)
    g = random_so(rng, 3) @ (np.eye(3) + np.diag([1.0, 1.0], 1)) @ random_so(rng, 3).T
    # Not similar to a unipotent in general, but eig_real must still give a
    # basis of the full space across blocks.
    blocks = kernel.eig_real(g)
    total = sum(b.multiplicity for b in blocks)
    assert total == 3


def test_sym_exp_log_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        s = rng.standard_normal((n, n))
        s = (s + s.T) / 2
        back = kernel.sym_exp_log("log", kernel.sym_exp_log("exp", s))
        assert np.linalg.norm(back - s) < 1e-9 * max(1, np.linalg.norm(s))


def test_sym_exp_log_errors():
    with pytest.raises(NotSymmetric):
        kernel.sym_exp_log("exp", np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPositiveDefinite):
        kernel.sym_exp_log("log", np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        kernel.sym_exp_log("sqrt", np.eye(2))


def test_rank_tol():
    assert kernel.rank_tol(np.zeros((3, 3))) == 0
    assert kernel.rank_tol(np.eye(3)) == 3
    assert kernel.rank_tol(np.diag([1.0, 1e-12, 1e-12])) == 1
    with pytest.raises(ValueError):
        kernel.rank_tol(np.eye(2), tol=0.0)


def test_rank_with_band_flags_borderline():
    r, borderline = kernel.rank_with_band(np.diag([1.0, 1e-8]))
    assert borderline
    r, borderline = kernel.rank_with_band(np.diag([1.0, 1e-3]))
    assert r == 2 and not borderline
    r, borderline = kernel.rank_with_band(np.diag([1.0, 1e-13]))
    assert r == 1 and not borderline
