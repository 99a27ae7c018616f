import warnings
from math import comb

import numpy as np
import pytest
from scipy.linalg import block_diag

from rankr import boundary, isometries, kernel
from rankr.errors import (
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
)
from conftest import (
    det_compounds,
    pairing_eig_real,
    random_sl,
    random_so,
    unipotent_draws,
)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kernel.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        kernel.as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_qr_decompose_reconstructs_with_positive_diagonal():
    rng = np.random.default_rng(1)
    mats = {}
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_sl(rng, n)
        q, r = kernel.qr_decompose(g)
        assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-12
        assert np.all(np.diag(r) > 0)
        assert np.linalg.norm(q @ r - g) < 1e-12 * max(1, np.linalg.norm(g))
        mats.setdefault(n, []).append((g, q, r))
    # The stacked call gives, row by row, the single-matrix factorization.
    for n, rows in mats.items():
        qs, rs = kernel.qr_pos(np.stack([g for g, _, _ in rows]))
        assert np.all(np.diagonal(rs, axis1=1, axis2=2) > 0)
        assert np.allclose(np.linalg.det(qs), 1.0, atol=1e-12)
        for (_, q, r), q2, r2 in zip(rows, qs, rs):
            assert np.array_equal(q, q2) and np.array_equal(r, r2)


def test_canonical_signs_fix_each_frame_up_to_column_signs():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        frames = np.array([random_so(rng, n) for _ in range(40)])
        signed = frames * kernel.canonical_signs(frames)[:, None, :]
        assert np.allclose(np.linalg.det(signed), 1.0, rtol=0.0, atol=1e-12)
        peak = np.abs(signed).argmax(axis=1)
        tops = np.take_along_axis(signed, peak[:, None, :], axis=1)[:, 0]
        assert np.all(tops[:, :-1] > 0)
        for _ in range(4):
            flipped = frames * rng.choice([-1.0, 1.0], (40, 1, n))
            again = flipped * kernel.canonical_signs(flipped)[:, None, :]
            assert np.array_equal(again, signed)
        # Any leading shape, and one matrix, give the same signs.
        signs = kernel.canonical_signs(frames)
        assert np.array_equal(
            kernel.canonical_signs(frames.reshape(4, 10, n, n)), signs.reshape(4, 10, n)
        )
        assert np.array_equal(kernel.canonical_signs(frames[3]), signs[3])


def test_qr_decompose_rejects_singular():
    with pytest.raises(SingularMatrix):
        kernel.qr_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_grade_reconstructs_graded_triangular_stacks():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        # Pivots of either sign, scales spread over e^40.
        r = np.triu(rng.standard_normal((40, n, n)))
        a = rng.uniform(-20.0, 20.0, (40, n))
        b, u = kernel.grade(r, a)
        signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
        got = (signs * np.exp(b))[:, :, None] * u
        want = r * np.exp(a)[:, None, :]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        # An exact unit diagonal and exact (positive) zeros below it.
        below = np.tril(np.ones((n, n), dtype=bool), -1)
        assert np.all(np.diagonal(u, axis1=1, axis2=2) == 1.0)
        assert np.all(u[:, below] == 0.0) and not np.signbit(u[:, below]).any()
        # One matrix gives the row of the stack.
        one_b, one_u = kernel.grade(r[5], a[5])
        assert np.array_equal(one_b, b[5]) and np.array_equal(one_u, u[5])


def test_grade_keeps_zeros_under_overflowing_exponents():
    # The zero entries whose exponents overflow (e^800, e^1100) stay
    # exactly zero, so u stays finite.
    r = np.array(
        [
            [[2.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.0, 0.0, 3.0]],
            [[2.0, 0.0, 0.0], [0.0, -1.0, 0.5], [0.0, 0.0, 3.0]],
        ]
    )
    a = np.array([[0.0, 800.0, -300.0], [-800.0, 300.0, 0.0]])
    b, u = kernel.grade(r, a)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(b))
    assert u[0, 0, 1] == 0.0 and u[0, 1, 2] == 0.0
    assert u[1, 0, 1] == 0.0 and u[1, 0, 2] == 0.0
    assert u[0, 0, 2] == 0.25 * np.exp(-300.0)
    assert u[1, 1, 2] == -0.5 * np.exp(-300.0)
    assert np.array_equal(b[0], a[0] + np.log([2.0, 1.0, 3.0]))


def test_grade_and_graded_svd_reject_a_zero_pivot():
    r = np.triu(np.ones((4, 3, 3)))
    r[2, 1, 1] = 0.0
    singular = np.eye(3)
    singular[-1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix):
            kernel.grade(r, np.zeros((4, 3)))
        with pytest.raises(SingularMatrix):
            kernel.graded_svd(np.zeros((1, 3)), singular[None])


def test_graded_svd_moderate_matches_plain_svd():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        a = rng.uniform(-2.0, 2.0, (20, n))
        m = rng.standard_normal((20, n, n))
        plain, sig, _ = np.linalg.svd(np.exp(a)[:, :, None] * m)
        got, frames = kernel.graded_svd(a, m)
        assert np.abs(got - np.log(sig)).max() < 1e-12
        # Frame column i belongs to value i, with its rows in the order of
        # a, whatever order the kernel sorted the scales in.
        assert np.abs(frames.mT @ frames - np.eye(n)).max() < 1e-13
        assert boundary.standard_flag_distances(plain.mT @ frames).max() < 1e-11


def test_graded_svd_closed_form_2x2():
    # e^{diag a} [[1, x], [0, 1]] with a_1 - a_2 = t has
    # log s_1 = a_1 + log(1 + x^2) / 2 + O(e^{-2t}) and s_1 s_2 = e^{a_1 + a_2},
    # below and above the spread at which one scaled SVD stops holding and
    # the factor is split where its rows decouple.
    # Its top left singular vector is e_1 up to an angle of O(x e^{-t}).
    coordinate = np.eye(2)[None]
    for t in (40.0, 550.0, 800.0):
        for x in (0.0, 0.3, -7.0):
            a = np.array([[t / 2, -t / 2]])
            m = np.array([[[1.0, x], [0.0, 1.0]]])
            top = t / 2 + 0.5 * np.log1p(x * x)
            got, frames = kernel.graded_svd(a, m)
            assert np.allclose(got[0], [top, -top], atol=1e-12, rtol=0.0)
            assert boundary.standard_flag_distances(frames)[0] < 1e-12
            if x == 0.0:
                # The coordinate flag in scale order.
                assert np.array_equal(np.abs(frames), coordinate)
            # Reversed scales and swapped rows describe the same matrix up
            # to the row order, so its frame, rows swapped back, gives the
            # same flag.
            got, frames = kernel.graded_svd(a[:, ::-1], m[:, ::-1])
            assert np.allclose(got[0], [top, -top], atol=1e-12, rtol=0.0)
            assert boundary.standard_flag_distances(frames[:, ::-1])[0] < 1e-12
            if x == 0.0:
                assert np.array_equal(np.abs(frames[:, ::-1]), coordinate)


def _mpmath_svd(mpmath, a, m):
    """(log singular values, left singular vectors) of e^{diag a} m in
    exact enough arithmetic: e^{-spread} needs spread / 2.3 digits."""
    n = len(a)
    with mpmath.workdps(int(np.ptp(a) / 2.3) + 60):
        g = mpmath.matrix(
            [[mpmath.exp(mpmath.mpf(a[i])) * mpmath.mpf(m[i, j]) for j in range(n)]
             for i in range(n)]
        )
        left, sig, _ = mpmath.svd_r(g)
        values = np.array([float(mpmath.log(x)) for x in sig])
        frame = np.array(left.tolist(), dtype=float)
    order = np.argsort(-values)
    return values[order], frame[:, order]


def test_graded_svd_matches_mpmath_at_any_spread():
    # Dirichlet(0.5) gaps put most of the spread into one or two gaps, the
    # scales come in any order, and one scaled SVD underflows beyond a
    # spread of about 650: the factor is split where its rows decouple.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8):
        for i, spread in enumerate((400.0, 700.0, 1200.0, 5000.0)):
            gaps = rng.dirichlet(np.full(n - 1, 0.5)) * spread
            a = rng.permutation(spread / 2 - np.concatenate([[0.0], np.cumsum(gaps)]))
            if i % 2:
                m = np.eye(n) + np.triu(rng.uniform(-3.0, 3.0, (n, n)), 1)
            else:
                m = rng.standard_normal((n, n))
            want, frame = _mpmath_svd(mpmath, a, m)
            got, frames = kernel.graded_svd(a[None], m[None])
            assert np.all(np.abs(got[0] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            relative = (frame.T @ frames[0])[None]
            assert boundary.standard_flag_distances(relative)[0] < 1e-12


def _compound_test_stacks(rng, n, count=10):
    """Gaussian, orthogonal and unit upper triangular stacks."""
    orth = np.stack([random_so(rng, n) for _ in range(count)])
    unit = np.eye(n) + np.triu(rng.uniform(-3.0, 3.0, (count, n, n)), 1)
    return rng.standard_normal((count, n, n)), orth, unit


def test_compounds_match_determinant_oracle():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for m in _compound_test_stacks(rng, n):
            got = kernel.compounds(m, n)
            want = det_compounds(m, n)
            assert len(got) == n
            for k, (g, w) in enumerate(zip(got, want), start=1):
                assert g.shape == (len(m), comb(n, k), comb(n, k))
                err = np.abs(g - w).max(axis=(1, 2))
                assert np.all(err <= 1e-12 * np.abs(w).max(axis=(1, 2)))
            # The 2-minors are LAPACK's own determinants, bit for bit.
            assert np.array_equal(got[1], want[1])


def test_compounds_are_multiplicative():
    # Cauchy-Binet: C_k(AB) = C_k(A) C_k(B).
    rng = np.random.default_rng(6)
    for n in (3, 5, 8):
        a = rng.standard_normal((10, n, n))
        b = rng.standard_normal((10, n, n))
        powers = zip(
            kernel.compounds(a, n), kernel.compounds(b, n), kernel.compounds(a @ b, n)
        )
        for ca, cb, cab in powers:
            bound = (np.abs(ca) @ np.abs(cb)).max(axis=(1, 2))
            err = np.abs(cab - ca @ cb).max(axis=(1, 2))
            assert np.all(err <= 1e-12 * bound)


def test_compounds_shapes():
    empty = kernel.compounds(np.zeros((0, 5, 5)), 4)
    assert [c.shape for c in empty] == [(0, 5, 5), (0, 10, 10), (0, 10, 10), (0, 5, 5)]
    m = np.random.default_rng(7).standard_normal((3, 4, 4))
    first = kernel.compounds(m, 1)
    assert len(first) == 1 and np.array_equal(first[0], m)


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


def _rotation_spectrum_matrix(rng, n):
    """c D c^-1 with D holding 2x2 rotation-scaling blocks (and one
    diagonal entry for odd n): simple eigenvalues, mostly complex pairs."""
    d = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        r, t = np.exp(rng.uniform(-1, 1)), rng.uniform(0.1, 3.0)
        d[i : i + 2, i : i + 2] = r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    if n % 2:
        d[-1, -1] = rng.uniform(-2, 2)
    c = rng.standard_normal((n, n))
    return c @ d @ np.linalg.inv(c)


def test_eig_real_matches_pairing_reference_on_simple_spectra():
    rng = np.random.default_rng(21)
    complex_blocks = 0
    for n in range(2, 9):
        for _ in range(10):
            for g in (rng.standard_normal((n, n)), _rotation_spectrum_matrix(rng, n)):
                want = pairing_eig_real(g)
                got = kernel.eig_real(g)
                assert all(b.multiplicity == 1 for b in want)
                assert len(got) == len(want) == n
                for x, y in zip(got, want):
                    assert x.value == y.value
                    assert x.multiplicity == y.multiplicity
                    assert np.array_equal(x.basis, y.basis)
                complex_blocks += sum(b.value.imag != 0 for b in got)
    assert complex_blocks > 200


def _clustering_inputs():
    rng = np.random.default_rng(22)
    mats = list(unipotent_draws().values())
    for n in range(2, 9):
        for _ in range(5):
            mats.append(random_sl(rng, n))
            mats.append(_rotation_spectrum_matrix(rng, n))
    # A complex Jordan block: [[R, I], [0, R]] with R a rotation-scaling.
    rot = 1.5 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    block = np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]])
    c = rng.standard_normal((4, 4))
    mats.append(c @ block @ np.linalg.inv(c))
    return mats


@pytest.mark.parametrize("tol", isometries._CLUSTER_TOLS)
def test_eig_real_blocks_come_in_conjugate_pairs(tol):
    for g in _clustering_inputs():
        blocks = kernel.eig_real(g, tol)
        assert sum(b.multiplicity for b in blocks) == g.shape[0]
        for b in blocks:
            if b.value.imag == 0:
                assert np.isrealobj(b.basis)
                continue
            partners = [
                p for p in blocks
                if p.value == b.value.conjugate() and p.multiplicity == b.multiplicity
            ]
            assert len(partners) == 1
            assert np.array_equal(partners[0].basis, b.basis.conj())


def test_eig_real_cluster_holding_a_real_eigenvalue_is_real():
    # The eigenvalue 1 seeds a greedy cluster that takes the upper member
    # of every pair x_k +- i y_k but ends with a mean above the tolerance.
    # Mirrored, that cluster holds 1 twice, so it is one real block.
    pairs = []
    for k, y in enumerate((0.0095, 0.0145, 0.0179), start=1):
        x = 1.0 - y * y / 2 - k * 1e-6
        pairs.append(np.array([[x, -y], [y, x]]))
    g = block_diag(1.0, *pairs)
    blocks = kernel.eig_real(g, 1e-2)
    assert [b.multiplicity for b in blocks] == [7]
    assert blocks[0].value.imag == 0.0
    assert abs(blocks[0].value.real - np.trace(g) / 7) < 1e-15


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
