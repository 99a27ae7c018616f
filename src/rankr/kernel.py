"""Dense numerical primitives for small (n <= 8) real matrices.

QR (qr_pos, one matrix or a stack), the symmetric eigensolver and the
SVD are LAPACK's via numpy; qr_pos fixes the signs so the diagonal of r
is positive, which makes the factorization unique.  The general
(nonsymmetric) spectrum is also delegated to LAPACK, clustered, sorted
under a fixed deterministic order and returned as one real generalized
eigenbasis (eig_real).

grade is the one re-factorisation r e^{diag a} = D e^{diag b} u of a
graded triangular product; Iwasawa, word growth and the graded SVD call
it.  Stacks of graded matrices e^{diag a} m, whose rows span any number
of orders of magnitude, get their log singular values and left singular
frames from batched scaled LAPACK SVDs after a re-triangularization that
orders the scales: small singular values keep full relative accuracy,
and a factor too wide for one scaled SVD is split where its rows decouple.

Exterior powers of a stack (compounds) are built in one pass: the
2-minors by one batched LAPACK determinant, every larger minor by a
Laplace expansion along its first row over the minors one size smaller.
They serve only the eigenvalue moduli of words whose scales spread too
wide for one eigenvalue call (limitset._stack_log_moduli).
"""

import threading
from itertools import combinations

import numpy as np

from . import defaults
from .errors import (
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
)


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def qr_pos(m):
    """QR with a positive diagonal of one matrix or a stack: m = q r.

    LAPACK's Householder QR with the sign of each diagonal entry of r
    moved into the matching column of q, so the factorization is unique;
    for det(m) > 0 the returned q has det +1."""
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :], r * signs[..., :, None]


def canonical_signs(frames) -> np.ndarray:
    """The +-1 column signs of each matrix in an (..., n, n) stack that make
    every column's largest-magnitude entry positive, then det positive by
    flipping the last column; flips are exact, so they change no other bit."""
    peak = np.abs(frames).argmax(axis=-2)[..., None, :]
    top = np.take_along_axis(frames, peak, axis=-2)[..., 0, :]
    signs = np.where(top < 0, -1.0, 1.0)
    signs[np.linalg.det(frames * signs[..., None, :]) < 0, -1] *= -1.0
    return signs


def qr_decompose(g):
    """qr_pos of one matrix or a stack; raises SingularMatrix when a pivot
    of r is below defaults.EPS_DET."""
    q, r = qr_pos(g)
    pivot = np.diagonal(r, axis1=-2, axis2=-1).min()
    if pivot < defaults.EPS_DET:
        raise SingularMatrix(f"QR pivot {pivot:.3e} is below {defaults.EPS_DET:.1e}")
    return q, r


def _spectral_key(lam: complex):
    # Descending modulus, then descending real part, then ascending imaginary.
    return (-abs(lam), -lam.real, lam.imag)


def _null_basis(m: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the `dim`-dimensional null space."""
    _, _, vh = np.linalg.svd(m)
    return vh[-dim:, :].conj().T


def _kernel_chain(nilp) -> np.ndarray:
    """Orthonormal frame whose first i columns span ker(nilp^i), for a
    real nilpotent nilp that is one Jordan block."""
    n = nilp.shape[0]
    prev = np.zeros((n, 0))
    for i in range(1, n + 1):
        basis = _null_basis(np.linalg.matrix_power(nilp, i), i)
        # New direction: the part of ker^i orthogonal to the chain so far.
        resid = basis - prev @ (prev.T @ basis)
        j = int(np.argmax(np.linalg.norm(resid, axis=0)))
        v = resid[:, j] / np.linalg.norm(resid[:, j])
        prev = np.concatenate([prev, v[:, None]], axis=1)
    return prev


# Residual below which a factor counts as the identity.
ID_TOL = 1e-8


def eig_real(g, eps_cluster: float = defaults.EPS_CLUSTER):
    """Clustered spectrum of a real matrix as one real generalized
    eigenbasis (basis, runs, values): its columns, the sizes of the runs of
    columns whose order is part of the flag, and each column's eigenvalue.

    Nearby eigenvalues (within eps_cluster relative) merge into one
    cluster, so defective matrices report their Jordan structure instead
    of spurious simple eigenvalues.  LAPACK returns the spectrum of a real
    matrix in exact conjugate pairs, so only the closed upper half plane is
    clustered, each cluster grown greedily against the running mean of its
    members.  A cluster that holds a real eigenvalue, or whose mean lies
    within the tolerance of the real axis, is its own mirror image: one
    real cluster whose multiplicity counts every member above the axis
    twice and whose value is the real part of the mean over the members
    and their conjugates.

    The clusters come in descending modulus, ties broken by descending real
    part then ascending imaginary part.  A complex cluster lambda gives the
    (Re, Im) column pairs of its generalized eigenspace, carrying lambda
    and its conjugate.  A real cluster gives an orthonormal basis of its
    generalized eigenspace; where g / lambda - I is not within ID_TOL of
    zero on it, the columns follow the kernel chain of g / lambda - I, so
    the flags they span inside it are fixed, and the cluster is one run.
    Every other column is a run of its own.
    """
    g = as_matrix(g)
    vals = np.linalg.eigvals(g)
    tol = eps_cluster * max(1.0, float(np.max(np.abs(vals))))
    eye = np.eye(g.shape[0])

    remaining = sorted(vals[vals.imag >= 0], key=_spectral_key)
    clusters = []
    while remaining:
        members = [remaining.pop(0)]
        rest = []
        for lam in remaining:
            if abs(lam - np.mean(members)) <= tol:
                members.append(lam)
            else:
                rest.append(lam)
        remaining = rest
        mean = complex(np.mean(members))
        mirror = [lam.conjugate() for lam in members if lam.imag > 0]
        if abs(mean.imag) > tol and len(mirror) == len(members):
            clusters.append((mean, len(members)))
            continue
        if mirror:
            members += mirror
            mean = complex(np.mean(members))
        clusters.append((complex(mean.real, 0.0), len(members)))
    clusters.sort(key=lambda c: _spectral_key(c[0]))

    defect = ID_TOL * max(1.0, float(np.linalg.norm(g)))
    cols, runs, values = [], [], []
    for lam, mult in clusters:
        shift = lam if lam.imag else lam.real
        basis = _null_basis(np.linalg.matrix_power(g - shift * eye, mult), mult)
        if lam.imag:
            pairs = np.stack([basis.real, basis.imag], axis=2)
            cols.append(pairs.reshape(len(pairs), 2 * mult))
            runs += [1] * (2 * mult)
            values += [lam, lam.conjugate()] * mult
            continue
        # Real and orthonormal already; later bits rest on this QR all the same.
        basis, _ = np.linalg.qr(basis)
        nilp = basis.T @ (g / shift - eye) @ basis
        if mult > 1 and np.linalg.norm(nilp) > defect:
            cols.append(basis @ _kernel_chain(nilp))
            runs.append(mult)
        else:
            cols.append(basis)
            runs += [1] * mult
        values += [lam] * mult
    return np.concatenate(cols, axis=1), runs, np.array(values)


def sym_exp_log(direction: str, s) -> np.ndarray:
    """Matrix exp/log of a symmetric matrix via its eigendecomposition."""
    s = as_matrix(s)
    if np.linalg.norm(s - s.T) > defaults.EPS_LIN * max(1.0, np.linalg.norm(s)):
        raise NotSymmetric("input is not symmetric within tolerance")
    w, v = np.linalg.eigh(s)
    if direction == "exp":
        return (v * np.exp(w)) @ v.T
    if direction == "log":
        if np.any(w <= 0):
            raise NotPositiveDefinite("log requires a positive definite input")
        return (v * np.log(w)) @ v.T
    raise ValueError(f"direction must be 'exp' or 'log', got {direction!r}")


def rank_tol(m) -> int:
    """Number of singular values above defaults.EPS_RANK * sigma_1 (0 for
    the zero matrix)."""
    return rank_with_band(m)[0]


def rank_with_band(m):
    """rank_tol plus a flag telling whether the decision was borderline.

    The decision is borderline when some relative singular value lies in
    (tol/10, tol*10), tol = defaults.EPS_RANK; callers treating the rank
    as load-bearing should reject such inputs.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0 or not np.any(m):
        return 0, False
    # Rank decisions need singular values accurate down to eps * sigma_1;
    # squaring into the Gram matrix would floor exact deficiencies at
    # sqrt(eps), inside the borderline band, so go through the direct SVD.
    sig = np.linalg.svd(m, compute_uv=False)
    tol = defaults.EPS_RANK
    rel = sig / sig[0]
    borderline = bool(np.any((rel > tol / 10.0) & (rel < tol * 10.0)))
    return int(np.sum(rel > tol)), borderline


# ---------------------------------------------------------------------------
# Graded stacks e^{diag a} m


# Two threads taking batched 2x2 determinants at the same time ran three
# times slower than the same calls one after another (numpy's bundled
# OpenBLAS, probably contention in the shared work-buffer allocator that
# every getrf call goes through).  So compounds called from several
# threads take turns at the determinant and overlap in the rest.
_DET_LOCK = threading.Lock()


def compounds(m: np.ndarray, top: int) -> list:
    """Exterior powers [C_1(m), ..., C_top(m)] of each matrix in a stack.

    C_k has shape (count, C(n,k), C(n,k)), rows and columns indexed by the
    k-subsets in lexicographic order; C_1 is m itself.  The 2-minors come
    from one batched LAPACK determinant; each larger k-minor is the
    Laplace expansion along its first row over the (k-1)-minors of
    C_{k-1}, k vectorised multiply-adds per k."""
    n = m.shape[-1]
    out = [m]
    if top < 2:
        return out[:top]
    combos = list(combinations(range(n), 2))
    pairs = np.array(combos)
    blocks = m[:, pairs[:, None, :, None], pairs[None, :, None, :]]
    with _DET_LOCK:
        out.append(np.linalg.det(blocks))
    for k in range(3, top + 1):
        pos = {c: i for i, c in enumerate(combos)}
        combos = list(combinations(range(n), k))
        rows = np.array(combos)
        rest = np.array([pos[c[1:]] for c in combos])[:, None]
        prev = out[-1]
        acc = np.zeros((len(m), len(combos), len(combos)))
        term = np.empty_like(acc)
        for j in range(k):
            # Entry (r_0, c_j) times the minor without row r_0 and column c_j.
            drop = np.array([pos[c[:j] + c[j + 1 :]] for c in combos])[None, :]
            np.multiply(
                m[:, rows[:, :1], rows[None, :, j]], prev[:, rest, drop], out=term
            )
            if j % 2:
                acc -= term
            else:
                acc += term
        out.append(acc)
    return out


def combo_sums(a: np.ndarray, k: int) -> np.ndarray:
    """Sums of a over every k-subset of its columns (compound log-weights)."""
    n = a.shape[1]
    return np.stack(
        [a[:, list(c)].sum(axis=1) for c in combinations(range(n), k)], axis=1
    )


def grade(r, a):
    """(b, u) with r e^{diag a} = D e^{diag b} u for upper triangular r,
    one matrix or a stack: D = diag(sign r_ii), b = a + log|r_ii| and
    u_ij = (r_ij / r_ii) e^{a_j - a_i} above a unit diagonal, 0 below it.
    Raises SingularMatrix on a zero pivot."""
    rd = np.diagonal(r, axis1=-2, axis2=-1)
    if not rd.all():
        raise SingularMatrix("a pivot of the triangular factor is zero")
    a = np.broadcast_to(np.asarray(a, dtype=float), rd.shape)
    ratio = r / rd[..., None]
    # The diagonal is r_ii / r_ii e^0 = 1 exactly.  An exactly zero entry,
    # every one below the diagonal among them, stays zero even when its
    # grading exponent overflows; without the mask 0 * inf would poison u.
    with np.errstate(over="ignore", invalid="ignore"):
        u = ratio * np.exp(a[..., None, :] - a[..., :, None])
    u[ratio == 0.0] = 0.0
    return a + np.log(np.abs(rd)), u


def _retriangularize(a, m):
    """(b, u, order) with e^{a_s} m_s = (e^{diag b} u)^T D Q^T, where row i
    of a_s and m_s is row order[i] of a and m, and D Q^T is orthogonal.

    Transposed, the row scales become column scales, which commute with
    QR: sorting them descending, m_s^T e^{a_s} = Q R e^{a_s}, and grade
    of R and a_s has exponents <= 0 above the diagonal.  So u has moderate
    entries and b descends up to moderate terms, whatever the order of a."""
    order = np.argsort(-a, axis=1, kind="stable")
    a_s = np.take_along_axis(a, order, axis=1)
    m_s = np.take_along_axis(m, order[:, :, None], axis=1)
    return *grade(np.linalg.qr(m_s.transpose(0, 2, 1), mode="r"), a_s), order


# One scaled SVD holds a scale spread up to _SPREAD: products of two scaled
# entries stay normal floats.  Rows whose scales all beat the rest by more
# than _DECOUPLE span the top singular space to within eps.  Not tolerances.
_SPREAD = -0.5 * np.log(np.finfo(float).tiny)
_DECOUPLE = -np.log(np.finfo(float).eps)


def _split_svd(b, u):
    """(log singular values, right singular vectors as rows) of each
    e^{diag b} u, b descending up to moderate terms and u moderate.

    One SVD scaled by the largest row takes every matrix.  One whose
    scales spread wider than _SPREAD is cut after its first row k with
    min(b[:k]) - max(b[k:]) > _DECOUPLE: the scaled SVD of the top k rows
    gives k values, k vectors and a complement basis W, and the rows below,
    u[k:] W, are the same problem one size smaller."""
    shift = b.max(axis=1)
    _, sig, vh = np.linalg.svd(np.exp(b - shift[:, None])[:, :, None] * u)
    with np.errstate(divide="ignore"):
        values = np.log(sig) + shift[:, None]
    wide = np.ptp(b, axis=1) > _SPREAD
    if not wide.any():
        return values, vh
    lead = np.minimum.accumulate(b, axis=1)[:, :-1]
    tail = np.maximum.accumulate(b[:, ::-1], axis=1)[:, -2::-1]
    clean = lead - tail > _DECOUPLE
    cut = np.where(wide & clean.any(axis=1), clean.argmax(axis=1) + 1, 0)
    for k in np.unique(cut[cut > 0]):
        rows = np.flatnonzero(cut == k)
        top, basis = _split_svd(b[rows, :k], u[rows, :k])
        low, sub = _split_svd(b[rows, k:], u[rows, k:] @ basis[:, k:].mT)
        values[rows] = np.concatenate([top, low], axis=1)
        vh[rows] = np.concatenate([basis[:, :k], sub @ basis[:, k:]], axis=1)
    return values, vh


def graded_svd(a, m):
    """(log singular values, left singular frames) of each e^{diag a} m in
    a stack; the values descend, and frame column i belongs to value i.

    After _retriangularize the scales descend, and a scaled LAPACK SVD of
    the row-graded triangular factor keeps the small singular values to
    relative accuracy (Demmel & Veselic 1992); a plain SVD of the
    assembled product keeps only the largest.  Factors spread too wide
    for one scaled SVD are split where their rows decouple (_split_svd),
    so values and frames hold at any spread.  The right singular vectors,
    rows put back in the order of a, are the left singular frames."""
    b, u, order = _retriangularize(a, m)
    values, vh = _split_svd(b, u)
    frames = np.empty_like(u)
    frames[np.arange(len(u))[:, None], order] = vh.transpose(0, 2, 1)
    return values, frames
