"""Dense numerical primitives for small (n <= 8) real matrices.

Symmetric eigenproblems use a self-contained cyclic Jacobi sweep and QR
uses modified Gram-Schmidt with reorthogonalization; both are textbook
kernels that are entirely adequate at these sizes and keep tie-breaking
under our control.  The general (nonsymmetric) spectrum is delegated to
LAPACK via numpy and re-sorted under a fixed deterministic order.

Stacks of graded matrices e^{diag a} m, whose rows span hundreds of
orders of magnitude, get their log singular values from one batched
LAPACK SVD after a re-triangularization that orders the scales, so the
small singular values keep full relative accuracy.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import defaults
from .errors import (
    NoConvergence,
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


def normalize_det(g: np.ndarray) -> np.ndarray:
    """Rescale an invertible matrix with positive determinant to det 1."""
    d = np.linalg.det(g)
    if d <= 0:
        raise SingularMatrix("determinant must be positive to normalize")
    return g / d ** (1.0 / g.shape[0])


def jacobi_eigh(s: np.ndarray, sweep_factor: int = defaults.SWEEP_FACTOR):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (w, v) with s = v @ diag(w) @ v.T, v orthogonal.  Eigenvalues
    are returned in descending order.
    """
    a = np.array(s, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.linalg.norm(a), 1e-300)
    cap = sweep_factor * n * n
    for _ in range(cap):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                rot_p = c * a[:, p] - sn * a[:, q]
                rot_q = sn * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - sn * a[q, :]
                rot_q = sn * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - sn * v[:, q]
                rot_q = sn * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    else:
        raise NoConvergence(f"Jacobi sweeps exceeded cap {cap}")
    w = np.diag(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def qr_decompose(g, eps_det: float = defaults.EPS_DET):
    """QR with positive diagonal: g = q r, q orthogonal, diag(r) > 0.

    Modified Gram-Schmidt with one reorthogonalization pass.  For
    det(g) > 0 the returned q automatically has det +1.
    """
    g = as_matrix(g)
    n = g.shape[0]
    q = np.zeros((n, n))
    r = np.zeros((n, n))
    for j in range(n):
        vcol = g[:, j].copy()
        for _ in range(2):
            h = q[:, :j].T @ vcol
            vcol = vcol - q[:, :j] @ h
            r[:j, j] += h
        nrm = np.linalg.norm(vcol)
        if nrm < eps_det:
            raise SingularMatrix(f"Gram-Schmidt pivot {j} has norm {nrm:.3e}")
        r[j, j] = nrm
        q[:, j] = vcol / nrm
    if np.linalg.det(g) > 0 and np.linalg.det(q) < 0:
        # Cannot occur in exact arithmetic with diag(r) > 0; guard anyway.
        q[:, -1] *= -1.0
        r[-1, :] *= -1.0
    return q, r


def _spectral_key(lam: complex):
    # Descending modulus, then descending real part, then ascending imaginary.
    return (-abs(lam), -lam.real, lam.imag)


@dataclass
class EigenBlock:
    """One clustered eigenvalue with its generalized eigenspace.

    basis spans ker((g - value*I)^multiplicity); for real eigenvalues the
    basis is real, for complex ones it is complex and the conjugate
    eigenvalue carries the conjugate basis.
    """

    value: complex
    multiplicity: int
    basis: np.ndarray


def _null_basis(m: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the `dim`-dimensional null space."""
    _, _, vh = np.linalg.svd(m)
    return vh[-dim:, :].conj().T


def eig_real(g, eps_cluster: float = defaults.EPS_CLUSTER):
    """Clustered spectrum of a real matrix.

    Returns a list of EigenBlock sorted by descending modulus with ties
    broken by descending real part then ascending imaginary part.  Nearby
    eigenvalues (within eps_cluster relative) are merged into one block so
    defective matrices report their Jordan structure instead of spurious
    simple eigenvalues.
    """
    g = as_matrix(g)
    try:
        vals = np.linalg.eigvals(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = eps_cluster * scale

    remaining = sorted(vals, key=_spectral_key)
    clusters = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        rest = []
        for lam in remaining:
            if abs(lam - np.mean(members)) <= tol:
                members.append(lam)
            else:
                rest.append(lam)
        remaining = rest
        clusters.append(members)

    # Canonicalize: a cluster straddling the real axis is real; otherwise
    # pair it with its conjugate cluster.
    blocks = []
    done = [False] * len(clusters)
    for i, members in enumerate(clusters):
        if done[i]:
            continue
        mean = complex(np.mean(members))
        mult = len(members)
        if abs(mean.imag) <= tol:
            lam = complex(mean.real, 0.0)
            basis = _null_basis(
                np.linalg.matrix_power(g - lam.real * np.eye(g.shape[0]), mult), mult
            )
            basis = np.real(basis)
            # Re-orthonormalize after taking real parts.
            basis, _ = np.linalg.qr(basis)
            blocks.append(EigenBlock(lam, mult, basis))
            done[i] = True
            continue
        # Find the conjugate cluster.
        partner = None
        for j in range(len(clusters)):
            if j != i and not done[j]:
                pm = complex(np.mean(clusters[j]))
                if abs(pm - mean.conjugate()) <= 2 * tol:
                    partner = j
                    break
        if partner is None:
            raise NoConvergence("complex eigenvalue cluster without conjugate partner")
        lam = mean if mean.imag > 0 else mean.conjugate()
        basis = _null_basis(
            np.linalg.matrix_power(g - lam * np.eye(g.shape[0], dtype=complex), mult),
            mult,
        )
        blocks.append(EigenBlock(lam, mult, basis))
        blocks.append(EigenBlock(lam.conjugate(), mult, basis.conj()))
        done[i] = True
        done[partner] = True

    blocks.sort(key=lambda b: _spectral_key(b.value))
    return blocks


def singular_values(g, sweep_factor: int = defaults.SWEEP_FACTOR) -> np.ndarray:
    """Descending singular values via cyclic Jacobi on g.T @ g."""
    g = as_matrix(g)
    w, _ = jacobi_eigh(g.T @ g, sweep_factor)
    return np.sqrt(np.clip(w, 0.0, None))


def svd_frames(g, sweep_factor: int = defaults.SWEEP_FACTOR):
    """Full SVD g = k1 @ diag(sigma) @ k2 built on the Jacobi kernel.

    Returns (k1, sigma, k2) with sigma descending.  No sign or determinant
    canonicalization is applied here; see decompositions.cartan_decompose.
    """
    g = as_matrix(g)
    w, v = jacobi_eigh(g.T @ g, sweep_factor)
    sigma = np.sqrt(np.clip(w, 1e-300, None))
    k1 = (g @ v) / sigma
    # Columns are orthogonal in exact arithmetic; polish once.
    k1, _ = np.linalg.qr(k1)
    # Fix any sign flips introduced by the polish.
    signs = np.sign(np.sum(k1 * ((g @ v) / sigma), axis=0))
    signs[signs == 0] = 1.0
    k1 = k1 * signs
    k2 = (k1 / sigma).T @ g
    return k1, sigma, k2


def _check_symmetric(s: np.ndarray, eps_lin: float):
    if np.linalg.norm(s - s.T) > eps_lin * max(1.0, np.linalg.norm(s)):
        raise NotSymmetric("input is not symmetric within tolerance")


def sym_exp_log(direction: str, s, eps_lin: float = defaults.EPS_LIN) -> np.ndarray:
    """Matrix exp/log of a symmetric matrix via Jacobi eigendecomposition."""
    s = as_matrix(s)
    _check_symmetric(s, eps_lin)
    w, v = jacobi_eigh(s)
    if direction == "exp":
        return (v * np.exp(w)) @ v.T
    if direction == "log":
        if np.any(w <= 0):
            raise NotPositiveDefinite("log requires a positive definite input")
        return (v * np.log(w)) @ v.T
    raise ValueError(f"direction must be 'exp' or 'log', got {direction!r}")


def _rank_singular_values(m: np.ndarray) -> np.ndarray:
    # Rank decisions need singular values accurate down to eps * sigma_1;
    # squaring into the Gram matrix would floor exact deficiencies at
    # sqrt(eps), inside the borderline band, so go through the direct SVD.
    return np.linalg.svd(m, compute_uv=False)


def rank_tol(m, tol: float = defaults.EPS_RANK) -> int:
    """Number of singular values above tol * sigma_1 (0 for the zero matrix)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    if m.ndim == 1:
        m = m.reshape(1, -1)
    sig = _rank_singular_values(m)
    if sig[0] == 0.0:
        return 0
    return int(np.sum(sig > tol * sig[0]))


def rank_with_band(m, tol: float = defaults.EPS_RANK):
    """rank_tol plus a flag telling whether the decision was borderline.

    The decision is borderline when some relative singular value lies in
    (tol/10, tol*10); callers treating the rank as load-bearing should
    reject such inputs.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0 or not np.any(m):
        return 0, False
    if m.ndim == 1:
        m = m.reshape(1, -1)
    sig = _rank_singular_values(m)
    if sig[0] == 0.0:
        return 0, False
    rel = sig / sig[0]
    borderline = bool(np.any((rel > tol / 10.0) & (rel < tol * 10.0)))
    return int(np.sum(rel > tol)), borderline


# ---------------------------------------------------------------------------
# Graded stacks e^{diag a} m


def compound(m: np.ndarray, k: int) -> np.ndarray:
    """k-th exterior power of each matrix in the stack."""
    n = m.shape[-1]
    idx = list(combinations(range(n), k))
    rows = []
    for r in idx:
        rows.append(
            np.stack(
                [np.linalg.det(m[:, list(r)][:, :, list(c)]) for c in idx],
                axis=1,
            )
        )
    return np.stack(rows, axis=1)


def combo_sums(a: np.ndarray, k: int) -> np.ndarray:
    """Sums of a over every k-subset of its columns (compound log-weights)."""
    n = a.shape[1]
    return np.stack(
        [a[:, list(c)].sum(axis=1) for c in combinations(range(n), k)], axis=1
    )


def _retriangularize(a, m):
    """(b, u) with e^{diag b} u sharing the singular values of e^{diag a} m.

    Transposed, the row scales become column scales, which commute with
    QR: sorting them descending, m_s^T e^{a_s} = Q R e^{a_s}, and
    R e^{a_s} = e^{diag b} u with b_i = a_s,i + log|r_ii| and
    u_ij = (r_ij / r_ii) e^{a_s,j - a_s,i}, whose exponents are <= 0 above
    the diagonal.  So u is unit upper triangular with moderate entries and
    b descends up to moderate terms, whatever the order of a."""
    order = np.argsort(-a, axis=1, kind="stable")
    a_s = np.take_along_axis(a, order, axis=1)
    m_s = np.take_along_axis(m, order[:, :, None], axis=1)
    r = np.linalg.qr(m_s.transpose(0, 2, 1), mode="r")
    rd = np.einsum("nii->ni", r)
    expo = np.minimum(a_s[:, None, :] - a_s[:, :, None], 0.0)
    u = np.triu(r / rd[:, :, None] * np.exp(expo))
    return a_s + np.log(np.abs(rd)), u


def _exterior_log_singular_values(b, u):
    """Log singular values of e^{diag b} u (u unit upper triangular).

    log(s_1 ... s_k) is the log top singular value of the k-th exterior
    power with its row weights kept symbolic, which no spread underflows."""
    count, n = b.shape
    cum = np.zeros((n + 1, count))
    for k in range(1, n):
        w = combo_sums(b, k)
        cu = u if k == 1 else compound(u, k)
        shift = w.max(axis=1)
        m = np.exp(w - shift[:, None])[:, :, None] * cu
        sig = np.linalg.svd(m, compute_uv=False)[:, 0]
        cum[k] = np.log(np.maximum(sig, 1e-300)) + shift
    cum[n] = b.sum(axis=1)
    return np.sort(np.diff(cum, axis=0).T, axis=1)[:, ::-1]


def graded_log_singular_values(a, m):
    """Descending log singular values of each e^{diag a} m in a stack.

    After _retriangularize the scales descend, and one scaled LAPACK SVD
    of the row-graded triangular factor keeps the small singular values
    to relative accuracy (Demmel & Veselic 1992); a plain SVD of the
    assembled product keeps only the largest.  Rows whose scales spread
    wider than defaults.GRADED_SPREAD would underflow once scaled and
    take the exact exterior-power route instead."""
    b, u = _retriangularize(a, m)
    out = np.empty_like(b)
    wide = np.ptp(b, axis=1) > defaults.GRADED_SPREAD
    fit = ~wide
    shift = b[fit].max(axis=1)
    sig = np.linalg.svd(
        np.exp(b[fit] - shift[:, None])[:, :, None] * u[fit], compute_uv=False
    )
    out[fit] = np.log(sig) + shift[:, None]
    if wide.any():
        out[wide] = _exterior_log_singular_values(b[wide], u[wide])
    return out
