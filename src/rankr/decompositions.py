"""Group decompositions of SL(n,R): Cartan (KAK), Iwasawa (KAN+), Bruhat.

The Cartan decomposition writes g = k1 e^{diag h} k2 with h the descending
log singular values (the Cartan projection); Iwasawa is QR read as
k * e^{diag a} * n with n unit upper triangular, by kernel.grade of r;
Bruhat cells are identified from the rank pattern of lower-left
submatrices.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel, lie
from .errors import IllConditionedCell, SingularMatrix


@dataclass
class KAK:
    """g = k1 @ exp(diag h) @ k2; h is unique, the frames are canonicalized."""

    k1: np.ndarray
    h: np.ndarray
    k2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.k1 * np.exp(self.h)) @ self.k2


@dataclass
class KAN:
    """g = k @ exp(diag a) @ nplus with nplus unit upper triangular."""

    k: np.ndarray
    a: np.ndarray
    nplus: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.k * np.exp(self.a)) @ self.nplus


def cartan_decompose(g) -> KAK:
    """Cartan decomposition with deterministic frames.

    The columns of k1 take kernel.canonical_signs (each column's
    largest-magnitude entry positive, det k1 = +1), mirrored into the rows
    of k2, so det k2 = +1 too when det g > 0.  SingularMatrix when a
    singular value is 0 or not finite: h would not be.
    """
    g = kernel.as_matrix(g)
    # LAPACK works on g itself; squaring into g.T @ g would lose every
    # singular value below sqrt(eps) * sigma_1.
    k1, sigma, k2 = np.linalg.svd(g)
    if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
        raise SingularMatrix(f"a singular value is 0 or not finite: {sigma.tolist()}")
    signs = kernel.canonical_signs(k1)
    k1 *= signs
    k2 *= signs[:, None]
    h = np.log(sigma)
    # Exact tracelessness for (numerically) SL input; log|det| far from zero
    # means the caller really passed a non-unimodular matrix, so keep it.
    if abs(h.sum()) < 1e-6 * max(1.0, np.abs(h).max()):
        h = h - h.mean()
    return KAK(k1, h, k2)


def cartan_vector(gx, gy) -> np.ndarray:
    """Cartan vector H(x, y) of the ordered pair of points gx.o, gy.o.

    The induced distance is d(x, y) = ||H(x, y)||.
    """
    gx = kernel.as_matrix(gx)
    gy = kernel.as_matrix(gy)
    return cartan_decompose(np.linalg.solve(gx, gy)).h


def point_distance(gx, gy) -> float:
    return float(np.linalg.norm(cartan_vector(gx, gy)))


def iwasawa(g) -> KAN:
    q, r = kernel.qr_decompose(kernel.as_matrix(g))
    return KAN(q, *kernel.grade(r, 0.0))


def bruhat_cell(g) -> lie.WeylElem:
    """The Weyl element w with g in N+ m_w P.

    Identified from the jumps of rank(g[i:, :j]) in j; left multiplication
    by N+ and right multiplication by P leave these ranks invariant.
    Raises IllConditionedCell when a decisive rank sits near the tolerance.
    """
    g = kernel.as_matrix(g)
    n = g.shape[0]
    ranks = np.zeros((n + 1, n + 1), dtype=int)
    for i in range(n):
        for j in range(1, n + 1):
            r, borderline = kernel.rank_with_band(g[i:, :j])
            if borderline:
                raise IllConditionedCell(
                    f"rank of lower-left block ({i},{j}) is numerically ambiguous"
                )
            ranks[i, j] = r
    perm = []
    for j in range(1, n + 1):
        w_j = None
        for i in range(n - 1, -1, -1):
            if ranks[i, j] > ranks[i, j - 1]:
                w_j = i
                break
        if w_j is None or w_j in perm:
            raise IllConditionedCell("rank pattern is not a permutation")
        perm.append(w_j)
    # perm holds, per column j, the lowest row index reached.
    return lie.WeylElem(perm)


def kappa(nplus) -> np.ndarray:
    """Frame of the flag asymptotic to the chamber n e^{-a+} o.

    kappa(n) is the Iwasawa K-part of n * m_{w*}.
    """
    nplus = kernel.as_matrix(nplus)
    wstar = lie.longest_weyl(nplus.shape[0])
    return kernel.qr_decompose(nplus @ wstar.matrix())[0]
