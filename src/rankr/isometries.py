"""Classification and dynamics of individual isometries of SL(n,R)/SO(n).

The multiplicative Jordan decomposition gamma = e * h * u is computed in
the one real basis of the clustered generalized eigenspaces that
kernel.eig_real returns: per cluster with eigenvalue lambda, h acts by
|lambda|, e by lambda/|lambda| (a rotation on each complex pair's plane)
and u collects the unipotent remainder; the fixed flags are read from
the same basis.  The translation vector is the descending vector of the
clusters' log-moduli; its chamber position drives the classification.
"""

from dataclasses import dataclass

import numpy as np

from . import boundary, defaults, kernel, lie
from .errors import (
    IdentityInput,
    IllConditionedSpectrum,
    NotFixed,
    NotParabolic,
    NotRegularAxial,
    NotTranslating,
)

# Clustering tolerances jordan_decompose tries in turn.
_CLUSTER_TOLS = (defaults.EPS_CLUSTER, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2)


@dataclass
class JordanParts:
    e: np.ndarray  # elliptic
    h: np.ndarray  # hyperbolic
    u: np.ndarray  # unipotent
    translation: np.ndarray  # descending centred log-moduli of the clusters
    basis: np.ndarray  # the real generalized eigenbasis (kernel.eig_real)
    runs: list  # sizes of the runs of basis columns whose order is fixed

    def reconstruct(self) -> np.ndarray:
        return self.e @ self.h @ self.u


@dataclass
class IsometryClass:
    tag: str  # elliptic | regular-axial | nonregular-axial |
    #           strictly-parabolic | mixed-parabolic
    parts: JordanParts  # the decomposition the tag was read from
    translation = property(lambda self: self.parts.translation)


def jordan_decompose(gamma) -> JordanParts:
    """Multiplicative Jordan decomposition gamma = e h u (pairwise commuting).

    A Jordan block of size k scatters its computed eigenvalues over a disc
    of radius about eps**(1/k), so the clustering tolerance escalates until
    the generalized eigenbasis is well conditioned and the unipotent factor
    really is unipotent; failing every level is reported as an unreliable
    spectrum.
    """
    gamma = kernel.as_matrix(gamma)
    last = None
    for tol in _CLUSTER_TOLS:
        g, runs, values = kernel.eig_real(gamma, tol)
        cond = np.linalg.cond(g)
        if cond > defaults.COND_CAP:
            last = f"eigenbasis condition number {cond:.3e}"
            continue
        g_inv = np.linalg.inv(g)
        moduli = np.abs(values)
        phase = values / moduli
        # The (Re, Im) columns of a pair swap: e rotates the pair's plane.
        partner = np.arange(len(values)) + np.sign(values.imag).astype(int)
        h = (g * moduli) @ g_inv
        e = (g * phase.real - g[:, partner] * phase.imag) @ g_inv
        u = np.linalg.solve(e @ h, gamma)
        # A wrong merge of genuinely distinct moduli shows up here.
        drift = np.abs(np.linalg.eigvals(u) - 1.0).max()
        if drift > 5e-2:
            last = f"unipotent factor drift {drift:.3e}"
            continue
        ell = np.sort(np.log(moduli))[::-1]
        return JordanParts(e, h, u, ell - ell.mean(), g, runs)
    raise IllConditionedSpectrum(last or "no admissible eigenvalue clustering")


def translation_vector(gamma) -> np.ndarray:
    """Descending log-moduli of the eigenvalues; L(gamma) = L(h).

    Read from the clusters jordan_decompose accepts: the raw eigenvalues
    of a defective matrix scatter at eps**(1/k) in modulus, which would
    leak into L; a cluster mean, like h, has none of that.  Raises
    IllConditionedSpectrum wherever jordan_decompose does.
    """
    return jordan_decompose(gamma).translation


def classify(gamma) -> IsometryClass:
    gamma = kernel.as_matrix(gamma)
    n = gamma.shape[0]
    if np.linalg.norm(gamma - np.eye(n)) <= kernel.ID_TOL:
        raise IdentityInput("the identity is not classified")
    parts = jordan_decompose(gamma)
    ell = parts.translation
    scale = max(1.0, float(np.linalg.norm(gamma)))
    translating = np.linalg.norm(ell) > kernel.ID_TOL
    unipotent_part = np.linalg.norm(parts.u - np.eye(n)) > kernel.ID_TOL * scale
    if not translating and not unipotent_part:
        tag = "elliptic"
    elif not translating:
        tag = "strictly-parabolic"
    elif not unipotent_part:
        kind, _ = lie.chamber_classify(ell)
        tag = "regular-axial" if kind == "interior" else "nonregular-axial"
    else:
        tag = "mixed-parabolic"
    return IsometryClass(tag, parts)


def fixed_points(gamma):
    """Attractive and repulsive fixed points of a translating isometry.

    gamma+ = (flag of pi_I(g), L/||L||) with g the modulus-ordered
    generalized eigenbasis; gamma- = (flag of g with its runs in reverse
    order, iota(L)/||L||).  L and g come from the one decomposition
    jordan_decompose accepts.  A defective block keeps its kernel-chain
    column order in both frames, so the flags of mixed-parabolic elements
    are fixed too.  gamma rotates the plane of a complex pair, so of a
    flag only the pieces that end at a pair boundary are fixed; the
    pieces that cut a pair's plane only refine that fixed partial flag.
    """
    parts = jordan_decompose(gamma)
    ell = parts.translation
    nl = np.linalg.norm(ell)
    if nl <= defaults.EPS_WALL:
        raise NotTranslating("translation vector vanishes")
    g = parts.basis
    pieces = np.split(g, np.cumsum(parts.runs)[:-1], axis=1)
    plus, minus = kernel.qr_pos(np.stack([g, np.concatenate(pieces[::-1], axis=1)]))[0]
    return (
        boundary.BoundaryPoint(boundary.Flag(plus), ell / nl),
        boundary.BoundaryPoint(boundary.Flag(minus), lie.opposition(ell) / nl),
    )


def contraction_factor(gamma):
    """(alpha_+ ||L||, alpha_- ||L||) for a regular axial isometry.

    alpha_+ ||L|| = min over positive roots of alpha(L); the operator norm
    of Ad(h^-1) on the root space E_ij (in the eigenbasis) is exactly
    e^{-(L_i - L_j)}, so this bounds the per-step boundary contraction.
    """
    cls = classify(gamma)
    if cls.tag != "regular-axial":
        raise NotRegularAxial(f"classify says {cls.tag}")
    ell = cls.translation
    # The opposition iota(L) = -L[::-1] has L's gaps in reverse order, so
    # alpha_- ||L|| is the same minimal gap.
    alpha = float(np.min(ell[:-1] - ell[1:]))
    return alpha, alpha


def is_generic_parabolic(gamma) -> bool:
    """Unique-fixed-flag criterion for strictly parabolic isometries.

    Operationally on SL(n,R): the unipotent part must be regular, i.e. a
    single Jordan block (rank(u - I) = n - 1).
    """
    cls = classify(gamma)
    if cls.tag != "strictly-parabolic":
        raise NotParabolic(f"classify says {cls.tag}")
    n = cls.parts.u.shape[0]
    return kernel.rank_tol(cls.parts.u - np.eye(n)) == n - 1


def unipotent_fixed_flag(gamma) -> boundary.Flag:
    """The kernel-chain flag of a regular unipotent isometry.

    P_i projects onto ker((gamma - I)^i); for a single Jordan block this is
    the unique fixed full flag.
    """
    gamma = kernel.as_matrix(gamma)
    chain = kernel._kernel_chain(gamma - np.eye(gamma.shape[0]))
    return boundary.flag_from_frame(chain)


def parabolic_escape_test(
    gamma,
    eta: boundary.BoundaryPoint,
    samples,
    jmax: int,
    delta: float = 1e-3,
):
    """Dichotomy check for a strictly parabolic isometry.

    Each sample flag is iterated under gamma^{+-1}; the report records, per
    sample and sign, either the first index after which the transversality
    margin to eta's flag stays below delta up to jmax ("escaped"), a
    numerically fixed flag inside the transversal set ("fixed"), or
    "inconclusive" if jmax was too small.
    """
    gamma = kernel.as_matrix(gamma)
    cls = classify(gamma)
    if cls.tag != "strictly-parabolic":
        raise NotParabolic(f"classify says {cls.tag}")
    moved = boundary.act(gamma, eta)
    if boundary.flag_distance(moved.flag, eta.flag) > 1e-6:
        raise NotFixed("eta is not fixed by gamma")
    inv = np.linalg.inv(gamma)
    results = []
    for flag in samples:
        if boundary.flag_distance(boundary.act_flag(gamma, flag), flag) < 1e-9:
            results.append({"outcome": "fixed", "escape_index": None})
            continue
        # The last index, under either sign, whose iterate is still at
        # least delta-transverse to eta's flag.
        last = 0
        for sign_mat in (gamma, inv):
            current = flag
            for j in range(1, jmax + 1):
                current = boundary.act_flag(sign_mat, current)
                if boundary.transverse(current, eta.flag)[1] >= delta:
                    last = max(last, j)
        if last < jmax:
            results.append({"outcome": "escaped", "escape_index": last + 1})
        else:
            results.append({"outcome": "inconclusive", "escape_index": None})
    return {
        "delta": delta,
        "jmax": jmax,
        "samples": results,
        "fixed_flag_found": any(r["outcome"] == "fixed" for r in results),
        "all_escaped": all(r["outcome"] == "escaped" for r in results),
    }
