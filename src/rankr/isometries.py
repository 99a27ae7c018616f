"""Classification and dynamics of individual isometries of SL(n,R)/SO(n).

The multiplicative Jordan decomposition gamma = e * h * u is computed on
the clustered generalized eigenspaces: per block with eigenvalue lambda,
h acts by |lambda|, e by lambda/|lambda| and u collects the unipotent
remainder.  The translation vector is the descending vector of the
blocks' log-moduli; its chamber position drives the classification.
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

# Residual below which a factor counts as the identity.
_ID_TOL = 1e-8

# Clustering tolerances jordan_decompose tries in turn.
_CLUSTER_TOLS = (defaults.EPS_CLUSTER, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2)


@dataclass
class JordanParts:
    e: np.ndarray  # elliptic
    h: np.ndarray  # hyperbolic
    u: np.ndarray  # unipotent
    blocks: list  # the accepted clustered spectrum (kernel.EigenBlock)
    translation: np.ndarray  # descending centred log-moduli of the blocks

    def reconstruct(self) -> np.ndarray:
        return self.e @ self.h @ self.u


@dataclass
class IsometryClass:
    tag: str  # elliptic | regular-axial | nonregular-axial |
    #           strictly-parabolic | mixed-parabolic
    parts: JordanParts  # the decomposition the tag was read from
    translation = property(lambda self: self.parts.translation)


def _block_transform(blocks):
    """Complex basis matrix whose columns list all generalized eigenspaces."""
    cols = [b.basis.astype(complex) for b in blocks]
    values = np.concatenate(
        [np.full(b.multiplicity, b.value, dtype=complex) for b in blocks]
    )
    return np.concatenate(cols, axis=1), values


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
        blocks = kernel.eig_real(gamma, tol)
        s, values = _block_transform(blocks)
        cond = np.linalg.cond(s)
        if cond > defaults.COND_CAP:
            last = f"eigenbasis condition number {cond:.3e}"
            continue
        s_inv = np.linalg.inv(s)
        moduli = np.abs(values)
        h = (s * moduli) @ s_inv
        e = (s * (values / moduli)) @ s_inv
        imag = max(np.abs(h.imag).max(), np.abs(e.imag).max())
        if imag > 1e-7 * max(1.0, np.abs(h.real).max()):
            last = f"imaginary residual {imag:.3e} in Jordan parts"
            continue
        h = h.real
        e = e.real
        u = np.linalg.solve(e @ h, gamma)
        # A wrong merge of genuinely distinct moduli shows up here.
        drift = np.abs(np.linalg.eigvals(u) - 1.0).max()
        if drift > 5e-2:
            last = f"unipotent factor drift {drift:.3e}"
            continue
        ell = np.sort(np.log(moduli))[::-1]
        return JordanParts(e, h, u, blocks, ell - ell.mean())
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
    if np.linalg.norm(gamma - np.eye(n)) <= _ID_TOL:
        raise IdentityInput("the identity is not classified")
    parts = jordan_decompose(gamma)
    ell = parts.translation
    scale = max(1.0, float(np.linalg.norm(gamma)))
    translating = np.linalg.norm(ell) > _ID_TOL
    unipotent_part = np.linalg.norm(parts.u - np.eye(n)) > _ID_TOL * scale
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


def _real_eigenbasis(blocks, u):
    """Real basis matrix of the generalized eigenspaces of a clustered
    spectrum (eig_real's order, modulus-descending), and the sizes of the
    runs of its columns whose order is part of the flag.

    Complex pairs contribute (Re, Im) column pairs.  The columns of a
    defective real block follow the kernel chain of the unipotent part u
    on it, so the flags they span inside the block are fixed; such a block
    is one run, and every other column a run of its own.  The basis is
    normalized to determinant +1 (column sign flips leave flags alone).
    """
    shift = u - np.eye(u.shape[0])
    tol = _ID_TOL * max(1.0, float(np.linalg.norm(u)))
    cols = []
    runs = []
    for b in blocks:
        if abs(b.value.imag) == 0.0:
            basis = np.real(b.basis)
            nilp = basis.T @ shift @ basis
            if b.multiplicity > 1 and np.linalg.norm(nilp) > tol:
                cols.append(basis @ _kernel_chain(nilp))
                runs.append(b.multiplicity)
            else:
                cols.append(basis)
                runs += [1] * b.multiplicity
        elif b.value.imag > 0:
            for j in range(b.basis.shape[1]):
                cols.append(np.real(b.basis[:, j : j + 1]))
                cols.append(np.imag(b.basis[:, j : j + 1]))
            runs += [1] * (2 * b.basis.shape[1])
        # Im < 0 partners are the conjugates of the Im > 0 blocks: skip.
    g = np.concatenate(cols, axis=1)
    d = np.linalg.det(g)
    if abs(d) < 1e-12:
        raise IllConditionedSpectrum("generalized eigenbasis is numerically singular")
    if d < 0:
        g[:, 0] *= -1.0
        d = -d
    return g / d ** (1.0 / g.shape[0]), runs


def fixed_points(gamma):
    """Attractive and repulsive fixed points of a translating isometry.

    gamma+ = (flag of pi_I(g), L/||L||) with g the modulus-ordered
    generalized eigenbasis; gamma- = (flag of pi_I(g m_w*^-1), iota(L)/||L||).
    L and g come from the one clustered spectrum jordan_decompose accepts.
    A defective block keeps its kernel-chain column order in both frames,
    so the flags of mixed-parabolic elements are fixed too.
    """
    parts = jordan_decompose(gamma)
    ell = parts.translation
    nl = np.linalg.norm(ell)
    if nl <= defaults.EPS_WALL:
        raise NotTranslating("translation vector vanishes")
    g, runs = _real_eigenbasis(parts.blocks, parts.u)
    # The repelling frame lists the runs in reverse order, each in its own
    # order; with one column per run that is w*.
    n = len(ell)
    ends = np.cumsum(runs)
    wrev = lie.WeylElem(
        [n - end + i for end, size in zip(ends, runs) for i in range(size)]
    )
    plus, minus = boundary.canonical_frames(
        kernel.qr_pos(np.stack([g, g @ wrev.matrix().T]))[0]
    )
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
    a_plus = float(np.min(ell[:-1] - ell[1:]))
    iota = lie.opposition(ell)
    a_minus = float(np.min(iota[:-1] - iota[1:]))
    return a_plus, a_minus


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


def _kernel_chain(nilp) -> np.ndarray:
    """Orthonormal frame whose first i columns span ker(nilp^i), for a
    nilpotent nilp that is one Jordan block."""
    n = nilp.shape[0]
    prev = np.zeros((n, 0))
    for i in range(1, n + 1):
        power = np.linalg.matrix_power(nilp, i)
        basis = np.real(kernel._null_basis(power, i))
        # New direction: the part of ker^i orthogonal to the chain so far.
        resid = basis - prev @ (prev.T @ basis)
        j = int(np.argmax(np.linalg.norm(resid, axis=0)))
        v = resid[:, j] / np.linalg.norm(resid[:, j])
        prev = np.concatenate([prev, v[:, None]], axis=1)
    return prev


def unipotent_fixed_flag(gamma) -> boundary.Flag:
    """The kernel-chain flag of a regular unipotent isometry.

    P_i projects onto ker((gamma - I)^i); for a single Jordan block this is
    the unique fixed full flag.
    """
    gamma = kernel.as_matrix(gamma)
    return boundary.flag_from_frame(_kernel_chain(gamma - np.eye(gamma.shape[0])))


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
        outcome = {"outcome": "inconclusive", "escape_index": None}
        escape_n = None
        for sign_mat in (gamma, inv):
            current = flag
            last_inside = 0
            for j in range(1, jmax + 1):
                current = boundary.act_flag(sign_mat, current)
                _, margin = boundary.transverse(current, eta.flag)
                if margin >= delta:
                    last_inside = j
            if last_inside >= jmax:
                escape_n = None
                break
            escape_n = max(escape_n or 0, last_inside + 1)
        if escape_n is not None:
            outcome = {"outcome": "escaped", "escape_index": escape_n}
        results.append(outcome)
    return {
        "delta": delta,
        "jmax": jmax,
        "samples": results,
        "fixed_flag_found": any(r["outcome"] == "fixed" for r in results),
        "all_escaped": all(r["outcome"] == "escaped" for r in results),
    }
