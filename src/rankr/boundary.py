"""The geometric boundary of SL(n,R)/SO(n) and the full-flag boundary K/M.

A flag is stored as one canonical frame, computed once from the chain of
orthogonal projectors P_1, ..., P_{n-1} (rank i, nested).  Projectors are
blind to the column signs of a generating frame, so the quotient by
M = {diagonal +-1, det 1} is exact.  Canonical frames are computed on
(N, n, n) stacks (canonical_frames); Flag(frame) canonicalises its own
frame as a one-row call, so every Flag holds a canonical frame.
Flag distances never build projectors: for frames C and F and
M = C^T F, ||P_k(F) - P_k(C)||_F^2 is 2 ||M[k:, :k]||_F^2, a sum of
squares with no cancellation, so the flag distance keeps its relative
accuracy on nearly equal flags.

A boundary point is a pair (flag, unit chamber direction H); the G-action
moves the flag through the Iwasawa K-part of g k and never changes H.
busemann reads the Iwasawa a-parts of both points off one
kernel.qr_decompose of a two-matrix stack; act and act_flag take one
kernel.qr_decompose and one Flag.
"""

from dataclasses import dataclass

import numpy as np

from . import decompositions, defaults, kernel, lie
from .errors import DimensionMismatch, NotOrthogonal, SingularMatrix, ZeroVector


class Flag:
    """A full flag in R^n, stored as its canonical frame (see canonical_frames).

    The flag of frame has frame's first i columns spanning its i-th space."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        self.frame = canonical_frames(kernel.as_matrix(frame)[None])[0]

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    def __repr__(self):
        return f"Flag(n={self.n})"


@dataclass
class BoundaryPoint:
    flag: Flag
    direction: np.ndarray  # unit norm, in the closed chamber

    @property
    def n(self) -> int:
        return self.flag.n

    def is_regular(self) -> bool:
        return lie.chamber_classify(self.direction)[0] == "interior"


def boundary_point(flag: Flag, direction) -> BoundaryPoint:
    """(flag, direction / ||direction||) for a finite, nonzero direction
    in the closed chamber with flag.n entries; raises otherwise."""
    h = np.asarray(direction, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("direction must be finite")
    h = lie.as_cartan_vec(h)
    if h.shape != (flag.n,):
        raise DimensionMismatch(f"direction of length {len(h)} for n = {flag.n}")
    with np.errstate(over="ignore", under="ignore"):
        nh = np.linalg.norm(h)
    if nh == 0.0:
        raise ZeroVector("direction must be nonzero")
    if nh == np.inf:
        raise ValueError("direction norm overflows")
    if abs(nh - 1.0) > 1e-12:
        h = h / nh
    kind, _ = lie.chamber_classify(h)
    if kind == "outside":
        raise ValueError("direction must lie in the closed chamber")
    return BoundaryPoint(flag, h)


def canonical_frames(frames) -> np.ndarray:
    """Canonical frames of the flags of an (N, n, n) stack of frames.

    The flag of frame k has k's first i columns spanning its i-th space.
    Raises NotOrthogonal when some ||k^T k - I||_F exceeds 1e-8.  The
    canonical frame is read off the projector chain P_1, ..., P_{n-1}, I,
    which is blind to column signs: column i is the largest-norm column of
    P_i - P_{i-1}, normalised, and kernel.canonical_signs makes each
    column's largest entry positive and det +1.  So every frame of a flag
    (k m for any m in M) yields the same canonical frame.  The result is
    read-only: flag_frame hands out these arrays themselves.
    """
    count, n, _ = frames.shape
    gram = np.matmul(frames.transpose(0, 2, 1), frames) - np.eye(n)
    if not np.all(np.square(gram).sum(axis=(1, 2)) <= 1e-16):
        raise NotOrthogonal("frame is not orthogonal")
    # diffs[:, i] = P_i - P_{i-1}, with P_0 = 0 and P_n = I exactly.
    chain = np.zeros((count, n + 1, n, n))
    chain[:, 1:n] = frames_to_projector_stack(frames)
    chain[:, n] = np.eye(n)
    diffs = chain[:, 1:] - chain[:, :-1]
    which, piece = np.arange(count)[:, None], np.arange(n)
    pick = np.sqrt(np.add.reduce(diffs * diffs, axis=2)).argmax(axis=2)
    # Row i of cols is column pick[i] of P_i - P_{i-1}, a fresh C-ordered
    # array.  vecdot on these contiguous rows is the same BLAS dot as a 1-D
    # norm, so the result is bit for bit that of one column at a time.
    cols = diffs[which, piece, :, pick]
    cols /= np.sqrt(np.vecdot(cols, cols))[..., None]
    out = cols.transpose(0, 2, 1).copy()
    out *= kernel.canonical_signs(out)[:, None, :]
    out.flags.writeable = False
    return out


def flag_from_frame(k) -> Flag:
    """The flag whose i-th space is spanned by the first i columns of k."""
    return Flag(k)


def flag_frame(flag: Flag) -> np.ndarray:
    """The canonical det +1 orthonormal frame generating the flag."""
    return flag.frame


def standard_flag(n: int) -> Flag:
    return flag_from_frame(np.eye(n))


def reversed_flag(n: int) -> Flag:
    return flag_from_frame(np.eye(n)[:, ::-1].copy())


def flag_distance(f1: Flag, f2: Flag) -> float:
    """max_i ||P_i(f1) - P_i(f2)||_F; a metric on flags."""
    if f1.n != f2.n:
        raise DimensionMismatch(f"{f1.n} vs {f2.n}")
    return float(flag_distances_to_center(f2.frame[None], f1)[0])


def flags_equal(f1: Flag, f2: Flag) -> bool:
    return flag_distance(f1, f2) <= defaults.EPS_FLAG


def act(g, xi: BoundaryPoint) -> BoundaryPoint:
    """Boundary action: the flag moves by the Iwasawa K-part of g k."""
    return BoundaryPoint(act_flag(g, xi.flag), xi.direction.copy())


def act_flag(g, flag: Flag) -> Flag:
    return flag_from_frame(kernel.qr_decompose(kernel.as_matrix(g @ flag.frame))[0])


def transverse(f1: Flag, f2: Flag):
    """Mutual opposition of two flags, with a scale-free margin in (0, 1].

    For each i the i-dimensional piece of f1 must complement the
    (n-i)-dimensional piece of f2; the margin is the minimum |det| of the
    joined orthonormal frames (a product of sines of principal angles).
    """
    if f1.n != f2.n:
        raise DimensionMismatch(f"{f1.n} vs {f2.n}")
    n = f1.n
    # Row i - 1 of cols lists the columns of [f1 | f2] joined for piece i.
    i, j = np.arange(1, n)[:, None], np.arange(n)
    cols = np.where(j < i, j, n + j - i)
    joined = np.concatenate([f1.frame, f2.frame], axis=1)[:, cols].transpose(1, 0, 2)
    margin = min(1.0, float(np.abs(np.linalg.det(joined)).min()))
    return margin > defaults.EPS_TRANSV, margin


def busemann(xi: BoundaryPoint, gx, gy) -> float:
    """Busemann cocycle B_xi(x, y) in closed form.

    B_xi(g1.o, g2.o) = <H, a_iw(g1^-1 k)> - <H, a_iw(g2^-1 k)> where k is a
    frame of xi's flag and a_iw the Iwasawa a-part, log diag R of one
    kernel.qr_decompose of the stack [g1^-1 k, g2^-1 k]; the sign
    convention is pinned by the finite-ray oracle (busemann_oracle).
    """
    pair = np.stack([kernel.as_matrix(gx), kernel.as_matrix(gy)])
    try:
        moved = np.linalg.solve(pair, xi.flag.frame)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"cannot solve against the points: {exc}") from exc
    a = np.log(np.diagonal(kernel.qr_decompose(moved)[1], axis1=1, axis2=2))
    return float(xi.direction @ (a[0] - a[1]))


def busemann_oracle(xi: BoundaryPoint, gx, gy) -> float:
    """Finite-ray Busemann estimate, Richardson-extrapolated in 1/s.

    Evaluates d(x, sigma(s)) - d(y, sigma(s)) on the defining ray
    sigma(s) = k e^{Hs} o at s = 64, 128, 256 and extrapolates the
    polynomial part of the 1/s expansion to s = infinity.
    """
    k = flag_frame(xi.flag)
    ax = np.linalg.solve(kernel.as_matrix(gx), k)
    ay = np.linalg.solve(kernel.as_matrix(gy), k)
    xs = []
    fs = []
    for s in (64.0, 128.0, 256.0):
        v = xi.direction * s
        # The Cartan projections of ax e^{diag v} and ay e^{diag v}, from
        # the graded SVD of their transposes: a plain SVD of the assembled
        # matrix would lose the small singular values to roundoff.
        cx, cy = kernel.graded_svd(np.stack([v, v]), np.stack([ax.T, ay.T]))[0]
        f = float(np.linalg.norm(cx) - np.linalg.norm(cy))
        xs.append(1.0 / s)
        fs.append(f)
    # Lagrange extrapolation to x = 0.
    total = 0.0
    for i, (xi_, fi) in enumerate(zip(xs, fs)):
        w = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                w *= (0.0 - xj) / (xi_ - xj)
        total += w * fi
    return float(total)


def directional_distance(xi: BoundaryPoint, gx, gy) -> float:
    """<H_xi, H(x, y)>: the supremum of B over the G-orbit of xi."""
    return float(xi.direction @ decompositions.cartan_vector(gx, gy))


def boundary_converges(seq, xi: BoundaryPoint, eps: float) -> bool:
    """True iff the tail of seq is eps-close to xi in flag and direction."""
    if not seq:
        return False
    last = seq[-1]
    return bool(
        flag_distance(last.flag, xi.flag) < eps
        and np.linalg.norm(last.direction - xi.direction) < eps
    )


# ---------------------------------------------------------------------------
# Batched helpers (used by the Schottky certifier and the orbit enumerator).


def frames_to_projector_stack(frames: np.ndarray) -> np.ndarray:
    """(N, n, n) frames -> (N, n-1, n, n) projector chains."""
    n = frames.shape[-1]
    outer = np.einsum("nik,njk->nkij", frames, frames)
    return np.cumsum(outer, axis=1)[:, : n - 1]


def standard_flag_distances(frames: np.ndarray) -> np.ndarray:
    """Flag distance from the standard flag to the flag of each (N, n, n)
    orthonormal frame: sqrt(2) max_k ||frame[k:, :k]||_F."""
    n = frames.shape[-1]
    # blocks[k - 1] selects the entries (i, j) with i >= k > j, so one
    # product of the squared entries gives every ||frame[k:, :k]||_F^2.
    i, j = np.indices((n, n))
    k = np.arange(1, n)[:, None, None]
    blocks = ((i >= k) & (j < k)).reshape(n - 1, n * n).astype(float)
    lower = blocks @ np.square(frames).reshape(-1, n * n).T
    return np.sqrt(2.0 * lower.max(axis=0))


def flag_distances_to_center(frames: np.ndarray, center: Flag) -> np.ndarray:
    """Flag distance of the flag of each (N, n, n) frame to a center flag,
    taken from the frames relative to the center's, center^T @ frame."""
    return standard_flag_distances(np.matmul(center.frame.T, frames))


def act_frames(g, frames: np.ndarray) -> np.ndarray:
    """Apply g to a batch of flag frames; returns Iwasawa K-frames."""
    prod = np.einsum("ij,njk->nik", np.asarray(g, dtype=float), frames)
    return kernel.qr_pos(prod)[0]


def random_frames(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Haar-random SO(n) frames (batched)."""
    q = kernel.qr_pos(rng.standard_normal((count, n, n)))[0]
    dets = np.linalg.det(q)
    q[dets < 0, :, -1] *= -1.0
    return q


def random_flag(rng: np.random.Generator, n: int) -> Flag:
    return flag_from_frame(random_frames(rng, 1, n)[0])
