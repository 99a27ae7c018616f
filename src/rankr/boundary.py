"""The geometric boundary of SL(n,R)/SO(n) and the full-flag boundary K/M.

A flag is stored as one canonical frame, computed once from the chain of
orthogonal projectors P_1, ..., P_{n-1} (rank i, nested).  Projectors are
blind to the column signs of a generating frame, so the quotient by
M = {diagonal +-1, det 1} is exact.  Flag distances never build
projectors: for frames C and F and M = C^T F, ||P_k(F) - P_k(C)||_F^2 is
2 ||M[k:, :k]||_F^2, a sum of squares with no cancellation, so the flag
distance keeps its relative accuracy on nearly equal flags.

A boundary point is a pair (flag, unit chamber direction H); the G-action
moves the flag through the Iwasawa projection and never changes H.
"""

from dataclasses import dataclass

import numpy as np

from . import decompositions, defaults, kernel, lie
from .errors import DimensionMismatch, NotOrthogonal


class Flag:
    """A full flag in R^n, stored as its canonical frame (see flag_from_frame)."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        self.frame = frame

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def projectors(self) -> np.ndarray:
        """The nested chain P_1, ..., P_{n-1} as an (n-1, n, n) array."""
        return frames_to_projector_stack(self.frame[None])[0]

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
    h = lie.as_cartan_vec(direction)
    nh = np.linalg.norm(h)
    if abs(nh - 1.0) > 1e-12:
        h = h / nh
    kind, _ = lie.chamber_classify(h)
    if kind == "outside":
        raise ValueError("direction must lie in the closed chamber")
    return BoundaryPoint(flag, h)


def flag_from_frame(k) -> Flag:
    """The flag whose i-th space is spanned by the first i columns of k.

    Raises NotOrthogonal when ||k^T k - I||_F exceeds 1e-8.  The stored
    frame is read off the projector chain P_1, ..., P_{n-1}, I, which is
    blind to column signs: column i is the largest-norm column of
    P_i - P_{i-1}, normalised with its largest entry positive, and the
    last column's sign makes det +1.  So every frame of a flag (k m for
    any m in M) yields the same canonical frame.
    """
    k = kernel.as_matrix(k)
    n = k.shape[0]
    if np.linalg.norm(k.T @ k - np.eye(n)) > 1e-8:
        raise NotOrthogonal("frame is not orthogonal")
    cols = []
    prev = np.zeros((n, n))
    for p in [*frames_to_projector_stack(k[None])[0], np.eye(n)]:
        d = p - prev
        j = int(np.argmax(np.linalg.norm(d, axis=0)))
        v = d[:, j]
        v = v / np.linalg.norm(v)
        idx = int(np.argmax(np.abs(v)))
        if v[idx] < 0:
            v = -v
        cols.append(v)
        prev = p
    frame = np.column_stack(cols)
    if np.linalg.det(frame) < 0:
        frame[:, -1] *= -1.0
    # flag_frame hands out this array itself, so no caller may write to it.
    frame.flags.writeable = False
    return Flag(frame)


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


def flags_equal(f1: Flag, f2: Flag, tol: float = 1e-8) -> bool:
    return flag_distance(f1, f2) <= tol


def act(g, xi: BoundaryPoint) -> BoundaryPoint:
    """Boundary action: the flag moves by the Iwasawa projection of g*k."""
    g = kernel.as_matrix(g)
    k = flag_frame(xi.flag)
    new_k = decompositions.iwasawa_projection(g @ k)
    return BoundaryPoint(flag_from_frame(new_k), xi.direction.copy())


def act_flag(g, flag: Flag) -> Flag:
    return flag_from_frame(decompositions.iwasawa_projection(g @ flag_frame(flag)))


def transverse(f1: Flag, f2: Flag, eps_transv: float = defaults.EPS_TRANSV):
    """Mutual opposition of two flags, with a scale-free margin in (0, 1].

    For each i the i-dimensional piece of f1 must complement the
    (n-i)-dimensional piece of f2; the margin is the minimum |det| of the
    joined orthonormal frames (a product of sines of principal angles).
    """
    if f1.n != f2.n:
        raise DimensionMismatch(f"{f1.n} vs {f2.n}")
    n = f1.n
    k1 = flag_frame(f1)
    k2 = flag_frame(f2)
    margin = 1.0
    for i in range(1, n):
        joined = np.concatenate([k1[:, :i], k2[:, : n - i]], axis=1)
        margin = min(margin, abs(float(np.linalg.det(joined))))
    return margin > eps_transv, margin


def busemann(xi: BoundaryPoint, gx, gy) -> float:
    """Busemann cocycle B_xi(x, y) in closed form.

    B_xi(g1.o, g2.o) = <H, a_iw(g1^-1 k)> - <H, a_iw(g2^-1 k)> where k is a
    frame of xi's flag and a_iw the Iwasawa a-part; the sign convention is
    pinned by the finite-ray oracle (busemann_oracle).
    """
    gx = kernel.as_matrix(gx)
    gy = kernel.as_matrix(gy)
    k = flag_frame(xi.flag)
    ax = decompositions.iwasawa(np.linalg.solve(gx, k)).a
    ay = decompositions.iwasawa(np.linalg.solve(gy, k)).a
    return float(xi.direction @ (ax - ay))


def _scaled_cartan_vector(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cartan projection of a @ diag(exp(v)), exact in the log domain.

    Its transpose e^{diag v} a.T is a row-graded matrix, so the graded SVD
    kernel keeps full relative accuracy however stretched the ray is (a
    plain SVD of the assembled matrix loses the small singular values to
    roundoff)."""
    return kernel.graded_log_singular_values(v[None], a.T[None])[0]


def busemann_oracle(xi: BoundaryPoint, gx, gy, s_values=(64.0, 128.0, 256.0)) -> float:
    """Finite-ray Busemann estimate, Richardson-extrapolated in 1/s.

    Evaluates d(x, sigma(s)) - d(y, sigma(s)) on the defining ray
    sigma(s) = k e^{Hs} o at the given ray times and extrapolates the
    polynomial part of the 1/s expansion to s = infinity.
    """
    k = flag_frame(xi.flag)
    ax = np.linalg.solve(kernel.as_matrix(gx), k)
    ay = np.linalg.solve(kernel.as_matrix(gy), k)
    xs = []
    fs = []
    for s in s_values:
        v = xi.direction * s
        f = float(
            np.linalg.norm(_scaled_cartan_vector(ax, v))
            - np.linalg.norm(_scaled_cartan_vector(ay, v))
        )
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
