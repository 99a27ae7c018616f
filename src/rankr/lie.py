"""Cartan data for SL(n,R): chamber vectors, roots, Weyl group, opposition.

Conventions: the Cartan subspace consists of traceless real n-vectors
(diagonals), the positive chamber is the strictly descending vectors, and
the inner product is the trace form <X, Y> = tr(X Y^T) (which restricts to
the Euclidean dot product on diagonals).  Root (i, j) with i < j evaluates
as H_i - H_j; indices are 0-based.
"""

from itertools import permutations

import numpy as np

from . import defaults
from .errors import DimensionMismatch, ZeroVector


def as_cartan_vec(h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim != 1:
        raise ValueError("Cartan vector must be one-dimensional")
    if abs(h.sum()) > 1e-12 * max(1.0, np.abs(h).max()):
        raise ValueError("Cartan vector must be traceless")
    return h


def inner(x, y) -> float:
    """Trace-form inner product of two vectors or two p-matrices."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"{x.shape} vs {y.shape}")
    if x.ndim == 1:
        return float(x @ y)
    return float(np.trace(x @ y.T))


def norm(h) -> float:
    return float(np.linalg.norm(np.asarray(h, dtype=float)))


def positive_roots(n: int):
    """All positive roots (i, j), i < j, of the descending chamber."""
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n)]


def root_value(h, root) -> float:
    i, j = root
    return float(h[i] - h[j])


def opposition(h) -> np.ndarray:
    """Opposition involution: negate and reverse; fixes the closed chamber."""
    h = as_cartan_vec(h)
    return -h[::-1]


def chamber_classify(h):
    """Classify h against the closed descending chamber.

    Returns ("interior", []), ("wall", [vanishing simple roots]) or
    ("outside", []).  The wall threshold scales with ||h||.
    """
    h = as_cartan_vec(h)
    thresh = defaults.EPS_WALL * max(norm(h), 1e-300)
    gaps = h[:-1] - h[1:]
    if np.any(gaps < -thresh):
        return "outside", []
    walls = [(i, i + 1) for i, gap in enumerate(gaps) if gap <= thresh]
    if walls:
        return "wall", walls
    return "interior", []


def min_root_gap(h) -> float:
    """min over positive roots of alpha(h / ||h||); 0 on chamber walls.

    For descending h this is the minimal consecutive gap divided by ||h||.
    """
    h = as_cartan_vec(h)
    nh = norm(h)
    if nh == 0:
        raise ZeroVector("min_root_gap of the zero vector")
    return float(np.min(h[:-1] - h[1:])) / nh


def horospherical_subalgebra(h):
    """Roots alpha with alpha(h) > 0, for h in the closed chamber."""
    h = as_cartan_vec(h)
    nh = norm(h)
    if nh == 0:
        raise ZeroVector("zero direction has no horospherical subalgebra")
    thresh = defaults.EPS_WALL * nh
    return [r for r in positive_roots(len(h)) if root_value(h, r) > thresh]


class WeylElem:
    """A Weyl group element of S_n with a fixed det +1 representative.

    perm maps column index to row index: the representative matrix has a
    (signed) unit at (perm[k], k).  Odd permutations carry one sign flip at
    (perm[0], 0) to land in SO(n).
    """

    def __init__(self, perm):
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation: {perm}")
        self.perm = perm

    def __eq__(self, other):
        return isinstance(other, WeylElem) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"WeylElem{self.perm}"

    @property
    def n(self) -> int:
        return len(self.perm)

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for k, p in enumerate(self.perm):
            m[p, k] = 1.0
        if np.linalg.det(m) < 0:
            m[self.perm[0], 0] = -1.0
        return m

    def apply(self, h) -> np.ndarray:
        """Action on the Cartan subspace: (w . h)[perm[k]] = h[k]."""
        h = np.asarray(h, dtype=float)
        out = np.empty_like(h)
        for k, p in enumerate(self.perm):
            out[p] = h[k]
        return out


def longest_weyl(n: int) -> WeylElem:
    """The order-reversing element w*; Ad(m_w*) maps -chamber to +chamber."""
    return WeylElem(range(n - 1, -1, -1))


def all_weyl(n: int):
    return [WeylElem(p) for p in permutations(range(n))]
