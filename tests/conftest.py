import json
import os
from itertools import combinations

import numpy as np
import pytest

from rankr import cli

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "groupspecs")


def random_sl(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian matrix normalized into SL(n,R)."""
    while True:
        g = rng.standard_normal((n, n))
        d = np.linalg.det(g)
        if abs(d) > 1e-3:
            break
    if d < 0:
        g[:, 0] *= -1.0
        d = -d
    return g / d ** (1.0 / n)


def random_so(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def det_compounds(m: np.ndarray, top: int) -> list:
    """Reference exterior powers [C_1, ..., C_top]: C_1 is m, and every
    larger k-minor is one LAPACK determinant, rows and columns in
    lexicographic subset order."""
    n = m.shape[-1]
    out = [m]
    for k in range(2, top + 1):
        idx = [list(c) for c in combinations(range(n), k)]
        out.append(
            np.stack(
                [np.stack([np.linalg.det(m[:, r][:, :, c]) for c in idx], axis=1)
                 for r in idx],
                axis=1,
            )
        )
    return out[:top]


def projector_flag_distance(c: np.ndarray, f: np.ndarray) -> float:
    """Reference flag distance of two orthonormal frames from explicit
    projector chains: max_k ||P_k(f) - P_k(c)||_F, P_k(f) = f[:, :k] f[:, :k]^T."""
    return max(
        np.linalg.norm(f[:, :k] @ f[:, :k].T - c[:, :k] @ c[:, :k].T)
        for k in range(1, c.shape[0])
    )


def random_chamber_dir(rng: np.random.Generator, n: int, min_gap: float = 0.25):
    """Unit traceless descending vector with consecutive gaps >= min_gap."""
    while True:
        h = np.sort(rng.standard_normal(n))[::-1]
        h = h - h.mean()
        h = h / np.linalg.norm(h)
        if np.min(h[:-1] - h[1:]) >= min_gap:
            return h


def spec_path(name: str) -> str:
    return os.path.join(SPEC_DIR, name)


@pytest.fixture(scope="session")
def sl3_spec():
    return cli.load_spec(spec_path("sl3_l2.json"))


@pytest.fixture(scope="session")
def sl3_group(sl3_spec):
    """(generators, names, table) of the bundled strongly transverse pair."""
    return cli.build_group(sl3_spec)


@pytest.fixture(scope="session")
def sl2_spec():
    return cli.load_spec(spec_path("sl2_classical.json"))


@pytest.fixture(scope="session")
def sl2_group(sl2_spec):
    return cli.build_group(sl2_spec)


def write_generator_spec(path, n, matrices, names=None, seed=0):
    names = names or [chr(ord("a") + i) for i in range(len(matrices))]
    spec = {
        "n": n,
        "seed": seed,
        "tolerances": {},
        "generators": [
            {"name": nm, "matrix": np.asarray(m).tolist()}
            for nm, m in zip(names, matrices)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path
