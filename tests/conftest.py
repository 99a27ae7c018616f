import json
import os
from itertools import combinations

import numpy as np
import pytest

from rankr import boundary, cli, kernel, limitset, schottky

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


def conjugated_unipotent(rng: np.random.Generator, n: int) -> np.ndarray:
    """c (I + s N) c^-1 / |det|^(1/n): a regular unipotent, s ~ U(0.5, 3),
    conjugated by a Gaussian c whose columns are scaled by e^U(-2, 2)."""
    s = rng.uniform(0.5, 3)
    c = rng.standard_normal((n, n)) * np.exp(rng.uniform(-2, 2, n))
    g = c @ (np.eye(n) + s * np.diag(np.ones(n - 1), 1)) @ np.linalg.inv(c)
    return g / abs(np.linalg.det(g)) ** (1.0 / n)


def unipotent_draws() -> dict:
    """{(n, i): i-th conjugated_unipotent of SL(n)}, 40 draws for each
    n = 4..8 from one default_rng(0)."""
    rng = np.random.default_rng(0)
    return {(n, i): conjugated_unipotent(rng, n) for n in range(4, 9) for i in range(40)}


def pairing_eig_real(g, eps_cluster: float = 1e-6) -> list:
    """Reference clustered spectrum that clusters the whole plane, as
    (value, multiplicity, basis) tuples in kernel._spectral_key order of
    value: every eigenvalue is merged greedily, a cluster whose mean is
    within the tolerance of the real axis is real with a real basis, and
    every other cluster is paired with a conjugate cluster found by search
    (AssertionError if none), the pair's bases conjugate."""
    g = kernel.as_matrix(g)
    vals = np.linalg.eigvals(g)
    tol = eps_cluster * max(1.0, float(np.max(np.abs(vals))))
    remaining = sorted(vals, key=kernel._spectral_key)
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
        clusters.append(members)
    blocks = []
    done = [False] * len(clusters)
    for i, members in enumerate(clusters):
        if done[i]:
            continue
        mean = complex(np.mean(members))
        mult = len(members)
        if abs(mean.imag) <= tol:
            shifted = g - mean.real * np.eye(g.shape[0])
            basis = np.real(kernel._null_basis(np.linalg.matrix_power(shifted, mult), mult))
            basis, _ = np.linalg.qr(basis)
            blocks.append((complex(mean.real, 0.0), mult, basis))
            done[i] = True
            continue
        partner = None
        for j in range(len(clusters)):
            if j != i and not done[j]:
                if abs(complex(np.mean(clusters[j])) - mean.conjugate()) <= 2 * tol:
                    partner = j
                    break
        if partner is None:
            raise AssertionError("complex eigenvalue cluster without conjugate partner")
        lam = mean if mean.imag > 0 else mean.conjugate()
        shifted = g - lam * np.eye(g.shape[0], dtype=complex)
        basis = kernel._null_basis(np.linalg.matrix_power(shifted, mult), mult)
        blocks.append((lam, mult, basis))
        blocks.append((lam.conjugate(), mult, basis.conj()))
        done[i] = True
        done[partner] = True
    blocks.sort(key=lambda b: kernel._spectral_key(b[0]))
    return blocks


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


def exterior_log_singular_values(b, u):
    """Log singular values of e^{diag b} u (u unit upper triangular).

    log(s_1 ... s_k) is the log top singular value of the k-th exterior
    power with its row weights kept symbolic, which no spread underflows."""
    count, n = b.shape
    cum = np.zeros((n + 1, count))
    for k, cu in enumerate(kernel.compounds(u, n - 1), start=1):
        w = kernel.combo_sums(b, k)
        shift = w.max(axis=1)
        m = np.exp(w - shift[:, None])[:, :, None] * cu
        sig = np.linalg.svd(m, compute_uv=False)[:, 0]
        cum[k] = np.log(np.maximum(sig, 1e-300)) + shift
    cum[n] = b.sum(axis=1)
    return np.sort(np.diff(cum, axis=0).T, axis=1)[:, ::-1]


def projector_flag_distance(c: np.ndarray, f: np.ndarray) -> float:
    """Reference flag distance of two orthonormal frames from explicit
    projector chains: max_k ||P_k(f) - P_k(c)||_F, P_k(f) = f[:, :k] f[:, :k]^T."""
    return max(
        np.linalg.norm(f[:, :k] @ f[:, :k].T - c[:, :k] @ c[:, :k].T)
        for k in range(1, c.shape[0])
    )


def loop_canonical_frame(k: np.ndarray) -> np.ndarray:
    """Reference canonical frame of one orthonormal frame, one column at a
    time: column i is the largest-norm column of P_i - P_{i-1} (P_0 = 0,
    P_n = I), normalised with its largest entry positive, and the last
    column's sign makes det +1."""
    n = k.shape[0]
    chain = np.cumsum(np.einsum("ik,jk->kij", k, k), axis=0)[: n - 1]
    cols = []
    prev = np.zeros((n, n))
    for p in [*chain, np.eye(n)]:
        d = p - prev
        v = d[:, int(np.argmax(np.linalg.norm(d, axis=0)))]
        v = v / np.linalg.norm(v)
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        cols.append(v)
        prev = p
    frame = np.column_stack(cols)
    if np.linalg.det(frame) < 0:
        frame[:, -1] *= -1.0
    return frame


def cyclic_canonical(words, lengths, max_length):
    """Reference rotation-class representatives: indices of one row per
    cyclic-rotation class of cyclically reduced padded word rows.  Each
    rotation is encoded in a base-(alphabet+1) integer together with the
    length, and the minimum over rotations keys the deduplication, so the
    kept row of a class is its first in row order."""
    base = int(words.max()) + 2
    codes = np.full(len(words), np.iinfo(np.int64).max, dtype=np.int64)
    for length in np.unique(lengths):
        idx = np.flatnonzero(lengths == length)
        w = words[idx, :length].astype(np.int64) + 1
        powers = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
        best = None
        for r in range(int(length)):
            rolled = np.concatenate([w[:, r:], w[:, :r]], axis=1)
            code = rolled @ powers
            best = code if best is None else np.minimum(best, code)
        codes[idx] = best + np.int64(length) * base ** np.int64(max_length)
    _, keep = np.unique(codes, return_index=True)
    return np.sort(keep)


def loop_transverse_margin(k1: np.ndarray, k2: np.ndarray) -> float:
    """Reference transversality margin, one determinant at a time:
    min over i of |det [k1[:, :i] | k2[:, :n-i]]|, capped at 1."""
    n = k1.shape[0]
    margin = 1.0
    for i in range(1, n):
        joined = np.concatenate([k1[:, :i], k2[:, : n - i]], axis=1)
        margin = min(margin, abs(float(np.linalg.det(joined))))
    return margin


def spec_frames() -> list:
    """Every flag frame of the bundled group specs."""
    out = []
    for name in sorted(os.listdir(SPEC_DIR)):
        with open(os.path.join(SPEC_DIR, name), encoding="utf-8") as fh:
            recipe = json.load(fh).get("schottky", {})
        for frame in recipe.get("flags", []) + recipe.get("parabolic_flags", []):
            out.append(np.asarray(frame, dtype=float))
    return out


def random_chamber_dir(rng: np.random.Generator, n: int, min_gap: float = 0.25):
    """Unit traceless descending vector with consecutive gaps >= min_gap."""
    while True:
        h = np.sort(rng.standard_normal(n))[::-1]
        h = h - h.mean()
        h = h / np.linalg.norm(h)
        if np.min(h[:-1] - h[1:]) >= min_gap:
            return h


def loop_generator_margin(table, m, gen_eff, sources):
    """Reference generator margin, one source at a time: each source's
    worst image sets (margin, witness) when its margin is strictly below
    every earlier one, sources in neighbourhood order, then m's complement
    as source -1.  sources is schottky._sources' (frames, owner)."""
    stack, owner = sources
    inv = np.linalg.inv(gen_eff)
    (skip_f, tgt_f), (skip_b, tgt_b) = table.neighborhood_indices(m)
    worst = np.inf
    witness = None
    for direction, mat, skip, tgt in (
        ("forward", gen_eff, skip_f, tgt_f),
        ("backward", inv, skip_b, tgt_b),
    ):
        for i in [i for i in range(len(table.points)) if i != skip] + [-1]:
            frames = stack[owner == (i if i >= 0 else -1 - m)]
            if not len(frames):
                continue
            images = boundary.act_frames(mat, frames)
            dist = boundary.flag_distances_to_center(images, table.points[tgt].flag)
            idx = int(np.argmax(dist))
            margin = float(table.radii[tgt] - dist[idx])
            if margin < worst:
                worst = margin
                witness = {
                    "generator": m,
                    "direction": direction,
                    "source_neighborhood": i,
                    "target_neighborhood": tgt,
                    "image_distance": float(dist[idx]),
                    "target_radius": float(table.radii[tgt]),
                    "sample_frame": frames[idx].tolist(),
                }
    return worst, (witness if worst <= 0 else None)


def ball_product_successes(table, max_length, eps, pair_count, seed):
    """Reference product-structure successes, one pair at a time: pair
    (i, j) succeeds when some word, out of every word, is within eps of
    direction j and within eps of flag i in the flag distance."""
    samples = limitset.enumerate_samples(table.effective_generators(), max_length)
    idx = np.flatnonzero(samples.lengths >= 2)
    frames, dirs = samples.frames[idx], samples.dirs[idx]
    rng = np.random.default_rng(seed)
    successes = 0
    for _ in range(pair_count):
        i, j = rng.choice(len(idx), size=2, replace=False)
        ball = frames[np.linalg.norm(dirs - dirs[j], axis=1) < eps]
        dist = boundary.flag_distances_to_center(ball, boundary.Flag(frames[i]))
        successes += bool((dist < eps).any())
    return successes


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


@pytest.fixture(scope="session")
def parabolic_table():
    """The seeded one-axial, one-parabolic table of
    test_schottky::test_parabolic_table_builds_and_certifies: of 800 Haar
    flag triples (rng 20), the one with the largest min(transversality
    margin, distance / 4), built with ell = (1.5, 0, -1.5) and seed 0."""
    rng = np.random.default_rng(20)
    best = None
    for _ in range(800):
        flags = [boundary.flag_from_frame(f) for f in boundary.random_frames(rng, 3, 3)]
        score = min(
            min(boundary.transverse(flags[i], flags[j])[1],
                boundary.flag_distance(flags[i], flags[j]) / 4.0)
            for i, j in combinations(range(3), 2)
        )
        if best is None or score > best[0]:
            best = (score, flags)
    return schottky.build_table(best[1], [np.array([1.5, 0.0, -1.5])], seed=0)
