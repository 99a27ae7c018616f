"""Seeded inputs for the benchmark workloads.

Everything here depends on numpy and the seed only; the program under test
sees nothing but the generated matrices, flags and spec files.  Each
generator validates shape and determinant before the run starts, so a bad
input is reported as a harness error, never as a slow or failed operation.
"""

import json

import numpy as np

# Geometry batch: dimensions covered and items per dimension.
SCALAR_DIMS = tuple(range(2, 9))
SCALAR_ITEMS = 24
# |det - 1| allowed for generated SL(n,R) inputs.
DET_TOL = 1e-9


class InputError(Exception):
    pass


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def _moderate_sl(rng, n, spread):
    """Q1 diag(e^s) Q2 with traceless |s| <= spread: condition <= e^(2 spread)."""
    s = rng.uniform(-spread, spread, n)
    s -= s.mean()
    return (_rotation(rng, n) * np.exp(s)) @ _rotation(rng, n)


def _chamber_vector(rng, n, min_gap):
    """Unit traceless descending vector with consecutive gaps >= min_gap."""
    while True:
        h = np.sort(rng.standard_normal(n))[::-1]
        h -= h.mean()
        h /= np.linalg.norm(h)
        if np.min(h[:-1] - h[1:]) >= min_gap:
            return h


def check_sl(name, g, n):
    g = np.asarray(g, dtype=float)
    if g.shape != (n, n) or not np.all(np.isfinite(g)):
        raise InputError(f"{name}: expected a finite {n}x{n} matrix, got {g.shape}")
    det = np.linalg.det(g)
    if abs(det - 1.0) > DET_TOL:
        raise InputError(f"{name}: det {det!r} is not 1")
    return g


def chamber_translation_generators(seed, n, count=2):
    """Conjugated chamber translations C diag(e^{t h}) C^-1, h evenly spaced.

    The exponents h = linspace(1, -1, n) make every generator regular
    axial; t and the conjugators C come from (seed, n)."""
    rng = np.random.default_rng([seed, n])
    h = np.linspace(1.0, -1.0, n)
    gens = []
    for i in range(count):
        c = _moderate_sl(rng, n, 0.3)
        t = rng.uniform(0.8, 1.2)
        g = (c * np.exp(t * h)) @ np.linalg.inv(c)
        g /= np.linalg.det(g) ** (1.0 / n)
        gens.append(check_sl(f"generator {i}", g, n))
    return gens


def write_generator_spec(path, seed, n):
    """Write a 2-generator `generators` spec for SL(n) and return the path."""
    gens = chamber_translation_generators(seed, n)
    spec = {
        "n": n,
        "seed": seed,
        "generators": [
            {"name": name, "matrix": g.tolist()} for name, g in zip("ab", gens)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def scalar_batch(seed):
    """Inputs of the geometry workload's pointwise calls, for n = 2..8.

    Per item: two moderate SL(n) points gx, gy; two random flags (as
    frames); a chamber direction; and a regular axial element
    C e^{ell} C^-1 whose attracting flag is the flag of C's columns."""
    rng = np.random.default_rng([seed, 9])
    items = []
    for n in SCALAR_DIMS:
        for _ in range(SCALAR_ITEMS):
            gx = _moderate_sl(rng, n, 0.6)
            gy = _moderate_sl(rng, n, 0.6)
            conj = _moderate_sl(rng, n, 0.3)
            ell = 2.0 * _chamber_vector(rng, n, 0.2 / n)
            axial = (conj * np.exp(ell)) @ np.linalg.inv(conj)
            axial /= np.linalg.det(axial) ** (1.0 / n)
            items.append(
                {
                    "n": n,
                    "gx": check_sl("gx", gx, n),
                    "gy": check_sl("gy", gy, n),
                    "gx_inv": np.linalg.inv(gx),
                    "frame1": _rotation(rng, n),
                    "frame2": _rotation(rng, n),
                    "direction": _chamber_vector(rng, n, 0.2 / n),
                    "axial": check_sl("axial", axial, n),
                    "axial_ell": ell,
                    "axial_plus_frame": np.linalg.qr(conj)[0],
                }
            )
    return items
