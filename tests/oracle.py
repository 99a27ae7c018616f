"""Exact reference values for words of float matrices, in mpmath.

A float letter is a dyadic rational, so mpmath.mpf of each entry is exact,
and a product of letters at digits(a) digits carries every result far
past float64; each result comes back as float64.  Every call sets its own
digits with mpmath.workdps and leaves mpmath's global context alone.
mpmath comes through pytest.importorskip, so a test that calls the oracle
is skipped without it."""

import numpy as np
import pytest


def digits(a) -> int:
    """Working digits for a matrix whose log scales (or log singular
    values) are a: e^{-spread} needs spread / 2.3 digits, and 60 more keep
    the smallest values past float64."""
    return int(np.ptp(a) / 2.3) + 60


def word(letters, word, dps):
    """letters[word[0]] @ letters[word[1]] @ ... as an mpmath matrix at dps
    digits.  A letter is a float array or an mpmath matrix."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        mats = [mpmath.matrix(letter.tolist()) for letter in letters]
        out = mpmath.eye(mats[0].rows)
        for c in word:
            out = out * mats[c]
    return out


def log_singular_values(g, dps) -> np.ndarray:
    """Descending log singular values of the mpmath matrix g."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        sig = mpmath.svd_r(g, compute_uv=False)
        values = np.array([float(mpmath.log(x)) for x in sig])
    return np.sort(values)[::-1]


def left_frames(g, dps) -> np.ndarray:
    """Left singular vectors of g, in the column order of
    log_singular_values."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        left, sig, _ = mpmath.svd_r(g)
        order = np.argsort([-float(mpmath.log(x)) for x in sig])
        frame = np.array(left.tolist(), dtype=float)
    return frame[:, order]


def log_moduli(g, dps) -> np.ndarray:
    """Descending log eigenvalue moduli of g; a complex pair gives two
    equal entries."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        values = mpmath.eig(g, left=False, right=False)
        moduli = np.array([float(mpmath.log(abs(x))) for x in values])
    return np.sort(moduli)[::-1]


def cayley(skew, t, dps) -> np.ndarray:
    """Cay(tS) = (I + tS)(I - tS)^-1 of the float skew matrix S at dps
    digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a = mpmath.matrix(skew.tolist()) * t
        eye = mpmath.eye(len(skew))
        out = (eye + a) * mpmath.inverse(eye - a)
        return np.array(out.tolist(), dtype=float)
