import numpy as np
import pytest

from rankr import limitset
from conftest import random_sl
import oracle


def test_oracle_holds_when_its_digits_double(sl3_group):
    # One n = 3 word of the bundled sl3 generators, real spectrum and log
    # singular values spread by 61, and one n = 8 word of Gaussian letters
    # with complex pairs.  Letters are limitset's: generator i at 2i, its
    # float inverse at 2i + 1.  At twice the digits no result moves past
    # 1e-14, and the factored words agree with the oracle.
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    cases = [
        (sl3_group[0], [0, 2, 0, 3, 0, 2, 1, 2]),
        ([random_sl(rng, 8) for _ in range(2)], [0, 2, 2, 0, 2]),
    ]
    complex_pair = []
    for gens, word in cases:
        letters = limitset._letter_stack(gens)
        words, q, a, nu = limitset._word_values(gens, len(word))
        row = np.full(words.shape[1], limitset._PAD)
        row[: len(word)] = word
        i = np.flatnonzero((words == row).all(axis=1))
        h, _ = limitset._stack_cartan(q[i], a[i], nu[i])
        moduli = limitset._stack_log_moduli(q[i], a[i], nu[i])
        dps = oracle.digits(h[0])
        g, g2 = oracle.word(letters, word, dps), oracle.word(letters, word, 2 * dps)
        for f, factored in (
            (oracle.log_singular_values, h),
            (oracle.log_moduli, moduli),
        ):
            got = f(g, dps)
            assert np.abs(got - f(g2, 2 * dps)).max() <= 1e-14
            assert np.abs(got - got.mean() - factored[0]).max() <= 1e-11
        frame, frame2 = oracle.left_frames(g, dps), oracle.left_frames(g2, 2 * dps)
        frame2 *= np.sign(np.sum(frame * frame2, axis=0))  # unit columns up to sign
        assert np.abs(frame - frame2).max() <= 1e-14
        product = limitset._materialize(q[i], a[i], nu[i])[0]
        complex_pair.append(bool(np.iscomplex(np.linalg.eigvals(product)).any()))
    assert complex_pair == [False, True]
