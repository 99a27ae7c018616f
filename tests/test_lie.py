import math

import numpy as np
import pytest

from rankr import lie
from rankr.errors import DimensionMismatch, ZeroVector
from conftest import random_so


def test_as_cartan_vec_requires_traceless():
    with pytest.raises(ValueError):
        lie.as_cartan_vec([1.0, 1.0])
    v = lie.as_cartan_vec([1.0, -1.0])
    assert v.shape == (2,)
    with pytest.raises(ValueError, match="one-dimensional"):
        lie.as_cartan_vec([[1.0, -1.0]])


def test_inner_examples():
    assert lie.inner([0.0, 0.0], [1.0, -1.0]) == 0.0
    assert lie.inner([1.0, -1.0], [1.0, -1.0]) == 2.0
    with pytest.raises(DimensionMismatch):
        lie.inner([1.0, -1.0], [1.0, 0.0, -1.0])


def test_inner_is_conjugation_invariant_on_matrices():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = random_so(rng, n)
        x = rng.standard_normal((n, n))
        y = rng.standard_normal((n, n))
        lhs = lie.inner(k @ x @ k.T, k @ y @ k.T)
        assert abs(lhs - lie.inner(x, y)) < 1e-10 * max(1.0, abs(lhs))


def test_opposition_examples():
    assert np.allclose(lie.opposition([2.0, -2.0]), [2.0, -2.0])
    assert np.allclose(lie.opposition([2.0, 0.0, -2.0]), [2.0, 0.0, -2.0])
    assert np.allclose(lie.opposition([3.0, 1.0, -4.0]), [4.0, -1.0, -3.0])


def test_opposition_is_an_involution_preserving_chamber():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        h = rng.standard_normal(n)
        h -= h.mean()
        assert np.allclose(lie.opposition(lie.opposition(h)), h)
        hs = np.sort(h)[::-1]
        kind, _ = lie.chamber_classify(lie.opposition(hs))
        assert kind != "outside"
        assert abs(lie.norm(lie.opposition(h)) - lie.norm(h)) < 1e-12


def test_chamber_classify():
    assert lie.chamber_classify([1.0, 0.0, -1.0])[0] == "interior"
    kind, walls = lie.chamber_classify([1.0, 1.0, -2.0])
    assert kind == "wall" and walls == [(0, 1)]
    assert lie.chamber_classify([0.0, 1.0, -1.0])[0] == "outside"


def test_min_root_gap():
    v = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert abs(lie.min_root_gap(v) - 1.0 / math.sqrt(2.0)) < 1e-12
    for t in (0.5, 1.0, 3.0):
        assert abs(lie.min_root_gap([t, -t]) - math.sqrt(2.0)) < 1e-12
    assert lie.min_root_gap([1.0, 1.0, -2.0]) == 0.0
    with pytest.raises(ZeroVector):
        lie.min_root_gap([0.0, 0.0])


def test_min_root_gap_positive_iff_interior():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        h = np.sort(rng.standard_normal(n))[::-1]
        h -= h.mean()
        interior = lie.chamber_classify(h)[0] == "interior"
        assert (lie.min_root_gap(h) > 0) == interior


def test_horospherical_subalgebra():
    assert len(lie.horospherical_subalgebra([2.0, 0.0, -2.0])) == 3
    h = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    assert lie.horospherical_subalgebra(h) == [(0, 2), (1, 2)]
    with pytest.raises(ZeroVector):
        lie.horospherical_subalgebra([0.0, 0.0])


def test_positive_roots_and_values():
    roots = lie.positive_roots(3)
    assert roots == [(0, 1), (0, 2), (1, 2)]
    assert lie.root_value([3.0, 1.0, -4.0], (0, 2)) == 7.0


def test_weyl_representatives_live_in_so_n():
    for n in (2, 3, 4):
        for w in lie.all_weyl(n):
            m = w.matrix()
            assert np.linalg.norm(m.T @ m - np.eye(n)) < 1e-14
            assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_weyl_action_matches_matrix_conjugation():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        h = rng.standard_normal(n)
        h -= h.mean()
        for w in lie.all_weyl(n):
            m = w.matrix()
            conj = m @ np.diag(h) @ m.T
            assert np.linalg.norm(conj - np.diag(w.apply(h))) < 1e-12


def test_longest_weyl_reverses():
    w = lie.longest_weyl(4)
    assert np.allclose(w.apply([4.0, 3.0, 2.0, 1.0]), [1.0, 2.0, 3.0, 4.0])
    assert len(lie.all_weyl(4)) == 24


def test_weyl_elements_hash_and_print_by_permutation():
    assert len({lie.WeylElem([1, 0, 2]), lie.WeylElem((1, 0, 2))}) == 1
    assert repr(lie.WeylElem([1, 0, 2])) == "WeylElem(1, 0, 2)"


def test_weyl_rejects_non_permutation():
    with pytest.raises(ValueError):
        lie.WeylElem((0, 0, 1))
