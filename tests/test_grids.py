import numpy as np
import pytest
from scipy.special import roots_legendre

from freelab._grids import _gauss_legendre, cosine_graded, gauss_legendre_01

# 8192-point rule on (0, 1): (index, node, weight), computed from 40-digit
# Newton iterates of the Legendre recurrence (mpmath, 50-digit working
# precision) and rounded to 22 digits
REFERENCE_8192 = (
    (0, 2.154141673280070958359e-8, 5.528223130045364544167e-8),
    (1, 1.135004380983809337392e-7, 1.28686503639813534115e-7),
    (2, 2.789417620453084335892e-7, 2.021994487715076922633e-7),
    (3, 5.179021102059200233171e-7, 2.757218047815034772307e-7),
    (10, 4.24930888488857753988e-6, 7.903949038604926969032e-7),
    (60, 1.356696665271849056369e-4, 4.466258425674858083014e-6),
    (200, 1.480825029443567823776e-3, 1.474563106588255049746e-5),
    (1500, 8.053857938178616917535e-2, 1.043523318179838426898e-4),
    (4095, 4.999041320528382680865e-1, 1.917358919738903892147e-4),
)


def _moments(x, w, top):
    """sum_i w_i P_j(x_i) for j = 0 .. top, P_j by the three-term recurrence."""
    out = np.empty(top + 1)
    p0, p1 = np.ones_like(x), x.copy()
    out[0], out[1] = w.sum(), w @ p1
    for j in range(1, top):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        out[j + 1] = w @ p1
    return out


@pytest.mark.parametrize("n", [2, 3, 5, 64, 101, 1000, 8191, 8192])
def test_rule_is_exact_to_degree_2n_minus_1(n):
    x, w = _gauss_legendre(n)
    target = np.zeros(2 * n)
    target[0] = 2.0
    assert np.max(np.abs(_moments(x, w, 2 * n - 1) - target)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 8, 101, 8191, 8192])
def test_rule_is_mirror_symmetric(n):
    x, w = _gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x[::-1], -x)
    assert np.array_equal(w[::-1], w)
    t, w01 = gauss_legendre_01(n)
    assert np.all((t > 0) & (t < 1))
    assert np.array_equal(w01[::-1], w01)
    assert abs(w01.sum() - 1.0) <= 1e-15


def test_rule_matches_scipy_for_small_n():
    # both builders lose digits in the edge weights at these sizes: scipy's
    # Golub-Welsch weights carry the larger part of the 1e-10
    for n in range(2, 201):
        x, w = _gauss_legendre(n)
        xs, ws = roots_legendre(n)
        assert np.max(np.abs(x - xs)) <= 5e-16, n
        assert np.max(np.abs(w / ws - 1.0)) <= 1e-9, n


def test_default_grid_matches_40_digit_references():
    t, w = gauss_legendre_01(8192)
    for i, t_ref, w_ref in REFERENCE_8192:
        assert abs(t[i] - t_ref) <= 4e-16, i
        assert abs(w[i] / w_ref - 1.0) <= 1e-9, i
        # the mirror node, through the symmetric weights
        assert abs(w[8191 - i] / w_ref - 1.0) <= 1e-9, i


def test_cached_grids_are_read_only():
    t, w = gauss_legendre_01()
    ps = cosine_graded()
    for a in (t, w, ps):
        with pytest.raises(ValueError):
            a[0] = 0.5
        with pytest.raises(ValueError):
            a *= 1.0
