"""The numpy transforms against scipy.fft, and the Lambert W against scipy.special."""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from stokestransport import _transforms
from stokestransport.coupling import contraction_window

SIZES = (1, 2, 3, 4, 15, 16, 127, 128)
TRANSFORMS = {
    "dct": (_transforms.dct, lambda x, axis: scipy.fft.dct(x, 2, axis=axis, norm="ortho")),
    "idct": (_transforms.idct, lambda x, axis: scipy.fft.idct(x, 2, axis=axis, norm="ortho")),
    "dst1": (_transforms.dst1, lambda x, axis: scipy.fft.dst(x, 1, axis=axis, norm="ortho")),
    "dst2": (_transforms.dst2, lambda x, axis: scipy.fft.dst(x, 2, axis=axis, norm="ortho")),
}


def _inputs(n, rng):
    """(array, axis) pairs with n samples along the axis: both axes of a
    2D array, a strided view, and the last two axes of a batched stack."""
    yield rng.standard_normal((n, 5)), 0
    yield rng.standard_normal((6, n)), 1
    yield rng.standard_normal((2 * n, 7))[::2], 0
    yield rng.standard_normal((5, 3 * n))[:, ::3], 1
    yield rng.standard_normal((3, n, 4)), -2
    yield rng.standard_normal((3, 4, n)), -1


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transform_matches_scipy(name, n):
    ours, theirs = TRANSFORMS[name]
    rng = np.random.default_rng(n)
    for x, axis in _inputs(n, rng):
        before = x.copy()
        got = ours(x, axis=axis)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.max(np.abs(got - theirs(x, axis))) <= 4e-15
        assert np.array_equal(x, before)
        if name != "dst2":  # the solvers transform in place
            assert ours(x, axis=axis, out=x) is x and np.array_equal(x, got)


@pytest.mark.parametrize("n", SIZES)
def test_round_trips(n):
    rng = np.random.default_rng(100 + n)
    for x, axis in _inputs(n, rng):
        back = _transforms.idct(_transforms.dct(x, axis=axis), axis=axis)
        assert np.max(np.abs(back - x)) <= 4e-15
        back = _transforms.dst1(_transforms.dst1(x, axis=axis), axis=axis)
        assert np.max(np.abs(back - x)) <= 4e-15


def test_contraction_window_matches_lambert_w():
    # B = 1 and a cap above W(1) ~ 0.567 leave the Lambert W itself
    for target in np.geomspace(1e-12, 1.0 - 1e-6, 400):
        want = float(scipy.special.lambertw(target).real)
        got = contraction_window(1.0, float(target), cap=1.0)
        assert abs(got - want) <= 4 * math.ulp(want)
