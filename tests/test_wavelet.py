import numpy as np
import pytest

from epicast.errors import InsufficientDataError, ValidationError
from epicast.wavelet import (
    WaveletMra,
    choose_levels,
    imodwt_haar,
    max_levels,
    modwt_haar,
)

from oracles import coefficient_energy


class TestChooseLevels:
    def test_272_days(self):
        assert choose_levels(272) == 5  # floor(ln 272)

    def test_shortest_allowed(self):
        assert choose_levels(8) == 2  # min(floor(ln 8)=2, floor(log2 8)=3)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            choose_levels(3)

    @pytest.mark.parametrize("n", [8, 16, 100, 272, 1024])
    def test_within_depth_bound(self, n):
        assert 1 <= choose_levels(n) <= max_levels(n)


class TestModwt:
    def test_constant_series(self):
        mra = modwt_haar(np.full(16, 3.5), levels=3)
        for d in mra.details:
            assert np.max(np.abs(d)) == 0.0
        assert np.allclose(mra.smooth, 3.5, atol=0)
        for w in mra.wavelet_coeffs:
            assert np.max(np.abs(w)) == 0.0

    def test_impulse_by_hand(self):
        # x = (1,0,...,0), one level: lag-1 circular averages and differences
        x = np.zeros(8)
        x[0] = 1.0
        mra = modwt_haar(x, levels=1)
        w_expect = np.zeros(8)
        w_expect[0] = 0.5   # (x[0] - x[7]) / 2
        w_expect[1] = -0.5  # (x[1] - x[0]) / 2
        v_expect = np.zeros(8)
        v_expect[0] = 0.5
        v_expect[1] = 0.5
        assert np.array_equal(mra.wavelet_coeffs[0], w_expect)
        assert np.array_equal(mra.scaling_coeffs, v_expect)
        assert coefficient_energy(mra) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(mra.reconstruct() - x)) < 1e-9

    def test_additive_reconstruction_random(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=128)
        mra = modwt_haar(x, levels=4)
        assert np.max(np.abs(mra.reconstruct() - x)) < 1e-9
        assert len(mra.details) == 4
        assert all(len(d) == 128 for d in mra.components)

    def test_depth_error_names_max(self):
        with pytest.raises(ValidationError, match="3"):
            modwt_haar(np.arange(12.0), levels=4)


class TestInverse:
    def test_round_trip_small(self):
        x = np.array([1.0, 2, 3, 4, 5, 6, 7, 8])
        mra = modwt_haar(x, levels=3)
        assert np.max(np.abs(imodwt_haar(mra) - x)) < 1e-9

    def test_all_zero_components(self):
        zeros = tuple(np.zeros(8) for _ in range(2))
        mra = WaveletMra(
            levels=2,
            wavelet_coeffs=zeros,
            scaling_coeffs=np.zeros(8),
            details=zeros,
            smooth=np.zeros(8),
        )
        assert np.array_equal(imodwt_haar(mra), np.zeros(8))

    def test_smooth_only_constant(self):
        mra = modwt_haar(np.full(16, 4.0), levels=2)
        stripped = WaveletMra(
            levels=2,
            wavelet_coeffs=tuple(np.zeros(16) for _ in range(2)),
            scaling_coeffs=mra.scaling_coeffs,
            details=mra.details,
            smooth=mra.smooth,
        )
        assert np.allclose(imodwt_haar(stripped), 4.0, atol=1e-12)

    def test_mismatched_lengths(self):
        mra = modwt_haar(np.arange(16.0), levels=2)
        broken = WaveletMra(
            levels=2,
            wavelet_coeffs=(mra.wavelet_coeffs[0], np.zeros(8)),
            scaling_coeffs=mra.scaling_coeffs,
            details=mra.details,
            smooth=mra.smooth,
        )
        with pytest.raises(ValidationError):
            imodwt_haar(broken)


class TestProperties:
    def test_perfect_reconstruction_sweep(self):
        rng = np.random.default_rng(11)
        for n in (8, 9, 33, 100, 256, 1024):
            x = rng.normal(scale=50.0, size=n)
            levels = choose_levels(n)
            mra = modwt_haar(x, levels)
            assert np.max(np.abs(imodwt_haar(mra) - x)) < 1e-9
            assert np.max(np.abs(mra.reconstruct() - x)) < 1e-9

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        shift = 11
        base = modwt_haar(x, levels=3)
        rolled = modwt_haar(np.roll(x, shift), levels=3)
        for a, b in zip(base.components, rolled.components):
            assert np.max(np.abs(np.roll(a, shift) - b)) < 1e-9
        for a, b in zip(base.wavelet_coeffs, rolled.wavelet_coeffs):
            assert np.max(np.abs(np.roll(a, shift) - b)) < 1e-9

    def test_energy_preservation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=10.0, size=200)
        mra = modwt_haar(x, levels=choose_levels(200))
        assert coefficient_energy(mra) == pytest.approx(
            float(np.sum(x**2)), rel=1e-6
        )

    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        a, b = 2.5, -1.25
        combo = modwt_haar(a * x + b * y, levels=3)
        mx = modwt_haar(x, levels=3)
        my = modwt_haar(y, levels=3)
        for c, cx, cy in zip(combo.components, mx.components, my.components):
            assert np.max(np.abs(c - (a * cx + b * cy))) < 1e-9
