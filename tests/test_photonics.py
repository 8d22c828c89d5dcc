import math

import numpy as np
import pytest

from vitalchirp.photonics import (
    SPEED_OF_LIGHT,
    FbgProfile,
    IfLfmParams,
    contact_intensity,
    derive_chirp,
    fbg_transmission,
    fbg_transmission_db,
)
from vitalchirp.physio import make_time_grid

from conftest import dft_magnitude


class TestFbgTransmission:
    def test_half_power_at_fwhm(self, fbg):
        # definition of the 3-dB width
        for sign in (-1, 1):
            t = fbg_transmission(fbg, sign * fbg.fwhm_3db / 2)
            assert t == pytest.approx(10 ** (-3 / 10), rel=1e-9)

    def test_notch_floor(self, fbg):
        assert fbg_transmission(fbg, 0.0) == pytest.approx(10 ** (-1.770), rel=1e-9)
        assert float(fbg_transmission(fbg, 0.0)) == pytest.approx(0.0170, abs=1e-4)

    def test_sigma_from_depth_and_width(self):
        # oracle: solve -depth*exp(-df^2/(2 s^2)) = -3 at df = 5.6 GHz
        profile = FbgProfile(notch_depth_db=17.7, fwhm_3db=11.2e9)
        sigma_oracle = 5.6e9 / math.sqrt(2.0 * math.log(17.7 / 3.0))
        assert profile.sigma == pytest.approx(sigma_oracle, rel=1e-12)
        assert profile.sigma == pytest.approx(2.973e9, rel=1e-3)

    def test_shallow_notch_rejected(self):
        with pytest.raises(ValueError):
            FbgProfile(notch_depth_db=3.0, fwhm_3db=10e9)
        with pytest.raises(ValueError):
            FbgProfile(notch_depth_db=2.0, fwhm_3db=10e9)

    def test_even_monotone_and_limit(self, fbg):
        offsets = np.linspace(0, 8 * fbg.sigma, 500)
        t = fbg_transmission(fbg, offsets)
        assert np.all(np.diff(t) > 0)  # strictly increasing in |offset|
        assert np.allclose(
            fbg_transmission(fbg, offsets), fbg_transmission(fbg, -offsets)
        )
        assert fbg_transmission(fbg, 100 * fbg.sigma) == pytest.approx(1.0, abs=1e-12)
        floor = 10 ** (-fbg.notch_depth_db / 10)
        assert np.all(t >= floor) and np.all(t <= 1.0)

    def test_db_slope_maximal_at_sigma(self, fbg):
        # edge sensitivity: the dB-domain slope peaks at +sigma
        offsets = np.linspace(0.01 * fbg.sigma, 5 * fbg.sigma, 20001)
        tdb = fbg_transmission_db(fbg, offsets)
        slope = np.abs(np.gradient(tdb, offsets))
        at_sigma = slope[np.argmin(np.abs(offsets - fbg.sigma))]
        assert at_sigma >= 0.99 * slope.max()


class TestContactIntensity:
    def test_static_chest_constant_series(self, fbg):
        grid = make_time_grid(10.0, 50.0)
        rec = contact_intensity(
            np.zeros(grid.count), fbg, grid, noise_rms=0.0,
        )
        expected = fbg_transmission(fbg, fbg.sigma) + 0.2
        assert np.allclose(rec.samples, expected)
        assert not rec.edge_warning

    def test_small_motion_dominant_line(self, fbg):
        # first-order expansion of T at the operating point: a 0.35 Hz
        # displacement shows up as a 0.35 Hz intensity line
        grid = make_time_grid(60.0, 50.0)
        t = grid.instants()
        x = 0.5 * np.sin(2 * np.pi * 0.35 * t)
        rec = contact_intensity(x, fbg, grid, noise_rms=0.0)
        ac = rec.samples - rec.samples.mean()
        main = dft_magnitude(ac, 50.0, 0.35)
        for other in (0.2, 0.7, 1.05, 1.45):
            assert dft_magnitude(ac, 50.0, other) < 0.05 * main

    def test_edge_region_warning(self):
        # a transduction gain that flings the carrier past 3 sigma flags it
        profile = FbgProfile(notch_depth_db=17.7, fwhm_3db=11.2e9,
                             displacement_to_shift=5e9)
        grid = make_time_grid(10.0, 50.0)
        x = 4.0 * np.sin(2 * np.pi * 0.3 * grid.instants())
        rec = contact_intensity(x, profile, grid, noise_rms=0.0)
        assert rec.edge_warning

    def test_noise_deterministic(self, fbg):
        grid = make_time_grid(5.0, 50.0)
        x = np.sin(2 * np.pi * 0.3 * grid.instants())
        a = contact_intensity(x, fbg, grid, noise_rms=0.01, rng_seed=5)
        b = contact_intensity(x, fbg, grid, noise_rms=0.01, rng_seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_length_mismatch(self, fbg):
        grid = make_time_grid(5.0, 50.0)
        with pytest.raises(ValueError):
            contact_intensity(np.zeros(10), fbg, grid)


class TestDeriveChirp:
    def test_quadrupled_parameters(self, if_params):
        chirp = derive_chirp(if_params)
        assert chirp.start_freq == pytest.approx(24.4e9, rel=1e-12)
        assert chirp.sweep_bandwidth == pytest.approx(4e9, rel=1e-12)
        assert chirp.center_freq == pytest.approx(26.4e9, rel=1e-12)
        assert chirp.pulse_period == 100e-6
        assert chirp.pulse_width == 60e-6

    def test_chirp_rate(self, if_params):
        chirp = derive_chirp(if_params)
        assert chirp.chirp_rate == pytest.approx(4 * (1e9 / 60e-6), rel=1e-12)
        assert chirp.chirp_rate == pytest.approx(6.667e13, rel=1e-3)

    def test_carrier_wavelength(self, if_params):
        chirp = derive_chirp(if_params)
        assert chirp.carrier_wavelength == pytest.approx(
            SPEED_OF_LIGHT / 24.4e9, rel=1e-12
        )
        assert chirp.carrier_wavelength * 1e3 == pytest.approx(12.29, abs=0.01)

    def test_center_round_trip(self, if_params):
        # start + sweep/2 identically equals 4 f_C
        chirp = derive_chirp(if_params)
        assert chirp.start_freq + chirp.sweep_bandwidth / 2 == 4 * if_params.center_freq

    def test_quadrupling_invariance(self, if_params):
        # scaling bandwidth and pulse width together leaves the rate alone
        scaled = IfLfmParams(
            center_freq=if_params.center_freq,
            bandwidth=2 * if_params.bandwidth,
            pulse_period=2 * if_params.pulse_period,
            pulse_width=2 * if_params.pulse_width,
        )
        assert derive_chirp(scaled).chirp_rate == pytest.approx(
            derive_chirp(if_params).chirp_rate, rel=1e-12
        )

    def test_if_validation(self):
        with pytest.raises(ValueError):
            IfLfmParams(center_freq=6.6e9, bandwidth=0.0, pulse_period=1e-4, pulse_width=6e-5)
        with pytest.raises(ValueError):
            IfLfmParams(center_freq=6.6e9, bandwidth=1e9, pulse_period=1e-5, pulse_width=6e-5)

