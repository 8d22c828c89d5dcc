import numpy as np
import pytest
from scipy.optimize import brentq

from vitalchirp import dsp
from vitalchirp.dsp import (
    BandpassSpec,
    FilterDesignError,
    bandwidth_3db,
    design_bandpass,
    filter_zero_phase,
    peak_search,
    spectrum,
    unwrap_phase,
)

from conftest import sos_response

RESP_SPEC = BandpassSpec(0.13, 0.5, 50.0, 1.0, 40.0, 4)
HEART_SPEC = BandpassSpec(0.8, 1.9, 50.0, 1.0, 40.0, 4)


def rect_lobe_halfwidth():
    """Oracle: half-power half-width of the rectangular-window main lobe."""
    f = lambda x: (np.sinc(x)) ** 2 - 0.5
    return brentq(f, 0.1, 0.9)  # ~0.4429 in bins of 1/T


class TestDesignBandpass:
    @pytest.mark.parametrize("spec,inband,stoptone", [
        (RESP_SPEC, 0.315, 0.05),
        (HEART_SPEC, 1.35, 0.35),
    ])
    def test_conformance_dense_grid(self, spec, inband, stoptone):
        coeffs = design_bandpass(spec)
        freqs = np.linspace(0, spec.nyquist, 4096)
        mag_db = 20 * np.log10(np.maximum(np.abs(sos_response(coeffs.sos, freqs, 50.0)), 1e-300))
        passband = (freqs >= spec.low_edge) & (freqs <= spec.high_edge)
        assert mag_db[passband].min() >= -spec.passband_ripple - 0.02
        assert mag_db[passband].max() <= 0.02
        stopband = (freqs <= spec.stop_low) | (freqs >= spec.stop_high)
        assert mag_db[stopband].max() <= -spec.stopband_atten + 0.02
        # the probes the band definitions came with
        h_in = abs(sos_response(coeffs.sos, [inband], 50.0)[0])
        assert -1.0 <= 20 * np.log10(h_in) <= 0.0
        h_stop = abs(sos_response(coeffs.sos, [stoptone], 50.0)[0])
        assert 20 * np.log10(h_stop) <= -40.0

    def test_sections_stable(self):
        for spec in (RESP_SPEC, HEART_SPEC):
            coeffs = design_bandpass(spec)
            assert np.all(np.abs(coeffs.poles()) < 1.0)

    def test_inverted_edges_rejected(self):
        with pytest.raises(ValueError):
            BandpassSpec(0.5, 0.13, 50.0)

    def test_edge_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            BandpassSpec(0.8, 25.0, 50.0)

    def test_unachievable_mask_names_constraint(self):
        # order 1 cannot reach 40 dB within the transition region
        with pytest.raises(FilterDesignError, match="stopband"):
            design_bandpass(BandpassSpec(0.13, 0.5, 50.0, 1.0, 40.0, 1))

    @pytest.mark.parametrize("order,ripple,atten", [
        (4, 5000.0, 6000.0), (4, 1.0, 1e9), (1, 5000.0, 6000.0)])
    def test_level_past_float_range_cannot_be_designed(self, order, ripple, atten):
        # 10**(level / 10) overflows a float above about 3080 dB
        with pytest.raises(FilterDesignError, match="cannot design"):
            design_bandpass(BandpassSpec(0.8, 1.9, 50.0, ripple, atten, order))

    @pytest.mark.parametrize("order", [254, 300])
    def test_gain_past_float_range_cannot_be_designed(self, order):
        # from order 254 the heart-band gain products overflow at 50 Sa/s
        with pytest.raises(FilterDesignError, match=f"cannot design order {order}"):
            design_bandpass(BandpassSpec(0.8, 1.9, 50.0, order=order))

    def test_sections_shape(self):
        coeffs = design_bandpass(RESP_SPEC)
        assert all(len(s) == 5 for s in coeffs.sections)

    def test_equal_specs_share_one_read_only_design(self):
        first = design_bandpass(BandpassSpec(0.13, 0.5, 50.0, 1.0, 40.0, 4))
        assert design_bandpass(BandpassSpec(0.13, 0.5, 50.0, 1.0, 40.0, 4)) is first
        before = first.sos.copy()
        with pytest.raises(ValueError):
            first.sos[0, 0] = 0.0
        assert np.array_equal(design_bandpass(RESP_SPEC).sos, before)

    def test_failed_design_raises_on_every_call(self):
        spec = BandpassSpec(0.13, 0.5, 50.0, 1.0, 40.0, 1)
        for _ in range(2):
            with pytest.raises(FilterDesignError, match="stopband"):
                design_bandpass(spec)


class TestFilterZeroPhase:
    def test_inband_tone_preserved_zero_lag(self):
        coeffs = design_bandpass(RESP_SPEC)
        t = np.arange(6000) / 50.0
        x = np.sin(2 * np.pi * 0.3 * t)
        y = filter_zero_phase(coeffs, x)
        mid = slice(1500, 4500)
        # amplitude within twice the passband ripple (two passes)
        gain = np.max(np.abs(y[mid])) / np.max(np.abs(x[mid]))
        assert 10 ** (-2 * 1.0 / 20) - 0.01 <= gain <= 1.01
        # zero phase: cross-correlation peak at zero lag
        xc = np.correlate(y[mid], x[mid], mode="full")
        assert np.argmax(xc) == len(xc) // 2

    def test_stopband_tone_squashed(self):
        # two passes of >= 40 dB: residual at the tone frequency <= -80 dB,
        # measured in steady state (middle half) of a long record
        coeffs = design_bandpass(RESP_SPEC)
        n = 15000
        t = np.arange(n) / 50.0
        x = np.sin(2 * np.pi * 0.05 * t)
        y = filter_zero_phase(coeffs, x)
        mid = slice(n // 4, 3 * n // 4)
        probe = np.exp(-2j * np.pi * 0.05 * t[mid])
        residual = np.abs(np.sum(y[mid] * probe)) / np.abs(np.sum(x[mid] * probe))
        assert 20 * np.log10(residual) <= -80.0

    def test_zero_series(self):
        coeffs = design_bandpass(RESP_SPEC)
        assert np.all(filter_zero_phase(coeffs, np.zeros(500)) == 0.0)

    def test_too_short_series(self):
        coeffs = design_bandpass(RESP_SPEC)
        with pytest.raises(ValueError, match="short"):
            filter_zero_phase(coeffs, np.zeros(10))


class TestSpectrum:
    def test_bin_spacing_one_rpm(self):
        sp = spectrum(np.random.default_rng(0).normal(size=3000), 50.0)
        assert sp.bin_spacing == pytest.approx(1 / 60, rel=1e-12)

    def test_parseval_rectangular(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=2048)
        sp = spectrum(x, 50.0)
        m2 = sp.magnitudes**2
        rhs = (m2[0] + 2 * m2[1:-1].sum() + m2[-1]) / x.size
        assert rhs == pytest.approx(np.sum(x**2), rel=1e-9)

    def test_unit_impulse_flat(self):
        x = np.zeros(256)
        x[0] = 1.0
        sp = spectrum(x, 50.0)
        assert np.allclose(sp.magnitudes, 1.0, atol=1e-12)

    def test_pure_tone_single_bin(self):
        t = np.arange(3000) / 50.0
        sp = spectrum(np.sin(2 * np.pi * 0.35 * t), 50.0)
        k = np.argmax(sp.magnitudes)
        assert sp.frequencies[k] == pytest.approx(0.35, abs=1e-12)
        others = np.delete(sp.magnitudes, k)
        assert others.max() < 1e-6 * sp.magnitudes[k]

    def test_hann_window(self):
        t = np.arange(3000) / 50.0
        sp = spectrum(np.sin(2 * np.pi * 0.35 * t), 50.0, window="hann")
        assert sp.window == "hann"
        assert sp.frequencies[np.argmax(sp.magnitudes)] == pytest.approx(0.35, abs=1e-12)

    def test_zero_padding(self):
        t = np.arange(300) / 50.0
        sp = spectrum(np.sin(2 * np.pi * 0.35 * t), 50.0, nfft=2400)
        assert sp.bin_spacing == pytest.approx(50.0 / 2400)

    def test_errors(self):
        with pytest.raises(ValueError):
            spectrum(np.ones(1), 50.0)
        with pytest.raises(ValueError):
            spectrum(np.ones(16), 50.0, window="flattop")
        with pytest.raises(ValueError):
            spectrum(np.ones(16), 50.0, nfft=8)


class TestUnwrapPhase:
    def test_single_wrap_crossing(self):
        out = unwrap_phase([0.0, np.pi - 0.1, -np.pi + 0.1])
        assert out == pytest.approx([0.0, np.pi - 0.1, np.pi + 0.1])

    def test_smooth_series_unchanged(self):
        x = np.linspace(0, 2.5, 100)
        assert np.allclose(unwrap_phase(x), x)

    def test_wrap_consistency_random(self):
        # wrap(unwrap(phi)) == wrap(phi), wrap = angle into (-pi, pi]
        rng = np.random.default_rng(7)
        wrap = lambda p: np.angle(np.exp(1j * p))
        for _ in range(100):
            phi = rng.uniform(-10, 10, size=rng.integers(2, 400))
            assert np.allclose(wrap(unwrap_phase(phi)), wrap(phi), atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        phi = rng.uniform(-30, 30, 500)
        once = unwrap_phase(phi)
        assert np.allclose(unwrap_phase(once), once, atol=1e-12)

    def test_differences_bounded(self):
        rng = np.random.default_rng(9)
        out = unwrap_phase(rng.uniform(-20, 20, 1000))
        assert np.all(np.abs(np.diff(out)) <= np.pi + 1e-12)

    def test_first_element_unchanged(self):
        phi = np.array([2.5, -2.9, 3.0])
        assert unwrap_phase(phi)[0] == 2.5


class TestPeakSearch:
    def test_known_tone_refined(self):
        t = np.arange(3000) / 50.0
        sp = spectrum(np.sin(2 * np.pi * 1.45 * t), 50.0)
        peak = peak_search(sp, (0.8, 1.9))
        assert peak.refined_freq == pytest.approx(1.45, abs=0.005)
        assert not peak.at_edge

    def test_on_bin_tone_exact_bin(self):
        t = np.arange(3000) / 50.0
        sp = spectrum(np.sin(2 * np.pi * 0.35 * t), 50.0)
        peak = peak_search(sp, (0.13, 0.5))
        assert peak.freq == pytest.approx(0.35, abs=1e-12)
        assert peak.refined_freq == pytest.approx(0.35, abs=1e-9)

    def test_off_bin_tone_within_fifth_of_bin(self):
        rng = np.random.default_rng(12)
        t = np.arange(3000) / 50.0
        for _ in range(10):
            f0 = rng.uniform(0.16, 0.47)
            sp = spectrum(np.sin(2 * np.pi * f0 * t), 50.0)
            peak = peak_search(sp, (0.13, 0.5))
            assert abs(peak.refined_freq - f0) <= 0.2 * sp.bin_spacing

    def test_two_tones_disjoint_subbands(self):
        t = np.arange(3000) / 50.0
        x = np.sin(2 * np.pi * 12.6 / 60 * t) + np.sin(2 * np.pi * 18.3 / 60 * t)
        sp = spectrum(x, 50.0)
        low = peak_search(sp, (0.13, 0.26))
        high = peak_search(sp, (0.26, 0.5))
        assert 60 * low.refined_freq == pytest.approx(12.6, abs=0.2)
        assert 60 * high.refined_freq == pytest.approx(18.3, abs=0.2)

    def test_monotone_spectrum_edge_flag(self):
        t = np.arange(3000) / 50.0
        sp = spectrum(np.exp(-t / 20.0), 50.0)  # low-pass-ish, falls with f
        peak = peak_search(sp, (0.13, 0.5))
        assert peak.at_edge
        assert peak.refined_freq == peak.freq

    def test_all_zero_band_returns_none(self):
        sp = spectrum(np.zeros(600), 50.0)
        assert peak_search(sp, (0.13, 0.5)) is None

    def test_band_validation(self):
        sp = spectrum(np.ones(600), 50.0)
        with pytest.raises(ValueError):
            peak_search(sp, (30.0, 40.0))
        with pytest.raises(ValueError):
            peak_search(sp, (0.13, 0.14))  # fewer than 3 bins


class TestBandwidth3dB:
    def test_rect_tone_main_lobe(self):
        # duration T gives a half-power width of ~0.886/T
        half = rect_lobe_halfwidth()
        for T in (20.0, 60.0):
            n = int(T * 50)
            t = np.arange(n) / 50.0
            sp = spectrum(np.sin(2 * np.pi * 0.35 * t), 50.0, nfft=16 * n)
            bw = bandwidth_3db(sp, 0.35)
            assert bw.width == pytest.approx(2 * half / T, rel=0.02)
            assert bw.width == pytest.approx(0.886 / T, rel=0.02)

    def test_width_ratio_between_durations(self):
        widths = {}
        for T in (5.0, 60.0):
            n = int(T * 50)
            t = np.arange(n) / 50.0
            sp = spectrum(np.sin(2 * np.pi * 0.35 * t), 50.0, nfft=16 * n)
            widths[T] = bandwidth_3db(sp, 0.35).width
        assert widths[5.0] / widths[60.0] == pytest.approx(12.0, rel=0.05)

    def test_symmetric_crossings(self):
        freqs = np.linspace(0, 25, 2001)
        mags = np.exp(-((freqs - 5.0) ** 2) / (2 * 0.3**2))
        sp = dsp.MagnitudeSpectrum(freqs, mags, "rectangular", 50.0)
        bw = bandwidth_3db(sp, 5.0)
        assert (5.0 - bw.left_freq) == pytest.approx(bw.right_freq - 5.0, rel=1e-6)

    def test_open_interval_flag(self):
        # peak at DC: no left crossing exists
        t = np.arange(1000) / 50.0
        sp = spectrum(np.exp(-t / 50.0), 50.0)
        bw = bandwidth_3db(sp, 0.0)
        assert bw.left_open
        assert bw.left_freq == sp.frequencies[0]
        assert not bw.right_open
