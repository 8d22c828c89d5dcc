import dataclasses
import itertools
import math

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

RESP_SPEC = BandpassSpec(0.13, 0.5, 50.0)
HEART_SPEC = BandpassSpec(0.8, 1.9, 50.0)


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
        assert mag_db[passband].min() >= -dsp.PASSBAND_RIPPLE_DB - 0.02
        assert mag_db[passband].max() <= 0.02
        stopband = (freqs <= spec.stop_low) | (freqs >= spec.stop_high)
        assert mag_db[stopband].max() <= -dsp.STOPBAND_ATTEN_DB + 0.02
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

    def test_infinite_rate_rejected(self):
        with pytest.raises(ValueError, match="at inf Sa/s"):
            BandpassSpec(0.13, 0.5, np.inf)

    def test_edge_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            BandpassSpec(0.8, 25.0, 50.0)

    def test_unachievable_mask_names_constraint(self):
        # the 0.1-0.7 Hz design is only 33.5 dB down at 0.945 Hz
        with pytest.raises(FilterDesignError, match="stopband attenuation below 40.0 dB at 0.945"):
            design_bandpass(BandpassSpec(0.1, 0.7, 50.0))

    def test_passband_between_grid_points_still_checked(self):
        # at 5000 Sa/s a 4096-point grid from 0 Hz steps 0.61 Hz, over the whole
        # 0.13-0.5 Hz band; the 0.25-0.5 Hz design is -59.6 dB at 0.13 Hz
        sos = design_bandpass(BandpassSpec(0.25, 0.5, 5000.0)).sos
        spec = BandpassSpec(0.13, 0.5, 5000.0)
        with pytest.raises(FilterDesignError, match="passband ripple exceeds 1.0 dB"):
            dsp._check_conformance(dsp.FilterCoeffs(sos=sos, spec=spec), spec)

    @pytest.mark.parametrize("sample_rate", [10.0, 50.0, 500.0, 5000.0, 20000.0])
    def test_chain_bands_designed_at_any_rate(self, sample_rate):
        for spec in (RESP_SPEC, HEART_SPEC):
            design_bandpass(BandpassSpec(spec.low_edge, spec.high_edge, sample_rate))

    @pytest.mark.parametrize("scale", [254, 300])
    def test_gain_past_float_range_cannot_be_designed(self, scale):
        # at 1e9 Sa/s each heart-band section rounds to (1 - 2/z + 1/z**2) over itself;
        # the design sees only edges relative to the rate, so dividing all three by
        # `scale` must fail the same way
        with pytest.raises(FilterDesignError, match="cannot design order 4"):
            design_bandpass(BandpassSpec(0.8, 1.9, 1e9))
        with pytest.raises(FilterDesignError, match="cannot design order 4"):
            design_bandpass(BandpassSpec(0.8 / scale, 1.9 / scale, 1e9 / scale))

    def test_zero_divide_cannot_be_designed(self):
        # every section's denominator is 0 at 0 Hz here while a numerator is not: the
        # division must fail the finiteness check, not warn
        spec = BandpassSpec(0.004231014326655862, 0.07012581235102339, 65457886.86610563)
        with pytest.raises(FilterDesignError) as err:
            design_bandpass(spec)
        assert str(err.value) == "cannot design order 4: non-finite response"

    def test_sections_shape(self):
        coeffs = design_bandpass(RESP_SPEC)
        assert all(len(s) == 5 for s in coeffs.sections)

    def test_equal_specs_share_one_read_only_design(self):
        first = design_bandpass(BandpassSpec(0.13, 0.5, 50.0))
        assert design_bandpass(BandpassSpec(0.13, 0.5, 50.0)) is first
        before = first.sos.copy()
        with pytest.raises(ValueError):
            first.sos[0, 0] = 0.0
        assert np.array_equal(design_bandpass(RESP_SPEC).sos, before)

    def test_failed_design_raises_on_every_call(self):
        spec = BandpassSpec(0.1, 0.7, 50.0)
        for _ in range(2):
            with pytest.raises(FilterDesignError, match="stopband"):
                design_bandpass(spec)


class TestPoles:
    """``FilterCoeffs.poles`` in closed form, against ``np.roots`` of each section."""

    # the chain's bands, the other bands the suite designs and a few more, at 10-1000 Sa/s
    BANDS = [(0.13, 0.5), (0.8, 1.9), (0.25, 0.5), (0.1, 0.7), (5.0, 40.0), (0.1, 0.6),
             (0.5, 3.0), (0.2, 0.45)]
    RATES = [10.0, 20.0, 25.0, 50.0, 100.0, 200.0, 500.0, 1000.0]

    def designs(self):
        """Each band of ``BANDS`` at each rate of ``RATES`` that designs, and the chain's
        bands at the higher rates the suite designs them at."""
        specs = [BandpassSpec(low, high, rate)
                 for (low, high), rate in itertools.product(self.BANDS, self.RATES)
                 if high < rate / 2]
        specs += [BandpassSpec(spec.low_edge, spec.high_edge, rate)
                  for spec in (RESP_SPEC, HEART_SPEC) for rate in (5000.0, 20000.0)]
        designs = []
        for spec in specs + [BandpassSpec(0.25, 0.5, 5000.0)]:
            try:
                designs.append(design_bandpass(spec))
            except FilterDesignError:
                continue
        return designs

    @staticmethod
    def roots(coeffs):
        return np.concatenate([np.roots(np.concatenate(([1.0], row[4:])))
                               for row in coeffs.sos])

    def test_poles_are_each_sections_roots(self):
        # at 20 kSa/s the poles crowd z = 1 and np.roots is itself 1.3e-12 from the roots
        # (the closed form 5e-13, both against a 50-digit evaluation): checked by the tail
        designs = [c for c in self.designs() if c.spec.sample_rate <= 5000.0]
        assert len(designs) >= 40
        for coeffs in designs:
            got, want = coeffs.poles(), self.roots(coeffs)
            distance = np.abs(got[:, None] - want[None, :])  # as sets: each has a match
            assert got.shape == want.shape
            assert distance.min(axis=0).max() <= 1e-12, coeffs.spec
            assert distance.min(axis=1).max() <= 1e-12, coeffs.spec

    def test_tail_is_the_one_from_np_roots(self):
        for coeffs in self.designs():
            radius = max(np.abs(self.roots(coeffs)).max(), 1e-300)
            want = math.ceil(-17 * math.log(10) / math.log(radius)) + 2 * len(coeffs.sos)
            assert dsp._tail(coeffs) == want, coeffs.spec

    @pytest.mark.parametrize("a1, a2, want", [
        (-3.0, 2.0, [2.0, 1.0]),  # real roots
        (1e8, 1.0, [-1e8, -1e-8]),  # real roots far apart: the small one does not cancel
        (0.0, 0.0, [0.0, 0.0]),
        (-1.0, 0.5, [0.5 + 0.5j, 0.5 - 0.5j]),
    ])
    def test_closed_form_of_one_section(self, a1, a2, want):
        coeffs = dsp.FilterCoeffs(sos=np.array([[1.0, 0.0, 0.0, 1.0, a1, a2]]), spec=RESP_SPEC)
        assert np.allclose(coeffs.poles(), want, rtol=1e-15, atol=0)


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
        assert sp.frequencies[np.argmax(sp.magnitudes)] == pytest.approx(0.35, abs=1e-12)

    def test_hann_spectrum_is_the_one_shot_expression_on_every_call(self):
        x = np.random.default_rng(3).normal(size=3000)
        want = np.abs(np.fft.rfft(x * np.hanning(x.size), 8 * x.size))
        for _ in range(2):
            np.testing.assert_array_equal(spectrum(x, 50.0, "hann", 8 * x.size).magnitudes, want)
        with pytest.raises(ValueError):  # the window is shared between calls
            dsp.hann_window(x.size)[0] = 1.0

    def test_frequencies_are_one_shared_read_only_rfftfreq_grid(self):
        x = np.random.default_rng(4).normal(size=3000)
        first = spectrum(x, 50.0, "hann", 8 * x.size).frequencies
        assert first.tobytes() == np.fft.rfftfreq(8 * x.size, 1 / 50.0).tobytes()
        assert spectrum(x[::-1], 50.0, "rectangular", 8 * x.size).frequencies is first
        other = spectrum(x, 33.3, "hann", 8 * x.size).frequencies
        assert other.tobytes() == np.fft.rfftfreq(8 * x.size, 1 / 33.3).tobytes()
        with pytest.raises(ValueError):  # the grid is shared between calls
            first[1] = 0.0

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
        sp = dsp.MagnitudeSpectrum(freqs, mags)
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

    def test_open_interval_flag_at_the_last_bin(self):
        # the half-power point right of a peak 0.1 Hz below Nyquist lies past the last bin
        freqs = np.linspace(0, 25, 2001)
        mags = np.exp(-((freqs - 24.9) ** 2) / (2 * 0.3**2))
        bw = bandwidth_3db(dsp.MagnitudeSpectrum(freqs, mags), 24.9)
        assert bw.right_open
        assert bw.right_freq == freqs[-1]
        assert not bw.left_open
        assert bw.left_freq == pytest.approx(24.9 - 0.3 * np.sqrt(np.log(2)), abs=1e-4)


def full_scan_peak_search(spec, band):
    """Oracle: ``peak_search`` as it was defined before its band was binary-searched."""
    lo, hi = band
    freqs, mags = spec.frequencies, spec.magnitudes
    if lo >= hi or lo < freqs[0] or hi > freqs[-1]:
        raise ValueError(f"band {band} outside spectrum range")
    idx = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    if idx.size < 3:
        raise ValueError(f"band {band} must contain at least 3 bins")
    band_mags = mags[idx]
    if not np.any(band_mags > 0):
        return None
    k = idx[int(np.argmax(band_mags))]
    at_edge = k == idx[0] or k == idx[-1]
    if at_edge or k == 0 or k == mags.size - 1:
        return dsp.Peak(freqs[k], mags[k], freqs[k], at_edge=True)
    floor = mags[k] * 1e-12
    la, lb, lg = np.log(np.maximum(mags[k - 1 : k + 2], floor))
    denom = la - 2.0 * lb + lg
    delta = 0.0 if denom == 0 else 0.5 * (la - lg) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    return dsp.Peak(freqs[k], mags[k], freqs[k] + delta * spec.bin_spacing, at_edge=False)


def full_scan_bandwidth_3db(spec, peak_freq):
    """Oracle: ``bandwidth_3db`` as it was defined before its peak bin was binary-searched."""
    freqs, mags = spec.frequencies, spec.magnitudes
    k = int(np.argmin(np.abs(freqs - peak_freq)))
    if mags[k] <= 0:
        raise ValueError(f"no peak at {peak_freq} Hz: zero magnitude")
    thr = mags[k] / np.sqrt(2.0)
    i = k
    while i > 0 and mags[i] >= thr:
        i -= 1
    if mags[i] >= thr:
        left, left_open = freqs[0], True
    else:
        frac = (thr - mags[i]) / (mags[i + 1] - mags[i])
        left, left_open = freqs[i] + frac * (freqs[i + 1] - freqs[i]), False
    j = k
    last = mags.size - 1
    while j < last and mags[j] >= thr:
        j += 1
    if mags[j] >= thr:
        right, right_open = freqs[last], True
    else:
        frac = (thr - mags[j - 1]) / (mags[j] - mags[j - 1])
        right, right_open = freqs[j - 1] + frac * (freqs[j] - freqs[j - 1]), False
    return dsp.Bandwidth3dB(right - left, left, right, left_open, right_open)


def outcome(call, *args):
    """``call(*args)`` as a tuple of its fields, ``None``, or the ValueError it raised."""
    try:
        result = call(*args)
    except ValueError:
        return ValueError
    return None if result is None else dataclasses.astuple(result)


def oracle_spectra():
    """A 60 s record zero-padded 8x (the bin spacing inexact in binary), and a 400-sample
    one at 50 Sa/s (0.125 Hz bins, exact): noise, a tone on bin 50, and zeros."""
    rng = np.random.default_rng(7)
    for n, pad in ((3000, 8), (400, 1)):
        t = np.arange(n) / 50.0
        f50 = 50.0 * 50 / (n * pad)
        for x in (rng.normal(size=n), np.sin(2 * np.pi * f50 * t) + 0.01 * rng.normal(size=n),
                  np.zeros(n)):
            for window in ("rectangular", "hann"):
                yield spectrum(x, 50.0, window, n * pad)


class TestAgainstFullScan:
    """``peak_search`` and ``bandwidth_3db`` find their bins by binary search on the
    ascending grid; they return what the full scans returned, field for field."""

    def test_peak_search(self):
        for sp in oracle_spectra():
            f, step = sp.frequencies, sp.bin_spacing
            last = f.size - 1
            bands = [(f[10], f[50]), (f[50], f[90]),  # edges on bins; the tone's bin at an edge
                     (f[10] + 0.3 * step, f[90] - 0.6 * step),  # edges between bins
                     (f[0], f[60]), (f[0] + 0.5 * step, f[60]),  # at and past freqs[0]
                     (f[last - 60], f[-1]), (f[last - 60], f[-1] - 0.5 * step),  # freqs[-1]
                     (f[0], f[-1]), (f[20], f[22]), (f[20], f[21]),  # all, 3 and 2 bins
                     (f[20] - 0.5 * step, f[22] + 0.5 * step),  # 3 bins, edges midway
                     (0.13, 0.5), (0.8, 1.9), (f[30], f[30]), (f[-1], f[0])]
            for band in bands:
                assert outcome(peak_search, sp, band) == outcome(full_scan_peak_search, sp,
                                                                 band), band

    def test_bandwidth_3db(self):
        for sp in oracle_spectra():
            f, step = sp.frequencies, sp.bin_spacing
            peak = peak_search(sp, (f[10], f[90]))
            freqs = [*f[:3], *f[-3:], *f[45:56], f[50] + 0.3 * step, f[50] - 0.3 * step,
                     *((f[:-1] + f[1:]) / 2)[[0, 49, 50, -1]],  # midway between two bins
                     f[0] - step, f[-1] + step, *([peak.refined_freq] if peak else [])]
            for peak_freq in freqs:
                assert outcome(bandwidth_3db, sp, peak_freq) == outcome(
                    full_scan_bandwidth_3db, sp, peak_freq), peak_freq
            with pytest.raises(ValueError, match="NaN"):  # the full scan measured at bin 0
                bandwidth_3db(sp, np.nan)

    def test_midway_peak_freq_takes_the_lower_bin(self):
        sp = spectrum(np.random.default_rng(8).normal(size=400), 50.0)
        f = sp.frequencies
        for k in (1, 20, 100):
            mid = (f[k] + f[k + 1]) / 2
            assert mid - f[k] == f[k + 1] - mid  # an exact tie on the 0.125 Hz grid
            lower, upper = bandwidth_3db(sp, f[k]), bandwidth_3db(sp, f[k + 1])
            assert lower != upper
            assert bandwidth_3db(sp, mid) == lower == full_scan_bandwidth_3db(sp, mid)
