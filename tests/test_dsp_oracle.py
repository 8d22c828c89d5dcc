"""The numpy-only filter kernels against ``scipy.signal`` as an oracle.

scipy is used here only; the package never imports it.  Tolerances:

* the prototype table within 1e-15 of ``ellipap``;
* sections within 1e-12 of scipy's, relative to each section's largest
  coefficient (the ports agree to about 3e-14);
* filtered series within 1e-12 of the output's peak on the vital-sign
  bands at 50 Sa/s.

Where scipy's own float64 rounding is larger than that, the kernels are
also checked against an extended-precision evaluation of the same
definition, and against scipy at a tolerance its error admits: on the
respiration band, ``sosfreqz`` is 2e-12 of the peak away from a
long-double evaluation, and at 1 kSa/s ``sosfiltfilt`` is up to 5e-11
away from a long-double recursion (its ``sosfilt_zi`` solve is
ill-conditioned there), while these kernels stay within 1e-14.
"""

import itertools

import numpy as np
import pytest
from scipy import signal as sps

from vitalchirp import dsp
from vitalchirp.dsp import BandpassSpec, FilterCoeffs, design_bandpass, filter_zero_phase

CHAIN_SPECS = [BandpassSpec(0.13, 0.5, 50.0), BandpassSpec(0.8, 1.9, 50.0)]
BANDS = [(0.13, 0.5, 50.0), (0.8, 1.9, 50.0), (0.1, 0.7, 20.0), (5.0, 40.0, 1000.0)]
RATES = [3.9, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
         5000.0, 10000.0, 20000.0]
LONG_TAIL_SPEC = BandpassSpec(0.13, 0.5, 1000.0)

EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps
needs_long_double = pytest.mark.skipif(not EXTENDED, reason="long double is float64 here")


def scipy_sos(spec):
    return sps.ellip(dsp.ORDER, dsp.PASSBAND_RIPPLE_DB, dsp.STOPBAND_ATTEN_DB,
                     [spec.low_edge, spec.high_edge], btype="bandpass",
                     fs=spec.sample_rate, output="sos")


def section_error(sos, ref):
    return np.max(np.abs(sos - ref) / np.abs(ref).max(axis=1, keepdims=True))


def vital_series(n, sample_rate, seed):
    """Offset, trend, a tone in each vital-sign band and white noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate
    return (3.0 + 0.01 * t + np.sin(2 * np.pi * 0.3 * t)
            + 0.3 * np.sin(2 * np.pi * 1.2 * t) + 0.5 * rng.normal(size=n))


def scipy_filtfilt(coeffs, x):
    # scipy's filter kernels reject the designs' read-only buffers
    return sps.sosfiltfilt(coeffs.sos.copy(), x, padlen=x.size - 1)


def peak_error(y, ref):
    return np.max(np.abs(y - ref)) / np.max(np.abs(ref))


def long_double_steady_pass(sos, u):
    """The cascade over ``u`` from the step steady state at ``u[0]``, in long double."""
    y, scale = u.astype(np.longdouble), np.longdouble(u[0])
    for b0, b1, b2, _, a1, a2 in sos.astype(np.longdouble):
        out = scale * (b0 + b1 + b2) / (1 + a1 + a2)
        zi = np.array([out - b0 * scale, b2 * scale - a2 * out])
        y, _ = sps.lfilter(np.array([b0, b1, b2]), np.array([1, a1, a2], dtype=np.longdouble),
                           y, zi=zi)
        scale = out
    return y


def long_double_filtfilt(sos, x):
    """``sosfiltfilt(sos, x, padlen=len(x) - 1)`` in long double with an exact steady state."""
    n = x.size
    ext = np.concatenate((2 * x[0] - x[:0:-1], x, 2 * x[-1] - x[-2::-1]))
    y = long_double_steady_pass(sos, ext)
    return long_double_steady_pass(sos, y[::-1])[::-1][n - 1:2 * n - 1].astype(float)


@pytest.fixture()
def unchecked_design(monkeypatch):
    """``design_bandpass`` without the mask check, so designs that miss the mask compare too."""
    monkeypatch.setattr(dsp, "_check_conformance", lambda coeffs, spec: None)
    design_bandpass.cache_clear()
    yield design_bandpass
    design_bandpass.cache_clear()


class TestDesign:
    def test_prototype_table_is_ellipap(self):
        def ordered(v):
            return v[np.lexsort((v.imag, v.real))]

        z, p, k = dsp.PROTOTYPE_ZPK
        ref_z, ref_p, ref_k = sps.ellipap(dsp.ORDER, dsp.PASSBAND_RIPPLE_DB,
                                          dsp.STOPBAND_ATTEN_DB)
        assert np.max(np.abs(ordered(z) - ordered(ref_z))) <= 1e-15
        assert np.max(np.abs(ordered(p) - ordered(ref_p))) <= 1e-15
        assert abs(k - ref_k) <= 1e-15

    @pytest.mark.parametrize("pair", range(1, len(RATES) // 2 + 1))
    def test_sections_match_scipy_ellip(self, unchecked_design, pair):
        # RATES two at a time, so a failure names the rates it is at
        rates = RATES[2 * pair - 2:2 * pair]
        worst = 0.0
        for (low, high, _), sample_rate in itertools.product(BANDS, rates):
            if high >= sample_rate / 2:
                continue
            spec = BandpassSpec(low, high, sample_rate)
            sos = unchecked_design(spec).sos
            ref = scipy_sos(spec)
            assert sos.shape == ref.shape == (dsp.ORDER, 6)
            worst = max(worst, section_error(sos, ref))
        assert worst <= 1e-12

    @pytest.mark.parametrize("spec", CHAIN_SPECS + [LONG_TAIL_SPEC])
    def test_chain_designs_match_scipy_ellip(self, spec):
        assert section_error(design_bandpass(spec).sos, scipy_sos(spec)) <= 1e-12


class TestFrequencyResponse:
    @pytest.mark.parametrize("spec", CHAIN_SPECS)
    def test_matches_sosfreqz(self, spec):
        coeffs = design_bandpass(spec)
        freqs, h = dsp.frequency_response(coeffs, 4096)
        ref_freqs, ref = sps.sosfreqz(coeffs.sos, worN=4096, fs=spec.sample_rate)
        assert np.array_equal(freqs, ref_freqs)
        assert peak_error(h, ref) <= 1e-11

    @needs_long_double
    @pytest.mark.parametrize("spec", CHAIN_SPECS)
    def test_matches_long_double_evaluation(self, spec):
        coeffs = design_bandpass(spec)
        _, h = dsp.frequency_response(coeffs, 4096)
        w = np.linspace(0, np.pi, 4096, endpoint=False).astype(np.longdouble)
        zm1 = (np.cos(w) - 1j * np.sin(w)).astype(np.clongdouble)
        ref = np.ones_like(zm1)
        for b0, b1, b2, _, a1, a2 in coeffs.sos.astype(np.longdouble):
            ref *= (b0 + zm1 * (b1 + zm1 * b2)) / (1 + zm1 * (a1 + zm1 * a2))
        assert peak_error(h, ref.astype(complex)) <= 1e-13


class TestZeroPhase:
    @pytest.mark.parametrize("seconds", [5, 7, 10, 30, 60])
    @pytest.mark.parametrize("spec", CHAIN_SPECS)
    def test_matches_sosfiltfilt(self, spec, seconds):
        coeffs = design_bandpass(spec)
        x = vital_series(int(seconds * spec.sample_rate), spec.sample_rate, seconds)
        ref = scipy_filtfilt(coeffs, x)
        assert peak_error(filter_zero_phase(coeffs, x), ref) <= 1e-12

    @pytest.mark.parametrize("seconds", [5, 60])
    def test_long_tail_matches_sosfiltfilt_within_its_rounding(self, seconds):
        coeffs = design_bandpass(LONG_TAIL_SPEC)
        x = vital_series(seconds * 1000, 1000.0, seconds)
        ref = scipy_filtfilt(coeffs, x)
        assert peak_error(filter_zero_phase(coeffs, x), ref) <= 1e-10

    @needs_long_double
    @pytest.mark.parametrize("seconds", [5, 60])
    def test_long_tail_matches_long_double_recursion(self, seconds):
        coeffs = design_bandpass(LONG_TAIL_SPEC)
        x = vital_series(seconds * 1000, 1000.0, seconds)
        ref = long_double_filtfilt(coeffs.sos, x)
        assert peak_error(filter_zero_phase(coeffs, x), ref) <= 1e-12

    def test_shortest_accepted_series(self):
        coeffs = design_bandpass(CHAIN_SPECS[0])
        min_len = 3 * (2 * coeffs.sos.shape[0] + 1)
        with pytest.raises(ValueError, match=f"too short .* more than {min_len}"):
            filter_zero_phase(coeffs, np.ones(min_len))
        x = vital_series(min_len + 1, 50.0, 0)
        ref = scipy_filtfilt(coeffs, x)
        assert peak_error(filter_zero_phase(coeffs, x), ref) <= 1e-12

    def test_hand_built_coefficients_filter_with_their_own_sections(self):
        designed = design_bandpass(CHAIN_SPECS[1])
        doubled = designed.sos.copy()
        doubled[0, :3] *= 2.0
        x = vital_series(3000, 50.0, 1)
        filter_zero_phase(designed, x)  # cache the designed response first
        twice = filter_zero_phase(FilterCoeffs(sos=doubled, spec=designed.spec), x)
        assert peak_error(twice, 4.0 * filter_zero_phase(designed, x)) <= 1e-12

    def test_sections_without_poles(self):
        fir = FilterCoeffs(sos=np.array([[0.25, 0.5, 0.25, 1.0, 0.0, 0.0]]),
                           spec=CHAIN_SPECS[1])
        x = vital_series(500, 50.0, 2)
        assert peak_error(filter_zero_phase(fir, x), scipy_filtfilt(fir, x)) <= 1e-12
