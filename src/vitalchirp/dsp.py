"""Reusable signal-processing kernels.

Elliptic bandpass design and zero-phase application, windowed magnitude
spectra, phase unwrapping, peak search with sub-bin refinement, and 3-dB
bandwidth measurement.  All kernels are pure functions over immutable
inputs and safe for concurrent use on disjoint data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

__all__ = [
    "BandpassSpec",
    "FilterCoeffs",
    "FilterDesignError",
    "MagnitudeSpectrum",
    "Peak",
    "Bandwidth3dB",
    "design_bandpass",
    "frequency_response",
    "filter_zero_phase",
    "spectrum",
    "unwrap_phase",
    "peak_search",
    "bandwidth_3db",
]

# Stopband conformance is checked beyond a transition region this wide,
# as a fraction of each band edge.  An order-4 elliptic design cannot
# reach 40 dB within 30% of the 0.5 Hz edge at 50 Sa/s (a 5th order
# would be needed); 35% is the tightest fraction the default order
# meets on both vital-sign bands.
TRANSITION_FRACTION = 0.35

DENSE_GRID_POINTS = 4096


class FilterDesignError(ValueError):
    """Raised when a designed filter violates its response requirements."""


@dataclass(frozen=True)
class BandpassSpec:
    """Requirements for a digital bandpass filter.

    Passband [low_edge, high_edge] with at most ``passband_ripple`` dB of
    ripple; at least ``stopband_atten`` dB of attenuation beyond the
    transition regions (``TRANSITION_FRACTION`` of each edge).
    """

    low_edge: float
    high_edge: float
    sample_rate: float
    passband_ripple: float = 1.0
    stopband_atten: float = 40.0
    order: int = 4

    def __post_init__(self):
        if not 0 < self.low_edge < self.high_edge < self.sample_rate / 2:
            raise ValueError(
                f"band edges must satisfy 0 < low < high < Nyquist, got "
                f"({self.low_edge}, {self.high_edge}) at {self.sample_rate} Sa/s"
            )
        if self.passband_ripple <= 0:
            raise ValueError("passband_ripple must be > 0")
        if self.stopband_atten <= self.passband_ripple:
            raise ValueError("stopband_atten must exceed passband_ripple")
        if self.order < 1:
            raise ValueError("order must be >= 1")

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0

    @property
    def stop_low(self) -> float:
        return self.low_edge * (1.0 - TRANSITION_FRACTION)

    @property
    def stop_high(self) -> float:
        return self.high_edge * (1.0 + TRANSITION_FRACTION)


@dataclass(frozen=True)
class FilterCoeffs:
    """Stable cascade of second-order sections realizing a BandpassSpec."""

    sos: np.ndarray
    spec: BandpassSpec

    @property
    def sections(self) -> list[tuple[float, float, float, float, float]]:
        """Sections as (b0, b1, b2, a1, a2) with a0 normalized to 1."""
        return [tuple(row[[0, 1, 2, 4, 5]]) for row in self.sos]

    def poles(self) -> np.ndarray:
        return np.concatenate(
            [np.roots(np.concatenate(([1.0], row[4:]))) for row in self.sos]
        )


@functools.lru_cache(maxsize=128)  # bounded: specs come from callers
def design_bandpass(spec: BandpassSpec) -> FilterCoeffs:
    """Design an elliptic (Cauer) bandpass as second-order sections.

    The returned cascade is verified on a dense frequency grid: passband
    magnitude inside [-ripple, 0] dB, stopband attenuation met beyond the
    transition edges, and every pole strictly inside the unit circle.  A
    violated constraint raises :class:`FilterDesignError` naming it.

    Equal specs share one memoised, read-only :class:`FilterCoeffs`; a
    failed design is not cached, so it raises on every call.
    """
    sos = sps.ellip(
        spec.order,
        spec.passband_ripple,
        spec.stopband_atten,
        [spec.low_edge, spec.high_edge],
        btype="bandpass",
        fs=spec.sample_rate,
        output="sos",
    )
    sos.setflags(write=False)
    coeffs = FilterCoeffs(sos=sos, spec=spec)
    _check_conformance(coeffs, spec)
    return coeffs


def frequency_response(
    coeffs: FilterCoeffs, n: int = DENSE_GRID_POINTS
) -> tuple[np.ndarray, np.ndarray]:
    """Complex response of the cascade on ``n`` points from 0 to Nyquist."""
    return sps.sosfreqz(coeffs.sos, worN=n, fs=coeffs.spec.sample_rate)


def _check_conformance(coeffs: FilterCoeffs, spec: BandpassSpec) -> None:
    tol_db = 0.01
    if np.any(np.abs(coeffs.poles()) >= 1.0):
        raise FilterDesignError("unstable design: pole on or outside the unit circle")
    freqs, h = frequency_response(coeffs, DENSE_GRID_POINTS)
    mag_db = 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))

    passband = (freqs >= spec.low_edge) & (freqs <= spec.high_edge)
    if np.any(mag_db[passband] < -spec.passband_ripple - tol_db) or np.any(
        mag_db[passband] > tol_db
    ):
        worst = freqs[passband][np.argmin(mag_db[passband])]
        raise FilterDesignError(
            f"passband ripple exceeds {spec.passband_ripple} dB near {worst:.4g} Hz"
        )
    stopband = (freqs <= spec.stop_low) | (freqs >= spec.stop_high)
    if np.any(mag_db[stopband] > -spec.stopband_atten + tol_db):
        worst = freqs[stopband][np.argmax(mag_db[stopband])]
        raise FilterDesignError(
            f"stopband attenuation below {spec.stopband_atten} dB at {worst:.4g} Hz; "
            f"raise the order or relax the transition"
        )


def filter_zero_phase(coeffs: FilterCoeffs, series: np.ndarray) -> np.ndarray:
    """Apply the cascade with zero net phase (forward, then reversed).

    Zero-phase application preserves waveform timing, at the cost of
    squaring the magnitude response.  Edge transients are handled by
    reflecting the full series at both ends before filtering; the output
    has the input's length.
    """
    x = np.asarray(series, dtype=float)
    sos = coeffs.sos.copy()  # scipy's filter kernel rejects read-only buffers
    padlen = x.size - 1
    min_len = 3 * (2 * sos.shape[0] + 1)
    if x.size <= min_len:
        raise ValueError(
            f"series of {x.size} samples is too short for zero-phase filtering "
            f"(need more than {min_len})"
        )
    return sps.sosfiltfilt(sos, x, padlen=padlen)


@dataclass
class MagnitudeSpectrum:
    """Single-sided magnitude spectrum with its bin frequencies."""

    frequencies: np.ndarray
    magnitudes: np.ndarray
    window: str
    sample_rate: float

    @property
    def bin_spacing(self) -> float:
        return self.frequencies[1] - self.frequencies[0]


def spectrum(
    series: np.ndarray,
    sample_rate: float,
    window: str = "rectangular",
    nfft: int | None = None,
) -> MagnitudeSpectrum:
    """Single-sided magnitude spectrum of a real series.

    Magnitudes are raw rFFT magnitudes (no coherent-gain scaling), so
    Parseval's identity holds exactly for the rectangular window:
    sum x^2 = (|X_0|^2 + 2 sum |X_k|^2 + |X_nyq|^2) / N.  ``nfft`` larger
    than the series length zero-pads, interpolating the spectrum to a
    bin spacing of sample_rate / nfft.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise ValueError("series must hold at least 2 samples")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be > 0")
    if window == "rectangular":
        xw = x
    elif window == "hann":
        xw = x * np.hanning(x.size)
    else:
        raise ValueError(f"unsupported window {window!r}")
    n = int(nfft) if nfft is not None else x.size
    if n < x.size:
        raise ValueError("nfft must be >= series length")
    return MagnitudeSpectrum(
        frequencies=np.fft.rfftfreq(n, 1.0 / sample_rate),
        magnitudes=np.abs(np.fft.rfft(xw, n)),
        window=window,
        sample_rate=sample_rate,
    )


def unwrap_phase(phases: np.ndarray) -> np.ndarray:
    """Remove 2-pi jumps: successive differences are brought into [-pi, pi].

    The first element is unchanged; the result is idempotent under
    repeated unwrapping.
    """
    return np.unwrap(np.asarray(phases, dtype=float))


@dataclass(frozen=True)
class Peak:
    """Located spectral peak with sub-bin refinement."""

    freq: float
    magnitude: float
    refined_freq: float
    at_edge: bool = False


def peak_search(spec: MagnitudeSpectrum, band: tuple[float, float]) -> Peak | None:
    """Strongest bin in ``band`` with 3-point parabolic refinement.

    Refinement fits a parabola to the log magnitudes of the peak bin and
    its neighbours; the refined frequency always lies within one bin of
    the peak bin.  A peak landing on a band edge is returned with
    ``at_edge`` set and no refinement.  An all-zero band yields None
    rather than an exception.
    """
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
        return Peak(freqs[k], mags[k], freqs[k], at_edge=True)
    floor = mags[k] * 1e-12
    la, lb, lg = np.log(np.maximum(mags[k - 1 : k + 2], floor))
    denom = la - 2.0 * lb + lg
    delta = 0.0 if denom == 0 else 0.5 * (la - lg) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    return Peak(freqs[k], mags[k], freqs[k] + delta * spec.bin_spacing, at_edge=False)


@dataclass(frozen=True)
class Bandwidth3dB:
    """Half-power width of a spectral peak.

    When a half-power crossing is not found before the spectrum edge on
    one side, that side is flagged open and the edge frequency is used.
    """

    width: float
    left_freq: float
    right_freq: float
    left_open: bool = False
    right_open: bool = False


def bandwidth_3db(spec: MagnitudeSpectrum, peak_freq: float) -> Bandwidth3dB:
    """Width between half-power crossings bracketing the peak at ``peak_freq``.

    Crossings are linearly interpolated between bins at magnitude
    peak / sqrt(2) (half power).
    """
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

    return Bandwidth3dB(
        width=right - left,
        left_freq=left,
        right_freq=right,
        left_open=left_open,
        right_open=right_open,
    )
