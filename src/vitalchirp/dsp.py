"""Reusable signal-processing kernels.

Elliptic bandpass design and zero-phase application, windowed magnitude
spectra, phase unwrapping, peak search with sub-bin refinement, and 3-dB
bandwidth measurement.  All kernels are pure functions over immutable
inputs and safe for concurrent use on disjoint data.

The elliptic prototype follows S. J. Orfanidis, "Lecture Notes on
Elliptic Filter Design" (Rutgers, 2006) and Lutovac, Tosic and Evans,
*Filter Design for Signal Processing*, chs. 5 and 12; with the bandpass,
bilinear and section-pairing steps of ``scipy.signal.ellip(...,
output="sos")`` it matches that design to rounding, using numpy only.

Zero-phase filtering equals ``scipy.signal.sosfiltfilt(sos, x,
padlen=len(x) - 1)``.  Started from the step steady state at ``u[0]``, a
pass over ``u`` is ``h * (u - u[0]) + u[0] H(1)`` (``h`` the impulse
response), so each pass is one FFT product with ``H`` on the unit circle,
long enough for the slowest pole to decay by 1e-17 before it wraps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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

_MACHEP = 2.0**-53  # Cephes' stopping test for the AGM in ``ellpj``


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
        if not self.passband_ripple > 0:
            raise ValueError("passband_ripple must be > 0")
        if not self.stopband_atten > self.passband_ripple:
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


@dataclass(frozen=True, eq=False)
class FilterCoeffs:
    """Stable cascade of second-order sections realizing a BandpassSpec.

    Compared and hashed by identity, so the filter caches key on it."""

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


def _ellipk(mc: float) -> float:
    """Complete elliptic integral K at parameter ``1 - mc``, by the AGM."""
    a, b = 1.0, math.sqrt(mc)
    while abs(a - b) > 1e-15 * a:
        a, b = (a + b) / 2, math.sqrt(a * b)
    return math.pi / (a + b)


def _ellipj(u, m: float):
    """Jacobi sn, cn, dn of ``u`` at parameter ``m``: AGM, then descending Landen."""
    a, c, b = [1.0], [math.sqrt(m)], math.sqrt(1.0 - m)
    while len(a) < 9:  # Cephes' ``ellpj`` also stops after 8 steps
        a, c, b = a + [(a[-1] + b) / 2], c + [(a[-1] - b) / 2], math.sqrt(a[-1] * b)
        if abs(c[-1] / a[-1]) <= _MACHEP:
            break
    phi = 2.0 ** (len(a) - 1) * a[-1] * np.asarray(u, dtype=float)
    for ai, ci in zip(a[:0:-1], c[:0:-1]):
        prev, phi = phi, (np.arcsin(ci * np.sin(phi) / ai) + phi) / 2
    return np.sin(phi), np.cos(phi), np.cos(phi) / np.cos(phi - prev)


def _arc_sc(t: float, m: float) -> float:
    """Real ``v`` with sc(v, 1 - m) = t, i.e. sn(jv, m) = jt, by Landen (Orfanidis eq. 56)."""
    ks = [math.sqrt(m)]
    while ks[-1]:
        kp = math.sqrt((1 - ks[-1]) * (1 + ks[-1]))
        ks.append((1 - kp) / (1 + kp))
    for k, k_next in zip(ks, ks[1:]):
        t = 2 * t / ((1 + k_next) * (1 + math.sqrt(1 + (k * t) ** 2)))
    return math.prod(1 + k for k in ks[1:]) * math.asinh(t)


def _elliptic_prototype(order: int, ripple_db: float, atten_db: float):
    """Zeros, poles and gain of the analog elliptic lowpass with unit passband edge."""
    cannot = f"cannot design for {ripple_db} dB ripple and {atten_db} dB attenuation"
    try:
        eps_sq = math.expm1(math.log(10) * 0.1 * ripple_db)
        stop_sq = math.expm1(math.log(10) * 0.1 * atten_db)
    except OverflowError:  # a level above about 3080 dB is past the float range
        raise FilterDesignError(cannot) from None
    if order == 1:
        pole = -math.sqrt(1.0 / eps_sq)
        return np.zeros(0, complex), np.array([pole + 0j]), -pole
    m1 = eps_sq / stop_sq
    if not 0 < m1 < 1:
        raise FilterDesignError(cannot)
    # degree equation K(1 - m) / K(m) = K(1 - m1) / (order K(m1)): nome q(m) = q(m1)**(1/order)
    q = math.exp(-math.pi * _ellipk(m1) / _ellipk(1 - m1) / order)
    num = sum(q ** (j * (j + 1)) for j in range(8))
    m = 16 * q * (num / (1 + 2 * sum(q ** (j * j) for j in range(1, 9)))) ** 4
    capk = _ellipk(1 - m)
    s, c, d = _ellipj(np.arange(1 - order % 2, order, 2) * capk / order, m)
    v0 = capk * _arc_sc(1 / math.sqrt(eps_sq), m1) / (order * _ellipk(1 - m1))
    sv, cv, dv = _ellipj(v0, 1 - m)
    p = -(c * d * sv * cv + 1j * s * dv) / (1 - (d * sv) ** 2.0)
    paired = np.abs(s) > 2e-16  # odd orders add one real pole and no zero
    z = 1j / (math.sqrt(m) * s[paired])
    z, p = np.concatenate((z, z.conj())), np.concatenate((p, p[paired].conj()))
    k = (np.prod(-p) / np.prod(-z)).real
    return z, p, (k if order % 2 else k / math.sqrt(1 + eps_sq))


def _one_per_pair(v: np.ndarray) -> np.ndarray:
    """The positive-frequency member of each conjugate pair, then the real values."""
    v = v[np.lexsort((np.abs(v.imag), v.real))]
    real = np.abs(v.imag) <= 100 * np.finfo(float).eps * np.abs(v)
    return np.concatenate((v[~real & (v.imag > 0)], np.sort(v[real].real)))


def _pop_nearest(v: np.ndarray, distance: np.ndarray, real_only: bool = False):
    """The element of ``v`` at the least ``distance`` (a real one if asked), and the rest."""
    i = np.argmin(np.where(np.isreal(v) | (not real_only), distance, np.inf))
    return v[i], np.delete(v, i)


def _sections(z: np.ndarray, p: np.ndarray, k: float) -> np.ndarray:
    """``zpk2sos`` "nearest" pairing: the pole nearest the unit circle, with the
    zeros nearest it, makes the last section; the gain goes into the first."""
    z, p = _one_per_pair(z), _one_per_pair(p)
    sos = []
    while p.size:
        p1, p = _pop_nearest(p, np.abs(1 - np.abs(p)))
        p2, p = _pop_nearest(p, np.abs(1 - np.abs(p)), True) if np.isreal(p1) else (p1.conj(), p)
        z1, z = _pop_nearest(z, np.abs(z - p1))
        z2, z = _pop_nearest(z, np.abs(z - p1), True) if np.isreal(z1) else (z1.conj(), z)
        sos.insert(0, np.concatenate((np.poly([z1, z2]), np.poly([p1, p2]))).real)
    sos = np.array(sos)
    sos[0, :3] *= k
    return sos


@functools.lru_cache(maxsize=128)  # bounded: specs come from callers
@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the finiteness checks
def design_bandpass(spec: BandpassSpec) -> FilterCoeffs:
    """Design an elliptic (Cauer) bandpass as second-order sections.

    The returned cascade is verified on a dense frequency grid: passband
    magnitude inside [-ripple, 0] dB, stopband attenuation met beyond the
    transition edges, and every pole strictly inside the unit circle.  A
    violated constraint raises :class:`FilterDesignError` naming it.

    Equal specs share one memoised, read-only :class:`FilterCoeffs`; a
    failed design is not cached, so it raises on every call.
    """
    z, p, k = _elliptic_prototype(spec.order, spec.passband_ripple, spec.stopband_atten)
    # pre-warped lowpass-to-bandpass transform, then bilinear at fs = 2
    warped = 4.0 * np.tan(np.pi * np.array([spec.low_edge, spec.high_edge]) / spec.sample_rate)
    bw, wo = warped[1] - warped[0], math.sqrt(warped[0] * warped[1])
    degree = p.size - z.size
    z, p = z * bw / 2, p * bw / 2
    z = np.concatenate((z + np.sqrt(z**2 - wo**2), z - np.sqrt(z**2 - wo**2), np.zeros(degree)))
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    k = k * bw**degree * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    z = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(degree)))
    sos = _sections(z, (4.0 + p) / (4.0 - p), k)
    sos.setflags(write=False)
    coeffs = FilterCoeffs(sos=sos, spec=spec)
    _check_conformance(coeffs, spec)
    return coeffs


def _response(sos: np.ndarray, w: np.ndarray) -> np.ndarray:
    """H(e^{jw}) of the cascade in d = 1 - e^{-jw}, which cancels far less than
    e^{-jw} itself near w = 0, where the vital-sign poles sit."""
    d = 2 * np.sin(w / 2) ** 2 + 1j * np.sin(w)
    h = np.ones_like(d)
    for b0, b1, b2, _, a1, a2 in sos:
        h *= ((b0 + b1 + b2) - d * ((b1 + 2 * b2) - b2 * d)) / (
            (1 + a1 + a2) - d * ((a1 + 2 * a2) - a2 * d))
    return h


def frequency_response(
    coeffs: FilterCoeffs, n: int = DENSE_GRID_POINTS
) -> tuple[np.ndarray, np.ndarray]:
    """Complex response of the cascade on ``n`` points from 0, Nyquist / n apart."""
    w = np.linspace(0.0, np.pi, n, endpoint=False)
    return w * (coeffs.spec.sample_rate / (2 * np.pi)), _response(coeffs.sos, w)


def _check_conformance(coeffs: FilterCoeffs, spec: BandpassSpec) -> None:
    tol_db = 0.01
    if not np.all(np.isfinite(coeffs.sos)):
        raise FilterDesignError(f"cannot design order {spec.order}: non-finite sections")
    if np.any(np.abs(coeffs.poles()) >= 1.0):
        raise FilterDesignError("unstable design: pole on or outside the unit circle")
    freqs, h = frequency_response(coeffs, DENSE_GRID_POINTS)
    if not np.all(np.isfinite(h)):
        raise FilterDesignError(f"cannot design order {spec.order}: non-finite response")
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


@functools.lru_cache(maxsize=128)  # bounded: one entry per design
def _tail(coeffs: FilterCoeffs) -> int:
    """Samples until the slowest pole's r**k is below 1e-17, plus the numerators' reach."""
    radius = max(np.abs(coeffs.poles()).max(), 1e-300)
    return math.ceil(-17 * math.log(10) / math.log(radius)) + 2 * len(coeffs.sos)


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c not below ``n``."""
    odd = (3**i * 5**j for i in range(round(math.log(2 * n, 3)) + 1)
           for j in range(round(math.log(2 * n, 5)) + 1))
    return min(f << (-(-n // f) - 1).bit_length() for f in odd)


@functools.lru_cache(maxsize=64)  # bounded: one entry per design and length
def _unit_circle(coeffs: FilterCoeffs, size: int) -> np.ndarray:
    """H(e^{jw}) on the ``rfft`` grid of ``size`` points, read-only since it is shared."""
    h = _response(coeffs.sos, 2 * np.pi * np.arange(size // 2 + 1) / size)
    h.setflags(write=False)
    return h


def _steady_pass(coeffs: FilterCoeffs, u: np.ndarray, keep: int, size: int) -> np.ndarray:
    """Last ``keep`` outputs of the cascade over ``u`` from the step steady state at ``u[0]``."""
    h = _unit_circle(coeffs, size)
    y = np.fft.irfft(np.fft.rfft(u - u[0], size) * h, size)[u.size - keep:u.size]
    return y + u[0] * h[0].real


def filter_zero_phase(coeffs: FilterCoeffs, series: np.ndarray) -> np.ndarray:
    """Apply the cascade with zero net phase (forward, then reversed).

    Zero-phase application preserves waveform timing, at the cost of
    squaring the magnitude response.  Edge transients are handled by
    reflecting the full series at both ends before filtering; the output
    has the input's length.
    """
    x = np.asarray(series, dtype=float)
    min_len = 3 * (2 * coeffs.sos.shape[0] + 1)
    if x.size <= min_len:
        raise ValueError(
            f"series of {x.size} samples is too short for zero-phase filtering "
            f"(need more than {min_len})"
        )
    n, tail = x.size, _tail(coeffs)
    ext = np.concatenate((2 * x[0] - x[:0:-1], x, 2 * x[-1] - x[-2::-1]))
    # the reverse pass reads only the last 2n - 1 forward outputs
    y = _steady_pass(coeffs, ext, 2 * n - 1, _fft_length(max(3 * n - 2, 2 * n - 1 + tail)))
    y = _steady_pass(coeffs, y[::-1], n, _fft_length(max(2 * n - 1, n - 1 + tail)))
    return y[::-1]


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
