"""Reusable signal-processing kernels.

The one elliptic bandpass design and its zero-phase application, windowed
magnitude spectra, phase unwrapping, peak search with sub-bin refinement, and
3-dB bandwidth measurement.  All kernels are pure functions over immutable
inputs and safe for concurrent use on disjoint data.  What depends only on a
length, a rate or a design (hann windows, rfft frequency grids, filter
responses) is built once and shared between calls, bounded and read-only.

The elliptic prototype is a table of its zeros, poles and gain, equal to
``scipy.signal.ellipap(4, 1, 40)``; see S. J. Orfanidis, "Lecture Notes on
Elliptic Filter Design" (Rutgers, 2006) and Lutovac, Tosic and Evans,
*Filter Design for Signal Processing*, chs. 5 and 12.  The bandpass,
bilinear and section-pairing steps of ``scipy.signal.ellip(...,
output="sos")`` are computed from it, with numpy only, and match that
design to rounding.

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
    "hann_window",
    "spectrum",
    "unwrap_phase",
    "peak_search",
    "bandwidth_3db",
]

# The one elliptic design: prototype order (= bandpass sections), ripple, stopband.
ORDER = 4
PASSBAND_RIPPLE_DB = 1.0
STOPBAND_ATTEN_DB = 40.0
# Stopband conformance is checked beyond a transition region this wide,
# as a fraction of each band edge.  An order-4 elliptic design cannot
# reach 40 dB within 30% of the 0.5 Hz edge at 50 Sa/s (a 5th order
# would be needed); 35% is the tightest fraction ORDER meets on both
# vital-sign bands.
TRANSITION_FRACTION = 0.35

DENSE_GRID_POINTS = 4096

# Zeros, poles and gain of the analog elliptic lowpass of ORDER, PASSBAND_RIPPLE_DB
# and STOPBAND_ATTEN_DB with unit passband edge (Orfanidis 2006): within 2.3e-16 of
# ``scipy.signal.ellipap(4, 1.0, 40.0)``.  One member of each conjugate pair is
# listed; ``conj()`` adds the other with a real part of +0.0, where a literal
# ``-3.5j`` has -0.0 and so flips a square-root branch in ``design_bandpass``.
_ZEROS = np.array([3.5252874329960022j, 1.6095504012251538j])
_POLES = np.array([-0.3642905958734215-0.47860276764064974j,
                   -0.10528126462117143-0.9937108112087719j])
PROTOTYPE_ZPK = (np.concatenate((_ZEROS, _ZEROS.conj())),
                 np.concatenate((_POLES, _POLES.conj())), 0.009999999999999992)


class FilterDesignError(ValueError):
    """Raised when a designed filter violates its response requirements."""


@dataclass(frozen=True)
class BandpassSpec:
    """Requirements for a digital bandpass filter.

    Passband [low_edge, high_edge] with at most ``PASSBAND_RIPPLE_DB`` of
    ripple; at least ``STOPBAND_ATTEN_DB`` of attenuation beyond the
    transition regions (``TRANSITION_FRACTION`` of each edge).
    """

    low_edge: float
    high_edge: float
    sample_rate: float

    def __post_init__(self):
        if not 0 < self.low_edge < self.high_edge < self.sample_rate / 2 < math.inf:
            raise ValueError(
                f"band edges must satisfy 0 < low < high < Nyquist < inf, got "
                f"({self.low_edge}, {self.high_edge}) at {self.sample_rate} Sa/s"
            )

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
        """The roots of each section's z**2 + a1 z + a2, in closed form (no LAPACK): a
        conjugate pair, or two real roots q and a2 / q, where q adds the square root of
        the discriminant with the sign of -a1, so it does not cancel."""
        roots = []
        for a1, a2 in self.sos[:, 4:].tolist():
            disc = a1 * a1 - 4.0 * a2
            if disc < 0:
                root = complex(-a1 / 2.0, math.sqrt(-disc) / 2.0)
                roots += [root, root.conjugate()]
            else:
                q = -(a1 + math.copysign(math.sqrt(disc), a1)) / 2.0
                roots += [q, a2 / q if q else 0.0]
        return np.array(roots, dtype=complex)


def _one_per_pair(v: np.ndarray) -> np.ndarray:
    """The positive-frequency member of each conjugate pair."""
    v = v[np.lexsort((np.abs(v.imag), v.real))]
    return v[v.imag > 0]


def _pop_nearest(v: np.ndarray, distance: np.ndarray):
    """The element of ``v`` at the least ``distance``, and the rest."""
    i = np.argmin(distance)
    return v[i], np.delete(v, i)


def _sections(z: np.ndarray, p: np.ndarray, k: float) -> np.ndarray:
    """``zpk2sos`` "nearest" pairing: the conjugate poles nearest the unit circle, with
    the conjugate zeros nearest them, make the last section; the gain goes into the
    first.  No root is real: the zeros sit on the unit circle, the poles off the axis."""
    z, p = _one_per_pair(z), _one_per_pair(p)
    sos = []
    while p.size:
        p1, p = _pop_nearest(p, np.abs(1 - np.abs(p)))
        z1, z = _pop_nearest(z, np.abs(z - p1))
        sos.insert(0, np.concatenate((np.poly([z1, z1.conj()]), np.poly([p1, p1.conj()]))).real)
    sos = np.array(sos)
    sos[0, :3] *= k
    return sos


@functools.lru_cache(maxsize=128)  # bounded: specs come from callers
@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # fails the finiteness checks
def design_bandpass(spec: BandpassSpec) -> FilterCoeffs:
    """Design the elliptic (Cauer) bandpass of ``spec`` as ``ORDER`` second-order sections.

    The returned cascade is verified on a dense frequency grid: passband
    magnitude inside [-PASSBAND_RIPPLE_DB, 0] dB, STOPBAND_ATTEN_DB met beyond
    the transition edges, and every pole strictly inside the unit circle.  A
    violated constraint raises :class:`FilterDesignError` naming it.

    Equal specs share one memoised, read-only :class:`FilterCoeffs`; a
    failed design is not cached, so it raises on every call.
    """
    z, p, k = PROTOTYPE_ZPK
    # pre-warped lowpass-to-bandpass transform, then bilinear at fs = 2
    warped = 4.0 * np.tan(np.pi * np.array([spec.low_edge, spec.high_edge]) / spec.sample_rate)
    bw, wo = warped[1] - warped[0], math.sqrt(warped[0] * warped[1])
    z, p = z * bw / 2, p * bw / 2
    z = np.concatenate((z + np.sqrt(z**2 - wo**2), z - np.sqrt(z**2 - wo**2)))
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    k = k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    sos = _sections((4.0 + z) / (4.0 - z), (4.0 + p) / (4.0 - p), k)
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
    """The mask at explicit points, so no band is narrow enough to fall between them:
    the passband edges and a linear grid between them, and each stopband edge with a
    geometric grid from it out to 0 Hz or Nyquist, dense near the edge at any rate."""
    tol_db = 0.01
    if not np.all(np.isfinite(coeffs.sos)):
        raise FilterDesignError(f"cannot design order {ORDER}: non-finite sections")
    if not np.all(np.abs(coeffs.poles()) < 1.0):  # a NaN root is no stable one
        raise FilterDesignError("unstable design: pole on or outside the unit circle")
    n = DENSE_GRID_POINTS // 4
    reach = np.concatenate(([0.0], np.geomspace(1e-6, 1.0, n)))  # from an edge outwards
    stopbands = [spec.stop_low * (1.0 - reach)]
    if spec.stop_high < spec.nyquist:
        stopbands.append(spec.stop_high + (spec.nyquist - spec.stop_high) * reach)
    freqs = np.concatenate([np.linspace(spec.low_edge, spec.high_edge, n), *stopbands])
    h = _response(coeffs.sos, freqs * (2 * np.pi / spec.sample_rate))
    if not np.all(np.isfinite(h)):
        raise FilterDesignError(f"cannot design order {ORDER}: non-finite response")
    mag_db = 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))

    passband, stopband = slice(n), slice(n, None)
    if np.any(mag_db[passband] < -PASSBAND_RIPPLE_DB - tol_db) or np.any(
        mag_db[passband] > tol_db
    ):
        worst = freqs[passband][np.argmin(mag_db[passband])]
        raise FilterDesignError(
            f"passband ripple exceeds {PASSBAND_RIPPLE_DB} dB near {worst:.4g} Hz"
        )
    if np.any(mag_db[stopband] > -STOPBAND_ATTEN_DB + tol_db):
        worst = freqs[stopband][np.argmax(mag_db[stopband])]
        raise FilterDesignError(
            f"stopband attenuation below {STOPBAND_ATTEN_DB} dB at {worst:.4g} Hz"
        )


@functools.lru_cache(maxsize=128)  # bounded: one entry per design
def _tail(coeffs: FilterCoeffs) -> int:
    """Samples until the slowest pole's r**k is below 1e-17, plus the numerators' reach."""
    radius = max(np.abs(coeffs.poles()).max(), 1e-300)
    return math.ceil(-17 * math.log(10) / math.log(radius)) + 2 * len(coeffs.sos)


@functools.lru_cache(maxsize=64)  # bounded: lengths come from callers
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


@functools.lru_cache(maxsize=32)  # bounded: lengths come from callers
def hann_window(n: int) -> np.ndarray:
    """``np.hanning(n)``, read-only since it is shared between calls."""
    w = np.hanning(n)
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=32)  # bounded: lengths and rates come from callers
def _rfft_grid(n: int, sample_rate: float) -> np.ndarray:
    """``np.fft.rfftfreq(n, 1 / sample_rate)``, read-only since it is shared between calls."""
    f = np.fft.rfftfreq(n, 1.0 / sample_rate)
    f.setflags(write=False)
    return f


@dataclass
class MagnitudeSpectrum:
    """Single-sided magnitude spectrum with its bin frequencies.

    ``frequencies`` ascend.  From :func:`spectrum` they are the rfft grid of
    the spectrum's length and rate, one read-only array shared by every
    spectrum of that length and rate.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray

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
        xw = x * hann_window(x.size)
    else:
        raise ValueError(f"unsupported window {window!r}")
    n = int(nfft) if nfft is not None else x.size
    if n < x.size:
        raise ValueError("nfft must be >= series length")
    return MagnitudeSpectrum(
        frequencies=_rfft_grid(n, sample_rate),
        magnitudes=np.abs(np.fft.rfft(xw, n)),
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
    if not lo < hi or lo < freqs[0] or hi > freqs[-1]:
        raise ValueError(f"band {band} outside spectrum range")
    first, end = freqs.searchsorted(lo, "left"), freqs.searchsorted(hi, "right")
    if end - first < 3:
        raise ValueError(f"band {band} must contain at least 3 bins")
    band_mags = mags[first:end]
    if not np.any(band_mags > 0):
        return None
    k = first + int(np.argmax(band_mags))
    at_edge = k == first or k == end - 1
    if at_edge or k == 0 or k == mags.size - 1:
        return Peak(freqs[k], mags[k], freqs[k], at_edge=True)
    floor = mags[k] * 1e-12
    la, lb, lg = np.log(np.maximum(mags[k - 1 : k + 2], floor))
    denom = la - 2.0 * lb + lg
    delta = 0.0 if denom == 0 else 0.5 * (la - lg) / denom
    delta = float(min(max(delta, -1.0), 1.0))  # np.clip's result, without its overhead
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

    The peak is the bin nearest ``peak_freq``, the lower one on a tie; only
    the two bins around ``peak_freq`` are compared, and a NaN has no nearest
    bin (``ValueError``).  Crossings are linearly interpolated between bins
    at magnitude peak / sqrt(2) (half power).
    """
    if math.isnan(peak_freq):
        raise ValueError("peak_freq is NaN")
    freqs, mags = spec.frequencies, spec.magnitudes
    j = int(freqs.searchsorted(peak_freq))
    k = min(range(max(j - 1, 0), min(j + 1, freqs.size)),
            key=lambda i: abs(freqs[i] - peak_freq))
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
