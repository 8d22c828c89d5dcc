"""Optical front-end models.

Covers the pieces of the optical chain that shape both monitoring paths:

* Gaussian FBG transmission notch and carrier-edge transduction of
  chest-wall displacement into detected optical power.
* Derivation of the frequency-quadrupled transmit chirp (beating the
  +/-2nd-order sidebands quadruples both the center frequency and the
  bandwidth of the drive chirp) and its carrier wavelength.

Optical fields are never sampled at optical rates; everything is carried
as envelope powers and weights, which preserves every quantity the
processing chain consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .physio import TimeGrid, check_fields, prefix_length

__all__ = [
    "SPEED_OF_LIGHT",
    "IfLfmParams",
    "ChirpParams",
    "FbgProfile",
    "IntensityRecord",
    "derive_chirp",
    "fbg_transmission",
    "fbg_transmission_db",
    "contact_intensity",
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact by the SI definition of the metre

DEFAULT_CONTACT_NOISE_RMS = 0.005
CARRIER_POWER = 1.0  # mW of optical carrier at the contact photodiode
SIDEBAND_POWER = 0.1  # mW of each 2nd-order sideband there


@dataclass(frozen=True)
class IfLfmParams:
    """Intermediate-frequency linear FM drive: f(t) = f_C - f_B/2 + k t.

    ``chirp_rate`` k is bandwidth / pulse_width.
    """

    center_freq: float
    bandwidth: float
    pulse_period: float
    pulse_width: float

    def __post_init__(self):
        check_fields(self)
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if not 0 < self.pulse_width <= self.pulse_period:
            raise ValueError(f"pulse_width must be in (0, pulse_period], got "
                             f"{self.pulse_width} vs period {self.pulse_period}")
        if self.center_freq <= self.bandwidth / 2:
            raise ValueError("center_freq must exceed bandwidth/2")

    @property
    def chirp_rate(self) -> float:
        return self.bandwidth / self.pulse_width


@dataclass(frozen=True)
class ChirpParams:
    """Frequency-quadrupled transmit chirp from an IF-LFM drive; all fields positive, finite."""

    start_freq: float
    sweep_bandwidth: float
    chirp_rate: float
    pulse_period: float
    pulse_width: float
    carrier_wavelength: float

    def __post_init__(self):
        bad = [name for name in check_fields(self) if not 0 < getattr(self, name) < np.inf]
        if bad:
            raise ValueError(f"chirp {', '.join(bad)} must be positive, finite numbers")

    def beat_range(self, freq):
        """Range whose de-chirped beat tone is ``freq``: R = c f / (2 chirp_rate)."""
        return SPEED_OF_LIGHT * freq / (2.0 * self.chirp_rate)

    @property
    def center_freq(self) -> float:
        return self.start_freq + self.sweep_bandwidth / 2.0

    @property
    def stop_freq(self) -> float:
        return self.start_freq + self.sweep_bandwidth


def derive_chirp(if_params: IfLfmParams) -> ChirpParams:
    """Quadruple an IF-LFM drive into the transmitted chirp.

    Beating the +/-2nd-order sidebands gives start frequency
    ``4 f_C - 2 f_B``, sweep ``4 f_B`` and rate ``4 k``; the carrier
    wavelength is c over the start frequency.  Pulse timing is copied.
    """
    start = 4.0 * if_params.center_freq - 2.0 * if_params.bandwidth
    return ChirpParams(
        start_freq=start,
        sweep_bandwidth=4.0 * if_params.bandwidth,
        chirp_rate=4.0 * if_params.chirp_rate,
        pulse_period=if_params.pulse_period,
        pulse_width=if_params.pulse_width,
        carrier_wavelength=SPEED_OF_LIGHT / start,
    )


@dataclass(frozen=True)
class FbgProfile:
    """Gaussian transmission notch of a fiber Bragg grating.

    ``notch_depth_db`` is how far the notch floor sits below the
    passband; ``fwhm_3db`` is the 3-dB width of the notch.  The Gaussian
    sigma follows from those two:

        sigma = fwhm / (2 sqrt(2 ln(depth/3)))

    which places the -3 dB points exactly at +/- fwhm/2.  Depths of 3 dB
    or less leave the 3-dB width undefined and are rejected, and so are
    widths whose 2 sigma^2 is not a positive float.

    ``displacement_to_shift`` maps chest displacement (mm) to Bragg
    shift (Hz); it lumps the strain-transfer physics of the taped
    grating.  The default keeps peak excursions for default motion
    amplitudes well inside the quasi-linear stretch of the edge, so the
    transducer's curvature distortion stays below the heartbeat line
    even when a respiration harmonic falls at a filter-band edge.  The
    optical carrier sits at ``+sigma`` from the notch center, the
    falling-edge point where the dB-domain slope is steepest.
    """

    notch_depth_db: float
    fwhm_3db: float
    displacement_to_shift: float = 0.05e9

    def __post_init__(self):
        check_fields(self)
        if self.notch_depth_db <= 3.0:
            raise ValueError(f"notch depth must exceed 3 dB for a defined 3-dB width, "
                             f"got {self.notch_depth_db}")
        if self.fwhm_3db <= 0:
            raise ValueError(f"fwhm_3db must be > 0, got {self.fwhm_3db}")
        if not 0 < 2.0 * (sigma := float(self.sigma)) * sigma < np.inf:  # floats: no OverflowError
            raise ValueError(f"fwhm_3db {self.fwhm_3db} puts the notch's 2 sigma^2 past the "
                             f"float range")

    @property
    def sigma(self) -> float:
        return self.fwhm_3db / (2.0 * np.sqrt(2.0 * np.log(self.notch_depth_db / 3.0)))


def fbg_transmission_db(fbg: FbgProfile, freq_offset) -> np.ndarray:
    """Transmission in dB at ``freq_offset`` Hz from the notch center."""
    delta = np.asarray(freq_offset, dtype=float)
    with np.errstate(over="ignore"):  # an exponent past the float range is -inf: 0 dB
        return -fbg.notch_depth_db * np.exp(-(delta**2) / (2.0 * fbg.sigma**2))


def fbg_transmission(fbg: FbgProfile, freq_offset) -> np.ndarray:
    """Linear power transmittance at ``freq_offset`` Hz from the notch center.

    Even in the offset, strictly increasing in |offset|, approaching 1
    far from the notch and 10^(-depth/10) at the center.
    """
    return 10.0 ** (fbg_transmission_db(fbg, freq_offset) / 10.0)


@dataclass(frozen=True)
class IntensityRecord:
    """Detected optical power from the contact channel, sample ``n`` at ``n / sample_rate`` s.

    ``sample_rate`` is a finite number > 0.  Read-only from construction; the record object
    keeps the band measurements the rates chain takes of it (``pipelines``), so later calls
    on it read them back."""

    samples: np.ndarray
    sample_rate: float
    edge_warning: bool = False

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.sample_rate < np.inf:
            raise ValueError(f"sample_rate {self.sample_rate!r} is not a finite number > 0")
        self.samples.setflags(write=False)  # from construction, the array passed in too
        object.__setattr__(self, "_measured", {})  # the rates chain's memo; not a field

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def truncated(self, duration: float) -> IntensityRecord:
        """First ``duration`` seconds by :func:`physio.prefix_length`, whose ``ValueError`` it
        raises: the record itself, memo and all, when that is every sample, else a new record
        of views with an empty memo."""
        rows = prefix_length(duration, self.sample_rate, self.samples.size)
        return self if rows == self.samples.size else replace(self, samples=self.samples[:rows])


def contact_intensity(
    motion_mm: np.ndarray,
    fbg: FbgProfile,
    grid: TimeGrid,
    noise_rms: float = DEFAULT_CONTACT_NOISE_RMS,
    rng_seed: int = 0,
) -> IntensityRecord:
    """Detected power at the low-speed photodiode behind the FBG.

    The carrier rides the falling notch edge at ``+sigma``, so a Bragg
    shift of ``displacement_to_shift * x(t)`` modulates its transmittance;
    the two 2nd-order sidebands sit outside the notch and pass unchanged:

        P(t) = CARRIER_POWER * T(sigma - kappa x(t)) + 2 SIDEBAND_POWER

    Beat products lie far above the acquisition band of a 50 Sa/s
    detector chain and are omitted; the photodiode is an ideal power
    detector with responsivity folded into the power units.  ``noise_rms``
    is multiplicative relative Gaussian noise.  If the carrier excursion
    leaves the +/-3 sigma edge region, the record is flagged
    (``edge_warning``) because the transduction is no longer monotone
    over a usable slope.
    """
    x = np.asarray(motion_mm, dtype=float)
    if x.shape != (grid.count,):
        raise ValueError(
            f"motion length {x.shape} does not match grid count {grid.count}"
        )
    if noise_rms < 0:
        raise ValueError("noise_rms must be >= 0")

    offset = fbg.sigma - fbg.displacement_to_shift * x
    power = CARRIER_POWER * fbg_transmission(fbg, offset) + 2.0 * SIDEBAND_POWER
    if noise_rms > 0:
        rng = np.random.default_rng(rng_seed)
        power = power * (1.0 + rng.normal(0.0, noise_rms, grid.count))

    edge = bool(np.max(np.abs(offset)) > 3.0 * fbg.sigma) if x.size else False
    return IntensityRecord(samples=power, sample_rate=grid.sample_rate, edge_warning=edge)
