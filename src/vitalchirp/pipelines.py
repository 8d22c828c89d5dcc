"""End-to-end vital-sign extraction chains.

Contact chain: detected FBG intensity -> detrend -> respiration band
(0.13-0.5 Hz) read from the detrended series, heartbeat band
(0.8-1.9 Hz) from its zero-phase elliptic bandpass output -> magnitude
spectra -> peak search -> rates and 3-dB resolutions.

Contactless chain: de-chirped frames -> fast-time FFT range profile ->
complex series at the selected range bin -> four-quadrant arctangent ->
phase unwrapping -> the same two-band chain on the slow-time phase.
A frame set takes its hann fast-time FFT once
(:meth:`radar.DechirpFrameSet.transform`), however many calls read it:
:func:`range_profile`, :func:`persons` and :func:`extract_target_phase` read
the kept spectra, and each sweep duration's cut of a transformed frame set
(:meth:`radar.DechirpFrameSet.truncated`) reads their first rows.

The chain is fixed: both filters are the one :func:`dsp.design_bandpass`
design (elliptic, ``dsp.ORDER`` 4, ``dsp.PASSBAND_RIPPLE_DB`` 1 dB ripple,
``dsp.STOPBAND_ATTEN_DB`` 40 dB stopband), applied zero-phase, and every
report records it in its metadata.

Measurement spectra are chosen per band to stay honest on short records.
The respiration filter at 50 Sa/s has poles within 0.002 of the unit
circle (a settle time near 10 s), so zero-phase ring-in dominates any
record near the 5 s minimum; respiration is therefore measured on the
detrended raw spectrum, which its own line dominates by construction.
The heartbeat line is far smaller than the respiration line, so its
band is measured on the time-filtered series, where the respiration
component is removed before the observation window can spread it; that
filter settles in about a second.  A report therefore costs one
zero-phase filter; the filtered waveforms of both bands and their
spectra, which ``process --format csv`` exports, come from
:func:`band_waveforms` and are never computed for a report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import dsp
from .photonics import SPEED_OF_LIGHT, IntensityRecord
from .physio import HEART_BAND, RESP_BAND, SubjectVitals, prefix_length
from .radar import DechirpFrameSet

__all__ = [
    "VitalsReport",
    "RangeProfile",
    "PhaseSeries",
    "SweepEntry",
    "SweepReport",
    "TargetSelectionError",
    "contact_rates",
    "band_waveforms",
    "range_profile",
    "persons",
    "extract_target_phase",
    "contactless_rates",
    "resolution_sweep",
]

# Zero-padding factor for measurement spectra: resolves the main lobe
# well enough for sub-bin refinement and half-power interpolation.
SPECTRUM_PAD = 8

MIN_DURATION_S = 5.0


class TargetSelectionError(RuntimeError):
    """No usable range-profile peak near the requested target range."""


@dataclass
class VitalsReport:
    """Extracted rates and resolutions for one subject and modality.

    Rates are in per-minute units; ``resp_3db_hz``/``heart_3db_hz`` are
    the half-power widths of the respective spectral peaks.  Error
    fields are monitored minus actual and present only when ground truth
    was supplied.  ``flags`` records detection status and edge-peak
    conditions; ``metadata`` records the processing parameters that
    produced the numbers (filter design, window, duration), since none
    of those are physical measurements.
    """

    label: str
    modality: str
    respiration_rpm: float | None = None
    heartbeat_bpm: float | None = None
    resp_3db_hz: float | None = None
    heart_3db_hz: float | None = None
    range_m: float | None = None
    resp_error_rpm: float | None = None
    heart_error_bpm: float | None = None
    flags: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict: rates at 0.1 precision with exact values alongside."""
        def fixed(v):
            return None if v is None else round(v, 1)

        return {
            "label": self.label,
            "modality": self.modality,
            "respiration_rpm": fixed(self.respiration_rpm),
            "respiration_rpm_exact": self.respiration_rpm,
            "heartbeat_bpm": fixed(self.heartbeat_bpm),
            "heartbeat_bpm_exact": self.heartbeat_bpm,
            "resp_3db_hz": self.resp_3db_hz,
            "heart_3db_hz": self.heart_3db_hz,
            "range_m": self.range_m,
            "respiration_error_rpm": fixed(self.resp_error_rpm),
            "heartbeat_error_bpm": fixed(self.heart_error_bpm),
            "flags": dict(self.flags),
            "metadata": dict(self.metadata),
        }


def _zero_phase(x, sample_rate, band) -> np.ndarray:
    """``x`` through the fixed elliptic bandpass for ``band``, applied zero-phase."""
    return dsp.filter_zero_phase(
        dsp.design_bandpass(dsp.BandpassSpec(band[0], band[1], sample_rate)), x)


def _measure_band(x, sample_rate, band) -> tuple[float | None, float | None, bool]:
    """Rate per minute, 3-dB width and edge flag of the strongest line of ``x`` in ``band``.

    Rate estimation uses a hann window: it suppresses the tone's own
    negative-frequency image, whose leakage biases the refined peak by
    up to a bin on short records.  The 3-dB resolution is measured on
    the rectangular-window spectrum, whose main lobe is the textbook
    0.886/T.  A band with no spectral energy yields ``(None, None, False)``.
    """
    nfft = SPECTRUM_PAD * x.size
    peak = dsp.peak_search(dsp.spectrum(x, sample_rate, "hann", nfft), band)
    if peak is None:
        return None, None, False
    width = dsp.bandwidth_3db(dsp.spectrum(x, sample_rate, "rectangular", nfft),
                              peak.refined_freq)
    return 60.0 * peak.refined_freq, width.width, peak.at_edge


def _detrended(series) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    return x - x.mean()


def band_waveforms(series, sample_rate: float) -> dict:
    """The detrended ``series`` zero-phase filtered into each band, with spectra.

    Keys ``resp_filtered``/``heart_filtered`` and their rectangular spectra
    ``resp_spectrum``/``heart_spectrum``: ``process --format csv`` exports them.
    Each spectrum ends at the last bin at or below its band's ``stop_high``, past
    which the band's filter attenuates by at least ``dsp.STOPBAND_ATTEN_DB``.
    """
    x = _detrended(series)
    nfft = SPECTRUM_PAD * x.size
    out = {}
    for name, band in (("resp", RESP_BAND), ("heart", HEART_BAND)):
        out[f"{name}_filtered"] = y = _zero_phase(x, sample_rate, band)
        full = dsp.spectrum(y, sample_rate, "rectangular", nfft)
        keep = full.frequencies.searchsorted(dsp.BandpassSpec(*band, sample_rate).stop_high,
                                             "right")
        out[f"{name}_spectrum"] = replace(full, frequencies=full.frequencies[:keep],
                                          magnitudes=full.magnitudes[:keep])
    return out


def _check_duration(duration) -> None:
    if duration < MIN_DURATION_S:
        raise ValueError(f"record of {duration:.2f} s is shorter than {MIN_DURATION_S} s")


def _processing_metadata(sample_rate, duration) -> dict:
    return {
        "sample_rate_hz": sample_rate,
        "duration_s": duration,
        "resp_band_hz": list(RESP_BAND),
        "heart_band_hz": list(HEART_BAND),
        "filter": {
            "type": "elliptic",
            "order": dsp.ORDER,
            "passband_ripple_db": dsp.PASSBAND_RIPPLE_DB,
            "stopband_atten_db": dsp.STOPBAND_ATTEN_DB,
            "zero_phase": True,
            "note": "filter order/ripple/attenuation and zero-phase application "
            "are processing defaults, not measured system properties",
        },
        "window": "rectangular",
        "spectrum_pad": SPECTRUM_PAD,
    }


def _rates_report(series, sample_rate, label, modality, truth, metadata,
                  **fields) -> VitalsReport:
    """Both bands of ``series`` as one report; errors against ``truth`` if given."""
    x = _detrended(series)
    resp_rate, resp_width, resp_edge = _measure_band(x, sample_rate, RESP_BAND)
    heart_rate, heart_width, heart_edge = _measure_band(
        _zero_phase(x, sample_rate, HEART_BAND), sample_rate, HEART_BAND)
    report = VitalsReport(
        label=label,
        modality=modality,
        respiration_rpm=resp_rate,
        heartbeat_bpm=heart_rate,
        resp_3db_hz=resp_width,
        heart_3db_hz=heart_width,
        flags={
            "resp_detected": resp_rate is not None,
            "heart_detected": heart_rate is not None,
            "resp_edge_peak": resp_edge,
            "heart_edge_peak": heart_edge,
        },
        metadata=metadata,
        **fields,
    )
    if truth is not None:
        if resp_rate is not None:
            report.resp_error_rpm = resp_rate - truth.respiration_rate
        if heart_rate is not None:
            report.heart_error_bpm = heart_rate - truth.heartbeat_rate
        report.metadata["truth_amplitudes_assumed"] = True
    return report


def _contact_person(intensity, sample_rate, truth) -> tuple[IntensityRecord, str]:
    """``intensity`` as a record (a bare array needs ``sample_rate``, a record must
    match it) and the name of its person: ``truth``'s id, else ``contact``."""
    name = truth.id if truth is not None else "contact"
    if not isinstance(intensity, IntensityRecord):
        if sample_rate is None:
            raise ValueError("sample_rate is required for a bare array")
        return IntensityRecord(np.asarray(intensity, dtype=float), sample_rate), name
    if sample_rate not in (None, intensity.sample_rate):
        raise ValueError(f"sample_rate {sample_rate} differs from the record's "
                         f"{intensity.sample_rate}")
    return intensity, name


def contact_rates(
    intensity: IntensityRecord | np.ndarray,
    sample_rate: float | None = None,
    truth: SubjectVitals | None = None,
    label: str | None = None,
) -> VitalsReport:
    """Respiration and heartbeat rates from a contact intensity record.

    A bare array needs ``sample_rate``; a record brings its own, which a given one
    must equal.  Needs at least 5 s of finite samples.  A band with no spectral
    energy is reported as not detected rather than raising.
    """
    intensity, name = _contact_person(intensity, sample_rate, truth)
    series, sample_rate = intensity.samples, intensity.sample_rate
    if not np.all(np.isfinite(series)):
        raise ValueError(f"record holds {np.sum(~np.isfinite(series))} non-finite samples")
    duration = series.size / sample_rate
    _check_duration(duration)

    return _rates_report(series, sample_rate, label or name,
                         "contact", truth, _processing_metadata(sample_rate, duration))


@dataclass
class RangeProfile:
    """Slow-time-averaged fast-time FFT magnitude on a range axis."""

    ranges: np.ndarray
    magnitudes: np.ndarray
    bin_width: float

    def peak_indices(self) -> np.ndarray:
        """Interior local maxima, strongest first."""
        m = self.magnitudes
        if m.size < 3 or not np.any(m > 0):
            return np.array([], dtype=int)
        interior = (m[1:-1] >= m[:-2]) & (m[1:-1] >= m[2:]) & (m[1:-1] > 0)
        idx = np.flatnonzero(interior) + 1
        return idx[np.argsort(m[idx])[::-1]]


def _bin_width(frames: DechirpFrameSet) -> float:
    return frames.chirp.beat_range(frames.fast_rate / frames.fast_count)


@dataclass
class PhaseSeries:
    """Unwrapped slow-time phase of one range bin, sampled at its frames' ``slow_rate``."""

    phase: np.ndarray
    bin_index: int
    bin_range: float


def range_profile(frames: DechirpFrameSet) -> RangeProfile:
    """Slow-time-averaged magnitude of the frames' kept hann transform
    (:meth:`radar.DechirpFrameSet.transform`): the profile persons are detected and
    selected on.  Its frequency axis maps to range through the de-chirp relation
    :meth:`photonics.ChirpParams.beat_range`.
    """
    magnitudes = frames.transform()[1]
    freqs = np.fft.rfftfreq(frames.fast_count, 1.0 / frames.fast_rate)
    return RangeProfile(frames.chirp.beat_range(freqs), magnitudes.mean(axis=0),
                        _bin_width(frames))


def persons(
    frames: DechirpFrameSet,
    target_ranges: list[float] | None = None,
) -> list[tuple[float, str, SubjectVitals | None]]:
    """``(range, name, truth)`` of each person the frame set is processed for.

    Each truth target's nominal range, subject id and subject, so persons at one
    range are named and scored apart; without truth, the peaks of :func:`range_profile`
    of at least 0.3 x the strongest, in ascending range, named ``target-<i>``.
    Request ``i`` of ``target_ranges`` is instead the truth target nearest it within
    the 2 range bins selection allows (the first of co-located ones), else
    ``target-<i>``, named and scored as none.
    """
    if target_ranges is not None:
        tol, found = 2.0 * _bin_width(frames), []
        for i, rng in enumerate(target_ranges):
            t = min(frames.truth or (), key=lambda t: abs(t.nominal_range - rng), default=None)
            near = t is not None and abs(t.nominal_range - rng) <= tol
            found.append((rng, t.subject.id, t.subject) if near else (rng, f"target-{i}", None))
        return found
    if frames.truth:
        return [(t.nominal_range, t.subject.id, t.subject) for t in frames.truth]
    profile = range_profile(frames)
    idx = profile.peak_indices()
    mags = profile.magnitudes[idx]
    keep = idx[mags >= 0.3 * mags.max(initial=0.0)]
    ranges = sorted(float(r) for r in profile.ranges[keep])
    return [(r, f"target-{i}", None) for i, r in enumerate(ranges)]


def extract_target_phase(
    frames: DechirpFrameSet,
    target_ranges: list[float],
) -> list[PhaseSeries | TargetSelectionError]:
    """Unwrapped phase history of the range bin nearest each of ``target_ranges``.

    The bin is the :func:`range_profile` peak nearest the request, which avoids
    bin hopping from chest motion; with no peak within 2 bins the request
    gets a :class:`TargetSelectionError` instead, naming the nearest peak.
    The hann window of the per-frame values suppresses the real beat
    tone's negative-frequency image, whose leakage otherwise perturbs the
    phase by a few milliradians.

    A fixed-bin DFT references phase to the window center, so the raw
    bin phase slope versus range is 4 pi / lambda_c plus
    2 pi chirp_rate (N-1) / (c fast_rate).  Each series is rescaled by
    the known ratio so that its swing obeys the de-chirp relation
    delta_phi = 4 pi delta_x / lambda_c exactly.
    """
    profile = range_profile(frames)
    spectra = frames.transform()[0]
    peaks = profile.peak_indices()
    slope_motion = 4.0 * np.pi / frames.chirp.carrier_wavelength
    slope_window = (
        2.0 * np.pi * frames.chirp.chirp_rate * (frames.fast_count - 1)
        / (SPEED_OF_LIGHT * frames.fast_rate)
    )
    scale = slope_motion / (slope_motion + slope_window)
    results = []
    for target_range in target_ranges:
        if peaks.size == 0:
            results.append(TargetSelectionError("range profile has no peaks"))
            continue
        nearest = int(peaks[np.argmin(np.abs(profile.ranges[peaks] - target_range))])
        if abs(profile.ranges[nearest] - target_range) > 2.0 * profile.bin_width:
            results.append(TargetSelectionError(
                f"no range peak within 2 bins of {target_range:.3f} m; nearest peak "
                f"at {profile.ranges[nearest]:.3f} m"
            ))
            continue
        results.append(PhaseSeries(
            phase=dsp.unwrap_phase(np.angle(spectra[:, nearest])) * scale,
            bin_index=nearest,
            bin_range=float(profile.ranges[nearest]),
        ))
    return results


def contactless_rates(
    frames: DechirpFrameSet,
    target_ranges: list[float] | None = None,
) -> list[VitalsReport]:
    """Per-person rates from a de-chirped frame set of at least 5 s.

    One report per :func:`persons` person of ``target_ranges``, labelled with its
    name and scored against its truth (none for ``target-<i>``).  A selection
    failure on one target is reported in that target's flags without aborting
    the others.  Requests that resolve to the same range bin read the same
    phase series, so each of their reports carries ``flags["shared_bin"] = True``.
    Frames holding a non-finite sample raise ``ValueError`` naming their count.
    """
    duration = frames.duration
    _check_duration(duration)
    people = persons(frames, target_ranges)
    phases = extract_target_phase(frames, [rng for rng, _, _ in people])
    bins = [p.bin_index for p in phases if isinstance(p, PhaseSeries)]
    reports = []
    for (rng_req, label, truth), extraction in zip(people, phases):
        metadata = _processing_metadata(frames.slow_rate, duration)
        if isinstance(extraction, TargetSelectionError):
            reports.append(VitalsReport(
                label, "contactless", metadata=metadata,
                flags={"resp_detected": False, "heart_detected": False,
                       "selection_error": str(extraction)},
            ))
            continue
        # no mean is removed before the arctangent: a de-chirped bin has no DC clutter
        metadata.update(requested_range_m=rng_req, dc_compensation=False)
        report = _rates_report(
            extraction.phase, frames.slow_rate, label, "contactless", truth,
            metadata, range_m=extraction.bin_range,
        )
        if bins.count(extraction.bin_index) > 1:
            report.flags["shared_bin"] = True
        reports.append(report)
    return reports


@dataclass
class SweepEntry:
    duration_s: float
    modality: str
    label: str
    respiration_rpm: float | None = None
    heartbeat_bpm: float | None = None
    resp_3db_hz: float | None = None
    heart_3db_hz: float | None = None
    skipped: str | None = None


@dataclass
class SweepReport:
    entries: list[SweepEntry]

    def to_rows(self) -> list[dict]:
        return [asdict(e) for e in self.entries]


def resolution_sweep(
    source: IntensityRecord | np.ndarray | DechirpFrameSet,
    durations: list[float],
    sample_rate: float | None = None,
    truth: SubjectVitals | None = None,
    target_range: float | None = None,
    label: str | None = None,
) -> SweepReport:
    """Rates and 3-dB resolutions at several record lengths.

    Each duration is a truncation of the source record anchored at t=0
    (sliding windows are not used) to :func:`physio.prefix_length` samples;
    the matching rates chain runs on the truncation.  Frames are transformed
    before the first cut (:meth:`radar.DechirpFrameSet.transform`), so every
    cut reads views of the kept spectra and a frame set is transformed once
    however many calls read it; a non-finite sample raises ``ValueError``.
    Durations that rule cannot cut from the source, and for frames a failed
    target selection, are flagged in the entry's ``skipped`` and the
    remaining durations still run.  Durations below 5 s, infinite or not a
    number are rejected.

    Frames are swept at ``target_range``, named as :func:`contactless_rates` names
    it, else at their first :func:`persons` person (``ValueError``
    without one); they carry their own truth and rate, so ``truth`` and ``sample_rate``
    are rejected for them.  Every row carries ``label`` if given, else the person's name.
    """
    if not durations:
        raise ValueError("at least one duration is required")
    if any(not MIN_DURATION_S <= d < np.inf for d in durations):
        raise ValueError(f"durations must be >= {MIN_DURATION_S} s and finite")

    if isinstance(source, DechirpFrameSet):
        if truth is not None or sample_rate is not None:
            raise ValueError("truth and sample_rate apply to contact records, not frames")
        source.transform()  # before any cut, which would otherwise transform itself
        found = persons(source, None if target_range is None else [target_range])
        if not found:
            raise ValueError("frames hold no target: their range profile has no peak")
        rng_req, name, _ = found[0]
        modality, rate, count = "contactless", source.slow_rate, source.slow_count

        def rates(d):
            return contactless_rates(source.truncated(d), [rng_req])[0]
    else:
        record, name = _contact_person(source, sample_rate, truth)
        modality, rate, count = "contact", record.sample_rate, record.samples.size

        def rates(d):
            return contact_rates(record.truncated(d), truth=truth)

    row_label = label or name
    entries = []
    for d in durations:
        try:
            prefix_length(d, rate, count)  # the cut ``rates`` makes, checked first
        except ValueError:
            entries.append(SweepEntry(d, modality, row_label,
                                      skipped=f"duration exceeds {count / rate:.1f} s record"))
            continue
        r = rates(d)
        entries.append(SweepEntry(d, modality, row_label, r.respiration_rpm, r.heartbeat_bpm,
                                  r.resp_3db_hz, r.heart_3db_hz,
                                  r.flags.get("selection_error")))
    return SweepReport(entries=entries)
