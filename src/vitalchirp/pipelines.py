"""End-to-end vital-sign extraction chains.

Contact chain: detected FBG intensity -> detrend -> respiration band
(0.13-0.5 Hz) read from the detrended series, heartbeat band
(0.8-1.9 Hz) from its zero-phase elliptic bandpass output -> magnitude
spectra -> peak search -> rates and 3-dB resolutions.

Contactless chain: de-chirped frames -> fast-time FFT range profile ->
complex series at the selected range bin -> four-quadrant arctangent ->
phase unwrapping -> the same two-band chain on the slow-time phase.
A frame set, read-only from construction like every record, takes its hann
fast-time FFT in one pass over its rows (:meth:`radar.DechirpFrameSet.transform`),
however many calls read it, and keeps the one-second marks of the magnitude sums and
the spectra columns of the range bins its persons' selections can land on
(:func:`_columns`), never the whole spectra.  :func:`range_profile` reads a mark and
the magnitudes of the fewer than a second of rows after it, :func:`extract_target_phase`
the kept columns, and each sweep duration's cut (:meth:`radar.DechirpFrameSet.truncated`)
the first rows of the columns and the marks at or below its row count.  Every record
makes its own cuts and knows its own ``duration``; the chains restate neither.

A record is also measured once, however many calls read it: the record object keeps the
respiration and heartbeat :class:`dsp.Peak` and :class:`dsp.Bandwidth3dB` the rates chain
takes of it (None for a band with no energy), a frame set one entry per range bin, and each
later report reads them back, with its own label, truth, errors, flags and metadata.  A
cut of every row is the record itself, so a sweep's full-length row reads the report's
measurements; a shorter cut is a new record, measured afresh.  The memo belongs to the
object, not to its content: an equal copy is measured again.

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
from .physio import HEART_BAND, RESP_BAND, SubjectVitals
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

SELECTION_TOLERANCE_BINS = 2  # a requested range selects what lies at most this many bins off


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


def _measure_band(x, sample_rate, band) -> tuple[dsp.Peak, dsp.Bandwidth3dB] | None:
    """The refined peak of the strongest line of ``x`` in ``band`` and its 3-dB width.

    Rate estimation uses a hann window: it suppresses the tone's own
    negative-frequency image, whose leakage biases the refined peak by
    up to a bin on short records.  The 3-dB resolution is measured on
    the rectangular-window spectrum, whose main lobe is the textbook
    0.886/T.  A band with no spectral energy yields None.
    """
    nfft = SPECTRUM_PAD * x.size
    peak = dsp.peak_search(dsp.spectrum(x, sample_rate, "hann", nfft), band)
    if peak is None:
        return None
    return peak, dsp.bandwidth_3db(dsp.spectrum(x, sample_rate, "rectangular", nfft),
                                   peak.refined_freq)


def _detrended(series) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    return x - x.mean()


def _band_measurements(record, key, series, sample_rate) -> tuple:
    """The respiration and heartbeat :func:`_measure_band` of ``series``, the series of
    ``record`` at ``key`` (a range bin of a frame set, None for a contact record): taken on
    the first call for the record object and kept in its memo, which later calls read."""
    memo = record._measured
    if key not in memo:
        x = _detrended(series)
        memo[key] = (_measure_band(x, sample_rate, RESP_BAND),
                     _measure_band(_zero_phase(x, sample_rate, HEART_BAND), sample_rate,
                                   HEART_BAND))
    return memo[key]


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


def _rates_report(record, key, series, sample_rate, label, modality, truth, metadata,
                  **fields) -> VitalsReport:
    """Both bands of ``series`` (:func:`_band_measurements`) as a new report; errors against
    ``truth`` if given."""
    resp, heart = _band_measurements(record, key, series, sample_rate)
    resp_rate = None if resp is None else 60.0 * resp[0].refined_freq
    heart_rate = None if heart is None else 60.0 * heart[0].refined_freq
    report = VitalsReport(
        label=label,
        modality=modality,
        respiration_rpm=resp_rate,
        heartbeat_bpm=heart_rate,
        resp_3db_hz=None if resp is None else resp[1].width,
        heart_3db_hz=None if heart is None else heart[1].width,
        flags={
            "resp_detected": resp is not None,
            "heart_detected": heart is not None,
            "resp_edge_peak": resp is not None and resp[0].at_edge,
            "heart_edge_peak": heart is not None and heart[0].at_edge,
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
        return IntensityRecord(np.array(intensity, dtype=float), sample_rate), name
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
    _check_duration(intensity.duration)

    return _rates_report(intensity, None, series, sample_rate, label or name, "contact",
                         truth, _processing_metadata(sample_rate, intensity.duration))


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


def _bin_ranges(frames: DechirpFrameSet) -> np.ndarray:
    """The range of each bin of the frames' fast-time rFFT, by the de-chirp relation."""
    return frames.chirp.beat_range(np.fft.rfftfreq(frames.fast_count, 1.0 / frames.fast_rate))


def _selectable(ranges, target_range, bin_width):
    """Whether each of ``ranges`` lies within ``SELECTION_TOLERANCE_BINS`` bins of width
    ``bin_width`` of ``target_range`` (false for nan): the one rule by which a request
    selects a profile peak or a truth target, and by which a frame set keeps a column."""
    return np.abs(ranges - target_range) <= SELECTION_TOLERANCE_BINS * bin_width


def _columns(frames: DechirpFrameSet, requests=None) -> dict:
    """The kept spectra columns of the frames (:meth:`radar.DechirpFrameSet.transform`),
    holding every bin that a selection for ``requests`` or a truth target's range can land
    on, or every bin where the frames have neither: their persons come from the profile
    and may be at any bin."""
    ranges = [*(requests or ()), *(t.nominal_range for t in frames.truth or ())]
    if requests is None and not ranges:
        return frames.transform()[0]
    near = _selectable(_bin_ranges(frames)[:, None], np.array(ranges), _bin_width(frames))
    return frames.transform(np.flatnonzero(near.any(axis=1)))[0]


@dataclass
class PhaseSeries:
    """Unwrapped slow-time phase of one range bin, sampled at its frames' ``slow_rate``."""

    phase: np.ndarray
    bin_index: int
    bin_range: float


def range_profile(frames: DechirpFrameSet) -> RangeProfile:
    """Slow-time-averaged magnitude of the frames' hann transform, taken, if this call
    takes it, keeping what its persons can select (:func:`_columns`): the profile persons
    are detected and selected on, read from a kept magnitude-sum mark and fewer than a
    second of rows (:meth:`radar.DechirpFrameSet.mean_magnitudes`).  Its frequency axis
    maps to range through the de-chirp relation :meth:`photonics.ChirpParams.beat_range`.
    """
    if frames._kept is None:  # it reads no column, so it adds none to a kept transform
        _columns(frames)
    return RangeProfile(_bin_ranges(frames), frames.mean_magnitudes(), _bin_width(frames))


def persons(
    frames: DechirpFrameSet,
    target_ranges: list[float] | None = None,
) -> list[tuple[float, str, SubjectVitals | None]]:
    """``(range, name, truth)`` of each person the frame set is processed for.

    Each truth target's nominal range, subject id and subject, so persons at one
    range are named and scored apart; without truth, the peaks of :func:`range_profile`
    of at least 0.3 x the strongest, in ascending range, named ``target-<i>``.
    Request ``i`` of ``target_ranges`` is instead the truth target nearest it within
    ``SELECTION_TOLERANCE_BINS`` range bins (the first of co-located ones), else
    ``target-<i>``, named and scored as none; so is a request that is not a number.
    """
    if target_ranges is not None:
        width, found = _bin_width(frames), []
        for i, rng in enumerate(target_ranges):
            t = min(frames.truth or (), key=lambda t: abs(t.nominal_range - rng), default=None)
            near = t is not None and _selectable(t.nominal_range, rng, width)
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
    """Unwrapped phase history of the range bin selected for each of ``target_ranges``.

    The bin is the :func:`range_profile` peak nearest the request, which avoids bin
    hopping from chest motion; a request that is not a finite number, or with no peak
    within ``SELECTION_TOLERANCE_BINS`` bins (naming the nearest), gets a
    :class:`TargetSelectionError`.  The phase is read from the column the frames keep of
    that bin (:func:`_columns`), taken before the profile so that one pass keeps both.
    The hann window of the per-frame values suppresses the real beat
    tone's negative-frequency image, whose leakage otherwise perturbs the
    phase by a few milliradians.

    A fixed-bin DFT references phase to the window center, so the raw
    bin phase slope versus range is 4 pi / lambda_c plus
    2 pi chirp_rate (N-1) / (c fast_rate).  Each series is rescaled by
    the known ratio so that its swing obeys the de-chirp relation
    delta_phi = 4 pi delta_x / lambda_c exactly.
    """
    columns = _columns(frames, target_ranges)
    profile = range_profile(frames)
    peaks = profile.peak_indices()
    slope_motion = 4.0 * np.pi / frames.chirp.carrier_wavelength
    slope_window = (
        2.0 * np.pi * frames.chirp.chirp_rate * (frames.fast_count - 1)
        / (SPEED_OF_LIGHT * frames.fast_rate)
    )
    scale = slope_motion / (slope_motion + slope_window)
    results = []
    for target_range in target_ranges:
        if not np.isfinite(target_range):  # no distance from it picks a peak
            error = f"requested range {target_range} is not a finite number"
        elif peaks.size == 0:
            error = "range profile has no peaks"
        else:
            nearest = int(peaks[np.argmin(np.abs(profile.ranges[peaks] - target_range))])
            error = None if _selectable(profile.ranges[nearest], target_range,
                                        profile.bin_width) else (
                f"no range peak within {SELECTION_TOLERANCE_BINS} bins of "
                f"{target_range:.3f} m; nearest peak at {profile.ranges[nearest]:.3f} m")
        results.append(TargetSelectionError(error) if error else PhaseSeries(
            phase=dsp.unwrap_phase(np.angle(columns[nearest])) * scale,
            bin_index=nearest,
            bin_range=float(profile.ranges[nearest])))
    return results


def contactless_rates(
    frames: DechirpFrameSet,
    target_ranges: list[float] | None = None,
) -> list[VitalsReport]:
    """Per-person rates from a de-chirped frame set of at least 5 s.

    One report per :func:`persons` person of ``target_ranges``, labelled with its
    name and scored against its truth (none for ``target-<i>``), from one
    :func:`extract_target_phase` call for every person.  A selection
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
            frames, extraction.bin_index, extraction.phase, frames.slow_rate, label,
            "contactless", truth, metadata, range_m=extraction.bin_range,
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

    Each duration's row runs the matching rates chain on the source's own cut
    ``truncated(d)``, anchored at t=0 (sliding windows are not used).  A cut of every
    sample is the source record itself, so the full-length row reads the band
    measurements an earlier report took of that record object.  Frames are
    transformed before the first cut, keeping the person's columns
    (:func:`_columns`), and each cut reads views of them.  A
    duration the cut rejects, and for frames a failed target selection, is flagged in
    the entry's ``skipped`` and the remaining durations still run; the rates chain's
    ``ValueError``, as for a non-finite sample, is raised.  Durations below 5 s,
    infinite or not a number are rejected.

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
        found = persons(source, None if target_range is None else [target_range])
        if not found:
            raise ValueError("frames hold no target: their range profile has no peak")
        rng_req, name, _ = found[0]
        _columns(source, [rng_req])  # before any cut, which would otherwise transform itself
        record, modality = source, "contactless"

        def rates(cut):
            return contactless_rates(cut, [rng_req])[0]
    else:
        record, name = _contact_person(source, sample_rate, truth)
        modality = "contact"

        def rates(cut):
            return contact_rates(cut, truth=truth)

    row_label = label or name
    entries = []
    for d in durations:
        try:
            cut = record.truncated(d)
        except ValueError:
            entries.append(SweepEntry(d, modality, row_label, skipped=f"duration exceeds "
                                      f"{record.duration:.1f} s record"))
            continue
        r = rates(cut)
        entries.append(SweepEntry(d, modality, row_label, r.respiration_rpm, r.heartbeat_bpm,
                                  r.resp_3db_hz, r.heart_3db_hz,
                                  r.flags.get("selection_error")))
    return SweepReport(entries=entries)
