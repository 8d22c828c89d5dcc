"""Multi-channel WDM deployment description and execution.

A :class:`Scenario` is a set of wavelength channels plus the capture
settings they share.  Each :class:`WdmChannel` carries its monitoring
roles and the people it monitors: a contact channel one taped FBG sensor
and its subject, a contactless channel a radar scene with any number of
ranged targets.  The FBG and demultiplexer select by wavelength, so
channels are ideally isolated and execute independently; per-channel
noise seeds derive only from (global seed, wavelength), which keeps every
channel's output bit-identical no matter which other channels exist in
the scenario.

:func:`bundle_reports` and :func:`bundle_sweeps` walk a bundle's channels,
simulated or read from disk, to their labelled reports and sweep rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from .dsp import BandpassSpec
from .photonics import (
    DEFAULT_CONTACT_NOISE_RMS,
    SPEED_OF_LIGHT,
    FbgProfile,
    IfLfmParams,
    IntensityRecord,
    contact_intensity,
    derive_chirp,
)
from .physio import HEART_BAND, SubjectVitals, band_violations, check_fields, make_time_grid
from .physio import synth_motion
from .pipelines import MIN_DURATION_S, PhaseSeries, band_waveforms, contact_rates
from .pipelines import contactless_rates, extract_target_phase, persons, range_profile
from .pipelines import resolution_sweep
from .radar import AcquisitionParams, DechirpFrameSet, RadarTarget
from .radar import scene_violations, synth_dechirp_frames

__all__ = [
    "WdmChannel",
    "Scenario",
    "ValidationReport",
    "ScenarioValidationError",
    "ChannelResult",
    "ScenarioBundle",
    "validate_scenario",
    "run_scenario",
    "channel_seeds",
    "channel_name",
    "bundle_reports",
    "bundle_sweeps",
]

CONTACT_ROLE = "contact"
CONTACTLESS_ROLE = "contactless"

# ITU-T DWDM anchor and spacing used only for off-grid warnings.
ITU_ANCHOR_HZ = 193.1e12
ITU_SPACING_HZ = 50e9
ITU_TOLERANCE_HZ = 1e9

FIBER_LOSS_DB_PER_KM = 0.2  # standard single-mode fiber at 1550 nm


class ScenarioValidationError(ValueError):
    """Raised when running a scenario that fails validation."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class WdmChannel:
    """One wavelength, the monitoring roles it carries and the people it serves.

    ``contact_subject`` is the person wearing the channel's FBG (contact
    role); ``radar_targets`` are the people its radar scene ranges
    (contactless role).
    """

    wavelength_nm: float
    roles: frozenset[str]
    if_lfm: IfLfmParams
    fbg: FbgProfile | None = None
    fiber_length_km: float = 0.0
    contact_noise_rms: float = DEFAULT_CONTACT_NOISE_RMS
    contact_subject: SubjectVitals | None = None
    radar_targets: tuple[RadarTarget, ...] = ()

    def __post_init__(self):
        check_fields(self)
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength must be > 0")
        bad = set(self.roles) - {CONTACT_ROLE, CONTACTLESS_ROLE}
        if bad:
            raise ValueError(f"unknown roles {sorted(bad)}")
        if not self.fiber_length_km >= 0:
            raise ValueError(f"fiber_length_km must be >= 0, got {self.fiber_length_km}")

    @property
    def loss_scale(self) -> float:
        """Power scale of ``fiber_length_km`` of fiber at ``FIBER_LOSS_DB_PER_KM``."""
        return 10.0 ** (-FIBER_LOSS_DB_PER_KM * self.fiber_length_km / 10.0)


@dataclass
class Scenario:
    """WDM channels and the capture settings and noise seed they share.

    ``acquisition.duration`` is the record length of every channel."""

    channels: tuple[WdmChannel, ...] = ()
    acquisition: AcquisitionParams = field(default_factory=AcquisitionParams)
    seed: Annotated[int, 32] = 0
    contact_sample_rate: float = 50.0

    def __post_init__(self):
        check_fields(self)  # ``validate_scenario`` checks the rest


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _off_itu_grid(wavelength_nm: float) -> bool:
    freq = SPEED_OF_LIGHT / (wavelength_nm * 1e-9)
    rem = (freq - ITU_ANCHOR_HZ) % ITU_SPACING_HZ
    return min(rem, ITU_SPACING_HZ - rem) > ITU_TOLERANCE_HZ


def channel_name(wavelength_nm: float) -> str:
    """The name a channel's bundle directory, truth entry and report labels carry."""
    return f"{wavelength_nm:g}"


def validate_scenario(s: Scenario) -> ValidationReport:
    """Structural and physical checks; violations are data, not exceptions."""
    report = ValidationReport()
    violations = report.violations
    if not s.channels:
        violations.append("no channels")
    try:
        check_fields(s)  # again: a field set since ``s`` was built (``simulate --seed``)
    except ValueError as exc:
        violations.append(str(exc))
    if not s.acquisition.duration >= MIN_DURATION_S:
        violations.append(
            f"record of {s.acquisition.duration:.2f} s is shorter than {MIN_DURATION_S} s")
    record_rates = {CONTACT_ROLE: s.contact_sample_rate, CONTACTLESS_ROLE: s.acquisition.slow_rate}
    for role in sorted({role for ch in s.channels for role in ch.roles}):
        try:
            BandpassSpec(*HEART_BAND, record_rates[role])
        except ValueError as exc:
            violations.append(f"{role} record: {exc}")
    seen: set[str] = set()
    for ch in s.channels:
        wl, subject, targets = ch.wavelength_nm, ch.contact_subject, ch.radar_targets
        if (name := channel_name(wl)) in seen:
            violations.append(f"duplicate wavelength {wl} nm: channel name {name!r} is taken")
        seen.add(name)
        if _off_itu_grid(wl):
            report.warnings.append(
                f"wavelength {wl} nm is more than 1 GHz off the 50 GHz ITU grid"
            )
        if not ch.roles:
            violations.append(f"channel {wl} nm has no role")

        if CONTACT_ROLE in ch.roles:
            if ch.fbg is None:
                violations.append(f"channel {wl} nm has the contact role but no FBG")
            if subject is None:
                violations.append(f"channel {wl} nm has the contact role but no subject")
        elif subject is not None:
            violations.append(f"contact subject on channel {wl} nm which lacks the contact role")
        if subject is not None:
            violations.extend(f"channel {wl} nm contact subject {subject.id!r}: {v}"
                              for v in band_violations(subject))

        if CONTACTLESS_ROLE in ch.roles:
            if not targets:
                violations.append(
                    f"channel {wl} nm has the contactless role but no radar scene")
        elif targets:
            violations.append(
                f"radar scene on channel {wl} nm which lacks the contactless role")
        if targets:
            violations.extend(f"channel {wl} nm: {v}" for v in scene_violations(
                targets, derive_chirp(ch.if_lfm), s.acquisition))
        for tgt in targets:
            violations.extend(f"channel {wl} nm target {tgt.subject.id!r}: {v}"
                              for v in band_violations(tgt.subject))
    return report


def channel_seeds(global_seed: int, wavelength_nm: float) -> tuple[int, int]:
    """Deterministic (contact, radar) noise seeds for one channel.

    Derived from (global seed, wavelength in femtometres) only, so adding
    or removing other channels never perturbs a channel's streams.
    """
    wl_key = int(round(wavelength_nm * 1e6))
    ss = np.random.SeedSequence([global_seed, wl_key])
    contact_seed, radar_seed = (int(v) for v in ss.generate_state(2))
    return contact_seed, radar_seed


@dataclass(frozen=True)
class ChannelResult:
    """One channel's records, from :func:`run_scenario` or ``formats.read_bundle``: the
    contact role's ``intensity`` of ``contact_subject``, the contactless role's ``frames``."""

    wavelength_nm: float
    contact_subject: SubjectVitals | None = None
    intensity: IntensityRecord | None = None
    frames: DechirpFrameSet | None = None

    @property
    def contact_sample_rate(self) -> float | None:
        return None if self.intensity is None else self.intensity.sample_rate


@dataclass
class ScenarioBundle:
    scenario: Scenario
    channels: dict[float, ChannelResult]


def run_scenario(s: Scenario) -> ScenarioBundle:
    """Synthesize every channel of a validated scenario.

    Link loss is applied as a pure power scale on each channel's output;
    the extraction chains are scale-invariant, so it never moves a rate.
    Bundles are deterministic under the scenario seed.
    """
    if not (report := validate_scenario(s)).ok:
        raise ScenarioValidationError(report.violations)

    results: dict[float, ChannelResult] = {}
    for ch in s.channels:
        contact_seed, radar_seed = channel_seeds(s.seed, ch.wavelength_nm)
        intensity = frames = None
        if CONTACT_ROLE in ch.roles:
            grid = make_time_grid(s.acquisition.duration, s.contact_sample_rate)
            record = contact_intensity(
                synth_motion(ch.contact_subject, grid), ch.fbg, grid,
                noise_rms=ch.contact_noise_rms, rng_seed=contact_seed)
            intensity = replace(record, samples=record.samples * ch.loss_scale)
        if CONTACTLESS_ROLE in ch.roles:
            frames = synth_dechirp_frames(ch.radar_targets, derive_chirp(ch.if_lfm),
                                          s.acquisition, seed=radar_seed,
                                          loss_scale=ch.loss_scale)
        results[ch.wavelength_nm] = ChannelResult(ch.wavelength_nm, ch.contact_subject,
                                                  intensity, frames)
    return ScenarioBundle(scenario=s, channels=results)


def _walk(channels, duration=None):
    """Each channel cut to ``duration`` s (``ValueError`` past a record), its frames a
    fresh frame set (``replace``; a cut of every row is the record itself): the marks
    and columns a transform of them keeps go with the yielded channel, and the records
    passed in keep none.  Both walks process a channel's frames before its contact
    record and list the contact results first: a frame transform taken after the
    contact chain raised peak RSS (``process`` 0.2-0.4 MiB, ``sweep`` about 1 MiB,
    measured while a transform kept the whole spectra)."""
    for ch in channels:
        if duration is not None:
            ch = replace(ch, intensity=ch.intensity and ch.intensity.truncated(duration),
                         frames=ch.frames and ch.frames.truncated(duration))
        yield replace(ch, frames=ch.frames and replace(ch.frames))


def _label(ch: ChannelResult, name: str) -> str:
    """``<name>@<channel name>nm``: a chain's label placed on its channel."""
    return f"{name}@{channel_name(ch.wavelength_nm)}nm"


def _series_files(ch: ChannelResult) -> dict:
    """The series ``process --format csv`` writes for one channel, as ``{file: columns}``."""
    tag, files = f"{channel_name(ch.wavelength_nm)}nm", {}
    if ch.intensity is not None:
        rate = ch.intensity.sample_rate
        waves = band_waveforms(ch.intensity.samples, rate)
        files[f"contact_{tag}_waveforms.csv"] = {
            "t_s": np.arange(ch.intensity.samples.size) / rate,
            **{key: waves[key] for key in ("resp_filtered", "heart_filtered")}}
        for band in ("resp", "heart"):
            sp = waves[f"{band}_spectrum"]
            files[f"contact_{tag}_{band}_spectrum.csv"] = {
                "freq_hz": sp.frequencies, "magnitude": sp.magnitudes}
    if (frames := ch.frames) is not None:
        profile = range_profile(frames)
        files[f"range_profile_{tag}.csv"] = {
            "range_m": profile.ranges, "magnitude": profile.magnitudes}
        people = persons(frames)
        for (_, name, _), ext in zip(people, extract_target_phase(
                frames, [rng for rng, _, _ in people])):
            if isinstance(ext, PhaseSeries):  # else its report holds the error
                files[f"phase_{tag}_{name}.csv"] = {
                    "t_s": np.arange(ext.phase.size) / frames.slow_rate,
                    "phase_rad": ext.phase}
    return files


def bundle_reports(channels, duration=None, series=False) -> tuple[list, dict]:
    """The reports of each person on ``channels`` (:class:`ChannelResult` records) cut
    to ``duration`` s, labelled ``<id>@<channel name>nm``, and with ``series`` the
    ``{file name: columns}`` ``process --format csv`` writes (else empty).
    A record that cannot be processed raises ``ValueError``."""
    reports, files = [], {}
    for ch in _walk(channels, duration):
        found = contactless_rates(ch.frames) if ch.frames else []
        if ch.intensity is not None:
            found.insert(0, contact_rates(ch.intensity, truth=ch.contact_subject))
        reports += [replace(rep, label=_label(ch, rep.label)) for rep in found]
        if series:
            files.update(_series_files(ch))
        del ch  # and the marks and columns its frames keep, before the walk moves on
    return reports, files


def bundle_sweeps(channels, durations) -> list[dict]:
    """The :func:`pipelines.resolution_sweep` rows of each person on ``channels``,
    labelled and raising as :func:`bundle_reports` does; co-located persons keep their names.
    A channel's frames are transformed once: the first sweep's pass keeps the columns of
    every truth target, or of every bin where the persons come from the profile."""
    rows = []
    for ch in _walk(channels):
        sweeps = [resolution_sweep(ch.frames, durations, target_range=rng, label=name)
                  for rng, name, _ in (persons(ch.frames) if ch.frames else ())]
        if ch.intensity is not None:
            sweeps.insert(0, resolution_sweep(ch.intensity, durations, truth=ch.contact_subject))
        rows += [dict(row, label=_label(ch, row["label"])) for s in sweeps for row in s.to_rows()]
        del ch  # and the marks and columns its frames keep, before the walk moves on
    return rows
