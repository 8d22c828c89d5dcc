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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .physio import HEART_BAND, SubjectVitals, band_violations, make_time_grid, synth_motion
from .pipelines import MIN_DURATION_S
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

    channels: tuple[WdmChannel, ...]
    acquisition: AcquisitionParams = field(default_factory=AcquisitionParams)
    seed: int = 0
    contact_sample_rate: float = 50.0


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
    if type(s.seed) is not int or not 0 <= s.seed < 2**32:
        violations.append(f"seed {s.seed!r} is not an integer in [0, 2**32)")
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


@dataclass
class ChannelResult:
    channel: WdmChannel
    intensity: IntensityRecord | None = None
    frames: DechirpFrameSet | None = None


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
    report = validate_scenario(s)
    if not report.ok:
        raise ScenarioValidationError(report.violations)

    results: dict[float, ChannelResult] = {}
    for ch in s.channels:
        contact_seed, radar_seed = channel_seeds(s.seed, ch.wavelength_nm)
        result = ChannelResult(channel=ch)

        if CONTACT_ROLE in ch.roles:
            grid = make_time_grid(s.acquisition.duration, s.contact_sample_rate)
            motion = synth_motion(ch.contact_subject, grid)
            record = contact_intensity(
                motion,
                ch.fbg,
                grid,
                noise_rms=ch.contact_noise_rms,
                rng_seed=contact_seed,
            )
            record.samples *= ch.loss_scale
            result.intensity = record

        if CONTACTLESS_ROLE in ch.roles:
            chirp = derive_chirp(ch.if_lfm)
            frames = synth_dechirp_frames(ch.radar_targets, chirp, s.acquisition,
                                          seed=radar_seed)
            frames.samples *= ch.loss_scale
            result.frames = frames

        results[ch.wavelength_nm] = result
    return ScenarioBundle(scenario=s, channels=results)
