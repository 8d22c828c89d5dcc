"""Ground-truth chest-wall motion synthesis.

Each monitored person is described by a :class:`SubjectVitals` record
(respiration and heartbeat rates plus waveform parameters), and
:func:`synth_motion` turns that record into a displacement series in
millimetres on a uniform :class:`TimeGrid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TimeGrid",
    "SubjectVitals",
    "make_time_grid",
    "prefix_length",
    "synth_motion",
    "PRESET_SUBJECTS",
    "preset_subject",
    "RESP_BAND",
    "HEART_BAND",
    "band_violations",
]

# Filter passbands of the downstream rate-extraction chain, in Hz.
# Preset subjects must have their fundamentals inside these bands.
RESP_BAND = (0.13, 0.5)
HEART_BAND = (0.8, 1.9)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: ``count`` instants spaced ``1/sample_rate``."""

    sample_rate: float
    count: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def duration(self) -> float:
        return self.count / self.sample_rate

    def instants(self) -> np.ndarray:
        """Sampling instants t_n = n / sample_rate."""
        return np.arange(self.count) / self.sample_rate


def make_time_grid(duration: float, sample_rate: float) -> TimeGrid:
    """Build a grid covering ``duration`` seconds at ``sample_rate`` Sa/s.

    The sample count is ``round(duration * sample_rate)``; a grid that
    rounds to zero samples is rejected.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be > 0, got {sample_rate}")
    count = int(round(duration * sample_rate))
    return TimeGrid(sample_rate=sample_rate, count=count)


def prefix_length(duration: float, sample_rate: float, count: int) -> int:
    """Samples in the first ``duration`` s of a ``count``-sample record.

    The one truncation rule: ``floor(duration * sample_rate)``, guarded by 1e-9
    so that a duration on the sample grid keeps its last sample.  An empty,
    too long or non-finite prefix raises ``ValueError``.
    """
    n = duration * sample_rate + 1e-9
    if not 1 <= n < count + 1:  # 1 <= floor(n) <= count, and false for nan
        raise ValueError(f"cannot truncate {count / sample_rate:.1f} s record to {duration} s")
    return int(n)


@dataclass(frozen=True)
class SubjectVitals:
    """Ground-truth vital-sign parameters for one person.

    Rates are in cycles per minute; amplitudes are peak chest-wall
    displacement in millimetres.  ``resp_harmonics`` lists breathing
    waveform harmonics as ``(order, relative_amplitude)`` pairs with
    order >= 2 and relative amplitude in [0, 1].  ``motion_noise_rms``
    adds white Gaussian displacement noise (mm RMS), drawn
    deterministically from ``rng_seed``.

    The default amplitudes (4.0 mm respiration, 0.3 mm heartbeat) are
    typical chest-wall scale choices, not measured values; reports built
    from synthetic data flag them as assumptions.
    """

    id: str
    respiration_rate: float
    heartbeat_rate: float
    resp_amplitude: float = 4.0
    heart_amplitude: float = 0.3
    resp_harmonics: tuple[tuple[int, float], ...] = ()
    resp_phase: float = 0.0
    heart_phase: float = 0.0
    motion_noise_rms: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.respiration_rate <= 60:
            raise ValueError(
                f"respiration_rate must be in (0, 60] rpm, got {self.respiration_rate}"
            )
        if not 0 < self.heartbeat_rate <= 200:
            raise ValueError(
                f"heartbeat_rate must be in (0, 200] bpm, got {self.heartbeat_rate}"
            )
        if self.resp_amplitude < 0 or self.heart_amplitude < 0:
            raise ValueError("amplitudes must be >= 0")
        if self.motion_noise_rms < 0:
            raise ValueError("motion_noise_rms must be >= 0")
        for order, rel in self.resp_harmonics:
            if order < 2 or int(order) != order:
                raise ValueError(f"harmonic order must be an integer >= 2, got {order}")
            if not 0 <= rel <= 1:
                raise ValueError(f"harmonic relative amplitude must be in [0, 1], got {rel}")

    @property
    def resp_freq(self) -> float:
        """Respiration fundamental in Hz."""
        return self.respiration_rate / 60.0

    @property
    def heart_freq(self) -> float:
        """Heartbeat fundamental in Hz."""
        return self.heartbeat_rate / 60.0


def synth_motion(subject: SubjectVitals, grid: TimeGrid) -> np.ndarray:
    """Chest-wall displacement x(t) in millimetres on ``grid``.

    x(t) is the sum of the respiration fundamental, its listed harmonics,
    the heartbeat fundamental, and optional white Gaussian motion noise:

        x(t) = A_r sin(2 pi f_r t + phi_r)
             + sum_h rel_h A_r sin(2 pi h f_r t)
             + A_h sin(2 pi f_h t + phi_h)
             + n(t)

    The series is bit-identical for identical (subject, grid) inputs.
    """
    t = grid.instants()
    x = subject.resp_amplitude * np.sin(
        2 * np.pi * subject.resp_freq * t + subject.resp_phase
    )
    for order, rel in subject.resp_harmonics:
        x += rel * subject.resp_amplitude * np.sin(
            2 * np.pi * order * subject.resp_freq * t
        )
    x += subject.heart_amplitude * np.sin(
        2 * np.pi * subject.heart_freq * t + subject.heart_phase
    )
    if subject.motion_noise_rms > 0:
        rng = np.random.default_rng(subject.rng_seed)
        x += rng.normal(0.0, subject.motion_noise_rms, grid.count)
    return x


def band_violations(subject: SubjectVitals) -> list[str]:
    """One message per fundamental of ``subject`` outside its search band."""
    return [
        f"{name} rate {rate} {unit} outside the {lo * 60:g}-{hi * 60:g} {unit} search band"
        for name, rate, unit, (lo, hi) in (
            ("respiration", subject.respiration_rate, "rpm", RESP_BAND),
            ("heartbeat", subject.heartbeat_rate, "bpm", HEART_BAND),
        )
        if not lo <= rate / 60.0 <= hi
    ]


def _physiological(subject: SubjectVitals) -> SubjectVitals:
    """Validate a preset: fundamentals inside the search bands, respiration dominant."""
    problems = band_violations(subject)
    if not subject.resp_amplitude > subject.heart_amplitude:
        problems.append("respiration must dominate chest motion")
    if problems:
        raise ValueError(f"preset {subject.id}: " + "; ".join(problems))
    return subject


# Adult resting presets used across demos and tests.  Subject "b" breathes
# with a visible second harmonic; the others are plain sinusoids.
PRESET_SUBJECTS: dict[str, SubjectVitals] = {
    "subject-a": _physiological(SubjectVitals("subject-a", 21.0, 87.0, rng_seed=101)),
    "subject-b": _physiological(
        SubjectVitals("subject-b", 12.0, 74.0, resp_harmonics=((2, 0.3),), rng_seed=102)
    ),
    "subject-c": _physiological(SubjectVitals("subject-c", 18.0, 68.0, rng_seed=103)),
    "subject-d": _physiological(SubjectVitals("subject-d", 24.0, 73.0, rng_seed=104)),
    "subject-e": _physiological(SubjectVitals("subject-e", 15.0, 81.0, rng_seed=105)),
}


def preset_subject(name: str, **overrides) -> SubjectVitals:
    """Fetch a preset subject, optionally overriding fields."""
    try:
        base = PRESET_SUBJECTS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESET_SUBJECTS)}"
        ) from None
    return replace(base, **overrides) if overrides else base
