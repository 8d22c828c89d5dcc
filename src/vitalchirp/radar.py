"""De-chirped radar receiver simulation.

Synthesizes the receiver output for a scene of breathing subjects as a
slow-time x fast-time matrix of real samples.  The de-chirped echo of a
target at instantaneous range R is the closed-form beat tone

    E(t_f) ~ A cos(2 pi (rate * 2 R / c) t_f + 4 pi R / lambda_c)

so the RF waveform is never sampled; frames are generated directly at the
de-chirped output.  Acquisition is intermittent: one ``frame_width`` burst
of fast-time samples per ``slow_period``, mirroring an externally
triggered oscilloscope capture.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .dsp import hann_window
from .photonics import SPEED_OF_LIGHT, ChirpParams
from .physio import SubjectVitals, TimeGrid, make_time_grid, prefix_length, synth_motion

__all__ = [
    "RadarTarget",
    "AcquisitionParams",
    "DechirpFrameSet",
    "FRAME_BLOCK_ROWS",
    "unambiguous_range",
    "scene_violations",
    "run_blocks",
    "synth_dechirp_frames",
]

DEFAULT_RADAR_NOISE_RMS = 0.5
DEFAULT_DURATION = 60.0

# Rows of the frame matrix synthesized or transformed at a time: 256 rows of
# 600 fast-time samples is 1.2 MB, a block that stays in cache.  Both users,
# synthesis and the hann transform a ``DechirpFrameSet`` keeps, hand the
# blocks to up to two threads through ``run_blocks`` and loop over the
# finished blocks in row order (synthesis adds and draws the noise there).
FRAME_BLOCK_ROWS = 256


@dataclass(frozen=True)
class RadarTarget:
    """One person in the radar scene: motion model, nominal range, echo strength."""

    subject: SubjectVitals
    nominal_range: float
    reflectivity: float = 1.0

    def __post_init__(self):
        flags = [name for name in ("nominal_range", "reflectivity")
                 if isinstance(getattr(self, name), bool)]
        if flags:
            raise ValueError(f"{', '.join(flags)} must be numbers, not true or false")
        if self.nominal_range <= 0:
            raise ValueError(f"nominal_range must be > 0, got {self.nominal_range}")
        if self.reflectivity < 0:
            raise ValueError("reflectivity must be >= 0")


@dataclass(frozen=True)
class AcquisitionParams:
    """Intermittent sampling scheme for the de-chirped signal.

    ``fast_rate`` samples each captured burst, ``frame_width`` is the
    burst length (must fit inside the chirp pulse), and ``slow_period``
    is the burst repetition period.  ``noise_rms`` is the standard
    deviation of additive receiver noise relative to a unit-amplitude
    echo.  Echo amplitude falls as 1/R^amplitude_exponent.
    """

    fast_rate: float = 10e6
    slow_period: float = 20e-3
    frame_width: float = 60e-6
    duration: float = DEFAULT_DURATION
    noise_rms: float = DEFAULT_RADAR_NOISE_RMS
    amplitude_exponent: float = 2.0

    def __post_init__(self):
        if self.fast_rate <= 0 or self.slow_period <= 0 or self.frame_width <= 0:
            raise ValueError("rates and periods must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.fast_rate * self.frame_width < 2:
            raise ValueError("frame must contain at least 2 fast-time samples")
        if self.noise_rms < 0:
            raise ValueError("noise_rms must be >= 0")

    @property
    def slow_rate(self) -> float:
        return 1.0 / self.slow_period

    @property
    def slow_count(self) -> int:
        return make_time_grid(self.duration, self.slow_rate).count

    @property
    def fast_count(self) -> int:
        return int(round(self.frame_width * self.fast_rate))


def _shared_ids(targets) -> list[str]:
    """A message per subject id two ``targets`` share: an id names one target's outputs."""
    ids = [t.subject.id for t in targets]
    return [f"radar targets share the subject id {i!r}"
            for i in sorted(set(ids)) if ids.count(i) > 1]


@dataclass
class DechirpFrameSet:
    """Slow-time x fast-time matrix of real de-chirped samples, rates read from ``acquisition``.

    Its first :meth:`transform` is kept, read-only like ``samples`` from then on; a view of
    ``samples`` taken earlier stays writable, and a write through it makes the kept one stale."""

    samples: np.ndarray
    chirp: ChirpParams
    acquisition: AcquisitionParams
    truth: tuple[RadarTarget, ...] | None = None
    _kept = None  # (samples, spectra, magnitudes) once transformed; not a field

    def __post_init__(self):
        if shared := _shared_ids(self.truth or ()):
            raise ValueError("; ".join(shared))
        acq = self.acquisition
        if self.samples.shape != (acq.slow_count, acq.fast_count):
            raise ValueError(f"samples of shape {self.samples.shape} disagree with the "
                             f"acquisition's {acq.slow_count}x{acq.fast_count} frames")

    @property
    def slow_rate(self) -> float:
        return self.acquisition.slow_rate

    @property
    def fast_rate(self) -> float:
        return self.acquisition.fast_rate

    @property
    def slow_count(self) -> int:
        return self.samples.shape[0]

    @property
    def fast_count(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.slow_count / self.slow_rate

    def truncated(self, duration: float) -> "DechirpFrameSet":
        """First ``duration`` seconds of the record as a new frame set of read-only views."""
        rows = prefix_length(duration, self.slow_rate, self.slow_count)
        out = replace(self, samples=self.samples[:rows],
                      acquisition=replace(self.acquisition, duration=rows / self.slow_rate))
        out.samples.setflags(write=False)  # a write would change this frame set's samples
        if self._kept is not None and self._kept[0] is self.samples:
            out._kept = (out.samples, self._kept[1][:rows], self._kept[2][:rows])
        return out

    def transform(self) -> tuple[np.ndarray, np.ndarray]:
        """The hann-windowed rFFT of each frame and its magnitudes, kept until ``samples`` is
        replaced: blocks on up to two threads (:func:`run_blocks`), bit for bit the one-shot
        transform.  ``ValueError`` names the count of non-finite samples."""
        samples = self.samples
        if self._kept is None or self._kept[0] is not samples:
            if bad := samples.size - np.count_nonzero(np.isfinite(samples)):
                raise ValueError(f"frame set holds {bad} non-finite samples")
            m_count, n_count = samples.shape
            window = hann_window(n_count)
            spectra = np.empty((m_count, n_count // 2 + 1), dtype=complex)
            magnitudes = np.empty(spectra.shape)

            def work(rows, block):
                np.multiply(samples[rows], window, out=block)
                np.fft.rfft(block, axis=1, out=spectra[rows])
                np.abs(spectra[rows], out=magnitudes[rows])

            for _ in run_blocks(m_count, n_count, work, "DechirpFrameSet"):
                pass
            self._kept = (samples, spectra, magnitudes)
            for kept in self._kept:  # every reader shares them
                kept.setflags(write=False)
        return self._kept[1:]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_blocks(row_count: int, width: int, work, name: str):
    """Yield each ``FRAME_BLOCK_ROWS``-row block's ``rows``, in row order, once a
    worker thread has run ``work(rows, scratch)`` on it.

    ``rows`` is the block's slice of ``row_count`` rows.  Each of
    min(2, usable CPUs, blocks) worker threads (``<name>-<k>``) claims the
    next unclaimed block in row order until none is left, so a worker on a
    busy core takes fewer blocks.  ``scratch`` is the block's rows of the
    claiming worker's float buffer of at most ``FRAME_BLOCK_ROWS`` x
    ``width``, which the calling thread allocates: a worker's own allocations
    would come from a per-thread malloc arena and add to the peak RSS.  The
    caller's loop body runs while the workers go on with later blocks.

    An exception ``work`` raised is raised when the loop reaches its block.
    However the loop ends (done, raising, or the generator closed), the
    workers claim no further block and are joined before it leaves.
    """
    blocks = [slice(start, min(start + FRAME_BLOCK_ROWS, row_count))
              for start in range(0, row_count, FRAME_BLOCK_ROWS)]
    unclaimed = deque(range(len(blocks)))  # popleft and clear are atomic
    done = [threading.Event() for _ in blocks]
    failures = [None] * len(blocks)

    def run(buffer):
        while True:
            try:
                i = unclaimed.popleft()
            except IndexError:  # no block left, or the loop has ended
                return
            rows = blocks[i]
            try:
                work(rows, buffer[:rows.stop - rows.start])
            except BaseException as exc:
                failures[i] = exc
            done[i].set()

    height = min(FRAME_BLOCK_ROWS, row_count)
    threads = [threading.Thread(target=run, name=f"{name}-{k}",
                                args=(np.empty((height, width)),))
               for k in range(min(2, _usable_cpus(), len(blocks)))]
    for thread in threads:
        thread.start()
    try:
        for i, rows in enumerate(blocks):
            done[i].wait()
            if failures[i] is not None:
                raise failures[i]
            yield rows
    finally:
        unclaimed.clear()
        for thread in threads:
            thread.join()


def unambiguous_range(chirp: ChirpParams, fast_rate: float) -> float:
    """Largest range whose beat tone stays below the fast-time Nyquist.

    R_max = ``chirp.beat_range(fast_rate / 2)``.
    """
    if fast_rate <= 0:
        raise ValueError("fast_rate must be > 0")
    return chirp.beat_range(fast_rate / 2.0)


def scene_violations(targets, chirp: ChirpParams, acq: AcquisitionParams) -> list[str]:
    """One message per capture rule ``acq`` breaks for ``targets`` under ``chirp``.

    Each frame must fit inside the chirp pulse, bursts must not repeat
    faster than the pulses, every target must sit inside the unambiguous
    range, and no two targets may share a subject id.
    """
    problems = _shared_ids(targets)
    if acq.frame_width > chirp.pulse_width:
        problems.append(f"frame_width {acq.frame_width} s exceeds chirp pulse_width "
                        f"{chirp.pulse_width} s")
    if acq.slow_period < chirp.pulse_period:
        problems.append(f"slow_period {acq.slow_period} s shorter than chirp pulse_period "
                        f"{chirp.pulse_period} s")
    r_max = unambiguous_range(chirp, acq.fast_rate)
    problems += [f"target {t.subject.id!r} at {t.nominal_range:.2f} m is beyond the "
                 f"unambiguous range R_max = {r_max:.2f} m"
                 for t in targets if t.nominal_range >= r_max]
    return problems


def synth_dechirp_frames(
    targets: list[RadarTarget] | tuple[RadarTarget, ...],
    chirp: ChirpParams,
    acq: AcquisitionParams,
    seed: int = 0,
) -> DechirpFrameSet:
    """Synthesize de-chirped frames for a scene of moving targets.

    Each target's chest motion is sampled once per slow-time instant and
    held through the 60 us frame (stop-and-hop: chest velocity moves the
    range by nanometres within a frame).  For slow index m and fast time
    t_f the contribution of target j is

        A_j cos(2 pi f_j(m) t_f + (4 pi / lambda_c)(R0_j + x_j(t_m)))

    with beat frequency f_j(m) = 2 chirp_rate (R0_j + x_j(t_m)) / c and
    A_j = reflectivity_j / R0_j^amplitude_exponent.  Receiver noise is
    white Gaussian, one stream seeded by ``seed`` and drawn in row order
    (equal to a single draw of the whole matrix), scaled by ``noise_rms``
    times the strongest target amplitude (or 1.0 for an empty scene).  An
    empty scene yields pure noise frames; ``noise_rms == 0`` draws none.

    The terms are summed in ``FRAME_BLOCK_ROWS``-row blocks on up to two
    worker threads (:func:`run_blocks`).  The calling thread's loop over the
    finished blocks adds each block's noise and draws the next block's, so
    the noise is drawn serially in row order while the workers run.  Each
    element is summed in the one-shot expressions' order, so the bytes equal
    theirs whatever the thread count.  A worker's exception is raised here.
    """
    problems = scene_violations(targets, chirp, acq)
    if problems:
        raise ValueError("; ".join(problems))

    m_count, n_count = acq.slow_count, acq.fast_count
    t_fast = np.arange(n_count) / acq.fast_rate
    slow_grid = TimeGrid(sample_rate=acq.slow_rate, count=m_count)

    terms = []  # (2 pi f_j(m), phase_j(m), A_j) per target
    for tgt in targets:
        x_m = synth_motion(tgt.subject, slow_grid) * 1e-3  # mm -> m
        rng_range = tgt.nominal_range + x_m
        beat = 2.0 * chirp.chirp_rate * rng_range / SPEED_OF_LIGHT
        phase = 4.0 * np.pi * rng_range / chirp.carrier_wavelength
        amp = tgt.reflectivity / tgt.nominal_range**acq.amplitude_exponent
        terms.append((2.0 * np.pi * beat, phase, amp))
    noise_scale = acq.noise_rms * max((amp for _, _, amp in terms), default=1.0)
    rng = np.random.default_rng(seed) if acq.noise_rms > 0 else None

    # Each element is zeros + the terms in target order + the noise, the
    # one-shot matrix expressions bit for bit.  The loop adds a block's noise
    # once its terms are in, then draws the next block's while the workers sum
    # its terms.  The first block's is drawn in the loop as well, so that every
    # draw runs beside the workers.
    samples = np.zeros((m_count, n_count))
    noise = np.empty((min(FRAME_BLOCK_ROWS, m_count), n_count)) if rng is not None else None

    def add_terms(rows, block):
        for omega, phase, amp in terms:
            np.multiply(omega[rows, None], t_fast, out=block)
            block += phase[rows, None]
            np.cos(block, out=block)
            block *= amp
            samples[rows] += block

    def draw_noise(start):
        block = noise[:min(FRAME_BLOCK_ROWS, m_count - start)]
        rng.standard_normal(out=block)
        block *= noise_scale

    for rows in run_blocks(m_count, n_count, add_terms, "synth_dechirp_frames"):
        if rng is not None:
            if rows.start == 0:
                draw_noise(0)
            samples[rows] += noise[:rows.stop - rows.start]
            draw_noise(rows.stop)

    return DechirpFrameSet(samples=samples, chirp=chirp, acquisition=acq,
                           truth=tuple(targets) if targets else None)
