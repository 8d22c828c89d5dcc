"""De-chirped radar receiver simulation.

Synthesizes the receiver output for a scene of breathing subjects as a
slow-time x fast-time matrix of real samples.  The de-chirped echo of a
target at instantaneous range R is the closed-form beat tone

    E(t_f) ~ A cos(2 pi (rate * 2 R / c) t_f + 4 pi R / lambda_c)

so the RF waveform is never sampled; frames are generated directly at the
de-chirped output.  Acquisition is intermittent: one ``frame_width`` burst
of fast-time samples per ``slow_period``, mirroring an externally
triggered oscilloscope capture.

A frame set's hann fast-time transform is one pass over its rows, a block at a
time (:meth:`DechirpFrameSet.transform`): it keeps the one-second marks of the
magnitude sums and the spectra columns of the range bins asked for, so a frame set
never holds its rows x bins spectra.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .dsp import hann_window
from .photonics import SPEED_OF_LIGHT, ChirpParams
from .physio import SubjectVitals, TimeGrid, check_fields, make_time_grid, prefix_length
from .physio import synth_motion

__all__ = [
    "RadarTarget",
    "AcquisitionParams",
    "DechirpFrameSet",
    "FRAME_BLOCK_ROWS",
    "non_finite_count",
    "unambiguous_range",
    "scene_violations",
    "run_blocks",
    "synth_dechirp_frames",
]

DEFAULT_RADAR_NOISE_RMS = 0.5
DEFAULT_DURATION = 60.0

# Rows per block synthesized (``run_blocks``) or transformed (``_hann_blocks``): 256 x 600
# floats, 1.2 MB, in cache.
FRAME_BLOCK_ROWS = 256


@dataclass(frozen=True)
class RadarTarget:
    """One person in the radar scene: motion model, nominal range, echo strength."""

    subject: SubjectVitals
    nominal_range: float
    reflectivity: float = 1.0

    def __post_init__(self):
        check_fields(self)
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
        check_fields(self)
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


@dataclass(frozen=True)
class DechirpFrameSet:
    """Slow-time x fast-time matrix of real de-chirped samples, rates read from ``acquisition``.

    ``samples`` is read-only from construction, the array passed in too, and so is what its
    :meth:`transform` keeps: the magnitude-sum marks and the spectra columns of the range bins
    asked for, never the rows x bins spectra.  New samples make a new frame set.  It also
    keeps the band measurements the rates chain takes of each range bin's phase
    (``pipelines``), so later calls read them back."""

    samples: np.ndarray
    chirp: ChirpParams
    acquisition: AcquisitionParams
    truth: tuple[RadarTarget, ...] | None = None
    _kept = None  # ({bin: column}, marks) once transformed; not a field

    def __post_init__(self):
        if shared := _shared_ids(self.truth or ()):
            raise ValueError("; ".join(shared))
        acq = self.acquisition
        if self.samples.shape != (acq.slow_count, acq.fast_count):
            raise ValueError(f"samples of shape {self.samples.shape} disagree with the "
                             f"acquisition's {acq.slow_count}x{acq.fast_count} frames")
        self.samples.setflags(write=False)
        object.__setattr__(self, "_measured", {})  # the rates chain's memo; not a field

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

    @property
    def _mark_rows(self) -> int:
        """Rows from one mark of :meth:`transform` to the next: one second's by
        :func:`physio.prefix_length`, or one row where a row is longer; a cut shares it."""
        return prefix_length(max(1.0, self.acquisition.slow_period), self.slow_rate, np.inf)

    def truncated(self, duration: float) -> "DechirpFrameSet":
        """First ``duration`` seconds by :func:`physio.prefix_length`, whose ``ValueError``
        it raises: the frame set itself, kept transform and memo and all, when that is every
        row, else a new frame set of views, of the kept columns and of the marks at or
        below its row count too, with an empty memo."""
        rows = prefix_length(duration, self.slow_rate, self.slow_count)
        if rows == self.slow_count:
            return self
        out = replace(self, samples=self.samples[:rows],
                      acquisition=replace(self.acquisition, duration=rows / self.slow_rate))
        if self._kept is not None:
            columns, marks = self._kept
            object.__setattr__(out, "_kept", ({b: c[:rows] for b, c in columns.items()},
                                              marks[:rows // self._mark_rows + 1]))
        return out

    def transform(self, bins=None) -> tuple[dict, np.ndarray]:
        """The kept columns of the frames' hann-windowed rFFT, ``{bin: spectra[:, bin]}``,
        and the marks of its magnitudes: with s the rows of one second at the slow rate,
        mark k is the sum of ``np.abs(spectra)`` over rows [0, min(k x s, rows)), added row
        by row in order (:meth:`mean_magnitudes` reads them).  The first call takes the
        marks and the columns of the range bins ``bins`` (every bin where None) in one pass
        over the rows (:func:`_hann_blocks`); a later call takes the columns of ``bins``
        not yet kept in one more pass.  Each column is bit for bit the one-shot matrix
        expression's.  ``ValueError`` names the count of non-finite samples, and nothing
        is kept."""
        wanted = {int(b) for b in (range(self.fast_count // 2 + 1) if bins is None else bins)}
        if self._kept is None:
            kept = self._pass(wanted, marks=True)
        elif missing := wanted - self._kept[0].keys():
            kept = ({**self._kept[0], **self._pass(missing)[0]}, self._kept[1])
        else:
            return self._kept
        object.__setattr__(self, "_kept", kept)
        return kept

    def _pass(self, bins, marks=False) -> tuple[dict, np.ndarray | None]:
        """One pass over the rows: the columns of ``bins`` and, with ``marks``, the marks."""
        width, step = self.fast_count // 2 + 1, self._mark_rows
        bins = sorted(bins)
        if bins and not 0 <= bins[0] <= bins[-1] < width:
            raise IndexError(f"range bins {bins[0]}..{bins[-1]} are not all in [0, {width})")
        kept = np.empty((self.slow_count, len(bins)), dtype=complex)
        sums = np.zeros((-(-self.slow_count // step) + 1, width)) if marks else None
        total = sums[0] if marks else None
        for first, spectra in _hann_blocks(self.samples):
            last = first + len(spectra)
            np.take(spectra, bins, axis=1, out=kept[first:last])
            start = first
            while marks and start < last:  # to the next mark or the block's end
                stop = min(start // step * step + step, last)
                total = _add_rows(total, np.abs(spectra[start - first:stop - first]))
                if stop % step == 0 or stop == self.slow_count:  # a mark, or the last row's
                    sums[-(-stop // step)] = total
                start = stop
        for array in (kept, sums) if marks else (kept,):  # every reader shares them
            array.setflags(write=False)
        return {b: kept[:, j] for j, b in enumerate(bins)}, sums

    def mean_magnitudes(self) -> np.ndarray:
        """Mean over the frames of the magnitudes of their hann rFFT, bit for bit
        ``np.abs(spectra).mean(axis=0)``: the last mark handed to the frame set
        (:meth:`transform`, :meth:`truncated`) plus the magnitudes of the fewer than one
        second of rows after it, added in order, over the row count.  Those rows, of a cut
        that ends between marks, are transformed again (:func:`_hann_blocks`)."""
        marks = self.transform(())[1]
        total = marks[-1]
        start = min((len(marks) - 1) * self._mark_rows, self.slow_count)
        for _, spectra in _hann_blocks(self.samples, start):
            total = _add_rows(total, np.abs(spectra))
        return total / self.slow_count


def _hann_blocks(samples: np.ndarray, start: int = 0):
    """Yield the first row and the hann-windowed rFFT of each ``FRAME_BLOCK_ROWS``-row
    block of the 2-D ``samples`` from row ``start`` on, in row order, in a buffer the next
    block reuses.  A block's non-finite samples are counted before it is transformed, and
    neither it nor any later block is transformed once one is found; its pages are released
    after (:func:`_release_pages`), so each page is loaded once.  ``ValueError`` names the
    count of non-finite samples once every block is counted."""
    n_count = samples.shape[1]
    height = min(FRAME_BLOCK_ROWS, len(samples) - start)
    window = hann_window(n_count)
    block = np.empty((height, n_count))
    spectra = np.empty((height, n_count // 2 + 1), dtype=complex)
    bad = 0
    for first in range(start, len(samples), FRAME_BLOCK_ROWS):
        rows = samples[first:first + FRAME_BLOCK_ROWS]
        # flag the samples in the buffer's bytes, then overwrite them with the windowed samples
        finite = np.isfinite(rows, out=block.view(bool)[:len(rows), :n_count])
        if count := finite.size - np.count_nonzero(finite):
            bad += count
        elif not bad:
            np.multiply(rows, window, out=block[:len(rows)])
            yield first, np.fft.rfft(block[:len(rows)], axis=1, out=spectra[:len(rows)])
        _release_pages(rows)
    if bad:
        raise ValueError(f"frame set holds {bad} non-finite samples")


def non_finite_count(samples: np.ndarray) -> int:
    """Non-finite elements of the 2-D ``samples``, flagged a ``FRAME_BLOCK_ROWS``-row block
    at a time into one block of flags, so no frame-sized temporary is made; each block's
    pages are released once flagged (:func:`_release_pages`)."""
    flags = np.empty((min(FRAME_BLOCK_ROWS, len(samples)), samples.shape[1]), dtype=bool)
    finite = 0
    for start in range(0, len(samples), FRAME_BLOCK_ROWS):
        block = samples[start:start + FRAME_BLOCK_ROWS]
        finite += np.count_nonzero(np.isfinite(block, out=flags[:len(block)]))
        _release_pages(block)
    return samples.size - finite


def _release_pages(rows: np.ndarray) -> None:
    """Drop the whole pages of ``rows``, C-ordered samples read and done with, from this
    process where they are mapped read-only from a file (``formats.read_frames``): a page
    read again reloads from the file, so the values stay.  Other memory is never released:
    anonymous pages, such as synthesized samples, would read back as zeros, a copy-on-write
    map's as its file, and a writable map is left alone too.  Where ``madvise`` is missing
    the pages simply stay resident."""
    import mmap  # here: only a run that counts or transforms samples needs it
    mapped = rows
    while isinstance(mapped, (np.ndarray, memoryview)):  # to the memory's owner
        mapped = mapped.base if isinstance(mapped, np.ndarray) else mapped.obj
    if not (isinstance(mapped, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")):
        return
    whole = np.frombuffer(mapped, np.uint8)
    if whole.flags.writeable:  # a writable or copy-on-write map
        return
    start = rows.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
    first = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE  # the map starts on a page
    stop = (start + rows.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    if stop > first:
        mapped.madvise(mmap.MADV_DONTNEED, first, stop - first)


def _add_rows(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``total`` plus each of ``rows`` in turn: numpy reduces axis 0 of a C-ordered array
    row by row, in order, as ``np.abs(spectra).mean(axis=0)`` sums them."""
    return np.add.reduce(np.concatenate((total[None], rows)), axis=0)


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


def _echo_amplitude(target: RadarTarget, exponent: float) -> float:
    """reflectivity / R0^exponent, inf where that is past the float range or divides by 0."""
    try:
        return target.reflectivity / target.nominal_range**exponent
    except (OverflowError, ZeroDivisionError):
        return np.inf


def scene_violations(targets, chirp: ChirpParams, acq: AcquisitionParams) -> list[str]:
    """One message per capture rule ``acq`` breaks for ``targets`` under ``chirp``.

    Each frame must fit inside the chirp pulse, bursts must not repeat
    faster than the pulses, every target must sit inside the unambiguous
    range with a finite echo amplitude, and no two targets may share a subject id.
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
    problems += [f"target {t.subject.id!r} at {t.nominal_range:g} m has an echo amplitude "
                 f"reflectivity / range^{acq.amplitude_exponent:g} that is not finite"
                 for t in targets if not _echo_amplitude(t, acq.amplitude_exponent) < np.inf]
    return problems


def synth_dechirp_frames(
    targets: list[RadarTarget] | tuple[RadarTarget, ...],
    chirp: ChirpParams,
    acq: AcquisitionParams,
    seed: int = 0,
    loss_scale: float = 1.0,
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
    relative to the echo of reflectivity 1 at 1 m, whoever is in the scene.
    An empty scene yields pure noise frames; ``noise_rms == 0`` draws none.
    Every sample is then multiplied by the link's power scale ``loss_scale``.

    The terms are summed in row blocks on worker threads (:func:`run_blocks`)
    while this thread draws the noise in row order, so the bytes equal the
    one-shot expressions' whatever the thread count.  A worker's exception is
    raised here.
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
        terms.append((2.0 * np.pi * beat, phase, _echo_amplitude(tgt, acq.amplitude_exponent)))
    rng = np.random.default_rng(seed) if acq.noise_rms > 0 else None

    # Each element is (zeros + the terms in target order + the noise) * loss_scale.
    # The loop adds a block's noise once its terms are in and scales the block, then
    # draws the next block's noise while the workers sum its terms.  The first
    # block's is drawn in the loop as well, so that every draw runs beside them.
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
        block *= acq.noise_rms

    for rows in run_blocks(m_count, n_count, add_terms, "synth_dechirp_frames"):
        if rng is not None:
            if rows.start == 0:
                draw_noise(0)
            samples[rows] += noise[:rows.stop - rows.start]
            draw_noise(rows.stop)
        samples[rows] *= loss_scale

    return DechirpFrameSet(samples=samples, chirp=chirp, acquisition=acq,
                           truth=tuple(targets) if targets else None)
