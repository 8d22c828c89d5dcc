import itertools
import sys
import threading
import time

import numpy as np
import pytest

from vitalchirp import radar
from vitalchirp.photonics import SPEED_OF_LIGHT
from vitalchirp.physio import PRESET_SUBJECTS, SubjectVitals, TimeGrid, synth_motion
from vitalchirp.radar import (
    FRAME_BLOCK_ROWS,
    AcquisitionParams,
    RadarTarget,
    synth_dechirp_frames,
    unambiguous_range,
)

from conftest import traced_peak, two_person_scene, within


def static_subject(label="static"):
    return SubjectVitals(label, 15.0, 80.0, resp_amplitude=0.0, heart_amplitude=0.0)


class TestUnambiguousRange:
    def test_default_acquisition_settings(self, chirp):
        r_max = unambiguous_range(chirp, 10e6)
        oracle = SPEED_OF_LIGHT * 5e6 / (2 * chirp.chirp_rate)
        assert r_max == pytest.approx(oracle, rel=1e-12)
        assert r_max == pytest.approx(11.25, abs=0.02)

    def test_linear_in_fast_rate(self, chirp):
        assert unambiguous_range(chirp, 20e6) == pytest.approx(
            2 * unambiguous_range(chirp, 10e6), rel=1e-12
        )

    def test_covers_two_person_scene(self, chirp):
        assert unambiguous_range(chirp, 10e6) > 1.65


class TestSynthFrames:
    def test_frame_matrix_shape(self, chirp, acq_quiet):
        frames = synth_dechirp_frames(
            [RadarTarget(static_subject(), 1.0)], chirp, acq_quiet
        )
        assert frames.samples.shape == (3000, 600)
        assert frames.slow_rate == pytest.approx(50.0)
        assert np.all(np.isfinite(frames.samples))

    def test_static_target_beat_tone(self, chirp, acq_quiet):
        # beat frequency oracle: 2 * chirp_rate * R / c (about 444.8 kHz at 1 m)
        frames = synth_dechirp_frames(
            [RadarTarget(static_subject(), 1.00)], chirp, acq_quiet
        )
        row = frames.samples[0]
        nfft = 16 * row.size
        mags = np.abs(np.fft.rfft(row, nfft))
        freqs = np.fft.rfftfreq(nfft, 1.0 / acq_quiet.fast_rate)
        peak = freqs[1 + np.argmax(mags[1:])]
        oracle = 2 * chirp.chirp_rate * 1.00 / SPEED_OF_LIGHT
        assert oracle == pytest.approx(444.8e3, rel=1e-3)
        assert peak == pytest.approx(oracle, abs=acq_quiet.fast_rate / row.size)

    def test_empty_scene_quiet_is_zero(self, chirp, acq_quiet):
        frames = synth_dechirp_frames([], chirp, acq_quiet)
        assert np.all(frames.samples == 0.0)
        assert frames.truth is None

    def test_empty_scene_with_noise_is_noise(self, chirp):
        acq = AcquisitionParams(noise_rms=0.3, duration=2.0)
        frames = synth_dechirp_frames([], chirp, acq, seed=3)
        assert np.std(frames.samples) == pytest.approx(0.3, rel=0.05)

    def test_two_targets_resolvable(self, chirp):
        targets, acq = two_person_scene(noise_rms=0.0)
        frames = synth_dechirp_frames(targets, chirp, acq)
        mags = np.abs(np.fft.rfft(frames.samples, axis=1)).mean(axis=0)
        interior = (mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])
        peaks = np.flatnonzero(interior) + 1
        top2 = peaks[np.argsort(mags[peaks])[::-1][:2]]
        ranges = np.sort(
            SPEED_OF_LIGHT
            * top2
            * (acq.fast_rate / frames.fast_count)
            / (2 * chirp.chirp_rate)
        )
        bin_width = SPEED_OF_LIGHT * (acq.fast_rate / frames.fast_count) / (
            2 * chirp.chirp_rate
        )
        assert abs(ranges[0] - 1.00) <= bin_width
        assert abs(ranges[1] - 1.65) <= bin_width

    def test_superposition_noise_off(self, chirp, acq_quiet):
        a = [RadarTarget(static_subject("a"), 1.00)]
        b = [RadarTarget(static_subject("b"), 1.65)]
        fa = synth_dechirp_frames(a, chirp, acq_quiet)
        fb = synth_dechirp_frames(b, chirp, acq_quiet)
        fab = synth_dechirp_frames(a + b, chirp, acq_quiet)
        assert np.allclose(fab.samples, fa.samples + fb.samples, atol=1e-12)

    def test_deterministic_under_seed(self, chirp):
        targets, acq = two_person_scene(duration=2.0)
        fa = synth_dechirp_frames(targets, chirp, acq, seed=9)
        fb = synth_dechirp_frames(targets, chirp, acq, seed=9)
        assert np.array_equal(fa.samples, fb.samples)
        fc = synth_dechirp_frames(targets, chirp, acq, seed=10)
        assert not np.array_equal(fa.samples, fc.samples)

    def test_farther_target_weaker(self, chirp, acq_quiet):
        # equal reflectivity: the farther echo's range peak is strictly smaller
        targets = [
            RadarTarget(static_subject("near"), 1.00, reflectivity=1.0),
            RadarTarget(static_subject("far"), 1.65, reflectivity=1.0),
        ]
        frames = synth_dechirp_frames(targets, chirp, acq_quiet)
        mags = np.abs(np.fft.rfft(frames.samples, axis=1)).mean(axis=0)
        freqs = np.fft.rfftfreq(frames.fast_count, 1 / acq_quiet.fast_rate)
        ranges = SPEED_OF_LIGHT * freqs / (2 * chirp.chirp_rate)
        near_mag = mags[np.argmin(np.abs(ranges - 1.00))]
        far_mag = mags[np.argmin(np.abs(ranges - 1.65))]
        assert far_mag < near_mag

    def test_target_beyond_range_named(self, chirp, acq):
        bad = RadarTarget(static_subject("too-far"), 12.0)
        with pytest.raises(ValueError, match="too-far"):
            synth_dechirp_frames([bad], chirp, acq)

    @pytest.mark.parametrize("field", ["nominal_range", "reflectivity"])
    def test_true_is_not_a_number(self, field):
        kwargs = {"subject": static_subject(), "nominal_range": 1.0, field: True}
        with pytest.raises(ValueError, match=f"^{field} must be numbers, not true or false"):
            RadarTarget(**kwargs)

    def test_frame_width_exceeding_pulse(self, chirp):
        acq = AcquisitionParams(frame_width=80e-6)
        with pytest.raises(ValueError, match="pulse_width"):
            synth_dechirp_frames([], chirp, acq)

    def test_slow_period_shorter_than_pulse_period(self, chirp):
        acq = AcquisitionParams(slow_period=50e-6)
        with pytest.raises(ValueError, match="pulse_period"):
            synth_dechirp_frames([], chirp, acq)

    def test_truncated(self, chirp, acq_quiet):
        frames = synth_dechirp_frames([RadarTarget(static_subject(), 1.0)], chirp, acq_quiet)
        short = frames.truncated(5.0)
        assert short.slow_count == 250
        assert np.array_equal(short.samples, frames.samples[:250])
        with pytest.raises(ValueError):
            frames.truncated(120.0)

    @pytest.mark.parametrize("shape", [(100, 600), (3000, 599)], ids=["rows", "columns"])
    def test_samples_must_match_the_acquisition(self, chirp, shape):
        # a 60 s acquisition is 3000 x 600: other samples would make a frames file
        # that read_frames rejects
        with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\) disagree "
                                             r"with the acquisition's 3000x600 frames"):
            radar.DechirpFrameSet(np.zeros(shape), chirp, AcquisitionParams())


def one_shot_frames(targets, chirp, acq, seed):
    """Oracle: the frame matrix as whole-matrix expressions, one term per target."""
    t_fast = np.arange(acq.fast_count) / acq.fast_rate
    grid = TimeGrid(sample_rate=acq.slow_rate, count=acq.slow_count)
    samples = np.zeros((acq.slow_count, acq.fast_count))
    amps = []
    for tgt in targets:
        rng_range = tgt.nominal_range + synth_motion(tgt.subject, grid) * 1e-3
        beat = 2.0 * chirp.chirp_rate * rng_range / SPEED_OF_LIGHT
        phase = 4.0 * np.pi * rng_range / chirp.carrier_wavelength
        amp = tgt.reflectivity / tgt.nominal_range**acq.amplitude_exponent
        amps.append(amp)
        samples += amp * np.cos(2.0 * np.pi * beat[:, None] * t_fast[None, :] + phase[:, None])
    if acq.noise_rms > 0:
        ref = max(amps) if amps else 1.0
        rng = np.random.default_rng(seed)
        samples = samples + acq.noise_rms * ref * rng.standard_normal(samples.shape)
    return samples


def preset_targets(*ranges, reflectivity=1.0):
    subjects = list(PRESET_SUBJECTS.values())
    return [RadarTarget(subjects[i], r, reflectivity) for i, r in enumerate(ranges)]


def fail_cos_call(monkeypatch, index):
    """Make the ``index``-th ``np.cos`` call from now on raise ``FloatingPointError``."""
    calls, cos = itertools.count(), np.cos

    def failing_cos(*args, **kwargs):
        if next(calls) == index:
            raise FloatingPointError("cos failed")
        return cos(*args, **kwargs)

    monkeypatch.setattr(radar.np, "cos", failing_cos)


def fail_noise_draw(monkeypatch, index):
    """Make the ``index``-th ``standard_normal`` draw from now on raise ``FloatingPointError``."""
    calls, default_rng = itertools.count(), np.random.default_rng

    class FailingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, *args, **kwargs):
            if next(calls) == index:
                raise FloatingPointError("noise failed")
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(radar.np.random, "default_rng", FailingRng)


class TestBlockedSynthesis:
    """Row-blocked synthesis writes the one-shot expressions' bytes exactly."""

    SCENES = {
        "empty-with-noise": ([], dict(duration=2.0, noise_rms=0.3)),
        "noise-off": (preset_targets(1.00, 1.65), dict(duration=10.0, noise_rms=0.0)),
        # a zero-amplitude term is -0.0 where the cosine is negative; zeros + it is +0.0
        "zero-reflectivity": (preset_targets(1.00, reflectivity=0.0),
                              dict(duration=10.0, noise_rms=0.0)),
        "four-targets": (preset_targets(1.00, 1.65, 2.40, 3.10), dict(duration=10.0)),
        "under-one-block": (preset_targets(1.00, 1.65),
                            dict(duration=(FRAME_BLOCK_ROWS - 7) * 20e-3)),
        "one-block-plus-one": (preset_targets(1.00, 1.65),
                               dict(duration=(FRAME_BLOCK_ROWS + 1) * 20e-3)),
    }

    @pytest.mark.parametrize("scene", SCENES)
    def test_bytes_equal_one_shot_expressions(self, chirp, scene):
        targets, acq_kwargs = self.SCENES[scene]
        acq = AcquisitionParams(**acq_kwargs)
        got = synth_dechirp_frames(targets, chirp, acq, seed=4).samples
        want = one_shot_frames(targets, chirp, acq, seed=4)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("scene", ["four-targets", "one-block-plus-one"])
    def test_bytes_equal_with_one_and_two_workers(self, chirp, monkeypatch, scene, cpus):
        monkeypatch.setattr(radar, "_usable_cpus", lambda: cpus)
        targets, acq_kwargs = self.SCENES[scene]
        acq = AcquisitionParams(**acq_kwargs)
        got = synth_dechirp_frames(targets, chirp, acq, seed=4).samples
        want = one_shot_frames(targets, chirp, acq, seed=4)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("cpus, cap", [(1, 1), (2, 2), (64, 2)])
    def test_threads_started_up_to_the_cap_and_joined(self, chirp, monkeypatch,
                                                      cpus, cap):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(radar, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(radar.threading, "Thread", Recorded)
        targets, acq = two_person_scene()
        synth_dechirp_frames(targets, chirp, acq, seed=1)
        assert len(started) == cap
        assert not any(thread.is_alive() for thread in started)

    def test_worker_exception_reaches_the_caller(self, chirp, monkeypatch):
        monkeypatch.setattr(radar, "_usable_cpus", lambda: 2)
        fail_cos_call(monkeypatch, 1)
        targets, acq = two_person_scene()
        error = within(30, lambda: synth_dechirp_frames(targets, chirp, acq, seed=1))
        assert isinstance(error, FloatingPointError) and str(error) == "cos failed"
        assert not [t for t in threading.enumerate() if t.name.startswith("synth_dechirp")]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_caller_never_waits_on_a_dead_worker(self, chirp, monkeypatch, cpus):
        # the worker that dies on its first block leaves every block it owns unfinished
        monkeypatch.setattr(radar, "_usable_cpus", lambda: cpus)
        fail_cos_call(monkeypatch, 0)
        targets, acq = two_person_scene()
        error = within(30, lambda: synth_dechirp_frames(targets, chirp, acq, seed=1))
        assert isinstance(error, FloatingPointError)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_caller_exception_reaches_the_caller(self, chirp, monkeypatch, cpus):
        # the calling thread's noise draw fails on the second block, while workers run
        monkeypatch.setattr(radar, "_usable_cpus", lambda: cpus)
        fail_noise_draw(monkeypatch, 1)
        targets, acq = two_person_scene()
        error = within(30, lambda: synth_dechirp_frames(targets, chirp, acq, seed=1))
        assert isinstance(error, FloatingPointError) and str(error) == "noise failed"
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("synth_dechirp_frames-")]

    def test_bytes_hold_under_frequent_thread_switches(self, chirp, monkeypatch):
        # two workers and the noise-drawing caller on a 2 us switch interval: a
        # block whose noise landed before its terms would change the bytes
        monkeypatch.setattr(radar, "_usable_cpus", lambda: 2)
        targets = preset_targets(1.00, 1.65, 2.40, 3.10)
        acq = AcquisitionParams(duration=40.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(2e-6)
        try:
            got = within(60, lambda: synth_dechirp_frames(targets, chirp, acq, seed=7))
        finally:
            sys.setswitchinterval(interval)
        want = one_shot_frames(targets, chirp, acq, seed=7)
        assert np.array_equal(got.samples.view(np.uint8), want.view(np.uint8))

    def test_peak_memory_is_the_output_and_three_blocks(self, chirp):
        # one term buffer per worker and one noise buffer, all under 4 MiB
        targets, acq = two_person_scene()
        frames, peak = traced_peak(lambda: synth_dechirp_frames(targets, chirp, acq, seed=1))
        assert frames.samples.shape == (3000, 600)
        assert peak <= frames.samples.nbytes + 4 * 2**20


class TestRunBlocks:
    def test_a_slow_worker_claims_fewer_blocks(self, monkeypatch):
        # one worker sleeps through each block it claims; the other takes the rest
        monkeypatch.setattr(radar, "_usable_cpus", lambda: 2)
        claimed = {}

        def work(rows, scratch):
            worker = threading.current_thread().name
            claimed.setdefault(worker, []).append(rows.start)
            if worker == "probe-0":
                time.sleep(0.2)

        within(30, lambda: list(radar.run_blocks(12 * FRAME_BLOCK_ROWS, 8, work, "probe")))
        assert sorted(sum(claimed.values(), [])) == list(range(0, 12 * FRAME_BLOCK_ROWS,
                                                                FRAME_BLOCK_ROWS))
        assert len(claimed["probe-0"]) < len(claimed["probe-1"])


class TestAcquisitionParams:
    def test_counts(self):
        acq = AcquisitionParams()
        assert acq.slow_count == 3000
        assert acq.fast_count == 600

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            AcquisitionParams(fast_rate=10e3, frame_width=60e-6)
