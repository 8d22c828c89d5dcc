import itertools
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from vitalchirp import dsp, radar
from vitalchirp.formats import read_frames, write_frames
from vitalchirp.photonics import IntensityRecord, contact_intensity
from vitalchirp.physio import (
    HEART_BAND,
    RESP_BAND,
    SubjectVitals,
    make_time_grid,
    preset_subject,
    synth_motion,
)
from vitalchirp.pipelines import (
    PhaseSeries,
    TargetSelectionError,
    band_waveforms,
    contact_rates,
    contactless_rates,
    extract_target_phase,
    persons,
    range_profile,
    resolution_sweep,
)
from vitalchirp.radar import (
    FRAME_BLOCK_ROWS,
    AcquisitionParams,
    DechirpFrameSet,
    RadarTarget,
    synth_dechirp_frames,
)
from vitalchirp.scenario import ChannelResult, bundle_reports

from conftest import traced_peak, two_person_scene, within


def static_subject(label="static"):
    return SubjectVitals(label, 15.0, 80.0, resp_amplitude=0.0, heart_amplitude=0.0)


def untransformed(frames):
    """A copy of ``frames`` with samples of its own and no transform taken yet."""
    return replace(frames, samples=frames.samples.copy())


def contact_record(subject, fbg, noise_rms, seed=0, duration=60.0):
    grid = make_time_grid(duration, 50.0)
    x = synth_motion(subject, grid)
    return contact_intensity(x, fbg, grid, noise_rms=noise_rms, rng_seed=seed)


class TestContactRates:
    def test_noiseless_on_bin_exact(self):
        # pure tones at 24 rpm / 72 bpm land on 60 s bins: exact recovery
        grid = make_time_grid(60.0, 50.0)
        t = grid.instants()
        series = 1.0 + 0.2 * np.sin(2 * np.pi * 0.4 * t) + 0.02 * np.sin(2 * np.pi * 1.2 * t)
        rep = contact_rates(series, 50.0)
        assert rep.respiration_rpm == pytest.approx(24.0, abs=0.01)
        assert rep.heartbeat_bpm == pytest.approx(72.0, abs=0.01)

    def test_preset_through_fbg_default_noise(self, fbg, subjects):
        rep = contact_rates(
            contact_record(subjects["subject-a"], fbg, noise_rms=0.005, seed=1),
            truth=subjects["subject-a"],
        )
        assert abs(rep.resp_error_rpm) <= 1.6
        assert abs(rep.heart_error_bpm) <= 0.5

    def test_preset_through_fbg_noise_off(self, fbg, subjects):
        rep = contact_rates(
            contact_record(subjects["subject-a"], fbg, noise_rms=0.0),
            truth=subjects["subject-a"],
        )
        assert abs(rep.resp_error_rpm) <= 0.2
        assert abs(rep.heart_error_bpm) <= 0.2

    def test_constant_series_not_detected(self):
        rep = contact_rates(np.full(3000, 2.5), 50.0)
        assert not rep.flags["resp_detected"]
        assert not rep.flags["heart_detected"]
        assert rep.respiration_rpm is None
        assert rep.heartbeat_bpm is None

    def test_non_finite_samples_rejected_with_count(self):
        series = np.ones(3000)
        series[[10, 2000]] = [np.nan, np.inf]
        with pytest.raises(ValueError, match="2 non-finite"):
            contact_rates(series, 50.0)

    def test_too_short_record(self):
        with pytest.raises(ValueError):
            contact_rates(np.ones(100), 50.0)

    def test_scale_invariance(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.005, seed=2)
        a = contact_rates(rec.samples, 50.0)
        b = contact_rates(rec.samples * 37.5, 50.0)
        assert a.respiration_rpm == pytest.approx(b.respiration_rpm, rel=1e-9)
        assert a.heartbeat_bpm == pytest.approx(b.heartbeat_bpm, rel=1e-9)
        assert a.resp_3db_hz == pytest.approx(b.resp_3db_hz, rel=1e-9)
        assert a.heart_3db_hz == pytest.approx(b.heart_3db_hz, rel=1e-9)

    def test_sample_rate_given_with_a_record_must_match_it(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.005, seed=2)
        assert contact_rates(rec, 50.0).to_dict() == contact_rates(rec).to_dict()
        assert (resolution_sweep(rec, [5.0], sample_rate=50.0).to_rows()
                == resolution_sweep(rec, [5.0]).to_rows())
        with pytest.raises(ValueError, match="sample_rate 40.0 differs from the record's 50.0"):
            contact_rates(rec, 40.0)
        with pytest.raises(ValueError, match="sample_rate 40.0 differs"):
            resolution_sweep(rec, [5.0], sample_rate=40.0)
        with pytest.raises(ValueError, match="sample_rate is required"):
            contact_rates(rec.samples)
        with pytest.raises(ValueError, match="sample_rate is required"):
            resolution_sweep(rec.samples, [5.0])

    def test_rates_inside_search_bands_or_flagged(self, fbg, subjects):
        rep = contact_rates(
            contact_record(subjects["subject-d"], fbg, noise_rms=0.005),
            truth=subjects["subject-d"],
        )
        assert 7.8 <= rep.respiration_rpm <= 30.0 or rep.flags["resp_edge_peak"]
        assert 48.0 <= rep.heartbeat_bpm <= 114.0 or rep.flags["heart_edge_peak"]


class TestFixedChain:
    def test_reports_record_the_fixed_filter_and_window(self, chirp, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.0, duration=10.0)
        targets, acq = two_person_scene(noise_rms=0.0, duration=10.0)
        frames = synth_dechirp_frames(targets, chirp, acq)
        reports = [contact_rates(rec), *contactless_rates(frames, [1.00, 6.0])]
        assert "selection_error" in reports[2].flags
        for rep in reports:
            f = rep.metadata["filter"]
            assert (f["type"], f["order"], f["passband_ripple_db"], f["stopband_atten_db"],
                    f["zero_phase"]) == ("elliptic", 4, 1.0, 40.0, True)
            assert rep.metadata["window"] == "rectangular"


class TestMeasuringOnly:
    """A report filters once and takes four spectra; exports come from band_waveforms."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import vitalchirp.pipelines as pipelines

        counts = {"filter_zero_phase": 0, "spectrum": 0}
        for name in counts:
            def counting(*args, _fn=getattr(pipelines.dsp, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipelines.dsp, name, counting)
        return counts

    def test_one_filter_and_four_spectra_per_contact_report(self, fbg, subjects, counts):
        rep = contact_rates(contact_record(subjects["subject-a"], fbg, noise_rms=0.005))
        assert rep.flags["resp_detected"] and rep.flags["heart_detected"]
        assert counts == {"filter_zero_phase": 1, "spectrum": 4}

    def test_one_filter_per_contactless_report(self, chirp, counts):
        targets, acq = two_person_scene(noise_rms=0.0, duration=10.0)
        frames = synth_dechirp_frames(targets, chirp, acq)
        contactless_rates(frames, target_ranges=[1.00])
        assert counts == {"filter_zero_phase": 1, "spectrum": 4}
        contactless_rates(frames)
        assert counts == {"filter_zero_phase": 3, "spectrum": 12}

    def test_band_waveforms_are_the_zero_phase_bands_of_the_detrended_series(self, fbg,
                                                                            subjects):
        x = contact_record(subjects["subject-a"], fbg, noise_rms=0.005).samples
        for rate in (50.0, 4.5):  # at 4.5 Sa/s the heart band's stop_high is past Nyquist
            waves = band_waveforms(x, rate)
            for band, name in ((RESP_BAND, "resp"), (HEART_BAND, "heart")):
                bp = dsp.BandpassSpec(*band, rate)
                want = dsp.filter_zero_phase(dsp.design_bandpass(bp), x - x.mean())
                np.testing.assert_array_equal(waves[f"{name}_filtered"], want)
                spec = waves[f"{name}_spectrum"]
                full = dsp.spectrum(want, rate, "rectangular", 8 * x.size)
                keep = spec.frequencies.size  # a prefix of the full spectrum, bit for bit
                np.testing.assert_array_equal(spec.frequencies, full.frequencies[:keep])
                np.testing.assert_array_equal(spec.magnitudes, full.magnitudes[:keep])
                assert spec.frequencies[-1] <= bp.stop_high
                if bp.stop_high < bp.nyquist:
                    assert full.frequencies[keep] > bp.stop_high
                else:
                    assert keep == full.frequencies.size
        assert waves["heart_spectrum"].frequencies[-1] == 2.25  # the 4.5 Sa/s Nyquist bin


class TestRangeProfile:
    def test_two_targets_within_one_bin(self, chirp):
        targets, acq = two_person_scene(noise_rms=0.0)
        frames = synth_dechirp_frames(targets, chirp, acq)
        profile = range_profile(frames)
        assert profile.bin_width == pytest.approx(0.0375, abs=4e-4)
        peaks = np.sort(profile.ranges[profile.peak_indices()][:2])
        assert abs(peaks[0] - 1.00) <= profile.bin_width
        assert abs(peaks[1] - 1.65) <= profile.bin_width

    def test_single_target_near_088(self, chirp, acq_quiet):
        frames = synth_dechirp_frames(
            [RadarTarget(preset_subject("subject-e"), 0.88)], chirp, acq_quiet
        )
        profile = range_profile(frames)
        assert abs(profile.ranges[profile.peak_indices()[0]] - 0.88) <= profile.bin_width

    def test_empty_scene_zero_profile(self, chirp, acq_quiet):
        frames = synth_dechirp_frames([], chirp, acq_quiet)
        profile = range_profile(frames)
        assert np.all(profile.magnitudes == 0.0)
        assert profile.peak_indices().size == 0


class TestBlockedTransform:
    """The row-blocked hann transform a frame set keeps equals the one-shot matrix
    expression, on one worker thread or two."""

    ROWS = {"under-one-block": FRAME_BLOCK_ROWS - 7, "one-block": FRAME_BLOCK_ROWS,
            "one-block-plus-one": FRAME_BLOCK_ROWS + 1, "60s": 3000}

    @pytest.fixture(scope="class")
    def synthesized(self, chirp):
        targets, acq = two_person_scene()
        return synth_dechirp_frames(targets, chirp, acq, seed=6)

    @pytest.fixture()
    def frames(self, synthesized):
        # each test takes the transform afresh: a frame set keeps the first one
        return untransformed(synthesized)

    @staticmethod
    def assert_one_shot(frames):
        spectra, magnitudes = frames.transform()
        want = np.fft.rfft(frames.samples * np.hanning(frames.fast_count), axis=1)
        assert spectra.shape == want.shape
        assert np.array_equal(spectra.view(np.uint8), want.view(np.uint8))
        assert np.array_equal(magnitudes.view(np.uint8), np.abs(want).view(np.uint8))

    @pytest.mark.parametrize("source", ["full", "truncated", "read_frames",
                                        "truncated-before-memo", "truncated-after-memo"])
    def test_bytes_equal_one_shot_transform(self, frames, source, tmp_path):
        parent = frames
        if source == "truncated-after-memo":
            parent.transform()  # the cut is handed views of these spectra
        if source.startswith("truncated"):
            frames = frames.truncated(5.03)
        elif source == "read_frames":
            write_frames(frames, tmp_path / "frames.bin")
            frames = read_frames(tmp_path / "frames.bin")
        if source == "truncated-before-memo":
            parent.transform()  # too late for the cut, which transforms itself
        self.assert_one_shot(frames)
        views = source in ("full", "truncated-after-memo")
        assert np.shares_memory(frames.transform()[0], parent.transform()[0]) == views

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows", ROWS)
    def test_bytes_equal_with_one_and_two_workers(self, frames, monkeypatch, rows, cpus):
        monkeypatch.setattr(radar, "_usable_cpus", lambda: cpus)
        part = frames.truncated(self.ROWS[rows] / frames.slow_rate)
        assert part.slow_count == self.ROWS[rows]
        self.assert_one_shot(part)

    @pytest.mark.parametrize("cpus, cap", [(1, 1), (2, 2), (64, 2)])
    def test_threads_started_up_to_the_cap_and_joined(self, frames, monkeypatch, cpus, cap):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(radar, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(radar.threading, "Thread", Recorded)
        frames.transform()
        assert len(started) == cap
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("index", [0, 1])
    def test_worker_exception_reaches_the_caller(self, frames, monkeypatch, index, cpus):
        # the failing call is the first or the second block transformed
        calls, rfft = itertools.count(), np.fft.rfft

        def failing_rfft(*args, **kwargs):
            if next(calls) == index:
                raise FloatingPointError("rfft failed")
            return rfft(*args, **kwargs)

        monkeypatch.setattr(radar, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(np.fft, "rfft", failing_rfft)
        error = within(30, frames.transform)
        assert isinstance(error, FloatingPointError) and str(error) == "rfft failed"
        assert not [t for t in threading.enumerate() if t.name.startswith("DechirpFrameSet")]
        assert frames.samples.flags.writeable  # nothing kept, so nothing to keep fresh

    def test_bytes_hold_under_frequent_thread_switches(self, frames, monkeypatch):
        monkeypatch.setattr(radar, "_usable_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(2e-6)
        try:
            within(60, frames.transform)
        finally:
            sys.setswitchinterval(interval)
        self.assert_one_shot(frames)

    def test_peak_memory_is_what_it_keeps_and_two_blocks(self, frames, monkeypatch):
        # one window buffer per worker, both under 4 MiB
        monkeypatch.setattr(radar, "_usable_cpus", lambda: 2)
        (spectra, magnitudes), peak = traced_peak(frames.transform)
        assert frames.samples.shape == (3000, 600)
        assert peak <= spectra.nbytes + magnitudes.nbytes + 4 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("call", [
        lambda frames: contactless_rates(frames),
        lambda frames: resolution_sweep(frames, [5.0, 60.0], target_range=1.00),
        lambda frames: range_profile(frames),
        lambda frames: extract_target_phase(frames, [1.00]),
    ], ids=["contactless_rates", "resolution_sweep", "range_profile", "extract_target_phase"])
    def test_non_finite_samples_raise_naming_their_count(self, frames, call, bad):
        frames.samples[100, 5] = frames.samples[2999, 0] = bad
        with pytest.raises(ValueError, match="frame set holds 2 non-finite samples"):
            call(frames)
        assert frames.samples.flags.writeable

    def test_samples_read_only_once_transformed(self, frames):
        frames.samples *= 0.5  # before the transform, as run_scenario's link loss
        early = frames.truncated(5.0)  # a view of the samples taken before it
        spectra, magnitudes = frames.transform()
        for kept in (frames.samples, early.samples, frames.truncated(5.0).samples,
                     spectra, magnitudes, frames.truncated(5.0).transform()[0]):
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 1.0
        self.assert_one_shot(frames)

    def test_new_samples_transformed_afresh(self, frames):
        kept = frames.transform()[0]
        frames.samples = -frames.samples
        assert frames.transform()[0] is not kept
        self.assert_one_shot(frames)


class TestExtractTargetPhase:
    """Phase extraction: :func:`pipelines.extract_target_phase`."""

    def test_phase_matches_motion(self, chirp, acq_quiet, subjects):
        frames = synth_dechirp_frames(
            [RadarTarget(subjects["subject-a"], 1.00)], chirp, acq_quiet
        )
        ext = extract_target_phase(frames, [1.00])[0]
        x = synth_motion(subjects["subject-a"], make_time_grid(60.0, 50.0)) * 1e-3
        truth = 4 * np.pi * x / chirp.carrier_wavelength
        got = ext.phase - ext.phase.mean()
        want = truth - truth.mean()
        rms = np.sqrt(np.mean((got - want) ** 2))
        assert rms < 0.02 * np.abs(want).max()

    def test_static_target_constant_phase(self, chirp, acq_quiet):
        frames = synth_dechirp_frames(
            [RadarTarget(static_subject(), 1.00)], chirp, acq_quiet
        )
        ext = extract_target_phase(frames, [1.00])[0]
        assert np.ptp(ext.phase) < 1e-9

    def test_one_mm_step_phase(self, chirp, acq_quiet):
        # 1 mm of displacement maps to 4*pi*1mm/lambda_c ~ 1.023 rad
        f1 = synth_dechirp_frames([RadarTarget(static_subject(), 1.000)], chirp, acq_quiet)
        f2 = synth_dechirp_frames([RadarTarget(static_subject(), 1.001)], chirp, acq_quiet)
        stacked = replace(f1, samples=np.vstack([f1.samples[:1500], f2.samples[:1500]]))
        ext = extract_target_phase(stacked, [1.0])[0]
        step = ext.phase[-10] - ext.phase[10]
        assert step == pytest.approx(1.023, abs=0.001)
        assert step == pytest.approx(4 * np.pi * 1e-3 / chirp.carrier_wavelength, abs=1e-4)

    def test_missing_peak_names_nearest(self, chirp, acq_quiet):
        frames = synth_dechirp_frames(
            [RadarTarget(static_subject(), 1.00)], chirp, acq_quiet
        )
        (error,) = extract_target_phase(frames, [5.0])
        assert isinstance(error, TargetSelectionError)
        assert str(error).startswith("no range peak within 2 bins of 5.000 m; nearest peak at ")


class TestContactlessRates:
    def test_two_person_scene_default_noise(self, chirp, subjects):
        targets, acq = two_person_scene()  # default noise
        frames = synth_dechirp_frames(targets, chirp, acq, seed=4)
        reports = {r.label: r for r in contactless_rates(frames)}
        for name in ("subject-b", "subject-c"):
            assert abs(reports[name].resp_error_rpm) <= 0.6
            assert abs(reports[name].heart_error_bpm) <= 1.2

    def test_two_person_scene_noise_off(self, chirp, subjects):
        targets, acq = two_person_scene(noise_rms=0.0)
        frames = synth_dechirp_frames(targets, chirp, acq)
        for rep in contactless_rates(frames):
            assert abs(rep.resp_error_rpm) <= 0.2
            assert abs(rep.heart_error_bpm) <= 0.2

    def test_single_subject_088(self, chirp, subjects):
        frames = synth_dechirp_frames(
            [RadarTarget(subjects["subject-e"], 0.88)], chirp,
            AcquisitionParams(), seed=6,
        )
        rep = contactless_rates(frames)[0]
        assert abs(rep.resp_error_rpm) <= 0.4
        assert abs(rep.heart_error_bpm) <= 1.4
        assert abs(rep.range_m - 0.88) <= 0.0375

    def test_respiration_harmonic_visible_heart_unaffected(self, chirp, subjects):
        # subject-b carries a second respiration harmonic at 0.4 Hz
        frames = synth_dechirp_frames(
            [RadarTarget(subjects["subject-b"], 1.00)], chirp,
            AcquisitionParams(noise_rms=0.0),
        )
        ext = extract_target_phase(frames, [1.00])[0]
        t = np.arange(ext.phase.size) / 50.0
        p = ext.phase - ext.phase.mean()
        line = lambda f: abs(np.sum(p * np.exp(-2j * np.pi * f * t)))
        assert line(0.4) > 0.2 * line(0.2)  # harmonic clearly visible
        rep = contactless_rates(frames)[0]
        assert abs(rep.resp_error_rpm) <= 0.2
        assert abs(rep.heart_error_bpm) <= 1.0

    def test_multi_target_independence(self, chirp, acq_quiet, subjects):
        # second target 17 bins away moves the first target's rates < 0.5
        alone = synth_dechirp_frames(
            [RadarTarget(subjects["subject-b"], 1.00)], chirp, acq_quiet
        )
        both = synth_dechirp_frames(
            [RadarTarget(subjects["subject-b"], 1.00),
             RadarTarget(subjects["subject-c"], 1.65)],
            chirp, acq_quiet,
        )
        rep_alone = contactless_rates(alone, target_ranges=[1.00])[0]
        rep_both = contactless_rates(both, target_ranges=[1.00])[0]
        assert abs(rep_alone.respiration_rpm - rep_both.respiration_rpm) < 0.5
        assert abs(rep_alone.heartbeat_bpm - rep_both.heartbeat_bpm) < 0.5

    def test_record_shorter_than_five_seconds_rejected(self, chirp):
        targets, acq = two_person_scene(duration=4.0)
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        with pytest.raises(ValueError, match=r"record of 4\.00 s is shorter than 5\.0 s"):
            contactless_rates(frames)

    def test_selection_failure_does_not_abort_others(self, chirp, acq_quiet, subjects):
        frames = synth_dechirp_frames(
            [RadarTarget(subjects["subject-b"], 1.00)], chirp, acq_quiet
        )
        reports = contactless_rates(frames, target_ranges=[6.0, 1.00])
        assert "selection_error" in reports[0].flags
        assert reports[1].flags["resp_detected"]

    def test_far_request_matches_no_truth(self, chirp):
        # 6.0 m selects a noise peak; the nearest truth target is 4.35 m away
        targets, acq = two_person_scene(duration=10.0)
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        near, far = contactless_rates(frames, [1.00, 6.0])
        assert "selection_error" not in far.flags
        assert far.label == "target-1"
        assert far.resp_error_rpm is None and far.heart_error_bpm is None
        assert "truth_amplitudes_assumed" not in far.metadata
        assert near.label == "subject-b" and near.resp_error_rpm is not None
        assert resolution_sweep(frames, [5.0], target_range=6.0).entries[0].label == "target-0"

    def test_targets_sharing_a_bin_flagged(self, chirp, subjects):
        # 1.06 m lies more than a bin from 1.00 m, yet both snap to one peak; at
        # 1.00 m the two persons share a range, and each is still scored as itself
        for c_range in (1.06, 1.00):
            frames = synth_dechirp_frames(
                [RadarTarget(subjects["subject-b"], 1.00),
                 RadarTarget(subjects["subject-c"], c_range)],
                chirp, AcquisitionParams(), seed=1,
            )
            in_bundle, _ = bundle_reports([ChannelResult(1549.36, frames=frames)])
            for reports, suffix in ((contactless_rates(frames), ""),
                                    (in_bundle, "@1549.36nm")):
                b, c = reports
                assert b.range_m == c.range_m
                assert b.flags["shared_bin"] and c.flags["shared_bin"]
                for rep, name in ((b, "subject-b"), (c, "subject-c")):
                    truth = subjects[name]
                    assert rep.label == name + suffix
                    assert rep.resp_error_rpm == rep.respiration_rpm - truth.respiration_rate
                    assert rep.heart_error_bpm == rep.heartbeat_bpm - truth.heartbeat_rate

    def test_truthless_frames_default_to_their_detected_targets(self, chirp):
        targets, acq = two_person_scene(duration=10.0)
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        frames.truth = None
        reports = contactless_rates(frames)
        assert [r.label for r in reports] == ["target-0", "target-1"]
        in_bundle, _ = bundle_reports([ChannelResult(1549.36, frames=frames)])
        assert [dict(r.to_dict(), label=r.label.removesuffix("@1549.36nm"))
                for r in in_bundle] == [r.to_dict() for r in reports]

    def test_empty_request_gives_no_report(self, chirp):
        targets, acq = two_person_scene(duration=10.0)
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        assert contactless_rates(frames, []) == []

    def test_distinct_bins_carry_no_shared_flag(self, chirp, subjects):
        targets, acq = two_person_scene()
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        assert all("shared_bin" not in r.flags for r in contactless_rates(frames))

    def test_phase_scale_invariance(self, chirp, subjects):
        targets, acq = two_person_scene()
        frames = synth_dechirp_frames(targets, chirp, acq, seed=5)
        base = contactless_rates(frames, target_ranges=[1.00])[0]
        frames.samples = frames.samples * 123.0
        scaled = contactless_rates(frames, target_ranges=[1.00])[0]
        assert base.respiration_rpm == pytest.approx(scaled.respiration_rpm, rel=1e-9)
        assert base.heartbeat_bpm == pytest.approx(scaled.heartbeat_bpm, rel=1e-9)


class TestEndToEndInversion:
    def test_random_in_band_rates(self, chirp, acq_quiet):
        # noise off, single target: recovered rate within 0.2 of a bin
        rng = np.random.default_rng(21)
        for _ in range(3):
            rpm = rng.uniform(9.0, 28.0)
            bpm = rng.uniform(50.0, 112.0)
            subject = SubjectVitals("rand", rpm, bpm)
            frames = synth_dechirp_frames([RadarTarget(subject, 1.1)], chirp, acq_quiet)
            rep = contactless_rates(frames, target_ranges=[1.1])[0]
            assert abs(rep.respiration_rpm - rpm) <= 0.2
            assert abs(rep.heartbeat_bpm - bpm) <= 0.2


class TestResolutionSweep:
    DURATIONS = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]

    def test_contact_widths_follow_window(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.0)
        sweep = resolution_sweep(rec, self.DURATIONS, truth=subjects["subject-a"])
        widths_r = [e.resp_3db_hz for e in sweep.entries]
        widths_h = [e.heart_3db_hz for e in sweep.entries]
        for e in sweep.entries:
            ideal = 0.886 / e.duration_s
            assert abs(e.resp_3db_hz / ideal - 1) <= 0.2
            assert abs(e.heart_3db_hz / ideal - 1) <= 0.2
        # non-increasing with duration (5% slack for interpolation noise)
        assert all(b <= a * 1.05 for a, b in zip(widths_r, widths_r[1:]))
        assert all(b <= a * 1.05 for a, b in zip(widths_h, widths_h[1:]))

    def test_short_record_rates_consistent(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.005, seed=3)
        sweep = resolution_sweep(rec, self.DURATIONS, truth=subjects["subject-a"])
        first, last = sweep.entries[0], sweep.entries[-1]
        bin_rpm = 60.0 / first.duration_s
        assert abs(first.respiration_rpm - last.respiration_rpm) <= bin_rpm
        assert abs(first.heartbeat_bpm - last.heartbeat_bpm) <= bin_rpm

    def test_on_bin_tone_duration_independent(self):
        t = np.arange(3000) / 50.0
        series = np.sin(2 * np.pi * 0.4 * t) + 0.1 * np.sin(2 * np.pi * 1.2 * t)
        sweep = resolution_sweep(series, [5.0, 10.0, 20.0, 60.0], sample_rate=50.0)
        # the tone frequency itself is duration-independent; the tiny
        # residual at 5 s is spectral-image floor for a near-DC tone
        rates = [e.respiration_rpm for e in sweep.entries]
        assert all(r == pytest.approx(24.0, abs=0.3) for r in rates)
        beats = [e.heartbeat_bpm for e in sweep.entries]
        assert all(b == pytest.approx(72.0, abs=0.3) for b in beats)

    def test_contactless_sweep(self, chirp, subjects):
        frames = synth_dechirp_frames(
            [RadarTarget(subjects["subject-e"], 0.88)], chirp,
            AcquisitionParams(noise_rms=0.0),
        )
        sweep = resolution_sweep(frames, [5.0, 30.0, 60.0])
        for e in sweep.entries:
            assert e.skipped is None
            assert abs(e.resp_3db_hz / (0.886 / e.duration_s) - 1) <= 0.2

    def test_frames_selection_error_reaches_skipped(self, chirp, subjects):
        frames = synth_dechirp_frames(
            [RadarTarget(subjects["subject-b"], 1.00)], chirp,
            AcquisitionParams(noise_rms=0.0, duration=20.0),
        )
        sweep = resolution_sweep(frames, [5.0, 10.0], target_range=6.0)
        for e in sweep.entries:
            assert e.skipped is not None and "no range peak" in e.skipped
            assert e.respiration_rpm is None

    def test_excessive_duration_flagged_others_proceed(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.0, duration=30.0)
        sweep = resolution_sweep(rec, [5.0, 60.0, 20.0], truth=subjects["subject-a"])
        assert sweep.entries[1].skipped is not None
        assert sweep.entries[0].respiration_rpm is not None
        assert sweep.entries[2].respiration_rpm is not None

    def test_fractional_duration_cut_to_whole_samples_below_it(self, fbg, subjects):
        # 5.03 s x 50 Sa/s = 251.5 samples: the cut keeps 251, as a frame set does
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.005, seed=3)
        (entry,) = resolution_sweep(rec.samples, [5.03], sample_rate=50.0).entries
        rep = contact_rates(rec.samples[:251], 50.0)
        assert (entry.respiration_rpm, entry.heartbeat_bpm,
                entry.resp_3db_hz, entry.heart_3db_hz) == (
            rep.respiration_rpm, rep.heartbeat_bpm, rep.resp_3db_hz, rep.heart_3db_hz)

    def test_below_minimum_rejected(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.0, duration=30.0)
        with pytest.raises(ValueError):
            resolution_sweep(rec, [2.0, 10.0])

    def test_nan_duration_rejected_before_any_row(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.0, duration=30.0)
        with pytest.raises(ValueError, match=r"durations must be >= 5\.0 s"):
            resolution_sweep(rec, [10.0, float("nan")])

    def test_infinite_duration_rejected_before_any_row(self, fbg, subjects):
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.0, duration=30.0)
        with pytest.raises(ValueError, match=r"durations must be >= 5\.0 s and finite"):
            resolution_sweep(rec, [10.0, float("inf")])

    def test_every_row_carries_one_label(self, chirp, fbg, subjects):
        targets, acq = two_person_scene(duration=20.0)
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        for label, expected in ((None, "subject-c"), ("me", "me")):
            sweep = resolution_sweep(frames, [5.0, 30.0], target_range=1.65, label=label)
            assert sweep.entries[1].skipped is not None
            assert [e.label for e in sweep.entries] == [expected, expected]
        rec = contact_record(subjects["subject-a"], fbg, noise_rms=0.0, duration=20.0)
        sweep = resolution_sweep(rec, [5.0, 30.0], truth=subjects["subject-a"])
        assert [e.label for e in sweep.entries] == ["subject-a", "subject-a"]

    def test_options_of_the_other_source_rejected(self, chirp, subjects):
        targets, acq = two_person_scene(duration=10.0)
        frames = synth_dechirp_frames(targets, chirp, acq)
        frames.truth = None
        with pytest.raises(ValueError, match="truth"):
            resolution_sweep(frames, [5.0], target_range=1.0, truth=subjects["subject-b"])
        with pytest.raises(ValueError, match="sample_rate"):
            resolution_sweep(frames, [5.0], target_range=1.0, sample_rate=50.0)

    def test_truthless_frames_sweep_their_first_detected_target(self, chirp):
        targets, acq = two_person_scene(duration=20.0)
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        frames.truth = None
        (first, _, _), _ = persons(frames)
        rows = resolution_sweep(frames, [5.0, 10.0]).to_rows()
        assert rows == resolution_sweep(frames, [5.0, 10.0], target_range=first).to_rows()
        assert [r["label"] for r in rows] == ["target-0", "target-0"]
        assert all(r["skipped"] is None for r in rows)

    def test_truthless_frames_without_a_peak_rejected(self, chirp):
        targets, acq = two_person_scene(duration=10.0)
        frames = synth_dechirp_frames(targets, chirp, acq, seed=1)
        frames.truth, frames.samples = None, np.zeros_like(frames.samples)
        with pytest.raises(ValueError, match="no target"):
            resolution_sweep(frames, [5.0])


class TestOneTransformPerCall:
    """A frame set is transformed once, however many calls read it; results match
    separate runs."""

    DURATIONS = [5.0, 7.3, 20.0, 60.0, 70.0]

    @pytest.fixture(scope="class")
    def synthesized(self, chirp):
        targets, acq = two_person_scene()
        return synth_dechirp_frames(targets, chirp, acq, seed=3)

    @pytest.fixture()
    def frames(self, synthesized):
        # each test counts the transform afresh: a frame set keeps the first one
        return untransformed(synthesized)

    def test_sweep_rows_equal_truncated_runs(self, frames):
        for rng in (1.00, 1.65):
            sweep = resolution_sweep(frames, self.DURATIONS, target_range=rng)
            for entry in sweep.entries:
                if entry.duration_s > frames.duration:
                    assert entry.skipped is not None
                    continue
                # a fresh cut, transformed on its own rather than read from the parent's
                part = untransformed(frames).truncated(entry.duration_s)
                (rep,) = contactless_rates(part, target_ranges=[rng])
                assert (entry.respiration_rpm, entry.heartbeat_bpm,
                        entry.resp_3db_hz, entry.heart_3db_hz) == (
                    rep.respiration_rpm, rep.heartbeat_bpm,
                    rep.resp_3db_hz, rep.heart_3db_hz)

    def test_multi_target_equals_single_target_calls(self, frames):
        both = contactless_rates(frames, target_ranges=[1.00, 1.65, 6.0])
        # 6.0 m matches no truth target, so its label is its request index
        assert [r.label for r in both] == ["subject-b", "subject-c", "target-2"]
        for rng, rep in zip([1.00, 1.65, 6.0], both):
            (alone,) = contactless_rates(frames, target_ranges=[rng])
            assert dict(rep.to_dict(), label=None) == dict(alone.to_dict(), label=None)

    def test_one_fast_time_fft_per_call(self, frames, rfft_2d_calls):
        # the first call's transform runs in row blocks that together cover each
        # frame once; every later call and cut reads its kept spectra
        contactless_rates(frames)
        contactless_rates(frames, target_ranges=[1.00, 1.65, 6.0])
        for rng in (1.00, 1.65, 6.0, 1.00):
            resolution_sweep(frames, self.DURATIONS, target_range=rng)
        extract_target_phase(frames.truncated(7.3), [1.00])
        assert {n for _, n in rfft_2d_calls} == {frames.fast_count}
        assert sum(m for m, _ in rfft_2d_calls) == frames.slow_count

    def test_a_sweep_alone_transforms_once(self, frames, rfft_2d_calls):
        resolution_sweep(frames, self.DURATIONS, target_range=1.00)
        assert {n for _, n in rfft_2d_calls} == {frames.fast_count}
        assert sum(m for m, _ in rfft_2d_calls) == frames.slow_count

    def test_a_cut_is_a_view_of_its_parent_without_a_transform(self, frames, rfft_2d_calls):
        spectra, magnitudes = frames.transform()
        rfft_2d_calls.clear()
        short = frames.truncated(7.3)
        short_spectra, short_magnitudes = short.transform()
        assert rfft_2d_calls == []
        assert short.slow_count == short_spectra.shape[0] == 365
        assert np.shares_memory(short_spectra, spectra)
        assert np.shares_memory(short_magnitudes, magnitudes)
        assert frames.slow_count == spectra.shape[0] == 3000

    def test_a_transformed_frame_set_is_read_without_a_transform(self, frames, rfft_2d_calls):
        def read(frames):
            return (range_profile(frames).magnitudes, persons(frames),
                    [p.phase for p in extract_target_phase(frames, [1.00, 1.65])],
                    resolution_sweep(frames, self.DURATIONS, target_range=1.65).to_rows(),
                    [r.to_dict() for r in contactless_rates(frames)])

        want = read(untransformed(frames))  # a transform of its own
        frames.transform()
        rfft_2d_calls.clear()
        got = read(frames)
        assert rfft_2d_calls == []
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        for got_phase, want_phase in zip(got[2], want[2], strict=True):
            np.testing.assert_array_equal(got_phase, want_phase)
        assert got[3:] == want[3:]


@pytest.mark.parametrize("record, names", [
    (DechirpFrameSet, ["samples", "chirp", "acquisition", "truth"]),
    (PhaseSeries, ["phase", "bin_index", "bin_range"]),
    (IntensityRecord, ["samples", "sample_rate", "edge_warning"]),
    (ChannelResult, ["wavelength_nm", "contact_subject", "intensity", "frames"]),
])
def test_records_store_no_sampling_fact_twice(record, names):
    """A frame set's rates are its acquisition's, a phase series' its frames', a
    channel's its records'."""
    assert [f.name for f in fields(record)] == names
