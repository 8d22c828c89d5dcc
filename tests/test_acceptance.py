"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -v`` or ``pytest -s`` to see them).
"""

import contextlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vitalchirp import dsp, formats
from vitalchirp.dsp import BandpassSpec, design_bandpass, unwrap_phase
from vitalchirp.photonics import (
    FbgProfile,
    IfLfmParams,
    contact_intensity,
    derive_chirp,
)
from vitalchirp.physio import (
    SubjectVitals,
    make_time_grid,
    preset_subject,
    synth_motion,
)
from vitalchirp.pipelines import (
    contact_rates,
    contactless_rates,
    extract_target_phase,
    range_profile,
    resolution_sweep,
)
from vitalchirp.radar import AcquisitionParams, RadarTarget, synth_dechirp_frames
from vitalchirp.scenario import Scenario, run_scenario

from test_scenario import channel, two_channel_scenario


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


DURATIONS = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]


def test_criterion_1_chirp_derivation_exact():
    with criterion(1, "chirp derivation exactness"):
        params = IfLfmParams(center_freq=6.6e9, bandwidth=1e9,
                             pulse_period=100e-6, pulse_width=60e-6)
        derive_chirp(params)  # warm-up
        start = time.perf_counter()
        chirp = derive_chirp(params)
        elapsed = time.perf_counter() - start
        assert chirp.start_freq == pytest.approx(24.4e9, rel=1e-12)
        assert chirp.center_freq == pytest.approx(26.4e9, rel=1e-12)
        assert chirp.sweep_bandwidth == pytest.approx(4e9, rel=1e-12)
        assert chirp.carrier_wavelength * 1e3 == pytest.approx(12.29, abs=0.01)
        assert elapsed < 1e-3


def test_criterion_2_range_accuracy(chirp):
    with criterion(2, "range accuracy within one bin"):
        static = lambda n: SubjectVitals(n, 15.0, 80.0, resp_amplitude=0.0,
                                         heart_amplitude=0.0)
        acq = AcquisitionParams(noise_rms=0.0)
        start = time.perf_counter()
        frames = synth_dechirp_frames(
            [RadarTarget(static("near"), 1.00), RadarTarget(static("far"), 1.65)],
            chirp, acq,
        )
        profile = range_profile(frames)
        elapsed = time.perf_counter() - start
        peaks = np.sort(profile.ranges[profile.peak_indices()][:2])
        assert abs(peaks[0] - 1.00) <= 0.0375
        assert abs(peaks[1] - 1.65) <= 0.0375
        assert elapsed < 10.0


def test_criterion_3_contactless_rate_recovery(chirp):
    with criterion(3, "contactless rate recovery"):
        targets = [
            RadarTarget(preset_subject("subject-b"), 1.00),
            RadarTarget(preset_subject("subject-c"), 1.65),
        ]
        truth = {"subject-b": (12.0, 74.0), "subject-c": (18.0, 68.0)}
        # calibrated default receiver noise
        frames = synth_dechirp_frames(targets, chirp, AcquisitionParams(), seed=1)
        for rep in contactless_rates(frames):
            want = truth[rep.label]
            assert abs(rep.respiration_rpm - want[0]) <= 0.6
            assert abs(rep.heartbeat_bpm - want[1]) <= 1.2
        # noise off
        quiet = synth_dechirp_frames(targets, chirp, AcquisitionParams(noise_rms=0.0))
        for rep in contactless_rates(quiet):
            want = truth[rep.label]
            assert abs(rep.respiration_rpm - want[0]) <= 0.2
            assert abs(rep.heartbeat_bpm - want[1]) <= 0.2


def test_criterion_4_contact_rate_recovery(fbg):
    with criterion(4, "contact rate recovery through the FBG edge"):
        subject = preset_subject("subject-a")  # 21 rpm / 87 bpm
        grid = make_time_grid(60.0, 50.0)
        x = synth_motion(subject, grid)
        noisy = contact_rates(
            contact_intensity(x, fbg, grid, rng_seed=1), truth=subject
        )
        assert abs(noisy.resp_error_rpm) <= 1.6
        assert abs(noisy.heart_error_bpm) <= 0.5
        quiet = contact_rates(
            contact_intensity(x, fbg, grid, noise_rms=0.0), truth=subject
        )
        assert abs(quiet.resp_error_rpm) <= 0.2
        assert abs(quiet.heart_error_bpm) <= 0.2


def test_criterion_5_phase_motion_inversion(chirp):
    with criterion(5, "phase-motion inversion"):
        subject = preset_subject("subject-a")
        acq = AcquisitionParams(noise_rms=0.0)
        frames = synth_dechirp_frames([RadarTarget(subject, 1.00)], chirp, acq)
        ext = extract_target_phase(frames, [1.00])[0]
        x = synth_motion(subject, make_time_grid(60.0, 50.0)) * 1e-3
        want = 4 * np.pi * x / chirp.carrier_wavelength
        got = ext.phase - ext.phase.mean()
        want = want - want.mean()
        rms = np.sqrt(np.mean((got - want) ** 2))
        assert rms < 0.02 * np.abs(want).max()

        static = SubjectVitals("s", 15.0, 80.0, resp_amplitude=0.0, heart_amplitude=0.0)
        f1 = synth_dechirp_frames([RadarTarget(static, 1.000)], chirp, acq)
        f2 = synth_dechirp_frames([RadarTarget(static, 1.001)], chirp, acq)
        stacked = replace(f1, samples=np.vstack([f1.samples[:1500], f2.samples[:1500]]))
        step = extract_target_phase(stacked, [1.0])[0].phase
        assert step[-10] - step[10] == pytest.approx(1.023, abs=0.001)


def test_criterion_6_resolution_sweep(chirp, fbg):
    with criterion(6, "resolution sweep behavior"):
        start = time.perf_counter()
        subject = preset_subject("subject-a")
        grid = make_time_grid(60.0, 50.0)
        rec = contact_intensity(synth_motion(subject, grid), fbg, grid, noise_rms=0.0)
        sweeps = [resolution_sweep(rec, DURATIONS, truth=subject)]

        frames = synth_dechirp_frames(
            [RadarTarget(preset_subject("subject-e"), 0.88)],
            chirp, AcquisitionParams(noise_rms=0.0),
        )
        sweeps.append(resolution_sweep(frames, DURATIONS))

        for sweep in sweeps:
            entries = sweep.entries
            for e in entries:
                ideal = 0.886 / e.duration_s
                assert abs(e.resp_3db_hz / ideal - 1) <= 0.2
                assert abs(e.heart_3db_hz / ideal - 1) <= 0.2
            resp_w = [e.resp_3db_hz for e in entries]
            heart_w = [e.heart_3db_hz for e in entries]
            assert all(b <= a * 1.05 for a, b in zip(resp_w, resp_w[1:]))
            assert all(b <= a * 1.05 for a, b in zip(heart_w, heart_w[1:]))
            bin_at_5s = 60.0 / 5.0
            assert abs(entries[0].respiration_rpm - entries[-1].respiration_rpm) <= bin_at_5s
            assert abs(entries[0].heartbeat_bpm - entries[-1].heartbeat_bpm) <= bin_at_5s
        assert time.perf_counter() - start < 30.0


def test_criterion_7_filter_conformance():
    with criterion(7, "elliptic filter conformance"):
        assert (dsp.ORDER, dsp.PASSBAND_RIPPLE_DB, dsp.STOPBAND_ATTEN_DB) == (4, 1.0, 40.0)
        for low, high in ((0.13, 0.5), (0.8, 1.9)):
            spec = BandpassSpec(low, high, 50.0)
            coeffs = design_bandpass(spec)  # raises if the mask is violated
            from conftest import sos_response

            freqs = np.linspace(0.0, 25.0, 4096)
            mags = 20 * np.log10(
                np.maximum(np.abs(sos_response(coeffs.sos, freqs, 50.0)), 1e-300)
            )
            passband = (freqs >= low) & (freqs <= high)
            assert mags[passband].min() >= -1.0 - 0.02
            assert mags[passband].max() <= 0.02
            stopband = (freqs <= spec.stop_low) | (freqs >= spec.stop_high)
            assert mags[stopband].max() <= -40.0 + 0.02
            assert np.all(np.abs(coeffs.poles()) < 1.0)


def test_criterion_8_property_suites(tmp_path, chirp):
    with criterion(8, "property suites"):
        # unwrap idempotence + wrap consistency, 1000 random series
        rng = np.random.default_rng(1234)
        wrap = lambda p: np.angle(np.exp(1j * p))
        for _ in range(1000):
            phi = rng.uniform(-20, 20, size=rng.integers(2, 200))
            u = unwrap_phase(phi)
            assert np.allclose(wrap(u), wrap(phi), atol=1e-9)
            assert np.allclose(unwrap_phase(u), u, atol=1e-12)

        # pipeline scale invariance
        subject = preset_subject("subject-a")
        grid = make_time_grid(60.0, 50.0)
        fbg = FbgProfile(notch_depth_db=17.7, fwhm_3db=11.2e9)
        rec = contact_intensity(synth_motion(subject, grid), fbg, grid, rng_seed=2)
        a = contact_rates(rec.samples, 50.0)
        b = contact_rates(rec.samples * 511.0, 50.0)
        assert a.respiration_rpm == pytest.approx(b.respiration_rpm, rel=1e-9)
        assert a.heartbeat_bpm == pytest.approx(b.heartbeat_bpm, rel=1e-9)
        assert a.resp_3db_hz == pytest.approx(b.resp_3db_hz, rel=1e-9)
        assert a.heart_3db_hz == pytest.approx(b.heart_3db_hz, rel=1e-9)

        # channel isolation: adding a channel never perturbs an existing one
        full = run_scenario(two_channel_scenario(duration=10.0, seed=3))
        solo = Scenario(
            channels=(channel(
                1549.36, ["contact", "contactless"], subject=preset_subject("subject-a"),
                targets=(RadarTarget(preset_subject("subject-b"), 1.00),
                         RadarTarget(preset_subject("subject-c"), 1.65)),
            ),),
            acquisition=AcquisitionParams(duration=10.0),
            seed=3,
        )
        alone = run_scenario(solo)
        assert np.array_equal(
            full.channels[1549.36].intensity.samples,
            alone.channels[1549.36].intensity.samples,
        )
        assert np.array_equal(
            full.channels[1549.36].frames.samples,
            alone.channels[1549.36].frames.samples,
        )

        # determinism: byte-identical bundle payloads for a fixed seed
        b1 = formats.write_bundle(
            run_scenario(two_channel_scenario(duration=10.0, seed=5)), tmp_path / "b1"
        )
        b2 = formats.write_bundle(
            run_scenario(two_channel_scenario(duration=10.0, seed=5)), tmp_path / "b2"
        )
        for rel in ("channel_1549.36/contact.csv", "channel_1549.36/frames.bin",
                    "channel_1549.92/contact.csv", "truth.json", "scenario.json"):
            assert (b1 / rel).read_bytes() == (b2 / rel).read_bytes(), rel

        # superposition of frame synthesis with noise off
        static = lambda n: SubjectVitals(n, 15.0, 80.0, resp_amplitude=0.0,
                                         heart_amplitude=0.0)
        acq0 = AcquisitionParams(noise_rms=0.0, duration=10.0)
        fa = synth_dechirp_frames([RadarTarget(static("a"), 1.00)], chirp, acq0)
        fb = synth_dechirp_frames([RadarTarget(static("b"), 1.65)], chirp, acq0)
        fab = synth_dechirp_frames(
            [RadarTarget(static("a"), 1.00), RadarTarget(static("b"), 1.65)], chirp, acq0
        )
        assert np.allclose(fab.samples, fa.samples + fb.samples, atol=1e-12)


ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter: the numpy SIMD targets dispatched above the build's baseline,
# then the contact chain's reports on the bench's 16-channel config at seed 1, as JSON.
CONTACT_REPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from numpy._core import _multiarray_umath as umath
from vitalchirp import formats, scenario
from workloads import contact_config
bundle = scenario.run_scenario(formats.scenario_from_dict(contact_config(1)))
reports, _ = scenario.bundle_reports(bundle.channels.values())
print(json.dumps([[f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
                  [r.to_dict() for r in reports]]))
"""


def _contact_reports(**env):
    done = subprocess.run([sys.executable, "-c", CONTACT_REPORTS, str(ROOT / "bench")],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env})
    return json.loads(done.stdout)


def test_criterion_8_scope_contact_rates_under_the_baseline_simd_loops():
    """Criterion 8's bytes hold per numpy version and per dispatched SIMD target (README):
    with every target above the baseline disabled in a child's environment alone, the
    contact rates and widths move by at most 1e-12 relative, and no 0.1-rounded field."""
    dispatched, want = _contact_reports()
    if not dispatched:
        pytest.skip("numpy dispatches no SIMD target above its baseline here")
    baseline, got = _contact_reports(NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
    assert baseline == [] and len(got) == len(want) == 16
    exact = ("respiration_rpm_exact", "heartbeat_bpm_exact", "resp_3db_hz", "heart_3db_hz")
    for got_report, want_report in zip(got, want):
        for key in exact:
            assert got_report[key] == pytest.approx(want_report[key], rel=1e-12, abs=0)
        assert {k: v for k, v in got_report.items() if k not in exact} == {
            k: v for k, v in want_report.items() if k not in exact}


def _contact_scenario(n_channels, duration=60.0):
    names = ["subject-a", "subject-b", "subject-c", "subject-d", "subject-e"]
    channels = []
    subjects = {}
    for i in range(n_channels):
        wl = 1540.0 + 0.8 * i
        channels.append(channel(wl, ["contact"]))
        subjects[wl] = preset_subject(names[i % len(names)])
    return Scenario(channels=tuple(replace(ch, contact_subject=subjects[ch.wavelength_nm])
                                   for ch in channels),
                    acquisition=AcquisitionParams(duration=duration), seed=17)


def test_criterion_9_multichannel_scaling():
    with criterion(9, "16-channel scaling smoke"):
        def run(n):
            start = time.perf_counter()
            bundle = run_scenario(_contact_scenario(n))
            reports = []
            for wl, result in bundle.channels.items():
                reports.append(
                    contact_rates(result.intensity, truth=result.contact_subject)
                )
            return reports, time.perf_counter() - start

        run(4)  # warm-up
        _, t4 = run(4)
        reports16, t16 = run(16)
        assert len(reports16) == 16
        for rep in reports16:
            assert rep.flags["resp_detected"] and rep.flags["heart_detected"]
            assert abs(rep.resp_error_rpm) <= 1.6
            assert abs(rep.heart_error_bpm) <= 0.5
        # near-linear growth: 4x the work within 2x of the linear estimate
        assert t16 <= 8.0 * t4 + 0.5, f"t4={t4:.3f}s t16={t16:.3f}s"
