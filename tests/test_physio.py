import numpy as np
import pytest

from vitalchirp.physio import (
    PRESET_SUBJECTS,
    SubjectVitals,
    TimeGrid,
    band_violations,
    make_time_grid,
    prefix_length,
    preset_subject,
    synth_motion,
)

from conftest import dft_magnitude


class TestTimeGrid:
    def test_monitoring_grid_count(self):
        grid = make_time_grid(60.0, 50.0)
        assert grid.count == 3000

    def test_single_sample(self):
        grid = make_time_grid(1.0, 1.0)
        assert grid.count == 1
        assert grid.instants()[0] == 0.0

    def test_slow_time_step_is_pulse_trigger_period(self):
        grid = make_time_grid(60.0, 50.0)
        t = grid.instants()
        assert np.allclose(np.diff(t), 20e-3)

    @pytest.mark.parametrize("duration,rate", [(-1, 50), (0, 50), (60, 0), (60, -5)])
    def test_invalid_inputs(self, duration, rate):
        with pytest.raises(ValueError):
            make_time_grid(duration, rate)

    def test_count_past_float_range_rejected(self):
        with pytest.raises(ValueError, match="past the float range"):
            make_time_grid(1e308, 50.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(sample_rate=50.0, count=0)


class TestPrefixLength:
    def test_whole_samples_at_or_below_the_duration(self):
        assert prefix_length(5.03, 50.0, 3000) == 251  # 251.5 samples
        assert prefix_length(5.02, 50.0, 3000) == 251  # 5.02 * 50 < 251 in binary
        assert prefix_length(60.0, 50.0, 3000) == 3000

    @pytest.mark.parametrize("duration", [0.01, -1.0, 60.03, float("inf"), float("nan")])
    def test_empty_overlong_or_non_finite_prefix_rejected(self, duration):
        with pytest.raises(ValueError, match="cannot truncate 60.0 s record"):
            prefix_length(duration, 50.0, 3000)


class TestSubjectVitals:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            SubjectVitals("x", respiration_rate=0.0, heartbeat_rate=80.0)
        with pytest.raises(ValueError):
            SubjectVitals("x", respiration_rate=61.0, heartbeat_rate=80.0)
        with pytest.raises(ValueError):
            SubjectVitals("x", respiration_rate=15.0, heartbeat_rate=250.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SubjectVitals("x", 15.0, 80.0, resp_amplitude=-1.0)

    def test_harmonic_validation(self):
        with pytest.raises(ValueError):
            SubjectVitals("x", 15.0, 80.0, resp_harmonics=((1, 0.3),))
        with pytest.raises(ValueError):
            SubjectVitals("x", 15.0, 80.0, resp_harmonics=((2, 1.5),))

    @pytest.mark.parametrize("field", [
        "respiration_rate", "heartbeat_rate", "resp_amplitude", "heart_amplitude",
        "resp_phase", "heart_phase", "motion_noise_rms", "rng_seed", "resp_harmonics",
    ])
    def test_true_is_not_a_number(self, field):
        value = ((2, True),) if field == "resp_harmonics" else True
        kwargs = {"id": "x", "respiration_rate": 15.0, "heartbeat_rate": 80.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be numbers, not true or false"):
            SubjectVitals(**kwargs)

    def test_presets_inside_filter_bands(self):
        for subject in PRESET_SUBJECTS.values():
            assert 0.13 <= subject.resp_freq <= 0.5
            assert 0.8 <= subject.heart_freq <= 1.9
            assert subject.resp_amplitude > subject.heart_amplitude

    def test_preset_lookup(self):
        assert preset_subject("subject-a").respiration_rate == 21.0
        quiet = preset_subject("subject-a", heart_amplitude=0.0)
        assert quiet.heart_amplitude == 0.0
        with pytest.raises(KeyError):
            preset_subject("nobody")


class TestBandViolations:
    def test_one_message_per_band(self):
        assert band_violations(SubjectVitals("x", 4.0, 70.0)) == [
            "respiration rate 4.0 rpm outside the 7.8-30 rpm search band"
        ]
        assert band_violations(SubjectVitals("x", 15.0, 130.0)) == [
            "heartbeat rate 130.0 bpm outside the 48-114 bpm search band"
        ]


class TestSynthMotion:
    def test_spectral_peaks_at_rates(self):
        # 21 rpm / 87 bpm should put lines at exactly 0.35 Hz and 1.45 Hz
        subject = SubjectVitals("t", 21.0, 87.0)
        grid = make_time_grid(60.0, 50.0)
        x = synth_motion(subject, grid)
        mags = np.abs(np.fft.rfft(x))
        freqs = np.fft.rfftfreq(grid.count, 1 / grid.sample_rate)
        top = np.argsort(mags)[::-1][:2]
        assert sorted(freqs[top]) == pytest.approx([0.35, 1.45])

    def test_zero_amplitudes_zero_series(self):
        subject = SubjectVitals("t", 15.0, 80.0, resp_amplitude=0.0, heart_amplitude=0.0)
        grid = make_time_grid(10.0, 50.0)
        assert np.all(synth_motion(subject, grid) == 0.0)

    def test_harmonic_amplitude_ratio(self):
        # order-2 harmonic at 0.3 relative amplitude: line at 0.50 Hz is
        # 0.3x the 0.25 Hz line, checked with an independent DFT oracle
        subject = SubjectVitals(
            "t", 15.0, 80.0, heart_amplitude=0.0, resp_harmonics=((2, 0.3),)
        )
        grid = make_time_grid(60.0, 50.0)
        x = synth_motion(subject, grid)
        fundamental = dft_magnitude(x, 50.0, 0.25)
        harmonic = dft_magnitude(x, 50.0, 0.50)
        assert harmonic / fundamental == pytest.approx(0.3, rel=0.01)

    def test_deterministic_for_seed(self):
        subject = SubjectVitals("t", 15.0, 80.0, motion_noise_rms=0.2, rng_seed=42)
        grid = make_time_grid(10.0, 50.0)
        a = synth_motion(subject, grid)
        b = synth_motion(subject, grid)
        assert np.array_equal(a, b)

    def test_seed_changes_noise(self):
        grid = make_time_grid(10.0, 50.0)
        a = synth_motion(SubjectVitals("t", 15.0, 80.0, motion_noise_rms=0.2, rng_seed=1), grid)
        b = synth_motion(SubjectVitals("t", 15.0, 80.0, motion_noise_rms=0.2, rng_seed=2), grid)
        assert not np.array_equal(a, b)

    def test_linearity(self):
        # breathing-only plus heartbeat-only equals the combined subject
        grid = make_time_grid(20.0, 50.0)
        resp_only = SubjectVitals(
            "r", 21.0, 87.0, resp_amplitude=4.0, heart_amplitude=0.0,
            resp_harmonics=((2, 0.25),),
        )
        heart_only = SubjectVitals("h", 21.0, 87.0, resp_amplitude=0.0, heart_amplitude=0.3)
        combined = SubjectVitals(
            "c", 21.0, 87.0, resp_amplitude=4.0, heart_amplitude=0.3,
            resp_harmonics=((2, 0.25),),
        )
        total = synth_motion(resp_only, grid) + synth_motion(heart_only, grid)
        assert np.allclose(total, synth_motion(combined, grid), atol=1e-12)
