import re
import typing
from dataclasses import fields, replace

import numpy as np
import pytest

from vitalchirp.photonics import FbgProfile, IfLfmParams, derive_chirp
from vitalchirp.physio import (
    PRESET_SUBJECTS,
    SubjectVitals,
    TimeGrid,
    band_violations,
    check_fields,
    make_time_grid,
    prefix_length,
    preset_subject,
    synth_motion,
)
from vitalchirp.radar import AcquisitionParams, RadarTarget
from vitalchirp.scenario import Scenario, WdmChannel

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


def _config_objects():
    """A valid instance of each of the eight config classes."""
    subject = SubjectVitals("x", 15.0, 80.0, resp_harmonics=((2, 0.3),))
    if_lfm, fbg = IfLfmParams(6.6e9, 1e9, 1e-4, 6e-5), FbgProfile(17.7, 11.2e9)
    channel = WdmChannel(1549.36, frozenset({"contact"}), if_lfm, fbg, contact_subject=subject)
    return [subject, RadarTarget(subject, 1.0), AcquisitionParams(), if_lfm,
            derive_chirp(if_lfm), fbg, channel, Scenario((channel,))]


CONFIG_OBJECTS = _config_objects()
VALID_NUMBER = {float: 0.5, int: 2}  # fills a pair's other slot


def _number_slots(hint):
    """``(put, leaf)`` for each place ``hint`` holds a number: ``put(v)`` is a value of
    ``hint`` with ``v`` there, ``leaf`` the number's own annotation."""
    args = typing.get_args(hint)
    if hint in (float, int) or typing.get_origin(hint) is typing.Annotated:
        yield (lambda v: v), args[0] if args else hint
    elif typing.get_origin(hint) is tuple and args[-1] is ...:
        for put, leaf in _number_slots(args[0]):
            yield (lambda v, put=put: (put(v),)), leaf
    elif typing.get_origin(hint) is tuple:
        for k, arg in enumerate(args):
            for put, leaf in _number_slots(arg):
                yield (lambda v, k=k, put=put: tuple(
                    put(v) if j == k else VALID_NUMBER[a] for j, a in enumerate(args))), leaf


def _field_cases():
    """``(obj, field name, number slots)`` for each field of the eight config classes."""
    for obj in CONFIG_OBJECTS:
        hints = typing.get_type_hints(type(obj), include_extras=True)
        for f in fields(obj):
            yield obj, f.name, list(_number_slots(hints[f.name]))


FIELD_CASES = list(_field_cases())
NOT_NUMBERS = {("SubjectVitals", "id"), ("RadarTarget", "subject"), ("WdmChannel", "roles"),
               ("WdmChannel", "if_lfm"), ("WdmChannel", "fbg"),
               ("WdmChannel", "contact_subject"), ("WdmChannel", "radar_targets"),
               ("Scenario", "channels"), ("Scenario", "acquisition")}


def test_every_config_field_holds_numbers_or_is_named():
    # a new field holds numbers, so the table below checks it, or is added here
    assert {(type(obj).__name__, name) for obj, name, slots in FIELD_CASES if not slots} == (
        NOT_NUMBERS)


def _refusals(name, leaf):
    """``(value, text)``: what a number slot of the field ``name`` refuses, and the text."""
    yield True, f"{name} must be numbers, not true or false"
    yield "text", f"{name} must be numbers, not text"
    yield None, f"{name} must be numbers, not null"
    if leaf is int:
        yield 1.5, f"{name} 1.5 is not an integer"


@pytest.mark.parametrize("obj, name, put, value, message", [
    pytest.param(obj, name, put, value, message,
                 id=f"{type(obj).__name__}.{name}[{k}]-{value!r}")
    for obj, name, slots in FIELD_CASES for k, (put, leaf) in enumerate(slots)
    for value, message in _refusals(name, leaf)])
def test_config_number_field_refuses_what_is_not_its_number(obj, name, put, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        replace(obj, **{name: put(value)})


@pytest.mark.parametrize("obj, name", [
    pytest.param(obj, name, id=f"{type(obj).__name__}.{name}")
    for obj, name, slots in FIELD_CASES if not slots])
def test_config_field_of_no_number_refuses_a_number(obj, name):
    with pytest.raises(ValueError, match=f"^{name} 1.5 is not a "):
        replace(obj, **{name: 1.5})


@pytest.mark.parametrize("bits, value", [(64, -1), (64, 2**64), (32, 2**32), (32, -1)])
def test_seed_outside_its_bits_refused(bits, value):
    obj, name = (CONFIG_OBJECTS[0], "rng_seed") if bits == 64 else (CONFIG_OBJECTS[-1], "seed")
    with pytest.raises(ValueError, match=re.escape(f"{name} {value} is not an integer in "
                                                   f"[0, 2**{bits})")):
        replace(obj, **{name: value})


def test_each_class_reads_its_annotations_once(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("annotations read again")

    for obj in CONFIG_OBJECTS:
        check_fields(obj)
    monkeypatch.setattr(typing, "get_type_hints", refuse)
    for obj in CONFIG_OBJECTS:
        assert check_fields(type(obj)) is check_fields(obj)
        replace(obj)
