from dataclasses import replace

import numpy as np
import pytest

from vitalchirp.photonics import FbgProfile, IfLfmParams, derive_chirp
from vitalchirp.physio import SubjectVitals, band_violations, preset_subject
from vitalchirp.radar import AcquisitionParams, RadarTarget, synth_dechirp_frames
from vitalchirp.scenario import (
    Scenario,
    ScenarioValidationError,
    WdmChannel,
    channel_seeds,
    run_scenario,
    validate_scenario,
)

IF_LFM = IfLfmParams(center_freq=6.6e9, bandwidth=1e9, pulse_period=100e-6,
                     pulse_width=60e-6)


def channel(wavelength, roles, fbg=True, subject=None, targets=()):
    return WdmChannel(
        wavelength_nm=wavelength,
        roles=frozenset(roles),
        if_lfm=IF_LFM,
        fbg=FbgProfile(notch_depth_db=17.70, fwhm_3db=11.2e9) if fbg else None,
        contact_subject=subject,
        radar_targets=tuple(targets),
    )


def two_targets():
    return (RadarTarget(preset_subject("subject-b"), 1.00),
            RadarTarget(preset_subject("subject-c"), 1.65))


def two_channel_scenario(duration=60.0, seed=0, noise_rms=0.5):
    """Contact+contactless on 1549.36 nm, contact only on 1549.92 nm."""
    return Scenario(
        channels=(
            channel(1549.36, ["contact", "contactless"], subject=preset_subject("subject-a"),
                    targets=two_targets()),
            channel(1549.92, ["contact"], subject=preset_subject("subject-d")),
        ),
        acquisition=AcquisitionParams(noise_rms=noise_rms, duration=duration),
        seed=seed,
    )


def with_people(s, index, **people):
    """``s`` with channel ``index`` given ``contact_subject`` and/or ``radar_targets``."""
    channels = list(s.channels)
    channels[index] = replace(channels[index], **people)
    return replace(s, channels=tuple(channels))


class TestValidateScenario:
    def test_two_channel_setup_valid(self):
        report = validate_scenario(two_channel_scenario())
        assert report.ok
        assert report.violations == []
        # off-grid wavelengths only warn
        assert len(report.warnings) == 2

    def test_duplicate_wavelength(self):
        s = two_channel_scenario()
        s = Scenario(channels=(s.channels[0], s.channels[0]), acquisition=s.acquisition)
        report = validate_scenario(s)
        assert any("duplicate wavelength" in v for v in report.violations)

    def test_target_beyond_unambiguous_range(self):
        s = with_people(two_channel_scenario(), 0,
                        radar_targets=(RadarTarget(preset_subject("subject-b"), 12.0),))
        report = validate_scenario(s)
        assert any("unambiguous range" in v and "11.2" in v for v in report.violations)

    def test_contact_role_needs_fbg_and_subject(self):
        s = Scenario(channels=(channel(1550.0, ["contact"], fbg=False),))
        report = validate_scenario(s)
        assert any("no FBG" in v for v in report.violations)
        assert any("no subject" in v for v in report.violations)

    def test_contactless_role_needs_scene(self):
        s = Scenario(channels=(channel(1550.0, ["contactless"]),))
        report = validate_scenario(s)
        assert any("no radar scene" in v for v in report.violations)

    def test_people_need_their_role(self):
        s = Scenario(channels=(
            channel(1549.36, ["contactless"], subject=preset_subject("subject-a"),
                    targets=two_targets()),
            channel(1549.92, ["contact"], subject=preset_subject("subject-d"),
                    targets=two_targets()),
        ))
        assert validate_scenario(s).violations == [
            "contact subject on channel 1549.36 nm which lacks the contact role",
            "radar scene on channel 1549.92 nm which lacks the contactless role",
        ]

    def test_out_of_band_rates_flagged(self):
        slow = SubjectVitals("slow", respiration_rate=4.0, heartbeat_rate=80.0)
        s = Scenario(channels=(channel(1550.0, ["contact"], subject=slow),))
        report = validate_scenario(s)
        assert any("search band" in v for v in report.violations)

    @pytest.mark.parametrize("acquisition, target_range", [
        ({}, 12.0),
        ({"frame_width": 80e-6}, 1.0),
        ({"slow_period": 50e-6}, 1.0),
    ])
    def test_capture_rule_message_is_the_synthesizers(self, acquisition, target_range):
        targets = (RadarTarget(preset_subject("subject-b"), target_range),)
        s = with_people(two_channel_scenario(duration=1.0), 0, radar_targets=targets)
        s.acquisition = AcquisitionParams(duration=1.0, **acquisition)
        with pytest.raises(ValueError) as err:
            synth_dechirp_frames(targets, derive_chirp(IF_LFM), s.acquisition)
        assert validate_scenario(s).violations == [f"channel 1549.36 nm: {err.value}"]

    def test_band_message_is_band_violations(self):
        slow = SubjectVitals("slow", respiration_rate=4.0, heartbeat_rate=130.0)
        s = with_people(two_channel_scenario(), 0, radar_targets=(RadarTarget(slow, 1.0),))
        s = with_people(s, 1, contact_subject=slow)
        messages = band_violations(slow)
        assert len(messages) == 2
        assert validate_scenario(s).violations == (
            [f"channel 1549.36 nm target 'slow': {m}" for m in messages]
            + [f"channel 1549.92 nm contact subject 'slow': {m}" for m in messages]
        )

    def test_on_grid_wavelength_no_warning(self):
        # 193.1 THz anchor itself
        wl = 299792458.0 / 193.1e12 * 1e9
        s = Scenario(channels=(channel(wl, ["contact"], subject=preset_subject("subject-a")),))
        assert validate_scenario(s).warnings == []


class TestRunScenario:
    def test_three_person_two_channel_bundle(self):
        bundle = run_scenario(two_channel_scenario(duration=20.0))
        ch1 = bundle.channels[1549.36]
        ch2 = bundle.channels[1549.92]
        assert ch1.intensity is not None and ch1.frames is not None
        assert len(ch1.frames.truth) == 2
        assert ch2.intensity is not None and ch2.frames is None
        assert ch1.frames.samples.shape == (1000, 600)
        assert ch1.intensity.samples.shape == (1000,)

    def test_two_contact_channels_no_frames(self):
        s = Scenario(
            channels=(channel(1549.36, ["contact"], subject=preset_subject("subject-a")),
                      channel(1549.92, ["contact"], subject=preset_subject("subject-b"))),
            acquisition=AcquisitionParams(duration=20.0),
        )
        bundle = run_scenario(s)
        assert all(r.frames is None for r in bundle.channels.values())
        assert sum(r.intensity is not None for r in bundle.channels.values()) == 2

    def test_empty_scenario(self):
        bundle = run_scenario(Scenario(channels=()))
        assert bundle.channels == {}

    def test_invalid_scenario_raises_with_violations(self):
        s = Scenario(channels=(channel(1550.0, ["contactless"]),))
        with pytest.raises(ScenarioValidationError) as err:
            run_scenario(s)
        assert err.value.violations

    def test_channel_isolation_bit_identical(self):
        full = run_scenario(two_channel_scenario(duration=10.0, seed=3))
        solo = Scenario(
            channels=(channel(1549.36, ["contact", "contactless"],
                              subject=preset_subject("subject-a"),
                              targets=two_targets()),),
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

    def test_deterministic_under_seed(self):
        a = run_scenario(two_channel_scenario(duration=10.0, seed=5))
        b = run_scenario(two_channel_scenario(duration=10.0, seed=5))
        assert np.array_equal(
            a.channels[1549.36].frames.samples, b.channels[1549.36].frames.samples
        )
        assert np.array_equal(
            a.channels[1549.92].intensity.samples, b.channels[1549.92].intensity.samples
        )
        c = run_scenario(two_channel_scenario(duration=10.0, seed=6))
        assert not np.array_equal(
            a.channels[1549.36].frames.samples, c.channels[1549.36].frames.samples
        )

    def test_fiber_loss_scales_amplitude_only(self):
        from vitalchirp.pipelines import contact_rates

        base = two_channel_scenario(duration=20.0)
        lossy = two_channel_scenario(duration=20.0)
        lossy = replace(lossy, channels=tuple(
            replace(ch, fiber_length_km=25.0)
            for ch in lossy.channels
        ))
        rec_base = run_scenario(base).channels[1549.92].intensity
        rec_lossy = run_scenario(lossy).channels[1549.92].intensity
        scale = 10 ** (-0.2 * 25.0 / 10)
        assert np.allclose(rec_lossy.samples, rec_base.samples * scale)
        ra = contact_rates(rec_base, truth=preset_subject("subject-d"))
        rb = contact_rates(rec_lossy, truth=preset_subject("subject-d"))
        assert ra.respiration_rpm == pytest.approx(rb.respiration_rpm, rel=1e-9)
        assert ra.heartbeat_bpm == pytest.approx(rb.heartbeat_bpm, rel=1e-9)


class TestChannelSeeds:
    def test_stable_and_distinct(self):
        a1 = channel_seeds(7, 1549.36)
        a2 = channel_seeds(7, 1549.36)
        b = channel_seeds(7, 1549.92)
        c = channel_seeds(8, 1549.36)
        assert a1 == a2
        assert a1 != b
        assert a1 != c
