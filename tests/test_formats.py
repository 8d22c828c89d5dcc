import copy
import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vitalchirp import formats
from vitalchirp.photonics import FbgProfile, contact_intensity
from vitalchirp.physio import SubjectVitals, make_time_grid, preset_subject, synth_motion
from vitalchirp.radar import AcquisitionParams, RadarTarget, synth_dechirp_frames
from vitalchirp.scenario import WdmChannel, validate_scenario

from test_scenario import two_channel_scenario


@pytest.fixture()
def small_frames(chirp):
    acq = AcquisitionParams(duration=2.0, noise_rms=0.1)
    targets = [RadarTarget(preset_subject("subject-b"), 1.00)]
    return synth_dechirp_frames(targets, chirp, acq, seed=2)


class TestFramesContainer:
    def test_round_trip(self, small_frames, tmp_path):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        loaded = formats.read_frames(path)
        assert np.array_equal(loaded.samples, small_frames.samples)
        assert loaded.slow_rate == small_frames.slow_rate
        assert loaded.fast_rate == small_frames.fast_rate
        assert loaded.chirp == small_frames.chirp
        assert loaded.acquisition == small_frames.acquisition
        assert loaded.truth[0].subject.id == "subject-b"

    def test_read_samples_are_one_writable_contiguous_array(self, small_frames, tmp_path):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        samples = formats.read_frames(path).samples
        assert samples.flags.writeable
        assert samples.flags.c_contiguous
        assert samples.dtype == np.float64
        assert np.array_equal(samples, small_frames.samples)

    def test_layout_is_documented_format(self, small_frames, tmp_path):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        header = json.loads(raw[4 : 4 + hlen])
        assert header["format"] == "vitalchirp-frames"
        assert header["dtype"] == "<f8"
        payload = np.frombuffer(raw[4 + hlen :], dtype="<f8")
        assert payload.size == header["slow_count"] * header["fast_count"]
        assert payload[0] == small_frames.samples[0, 0]

    def test_payload_is_the_samples_bytes(self, small_frames, tmp_path):
        path = tmp_path / "frames.bin"
        for frames in (small_frames, small_frames.truncated(1.5)):
            formats.write_frames(frames, path)
            raw = path.read_bytes()
            (hlen,) = struct.unpack("<I", raw[:4])
            assert raw[4 + hlen:] == frames.samples.astype("<f8").tobytes()

    def test_truncated_payload_names_file_and_offset(self, small_frames, tmp_path):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(formats.CorruptFramesError) as err:
            formats.read_frames(path)
        assert "frames.bin" in str(err.value)
        assert "offset" in str(err.value)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "frames.bin"
        path.write_bytes(struct.pack("<I", 5) + b"nope!" + b"\x00" * 16)
        with pytest.raises(formats.CorruptFramesError):
            formats.read_frames(path)


class TestCsvExports:
    def test_intensity_round_trip(self, tmp_path):
        grid = make_time_grid(5.0, 50.0)
        fbg = FbgProfile(notch_depth_db=17.7, fwhm_3db=11.2e9)
        rec = contact_intensity(synth_motion(preset_subject("subject-a"), grid), fbg, grid)
        path = tmp_path / "contact.csv"
        formats.write_intensity_csv(path, rec)
        t, v = formats.read_intensity_csv(path)
        assert np.allclose(v, rec.samples, rtol=1e-10)
        assert np.allclose(t, grid.instants(), atol=1e-12)


class TestScenarioConfig:
    def test_dict_round_trip(self):
        s = two_channel_scenario(duration=10.0, seed=9)
        config = formats.scenario_to_dict(s)
        rebuilt = formats.scenario_from_dict(config)
        assert formats.scenario_to_dict(rebuilt) == config

    def test_preset_names_accepted(self):
        config = {
            "duration_s": 10.0,
            "channels": [
                {
                    "wavelength_nm": 1549.36,
                    "roles": ["contact"],
                    "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                               "pulse_period": 1e-4, "pulse_width": 6e-5},
                    "fbg": {"notch_depth_db": 17.7, "fwhm_3db": 11.2e9},
                    "contact_subject": "subject-a",
                }
            ],
        }
        s = formats.scenario_from_dict(config)
        assert s.channels[0].contact_subject.respiration_rate == 21.0

    def test_unknown_preset_rejected(self):
        config = {
            "channels": [
                {
                    "wavelength_nm": 1549.36,
                    "roles": ["contact"],
                    "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                               "pulse_period": 1e-4, "pulse_width": 6e-5},
                    "fbg": {"notch_depth_db": 17.7, "fwhm_3db": 11.2e9},
                    "contact_subject": "subject-z",
                }
            ]
        }
        with pytest.raises(ValueError, match="preset"):
            formats.scenario_from_dict(config)

    def test_hash_stable_and_sensitive(self):
        c1 = formats.scenario_to_dict(two_channel_scenario(seed=1))
        c2 = formats.scenario_to_dict(two_channel_scenario(seed=1))
        c3 = formats.scenario_to_dict(two_channel_scenario(seed=2))
        assert formats.scenario_hash(c1) == formats.scenario_hash(c2)
        assert formats.scenario_hash(c1) != formats.scenario_hash(c3)


# Two channels as in the benchmark's CLI workload, with an explicit
# acquisition and a full subject dict so every level of the schema is present.
BENCH_LIKE_CONFIG = {
    "duration_s": 60.0,
    "seed": 1,
    "acquisition": {"noise_rms": 0.5},
    "channels": [
        {
            "wavelength_nm": 1549.36,
            "roles": ["contact", "contactless"],
            "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                       "pulse_period": 100e-6, "pulse_width": 60e-6},
            "fbg": {"notch_depth_db": 17.70, "fwhm_3db": 11.2e9},
            "fiber_length_km": 4.1,
            "contact_subject": {"id": "subject-x", "respiration_rate": 16.0,
                                "heartbeat_rate": 70.0},
            "radar_targets": [{"subject": "subject-b", "range_m": 1.00},
                              {"subject": "subject-c", "range_m": 1.65}],
        },
        {
            "wavelength_nm": 1549.92,
            "roles": ["contact"],
            "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                       "pulse_period": 100e-6, "pulse_width": 60e-6},
            "fbg": {"notch_depth_db": 17.76, "fwhm_3db": 10.0e9},
            "contact_subject": "subject-d",
        },
    ],
}


def _entry(config, path):
    for key in path:
        config = config[key]
    return config


class TestStrictConfigReader:
    def test_bench_like_config_loads(self):
        s = formats.scenario_from_dict(BENCH_LIKE_CONFIG)
        assert validate_scenario(s).ok
        assert s.channels[0].fiber_length_km == 4.1

    @pytest.mark.parametrize("path, key, value", [
        ((), "fiber_lenght_km", 99),
        ((), "duration", 45),
        (("acquisition",), "frame_widht", 60e-6),
        (("acquisition",), "duration", 45),
        (("channels", 0), "fiber_lenght_km", 99),
        (("channels", 0, "fbg"), "fwhm", 11.2e9),
        (("channels", 0, "fbg"), "shape", "gaussian"),
        (("channels", 0, "fbg"), "bragg_offset", 0.0),
        (("channels", 0, "if_lfm"), "chirp_rate", 1.7e13),
        (("channels", 0, "radar_targets", 1), "reflectivty", 1.0),
        (("channels", 0, "contact_subject"), "heart_rate", 70.0),
    ])
    def test_unknown_entry_named(self, path, key, value):
        config = copy.deepcopy(BENCH_LIKE_CONFIG)
        _entry(config, path)[key] = value
        with pytest.raises(TypeError, match=f"'{key}'"):
            formats.scenario_from_dict(config)

    def test_numbers_recorded_as_given(self):
        config = copy.deepcopy(BENCH_LIKE_CONFIG)
        config["channels"][0]["radar_targets"][0]["range_m"] = 1
        resolved = formats.scenario_to_dict(formats.scenario_from_dict(config))
        assert resolved["channels"][0]["radar_targets"][0]["range_m"] == 1
        assert isinstance(resolved["channels"][0]["radar_targets"][0]["range_m"], int)
        assert "duration" not in resolved["acquisition"]


README = Path(__file__).resolve().parents[1] / "README.md"


class TestDocumentedSchema:
    """The README's scenario schema is a config the reader accepts."""

    def readme(self):
        return README.read_text(encoding="utf-8")

    def test_schema_block_loads_validates_and_round_trips(self):
        (block,) = re.findall(r"```jsonc\n(.*?)```", self.readme(), re.S)
        config = json.loads(re.sub(r"//.*", "", block))
        s = formats.scenario_from_dict(config)
        assert validate_scenario(s).ok
        resolved = formats.scenario_to_dict(s)
        assert formats.scenario_to_dict(formats.scenario_from_dict(resolved)) == resolved
        for key in ("duration_s", "seed", "contact_sample_rate"):
            assert resolved[key] == config[key]
        assert resolved["acquisition"] == config["acquisition"]

    def test_subject_keys_are_the_subject_fields(self):
        (sentence,) = re.findall(r"A full subject dict takes (.*?)\.", self.readme(), re.S)
        assert re.findall(r"`(\w+)`", sentence) == [f.name for f in fields(SubjectVitals)]

    def test_channel_keys_are_the_channel_fields(self):
        (block,) = re.findall(r"```jsonc\n(.*?)```", self.readme(), re.S)
        (shown,) = json.loads(re.sub(r"//.*", "", block))["channels"]
        (sentence,) = re.findall(r"A channel takes the fields of `scenario\.WdmChannel`; "
                                 r"besides those shown, these are (.*?)\.",
                                 " ".join(self.readme().split()))
        extras = re.findall(r"`(\w+)`", sentence)
        assert not set(shown) & set(extras)
        assert set(shown) | set(extras) == {f.name for f in fields(WdmChannel)}


class TestBundleIO:
    def test_write_read_bundle(self, tmp_path):
        from vitalchirp.scenario import run_scenario

        bundle = run_scenario(two_channel_scenario(duration=10.0, seed=4))
        out = formats.write_bundle(bundle, tmp_path / "bundle")
        assert (out / "scenario.json").is_file()
        assert (out / "truth.json").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "channel_1549.36" / "contact.csv").is_file()
        assert (out / "channel_1549.36" / "frames.bin").is_file()
        assert (out / "channel_1549.92" / "contact.csv").is_file()
        assert not (out / "channel_1549.92" / "frames.bin").exists()

        loaded = formats.read_bundle(out)
        assert len(loaded.channels) == 2
        ch1 = next(c for c in loaded.channels if c.wavelength_nm == 1549.36)
        assert ch1.frames is not None
        assert ch1.contact_subject.id == "subject-a"
        assert np.array_equal(
            ch1.frames.samples, bundle.channels[1549.36].frames.samples
        )
        assert np.allclose(
            ch1.intensity, bundle.channels[1549.36].intensity.samples, rtol=1e-10
        )

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            formats.read_bundle(tmp_path / "nope")

    def test_contact_rate_is_the_recorded_one(self, tmp_path):
        from dataclasses import replace

        from vitalchirp.scenario import run_scenario

        scenario = replace(two_channel_scenario(duration=10.0, seed=4), contact_sample_rate=40.0)
        out = formats.write_bundle(run_scenario(scenario), tmp_path / "bundle")
        assert {c.contact_sample_rate for c in formats.read_bundle(out).channels} == {40.0}
        config = json.loads((out / "scenario.json").read_text())
        del config["contact_sample_rate"]
        (out / "scenario.json").write_text(json.dumps(config))
        with pytest.raises(KeyError, match="contact_sample_rate"):
            formats.read_bundle(out)
