import copy
import csv
import io
import json
import mmap
import os
import re
import struct
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from vitalchirp import formats
from vitalchirp.photonics import FbgProfile, contact_intensity
from vitalchirp.physio import SubjectVitals, make_time_grid, preset_subject, synth_motion
from vitalchirp.radar import FRAME_BLOCK_ROWS, AcquisitionParams, DechirpFrameSet, RadarTarget
from vitalchirp.radar import synth_dechirp_frames
from vitalchirp.scenario import (Scenario, WdmChannel, channel_name, run_scenario,
                                 validate_scenario)

from conftest import edit_frames_header, traced_peak
from test_scenario import channel, two_channel_scenario


SOURCE = Path(formats.__file__).parent.parent

# Runs in a fresh interpreter on the directory the test wrote: transform the small frames
# first (FFT plans, the mmap module), then print how far reading the 3000 x 600 frames and
# transforming them, keeping every column or the columns of bins 20-29, raised the peak RSS,
# in bytes, and the bytes of the kept columns.  The peak is the process's VmHWM: Linux
# carries the parent's peak into a child's ru_maxrss, which would hide the growth under the
# test process's own.
PEAK_GROWTH = """
import json, sys
from vitalchirp import formats
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))
formats.read_frames(sys.argv[1] + "/small.bin").transform()
before = peak()
bins = None if sys.argv[2] == "every" else range(20, 30)
columns, _ = formats.read_frames(sys.argv[1] + "/frames.bin").transform(bins)
print(json.dumps([peak() - before, len(columns) * 3000 * 16]))
"""


def csv_writer_bytes(columns: dict) -> bytes:
    """Oracle: the bytes ``csv.writer(fh, lineterminator="\\n")`` writes for ``columns``."""
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                           for c in columns.values()]))
    return want.getvalue().encode("utf-8")


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

    def test_read_samples_are_one_read_only_contiguous_array(self, small_frames, tmp_path):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        samples = formats.read_frames(path).samples
        assert not samples.flags.writeable
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

    @pytest.mark.parametrize("key, value", [("order", "F"), ("dtype", ">f8")])
    def test_header_layout_other_than_written_rejected(self, small_frames, tmp_path,
                                                       key, value):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        header = json.loads(raw[4:4 + hlen])
        header[key] = value
        blob = json.dumps(header).encode()
        path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + hlen:])
        with pytest.raises(formats.CorruptFramesError, match=f"header {key} '{value}'"):
            formats.read_frames(path)

    @pytest.mark.parametrize("key, value", [
        ("slow_count", 99), ("fast_count", 601), ("slow_rate_hz", 25.0),
        ("fast_rate_sa_s", 5e6), ("slow_count", None),
    ])
    def test_header_copy_disagreeing_with_acquisition_rejected(self, small_frames, tmp_path,
                                                               key, value):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        edit_frames_header(path, lambda header: header.update({key: value}) if value is not None
                           else header.pop(key))
        with pytest.raises(formats.CorruptFramesError, match=f"header {key} {value!r}"):
            formats.read_frames(path)

    @pytest.mark.parametrize("duration, slow_period", [(2.0, 20e-3), (1.37, 30e-3)])
    def test_truncations_round_trip(self, chirp, tmp_path, duration, slow_period):
        acq = AcquisitionParams(duration=duration, slow_period=slow_period, noise_rms=0.1)
        targets = [RadarTarget(preset_subject("subject-b"), 1.00)]
        frames = synth_dechirp_frames(targets, chirp, acq, seed=2)
        path = tmp_path / "frames.bin"
        cuts = np.random.default_rng(int(duration * 100)).uniform(0.05, duration, 8)
        for cut in (duration, *cuts):
            part = frames.truncated(cut)
            formats.write_frames(part, path)
            loaded = formats.read_frames(path)
            assert (loaded.slow_rate, loaded.fast_rate) == (part.slow_rate, part.fast_rate)
            assert loaded.acquisition == part.acquisition
            assert loaded.acquisition.slow_count == loaded.slow_count
            assert np.array_equal(loaded.samples, part.samples)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_header_number_rejected(self, small_frames, tmp_path, literal):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        edit_frames_header(path, lambda header: header["acquisition"].update(
            noise_rms=float(literal)))
        with pytest.raises(formats.CorruptFramesError, match=f"number {literal} is not finite"):
            formats.read_frames(path)

    @pytest.mark.parametrize("cut, message", [
        (lambda raw, hlen: raw[:3], "truncated before header length (offset 0)"),
        (lambda raw, hlen: raw[:4 + hlen - 1], "truncated inside JSON header (offset 4)"),
    ], ids=["header-length", "header"])
    def test_cut_header_names_file_and_offset(self, small_frames, tmp_path, cut, message):
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        raw = path.read_bytes()
        path.write_bytes(cut(raw, struct.unpack("<I", raw[:4])[0]))
        with pytest.raises(formats.CorruptFramesError, match=re.escape(f"{path}: {message}")):
            formats.read_frames(path)

    def test_non_finite_payload_rejected(self, small_frames, tmp_path):
        path = tmp_path / "frames.bin"
        samples = small_frames.samples.copy()
        samples[3, 5] = np.nan
        formats.write_frames(replace(small_frames, samples=samples), path)
        with pytest.raises(formats.CorruptFramesError, match="non-finite samples in payload"):
            formats.read_frames(path)

    def test_peak_memory_is_one_block(self, chirp, tmp_path):
        # the payload is mapped, not copied, and the finiteness check flags a block of rows
        # at a time: no copy of the payload and no bool copy of it
        acq = AcquisitionParams()
        path = tmp_path / "frames.bin"
        formats.write_frames(DechirpFrameSet(np.zeros((acq.slow_count, acq.fast_count)), chirp,
                                             acq), path)
        frames, peak = traced_peak(lambda: formats.read_frames(path))
        assert frames.samples.shape == (3000, 600)
        assert peak <= FRAME_BLOCK_ROWS * 600 * 8

    @pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED") or sys.platform != "linux",
                        reason="pages are released by madvise; the peak is read from /proc")
    @pytest.mark.parametrize("bins", ["every", "ten"])
    def test_read_and_transform_hold_the_kept_columns_not_the_samples(self, small_frames,
                                                                      chirp, tmp_path, bins):
        # each block of the mapped payload is released once read: the child's peak grows by
        # the kept columns and a few blocks (the pass's buffers, the blocks in flight),
        # where a copy of the samples would add 14.4 MB more, and the spectra 14.4 MB again
        acq = AcquisitionParams()
        formats.write_frames(small_frames, tmp_path / "small.bin")
        samples = np.random.default_rng(5).normal(size=(acq.slow_count, acq.fast_count))
        formats.write_frames(DechirpFrameSet(samples, chirp, acq), tmp_path / "frames.bin")
        done = subprocess.run([sys.executable, "-c", PEAK_GROWTH, str(tmp_path), bins],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(SOURCE)})
        growth, kept_bytes = json.loads(done.stdout)
        assert kept_bytes == (301 if bins == "every" else 10) * 3000 * 16
        assert growth < kept_bytes + 8 * FRAME_BLOCK_ROWS * 600 * 8

    def test_rewriting_a_read_file_leaves_the_read_frames_intact(self, small_frames,
                                                                 tmp_path):
        # write_frames replaces the file whole: the old frames' map keeps the old file, so
        # its released pages reload as they were; truncated in place, the map would fault
        path = tmp_path / "frames.bin"
        formats.write_frames(small_frames, path)
        old = formats.read_frames(path)
        cut = small_frames.truncated(0.5)
        formats.write_frames(replace(cut, samples=np.zeros_like(cut.samples)), path)
        assert old.samples.tobytes() == small_frames.samples.tobytes()
        (old_columns, old_marks), (columns, marks) = old.transform(), small_frames.transform()
        assert old_marks.tobytes() == marks.tobytes() and old_columns.keys() == columns.keys()
        assert all(old_columns[b].tobytes() == columns[b].tobytes() for b in columns)
        assert formats.read_frames(path).slow_count == cut.slow_count
        assert list(tmp_path.iterdir()) == [path]  # no .part left

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
        np.testing.assert_array_equal(v, rec.samples)
        np.testing.assert_array_equal(t, grid.instants())

    def test_series_round_trip_is_exact(self, tmp_path):
        edges = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                 0.1, 1 / 3, 2.0**-1074 * 3]
        values = np.concatenate([edges, np.random.default_rng(0).normal(size=500) * 1e3])
        times = np.arange(values.size) / 50.0
        path = tmp_path / "series.csv"
        formats.write_series_csv(path, {"t_s": times, "intensity": values})
        t, v = formats.read_intensity_csv(path)
        assert t.tobytes() == times.tobytes()
        assert v.tobytes() == values.tobytes()  # also the sign of -0.0

    def test_series_csv_text(self, tmp_path):
        path = tmp_path / "rows.csv"
        formats.write_series_csv(path, {"x": np.array([0.1, -0.0, 1e22]),
                                        "label": ["a", "b, c", None]})
        assert path.read_text() == 'x,label\n0.1,a\n-0.0,"b, c"\n1e+22,\n'

    @pytest.mark.parametrize("columns", [
        {"text": ["a,b", 'say "hi"', "two\nlines", "car\rriage", "", None, "plain"],
         "x": np.array([0.1, -0.0, 1e22, np.nan, -1.5, 5e-324, 2.0])},
        {"lone": [""]},
        {"lone": [None]},
        {"lone": ["", None, "a"]},
        {"rate": [np.float64(0.1), np.float64(-0.0), None], "n": [3, True, False]},
        {"i": np.arange(3), "b": np.array([True, False, True]),
         "f": np.array([-0.0, 1e22, np.nan])},
        {"name, with comma": np.array([1.0]), 'q"uote': ["x"]},
        {"": np.array([1.0])},
        {},
        {"text": [None, "", "a,b"] * 700, "x": np.arange(2100.0) / 7},
        {"lone": [""] * 1025},
    ], ids=["text", "lone-empty", "lone-none", "lone-mixed", "numpy-scalars", "arrays",
            "header", "lone-empty-name", "no-columns", "several-blocks", "lone-past-a-block"])
    def test_series_csv_bytes_are_csv_writer_bytes(self, tmp_path, columns):
        path = tmp_path / "rows.csv"
        formats.write_series_csv(path, columns)
        assert path.read_bytes() == csv_writer_bytes(columns)

    def test_series_csv_rejects_ragged_columns(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match="unequal lengths"):
            formats.write_series_csv(path, {"a": np.arange(5.0), "b": np.arange(3.0)})
        assert not path.exists()


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
        assert type(ch1) is type(bundle.channels[1549.36])
        np.testing.assert_array_equal(ch1.intensity.samples,
                                      bundle.channels[1549.36].intensity.samples)

    def test_frames_truth_is_read_from_the_frames_header_only(self, tmp_path):
        from vitalchirp.scenario import run_scenario

        out = formats.write_bundle(run_scenario(two_channel_scenario(duration=10.0, seed=4)),
                                   tmp_path / "bundle")
        frames_path = out / "channel_1549.36" / "frames.bin"
        formats.write_frames(replace(formats.read_frames(frames_path), truth=None),
                             frames_path)
        (ch1,) = [c for c in formats.read_bundle(out).channels if c.wavelength_nm == 1549.36]
        assert ch1.frames.truth is None
        assert ch1.contact_subject.id == "subject-a"

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            formats.read_bundle(tmp_path / "nope")

    def test_contact_csv_bytes_are_csv_writer_bytes_at_each_rate(self, tmp_path):
        # the t_s text is formatted once per sample count and rate, and shared; each
        # bundle here holds 250 samples per channel, so only the rate tells them apart
        for k, (duration, rate) in enumerate(((5.0, 50.0), (10.0, 25.0), (5.0, 50.0))):
            scenario = Scenario(channels=(
                channel(1549.36, ["contact"], subject=preset_subject("subject-a")),
                channel(1549.92, ["contact"], subject=preset_subject("subject-d"))),
                acquisition=AcquisitionParams(duration=duration), seed=k,
                contact_sample_rate=rate)
            bundle = run_scenario(scenario)
            out = formats.write_bundle(bundle, tmp_path / f"bundle{k}")
            for wl, result in bundle.channels.items():
                samples = result.intensity.samples
                path = out / f"channel_{channel_name(wl)}" / "contact.csv"
                assert path.read_bytes() == csv_writer_bytes(
                    {"t_s": np.arange(samples.size) / rate, "intensity": samples})

    def test_numbers_read_back_as_given(self, tmp_path):
        # an integer rate stays an integer on disk, as in memory: the reports of both agree
        scenario = replace(two_channel_scenario(duration=10.0, seed=4), contact_sample_rate=50)
        out = formats.write_bundle(run_scenario(scenario), tmp_path / "bundle")
        rates = {c.intensity.sample_rate for c in formats.read_bundle(out).channels}
        assert rates == {50} and {type(rate) for rate in rates} == {int}

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


@pytest.mark.parametrize("producer", ["synth_dechirp_frames", "truncated", "read_frames",
                                      "contact_intensity", "read_bundle", "run_scenario"])
def test_records_read_only_from_construction(producer, small_frames, tmp_path):
    """A view of a record's samples taken as its producer returns it cannot be written,
    and no record or channel takes new fields: new samples make a new record."""
    grid = make_time_grid(5.0, 50.0)
    intensity = contact_intensity(synth_motion(preset_subject("subject-a"), grid),
                                  FbgProfile(17.70, 11.2e9), grid)
    channels = []
    if producer == "synth_dechirp_frames":
        records = [small_frames]
    elif producer == "contact_intensity":
        records = [intensity]
    elif producer == "truncated":
        records = [small_frames.truncated(1.0), intensity.truncated(1.0)]
    elif producer == "read_frames":
        formats.write_frames(small_frames, tmp_path / "frames.bin")
        records = [formats.read_frames(tmp_path / "frames.bin")]
    else:
        bundle = run_scenario(two_channel_scenario(duration=5.0, seed=4))
        channels = list(bundle.channels.values())
        if producer == "read_bundle":
            channels = formats.read_bundle(
                formats.write_bundle(bundle, tmp_path / "bundle")).channels
        records = [r for ch in channels for r in (ch.intensity, ch.frames) if r is not None]
    for record in records:
        view = record.samples[:]
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            record.samples = view.copy()
    for ch in channels:
        with pytest.raises(FrozenInstanceError):
            ch.frames = None
