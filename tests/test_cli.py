import csv
import errno
import json
import mmap
import os
import shutil
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from vitalchirp.cli import main
from vitalchirp.formats import read_bundle, read_frames, scenario_from_dict, write_frames
from vitalchirp.formats import write_json
from vitalchirp.physio import PRESET_SUBJECTS
from vitalchirp.pipelines import band_waveforms, extract_target_phase
from vitalchirp.scenario import bundle_reports, bundle_sweeps, run_scenario

from conftest import edit_frames_header, frames_header

CONFIG = {
    "duration_s": 60.0,
    "seed": 11,
    "acquisition": {"noise_rms": 0.5},
    "channels": [
        {
            "wavelength_nm": 1549.36,
            "roles": ["contact", "contactless"],
            "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                       "pulse_period": 100e-6, "pulse_width": 60e-6},
            "fbg": {"notch_depth_db": 17.70, "fwhm_3db": 11.2e9},
            "fiber_length_km": 4.1,
            "contact_subject": "subject-a",
            "radar_targets": [
                {"subject": "subject-b", "range_m": 1.00},
                {"subject": "subject-c", "range_m": 1.65},
            ],
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


FRAMES = "channel_1549.36/frames.bin"  # the CLI bundle's one frames file


def write_config(tmp_path, config=CONFIG, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def subject_with(**entries):
    """An edit that gives the first channel, alone, a full contact subject with ``entries``."""
    subject = {"id": "subject-x", "respiration_rate": 16.0, "heartbeat_rate": 70.0, **entries}
    return lambda c: {**c, "channels": [{**c["channels"][0], "contact_subject": subject}]}


def radar_channel_with(**entries):
    """An edit that leaves the first channel alone, with the contactless role only, no FBG
    and no contact subject, and then ``entries``."""
    return lambda c: {**c, "channels": [{**c["channels"][0], "roles": ["contactless"],
                                         "fbg": None, "contact_subject": None, **entries}]}


def simulate_rejected(tmp_path, capsys, config, *options):
    """Run ``simulate`` on ``config``; assert exit 2 and nothing written, return stderr."""
    out = tmp_path / "b"
    rc = main(["simulate", "--config", str(write_config(tmp_path, config, "bad.json")),
               "--out", str(out), *options])
    assert rc == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    config = write_config(tmp)
    out = tmp / "bundle"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out


def bundle_copy(bundle_dir, dest, drop=()):
    """A copy of ``bundle_dir`` without the files named in ``drop``."""
    shutil.copytree(bundle_dir, dest)
    for rel in drop:
        (dest / rel).unlink()
    return dest


def edit_json(path, edit):
    """Apply ``edit`` to the JSON document at ``path``, in place."""
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


@pytest.fixture(scope="module")
def truthless_dir(bundle_dir, tmp_path_factory):
    """The CLI bundle with truth.json removed and the frames' truth cleared."""
    anon = bundle_copy(bundle_dir, tmp_path_factory.mktemp("truthless") / "anon",
                       drop=["truth.json"])
    frames_path = anon / "channel_1549.36" / "frames.bin"
    write_frames(replace(read_frames(frames_path), truth=None), frames_path)
    return anon


class TestSimulate:
    def test_bundle_frame_matrix_dimensions(self, bundle_dir):
        raw = (bundle_dir / "channel_1549.36" / "frames.bin").read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        header = json.loads(raw[4 : 4 + hlen])
        assert header["slow_count"] == 3000
        assert header["fast_count"] == 600

    def test_missing_config_io_exit(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == 3

    def test_invalid_scenario_validation_exit(self, tmp_path, capsys):
        bad = json.loads(json.dumps(CONFIG))
        bad["channels"][0]["radar_targets"][0]["range_m"] = 12.0
        config = write_config(tmp_path, bad, "bad.json")
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unambiguous range" in err

    def test_unknown_config_entry_validation_exit(self, tmp_path, capsys):
        bad = json.loads(json.dumps(CONFIG))
        bad["fiber_lenght_km"] = 99
        config = write_config(tmp_path, bad, "bad.json")
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "'fiber_lenght_km'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("where, key, value", [
        ("channel", "carrier_power_mw", 1.0),
        ("channel", "sideband_power_mw", 0.1),
        ("channel", "fiber_loss_db_per_km", 0.2),
        ("fbg", "carrier_operating_offset", None),
    ])
    def test_removed_setting_validation_exit(self, tmp_path, capsys, where, key, value):
        bad = json.loads(json.dumps(CONFIG))
        channel = bad["channels"][0]
        (channel if where == "channel" else channel["fbg"])[key] = value
        assert f"'{key}'" in simulate_rejected(tmp_path, capsys, bad)

    @pytest.mark.parametrize("config_seed, options", [
        (11, ["--seed", "4294967296"]),
        (11, ["--seed", "-1"]),
        (1.5, []),
    ])
    def test_seed_outside_32_bits_validation_exit(self, tmp_path, capsys, config_seed, options):
        err = simulate_rejected(tmp_path, capsys, {**CONFIG, "seed": config_seed}, *options)
        assert "is not an integer in [0, 2**32)" in err

    def test_channels_sharing_a_name_validation_exit(self, tmp_path, capsys):
        # 1549.921 and 1549.924 nm both print as 1549.92 in six digits
        bad = json.loads(json.dumps(CONFIG))
        first, second = bad["channels"]
        first["roles"] = ["contact"]
        del first["radar_targets"]
        first["wavelength_nm"], second["wavelength_nm"] = 1549.921, 1549.924
        err = simulate_rejected(tmp_path, capsys, bad)
        assert "duplicate wavelength 1549.924 nm" in err

    @pytest.mark.parametrize("change, message", [
        ({"acquisition": {"slow_period": 0.4}}, "contactless record: "),
        ({"contact_sample_rate": 2.5}, "contact record: "),
    ])
    def test_record_rate_too_slow_for_heart_band_validation_exit(self, tmp_path, capsys,
                                                                  change, message):
        err = simulate_rejected(tmp_path, capsys, {**CONFIG, **change})
        assert f"{message}band edges must satisfy" in err
        assert "(0.8, 1.9) at 2.5 Sa/s" in err

    def test_record_shorter_than_processing_minimum_validation_exit(self, tmp_path, capsys):
        err = simulate_rejected(tmp_path, capsys, {**CONFIG, "duration_s": 3.0})
        assert "record of 3.00 s is shorter than 5.0 s" in err

    def test_negative_fiber_length_validation_exit(self, tmp_path, capsys):
        bad = json.loads(json.dumps(CONFIG))
        bad["channels"][1]["fiber_length_km"] = -50
        err = simulate_rejected(tmp_path, capsys, bad)
        assert "invalid scenario: fiber_length_km must be >= 0" in err

    def test_channel_without_roles_validation_exit(self, tmp_path, capsys):
        bad = json.loads(json.dumps(CONFIG))
        second = bad["channels"][1]
        second["roles"] = []
        del second["fbg"], second["contact_subject"]
        err = simulate_rejected(tmp_path, capsys, bad)
        assert "channel 1549.92 nm has no role" in err

    @pytest.mark.parametrize("path, literal", [
        ("channels.0.radar_targets.0.range_m", "NaN"),
        ("channels.0.radar_targets.0.reflectivity", "NaN"),
        ("acquisition.amplitude_exponent", "NaN"),
        ("channels.0.contact_subject.resp_amplitude", "NaN"),
        ("channels.0.contact_subject.heart_phase", "Infinity"),
        ("channels.0.fbg.fwhm_3db", "Infinity"),
        ("channels.0.radar_targets.0.reflectivity", "Infinity"),
        ("acquisition.noise_rms", "NaN"),
        ("channels.1.contact_noise_rms", "NaN"),
        ("contact_sample_rate", "Infinity"),
        ("channels.1.wavelength_nm", "Infinity"),
        ("duration_s", "-Infinity"),
        ("channels.0.radar_targets.0.range_m", "1e400"),
        pytest.param("duration_s", str(10**400), id="duration_s-10**400"),
    ])
    def test_non_finite_number_validation_exit(self, tmp_path, capsys, path, literal):
        bad = json.loads(json.dumps(CONFIG))
        bad["channels"][0]["contact_subject"] = {"id": "subject-x", "respiration_rate": 16.0,
                                                 "heartbeat_rate": 70.0}
        *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        entry = bad
        for key in keys:
            entry = entry[key]
        entry[last] = "<number>"
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(bad).replace('"<number>"', literal))
        out = tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"number {literal} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [lambda config: config.pop("channels"),
                                      lambda config: config.update(channels=[])],
                             ids=["missing", "empty"])
    def test_no_channels_validation_exit(self, tmp_path, capsys, edit):
        bad = json.loads(json.dumps(CONFIG))
        edit(bad)
        assert "no channels" in simulate_rejected(tmp_path, capsys, bad)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: [c], "config is a list, not a JSON object"),
        (lambda c: "text", "config is a str, not a JSON object"),
        (lambda c: {**c, "channels": "text"}, "config channels is a str, not a JSON list"),
        (lambda c: {**c, "channels": {}}, "config channels is a dict, not a JSON list"),
        (lambda c: {**c, "channels": [c["channels"][0], 1.5]},
         "config channels[1] is a float, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "roles": "contact"}]},
         "channel roles 'contact' is not a JSON list of strings"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "roles": [["contact"]]}]},
         "channel roles [['contact']] is not a JSON list of strings"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "roles": None}]},
         "channel roles None is not a JSON list of strings"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "radar_targets": "subject-b"}]},
         "channel radar_targets is a str, not a JSON list"),
        (lambda c: {**c, "channels": [{**c["channels"][0],
                                       "radar_targets": {"subject": "subject-b", "range_m": 1}}]},
         "channel radar_targets is a dict, not a JSON list"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "radar_targets": [1.5]}]},
         "channel radar_targets[0] is a float, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "radar_targets": [["subject-b"]]}]},
         "channel radar_targets[0] is a list, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "contact_subject": 1.5}]},
         "channel contact_subject is a float, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "contact_subject": ["subject-a"]}]},
         "channel contact_subject is a list, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "radar_targets": [
            {"subject": 1.5, "range_m": 1.0}]}]},
         "channel radar_targets[0] subject is a float, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "radar_targets": [
            {"subject": ["subject-b"], "range_m": 1.0}]}]},
         "channel radar_targets[0] subject is a list, not a JSON object"),
        *[(subject_with(resp_harmonics=value), f"resp_harmonics {shown} is not a list of "
           f"[order, relative amplitude] pairs")
          for value, shown in [(5, "5"), ([5], "[5]"), ("ab", "'ab'"), ([[2]], "[[2]]"),
                               ([[2, 0.3, 1]], "[[2, 0.3, 1]]")]],
        *[(subject_with(resp_harmonics=value), f"resp_harmonics {shown} is not a list of "
           f"[order, relative amplitude] pairs")
          for value, shown in [([[2, "x"]], "[[2, 'x']]"), ([[2, True]], "[[2, True]]"),
                               ([[2.0, 0.3]], "[[2.0, 0.3]]"), ([[1.5, 0.3]], "[[1.5, 0.3]]")]],
        *[(lambda c, value=value: {**c, "channels": [{**c["channels"][0], "roles": value}]},
           f"channel roles {value!r} is not a JSON list of strings")
          for value in [[1], ["contact", 2], [None]]],
        (subject_with(respiration_rate="15"), "respiration_rate must be numbers, not text"),
        (subject_with(heart_amplitude=None), "heart_amplitude must be numbers, not null"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "fbg": {
            **c["channels"][0]["fbg"], "notch_depth_db": "17"}}]},
         "notch_depth_db must be numbers, not text"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "fiber_length_km": "4"}]},
         "fiber_length_km must be numbers, not text"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "if_lfm": {
            **c["channels"][0]["if_lfm"], "bandwidth": "1e9"}}]},
         "bandwidth must be numbers, not text"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "wavelength_nm": "1549.92"}]},
         "wavelength_nm must be numbers, not text"),
        (lambda c: {**c, "contact_sample_rate": "50"},
         "contact_sample_rate must be numbers, not text"),
        (lambda c: {**c, "acquisition": {"noise_rms": "0.5"}}, "noise_rms must be numbers, not text"),
        *[(subject_with(rng_seed=value), f"rng_seed {value!r} is not an integer in [0, 2**64)")
          for value in [1.5, 1e20, -1, 2**64]],
        (lambda c: {**c, "acquisition": "text"}, "config acquisition is a str, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "if_lfm": 5}]},
         "channel if_lfm is a int, not a JSON object"),
        (lambda c: {**c, "channels": [{**c["channels"][0], "fbg": "x"}]},
         "channel fbg is a str, not a JSON object"),
        (lambda c: {**c, "acquisition": {"duration": 10}},
         "config acquisition has an unknown entry 'duration'"),
        *[(radar_channel_with(fbg=value), f"channel fbg is a {kind}, not a JSON object")
          for value, kind in [(0, "int"), ([], "list"), ("", "str")]],
        *[(radar_channel_with(contact_subject=value), message) for value, message in [
            (0, "channel contact_subject is a int, not a JSON object"),
            (False, "channel contact_subject is a bool, not a JSON object"),
            ("", "unknown subject preset ''")]],
    ], ids=["document-a-list", "document-a-string", "channels-a-string", "channels-an-object",
            "channel-a-number", "roles-a-string", "roles-nested", "roles-null",
            "targets-a-string", "targets-an-object", "target-a-number", "target-a-list",
            "contact-subject-a-number", "contact-subject-a-list", "target-subject-a-number",
            "target-subject-a-list", "harmonics-a-number", "harmonics-not-pairs",
            "harmonics-a-string", "harmonic-too-short", "harmonic-too-long",
            "harmonic-amplitude-text", "harmonic-amplitude-true", "harmonic-order-a-float",
            "harmonic-order-fractional", "roles-a-number", "roles-a-string-and-a-number",
            "roles-a-null", "subject-rate-text", "subject-amplitude-null",
            "fbg-depth-text", "fiber-length-text", "if-lfm-bandwidth-text", "wavelength-text",
            "contact-rate-text", "acquisition-noise-text", "rng-seed-fractional",
            "rng-seed-a-float", "rng-seed-negative", "rng-seed-past-64-bits",
            "acquisition-a-string", "if-lfm-a-number", "fbg-a-string", "acquisition-duration",
            "fbg-zero", "fbg-empty-list", "fbg-empty-string", "contact-subject-zero",
            "contact-subject-false", "contact-subject-empty-string"])
    def test_malformed_document_named_validation_exit(self, tmp_path, capsys, edit, message):
        err = simulate_rejected(tmp_path, capsys, edit(json.loads(json.dumps(CONFIG))))
        assert f"invalid scenario: {message}" in err

    def test_missing_entry_named_validation_exit(self, tmp_path, capsys):
        bad = json.loads(json.dumps(CONFIG))
        del bad["channels"][1]["if_lfm"]
        err = simulate_rejected(tmp_path, capsys, bad)
        assert "invalid scenario: missing entry 'if_lfm'" in err

    def test_targets_sharing_a_subject_id_validation_exit(self, tmp_path, capsys):
        bad = json.loads(json.dumps(CONFIG))
        bad["channels"][0]["radar_targets"][1]["subject"] = "subject-b"
        err = simulate_rejected(tmp_path, capsys, bad)
        assert "channel 1549.36 nm: radar targets share the subject id 'subject-b'" in err

    @pytest.mark.parametrize("subject_id", ["a/b", "a\\b", ""])
    def test_subject_id_not_a_name_validation_exit(self, tmp_path, capsys, subject_id):
        bad = json.loads(json.dumps(CONFIG))
        bad["channels"][1]["contact_subject"] = {
            **asdict(PRESET_SUBJECTS["subject-d"]), "id": subject_id}
        err = simulate_rejected(tmp_path, capsys, bad)
        assert f"subject id {subject_id!r} must be a non-empty name without / or \\" in err

    def test_record_past_float_range_validation_exit(self, tmp_path, capsys):
        err = simulate_rejected(tmp_path, capsys, {**CONFIG, "duration_s": 1e308})
        assert "past the float range" in err

    def test_same_seed_byte_identical_payloads(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
        for rel in ("channel_1549.36/contact.csv", "channel_1549.36/frames.bin",
                    "channel_1549.92/contact.csv", "truth.json", "scenario.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_off_grid_duration_counts_contact_and_radar_alike(self, tmp_path):
        # 60.03 s is 3001.5 samples of either 50 Sa/s record; both keep 3001
        config = {**CONFIG, "duration_s": 60.03, "channels": CONFIG["channels"][:1]}
        bundle = tmp_path / "off-grid"
        assert main(["simulate", "--config", str(write_config(tmp_path, config)),
                     "--out", str(bundle)]) == 0
        (ch,) = read_bundle(bundle).channels
        assert ch.intensity.samples.size == ch.frames.slow_count == 3001
        out = tmp_path / "off-grid-reports"
        assert main(["process", str(bundle), "--out", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert len(reports) == 3
        assert {r["metadata"]["duration_s"] for r in reports} == {3001 / 50.0}

    def test_seed_override_changes_payload(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out2),
                     "--seed", "99"]) == 0
        a = (out1 / "channel_1549.36" / "frames.bin").read_bytes()
        b = (out2 / "channel_1549.36" / "frames.bin").read_bytes()
        assert a != b


class TestProcess:
    def test_bundle_without_contact_rate_validation_exit(self, bundle_dir, tmp_path, capsys):
        broken = bundle_copy(bundle_dir, tmp_path / "broken")
        config = json.loads((broken / "scenario.json").read_text())
        del config["contact_sample_rate"]
        (broken / "scenario.json").write_text(json.dumps(config))
        assert main(["process", str(broken), "--out", str(tmp_path / "r")]) == 2
        assert "'contact_sample_rate'" in capsys.readouterr().err

    def test_missing_entry_named_validation_exit(self, bundle_dir, tmp_path, capsys):
        broken = bundle_copy(bundle_dir, tmp_path / "broken")
        edit_json(broken / "scenario.json", lambda config: config["channels"][1].pop(
            "wavelength_nm"))
        assert main(["process", str(broken), "--out", str(tmp_path / "r")]) == 2
        assert "bundle is malformed: missing entry 'wavelength_nm'" in capsys.readouterr().err

    def test_reports_monitored_vs_actual(self, bundle_dir, tmp_path):
        out = tmp_path / "reports"
        assert main(["process", str(bundle_dir), "--out", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert len(reports) == 4  # two contact subjects + two radar targets
        by_label = {r["label"]: r for r in reports}
        contact_a = by_label["subject-a@1549.36nm"]
        assert contact_a["modality"] == "contact"
        assert contact_a["respiration_rpm"] == pytest.approx(21.0, abs=0.2)
        assert contact_a["heartbeat_bpm"] == pytest.approx(87.0, abs=0.2)
        assert abs(contact_a["respiration_error_rpm"]) <= 0.2
        radar_b = by_label["subject-b@1549.36nm"]
        assert radar_b["modality"] == "contactless"
        assert radar_b["range_m"] == pytest.approx(1.00, abs=0.0375)
        assert abs(radar_b["heartbeat_error_bpm"]) <= 1.2

    def test_duration_option(self, bundle_dir, tmp_path):
        out = tmp_path / "reports5"
        assert main(["process", str(bundle_dir), "--out", str(out),
                     "--duration", "5"]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert all(r["metadata"]["duration_s"] == pytest.approx(5.0) for r in reports)

    def test_fractional_duration_cuts_every_record_alike(self, bundle_dir, tmp_path):
        # 5.03 s is 251.5 samples of either record; both keep 251
        out = tmp_path / "reports503"
        assert main(["process", str(bundle_dir), "--out", str(out),
                     "--duration", "5.03"]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert len(reports) == 4
        assert all(r["metadata"]["duration_s"] == pytest.approx(5.02) for r in reports)

    def test_reports_and_sweep_in_memory_equal_the_written_files(self, bundle_dir, tmp_path):
        for command in ("process", "sweep"):
            assert main([command, str(bundle_dir), "--out", str(tmp_path / "cli")]) == 0
        channels = list(run_scenario(scenario_from_dict(CONFIG)).channels.values())
        reports, files = bundle_reports(channels)
        assert files == {}
        write_json(tmp_path / "reports.json", [rep.to_dict() for rep in reports])
        write_json(tmp_path / "sweep.json",
                   bundle_sweeps(channels, [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]))
        for name in ("reports.json", "sweep.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_read_bundle_gives_the_bits_of_the_simulated_channels(self, bundle_dir):
        # the disk path (a mapped frames payload, released block by block) and the memory
        # path give every report dict and every series column bit for bit
        def bits(channels):
            reports, files = bundle_reports(channels, series=True)
            return (json.dumps([rep.to_dict() for rep in reports], sort_keys=True),
                    {name: {column: (values.dtype.str, values.tobytes())
                            for column, values in columns.items()}
                     for name, columns in files.items()})

        from_disk = bits(read_bundle(bundle_dir).channels)
        in_memory = bits(list(run_scenario(scenario_from_dict(CONFIG)).channels.values()))
        assert from_disk[1].keys() == in_memory[1].keys() != set()
        assert from_disk == in_memory

    @pytest.mark.parametrize("duration, rows", [(None, 3000), ("7.3", 365)])
    def test_csv_format_writes_series(self, bundle_dir, tmp_path, duration, rows):
        out = tmp_path / "reports-csv"
        cut = [] if duration is None else ["--duration", duration]
        assert main(["process", str(bundle_dir), "--out", str(out),
                     "--format", "csv", *cut]) == 0
        assert (out / "contact_1549.36nm_waveforms.csv").is_file()
        assert (out / "phase_1549.36nm_subject-b.csv").is_file()
        frames = read_frames(bundle_dir / "channel_1549.36" / "frames.bin")
        n = frames.fast_count  # the profile's definition, not range_profile
        spectra = np.fft.rfft(frames.samples[:rows] * np.hanning(n), axis=1)
        data = np.loadtxt(out / "range_profile_1549.36nm.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(
            data[:, 0], frames.chirp.beat_range(np.fft.rfftfreq(n, 1.0 / frames.fast_rate)))
        np.testing.assert_array_equal(data[:, 1], np.abs(spectra).mean(axis=0))

    def test_csv_phase_series_match_extract_target_phase(self, bundle_dir, tmp_path):
        out = tmp_path / "reports-csv"
        assert main(["process", str(bundle_dir), "--out", str(out),
                     "--format", "csv"]) == 0
        frames = read_frames(bundle_dir / "channel_1549.36" / "frames.bin")
        for tgt in frames.truth:
            data = np.loadtxt(out / f"phase_1549.36nm_{tgt.subject.id}.csv",
                              delimiter=",", skiprows=1)
            want = extract_target_phase(frames, [tgt.nominal_range])[0].phase
            np.testing.assert_array_equal(data[:, 1], want)

    def test_removed_dc_comp_option_rejected(self, bundle_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["process", str(bundle_dir), "--out", str(tmp_path / "dc"), "--dc-comp"])
        assert exc.value.code == 2

    def test_csv_contact_series_match_band_waveforms(self, bundle_dir, tmp_path):
        out = tmp_path / "reports-csv"
        assert main(["process", str(bundle_dir), "--out", str(out),
                     "--format", "csv"]) == 0

        def load(name):
            return np.loadtxt(out / name, delimiter=",", skiprows=1)

        for ch in read_bundle(bundle_dir).channels:  # every value exact
            tag = f"{ch.wavelength_nm:g}nm"
            waves = band_waveforms(ch.intensity.samples, ch.contact_sample_rate)
            data = load(f"contact_{tag}_waveforms.csv")
            np.testing.assert_array_equal(
                data[:, 0], np.arange(ch.intensity.samples.size) / ch.contact_sample_rate)
            np.testing.assert_array_equal(data[:, 1], waves["resp_filtered"])
            np.testing.assert_array_equal(data[:, 2], waves["heart_filtered"])
            for band in ("resp", "heart"):
                data = load(f"contact_{tag}_{band}_spectrum.csv")
                sp = waves[f"{band}_spectrum"]
                np.testing.assert_array_equal(data[:, 0], sp.frequencies)
                np.testing.assert_array_equal(data[:, 1], sp.magnitudes)

    def test_non_finite_contact_sample_processing_exit(self, bundle_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "nan"
        shutil.copytree(bundle_dir, broken)
        csv = broken / "channel_1549.92" / "contact.csv"
        lines = csv.read_text().splitlines()
        lines[100] = lines[100].split(",")[0] + ",nan"
        csv.write_text("\n".join(lines) + "\n")
        assert main(["process", str(broken), "--out", str(tmp_path / "out")]) == 4
        assert "1 non-finite" in capsys.readouterr().err

    def test_missing_bundle(self, tmp_path):
        assert main(["process", str(tmp_path / "nothing")]) == 3

    def test_bundle_without_truth_omits_errors(self, truthless_dir, tmp_path):
        out = tmp_path / "anon-reports"
        assert main(["process", str(truthless_dir), "--out", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert all(r["respiration_error_rpm"] is None for r in reports)
        assert all(r["heartbeat_error_bpm"] is None for r in reports)
        # targets still found from the range profile
        contactless = [r for r in reports if r["modality"] == "contactless"]
        assert len(contactless) == 2
        ranges = sorted(r["range_m"] for r in contactless)
        assert ranges[0] == pytest.approx(1.00, abs=0.0375)
        assert ranges[1] == pytest.approx(1.65, abs=0.0375)

    def test_truthless_csv_phases_match_extract_target_phase(self, truthless_dir, tmp_path):
        out = tmp_path / "anon-csv"
        assert main(["process", str(truthless_dir), "--out", str(out),
                     "--format", "csv"]) == 0
        reports = json.loads((out / "reports.json").read_text())
        contactless = [r for r in reports if r["modality"] == "contactless"]
        assert [r["label"] for r in contactless] == ["target-0@1549.36nm",
                                                      "target-1@1549.36nm"]
        frames = read_frames(truthless_dir / "channel_1549.36" / "frames.bin")
        for i, rep in enumerate(contactless):
            data = np.loadtxt(out / f"phase_1549.36nm_target-{i}.csv",
                              delimiter=",", skiprows=1)
            want = extract_target_phase(frames, [rep["metadata"]["requested_range_m"]])[0].phase
            np.testing.assert_allclose(data[:, 1], want, rtol=1e-11, atol=1e-12)

    def test_contactless_record_under_five_seconds_processing_exit(
            self, bundle_dir, tmp_path, capsys):
        radar_only = bundle_copy(bundle_dir, tmp_path / "radar-only",
                                 drop=["channel_1549.36/contact.csv"])
        edit_json(radar_only / "scenario.json", lambda config: config.update(
            channels=[{**config["channels"][0], "roles": ["contactless"]}]))
        assert main(["process", str(radar_only), "--out", str(tmp_path / "out"),
                     "--duration", "2"]) == 4
        assert "record of 2.00 s is shorter than 5.0 s" in capsys.readouterr().err

    def test_duration_past_contact_record_processing_exit(self, bundle_dir, tmp_path, capsys):
        contact_only = bundle_copy(bundle_dir, tmp_path / "contact-only",
                                   drop=["channel_1549.36/frames.bin"])
        edit_json(contact_only / "scenario.json",
                  lambda config: config["channels"][0].update(roles=["contact"]))
        assert main(["process", str(contact_only), "--out", str(tmp_path / "out"),
                     "--duration", "90"]) == 4
        assert "cannot truncate 60.0 s record to 90.0 s" in capsys.readouterr().err

    def test_infinite_duration_processing_exit(self, bundle_dir, tmp_path, capsys):
        assert main(["process", str(bundle_dir), "--out", str(tmp_path / "out"),
                     "--duration", "inf"]) == 4
        assert "cannot truncate 60.0 s record to inf s" in capsys.readouterr().err

    def test_noiseless_round_trip_recovers_truth(self, tmp_path):
        quiet = json.loads(json.dumps(CONFIG))
        quiet["acquisition"]["noise_rms"] = 0.0
        for ch in quiet["channels"]:
            ch["contact_noise_rms"] = 0.0
        config = write_config(tmp_path, quiet, "quiet.json")
        bundle = tmp_path / "quiet-bundle"
        out = tmp_path / "quiet-reports"
        assert main(["simulate", "--config", str(config), "--out", str(bundle)]) == 0
        assert main(["process", str(bundle), "--out", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert len(reports) == 4
        for r in reports:
            assert abs(r["respiration_error_rpm"]) <= 0.2
            assert abs(r["heartbeat_error_bpm"]) <= 0.2

    def test_fortran_order_frames_io_exit(self, bundle_dir, tmp_path, capsys):
        broken = bundle_copy(bundle_dir, tmp_path / "fortran")
        frames = broken / "channel_1549.36" / "frames.bin"
        raw = frames.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        blob = raw[4:4 + hlen].replace(b'"order": "C"', b'"order": "F"')
        frames.write_bytes(raw[:4] + blob + raw[4 + hlen:])
        assert main(["process", str(broken), "--out", str(tmp_path / "out")]) == 3
        assert "header order 'F'" in capsys.readouterr().err

    def test_unmappable_frames_io_exit(self, bundle_dir, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENODEV, os.strerror(errno.ENODEV))

        monkeypatch.setattr(mmap, "mmap", refuse)
        out = tmp_path / "out"
        assert main(["process", str(bundle_dir), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"{bundle_dir / FRAMES}: cannot map the payload: "
                                           f"{OSError(errno.ENODEV, os.strerror(errno.ENODEV))}\n")
        assert not out.exists()

    def test_header_rate_disagreeing_with_acquisition_io_exit(self, bundle_dir, tmp_path,
                                                               capsys):
        broken = bundle_copy(bundle_dir, tmp_path / "rate")
        edit_frames_header(broken / "channel_1549.36" / "frames.bin",
                           lambda header: header.update(slow_rate_hz=25))
        out = tmp_path / "out"
        assert main(["process", str(broken), "--out", str(out)]) == 3
        assert "header slow_rate_hz 25, but" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["process", "sweep"])
    @pytest.mark.parametrize("section, key, value", [
        ("chirp", "chirp_rate", 0),
        ("chirp", "carrier_wavelength", True),
        ("acquisition", "duration", 1e308),
    ])
    def test_unusable_header_value_validation_exit(self, bundle_dir, tmp_path, capsys,
                                                   command, section, key, value):
        broken = bundle_copy(bundle_dir, tmp_path / "bad")
        edit_frames_header(broken / "channel_1549.36" / "frames.bin",
                           lambda header: header[section].update({key: value}))
        out = tmp_path / "out"
        assert main([command, str(broken), "--out", str(out)]) == 2
        assert "bundle is malformed: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["acquisition", "chirp", "truth", "contact_subject"])
    def test_unknown_bundle_entry_validation_exit(self, bundle_dir, tmp_path, capsys, where):
        broken = bundle_copy(bundle_dir, tmp_path / "extra")
        if where == "contact_subject":
            truth_path = broken / "truth.json"
            truth = json.loads(truth_path.read_text())
            truth["channels"]["1549.36"]["contact_subject"]["surplus"] = 1
            truth_path.write_text(json.dumps(truth))
        else:
            edit_frames_header(broken / "channel_1549.36" / "frames.bin", lambda header: (
                header["truth"][0] if where == "truth" else header[where]).update(surplus=1))
        assert main(["process", str(broken), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "bundle is malformed: " in err
        assert "'surplus'" in err

    @pytest.mark.parametrize("where, status", [
        ("scenario.json", 2), ("truth.json", 2), ("truth.json channel 1549.36", 2),
        ("header", 3),
    ])
    def test_document_not_an_object_exit(self, bundle_dir, tmp_path, capsys, where, status):
        broken = bundle_copy(bundle_dir, tmp_path / "list")
        if where == "header":
            frames = broken / "channel_1549.36" / "frames.bin"
            _, payload = frames_header(frames)
            frames.write_bytes(struct.pack("<I", 2) + b"[]" + payload)
        elif where == "truth.json channel 1549.36":
            truth = json.loads((broken / "truth.json").read_text())
            truth["channels"]["1549.36"] = []
            (broken / "truth.json").write_text(json.dumps(truth))
        else:
            (broken / where).write_text("[]")
        out = tmp_path / "out"
        assert main(["process", str(broken), "--out", str(out)]) == status
        assert f"{where} is a list, not a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where, key", [
        ("truth.json", "respiration_rate"),
        ("header subject", "heartbeat_rate"),
        ("header target", "range_m"),
    ])
    def test_true_as_a_truth_number_validation_exit(self, bundle_dir, tmp_path, capsys,
                                                    where, key):
        broken = bundle_copy(bundle_dir, tmp_path / "flag")
        if where == "truth.json":
            truth = json.loads((broken / "truth.json").read_text())
            truth["channels"]["1549.36"]["contact_subject"][key] = True
            (broken / "truth.json").write_text(json.dumps(truth))
        else:
            edit_frames_header(broken / "channel_1549.36" / "frames.bin", lambda header: (
                header["truth"][0]["subject"] if where == "header subject"
                else header["truth"][0]).update({key: True}))
        out = tmp_path / "out"
        assert main(["process", str(broken), "--out", str(out)]) == 2
        assert "must be numbers, not true or false" in capsys.readouterr().err
        assert not out.exists()

    def test_subject_preset_name_read_in_either_bundle_document(self, bundle_dir, tmp_path):
        # one rule wherever a subject is read: a preset's name is that preset
        named = bundle_copy(bundle_dir, tmp_path / "named")
        edit_json(named / "truth.json", lambda truth: truth["channels"]["1549.36"].update(
            contact_subject="subject-a"))
        edit_frames_header(named / FRAMES, lambda header: header["truth"][0].update(
            subject="subject-b"))
        ch = read_bundle(named).channels[0]
        assert ch.contact_subject == PRESET_SUBJECTS["subject-a"]
        assert ch.frames.truth[0].subject == PRESET_SUBJECTS["subject-b"]

    def test_edge_warning_is_read_back(self, tmp_path):
        config = json.loads(json.dumps(CONFIG))
        config["channels"][1]["fbg"]["displacement_to_shift"] = 5e9  # past the edge region
        bundle = tmp_path / "edge"
        assert main(["simulate", "--config", str(write_config(tmp_path, config)),
                     "--out", str(bundle)]) == 0
        assert [ch.intensity.edge_warning for ch in read_bundle(bundle).channels] == [
            False, True]
        (bundle / "truth.json").unlink()
        assert [ch.intensity.edge_warning for ch in read_bundle(bundle).channels] == [
            False, False]

    def test_edge_warning_not_a_bool_validation_exit(self, bundle_dir, tmp_path, capsys):
        broken = bundle_copy(bundle_dir, tmp_path / "edge-text")
        edit_json(broken / "truth.json", lambda truth: truth["channels"]["1549.92"].update(
            edge_warning="text"))
        out = tmp_path / "out"
        assert main(["process", str(broken), "--out", str(out)]) == 2
        assert ("bundle is malformed: truth.json channel 1549.92 edge_warning 'text' is not "
                "a JSON bool") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("document, edit, message", [
        ("scenario.json", lambda config: config.update(channels={}),
         "scenario.json channels is a dict, not a JSON list"),
        ("scenario.json", lambda config: config.pop("channels"), "scenario.json has no channels"),
        ("scenario.json", lambda config: config["channels"].__setitem__(1, 1549.92),
         "scenario.json channels[1] is a float, not a JSON object"),
        (FRAMES, lambda header: header.update(truth=header["truth"][0]),
         "{frames}: header truth is a dict, not a JSON list"),
        (FRAMES, lambda header: header["truth"].__setitem__(1, 1.5),
         "{frames}: header truth[1] is a float, not a JSON object"),
        (FRAMES, lambda header: header["truth"][0].update(subject=1.5),
         "{frames}: header truth[0] subject is a float, not a JSON object"),
        ("truth.json", lambda truth: truth["channels"]["1549.36"].update(contact_subject=1.5),
         "truth.json channel 1549.36 contact_subject is a float, not a JSON object"),
        ("truth.json", lambda truth: truth["channels"]["1549.36"].update(
            contact_subject=["subject-a"]),
         "truth.json channel 1549.36 contact_subject is a list, not a JSON object"),
        (FRAMES, lambda header: header.update(chirp="x"),
         "{frames}: header chirp is a str, not a JSON object"),
        (FRAMES, lambda header: header.update(acquisition=5),
         "{frames}: header acquisition is a int, not a JSON object"),
        ("truth.json", lambda truth: truth["channels"]["1549.36"].update(contact_subject=0),
         "truth.json channel 1549.36 contact_subject is a int, not a JSON object"),
        ("truth.json", lambda truth: truth["channels"]["1549.36"]["contact_subject"].update(
            resp_harmonics=[[2.0, 0.3]]),
         "resp_harmonics [[2.0, 0.3]] is not a list of [order, relative amplitude] pairs"),
        (FRAMES, lambda header: header["truth"][0]["subject"].update(resp_harmonics=[[2, "x"]]),
         "resp_harmonics [[2, 'x']] is not a list of [order, relative amplitude] pairs"),
        *[("scenario.json", edit, f"{name} must be numbers, not {kind}")
          for value, kind in [("10", "text"), (True, "true or false")]
          for name, edit in [
              ("duration_s", lambda config, value=value: config.update(duration_s=value)),
              ("contact_sample_rate",
               lambda config, value=value: config.update(contact_sample_rate=value)),
              ("wavelength_nm", lambda config, value=value: config["channels"][0].update(
                  wavelength_nm=value))]],
    ], ids=["object", "missing", "entry-not-an-object", "header-truth-an-object",
            "header-truth-a-number", "header-subject-a-number", "contact-subject-a-number",
            "contact-subject-a-list", "header-chirp-a-string", "header-acquisition-a-number",
            "contact-subject-zero", "contact-subject-harmonic-order-a-float",
            "header-subject-harmonic-amplitude-text", "duration-text", "contact-rate-text",
            "wavelength-text",
            "duration-true", "contact-rate-true", "wavelength-true"])
    def test_channel_list_not_a_list_of_objects_validation_exit(self, bundle_dir, tmp_path,
                                                                capsys, document, edit,
                                                                message):
        broken = bundle_copy(bundle_dir, tmp_path / "channels")
        (edit_frames_header if document == FRAMES else edit_json)(broken / document, edit)
        out = tmp_path / "out"
        assert main(["process", str(broken), "--out", str(out)]) == 2
        assert (f"bundle is malformed: {message.format(frames=broken / FRAMES)}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["process", "sweep"])
    def test_bundle_of_no_channels_validation_exit(self, bundle_dir, tmp_path, capsys,
                                                   command):
        broken = bundle_copy(bundle_dir, tmp_path / "empty")
        config = json.loads((broken / "scenario.json").read_text())
        config["channels"] = []
        (broken / "scenario.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, str(broken), "--out", str(out)]) == 2
        assert "bundle is malformed: scenario.json has no channels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["process"], ["process", "--format", "csv"],
                                         ["sweep"]], ids=["process", "process-csv", "sweep"])
    def test_targets_sharing_a_subject_id_validation_exit(self, bundle_dir, tmp_path, capsys,
                                                          command):
        broken = bundle_copy(bundle_dir, tmp_path / "shared")
        edit_frames_header(broken / "channel_1549.36" / "frames.bin", lambda header:
                           header["truth"][1]["subject"].update(id="subject-b"))
        out = tmp_path / "out"
        assert main([command[0], str(broken), "--out", str(out), *command[1:]]) == 2
        assert ("bundle is malformed: radar targets share the subject id 'subject-b'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("where, subject_id", [
        ("truth.json", "a/b"), ("header", "a/b"), ("header", "a\\b"), ("header", ""),
    ])
    def test_subject_id_not_a_name_validation_exit(self, bundle_dir, tmp_path, capsys,
                                                   where, subject_id):
        broken = bundle_copy(bundle_dir, tmp_path / "id")
        if where == "truth.json":
            truth = json.loads((broken / "truth.json").read_text())
            truth["channels"]["1549.36"]["contact_subject"]["id"] = subject_id
            (broken / "truth.json").write_text(json.dumps(truth))
        else:
            edit_frames_header(broken / "channel_1549.36" / "frames.bin", lambda header:
                               header["truth"][0]["subject"].update(id=subject_id))
        out = tmp_path / "out"
        assert main(["process", str(broken), "--out", str(out), "--format", "csv"]) == 2
        assert f"subject id {subject_id!r} must be a non-empty name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [], "0 rows of"),
        (lambda lines: lines[:1], "0 rows of"),
        (lambda lines: lines[:100] + lines[101:], "t_s (2999 rows) is not k / 50.0 for k < 3000"),
        (lambda lines: lines[:-7], "t_s (2993 rows) is not k / 50.0 for k < 3000"),
        (lambda lines: lines[:100] + ["2.02,1"] + lines[101:],
         "t_s (3000 rows) is not k / 50.0 for k < 3000"),
    ], ids=["empty", "header-only", "dropped-row", "last-rows-cut", "moved-instant"])
    def test_contact_csv_off_its_record_validation_exit(self, bundle_dir, tmp_path, capsys,
                                                        edit, message):
        broken = bundle_copy(bundle_dir, tmp_path / "csv")
        csv_path = broken / "channel_1549.92" / "contact.csv"
        lines = edit(csv_path.read_text().splitlines())
        csv_path.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        assert main(["process", str(broken), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bundle is malformed: " in err
        assert message in err
        assert not out.exists()

    def test_corrupt_frames_io_exit(self, bundle_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(bundle_dir, broken)
        frames = broken / "channel_1549.36" / "frames.bin"
        frames.write_bytes(frames.read_bytes()[:-100])
        rc = main(["process", str(broken)])
        assert rc == 3
        assert "offset" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["process", "sweep"])
class TestBundleFiles:
    """A bundle's record files are the ones its ``scenario.json`` channels' roles name."""

    @pytest.mark.parametrize("drop, missing", [
        ("channel_1549.36/contact.csv", "channel_1549.36/contact.csv"),
        ("channel_1549.36/frames.bin", "channel_1549.36/frames.bin"),
        ("channel_1549.92", "channel_1549.92/contact.csv"),
    ], ids=["contact.csv", "frames.bin", "channel"])
    def test_missing_record_io_exit(self, bundle_dir, tmp_path, capsys, command, drop,
                                    missing):
        broken = bundle_copy(bundle_dir, tmp_path / "missing")
        shutil.rmtree(broken / drop) if drop == "channel_1549.92" else (broken / drop).unlink()
        out = tmp_path / "out"
        assert main([command, str(broken), "--out", str(out)]) == 3
        assert f"{broken / missing}: missing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda config: config["channels"].append(config["channels"][1]),
         "scenario.json lists channel 1549.92 twice"),
        (lambda config: config["channels"][0].update(roles=["contactless"]),
         "channel_1549.36/contact.csv: channel 1549.36 has no contact role"),
        (lambda config: config["channels"][0].update(roles=["contact"]),
         "channel_1549.36/frames.bin: channel 1549.36 has no contactless role"),
        (lambda config: config["channels"][1].update(roles=[]),
         "scenario.json channel 1549.92 roles [] is not"),
        (lambda config: config["channels"][1].pop("roles"),
         "scenario.json channel 1549.92 roles None is not"),
        (lambda config: config["channels"][1].update(roles="contact"),
         "scenario.json channel 1549.92 roles 'contact' is not"),
        (lambda config: config["channels"][1].update(roles=["contact", "radar"]),
         "scenario.json channel 1549.92 roles ['contact', 'radar'] is not"),
        (lambda config: config["channels"][1].update(roles=[["contact"]]),
         "scenario.json channel 1549.92 roles [['contact']] is not"),
    ], ids=["channel-twice", "contact-role-dropped", "contactless-role-dropped",
            "no-roles", "roles-missing", "roles-a-string", "unknown-role", "role-a-list"])
    def test_records_off_the_scenario_validation_exit(self, bundle_dir, tmp_path, capsys,
                                                      command, edit, message):
        broken = bundle_copy(bundle_dir, tmp_path / "edited")
        edit_json(broken / "scenario.json", edit)
        out = tmp_path / "out"
        assert main([command, str(broken), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bundle is malformed: " in err
        assert message in err
        assert not out.exists()


class TestOutputIsAFile:
    @pytest.mark.parametrize("argv, message", [
        (lambda bundle, config: ["simulate", "--config", config], "cannot write bundle: "),
        (lambda bundle, config: ["process", bundle], "cannot write reports: "),
        (lambda bundle, config: ["sweep", bundle, "--durations", "5"],
         "cannot write sweep outputs: "),
        (lambda bundle, config: ["filter-design", "--band", "0.13", "0.5",
                                 "--sample-rate", "50"], "cannot write filter outputs: "),
    ], ids=["simulate", "process", "sweep", "filter-design"])
    def test_io_exit_writes_nothing(self, bundle_dir, tmp_path, capsys, argv, message):
        config = write_config(tmp_path, {**CONFIG, "duration_s": 10.0})
        out = tmp_path / "taken"
        out.write_text("kept\n")
        before = sorted(tmp_path.iterdir())
        assert main([*argv(str(bundle_dir), str(config)), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert out.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == before


def _os_error(code, path):
    """The text of the ``OSError`` of errno ``code`` on ``path``."""
    return str(OSError(code, os.strerror(code), str(path)))


def _off_grid(*wavelengths):
    return "".join(f"warning: wavelength {wl} nm is more than 1 GHz off the 50 GHz ITU grid\n"
                   for wl in wavelengths)


def _short_config(tmp, edit=lambda config: None):
    """``CONFIG`` cut to 10 s with ``edit`` applied, written to a file; its path."""
    config = json.loads(json.dumps({**CONFIG, "duration_s": 10.0}))
    edit(config)
    return str(write_config(tmp, config, "short.json"))


def _text_file(tmp, text):
    (path := tmp / "text.json").write_text(text)
    return str(path)


def _scenario_a_list(bundle, tmp):
    (broken := bundle_copy(bundle, tmp / "list")).joinpath("scenario.json").write_text("[]")
    return str(broken)


# id: (scratch dir, bundle, --out target) -> (argv, exit status, the whole stderr)
FAILURE_LINES = {
    "simulate-config-a-directory": lambda tmp, bundle, out: (
        ["simulate", "--config", str(tmp)], 3,
        f"cannot read config: {_os_error(errno.EISDIR, tmp)}\n"),
    "simulate-bad-json": lambda tmp, bundle, out: (
        ["simulate", "--config", _text_file(tmp, "not json")], 2,
        "config is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"),
    "simulate-missing-entry": lambda tmp, bundle, out: (
        ["simulate", "--config", _short_config(tmp, lambda c: c["channels"][1].pop("if_lfm"))],
        2, "invalid scenario: missing entry 'if_lfm'\n"),
    "simulate-violation-after-warnings": lambda tmp, bundle, out: (
        ["simulate", "--config", _short_config(tmp, lambda c: c["channels"][1].update(
            wavelength_nm=1549.7)), "--seed", "-1"], 2,
        _off_grid(1549.36, 1549.7) + "seed -1 is not an integer in [0, 2**32)\n"),
    "simulate-out-a-file": lambda tmp, bundle, out: (
        ["simulate", "--config", _short_config(tmp), "--out", str(out)], 3,
        _off_grid(1549.36, 1549.92) + f"cannot write bundle: {_os_error(errno.EEXIST, out)}\n"),
    "process-no-bundle": lambda tmp, bundle, out: (
        ["process", str(tmp / "nothing")], 3,
        f"{tmp / 'nothing'} is not a bundle: missing scenario.json\n"),
    "process-malformed-scenario": lambda tmp, bundle, out: (
        ["process", _scenario_a_list(bundle, tmp)], 2,
        "bundle is malformed: scenario.json is a list, not a JSON object\n"),
    "process-zero-duration": lambda tmp, bundle, out: (
        ["process", str(bundle), "--duration", "0"], 4,
        "processing failed: cannot truncate 60.0 s record to 0.0 s\n"),
    "process-out-a-file": lambda tmp, bundle, out: (
        ["process", str(bundle), "--out", str(out)], 3,
        f"cannot write reports: {_os_error(errno.EEXIST, out)}\n"),
    "sweep-unparsable-durations": lambda tmp, bundle, out: (
        ["sweep", str(bundle), "--durations", "5,abc"], 2, "cannot parse durations '5,abc'\n"),
    "sweep-no-durations": lambda tmp, bundle, out: (
        ["sweep", str(bundle), "--durations", ","], 4,
        "sweep failed: at least one duration is required\n"),
    "sweep-out-a-file": lambda tmp, bundle, out: (
        ["sweep", str(bundle), "--durations", "5", "--out", str(out)], 3,
        f"cannot write sweep outputs: {_os_error(errno.EEXIST, out)}\n"),
    "filter-design-nan-edge": lambda tmp, bundle, out: (
        ["filter-design", "--band", "nan", "0.5", "--sample-rate", "50"], 2,
        "filter design failed: band edges must satisfy 0 < low < high < Nyquist < inf, "
        "got (nan, 0.5) at 50.0 Sa/s\n"),
    "filter-design-out-a-file": lambda tmp, bundle, out: (
        ["filter-design", "--band", "0.13", "0.5", "--sample-rate", "50", "--out", str(out)],
        3, f"cannot write filter outputs: {_os_error(errno.EEXIST, out)}\n"),
}


@pytest.mark.parametrize("case", FAILURE_LINES.values(), ids=FAILURE_LINES)
def test_failure_exit_status_and_whole_stderr(bundle_dir, tmp_path, monkeypatch, capsys,
                                              case):
    """Each failure class exits with its status, writes exactly its stderr lines and no file."""
    monkeypatch.setenv("VITALCHIRP_OUT", str(tmp_path / "default"))
    out = tmp_path / "taken"
    out.write_text("kept\n")
    argv, status, err = case(tmp_path, bundle_dir, out)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == status
    assert capsys.readouterr().err == err
    assert out.read_text() == "kept\n"
    assert sorted(tmp_path.rglob("*")) == before


class TestSweep:
    def test_default_durations_seven_rows_per_subject(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(bundle_dir), "--out", str(out)]) == 0
        rows = json.loads((out / "sweep.json").read_text())
        labels = {r["label"] for r in rows}
        # two contact subjects + two contactless targets, seven durations each
        assert len(rows) == 4 * 7
        csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("duration_s,")
        assert len(csv_lines) == 1 + len(rows)

    def test_every_row_labelled_with_its_channel(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep-labels"
        assert main(["sweep", str(bundle_dir), "--out", str(out), "--durations", "5"]) == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert [(r["modality"], r["label"]) for r in rows] == [
            ("contact", "subject-a@1549.36nm"),
            ("contactless", "subject-b@1549.36nm"),
            ("contactless", "subject-c@1549.36nm"),
            ("contact", "subject-d@1549.92nm"),
        ]

    def test_single_duration(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep1"
        assert main(["sweep", str(bundle_dir), "--out", str(out),
                     "--durations", "60"]) == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert len(rows) == 4

    def test_widths_non_increasing(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep-mono"
        assert main(["sweep", str(bundle_dir), "--out", str(out),
                     "--durations", "5,10,20,30,40,50,60"]) == 0
        rows = json.loads((out / "sweep.json").read_text())
        for label in {r["label"] for r in rows}:
            widths = [r["resp_3db_hz"] for r in rows if r["label"] == label]
            assert all(b <= a * 1.05 for a, b in zip(widths, widths[1:]))


    def test_truthless_bundle_sweeps_the_reported_targets(self, truthless_dir, tmp_path):
        out = tmp_path / "anon-sweep"
        assert main(["sweep", str(truthless_dir), "--out", str(out)]) == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert len(rows) == 4 * 7
        assert main(["process", str(truthless_dir), "--out", str(tmp_path / "anon")]) == 0
        reports = json.loads((tmp_path / "anon" / "reports.json").read_text())
        contactless = [r for r in reports if r["modality"] == "contactless"]
        assert len(contactless) == 2
        for rep in contactless:
            (row,) = [r for r in rows if r["label"] == rep["label"] and r["duration_s"] == 60]
            assert row["modality"] == "contactless"
            assert row["respiration_rpm"] == rep["respiration_rpm_exact"]
            assert row["heartbeat_bpm"] == rep["heartbeat_bpm_exact"]
            assert row["resp_3db_hz"] == rep["resp_3db_hz"]
            assert row["heart_3db_hz"] == rep["heart_3db_hz"]

    def test_duration_under_a_sample_past_the_record_equals_process(self, bundle_dir,
                                                                    tmp_path):
        # 60.01 s is 3000.5 samples of the 60 s records: the one cut rule keeps 3000
        assert main(["sweep", str(bundle_dir), "--out", str(tmp_path / "s"),
                     "--durations", "60.01"]) == 0
        assert main(["process", str(bundle_dir), "--out", str(tmp_path / "p"),
                     "--duration", "60.01"]) == 0
        rows = json.loads((tmp_path / "s" / "sweep.json").read_text())
        reports = json.loads((tmp_path / "p" / "reports.json").read_text())
        assert [r["label"] for r in rows] == [r["label"] for r in reports]
        for row, rep in zip(rows, reports):
            assert row["skipped"] is None
            assert (row["respiration_rpm"], row["heartbeat_bpm"],
                    row["resp_3db_hz"], row["heart_3db_hz"]) == (
                rep["respiration_rpm_exact"], rep["heartbeat_bpm_exact"],
                rep["resp_3db_hz"], rep["heart_3db_hz"])

    @pytest.mark.parametrize("durations", ["5,inf", "1e400"])
    def test_infinite_duration_processing_exit(self, bundle_dir, tmp_path, capsys, durations):
        # "duration_s": Infinity is not JSON: the sweep fails before it writes
        out = tmp_path / "sweep-inf"
        assert main(["sweep", str(bundle_dir), "--out", str(out),
                     "--durations", durations]) == 4
        assert "durations must be >= 5.0 s and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_durations_validation_exit(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "sweep-abc"
        assert main(["sweep", str(bundle_dir), "--out", str(out),
                     "--durations", "5,abc"]) == 2
        assert "cannot parse durations '5,abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_round_trips_to_json_rows(self, tmp_path):
        subject = {**asdict(PRESET_SUBJECTS["subject-d"]), "id": "Doe, J"}
        config = {"duration_s": 10.0, "seed": 3,
                  "channels": [{**CONFIG["channels"][1], "contact_subject": subject}]}
        bundle = tmp_path / "doe"
        assert main(["simulate", "--config", str(write_config(tmp_path, config)),
                     "--out", str(bundle)]) == 0
        out = tmp_path / "doe-sweep"
        assert main(["sweep", str(bundle), "--out", str(out), "--durations", "5,20"]) == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert [r["label"] for r in rows] == ["Doe, J@1549.92nm"] * 2
        assert rows[1]["skipped"] == "duration exceeds 10.0 s record"
        with (out / "sweep.csv").open(newline="", encoding="utf-8") as fh:
            read = list(csv.DictReader(fh))
        assert read == [{k: "" if v is None else str(v) for k, v in r.items()} for r in rows]


class TestOneTransformPerCommand:
    @pytest.mark.parametrize("bundle", ["bundle_dir", "truthless_dir"])
    @pytest.mark.parametrize("argv", [["process"], ["process", "--format", "csv"],
                                      ["sweep", "--durations", "5,60"]],
                             ids=["process", "process-csv", "sweep"])
    def test_each_frame_set_transformed_once(self, request, bundle, argv, tmp_path):
        source = request.getfixturevalue(bundle)
        calls = request.getfixturevalue("rfft_2d_calls")
        assert main([argv[0], str(source), "--out", str(tmp_path / "out"), *argv[1:]]) == 0
        # the transform runs in row blocks: together they cover each frame once
        assert {n for _, n in calls} == {600}
        assert sum(m for m, _ in calls) == 3000


class TestFilterDesign:
    def test_respiration_band_response(self, tmp_path):
        out = tmp_path / "fd"
        assert main(["filter-design", "--band", "0.13", "0.5",
                     "--sample-rate", "50", "--out", str(out)]) == 0
        data = np.loadtxt(out / "response.csv", delimiter=",", skiprows=1)
        freqs, mags = data[:, 0], data[:, 1]
        passband = (freqs >= 0.13) & (freqs <= 0.5)
        assert mags[passband].min() >= -1.02
        assert mags[(freqs > 0) & (freqs <= 0.05)].max() <= -40.0
        text = (out / "coefficients.json").read_text()
        coeffs = json.loads(text)
        assert len(coeffs["sos"]) == 4
        assert coeffs["gain"] == 1.0
        assert text == json.dumps(coeffs, indent=2, sort_keys=True)

    def test_heartbeat_band_stop_at_half_hz(self, tmp_path):
        out = tmp_path / "fd-h"
        assert main(["filter-design", "--band", "0.8", "1.9",
                     "--sample-rate", "50", "--out", str(out)]) == 0
        data = np.loadtxt(out / "response.csv", delimiter=",", skiprows=1)
        freqs, mags = data[:, 0], data[:, 1]
        assert mags[np.argmin(np.abs(freqs - 0.5))] <= -40.0

    def test_inverted_edges_error(self, capsys):
        assert main(["filter-design", "--band", "0.5", "0.13",
                     "--sample-rate", "50"]) == 2
        assert "edges" in capsys.readouterr().err

    def test_overflowing_order_validation_exit(self, tmp_path, capsys):
        out = tmp_path / "fd"
        assert main(["filter-design", "--band", "0.8", "1.9", "--sample-rate", "1e9",
                     "--out", str(out)]) == 2
        assert "cannot design order 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--ripple", "1"], ["--atten", "40"], ["--order", "4"]])
    def test_design_is_not_settable(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["filter-design", "--band", "0.13", "0.5", "--sample-rate", "50", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_infinite_sample_rate_validation_exit(self, tmp_path, capsys):
        out = tmp_path / "fd"
        assert main(["filter-design", "--band", "0.13", "0.5", "--sample-rate", "inf",
                     "--out", str(out)]) == 2
        assert "at inf Sa/s" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VITALCHIRP_OUT", str(tmp_path))
        assert main(["filter-design", "--band", "0.13", "0.5",
                     "--sample-rate", "50"]) == 0
        assert (tmp_path / "filter-0.13-0.5" / "response.csv").is_file()
