"""The three benchmark workloads: generated configs, one iteration each, checks.

Every workload turns ``--seed`` into a scenario config (the seed becomes
the scenario's noise seed; subjects are the package presets) and hands
the package only that config.  An iteration runs the workload's
operations; ``verify`` then checks every output against the ground
truth and returns a digest of the bytes the iteration produced, so
repetitions, traced and untraced runs, and parent and change can be
compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from vitalchirp import formats, pipelines, scenario
from vitalchirp.physio import PRESET_SUBJECTS

from tracer import append_spans

BENCH_DIR = Path(__file__).resolve().parent

RECORD_S = 60.0
SWEEP_DURATIONS = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
# Acceptance tolerances (respiration rpm, heartbeat bpm) per modality.
TOLERANCE = {"contactless": (0.6, 1.2), "contact": (1.6, 0.5)}

IF_LFM = {"center_freq": 6.6e9, "bandwidth": 1e9,
          "pulse_period": 100e-6, "pulse_width": 60e-6}
SUBJECT_CYCLE = ["subject-a", "subject-b", "subject-c", "subject-d", "subject-e"]


def cli_config(seed: int) -> dict:
    return {
        "duration_s": RECORD_S,
        "seed": seed,
        "channels": [
            {"wavelength_nm": 1549.36, "roles": ["contact", "contactless"],
             "if_lfm": IF_LFM, "fbg": {"notch_depth_db": 17.70, "fwhm_3db": 11.2e9},
             "fiber_length_km": 4.1, "contact_subject": "subject-a",
             "radar_targets": [{"subject": "subject-b", "range_m": 1.00},
                               {"subject": "subject-c", "range_m": 1.65}]},
            {"wavelength_nm": 1549.92, "roles": ["contact"], "if_lfm": IF_LFM,
             "fbg": {"notch_depth_db": 17.76, "fwhm_3db": 10.0e9},
             "contact_subject": "subject-d"},
        ],
    }


def radar_config(seed: int) -> dict:
    targets = [("subject-b", 1.00), ("subject-c", 1.65), ("subject-d", 2.30),
               ("subject-e", 3.10)]
    return {
        "duration_s": RECORD_S,
        "seed": seed,
        "channels": [
            {"wavelength_nm": 1549.36, "roles": ["contactless"], "if_lfm": IF_LFM,
             "radar_targets": [{"subject": s, "range_m": r} for s, r in targets]},
        ],
    }


def contact_config(seed: int) -> dict:
    channels = []
    for k in range(16):
        freq_hz = 193.1e12 + 50e9 * k  # ITU-T 50 GHz grid
        channels.append({
            "wavelength_nm": round(299792458.0 / freq_hz * 1e9, 3),
            "roles": ["contact"], "if_lfm": IF_LFM,
            "fbg": {"notch_depth_db": 17.70, "fwhm_3db": 11.2e9},
            "contact_subject": SUBJECT_CYCLE[k % len(SUBJECT_CYCLE)],
        })
    return {"duration_s": RECORD_S, "seed": seed, "contact_sample_rate": 50.0,
            "channels": channels}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class OpFailed(Exception):
    """An operation raised or exited non-zero; the iteration stops there."""


class Checker:
    """Counts operations and failures, and collects rate errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.resp_err: list[float] = []
        self.heart_err: list[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def call(self, op: str, fn, /, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark counts any failure and goes on
            self.fail(f"{op}: {type(exc).__name__}: {exc}")
            raise OpFailed(op) from exc

    def report(self, label: str, modality: str, resp_rpm, heart_bpm) -> bool:
        """Check one report's rates against its preset subject."""
        truth = PRESET_SUBJECTS.get(label.split("@")[0])
        if truth is None or resp_rpm is None or heart_bpm is None:
            self.problems.append(f"{label}: no truth or rate not detected")
            return False
        resp_err = abs(resp_rpm - truth.respiration_rate)
        heart_err = abs(heart_bpm - truth.heartbeat_rate)
        self.resp_err.append(resp_err)
        self.heart_err.append(heart_err)
        tol_resp, tol_heart = TOLERANCE[modality]
        if resp_err > tol_resp or heart_err > tol_heart:
            self.problems.append(
                f"{label} [{modality}]: error {resp_err:.3f} rpm / {heart_err:.3f} bpm "
                f"beyond {tol_resp} / {tol_heart}"
            )
            return False
        return True

    def sweep(self, label: str, rows: list[dict], full: tuple) -> bool:
        """All durations ran and detected; the 60 s row equals the full-record report."""
        ok = len(rows) == len(SWEEP_DURATIONS) and all(
            r["skipped"] is None and r["respiration_rpm"] is not None
            and r["heartbeat_bpm"] is not None for r in rows
        )
        last = rows[-1] if rows else {}
        if not ok or (last.get("respiration_rpm"), last.get("heartbeat_bpm")) != full:
            self.problems.append(f"{label}: sweep rows incomplete or 60 s row differs "
                                 f"from the full-record report")
            return False
        return True


# ------------------------------------------------------------ in-process

class RadarWorkload:
    """One contactless channel, four targets; synthesis, rates and sweeps warm."""

    name = "radar-4tgt-60s"
    persons = 4
    in_process = True

    def __init__(self, seed: int, work: Path):
        self.config = radar_config(seed)
        self.scenario = formats.scenario_from_dict(self.config)
        self.wavelength = self.config["channels"][0]["wavelength_nm"]

    def iterate(self, chk: Checker, iteration: int):
        out = {}
        start = time.perf_counter()
        bundle = chk.call("run_scenario", scenario.run_scenario, self.scenario)
        frames = bundle.channels[self.wavelength].frames
        out["reports"] = chk.call("contactless_rates", pipelines.contactless_rates, frames)
        out["sweeps"] = [
            chk.call("resolution_sweep", pipelines.resolution_sweep, frames,
                     SWEEP_DURATIONS, target_range=t.nominal_range)
            for t in frames.truth
        ]
        return time.perf_counter() - start, out

    def verify(self, chk: Checker, out: dict) -> dict:
        reports = out["reports"]
        if len(reports) != self.persons or not all(
            [chk.report(r.label, r.modality, r.respiration_rpm, r.heartbeat_bpm)
             for r in reports]
        ):
            chk.fail("contactless_rates: a report is out of tolerance")
        for rep, sweep in zip(reports, out["sweeps"]):
            if not chk.sweep(rep.label, sweep.to_rows(),
                             (rep.respiration_rpm, rep.heartbeat_bpm)):
                chk.fail(f"resolution_sweep {rep.label}")
        return {"reports": sha256_json([r.to_dict() for r in reports]),
                "sweeps": sha256_json([s.to_rows() for s in out["sweeps"]])}


class ContactWorkload:
    """Sixteen contact channels; synthesis, bundle write/read, rates and sweeps warm."""

    name = "contact-wdm16-60s"
    persons = 16
    in_process = True

    def __init__(self, seed: int, work: Path):
        self.config = contact_config(seed)
        self.scenario = formats.scenario_from_dict(self.config)
        self.work = work

    def iterate(self, chk: Checker, iteration: int):
        out = {"dir": Path(tempfile.mkdtemp(prefix="bundle-", dir=self.work))}
        start = time.perf_counter()
        bundle = chk.call("run_scenario", scenario.run_scenario, self.scenario)
        chk.call("write_bundle", formats.write_bundle, bundle, out["dir"])
        loaded = chk.call("read_bundle", formats.read_bundle, out["dir"])
        out["reports"], out["sweeps"] = [], []
        for ch in loaded.channels:
            label = f"{ch.contact_subject.id}@{ch.wavelength_nm:g}nm"
            out["reports"].append(chk.call(
                "contact_rates", pipelines.contact_rates, ch.intensity,
                ch.contact_sample_rate, label=label))
            out["sweeps"].append(chk.call(
                "resolution_sweep", pipelines.resolution_sweep, ch.intensity,
                SWEEP_DURATIONS, sample_rate=ch.contact_sample_rate, label=label))
        return time.perf_counter() - start, out

    def verify(self, chk: Checker, out: dict) -> dict:
        root = out["dir"]
        try:
            csvs = sorted(root.glob("channel_*/contact.csv"))
            digests = {"contact.csv": sha256_json([sha256_file(p) for p in csvs])}
        finally:
            shutil.rmtree(root, ignore_errors=True)
        reports = out["reports"]
        if len(csvs) != len(self.config["channels"]) or len(reports) != len(csvs):
            chk.fail("bundle round trip lost channels")
        for rep, sweep in zip(reports, out["sweeps"]):
            if not chk.report(rep.label, rep.modality, rep.respiration_rpm, rep.heartbeat_bpm):
                chk.fail(f"contact_rates {rep.label}")
            if not chk.sweep(rep.label, sweep.to_rows(),
                             (rep.respiration_rpm, rep.heartbeat_bpm)):
                chk.fail(f"resolution_sweep {rep.label}")
        digests["reports"] = sha256_json([r.to_dict() for r in reports])
        digests["sweeps"] = sha256_json([s.to_rows() for s in out["sweeps"]])
        return digests


# ------------------------------------------------------------------- CLI

def wait_child(argv: list[str], env: dict, log: Path) -> tuple[int, float, int]:
    """Run one child to completion: exit code, wall seconds, peak RSS in KiB."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class CliWorkload:
    """Two channels as fresh ``vitalchirp`` processes: simulate, process x2, sweep."""

    name = "cli-2ch-60s"
    persons = 4
    in_process = False

    def __init__(self, seed: int, work: Path, env: dict):
        self.config = cli_config(seed)
        self.work = work
        self.env = env
        self.config_path = work / "scenario.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.spans: list[list] = []

    def _argv(self, rep: Path) -> dict[str, list[str]]:
        bundle = str(rep / "bundle")
        return {
            "simulate": ["simulate", "--config", str(self.config_path), "--out", bundle],
            "process": ["process", bundle, "--out", str(rep / "proc")],
            "process_csv": ["process", bundle, "--format", "csv", "--out", str(rep / "csv")],
            "sweep": ["sweep", bundle, "--out", str(rep / "sweep")],
        }

    def iterate(self, chk: Checker, iteration: int, traced: bool = False, reference=None):
        """Run the four commands; with a reference, also their normalized times.

        The reference runs after each command, so the four commands share
        one speed estimate from the five reference runs around them.
        """
        rep = Path(tempfile.mkdtemp(prefix="rep-", dir=self.work))
        out = {"dir": rep, "walls": {}, "norm": {}, "rss_kb": 0}
        mark = reference.mark() if reference is not None else None
        for name, args in self._argv(rep).items():
            spans = rep / f"spans-{name}.json"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans),
                        str(iteration), "--", *args]
            else:
                argv = [sys.executable, "-m", "vitalchirp.cli", *args]
            code, wall, rss = chk.call(name, wait_child, argv, self.env,
                                       rep / f"{name}.log")
            out["walls"][name] = wall
            if reference is not None:
                reference.measure()
            out["rss_kb"] = max(out["rss_kb"], rss)
            if code != 0:
                log = (rep / f"{name}.log").read_text(errors="replace")[-500:]
                chk.fail(f"{name}: exit code {code}: {log}")
                raise OpFailed(name)
            if traced:
                append_spans(self.spans, json.loads(spans.read_text(encoding="utf-8")))
        if reference is not None:
            scale = reference.scale(mark)
            out["norm"] = {name: wall * scale for name, wall in out["walls"].items()}
        return sum(out["walls"].values()), out

    def take_spans(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def verify(self, chk: Checker, out: dict) -> dict:
        rep = out["dir"]
        try:
            return self._verify(chk, rep)
        finally:
            shutil.rmtree(rep, ignore_errors=True)

    def _verify(self, chk: Checker, rep: Path) -> dict:
        bad = set()
        reports_json = (rep / "proc" / "reports.json").read_bytes()
        if (rep / "csv" / "reports.json").read_bytes() != reports_json:
            chk.problems.append("process --format csv: reports.json differs from process")
            bad.add("process_csv")
        full = {}
        for r in json.loads(reports_json):
            full[(r["modality"], r["label"].split("@")[0])] = (
                r["respiration_rpm_exact"], r["heartbeat_bpm_exact"])
            if not chk.report(r["label"], r["modality"], r["respiration_rpm_exact"],
                              r["heartbeat_bpm_exact"]):
                bad.add("process")
        if len(full) != self.persons:
            chk.problems.append(f"process: {len(full)} reports, expected {self.persons}")
            bad.add("process")
        rows = json.loads((rep / "sweep" / "sweep.json").read_text(encoding="utf-8"))
        groups: dict[tuple, list] = {}
        for row in rows:
            groups.setdefault((row["modality"], row["label"].split("@")[0]), []).append(row)
        if set(groups) != set(full) or not all(
            [chk.sweep(key[1], group, full.get(key)) for key, group in groups.items()]
        ):
            bad.add("sweep")
        for name in sorted(bad):
            chk.fail(f"{name}: output check failed")
        bundle = rep / "bundle"
        return {
            "reports.json": hashlib.sha256(reports_json).hexdigest(),
            "sweep.json": sha256_file(rep / "sweep" / "sweep.json"),
            "frames.bin": sha256_json([sha256_file(p)
                                       for p in sorted(bundle.glob("*/frames.bin"))]),
            "contact.csv": sha256_json([sha256_file(p)
                                        for p in sorted(bundle.glob("*/contact.csv"))]),
        }


WORKLOADS = {w.name: w for w in (CliWorkload, RadarWorkload, ContactWorkload)}
