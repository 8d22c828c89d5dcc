"""Command-line interface.

    vitalchirp simulate --config scenario.json [--out bundle/] [--seed N]
    vitalchirp process bundle/ [--duration 5] [--format csv] [--out dir/]
    vitalchirp sweep bundle/ [--durations 5,10,20,30,40,50,60] [--out dir/]
    vitalchirp filter-design --band 0.13 0.5 --sample-rate 50 [--out dir/] \\
        [--ripple 1] [--atten 40] [--order 4]

Exit codes: 0 ok, 2 validation failure, 3 I/O failure, 4 processing failure.
When ``--out`` is omitted, outputs land under ``$VITALCHIRP_OUT`` (default
current directory) in a directory derived from the inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import dsp, formats, physio, pipelines
from .scenario import channel_name, run_scenario, validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_PROCESSING = 4


def _out_root() -> Path:
    return Path(os.environ.get("VITALCHIRP_OUT", "."))


def _resolve_out(explicit: str | None, default_name: str) -> Path:
    return Path(explicit) if explicit else _out_root() / default_name


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        scenario = formats.scenario_from_dict(raw)
        if args.seed is not None:
            scenario.seed = args.seed
        report = validate_scenario(scenario)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if not report.ok:
            for violation in report.violations:
                print(violation, file=sys.stderr)
            return EXIT_VALIDATION
        bundle = run_scenario(scenario)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    config = formats.scenario_to_dict(scenario)
    out = _resolve_out(args.out, f"run-{formats.scenario_hash(config)[:8]}")
    manifest = formats.build_manifest(
        "simulate", {"config": str(config_path)}, config, scenario.seed
    )
    try:
        formats.write_bundle(bundle, out, manifest)
    except OSError as exc:
        print(f"cannot write bundle: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"bundle written to {out}")
    return EXIT_OK


def _load_bundle(bundle_dir: str):
    try:
        return formats.read_bundle(bundle_dir), EXIT_OK
    except (FileNotFoundError, formats.CorruptFramesError) as exc:
        print(str(exc), file=sys.stderr)
        return None, EXIT_IO
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"bundle is malformed: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


def _channels(loaded, duration=None):
    """Each channel as ``(tag, contact, analysis, targets)``, cut to ``duration`` s.

    ``tag`` is ``<channel name>nm``; ``contact`` is ``(series, sample_rate,
    subject, name)`` or None; ``analysis`` is the cut frames'
    :class:`pipelines.FrameAnalysis` or None, and ``targets`` its targets or
    empty.  A cut past either record raises ``ValueError``.  Every command
    labels its outputs ``<name>@<tag>`` from these names.  The walk drops
    each analysis before it builds the next.
    """
    for ch in loaded.channels:
        contact, analysis, targets = None, None, []
        if ch.intensity is not None:
            series, rate = ch.intensity, ch.contact_sample_rate
            if duration is not None:
                series = series[:physio.prefix_length(duration, rate, series.size)]
            subject = ch.contact_subject
            contact = (series, rate, subject, subject.id if subject else "contact")
        if ch.frames is not None:
            frames = ch.frames if duration is None else ch.frames.truncated(duration)
            analysis = pipelines.FrameAnalysis(frames)
            targets = analysis.targets()
        yield f"{channel_name(ch.wavelength_nm)}nm", contact, analysis, targets


def _series_files(tag, contact, analysis, targets) -> dict:
    """The series ``process --format csv`` writes for one channel, as ``{file: columns}``."""
    files = {}
    if contact is not None:
        series, rate, _, _ = contact
        waves = pipelines.band_waveforms(series, rate)
        files[f"contact_{tag}_waveforms.csv"] = {
            "t_s": np.arange(waves["resp_filtered"].size) / rate,
            "resp_filtered": waves["resp_filtered"],
            "heart_filtered": waves["heart_filtered"],
        }
        for band in ("resp", "heart"):
            sp = waves[f"{band}_spectrum"]
            files[f"contact_{tag}_{band}_spectrum.csv"] = {
                "freq_hz": sp.frequencies, "magnitude": sp.magnitudes}
    if analysis is not None:
        profile = analysis.profile()
        files[f"range_profile_{tag}.csv"] = {
            "range_m": profile.ranges, "magnitude": profile.magnitudes}
        phases = analysis.phases([r for r, _ in targets])
        for (_, name), ext in zip(targets, phases):
            if isinstance(ext, pipelines.PhaseSeries):  # else its report holds the error
                files[f"phase_{tag}_{name}.csv"] = {
                    "t_s": np.arange(ext.phase.size) / ext.slow_rate, "phase_rad": ext.phase}
    return files


def cmd_process(args) -> int:
    loaded, status = _load_bundle(args.bundle)
    if loaded is None:
        return status
    out = _resolve_out(args.out, Path(args.bundle).name + "-reports")
    reports, files = [], {}
    try:
        for tag, contact, analysis, targets in _channels(loaded, args.duration):
            if contact is not None:
                series, rate, subject, name = contact
                reports.append(pipelines.contact_rates(series, rate, truth=subject,
                                                       label=f"{name}@{tag}"))
            if targets:
                found = pipelines.contactless_rates(analysis, [r for r, _ in targets])
                for rep, (_, name) in zip(found, targets):
                    rep.label = f"{name}@{tag}"
                reports.extend(found)
            if args.format == "csv":
                files.update(_series_files(tag, contact, analysis, targets))
            del analysis  # one frame transform alive at a time
    except ValueError as exc:
        print(f"processing failed: {exc}", file=sys.stderr)
        return EXIT_PROCESSING

    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "reports.json").write_text(
            json.dumps([rep.to_dict() for rep in reports], indent=2, sort_keys=True),
            encoding="utf-8",
        )
        for name, columns in files.items():
            formats.write_series_csv(out / name, columns)
    except OSError as exc:
        print(f"cannot write reports: {exc}", file=sys.stderr)
        return EXIT_IO

    for rep in reports:
        resp = "n/a" if rep.respiration_rpm is None else f"{rep.respiration_rpm:.1f}"
        heart = "n/a" if rep.heartbeat_bpm is None else f"{rep.heartbeat_bpm:.1f}"
        print(f"{rep.label} [{rep.modality}]: respiration {resp} rpm, heartbeat {heart} bpm")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    loaded, status = _load_bundle(args.bundle)
    if loaded is None:
        return status
    try:
        durations = [float(v) for v in args.durations.split(",") if v.strip()]
    except ValueError:
        print(f"cannot parse durations {args.durations!r}", file=sys.stderr)
        return EXIT_VALIDATION

    out = _resolve_out(args.out, Path(args.bundle).name + "-sweep")
    rows = []
    try:
        for tag, contact, analysis, targets in _channels(loaded):
            if contact is not None:
                series, rate, subject, name = contact
                rows.extend(pipelines.resolution_sweep(
                    series, durations, sample_rate=rate, truth=subject,
                    label=f"{name}@{tag}").to_rows())
            for rng, name in targets:
                rows.extend(pipelines.resolution_sweep(
                    analysis, durations, target_range=rng, label=f"{name}@{tag}").to_rows())
            del analysis  # one frame transform alive at a time
    except ValueError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_PROCESSING

    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep.json").write_text(
            json.dumps(rows, indent=2, sort_keys=True), encoding="utf-8"
        )
        header = [f.name for f in fields(pipelines.SweepEntry)]
        with (out / "sweep.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([row[k] for k in header] for row in rows)
    except OSError as exc:
        print(f"cannot write sweep outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"sweep written to {out}")
    return EXIT_OK


def cmd_filter_design(args) -> int:
    try:
        spec = dsp.BandpassSpec(
            low_edge=args.band[0],
            high_edge=args.band[1],
            sample_rate=args.sample_rate,
            passband_ripple=args.ripple,
            stopband_atten=args.atten,
            order=args.order,
        )
        coeffs = dsp.design_bandpass(spec)
    except (ValueError, dsp.FilterDesignError) as exc:
        print(f"filter design failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    print("second-order sections (b0, b1, b2, a1, a2):")
    for section in coeffs.sections:
        print("  " + ", ".join(f"{v:.12g}" for v in section))

    out = _resolve_out(args.out, f"filter-{args.band[0]:g}-{args.band[1]:g}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        freqs, h = dsp.frequency_response(coeffs)
        mag_db = 20 * np.log10(np.maximum(np.abs(h), 1e-300))
        formats.write_series_csv(
            out / "response.csv", {"freq_hz": freqs, "magnitude_db": mag_db}
        )
        sections = [list(s) for s in coeffs.sections]
        (out / "coefficients.json").write_text(
            # design_bandpass folds the overall gain into the first section
            json.dumps({"sos": sections, "gain": 1.0,
                        "spec": asdict(spec)},
                       indent=2),
            encoding="utf-8",
        )
    except OSError as exc:
        print(f"cannot write filter outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"response written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vitalchirp",
        description="Simulate and process integrated contact/contactless "
        "vital-sign monitoring scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario config into a dataset bundle")
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", help="output bundle directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_proc = sub.add_parser("process", help="extract vital-sign reports from a bundle")
    p_proc.add_argument("bundle", help="bundle directory from 'simulate'")
    p_proc.add_argument("--out", help="output report directory")
    p_proc.add_argument("--duration", type=float, default=None,
                        help="process only the first N seconds")
    p_proc.add_argument("--format", choices=("json", "csv"), default="json",
                        help="'csv' also writes waveform/spectrum/phase/profile CSVs")
    p_proc.set_defaults(func=cmd_process)

    p_sweep = sub.add_parser("sweep", help="rates and resolutions vs record length")
    p_sweep.add_argument("bundle", help="bundle directory from 'simulate'")
    p_sweep.add_argument("--durations", default="5,10,20,30,40,50,60",
                         help="comma-separated seconds (default 5,10,20,30,40,50,60)")
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_filt = sub.add_parser("filter-design", help="design a bandpass and dump its response")
    p_filt.add_argument("--band", type=float, nargs=2, required=True,
                        metavar=("LOW", "HIGH"), help="passband edges in Hz")
    p_filt.add_argument("--sample-rate", type=float, required=True)
    p_filt.add_argument("--ripple", type=float, default=dsp.BandpassSpec.passband_ripple)
    p_filt.add_argument("--atten", type=float, default=dsp.BandpassSpec.stopband_atten)
    p_filt.add_argument("--order", type=int, default=dsp.BandpassSpec.order)
    p_filt.add_argument("--out", help="output directory")
    p_filt.set_defaults(func=cmd_filter_design)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
