"""Command-line interface.

    vitalchirp simulate --config scenario.json [--out bundle/] [--seed N]
    vitalchirp process bundle/ [--duration 5] [--format csv] [--out dir/]
    vitalchirp sweep bundle/ [--durations 5,10,20,30,40,50,60] [--out dir/]
    vitalchirp filter-design --band 0.13 0.5 --sample-rate 50 [--out dir/]

Exit codes: 0 ok, 2 validation failure, 3 I/O failure, 4 processing failure (for
``simulate``, a scenario whose records do not fit in memory).
When ``--out`` is omitted, outputs land under ``$VITALCHIRP_OUT`` (default
current directory) in a directory derived from the inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import dsp, formats, pipelines
from .scenario import bundle_reports, bundle_sweeps, run_scenario, validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_PROCESSING = 4


def _resolve_out(explicit: str | None, default_name: str) -> Path:
    return Path(explicit or Path(os.environ.get("VITALCHIRP_OUT", ".")) / default_name)


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    try:
        raw = formats.loads_finite(config_path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # also a number that is not finite
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
    except KeyError as exc:
        print(f"invalid scenario: missing entry {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, TypeError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a valid scenario too large to synthesize
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_PROCESSING

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
    except KeyError as exc:
        print(f"bundle is malformed: missing entry {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION
    except (TypeError, ValueError) as exc:
        print(f"bundle is malformed: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_process(args) -> int:
    loaded, status = _load_bundle(args.bundle)
    if loaded is None:
        return status
    out = _resolve_out(args.out, Path(args.bundle).name + "-reports")
    try:
        reports, files = bundle_reports(loaded.channels, args.duration,
                                        series=args.format == "csv")
    except ValueError as exc:
        print(f"processing failed: {exc}", file=sys.stderr)
        return EXIT_PROCESSING

    try:
        out.mkdir(parents=True, exist_ok=True)
        formats.write_json(out / "reports.json", [rep.to_dict() for rep in reports])
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
    try:
        rows = bundle_sweeps(loaded.channels, durations)
    except ValueError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_PROCESSING

    try:
        out.mkdir(parents=True, exist_ok=True)
        formats.write_json(out / "sweep.json", rows)
        formats.write_series_csv(out / "sweep.csv", {
            f.name: [row[f.name] for row in rows] for f in fields(pipelines.SweepEntry)})
    except OSError as exc:
        print(f"cannot write sweep outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"sweep written to {out}")
    return EXIT_OK


def cmd_filter_design(args) -> int:
    try:
        spec = dsp.BandpassSpec(*args.band, args.sample_rate)
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
        formats.write_series_csv(out / "response.csv", {"freq_hz": freqs, "magnitude_db": mag_db})
        # design_bandpass folds the overall gain into the first section
        formats.write_json(out / "coefficients.json", {
            "sos": [list(s) for s in coeffs.sections], "gain": 1.0,
            "spec": {**asdict(spec), "passband_ripple": dsp.PASSBAND_RIPPLE_DB,
                     "stopband_atten": dsp.STOPBAND_ATTEN_DB, "order": dsp.ORDER}})
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
    p_filt.add_argument("--out", help="output directory")
    p_filt.set_defaults(func=cmd_filter_design)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
