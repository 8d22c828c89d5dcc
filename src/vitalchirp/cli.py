"""Command-line interface.

    vitalchirp simulate --config scenario.json [--out bundle/] [--seed N]
    vitalchirp process bundle/ [--duration 5] [--format csv] [--out dir/]
    vitalchirp sweep bundle/ [--durations 5,10,20,30,40,50,60] [--out dir/]
    vitalchirp filter-design --band 0.13 0.5 --sample-rate 50 [--out dir/]

Exit codes: 0 ok, 2 validation failure, 3 I/O failure, 4 processing failure (for
``simulate``, a scenario whose records do not fit in memory).
A failing command raises, and ``main`` prints its one stderr line,
``<what>: <reason>``, and returns its code; ``simulate`` prints a scenario's
warnings first, and its validation violations one per line.
When ``--out`` is omitted, outputs land under ``$VITALCHIRP_OUT`` (default
current directory) in a directory derived from the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
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


class _Failure(Exception):
    """A command's failure; ``args`` are its exit code and the stderr line ``main`` prints."""


@contextlib.contextmanager
def _exits(code: int, what: str, *kinds: type[Exception]):
    """Turn an exception of ``kinds`` into a ``_Failure`` of ``code`` whose line is
    ``what: <exc>`` (``what: missing entry <key>`` for a ``KeyError``), or the
    exception's own text when ``what`` is empty."""
    try:
        yield
    except kinds as exc:
        reason = f"missing entry {exc}" if isinstance(exc, KeyError) else str(exc)
        raise _Failure(code, f"{what}: {reason}" if what else reason) from exc


def _resolve_out(explicit: str | None, default_name: str) -> Path:
    return Path(explicit or Path(os.environ.get("VITALCHIRP_OUT", ".")) / default_name)


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    with _exits(EXIT_IO, "cannot read config", OSError), \
            _exits(EXIT_VALIDATION, "config is not valid JSON", ValueError):  # or not finite
        raw = formats.loads_finite(config_path.read_text(encoding="utf-8"))

    with _exits(EXIT_PROCESSING, "simulation failed", MemoryError), \
            _exits(EXIT_VALIDATION, "invalid scenario", KeyError, ValueError, TypeError):
        scenario = formats.scenario_from_dict(raw)
        if args.seed is not None:
            scenario.seed = args.seed
        report = validate_scenario(scenario)
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if not report.ok:
            raise _Failure(EXIT_VALIDATION, "\n".join(report.violations))
        bundle = run_scenario(scenario)  # MemoryError: a valid scenario too large

    config = formats.scenario_to_dict(scenario)
    out = _resolve_out(args.out, f"run-{formats.scenario_hash(config)[:8]}")
    manifest = formats.build_manifest(
        "simulate", {"config": str(config_path)}, config, scenario.seed
    )
    with _exits(EXIT_IO, "cannot write bundle", OSError):
        formats.write_bundle(bundle, out, manifest)
    print(f"bundle written to {out}")
    return EXIT_OK


def _load_bundle(bundle_dir: str) -> formats.LoadedBundle:
    with _exits(EXIT_IO, "", FileNotFoundError, formats.CorruptFramesError), \
            _exits(EXIT_VALIDATION, "bundle is malformed", KeyError, TypeError, ValueError):
        return formats.read_bundle(bundle_dir)


def cmd_process(args) -> int:
    loaded = _load_bundle(args.bundle)
    out = _resolve_out(args.out, Path(args.bundle).name + "-reports")
    with _exits(EXIT_PROCESSING, "processing failed", ValueError):
        reports, files = bundle_reports(loaded.channels, args.duration,
                                        series=args.format == "csv")

    with _exits(EXIT_IO, "cannot write reports", OSError):
        out.mkdir(parents=True, exist_ok=True)
        formats.write_json(out / "reports.json", [rep.to_dict() for rep in reports])
        for name, columns in files.items():
            formats.write_series_csv(out / name, columns)

    for rep in reports:
        resp = "n/a" if rep.respiration_rpm is None else f"{rep.respiration_rpm:.1f}"
        heart = "n/a" if rep.heartbeat_bpm is None else f"{rep.heartbeat_bpm:.1f}"
        print(f"{rep.label} [{rep.modality}]: respiration {resp} rpm, heartbeat {heart} bpm")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    loaded = _load_bundle(args.bundle)
    try:
        durations = [float(v) for v in args.durations.split(",") if v.strip()]
    except ValueError:
        raise _Failure(EXIT_VALIDATION, f"cannot parse durations {args.durations!r}") from None

    out = _resolve_out(args.out, Path(args.bundle).name + "-sweep")
    with _exits(EXIT_PROCESSING, "sweep failed", ValueError):
        rows = bundle_sweeps(loaded.channels, durations)

    with _exits(EXIT_IO, "cannot write sweep outputs", OSError):
        out.mkdir(parents=True, exist_ok=True)
        formats.write_json(out / "sweep.json", rows)
        formats.write_series_csv(out / "sweep.csv", {
            f.name: [row[f.name] for row in rows] for f in fields(pipelines.SweepEntry)})
    print(f"sweep written to {out}")
    return EXIT_OK


def cmd_filter_design(args) -> int:
    with _exits(EXIT_VALIDATION, "filter design failed", ValueError, dsp.FilterDesignError):
        spec = dsp.BandpassSpec(*args.band, args.sample_rate)
        coeffs = dsp.design_bandpass(spec)

    print("second-order sections (b0, b1, b2, a1, a2):")
    for section in coeffs.sections:
        print("  " + ", ".join(f"{v:.12g}" for v in section))

    out = _resolve_out(args.out, f"filter-{args.band[0]:g}-{args.band[1]:g}")
    with _exits(EXIT_IO, "cannot write filter outputs", OSError):
        out.mkdir(parents=True, exist_ok=True)
        freqs, h = dsp.frequency_response(coeffs)
        mag_db = 20 * np.log10(np.maximum(np.abs(h), 1e-300))
        formats.write_series_csv(out / "response.csv", {"freq_hz": freqs, "magnitude_db": mag_db})
        # design_bandpass folds the overall gain into the first section
        formats.write_json(out / "coefficients.json", {
            "sos": [list(s) for s in coeffs.sections], "gain": 1.0,
            "spec": {**asdict(spec), "passband_ripple": dsp.PASSBAND_RIPPLE_DB,
                     "stopband_atten": dsp.STOPBAND_ATTEN_DB, "order": dsp.ORDER}})
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
    try:
        return args.func(args)
    except _Failure as failure:
        code, line = failure.args
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
