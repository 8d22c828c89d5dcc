"""File formats: frames container, CSV exports, scenario config, bundles.

Frames binary container (``frames.bin``)
----------------------------------------
Byte-exact layout, little-endian throughout:

* bytes 0-3: ``uint32`` length L of the JSON header in bytes
* bytes 4 .. 4+L-1: UTF-8 JSON header with keys ``format`` ("vitalchirp-frames"),
  ``version`` (1), ``slow_count``, ``fast_count``, ``slow_rate_hz``,
  ``fast_rate_sa_s``, ``dtype`` ("<f8"), ``order`` ("C"), ``chirp`` (dict),
  ``acquisition`` (dict) and optionally ``truth`` (list of target dicts)
* remaining bytes: ``slow_count * fast_count`` float64 samples, row-major
  (slow-time rows, fast-time columns)

Bundle directory layout
-----------------------
``scenario.json`` (resolved config), ``truth.json``, ``manifest.json``,
and one ``channel_<name>/`` per channel, named by ``scenario.channel_name``,
holding ``contact.csv`` (columns t_s, intensity) and/or ``frames.bin``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .photonics import ChirpParams, FbgProfile, IfLfmParams, IntensityRecord
from .physio import PRESET_SUBJECTS, SubjectVitals
from .radar import AcquisitionParams, DechirpFrameSet, RadarTarget
from .scenario import Scenario, WdmChannel, channel_name

__all__ = [
    "FRAMES_MAGIC",
    "CorruptFramesError",
    "write_frames",
    "read_frames",
    "write_series_csv",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_hash",
    "build_manifest",
    "write_bundle",
    "read_bundle",
    "LoadedChannel",
    "LoadedBundle",
]

FRAMES_MAGIC = "vitalchirp-frames"
FRAMES_VERSION = 1
_FRAMES_LAYOUT = {"dtype": "<f8", "order": "C"}  # the one payload layout written and read
TOOL_NAME = "vitalchirp"

FLOAT_FMT = "%.12g"


class CorruptFramesError(IOError):
    """Frames container failed structural validation."""


# ---------------------------------------------------------------- frames bin

def _subject_to_dict(subject: SubjectVitals) -> dict:
    d = asdict(subject)
    d["resp_harmonics"] = [list(h) for h in subject.resp_harmonics]
    return d


def _subject_from_dict(d: dict) -> SubjectVitals:
    d = dict(d)
    if "resp_harmonics" in d:
        d["resp_harmonics"] = tuple(map(tuple, d["resp_harmonics"]))
    return SubjectVitals(**d)


def _resolve_subject(entry) -> SubjectVitals:
    if isinstance(entry, str):
        if entry not in PRESET_SUBJECTS:
            raise ValueError(
                f"unknown subject preset {entry!r}; available: {sorted(PRESET_SUBJECTS)}"
            )
        return PRESET_SUBJECTS[entry]
    return _subject_from_dict(entry)


def _target_to_dict(tgt: RadarTarget) -> dict:
    return {
        "subject": _subject_to_dict(tgt.subject),
        "range_m": tgt.nominal_range,
        "reflectivity": tgt.reflectivity,
    }


def _target_from_dict(d: dict) -> RadarTarget:
    d = dict(d)
    return RadarTarget(subject=_resolve_subject(d.pop("subject")),
                       nominal_range=d.pop("range_m"), **d)


def write_frames(frames: DechirpFrameSet, path: str | Path) -> None:
    """Serialize a frame set to the binary container format above."""
    header = {
        "format": FRAMES_MAGIC,
        "version": FRAMES_VERSION,
        "slow_count": frames.slow_count,
        "fast_count": frames.fast_count,
        "slow_rate_hz": frames.slow_rate,
        "fast_rate_sa_s": frames.fast_rate,
        **_FRAMES_LAYOUT,
        "chirp": asdict(frames.chirp),
        "acquisition": asdict(frames.acquisition),
    }
    if frames.truth:
        header["truth"] = [_target_to_dict(t) for t in frames.truth]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(frames.samples, dtype=_FRAMES_LAYOUT["dtype"]))


def read_frames(path: str | Path) -> DechirpFrameSet:
    """Read a frames container, validating structure and payload size."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(4)
        if len(head) < 4:
            raise CorruptFramesError(f"{path}: truncated before header length (offset 0)")
        (hlen,) = struct.unpack("<I", head)
        blob = fh.read(hlen)
    payload_len = path.stat().st_size - 4 - hlen
    if len(blob) < hlen:
        raise CorruptFramesError(f"{path}: truncated inside JSON header (offset 4)")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFramesError(f"{path}: invalid JSON header (offset 4): {exc}") from exc
    if header.get("format") != FRAMES_MAGIC or header.get("version") != FRAMES_VERSION:
        raise CorruptFramesError(f"{path}: not a {FRAMES_MAGIC} v{FRAMES_VERSION} file")
    for key, value in _FRAMES_LAYOUT.items():
        if header.get(key) != value:
            raise CorruptFramesError(
                f"{path}: header {key} {header.get(key)!r}, but payloads are read as {value!r}")

    slow, fast = int(header["slow_count"]), int(header["fast_count"])
    expected = slow * fast * 8
    if payload_len != expected:
        raise CorruptFramesError(
            f"{path}: payload of {payload_len} bytes at offset {4 + hlen}, "
            f"expected {expected} ({slow}x{fast} float64)"
        )
    samples = np.fromfile(path, header["dtype"], slow * fast, offset=4 + hlen).reshape(slow, fast)
    if not np.all(np.isfinite(samples)):
        raise CorruptFramesError(f"{path}: non-finite samples in payload")
    truth = tuple(_target_from_dict(t) for t in header.get("truth", [])) or None
    return DechirpFrameSet(
        samples=samples,
        slow_rate=float(header["slow_rate_hz"]),
        fast_rate=float(header["fast_rate_sa_s"]),
        chirp=ChirpParams(**header["chirp"]),
        acquisition=AcquisitionParams(**header["acquisition"]),
        truth=truth,
    )


# ------------------------------------------------------------------- CSVs

def write_series_csv(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns to CSV with a header line."""
    names = list(columns)
    data = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
    np.savetxt(path, data, delimiter=",", fmt=FLOAT_FMT,
               header=",".join(names), comments="")


def write_intensity_csv(path: str | Path, record: IntensityRecord) -> None:
    write_series_csv(
        path, {"t_s": record.grid.instants(), "intensity": record.samples}
    )


def read_intensity_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


# --------------------------------------------------------- scenario config

def _channel_to_dict(ch: WdmChannel) -> dict:
    subject = ch.contact_subject
    return {**asdict(ch), "roles": sorted(ch.roles),
            "contact_subject": _subject_to_dict(subject) if subject else None,
            "radar_targets": [_target_to_dict(t) for t in ch.radar_targets]}


def _channel_from_dict(d: dict) -> WdmChannel:
    d = dict(d)
    subject, fbg = d.pop("contact_subject", None), d.pop("fbg", None)
    return WdmChannel(roles=frozenset(d.pop("roles", [])),
                      if_lfm=IfLfmParams(**d.pop("if_lfm")),
                      fbg=FbgProfile(**fbg) if fbg else None,
                      contact_subject=_resolve_subject(subject) if subject else None,
                      radar_targets=tuple(map(_target_from_dict, d.pop("radar_targets", []))),
                      **d)


def scenario_to_dict(s: Scenario) -> dict:
    """Fully resolved, JSON-ready scenario description."""
    return {
        "duration_s": s.acquisition.duration,
        "seed": s.seed,
        "contact_sample_rate": s.contact_sample_rate,
        "acquisition": {k: v for k, v in asdict(s.acquisition).items() if k != "duration"},
        "channels": [_channel_to_dict(ch) for ch in s.channels],
    }


def scenario_from_dict(config: dict) -> Scenario:
    """Build a Scenario from a config dict (see README for the schema).

    Each object is built from its own entries, so every default is its
    dataclass's and an unknown entry at any level raises ``TypeError``
    naming it.  Subject entries may be preset names or full parameter dicts.
    """
    config = dict(config)
    channels = tuple(map(_channel_from_dict, config.pop("channels", [])))
    acquisition = AcquisitionParams(**config.pop("acquisition", {}),
                                    duration=config.pop("duration_s", AcquisitionParams.duration))
    return Scenario(channels=channels, acquisition=acquisition, **config)


def scenario_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a resolved config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(command: str, parameters: dict, config: dict, seed: int) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "scenario_sha256": scenario_hash(config),
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------- bundles

def write_bundle(bundle, outdir: str | Path, manifest: dict | None = None) -> Path:
    """Write a scenario bundle to a directory (layout in module docstring)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = scenario_to_dict(bundle.scenario)
    (outdir / "scenario.json").write_text(
        json.dumps(config, indent=2, sort_keys=True), encoding="utf-8"
    )

    truth = {"channels": {}}
    for wl, result in sorted(bundle.channels.items()):
        chdir = outdir / f"channel_{channel_name(wl)}"
        chdir.mkdir(exist_ok=True)
        entry = {"contact_subject": None, "targets": []}
        if result.intensity is not None:
            write_intensity_csv(chdir / "contact.csv", result.intensity)
            entry["contact_subject"] = _subject_to_dict(result.channel.contact_subject)
            entry["contact_sample_rate"] = result.intensity.grid.sample_rate
            entry["edge_warning"] = result.intensity.edge_warning
        if result.frames is not None:
            write_frames(result.frames, chdir / "frames.bin")
            entry["targets"] = [_target_to_dict(t) for t in result.frames.truth or ()]
        truth["channels"][channel_name(wl)] = entry

    (outdir / "truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True), encoding="utf-8"
    )
    if manifest is None:
        manifest = build_manifest("simulate", {}, config, bundle.scenario.seed)
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return outdir


@dataclass
class LoadedChannel:
    wavelength_nm: float
    intensity: np.ndarray | None = None
    contact_sample_rate: float | None = None
    contact_subject: SubjectVitals | None = None
    frames: DechirpFrameSet | None = None


@dataclass
class LoadedBundle:
    channels: list[LoadedChannel] = field(default_factory=list)


def read_bundle(bundle_dir: str | Path) -> LoadedBundle:
    """Load a bundle directory back into processable objects."""
    root = Path(bundle_dir)
    scenario_path = root / "scenario.json"
    if not scenario_path.is_file():
        raise FileNotFoundError(f"{root} is not a bundle: missing scenario.json")
    config = json.loads(scenario_path.read_text(encoding="utf-8"))
    truth = {}
    truth_path = root / "truth.json"
    if truth_path.is_file():
        truth = json.loads(truth_path.read_text(encoding="utf-8")).get("channels", {})

    loaded = LoadedBundle()
    for chd in config.get("channels", []):
        wl = float(chd["wavelength_nm"])
        name = channel_name(wl)
        chdir = root / f"channel_{name}"
        entry = truth.get(name, {})
        lc = LoadedChannel(wavelength_nm=wl)
        contact_csv = chdir / "contact.csv"
        if contact_csv.is_file():
            _, lc.intensity = read_intensity_csv(contact_csv)
            lc.contact_sample_rate = float(config["contact_sample_rate"])
            if entry.get("contact_subject"):
                lc.contact_subject = _subject_from_dict(entry["contact_subject"])
        frames_bin = chdir / "frames.bin"
        if frames_bin.is_file():
            lc.frames = read_frames(frames_bin)
            if lc.frames.truth is None and entry.get("targets"):
                lc.frames.truth = tuple(_target_from_dict(t) for t in entry["targets"])
        loaded.channels.append(lc)
    return loaded
