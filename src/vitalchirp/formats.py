"""File formats: every file the package writes, and the bundle readers.

A CSV is a header line of column names and one row per sample, as ``csv.writer``
writes it: a float as its ``repr`` (the shortest text that reads back to the same
double), None as an empty field; columns of unequal lengths raise ``ValueError``.
A JSON file is indented, with sorted keys.

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

``acquisition`` sizes the payload and sets the rates; a header whose count or
rate keys disagree with it, or that holds a number that is not finite, is
corrupt.  The frames' truth is the header's ``truth`` (``truth.json`` copies it).

``read_frames`` maps the payload read-only and copies nothing: the samples are
the file's pages, each block of them released from the process once read
(``radar.non_finite_count``, ``radar.DechirpFrameSet.transform``) and reloaded
from the file if read again.  A process that reads a frames file so holds neither
its samples nor their spectra, only the marks and columns its transform keeps.
So a frames file must not be rewritten in place while a process reads it;
``write_frames`` writes ``<name>.part`` and renames it over the file.

Bundle directory layout
-----------------------
``scenario.json`` (resolved config), ``truth.json`` (each channel's
``contact_subject``, contact ``edge_warning`` and ``targets``), ``manifest.json``,
and one ``channel_<name>/`` per channel, named by ``scenario.channel_name``,
holding the record file of each of its roles and no other: ``contact.csv``
(columns t_s, intensity) for the contact role, ``frames.bin`` for the
contactless role.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import struct
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .photonics import ChirpParams, IntensityRecord
from .physio import PRESET_SUBJECTS, SubjectVitals, check_fields, make_time_grid
from .radar import AcquisitionParams, DechirpFrameSet, RadarTarget, non_finite_count
from .scenario import CONTACT_ROLE, CONTACTLESS_ROLE, ChannelResult, Scenario, WdmChannel
from .scenario import channel_name

__all__ = [
    "FRAMES_MAGIC",
    "CorruptFramesError",
    "loads_finite",
    "write_frames",
    "read_frames",
    "write_series_csv",
    "write_json",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_hash",
    "build_manifest",
    "write_bundle",
    "read_bundle",
    "LoadedBundle",
]

FRAMES_MAGIC = "vitalchirp-frames"
FRAMES_VERSION = 1
_FRAMES_LAYOUT = {"dtype": "<f8", "order": "C"}  # the one payload layout written and read
TOOL_NAME = "vitalchirp"
RECORD_FILES = {CONTACT_ROLE: "contact.csv", CONTACTLESS_ROLE: "frames.bin"}  # each role's record


class CorruptFramesError(IOError):
    """Frames container failed structural validation, or its payload could not be mapped."""


def _finite(text: str, kind=float):
    if not np.isfinite(float(text)):
        raise ValueError(f"number {text} is not finite")
    return kind(text)


def loads_finite(text: str):
    """``json.loads`` rejecting ``NaN``, ``Infinity`` and literals, integer or not,
    past the float range."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite,
                      parse_int=lambda text: _finite(text, int))


def _object(value, where: str) -> dict:
    """``value``, which a reader indexes by key; ``ValueError`` naming ``where`` if it
    is not a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} is a {type(value).__name__}, not a JSON object")
    return value


_KEYS = {"nominal_range": "range_m"}  # a field a document names otherwise
_LIST_TEXTS = {  # the texts a list of these has always been refused with
    frozenset[str]: "{where} {value!r} is not a JSON list of strings",
    tuple[tuple[int, float], ...]: ("resp_harmonics {value!r} is not a list of [order, "
                                    "relative amplitude] pairs"),
}


def _to_json(obj) -> dict:
    """The dataclass ``obj`` as a JSON object: each field under its key, a set sorted."""
    return asdict(obj, dict_factory=lambda pairs: {
        _KEYS.get(k, k): sorted(v) if isinstance(v, frozenset) else v for k, v in pairs})


def _build(hint, value, where: str):
    """``value`` of a JSON document as the field annotation ``hint`` (:func:`physio.check_fields`),
    the inverse of :func:`_to_json`: a dataclass from an object of its fields' keys (a subject
    also from a preset name), a tuple or set from a list, ``X | None`` from null or an X, and a
    number or text as it is, for its dataclass to check.  ``ValueError`` names ``where`` for a
    value not of its JSON type, ``TypeError`` an unknown key and ``KeyError`` a missing one."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None: only null is absent
        return None if value is None else _build(args[0], value, where)
    if (kind := typing.get_origin(hint)) in (tuple, frozenset):
        try:
            if not isinstance(value, (list, tuple)):  # a tuple: as _to_json writes it
                raise ValueError(f"{where} is a {type(value).__name__}, not a JSON list")
            items = args[:1] * len(value) if kind is frozenset or args[-1] is ... else args
            built = kind(_build(h, v, f"{where}[{k}]")
                         for k, (h, v) in enumerate(zip(items, value, strict=True)))
            if hint in _LIST_TEXTS:  # an item that does not fit is refused as the list
                check_fields({"items": hint}, items=built)
            return built
        except (TypeError, ValueError):  # TypeError: an unhashable item
            if hint not in _LIST_TEXTS:
                raise
            raise ValueError(_LIST_TEXTS[hint].format(where=where, value=value)) from None
    if hint is SubjectVitals and isinstance(value, str):
        if value not in PRESET_SUBJECTS:
            raise ValueError(
                f"unknown subject preset {value!r}; available: {sorted(PRESET_SUBJECTS)}")
        return PRESET_SUBJECTS[value]
    if hint is dict:
        return _object(value, where)
    if not dataclasses.is_dataclass(hint):
        return value
    entries = dict(_object(value, where))
    if hint is Scenario:  # the document's duration_s is acquisition.duration
        acquisition = _object(entries.get("acquisition", {}), f"{where} acquisition")
        if "duration" in acquisition:
            raise TypeError(f"{where} acquisition has an unknown entry 'duration'")
        if "duration_s" in entries:
            entries["acquisition"] = {**acquisition, "duration": entries.pop("duration_s")}
    where = "channel" if hint is WdmChannel else where  # as a channel's entries are named
    hints = check_fields(hint)
    names = {_KEYS.get(name, name): name for name in hints}  # key: field
    if unknown := sorted(entries.keys() - names.keys()):
        raise TypeError(f"{where} has an unknown entry {unknown[0]!r}")
    required = {_KEYS.get(f.name, f.name) for f in dataclasses.fields(hint)
                if f.default is f.default_factory is dataclasses.MISSING}
    if missing := sorted(required - entries.keys()):
        raise KeyError(missing[0])
    return hint(**{names[key]: _build(hints[names[key]], v, f"{where} {key}")
                   for key, v in entries.items()})


# ---------------------------------------------------------------- frames bin

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
        "chirp": _to_json(frames.chirp),
        "acquisition": _to_json(frames.acquisition),
    }
    if frames.truth:
        header["truth"] = [_to_json(t) for t in frames.truth]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:  # replaced, never truncated: a map of the old file reads on (truncated, it faults)
        with part.open("wb") as fh:
            fh.write(struct.pack("<I", len(blob)) + blob)
            fh.write(np.ascontiguousarray(frames.samples, dtype=_FRAMES_LAYOUT["dtype"]))
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def read_frames(path: str | Path) -> DechirpFrameSet:
    """Read a frames container, checking its header against the layout and ``acquisition``."""
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
        header = _object(loads_finite(blob.decode("utf-8")), "header")
    except ValueError as exc:
        raise CorruptFramesError(f"{path}: invalid JSON header (offset 4): {exc}") from exc
    if header.get("format") != FRAMES_MAGIC or header.get("version") != FRAMES_VERSION:
        raise CorruptFramesError(f"{path}: not a {FRAMES_MAGIC} v{FRAMES_VERSION} file")
    acq = _build(AcquisitionParams, header["acquisition"], f"{path}: header acquisition")
    slow, fast = acq.slow_count, acq.fast_count
    for key, value in {**_FRAMES_LAYOUT, "slow_count": slow, "fast_count": fast,
                       "slow_rate_hz": acq.slow_rate, "fast_rate_sa_s": acq.fast_rate}.items():
        if header.get(key) != value:
            raise CorruptFramesError(
                f"{path}: header {key} {header.get(key)!r}, but the file is read as {value!r}")

    expected = slow * fast * 8
    if payload_len != expected:
        raise CorruptFramesError(
            f"{path}: payload of {payload_len} bytes at offset {4 + hlen}, "
            f"expected {expected} ({slow}x{fast} float64)"
        )
    import mmap  # here: only a run that reads frames maps one
    try:
        with path.open("rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise CorruptFramesError(f"{path}: cannot map the payload: {exc}") from exc
    samples = np.frombuffer(mapped, header["dtype"], slow * fast, offset=4 + hlen)
    samples = samples.reshape(slow, fast)
    if non_finite_count(samples):  # which releases each block of the map once checked
        raise CorruptFramesError(f"{path}: non-finite samples in payload")
    truth = _build(tuple[RadarTarget, ...], header.get("truth", []), f"{path}: header truth")
    return DechirpFrameSet(samples=samples, acquisition=acq, truth=truth or None,
                           chirp=_build(ChirpParams, header["chirp"], f"{path}: header chirp"))


# ------------------------------------------------------------ CSV and JSON

class _NumberTexts(tuple):
    """A column of number texts, written as they are: a number's text needs no quotes.
    A slice is one too, so the writer's blocks keep the mark."""

    def __getitem__(self, key):
        item = super().__getitem__(key)
        return _NumberTexts(item) if isinstance(key, slice) else item


def _field(v) -> str:
    """``v`` as ``csv.writer`` writes it under a ``"\\n"`` line end: None empty, text quoted."""
    t = "" if v is None else str(v)
    return '"' + t.replace('"', '""') + '"' if "," in t or '"' in t or "\n" in t else t


def write_series_csv(path: str | Path, columns: dict[str, np.ndarray | list]) -> None:
    """Write named columns of equal length (else ``ValueError``) as a header line and one
    line per row, byte for byte what ``csv.writer(fh, lineterminator="\\n")`` writes."""
    lengths = {name: len(c) for name, c in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns of unequal lengths: {lengths}")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        def emit(cols: list) -> None:  # a lone empty field is quoted: its row is no blank line
            texts = [c if isinstance(c, _NumberTexts)
                     else list(map(str, c.tolist()))  # a number's text needs no quotes
                     if isinstance(c, np.ndarray) and c.dtype.kind in "biufc"
                     else map(_field, c) for c in cols]
            texts = [[t or '""' for t in texts[0]]] if len(texts) == 1 else texts
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
        emit([[name] for name in columns])
        for start in range(0, max(lengths.values(), default=0), 1024):  # blocks bound memory
            emit([c[start:start + 1024] for c in columns.values()])


def write_json(path: str | Path, document) -> None:
    """Write ``document`` as UTF-8 JSON, indented, with sorted keys."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")


@functools.lru_cache(maxsize=4)  # bounded: one entry per record length and rate
def _time_texts(count: int, rate: float) -> _NumberTexts:
    """The ``t_s`` column of ``count`` samples at ``rate``, ``k / rate`` as text."""
    return _NumberTexts(map(str, (np.arange(count) / rate).tolist()))


def write_intensity_csv(path: str | Path, record: IntensityRecord) -> None:
    """Write ``record`` as the columns ``t_s`` (``k / sample_rate``) and ``intensity``.

    Every contact channel of a bundle shares its sample count and rate, so the
    ``t_s`` text is formatted once per count and rate and shared (an immutable tuple).
    """
    write_series_csv(path, {"t_s": _time_texts(record.samples.size, record.sample_rate),
                            "intensity": record.samples})


def read_intensity_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The ``t_s`` and ``intensity`` columns; ``ValueError`` unless the file has
    rows, each of these two columns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data": rejected below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not data.size or data.shape[1] != 2:
        raise ValueError(f"{path}: {len(data)} rows of {data.shape[1]} columns, "
                         f"expected rows of t_s, intensity")
    return data[:, 0], data[:, 1]


# --------------------------------------------------------- scenario config

def scenario_to_dict(s: Scenario) -> dict:
    """Fully resolved, JSON-ready scenario description; its one duration is ``duration_s``."""
    config = _to_json(s)
    config["duration_s"] = config["acquisition"].pop("duration")
    return config


def scenario_from_dict(config: dict) -> Scenario:
    """Build a Scenario from a config dict (see README for the schema) by :func:`_build`:
    every default is its dataclass's, and subject entries may be preset names."""
    return _build(Scenario, config, "config")


def scenario_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a resolved config."""
    import hashlib  # here: it loads OpenSSL, which only a run that names or writes a bundle needs
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
    write_json(outdir / "scenario.json", config)

    truth = {"channels": {}}
    for wl, result in sorted(bundle.channels.items()):
        chdir = outdir / f"channel_{channel_name(wl)}"
        chdir.mkdir(exist_ok=True)
        entry = {"contact_subject": None, "targets": []}
        if result.intensity is not None:
            write_intensity_csv(chdir / RECORD_FILES[CONTACT_ROLE], result.intensity)
            entry["contact_subject"] = _to_json(result.contact_subject)
            entry["edge_warning"] = result.intensity.edge_warning
        if result.frames is not None:
            write_frames(result.frames, chdir / RECORD_FILES[CONTACTLESS_ROLE])
            entry["targets"] = [_to_json(t) for t in result.frames.truth or ()]
        truth["channels"][channel_name(wl)] = entry

    write_json(outdir / "truth.json", truth)
    if manifest is None:
        manifest = build_manifest("simulate", {}, config, bundle.scenario.seed)
    write_json(outdir / "manifest.json", manifest)
    return outdir


@dataclass
class LoadedBundle:
    channels: list[ChannelResult] = field(default_factory=list)


def read_bundle(bundle_dir: str | Path) -> LoadedBundle:
    """Load a bundle directory back into processable objects.

    The channels are ``scenario.json``'s, each listed once with a non-empty
    list of known ``roles``, and a channel directory holds exactly the
    ``RECORD_FILES`` of its roles; a missing one raises ``FileNotFoundError``.
    Each ``contact.csv`` must hold the ``duration_s`` record at
    ``contact_sample_rate``: its row count, and ``t_s`` the row index over
    that rate.  ``truth.json`` gives each contact record its ``edge_warning``
    (a JSON bool, default false) and its subject.  A malformed document or file
    raises ``ValueError``.
    """
    root = Path(bundle_dir)
    scenario_path = root / "scenario.json"
    if not scenario_path.is_file():
        raise FileNotFoundError(f"{root} is not a bundle: missing scenario.json")
    config = _object(loads_finite(scenario_path.read_text(encoding="utf-8")), "scenario.json")
    truth = {}
    truth_path = root / "truth.json"
    if truth_path.is_file():
        truth = _object(loads_finite(truth_path.read_text(encoding="utf-8")), "truth.json")
        truth = _object(truth.get("channels", {}), "truth.json channels")

    if not (channels := _build(tuple[dict, ...], config.get("channels", []),
                               "scenario.json channels")):
        raise ValueError("scenario.json has no channels")
    loaded = LoadedBundle()
    for chd in channels:
        check_fields(WdmChannel, wavelength_nm=(wl := chd["wavelength_nm"]))
        name = channel_name(wl)
        if any(channel_name(lc.wavelength_nm) == name for lc in loaded.channels):
            raise ValueError(f"scenario.json lists channel {name} twice")
        roles = chd.get("roles")
        if not (isinstance(roles, list) and roles
                and all(isinstance(r, str) and r in RECORD_FILES for r in roles)):
            raise ValueError(f"scenario.json channel {name} roles {roles!r} is not a "
                             f"non-empty list of {sorted(RECORD_FILES)}")
        chdir = root / f"channel_{name}"
        for role, file in RECORD_FILES.items():
            path = chdir / file
            if role in roles and not path.is_file():
                raise FileNotFoundError(f"{path}: missing, but channel {name} has the "
                                        f"{role} role")
            if role not in roles and path.exists():
                raise ValueError(f"{path}: channel {name} has no {role} role")
        entry = _object(truth.get(name, {}), f"truth.json channel {name}")
        intensity = frames = subject = None
        if CONTACT_ROLE in roles:
            contact_csv = chdir / RECORD_FILES[CONTACT_ROLE]
            t_s, samples = read_intensity_csv(contact_csv)
            rate, duration = config["contact_sample_rate"], config["duration_s"]
            check_fields({"contact_sample_rate": float, "duration_s": float},
                         contact_sample_rate=rate, duration_s=duration)
            count = make_time_grid(duration, rate).count
            if not np.array_equal(np.rint(t_s * rate), np.arange(count)):
                raise ValueError(f"{contact_csv}: t_s ({t_s.size} rows) is not k / {rate} for "
                                 f"k < {count}, the samples of {duration} s")
            if not isinstance(edge := entry.get("edge_warning", False), bool):
                raise ValueError(f"truth.json channel {name} edge_warning {edge!r} is not "
                                 f"a JSON bool")
            intensity = IntensityRecord(samples, rate, edge)
            subject = _build(SubjectVitals | None, entry.get("contact_subject"),
                             f"truth.json channel {name} contact_subject")
        if CONTACTLESS_ROLE in roles:
            frames = read_frames(chdir / RECORD_FILES[CONTACTLESS_ROLE])
        loaded.channels.append(ChannelResult(wl, subject, intensity, frames))
    return loaded
