"""A seeded mutation probe: ``process`` on a bundle with one thing wrong in it
ends with an exit code, never a traceback, and never misreads the contact
record or the frames layout silently.

Each of about 200 mutations changes one value of ``scenario.json``,
``truth.json`` or a frames header (deleted, or set to one of
``PROBE_VALUES``), or one line of a ``contact.csv`` (dropped, its intensity
set to ``nan`` or to text, an extra column, the file cut inside it), or
empties that file.
"""

import copy
import json
import shutil
import struct

import numpy as np
import pytest

from vitalchirp.cli import main

from conftest import frames_header
from test_cli import CONFIG, write_config

SEED = 20261019
DELETE = object()
PROBE_VALUES = (DELETE, None, [], {}, "text", -1, 0, 1e300, True, 10**400)
# the frames header's copies of the payload layout, counts and rates
GUARDED_HEADER_KEYS = ("dtype", "order", "slow_count", "fast_count", "slow_rate_hz",
                       "fast_rate_sa_s")
FRAMES = "channel_1549.36/frames.bin"
CONTACT_CSVS = ("channel_1549.36/contact.csv", "channel_1549.92/contact.csv")


def _json_paths(doc, path=()):
    """The path of every value below the root of the JSON document ``doc``."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _set(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` deleted or replaced by ``value``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _json_mutations(bundle):
    """``(file, path, value)`` for every path and probe value of the three JSON documents."""
    docs = {name: json.loads((bundle / name).read_text()) for name in ("scenario.json",
                                                                       "truth.json")}
    docs[FRAMES] = frames_header(bundle / FRAMES)[0]
    return [(name, path, value) for name, doc in docs.items()
            for path in _json_paths(doc) for value in PROBE_VALUES]


def _csv_mutations(bundle):
    """``(file, kind, line)`` for each line mutation of each contact record, and emptying it."""
    return [(name, kind, i) for name in CONTACT_CSVS
            for i in range((bundle / name).read_text().count("\n"))
            for kind in ("drop", "nan", "text", "extra", "cut")] + [
        (name, "empty", 0) for name in CONTACT_CSVS]


def _mutated_bytes(original, mutation):
    name, where, value = mutation
    if name == FRAMES:
        (hlen,) = struct.unpack("<I", original[:4])
        header = _set(json.loads(original[4:4 + hlen]), where, value)
        blob = json.dumps(header, sort_keys=True).encode()
        return struct.pack("<I", len(blob)) + blob + original[4 + hlen:]
    text = original.decode()
    if name.endswith(".json"):
        return json.dumps(_set(json.loads(text), where, value)).encode()
    kind, i = where, value
    if kind == "empty":
        return b""
    lines = text.splitlines(keepends=True)
    if kind == "cut":  # the file ends in the middle of line i
        return "".join(lines[:i] + [lines[i][:len(lines[i]) // 2]]).encode()
    t_s = lines[i].split(",")[0]
    lines[i] = {"drop": "", "nan": f"{t_s},nan\n", "text": f"{t_s},text\n",
                "extra": lines[i].rstrip("\n") + ",0\n"}[kind]
    return "".join(lines).encode()


def _guarded(mutation):
    name, where, _ = mutation
    return name in CONTACT_CSVS or (name == FRAMES and where[0] in GUARDED_HEADER_KEYS)


def _exact_values(out):
    return [(r["label"], {k: v for k, v in r.items() if k.endswith("_exact")})
            for r in json.loads((out / "reports.json").read_text())]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("probe")
    config = write_config(tmp, {**CONFIG, "duration_s": 10.0, "seed": 1})
    assert main(["simulate", "--config", str(config), "--out", str(tmp / "bundle")]) == 0
    return tmp / "bundle"


def _sample(rng, mutations, count):
    return [mutations[i] for i in sorted(rng.choice(len(mutations), count, replace=False))]


def test_mutated_bundles_exit_cleanly_and_never_misread(bundle, tmp_path, capsys):
    work, out = tmp_path / "bundle", tmp_path / "out"
    shutil.copytree(bundle, work)
    assert main(["process", str(work), "--out", str(out)]) == 0
    want = _exact_values(out)

    rng = np.random.default_rng(SEED)
    json_mutations = _json_mutations(bundle)
    header = [m for m in json_mutations if _guarded(m)]
    rest = [m for m in json_mutations if not _guarded(m)]
    mutations = header + _sample(rng, _csv_mutations(bundle), 40) + _sample(rng, rest, 100)
    assert len(header) == len(GUARDED_HEADER_KEYS) * len(PROBE_VALUES)

    outcomes = []
    for mutation in mutations:
        target = work / mutation[0]
        original = target.read_bytes()
        target.write_bytes(_mutated_bytes(original, mutation))
        (out / "reports.json").unlink(missing_ok=True)
        try:
            code = main(["process", str(work), "--out", str(out)])
        except Exception as exc:  # a traceback is the fault this probe looks for
            code = repr(exc)
        finally:
            target.write_bytes(original)
        outcomes.append((mutation, code, _exact_values(out) if code == 0 else None))
        capsys.readouterr()

    assert [(m, code) for m, code, _ in outcomes if code not in (0, 2, 3, 4)] == []
    assert [m for m, code, got in outcomes if _guarded(m) and code == 0 and got != want] == []
    assert {0, 2, 3} <= {code for _, code, _ in outcomes}
