"""Import structure: nothing in the package imports scipy, so no command pays
for it, no processing command loads OpenSSL or calls LAPACK, only a command that reads
frames loads ``mmap`` (each maps its frames file once), only ``formats``
encodes files, only ``radar`` starts threads, only the records cut by
``physio.prefix_length``, and no module reaches into a sibling module's private
names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import vitalchirp
from vitalchirp.cli import main

PACKAGE = Path(vitalchirp.__file__).parent


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_nothing_under_src_imports_scipy():
    importers = sorted(p.stem for p in PACKAGE.glob("*.py") if "scipy" in _imported_roots(p))
    assert importers == []


def test_only_formats_encodes_files():
    encoders = sorted(p.stem for p in PACKAGE.glob("*.py")
                      if {"csv", "json"} & set(_imported_roots(p)))
    assert encoders == ["formats"]


def _names_a_thread(path):
    """Whether ``path`` refers to ``threading.Thread`` or imports a pool of workers."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr == "Thread"
                and isinstance(node.value, ast.Name) and node.value.id == "threading"):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "threading"
                and any(alias.name == "Thread" for alias in node.names)):
            return True
    return bool({"concurrent", "multiprocessing"} & set(_imported_roots(path)))


def test_only_radar_starts_threads():
    # one threading path: every row-block worker starts in ``radar.run_blocks``
    starters = sorted(p.stem for p in PACKAGE.glob("*.py") if _names_a_thread(p))
    assert starters == ["radar"]


SMALL_CONFIG = {
    "duration_s": 10.0,
    "seed": 3,
    "channels": [{
        "wavelength_nm": 1549.36,
        "roles": ["contact", "contactless"],
        "if_lfm": {"center_freq": 6.6e9, "bandwidth": 1e9,
                   "pulse_period": 100e-6, "pulse_width": 60e-6},
        "fbg": {"notch_depth_db": 17.70, "fwhm_3db": 11.2e9},
        "contact_subject": "subject-a",
        "radar_targets": [{"subject": "subject-b", "range_m": 1.00}],
    }],
}

# Runs in a fresh interpreter: import the package, then each command in turn, on the
# bundle the test wrote, and print after each step the scipy modules loaded, whether
# OpenSSL's ``_hashlib`` is loaded, how often ``numpy.roots`` (LAPACK) was called and how
# many files were mapped so far; and whether the imports loaded ``mmap``.  ``simulate``
# runs last: it names its bundle by a SHA-256, so it may load ``_hashlib``.
COMMANDS = """
import json, sys
import numpy
roots, calls = numpy.roots, []
def counted(p):
    calls.append(p)
    return roots(p)
numpy.roots = counted
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def footprint():
    return ["_hashlib" in sys.modules, len(calls)]
import vitalchirp
steps = {"import vitalchirp": loaded()}
footprints = {"import vitalchirp": footprint()}
from vitalchirp.cli import main
imports_map = "mmap" in sys.modules
import mmap
maps = []
class CountedMap(mmap.mmap):
    def __new__(cls, *args, **kwargs):
        maps.append(args)
        return super().__new__(cls, *args, **kwargs)
mmap.mmap = CountedMap
mapped = {}
work = sys.argv[1]
for name, argv in [
    ("process", ["process", f"{work}/b", "--out", f"{work}/r"]),
    ("process --format csv", ["process", f"{work}/b", "--format", "csv", "--out", f"{work}/c"]),
    ("sweep", ["sweep", f"{work}/b", "--durations", "5,10", "--out", f"{work}/s"]),
    ("filter-design", ["filter-design", "--band", "0.8", "1.9", "--sample-rate", "50",
                       "--out", f"{work}/f"]),
    ("simulate", ["simulate", "--config", f"{work}/config.json", "--out", f"{work}/b2"]),
]:
    steps[name] = [main(argv), loaded()]
    footprints[name] = footprint()
    mapped[name] = len(maps)
print(json.dumps([steps, footprints, imports_map, mapped]))
"""


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(SMALL_CONFIG))
    assert main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "b")]) == 0
    done = subprocess.run([sys.executable, "-c", COMMANDS, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    steps, footprints, imports_map, mapped = json.loads(done.stdout.splitlines()[-1])
    assert steps == {"import vitalchirp": [],
                     **{name: [0, []] for name in ("simulate", "process", "process --format csv",
                                                   "sweep", "filter-design")}}
    # no OpenSSL and no LAPACK on the processing path; only simulate hashes its config
    lean = ["import vitalchirp", "process", "process --format csv", "sweep", "filter-design"]
    assert {name: footprints[name] for name in lean} == {name: [False, 0] for name in lean}
    assert footprints["simulate"][1] == 0
    # no import loads mmap; each command that reads the bundle maps its one frames file
    assert not imports_map
    assert mapped == {"process": 1, "process --format csv": 2, "sweep": 3, "filter-design": 3,
                      "simulate": 3}


def _names(path):
    """Every identifier ``path`` binds, reads or imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_the_records_cut_by_the_prefix_rule():
    # one cut rule: a record's own ``truncated``; every other caller cuts through it
    users = sorted(p.stem for p in PACKAGE.glob("*.py") if "prefix_length" in _names(p))
    assert users == ["photonics", "physio", "radar"]


def _sibling_private_names(path, siblings):
    """``<line> <module>.<name>`` for each private name ``path`` reads from a sibling."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.lineno} {node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in siblings:
            yield from (f"{node.lineno} {node.module}.{alias.name}"
                        for alias in node.names if alias.name.startswith("_"))


def test_no_module_reads_a_siblings_private_names():
    siblings = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    found = {p.name: hits for p in sorted(PACKAGE.glob("*.py"))
             if (hits := list(_sibling_private_names(p, siblings)))}
    assert found == {}
