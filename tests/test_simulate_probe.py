"""A seeded mutation probe: ``simulate`` on a config with one thing wrong in it
ends with an exit code, never a traceback.

Each mutation deletes one leaf of a 10 s ``test_cli.CONFIG`` whose
``acquisition`` spells out every entry, or sets it to one of the bundle
probe's ``PROBE_VALUES`` or to 1e-300.  A seeded sample of them runs, and
always the three that reach synthesis: a target at 1e-300 m and an amplitude
exponent of 1e300, whose echo amplitudes are past the float range (exit 2), and
a duration of 1e12 s, whose records cannot be allocated (exit 4).  No mutation
asks for a record that can be allocated yet is large: durations of about
1e5-1e8 s would take gigabytes.
"""

import shutil
from dataclasses import asdict

import numpy as np

from vitalchirp.cli import main
from vitalchirp.radar import AcquisitionParams

from test_bundle_probe import PROBE_VALUES, _json_paths, _set
from test_cli import CONFIG, write_config

SEED = 20261020
SAMPLE = 200
VALUES = PROBE_VALUES + (1e-300,)
BASE = {**CONFIG, "duration_s": 10.0, "acquisition": {
    **{k: v for k, v in asdict(AcquisitionParams()).items() if k != "duration"},
    **CONFIG["acquisition"]}}
ALWAYS = [
    (("channels", 0, "radar_targets", 0, "range_m"), 1e-300, 2),
    (("acquisition", "amplitude_exponent"), 1e300, 2),
    (("duration_s",), 1e12, 4),
]


def _leaves(doc):
    """The path of every value of ``doc`` that is neither an object nor a list."""
    def value(path):
        node = doc
        for key in path:
            node = node[key]
        return node
    return [path for path in _json_paths(doc) if not isinstance(value(path), (dict, list))]


def test_mutated_configs_exit_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    mutations = [(path, value) for path in _leaves(BASE) for value in VALUES]
    sample = [mutations[i] for i in sorted(rng.choice(len(mutations), SAMPLE, replace=False))]
    out = tmp_path / "bundle"
    outcomes = []
    for path, value in [(path, value) for path, value, _ in ALWAYS] + sample:
        config = write_config(tmp_path, _set(BASE, path, value))
        try:
            code = main(["simulate", "--config", str(config), "--out", str(out)])
        except Exception as exc:  # a traceback is the fault this probe looks for
            code = repr(exc)
        shutil.rmtree(out, ignore_errors=True)
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("warning: ")]
        outcomes.append((path, value, code, errors))

    assert [(p, v, code) for p, v, code, _ in outcomes if code not in (0, 2, 3, 4)] == []
    assert [(p, v, code) for p, v, code, _ in outcomes[:len(ALWAYS)]] == ALWAYS
    (line,) = outcomes[len(ALWAYS) - 1][3]  # one line for the allocation that failed
    assert line.startswith("simulation failed: ")
    assert {0, 2} <= {code for _, _, code, _ in outcomes}
