"""Self-checks of the benchmark: metric names, tracer coverage, digests.

    python3 -m pytest bench/tests -q

The coverage checks run one untraced and one traced iteration of each
workload (about a minute in all).
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LAYERS, aggregate, append_spans, self_times  # noqa: E402

ALL_SPANS = {f"{m}.{f}" for m, fns in LAYERS.items() for f in fns}
DSP = {"dsp.design_bandpass", "dsp.filter_zero_phase", "dsp.spectrum", "dsp.peak_search",
       "dsp.bandwidth_3db"}
SCENARIO = {"scenario.run_scenario", "scenario.validate_scenario", "physio.synth_motion"}
RADAR = {"radar.synth_dechirp_frames", "pipelines.range_profile",
         "pipelines.extract_target_phase", "pipelines.contactless_rates", "dsp.unwrap_phase"}

# Spans each workload must record at least once.
EXERCISED = {
    "cli-2ch-60s": ALL_SPANS,
    "radar-4tgt-60s": SCENARIO | DSP | RADAR | {"pipelines.resolution_sweep"},
    "contact-wdm16-60s": SCENARIO | DSP | {
        "photonics.contact_intensity", "pipelines.contact_rates",
        "pipelines.resolution_sweep", "formats.write_bundle", "formats.write_series_csv",
        "formats.read_bundle", "formats.read_intensity_csv"},
}
# Spans a workload must never record.
ABSENT = {"contact-wdm16-60s": RADAR, "radar-4tgt-60s": {"formats.write_bundle",
                                                         "formats.read_bundle", "cli.main"}}


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["command"] == ["python3", "bench/run.py"]


def test_parse_importtime_takes_the_topmost_entry_of_each_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.special._ufuncs",
        "import time:        50 |        150 |     scipy.special",
        "import time:        10 |        300 |   scipy.signal.windows",
        "import time:        20 |        400 |   scipy.signal._sigtools",
        "import time:        30 |       1000 | vitalchirp",
    ])
    got = run.parse_importtime(text)
    assert got["import.vitalchirp_s"] == pytest.approx(1000e-6)
    assert got["import.scipy_special_s"] == pytest.approx(150e-6)
    assert got["import.scipy_signal_s"] == pytest.approx(700e-6)
    assert got["import.scipy_constants_s"] == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 1, None, 0.0, 10.0, None],
        ["mid", 1, 0, 1.0, 7.0, None],
        ["leaf", 1, 1, 2.0, 5.0, None],
        ["leaf", 1, 0, 8.0, 9.0, None],
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    agg = aggregate(spans)
    assert agg["leaf"]["calls"] == 2 and agg["leaf"]["self_s"] == 4.0
    # A second iteration's spans keep their own nesting once appended.
    merged: list = []
    append_spans(merged, spans)
    append_spans(merged, spans)
    assert self_times(merged) == [3.0, 3.0, 3.0, 1.0] * 2


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced(request):
    workload, chk, result = run.execute(request.param, seed=3, seconds=0, trace=True)
    return request.param, chk, result


def test_every_layer_is_recorded_where_it_should_be(traced):
    name, chk, result = traced
    assert chk.failed == 0, chk.problems
    calls = {k: v["calls"] for k, v in aggregate(result["spans"]).items()}
    missing = sorted(s for s in EXERCISED[name] if not calls.get(s))
    assert not missing, f"{name} never recorded {missing}"
    present = sorted(s for s in ABSENT.get(name, ()) if calls.get(s))
    assert not present, f"{name} recorded {present}"
    metrics = run.layer_metrics(result)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["import.vitalchirp_s"] > 0
    # In-process spans cover the whole iteration; a CLI child's spans miss
    # only interpreter start-up and exit.
    floor = 0.7 if name == "cli-2ch-60s" else 0.95
    assert floor < metrics["trace.accounted_share"] <= 1.0


def test_outputs_are_identical_with_tracing_on_and_off(traced):
    name, chk, result = traced
    # Run.once fails the checker when an iteration's digests differ from
    # the first; warm-up, untraced and traced iterations all took part.
    assert len(result["samples"]["iter_s"]) >= 1
    assert len(result["samples"]["traced_iter_s"]) >= 1
    assert chk.failed == 0, chk.problems
    assert len(result["digests"]) == 1
