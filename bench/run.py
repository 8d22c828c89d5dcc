"""vitalchirp benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload radar-4tgt-60s --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans around the calls into each module (see
README.md).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is imported from
``src/`` next to this directory; without it the run exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Cap BLAS/OpenMP threads at the usable cores before numpy loads; child
# processes inherit the caps.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

from reference import Reference  # noqa: E402  (imports numpy)
from tracer import LAYERS, Tracer, aggregate, append_spans, top_level_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-2ch-60s", "radar-4tgt-60s", "contact-wdm16-60s")

SETUP_IMPORTS = 5  # fresh interpreters timed per run for setup_s
IMPORTTIME_RUNS = 3  # `-X importtime` runs per traced run
MIN_ITERATIONS = 2

END_TO_END = {"setup_s": "s", "person_s_per_s": "person-s/s", "peak_rss_mb": "MiB"}

IMPORT_METRICS = {
    "import.vitalchirp_s": "vitalchirp",
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_constants_s": "scipy.constants",
    "import.scipy_special_s": "scipy.special",
}
COUNTED = ("physio.synth_motion", "photonics.contact_intensity", "radar.synth_dechirp_frames",
           "pipelines.range_profile", "pipelines.extract_target_phase", "dsp.design_bandpass",
           "dsp.filter_zero_phase", "dsp.spectrum")
SIZED = ("radar.synth_dechirp_frames", "formats.write_frames", "formats.read_frames",
         "formats.write_series_csv")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in IMPORT_METRICS}
    for module, functions in LAYERS.items():
        for fn in functions:
            units[f"{module}.{fn}.s"] = "s"
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update({f"{name}.bytes": "bytes" for name in SIZED})
    units["pipelines.range_profile.per_target"] = "ratio"
    units["dsp.design_bandpass.unique_specs"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.accounted_share"] = "ratio"
    return units


# ------------------------------------------------------------ environment

def load_package():
    """Import vitalchirp from this checkout's src/, or exit non-zero."""
    if not (SRC / "vitalchirp" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC}/vitalchirp")
    sys.path.insert(0, str(SRC))
    import vitalchirp

    if Path(vitalchirp.__file__).resolve().parent != SRC / "vitalchirp":
        sys.exit(f"bench: imported vitalchirp from {vitalchirp.__file__}, not {SRC}")
    return vitalchirp


def child_env(work: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), VITALCHIRP_OUT=str(work),
                TMPDIR=str(work))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, config: dict) -> dict:
    import numpy
    import scipy
    from workloads import sha256_json

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "config_sha256": sha256_json(config),
    }


# ------------------------------------------------------------- statistics

def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        beyond = sum(1 for v in ordered if v > ordered[int(len(ordered) * pct / 100)])
        if beyond >= 10:
            return f"p{pct}", ordered[int(len(ordered) * pct / 100)]
    return None


def describe(samples: list[float]) -> dict:
    if not samples:
        return {"n": 0}
    out = {"n": len(samples), "median": statistics.median(samples)}
    pct = tail(samples)
    if pct is not None:
        out[pct[0]] = pct[1]
    return out


# ------------------------------------------------------- fresh interpreters

def time_imports(env: dict, work: Path, count: int, extra: tuple = (),
                 reference=None) -> list:
    """(wall s, normalized s or None, log) of ``count`` fresh ``import vitalchirp`` runs."""
    from workloads import wait_child

    # One untimed run compiles bytecode and warms the page cache.
    wait_child([sys.executable, "-c", "import vitalchirp.cli"], env, work / "warm.log")
    if reference is not None:
        reference.measure()
    runs = []
    for k in range(count):
        log = work / f"import-{k}.log"
        code, wall, _ = wait_child([sys.executable, *extra, "-c", "import vitalchirp"],
                                   env, log)
        if code != 0:
            sys.exit(f"bench: `import vitalchirp` failed:\n{log.read_text()[-2000:]}")
        if reference is not None:
            mark = reference.mark()
            reference.measure()
            runs.append((wall, wall * reference.scale(mark), log))
        else:
            runs.append((wall, None, log))
    return runs


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of the topmost import of each module in IMPORT_METRICS.

    ``-X importtime`` lists imports children first, indented two spaces
    per level.  Walking the list backwards visits each parent before its
    children, so a stack of ancestors tells whether an entry is nested in
    another entry of the same package.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip(), int(cumulative)))
    totals = dict.fromkeys(IMPORT_METRICS, 0.0)
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for metric, module in IMPORT_METRICS.items():
            def inside(n, m=module):
                return n == m or n.startswith(m + ".")
            if inside(name) and not any(inside(anc) for _, anc in stack):
                totals[metric] += cumulative / 1e6
        stack.append((depth, name))
    return totals


# ------------------------------------------------------------------- runs

class Run:
    """Iterations of one workload, with their checks and digests."""

    def __init__(self, workload, chk):
        self.workload = workload
        self.chk = chk
        self.first = None
        self.digests: list[dict] = []

    def once(self, iteration: int, tracer=None, reference=None):
        """Run and verify one iteration.

        Returns (wall s, normalized s or None, outputs), or None when an
        operation failed.
        """
        from workloads import OpFailed

        norm = None
        try:
            if not self.workload.in_process:
                elapsed, out = self.workload.iterate(
                    self.chk, iteration, traced=tracer is not None, reference=reference)
                if reference is not None:
                    norm = sum(out["norm"].values())
            elif tracer is None:
                mark = reference.mark() if reference is not None else None
                elapsed, out = self.workload.iterate(self.chk, iteration)
                if reference is not None:
                    reference.measure()
                    norm = elapsed * reference.scale(mark)
            else:
                tracer.iteration = iteration
                tracer.install()
                try:
                    elapsed, out = self.workload.iterate(self.chk, iteration)
                finally:
                    tracer.uninstall()
        except OpFailed:
            return None
        try:
            digests = self.workload.verify(self.chk, out)
        except Exception as exc:  # a missing or malformed output is a failed check
            self.chk.fail(f"verify: {type(exc).__name__}: {exc}")
            return None
        if self.first is None:
            self.first = digests
            self.digests.append(digests)
        elif digests != self.first:
            self.chk.fail("outputs differ from the first iteration")
            self.digests.append(digests)
        return elapsed, norm, out


def measure(workload, chk, seconds: float, env: dict, work: Path, trace: bool) -> dict:
    """Set-up, warm-up, then iterations until ``seconds`` have passed.

    Untraced runs bracket every timed unit with a reference kernel (see
    reference.py).  Traced runs alternate untraced and traced iterations,
    so the difference of their medians is the tracing overhead.
    """
    samples: dict[str, list[float]] = {}
    result = {"samples": samples, "extra": {}}
    if trace:
        runs = time_imports(env, work, IMPORTTIME_RUNS, ("-X", "importtime"))
        parsed = [parse_importtime(log.read_text()) for _, _, log in runs]
        result["imports"] = {m: statistics.median(p[m] for p in parsed) for m in IMPORT_METRICS}
        reference = None
    else:
        runs = time_imports(env, work, SETUP_IMPORTS, reference=Reference("process", env))
        samples["setup_raw_s"] = [wall for wall, _, _ in runs]
        samples["setup_s"] = [norm for _, norm, _ in runs]
        reference = Reference("frames") if workload.in_process else Reference("process", env)

    run = Run(workload, chk)
    if workload.in_process:
        start = time.perf_counter()
        run.once(0)
        result["extra"]["warmup_s"] = time.perf_counter() - start
    if reference is not None:
        reference.measure()

    tracer = Tracer() if trace else None
    spans, rss_kb = [], []
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        begin = time.perf_counter()
        iteration += 1
        done = run.once(iteration, reference=reference)
        if done is not None:
            wall, norm, out = done
            samples.setdefault("iter_s", []).append(wall)
            if norm is not None:
                samples.setdefault("iter_norm_s", []).append(norm)
            for name, value in out.get("walls", {}).items():
                samples.setdefault(f"{name}_s", []).append(value)
            for name, value in out.get("norm", {}).items():
                samples.setdefault(f"{name}_norm_s", []).append(value)
            if "rss_kb" in out:
                rss_kb.append(out["rss_kb"])
        if trace:
            iteration += 1
            done = run.once(iteration, tracer)
            if done is not None:
                samples.setdefault("traced_iter_s", []).append(done[0])
                append_spans(spans, tracer.spans if workload.in_process
                             else workload.take_spans())
                tracer.spans.clear()
        now = time.perf_counter()
        if iteration >= MIN_ITERATIONS and now + (now - begin) > deadline:
            break

    if reference is not None:
        samples["reference_s"] = reference.samples
    result["peak_rss_kb"] = (
        max(rss_kb) if rss_kb else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    result["spans"] = spans
    result["digests"] = run.digests
    return result


def layer_metrics(result: dict) -> dict[str, float]:
    spans, traced = result["spans"], result["samples"].get("traced_iter_s", [])
    n = max(len(traced), 1)
    agg = aggregate(spans)
    units = per_layer_units()
    metrics = dict(result["imports"])
    for name in units:
        base, _, field = name.rpartition(".")
        if base in ("trace",) or name in metrics:
            continue
        a = agg.get(base)
        if a is None:
            metrics[name] = 0.0
        elif field == "s":
            metrics[name] = a["self_s"] / n
        elif field == "calls":
            metrics[name] = a["calls"] / n
        elif field == "bytes":
            metrics[name] = a["total"] / n
        elif field == "per_target":
            reports = agg.get("pipelines.contactless_rates", {}).get("total", 0)
            metrics[name] = a["calls"] / reports if reports else 0.0
        elif field == "unique_specs":
            metrics[name] = len(a["distinct"]) / a["calls"]
    untraced = result["samples"].get("iter_s", [])
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced) if traced and untraced else 0.0
    )
    metrics["trace.accounted_share"] = top_level_seconds(spans) / sum(traced) if traced else 0.0
    return metrics


def print_layer_table(spans: list, n: int) -> None:
    print(f"{'span':34s} {'calls/iter':>10s} {'self ms/iter':>12s} "
          f"{'self ms/call':>12s} {'incl ms/call':>12s}")
    for name, a in sorted(aggregate(spans).items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:34s} {a['calls'] / n:10.1f} {1e3 * a['self_s'] / n:12.2f} "
              f"{1e3 * a['self_s'] / a['calls']:12.3f} {1e3 * a['incl_s'] / a['calls']:12.3f}")


def execute(name: str, seed: int, seconds: float, trace: bool):
    """Set up and measure one workload in a scratch directory of the checkout."""
    load_package()
    import workloads

    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        env = child_env(work)
        cls = workloads.WORKLOADS[name]
        workload = cls(seed, work, env) if not cls.in_process else cls(seed, work)
        chk = workloads.Checker()
        return workload, chk, measure(workload, chk, seconds, env, work, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload, chk, result = execute(name, seed, seconds, trace)
    import workloads

    samples = result["samples"]
    person_s = workload.persons * workloads.RECORD_S
    iters = samples.get("iter_s", [])
    extra = {
        "error_rate": chk.failed / max(chk.attempted, 1),
        "max_resp_err_rpm": max(chk.resp_err, default=0.0),
        "max_heart_err_bpm": max(chk.heart_err, default=0.0),
        "raw_person_s_per_s": person_s / statistics.median(iters) if iters else 0.0,
        **result["extra"],
    }
    if trace:
        metrics = layer_metrics(result)
        units = per_layer_units()
    else:
        norm = samples.get("iter_norm_s")
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "person_s_per_s": person_s / statistics.median(norm) if norm else 0.0,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END
    correct = chk.failed == 0 and bool(iters)

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"closed loop, 1 client, sequential")
    for key, values in samples.items():
        d = describe(values)
        pct = "".join(f"  {k} {v:.4f} s" for k, v in d.items() if k.startswith("p"))
        med = f"{d['median']:.4f} s" if values else "-"
        print(f"  timing {key:22s} median {med}{pct}  n={d['n']}")
    for key, value in extra.items():
        unit = {"error_rate": "ratio", "max_resp_err_rpm": "rpm", "max_heart_err_bpm": "bpm",
                "raw_person_s_per_s": "person-s/s"}.get(key, "s")
        print(f"  {key:29s} {value:.6g} {unit}")
    if trace:
        print_layer_table(result["spans"], max(len(samples.get("traced_iter_s", [])), 1))
    for key, value in metrics.items():
        print(f"  metric {key:38s} {value:.6g} {units[key]}")
    for problem in chk.problems[:20]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(environment(seed, workload.config), sort_keys=True))
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a summary line per metric at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
