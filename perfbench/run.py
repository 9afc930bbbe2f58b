"""The diffcap benchmark: closed-loop workloads with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scheme-uniform --seed 1 --seconds 20 --trace 0

Each run sets the library up, then sends one request at a time (the next only
after the previous returned) in whole cycles of the workload's design until
``--seconds`` have passed and at least MIN_REQUESTS ran.  Every output is
checked outside its latency.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and prints the per-layer
metrics.  The last line of standard output is one JSON object.

The drawn requests, the result and (traced) the spans are written to
``perfbench/results/<workload>-seed<seed>-trace<0|1>/``; ``--replay`` runs the
cycles of such a ``requests.json`` again.  ``--smoke`` runs a few requests of
every workload, both ways, and exits non-zero on a wrong output or a failure.

After the timed cycles each run sends the workload's known-defect probes
(see workloads.py) once, untimed and uncounted, and reports which defects
still reproduce.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: requests a run holds at least, in whole cycles: keeps ten beyond p90
MIN_REQUESTS = 100
#: untraced/traced cycle pairs a traced run holds at least
TRACED_MIN_PAIRS = 2
#: a run starts no cycle after this, whatever it measured
HARD_CAP_S = 120.0
#: set-up probes (fresh processes), half before and half after the cycles,
#: so that their median spans the run rather than one stretch of the host
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60.0
#: successful requests re-run under tracemalloc in the traced run
HEAP_SAMPLES = 6
SMOKE_REQUESTS = 3
#: the kernel mix (speed.py) that slows down as each workload's requests do
SPEED_MIX = {"scheme-uniform": "stepper", "cli-graded": "python", "verify": "stepper"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "grid_points_per_s": "1/s",
    "max_rel_err": "ratio",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    **tracing.UNITS,
    "steppers.heap_peak_kib": "KiB",
    "trace.overhead_ratio": "ratio",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed requests enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """One workload in one process: set-up state, requests and their records."""

    def __init__(self, lib, workload: str, scratch: Path) -> None:
        from speed import SpeedMeter

        self.lib = lib
        self.workload = workload
        self.scratch = scratch
        self.tracer = None
        self.state = workloads.setup(workload, lib)
        self.speed = SpeedMeter(SPEED_MIX[workload])

    def execute(self, req: dict) -> dict:
        """Run one request (timed), then check its output (not timed)."""
        self.speed.sample()
        tracer = self.tracer
        if tracer is not None:
            tracer.request = req["id"]
            tracer.begin("bench.request")
        start = perf_counter()
        try:
            result = workloads.run_request(self.workload, req, self.lib, self.state, self.scratch)
            error = None
        except Exception as exc:  # a failing request is a measurement, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        if tracer is not None:
            tracer.end()
            tracer.request = None
        self.speed.sample()
        record = {"id": req["id"], "latency": latency, "ref_latency": latency * self.speed.scale(),
                  "error": error, "wrong": None, "rel_err": None}
        if error is None:
            try:
                record["rel_err"] = workloads.check_request(self.workload, req, result, self.lib)
            except workloads.CheckFailed as exc:
                record["wrong"] = str(exc)
            except Exception as exc:  # the check's own oracle failed: not a verified output
                record["wrong"] = f"check raised {type(exc).__name__}: {exc}"
        record["ok"] = record["error"] is None and record["wrong"] is None
        record["points"] = workloads.grid_points(req) if record["ok"] else 0
        return record

    def cycles(self, cycle_source, seconds: float) -> tuple[list, list]:
        """Whole cycles until ``seconds`` passed and MIN_REQUESTS ran."""
        records, drawn = [], []
        start = perf_counter()
        index = 0
        while (reqs := cycle_source(index)) is not None:
            drawn.append(reqs)
            records += [self.execute(req) for req in reqs]
            index += 1
            elapsed = perf_counter() - start
            if (len(records) >= MIN_REQUESTS and elapsed >= seconds) or elapsed >= HARD_CAP_S:
                break
        return records, drawn

    def traced_cycles(self, tracer, cycle_source, seconds: float) -> tuple[list, list, list]:
        """Untraced and traced cycles in turn, so both see the same host; the
        untraced ones are the baseline of the tracing overhead."""
        saved = tracing.install(tracer, self.lib)
        try:
            tracer.request = "setup"
            tracer.begin("bench.setup")
            self.state = workloads.setup(self.workload, self.lib)
            tracer.end()
        finally:
            tracer.request = None
            tracing.uninstall(saved)
        baseline, traced, drawn = [], [], []
        start = perf_counter()
        index = 0
        while (reqs := cycle_source(index)) is not None:
            drawn.append(reqs)
            if index % 2 == 0:
                baseline += [self.execute(req) for req in reqs]
            else:
                saved = tracing.install(tracer, self.lib)
                self.tracer = tracer
                try:
                    traced += [self.execute(req) for req in reqs]
                finally:
                    self.tracer = None
                    tracing.uninstall(saved)
            index += 1
            elapsed = perf_counter() - start
            if index % 2 == 0 and ((index >= 2 * TRACED_MIN_PAIRS and elapsed >= seconds)
                                   or elapsed >= HARD_CAP_S):
                break
        return baseline, traced, drawn

    def known_defects(self, probes: list[dict]) -> dict:
        """Whether each probe still fails: its error, or None once it succeeds."""
        outcomes = {}
        for req in probes:
            try:
                result = workloads.run_request(self.workload, req, self.lib, self.state,
                                               self.scratch)
                workloads.check_request(self.workload, req, result, self.lib)
                outcomes[req["defect"]] = None
            except Exception as exc:  # the defect reproduces
                outcomes[req["defect"]] = " ".join(f"{type(exc).__name__}: {exc}".split())[:200]
        return outcomes

    def heap_peaks(self, reqs: list[dict]) -> list[float]:
        """tracemalloc peak of each request, in KiB above the memory held before it."""
        import tracemalloc

        peaks = []
        tracemalloc.start()
        try:
            for req in reqs:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                try:
                    workloads.run_request(self.workload, req, self.lib, self.state, self.scratch)
                except Exception:  # the timed cycles already count this failure
                    continue
                peaks.append((tracemalloc.get_traced_memory()[1] - before) / 1024.0)
        finally:
            tracemalloc.stop()
        return peaks


def _summary(records: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems).  The timed cycles hold only
    requests that succeed today, so a run is incorrect when any output is
    wrong or any request fails."""
    problems = []
    for r in records:
        if r["wrong"] is not None:
            problems.append(f"{r['id']}: wrong output: {r['wrong']}")
        elif r["error"] is not None:
            problems.append(f"{r['id']}: failed: {r['error']}")
    failed = sum(1 for r in records if not r["ok"])
    return not problems, len(records), failed, problems


def _latencies(records: list[dict], key: str = "ref_latency") -> list[float]:
    return [r[key] if r["ok"] else math.inf for r in records]


def measured_seconds(records: list[dict]) -> dict:
    """The measured seconds behind the reference-second metrics, for the record."""
    latencies = _latencies(records, "latency")
    return {"latency_p50_s": _percentile(latencies, 0.5),
            "latency_p90_s": _percentile(latencies, 0.9),
            "grid_points_per_s": sum(r["points"] for r in records)
            / sum(r["latency"] for r in records)}


def end_to_end(records: list[dict], setup_s: float) -> dict:
    """Timings are in reference seconds (see speed.py)."""
    latencies = _latencies(records)
    errs = [r["rel_err"] for r in records if r["rel_err"] is not None]
    return {
        "setup_s": setup_s,
        "latency_p50_s": _percentile(latencies, 0.5),
        "latency_p90_s": _percentile(latencies, 0.9),
        "grid_points_per_s": sum(r["points"] for r in records)
        / sum(r["ref_latency"] for r in records),
        "max_rel_err": max(errs) if errs else math.nan,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, tracer, baseline: list, traced: list, drawn: list) -> tuple:
    """(per-layer metrics, layer self-time shares) of a traced run."""
    # the t = a point of a grid needs no oracle call
    infos = {r["id"]: {"ok": r["ok"], "points": max(r["points"] - 1, 0)} for r in traced}
    metrics, shares = tracing.layer_metrics(tracer, infos)
    peaks = runner.heap_peaks(drawn[0][:HEAP_SAMPLES])
    metrics["steppers.heap_peak_kib"] = statistics.median(peaks)
    metrics["trace.overhead_ratio"] = (_percentile(_latencies(traced), 0.5)
                                       / _percentile(_latencies(baseline), 0.5))
    return metrics, shares


def probe_setup(workload: str) -> tuple[float, float]:
    """Set-up time of this fresh process, imports plus the reused rules, in
    measured and in reference seconds.  The "interpreter" kernel of speed.py
    is timed twice right before and twice right after, in this process."""
    from speed import SpeedMeter

    speed = SpeedMeter("interpreter")
    speed.sample()
    speed.sample()
    start = perf_counter()
    workloads.setup(workload, workloads.Library())
    elapsed = perf_counter() - start
    speed.sample()
    speed.sample()
    return elapsed, elapsed * speed.scale()


def setup_samples(workload: str, count: int) -> list[tuple[float, float]]:
    """Set-up times of ``count`` fresh processes run one at a time, as
    (measured, reference) seconds."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", workload],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        measured, reference = done.stdout.split()
        samples.append((float(measured), float(reference)))
    return samples


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so that the kernel of
    speed.py times the CPU the requests and set-up probes run on: this host's
    two vCPUs are loaded by their neighbours independently."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None}


def measure(args) -> int:
    out_dir = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds
    if args.replay is None:
        source = lambda i: workloads.draw_cycle(args.workload, args.seed, i)  # noqa: E731
    else:
        replay = json.loads(Path(args.replay).read_text(encoding="utf-8"))["cycles"]
        source = lambda i: replay[i] if i < len(replay) else None  # noqa: E731
        seconds = math.inf
    setup = [] if args.trace else setup_samples(args.workload, SETUP_PROBES // 2)
    scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
    try:
        runner = Runner(workloads.Library(), args.workload, scratch)
        if args.trace:
            tracer = tracing.Tracer()
            baseline, traced, drawn = runner.traced_cycles(tracer, source, seconds)
            records = baseline + traced
            values, shares = per_layer(runner, tracer, baseline, traced, drawn)
            tracer.write(out_dir / "spans.jsonl")
            units, notes = PER_LAYER_UNITS, {"self_time_shares": shares}
        else:
            records, drawn = runner.cycles(source, seconds)
            setup += setup_samples(args.workload, SETUP_PROBES - len(setup))
            values = end_to_end(records, statistics.median(r for _, r in setup))
            units = END_TO_END_UNITS
            notes = {"measured_seconds": dict(measured_seconds(records),
                                              setup_s=statistics.median(m for m, _ in setup))}
        defects = runner.known_defects(workloads.defect_probes(args.workload, args.seed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct, attempted, failed, problems = _summary(records)
    env = environment()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    (out_dir / "requests.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "cycles": drawn}, indent=1), encoding="utf-8")
    (out_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "correct": correct, "attempted": attempted,
         "failed": failed, "problems": problems, "metrics": metrics, **notes,
         "known_defects": defects, "records": records}, indent=1), encoding="utf-8")
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} requests in "
          f"{len(drawn)} cycles, {failed} failed")
    for line in problems:
        print(f"problem: {line}")
    _print_defects(defects)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, values in notes.items():
        print(f"{name}: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_defects(defects: dict) -> None:
    for name, error in defects.items():
        print(f"known defect {name}: "
              + ("no longer reproduces; its cell can join the cycles" if error is None
                 else f"reproduces ({error})"))


def smoke() -> int:
    """A few requests of every workload, untraced and traced."""
    lib = workloads.Library()
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=RESULTS))
    all_ok = True
    try:
        for workload in workloads.WORKLOADS:
            reqs = workloads.draw_cycle(workload, 0, 0)[:SMOKE_REQUESTS]
            runner = Runner(lib, workload, scratch)
            tracer = tracing.Tracer()
            baseline, traced, drawn = runner.traced_cycles(
                tracer, lambda i: reqs if i < 2 else None, 0.0)
            values, _ = per_layer(runner, tracer, baseline, traced, drawn)
            correct, attempted, failed, problems = _summary(baseline + traced)
            all_ok = all_ok and correct and values.keys() == PER_LAYER_UNITS.keys()
            print(f"smoke {workload}: {attempted} requests, {failed} failed, correct={correct}")
            for line in problems:
                print(f"problem: {line}")
            _print_defects(runner.known_defects(workloads.defect_probes(workload, 0)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: " + ("ok" if all_ok else "FAILED"))
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", help="requests.json of an earlier run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "diffcap" / "__init__.py").is_file():
        print(f"perfbench: no diffcap sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not (args.smoke or args.setup_probe or args.workload):
        parser.error("give --workload, --smoke or --setup-probe")
    # before numpy loads; the set-up probes inherit the pinning
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        print(*map(repr, probe_setup(args.setup_probe)))
        return 0
    pin_to_one_cpu()
    if args.smoke:
        return smoke()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
