"""qvlab benchmark: end-to-end subcommand times, or traced per-layer metrics.

    python3 perfbench/run.py --workload spinor-evolve --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from ./src,
nothing is installed.  The workload's scenarios are generated from --seed
into a scratch directory under ./.perfbench-runs, which is removed at exit.

One measurement is:

* set-up probes: fresh interpreters that import qvlab.cli and run a
  zero-step `evolve` of every scenario (parse, initial state, gauge), one
  before every third pass and at least five;
* passes: one process per pass runs every subcommand of every scenario,
  closed loop, and checks each output.  Passes repeat while another fits in
  --seconds (at least five; with --trace 1, untraced/traced pairs and at
  least two of them).  An untraced pass also times a fixed reference kernel
  around its subcommands, and its walls are scaled to the reference host
  speed (measure_end_to_end).

The last stdout line is one JSON object: correct, attempted, failed and the
medians over passes.  The line before it records the environment and every
sample.  See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench-runs")
sys.path.insert(0, HERE)

from workloads import NORM_RTOL, WORKLOADS, build  # noqa: E402

# One BLAS/OpenMP thread: numpy.fft is single-threaded either way, and a
# single thread keeps BLAS contractions steady on a shared machine.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# Reference-kernel seconds that a scaled timing is expressed at: about the
# kernel's time on one idle core of a 2-vCPU Intel Xeon VM.
REFERENCE_S = 0.022
# A set-up probe runs before every PROBE_EVERY-th pass.
PROBE_EVERY = 3
MIN_PASSES = 5
MIN_TRACED_PAIRS = 2
# Hard cap on one invocation, below the 180 s a run may take.
DEADLINE_S = 160.0
COMMANDS = ("evolve", "diagnose", "trace", "fields")


def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env.pop("QVLAB_THREADS", None)
    return env


def _environment():
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qvlab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "threads": {var: str(THREADS) for var in THREAD_VARS},
    }


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def _prepare(work, workload, seed, tiny):
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    scenarios = []
    for spec in build(workload, seed, tiny):
        config = spec["config"]
        evolution = config["evolution"]
        path = os.path.join(inputs, f"{spec['name']}.json")
        _write_json(path, config)
        setup = json.loads(json.dumps(config))
        setup["evolution"]["steps"] = 0
        setup_path = os.path.join(inputs, f"{spec['name']}.setup.json")
        _write_json(setup_path, setup)
        scenarios.append({
            "name": spec["name"],
            "config": path,
            "setup_config": setup_path,
            "setup_out": os.path.join(work, "setup", spec["name"]),
            "commands": spec["commands"],
            "diagnostics": config.get("diagnostics", []),
            "residual_l2": spec["residual_l2"],
            "trace_starts": spec["trace_starts"],
            "trace_methods": spec["trace_methods"],
            "steps": evolution["steps"],
            "stride": evolution["snapshot_stride"],
        })
    return scenarios


class Run:
    """Bookkeeping for one invocation: ops, failures, and the deadline."""

    def __init__(self, work, scenarios, seed, env):
        self.work = work
        self.scenarios = scenarios
        self.seed = seed
        self.env = env
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def _account(self, attempted, failures, failed=None):
        self.attempted += attempted
        self.failed += len(failures) if failed is None else failed
        self.failures += failures

    def _worker(self, args):
        try:
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), *args],
                env=self.env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return None

    def setup_probe(self):
        plan = os.path.join(self.work, "setup.json")
        _write_json(plan, {"src": SRC, "seed": self.seed,
                           "scenarios": self.scenarios})
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = self._worker(["setup", plan])
        shutil.rmtree(os.path.join(self.work, "setup"), ignore_errors=True)
        if proc is None or proc.returncode != 0:
            n = len(self.scenarios)
            self._account(n, [f"setup probe: {_tail(proc)}"], failed=n)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self._account(result["attempted"], result["failures"])
        return result["ready"] - started

    def measure_pass(self, index, traced, spans_out=None):
        """The worker's result dict, or None when the pass crashed."""
        out = os.path.join(self.work, f"pass-{index}")
        scenarios = [dict(s, out=os.path.join(out, s["name"])) for s in self.scenarios]
        plan = os.path.join(self.work, "pass.json")
        _write_json(plan, {"src": SRC, "seed": self.seed, "trace": traced,
                           "norm_rtol": NORM_RTOL, "scenarios": scenarios,
                           "spans_out": spans_out})
        result_path = os.path.join(self.work, "result.json")
        proc = self._worker(["pass", plan, result_path])
        shutil.rmtree(out, ignore_errors=True)
        ops = sum(len(s["commands"]) for s in self.scenarios)
        if proc is None or proc.returncode != 0:
            self._account(ops, [f"pass {index}: {_tail(proc)}"], failed=ops)
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        self._account(result["attempted"], result["failures"])
        return result


def _tail(proc):
    if proc is None:
        return "timed out"
    return f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}"


def _enough(run, seconds, durations, done, minimum):
    """Stop when the minimum is met and another round would overrun."""
    typical = statistics.median(durations) if durations else 0.0
    if typical > run.remaining():
        return True
    spent = time.monotonic() - run.started
    return done >= minimum and spent + typical > seconds


def _command_totals(walls):
    """Seconds per subcommand, summed over the scenarios of one pass."""
    totals = {}
    for commands in walls.values():
        for command, wall in commands.items():
            totals[command] = totals.get(command, 0.0) + wall
    return totals


def measure_end_to_end(run, seconds):
    """Set-up and subcommand times at the reference host speed, peak RSS.

    Each subcommand wall is scaled by REFERENCE_S over the mean time of the
    reference kernel just before and just after it (worker.reference_kernel);
    a subcommand metric is the median of its scaled walls over the passes,
    summed over the scenarios.  Set-up probes run between passes and are
    scaled by REFERENCE_S over the run's median kernel time."""
    setup, rss, kernels, scaled = [], [], [], {}
    walls, references = [], []

    def probe():
        value = run.setup_probe()
        if value is not None:
            setup.append(value)

    # Probes are spread over the run like the passes.
    durations = []
    while not _enough(run, seconds, durations, len(durations), MIN_PASSES):
        started = time.monotonic()
        if len(durations) % PROBE_EVERY == 0:
            probe()
        result = run.measure_pass(len(durations), traced=False)
        durations.append(time.monotonic() - started)
        if result is None:
            continue
        rss.append(result["peak_rss_kb"] / 1024.0)
        walls.append(result["walls"])
        references.append(result["reference_s"])
        for scenario, commands in result["walls"].items():
            for command, wall in commands.items():
                around = result["reference_s"][scenario][command]
                kernels.extend(around)
                scale = REFERENCE_S / statistics.mean(around)
                scaled.setdefault(command, {}).setdefault(scenario, []).append(wall * scale)
    for _ in range(SETUP_PROBES - len(setup)):
        probe()
    samples = {"setup_s": setup, "peak_rss_mb": rss, "walls": walls,
               "reference_s": references}
    metrics = {}
    if setup and kernels:
        scale = REFERENCE_S / statistics.median(kernels)
        metrics["setup_s"] = {"value": statistics.median(setup) * scale, "unit": "s"}
    for command in COMMANDS:
        if command in scaled:
            value = sum(statistics.median(v) for v in scaled[command].values())
            metrics[f"{command}_s"] = {"value": value, "unit": "s"}
    if rss:
        metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    return metrics, samples


# Units of the per-layer metrics that are exact counts, not timings.
COUNT_UNITS = ("count", "B")


def measure_layers(run, seconds, spans_out):
    layer_samples, overheads, problems = {}, [], []
    units, first_counts = {}, None
    durations = []
    while not _enough(run, seconds, durations, len(overheads), MIN_TRACED_PAIRS):
        pair = len(overheads)
        started = time.monotonic()
        plain = run.measure_pass(2 * pair, traced=False)
        traced = run.measure_pass(2 * pair + 1, traced=True, spans_out=spans_out)
        durations.append(time.monotonic() - started)
        if plain is None or traced is None:
            overheads.append(None)
            continue
        overheads.append(sum(_command_totals(traced["walls"]).values())
                         - sum(_command_totals(plain["walls"]).values()))
        for name, (value, unit) in traced["layers"].items():
            layer_samples.setdefault(name, []).append(value)
            units[name] = unit
        counts = {name: value for name, (value, unit) in traced["layers"].items()
                  if unit in COUNT_UNITS}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            changed = sorted(k for k in counts if counts[k] != first_counts[k])
            problems.append(f"counts differ between traced passes: {changed}")
    # Counts are identical across traced passes (checked above), so they are
    # reported as counted; times are medians.
    metrics = {name: {"value": (first_counts or {}).get(name, statistics.median(values)),
                      "unit": units[name]}
               for name, values in layer_samples.items()}
    valid = [o for o in overheads if o is not None]
    if valid:
        metrics["tracing.overhead_s"] = {"value": statistics.median(valid), "unit": "s"}
    layer_samples["tracing.overhead_s"] = valid
    return metrics, layer_samples, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids and step counts, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qvlab", "cli.py")):
        print(f"no qvlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    env = _child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})
    os.makedirs(RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        scenarios = _prepare(work, args.workload, args.seed, args.tiny)
        run = Run(work, scenarios, args.seed, env)
        problems = []
        if args.trace:
            spans_out = os.path.join(RUNS, f"{args.workload}.spans.jsonl")
            metrics, samples, problems = measure_layers(run, args.seconds, spans_out)
        else:
            metrics, samples = measure_end_to_end(run, args.seconds)
        failures = run.failures + problems
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": _environment(),
            "samples": samples,
            "failures": failures,
        }
        print(json.dumps(detail))
        print(json.dumps({
            "correct": not failures,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
