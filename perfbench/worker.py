"""One benchmark process: a timed pass over a workload, or a set-up probe.

    python3 worker.py pass PLAN RESULT   run every scenario's subcommands in
                                         this one process, check each output,
                                         and write walls (and, when the plan
                                         asks for tracing, layer metrics)
    python3 worker.py setup PLAN         run each scenario's zero-step evolve
                                         and print the monotonic clock when
                                         the last one returns

The parent (run.py) writes PLAN and pins the thread pools in this process's
environment.  A pass reports its own peak RSS.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time


def _invoke(cli, command, config, out, seed):
    """Run one subcommand in process; (exit code, captured output, seconds)."""
    buf = io.StringIO()
    argv = [command, "--config", config, "--out", out, "--seed", str(seed)]
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    return code, buf.getvalue(), elapsed


def reference_kernel():
    """Seconds of a fixed numpy kernel: 2D and 3D FFTs with elementwise
    complex arithmetic between them, the mix the evolvers run, on one
    cache-sized and one larger field.

    The host is shared, and over minutes its speed drifts by a fifth or
    more.  An untraced pass times this kernel before its first subcommand
    and right after each one, in the same process, so run.py can scale each
    subcommand's wall by the host speed the kernel saw on either side of it.  The kernel is the
    benchmark's, not qvlab's: a change to qvlab moves the scaled times
    exactly as it moves the walls.  Its fields are freed on return, so they
    do not add to the subcommands' peak RSS."""
    import numpy as np

    plane, volume = (
        np.exp(1j * np.linspace(0.0, 50.0, math.prod(shape)).reshape(shape))
        for shape in ((256, 256), (64, 64, 64)))
    started = time.perf_counter()
    for _ in range(2):
        plane = np.fft.ifft2(np.fft.fft2(plane) * np.exp(0.1j * plane.real))
    np.fft.ifftn(np.fft.fftn(volume) * np.exp(0.1j * volume.real))
    return time.perf_counter() - started


# -- output checks -----------------------------------------------------------


def _norm(path):
    import numpy as np

    from qvlab.fields import density, read_snapshot

    field = read_snapshot(path)
    return float(np.sum(density(field)) * field.grid.cell_volume)


def _check_evolve(scenario, out, norm_rtol):
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["snapshots"]
    expected = scenario["steps"] // scenario["stride"] + 1
    if len(entries) != expected:
        return f"{len(entries)} snapshots, expected {expected}"
    first = _norm(os.path.join(out, entries[0]["file"]))
    last = _norm(os.path.join(out, entries[-1]["file"]))
    drift = abs(last - first) / first
    if not drift <= norm_rtol:
        return f"norm drift {drift:.3e} exceeds {norm_rtol:.0e}"
    return None


_REPORTS = {
    "continuity": ("continuity",),
    "four_current": ("four_current_divergence",),
    "hamilton_jacobi": ("hamilton_jacobi",),
    "gauge": ("gauge_psi", "gauge_lorentz", "gauge_quantum"),
}
_FIELDS_REPORTS = ("gauge_psi", "gauge_lorentz", "gauge_quantum", "self_consistency")


def _check_reports(names, out, limits):
    for name in names:
        with open(os.path.join(out, f"report_{name}.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        l2, linf = report["l2"], report["linf"]
        if not (math.isfinite(l2) and math.isfinite(linf)):
            return f"{name}: non-finite residual"
        if not l2 <= limits[name]:
            return f"{name}: l2 {l2:.3e} exceeds {limits[name]:.0e}"
    return None


def _check_diagnose(scenario, out):
    names = [r for d in scenario["diagnostics"] for r in _REPORTS[d]]
    return _check_reports(names, out, scenario["residual_l2"])


def _check_fields(scenario, out):
    problem = _check_reports(_FIELDS_REPORTS, out, scenario["residual_l2"])
    if problem:
        return problem
    with open(os.path.join(out, "fields_summary.json"), encoding="utf-8") as fh:
        frames = json.load(fh)["frames"]
    expected = scenario["steps"] // scenario["stride"] - 1
    if len(frames) != expected:
        return f"{len(frames)} field frames, expected {expected}"
    for frame in frames:
        if not all(math.isfinite(v) for v in frame["e_rms"] + frame["b_rms"]):
            return f"non-finite field norm at t={frame['time']}"
    return None


def _check_trace(scenario, out):
    with open(os.path.join(out, "trace_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    files = summary["files"]
    expected = scenario["trace_starts"] * scenario["trace_methods"]
    if len(files) != expected:
        return f"{len(files)} trace files, expected {expected}"
    for fname in files:
        with open(os.path.join(out, fname), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != summary["steps"] + 1:
            return f"{fname}: {len(rows)} rows, expected {summary['steps'] + 1}"
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            return f"{fname}: non-finite value"
    return None


def _check(command, scenario, out, norm_rtol):
    if command == "evolve":
        return _check_evolve(scenario, out, norm_rtol)
    if command == "diagnose":
        return _check_diagnose(scenario, out)
    if command == "fields":
        return _check_fields(scenario, out)
    return _check_trace(scenario, out)


# -- modes -------------------------------------------------------------------


def run_pass(plan):
    from qvlab import cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    walls, references, failures = {}, {}, []
    attempted = 0
    if not tracer:
        reference_kernel()
        before = reference_kernel()
    try:
        for scenario in plan["scenarios"]:
            os.makedirs(scenario["out"], exist_ok=True)
            for command in scenario["commands"]:
                attempted += 1
                span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
                with span:
                    code, text, elapsed = _invoke(
                        cli, command, scenario["config"], scenario["out"], plan["seed"])
                walls.setdefault(scenario["name"], {})[command] = elapsed
                if not tracer:
                    after = reference_kernel()
                    references.setdefault(scenario["name"], {})[command] = [before, after]
                    before = after
                label = f"{scenario['name']} {command}"
                if code != 0:
                    failures.append(f"{label}: exit {code}: {text.strip()[-500:]}")
                    continue
                paused = tracer.paused() if tracer else contextlib.nullcontext()
                with paused:
                    try:
                        problem = _check(command, scenario, scenario["out"],
                                         plan["norm_rtol"])
                    except (OSError, ValueError, KeyError) as exc:
                        problem = f"unreadable output: {exc!r}"
                if problem:
                    failures.append(f"{label}: {problem}")
    finally:
        if tracer:
            tracer.uninstall()
    result = {"walls": walls, "reference_s": references,
              "attempted": attempted, "failures": failures,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        if plan.get("spans_out"):
            with open(plan["spans_out"], "w", encoding="utf-8") as fh:
                for name, start, end, parent, size in tracer.spans:
                    fh.write(json.dumps([name, start, end, parent, size]) + "\n")
    return result


def run_setup(plan):
    from qvlab import cli

    failures = []
    for scenario in plan["scenarios"]:
        os.makedirs(scenario["setup_out"], exist_ok=True)
        code, text, _ = _invoke(cli, "evolve", scenario["setup_config"],
                                scenario["setup_out"], plan["seed"])
        if code != 0:
            failures.append(f"{scenario['name']} setup: exit {code}: {text.strip()[-500:]}")
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    return {"ready": ready, "attempted": len(plan["scenarios"]), "failures": failures}


def main(argv):
    mode, plan_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    if mode == "pass":
        result = run_pass(plan)
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    else:
        print(json.dumps(run_setup(plan)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
