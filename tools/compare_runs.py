"""Run every subcommand of every benchmark scenario on two source trees and
compare what they write, file by file.

    python3 tools/compare_runs.py OLD NEW [--workload W] [--seed N] [--size tiny|full]

OLD and NEW are source checkouts, each with src/qvlab.  The scenarios come
from OLD's perfbench/workloads.py, which is read and not changed, and both
trees run the same config files.  --workload, --seed and --size may be
repeated; by default every workload runs at seeds 1 and 2, tiny and full.
Each seed also runs, whatever the workloads and sizes, the paths no benchmark
scenario takes, as the case extra-N: EXTRA's scenarios, a 1D packet and a 2D
oscillator that ask for Hamilton-Jacobi alone and beside gauge, the classical
and quantum field families, and paths from count-drawn starts with both
interpolations; then `algebra-check --seed N` with no config, as the case
algebra-check-N.
Each subcommand runs as `python -m qvlab.cli` in a fresh interpreter with the
tree's src on PYTHONPATH, one BLAS thread, and no bytecode written.

For each subcommand, one line gives the child's peak RSS and minor page
faults in OLD and in NEW (`os.wait4`); wall times do not repeat between
runs, so no time is printed.  Page faults repeat within about 1% between
two runs of the same invocation, not across invocations of another shape
(another set of workloads, seeds or sizes): compare a fault count only
with one from an invocation of the same arguments.  Peak RSS moves by
about 1 MB between trees with an edit that never runs in the subcommand
(heap layout alone), so a difference of that size is not evidence of a
code effect.  For each file
either tree wrote, one line says `equal` (the same bytes) or gives the
largest absolute and relative difference of the file's numbers: JSON
reports and summaries, trace CSVs and snapshot samples (.qfs).  A snapshot
is compared by its decoded header, which must match, and its samples in
file order.
timings.json is skipped, since wall time differs between runs.  The exit
status is 1 on any difference, missing file or failed subcommand, else 0;
the resource lines never change it.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import runpy
import struct
import subprocess
import sys
import tempfile

import numpy as np

SIZES = ("tiny", "full")
SKIPPED = ("timings.json",)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# a .qfs header: magic, version, dim, n[3], length[3], ncomp, scalar width
QFS_HEADER = struct.Struct("<8sII3I3dII4x")

_EXTRA_COMMANDS = ["evolve", "diagnose", "trace", "fields"]
EXTRA = [
    {"name": "packet-1d", "commands": _EXTRA_COMMANDS, "config": {
        "name": "packet-1d", "equation": "schrodinger",
        "grid": {"dim": 1, "n": [128], "length": [40.0]},
        "initial_state": {"preset": "gaussian", "sigma": 1.5, "center": [20.0], "k0": [1.0]},
        "evolution": {"dt": 2e-3, "steps": 60, "snapshot_stride": 6},
        "diagnostics": ["hamilton_jacobi"],
        "trace": {"method": "both", "interpolation": "spectral", "count": 4},
        "fields": {"family": "classical"}}},
    {"name": "oscillator-2d", "commands": _EXTRA_COMMANDS, "config": {
        "name": "oscillator-2d", "equation": "schrodinger",
        "grid": {"dim": 2, "n": [32, 32], "length": [16.0, 16.0]},
        "initial_state": {"preset": "ho_ground", "omega": 1.0, "center": [8.4, 7.7]},
        "gauge": {"u": {"preset": "harmonic", "omega": 1.0, "center": [8.0, 8.0]}},
        "evolution": {"dt": 2e-3, "steps": 40, "snapshot_stride": 4},
        "diagnostics": ["hamilton_jacobi", "gauge"],
        "trace": {"method": "advect", "interpolation": "tricubic", "count": 4},
        "fields": {"family": "quantum"}}},
]


def _env(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("QVLAB_THREADS", None)
    return env


def _run(tree, argv):
    """Run argv in a fresh interpreter on tree: (exit code, last stderr line, peak
    RSS in MB, minor page faults), the last two from the child's own rusage."""
    with tempfile.TemporaryFile("w+", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, env=_env(tree), stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().strip().splitlines()[-1:] or [""]
    return proc.returncode, tail[0], usage.ru_maxrss / 1024.0, usage.ru_minflt


def _run_scenario(tree, spec, config, out, seed):
    """Run the scenario's subcommands in order, with --config unless config is
    None: a list of failure lines, and each subcommand's (peak RSS in MB, minor
    page faults)."""
    os.makedirs(out)
    failures, usage = [], {}
    for command in spec["commands"]:
        code, tail, rss, faults = _run(tree, [
            sys.executable, "-m", "qvlab.cli", command, "--out", out, "--seed", str(seed),
            *(() if config is None else ("--config", config))])
        usage[command] = rss, faults
        if code:
            failures.append(f"{spec['name']} {command} exited {code} in {tree}: {tail}")
    return failures, usage


def _numbers(path):
    """(the file with its numbers taken out, its numbers as float64), or None
    for a file whose numbers are not read."""
    if path.endswith(".qfs"):
        return _snapshot(path)
    numbers = []

    def strip(value):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers.append(float(value))
            return None
        if isinstance(value, dict):
            return {key: strip(item) for key, item in value.items()}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            skeleton = strip(json.load(fh))
        elif path.endswith(".csv"):
            skeleton = [[strip(_number(cell)) for cell in row] for row in csv.reader(fh)]
        else:
            return None
    return skeleton, np.array(numbers)


def _snapshot(path):
    """(a .qfs file's header fields, its samples as float64)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return QFS_HEADER.unpack_from(data), np.frombuffer(data, "<f8", offset=QFS_HEADER.size)


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def compare_files(old, new):
    """'equal', or how the numbers of two output files differ."""
    with open(old, "rb") as a, open(new, "rb") as b:
        if a.read() == b.read():
            return "equal"
    try:
        parsed = _numbers(old), _numbers(new)
    except (ValueError, UnicodeDecodeError, struct.error) as exc:
        return f"differs, unreadable: {exc}"
    if None in parsed:
        return "differs"
    (shape_a, a), (shape_b, b) = parsed
    if shape_a != shape_b or a.shape != b.shape:
        return "differs in layout"
    both_nan = np.isnan(a) & np.isnan(b)
    diff = np.where(both_nan, 0.0, np.abs(a - b))
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    worst = float(np.max(diff, initial=0.0))
    if math.isnan(worst):
        return "differs: NaN in one tree"
    if worst == 0.0:
        return "differs in bytes only"
    return f"differs: max abs {worst:.3e}, max rel {float(np.max(rel)):.3e}"


def _compare_dirs(old, new, label):
    """One line per file of either directory; True if all are equal."""
    same = True
    names = sorted(set(os.listdir(old)) | set(os.listdir(new)))
    for name in names:
        if name in SKIPPED:
            continue
        paths = os.path.join(old, name), os.path.join(new, name)
        missing = [tree for tree, path in zip(("old", "new"), paths) if not os.path.exists(path)]
        verdict = f"missing in {missing[0]}" if missing else compare_files(*paths)
        same = same and verdict == "equal"
        print(f"{label}/{name}: {verdict}")
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--size", action="append", choices=SIZES)
    args = parser.parse_args(argv)
    trees = [os.path.abspath(tree) for tree in (args.old, args.new)]
    workloads = runpy.run_path(os.path.join(trees[0], "perfbench", "workloads.py"))
    unknown = set(args.workload or ()) - set(workloads["WORKLOADS"])
    if unknown:
        parser.error(f"unknown workload {sorted(unknown)[0]!r}; "
                     f"choose from {', '.join(workloads['WORKLOADS'])}")
    same, seeds = True, args.seed or (1, 2)
    cases = [(f"{workload}-{size}-{seed}", spec, seed)
             for workload, size, seed in itertools.product(
                 args.workload or workloads["WORKLOADS"], args.size or SIZES, seeds)
             for spec in workloads["build"](workload, seed, size == "tiny")]
    cases += [(f"extra-{seed}", spec, seed) for seed in seeds for spec in EXTRA]
    cases += [(f"algebra-check-{seed}", {"name": "identities", "commands": ["algebra-check"]},
               seed) for seed in seeds]
    with tempfile.TemporaryDirectory(prefix="compare-runs-") as work:
        for case, spec, seed in cases:
            config = None
            if "config" in spec:
                config = os.path.join(work, case, f"{spec['name']}.json")
                os.makedirs(os.path.dirname(config), exist_ok=True)
                with open(config, "w", encoding="utf-8") as fh:
                    json.dump(spec["config"], fh, indent=1)
            outs = [os.path.join(work, case, side, spec["name"]) for side in ("old", "new")]
            usage = []
            for tree, out in zip(trees, outs):
                failures, used = _run_scenario(tree, spec, config, out, seed)
                for failure in failures:
                    print(failure)
                    same = False
                usage.append(used)
            for command in spec["commands"]:
                (rss_old, faults_old), (rss_new, faults_new) = (u[command] for u in usage)
                print(f"{case}/{spec['name']} {command}: peak RSS {rss_old:.1f} -> "
                      f"{rss_new:.1f} MB, minor page faults {faults_old} -> {faults_new}")
            same = _compare_dirs(*outs, f"{case}/{spec['name']}") and same
    print("all outputs equal" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
