"""The scripts under tools/, and the benchmark's tracer on the package."""
import json
import pathlib
import re
import runpy
import shutil

import numpy as np

from qvlab.fields import BispinorField, write_snapshot
from qvlab.lattice import make_grid
from qvlab.trajectories import FlowSampler, GridFieldSampler
from util import write_snapshot_v1

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMPARE_RUNS = runpy.run_path(str(ROOT / "tools" / "compare_runs.py"))
TRACER = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))


def test_compare_runs_finds_this_checkout_equal_to_itself(capsys):
    code = COMPARE_RUNS["main"]([str(ROOT), str(ROOT), "--workload", "flow-trace",
                                 "--seed", "1", "--size", "tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "all outputs equal"
    # per case, one resource line per subcommand, in the scenario's order, then
    # the files; the seed's extra cases, then its algebra-check case, come
    # after the workload's
    usage = [re.fullmatch(r"([\w-]+/[\w-]+) ([\w-]+): peak RSS ([\d.]+) -> ([\d.]+) MB, "
                          r"minor page faults (\d+) -> (\d+)", line) for line in lines[:-1]]
    scenarios = [(match[1].split("/")[0], match[2]) for match in usage if match]
    commands = ["evolve", "diagnose", "trace", "fields"]
    assert scenarios == [
        *(("flow-trace-tiny-1", command) for command in commands),
        *(("extra-1", command) for _ in COMPARE_RUNS["EXTRA"] for command in commands),
        ("algebra-check-1", "algebra-check")]
    assert [match[1] for match in usage if match][4::4] == [
        "extra-1/packet-1d", "extra-1/oscillator-2d", "algebra-check-1/identities"]
    assert all(float(value) > 0.0 for match in usage if match
               for value in match.groups()[2:])
    files = [line.split(": ")[0] for line, match in zip(lines, usage) if not match]
    assert all(line.endswith(": equal") for line, match in zip(lines, usage) if not match)
    names = {path.rsplit("/", 1)[1] for path in files if path.startswith("flow-trace")}
    assert {"manifest.json", "snap_000016.qfs", "trace_001_force.csv",
            "report_hamilton_jacobi.json", "fields_summary.json"} <= names
    assert {"extra-1/packet-1d/report_hamilton_jacobi.json",
            "extra-1/packet-1d/report_self_consistency.json",
            "extra-1/packet-1d/trace_003_force.csv",
            "extra-1/oscillator-2d/report_gauge_quantum.json",
            "extra-1/oscillator-2d/trace_003.csv"} <= set(files)
    assert not any(path.endswith("timings.json") for path in files)
    assert lines[-2] == "algebra-check-1/identities/algebra_check.json: equal"


def test_compare_runs_reports_a_failed_subcommand_with_its_resources(tmp_path, capsys):
    # a tree whose CLI exits 1: the failure is printed, resources still are,
    # and the exit status is 1
    broken = tmp_path / "broken"
    shutil.copytree(ROOT / "src", broken / "src")
    (broken / "src" / "qvlab" / "cli.py").write_text(
        "import sys\nsys.exit('runtime error: broken')\n", encoding="utf-8")
    code = COMPARE_RUNS["main"]([str(ROOT), str(broken), "--workload", "flow-trace",
                                 "--seed", "1", "--size", "tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "outputs differ"
    assert f"free-3d evolve exited 1 in {broken}: runtime error: broken" in lines
    assert f"packet-1d trace exited 1 in {broken}: runtime error: broken" in lines
    assert f"identities algebra-check exited 1 in {broken}: runtime error: broken" in lines
    assert sum(": peak RSS " in line for line in lines) == 4 + 4 * len(COMPARE_RUNS["EXTRA"]) + 1


def test_compare_runs_reports_how_the_numbers_differ(tmp_path):
    def written(name, payload):
        path = tmp_path / name
        path.write_text(payload, encoding="utf-8")
        return str(path)

    report = {"name": "continuity", "l2": 2.0, "linf": [1.0, 4.0]}
    old = written("old.json", json.dumps(report))
    assert COMPARE_RUNS["compare_files"](old, old) == "equal"
    cases = [
        ("new.json", json.dumps({**report, "linf": [1.0, 3.0]}),
         "differs: max abs 1.000e+00, max rel 2.500e-01"),
        ("spaced.json", json.dumps(report, indent=1), "differs in bytes only"),
        ("renamed.json", json.dumps({**report, "name": "gauge"}), "differs in layout"),
    ]
    for name, payload, verdict in cases:
        assert COMPARE_RUNS["compare_files"](old, written(name, payload)) == verdict
    old = written("old.csv", "t,x\n0.0,1.0\n0.5,2.0\n")
    new = written("new.csv", "t,x\n0.0,1.0\n0.5,2.5\n")
    assert COMPARE_RUNS["compare_files"](old, new) == (
        "differs: max abs 5.000e-01, max rel 2.000e-01")


def test_compare_runs_compares_snapshots_by_what_they_hold(tmp_path):
    # a snapshot is its header and its samples in file order: a version 1 file
    # (interleaved per grid point) of one bispinor is not its version 2 file
    g = make_grid(2, [6, 4], [1.0, 2.0])
    values = np.random.default_rng(3).standard_normal((4, *g.shape)) * (1 + 0.5j)
    v1, v2, other = (str(tmp_path / name) for name in ("v1.qfs", "v2.qfs", "other.qfs"))
    write_snapshot_v1(BispinorField(g, values), v1)
    write_snapshot(BispinorField(g, values), v2)
    assert COMPARE_RUNS["compare_files"](v1, v2) == "differs in layout"
    values[3, 5, 2] += 0.25
    write_snapshot(BispinorField(g, values), other)
    assert COMPARE_RUNS["compare_files"](v2, other).startswith("differs: max abs 2.500e-01")


def test_the_benchmark_tracer_installs_on_the_package_and_leaves_no_wrapper():
    # the tracer wraps sampler methods by name in each class's own __dict__, so
    # a method moved off its class fails here, not only in traced benchmark runs
    originals = {cls: (vars(cls)["__init__"], vars(cls)["__call__"])
                 for cls in (GridFieldSampler, FlowSampler)}
    tracer = TRACER["Tracer"]()
    tracer.install()
    try:
        assert all(vars(cls)["__init__"] is not init and vars(cls)["__call__"] is not call
                   for cls, (init, call) in originals.items())
        g = make_grid(2, [8, 8], [1.0, 1.0])
        ones = np.ones(g.shape)
        flow = FlowSampler(g, [0.0, 1.0], [ones, ones], [(ones, ones)] * 2)
        flow(np.zeros((5, 2)), 0.5)
    finally:
        tracer.uninstall()  # raises if a wrapper is left on any class or module
    assert {cls: (vars(cls)["__init__"], vars(cls)["__call__"])
            for cls in originals} == originals
    metrics = TRACER["layer_metrics"](tracer.spans)
    # the flow sampler's own grid build and evaluation nest inside its spans
    assert metrics["trajectories.sampler_calls"][0] == 1
    assert metrics["trajectories.sampler_points"][0] == 5
    assert metrics["trajectories.sampler_build_s"][0] > 0.0
