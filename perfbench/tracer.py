"""Spans around the public functions of the qvlab modules, from outside them.

`Tracer.install` replaces every public module-level function of the traced
qvlab modules, the sampler and gauge-assembly methods, and the numpy.fft
transforms with wrappers that record a span (name, start, end, parent,
size).  A function is replaced under every module attribute that binds it,
because `from .lattice import spectral_gradient` copies the name into the
importing module; the CLI imports inside its functions and so picks up the
wrappers at call time.  `Tracer.uninstall` puts every original back and
checks that no wrapper is left anywhere.

Spans stay in memory; `layer_metrics` turns them into the per-layer numbers.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager

# algebra gets no span: no pipeline stage spends measurable time in it.
TRACED_MODULES = ("lattice", "fields", "decomposition", "evolvers",
                  "diagnostics", "trajectories")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
METHODS = {
    "decomposition": {"GaugeConfiguration": ("assemble",)},
    "trajectories": {
        "AnalyticSampler": ("__call__",),
        "GridFieldSampler": ("__init__", "__call__"),
        "FlowSampler": ("__init__", "__call__"),
    },
}

STEPS = ("evolvers.schrodinger_step", "evolvers.pauli_step", "evolvers.dirac_step")
CURRENTS = ("decomposition.current_scalar", "decomposition.current_spinor",
            "decomposition.current_bispinor")
RESIDUALS = ("diagnostics.continuity_residual",
             "diagnostics.four_current_divergence",
             "diagnostics.phase_rate_from_snapshots",
             "diagnostics.hamilton_jacobi_residual",
             "diagnostics.gauge_residuals",
             "diagnostics.self_consistency_residual",
             "diagnostics.maxwell_residuals")
# Grid samplers only: the closed-form B sampler of the force method costs
# next to nothing per point and would dilute the per-point figure.
SAMPLER_CALLS = ("trajectories.GridFieldSampler.__call__",
                 "trajectories.FlowSampler.__call__")
SAMPLER_BUILDS = ("trajectories.GridFieldSampler.__init__",
                  "trajectories.FlowSampler.__init__")
PATHS = ("trajectories.advect", "trajectories.advect_ensemble",
         "trajectories.force_path")


def _rows(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.asarray(points).shape
    return 1 if len(shape) < 2 else int(shape[0])


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _read_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _sampler_points(args, kwargs, result):
    return _rows(args[1] if len(args) > 1 else kwargs["points"])


def _path_size(fn):
    """particles x RK4 steps for one path-integration call."""
    signature = inspect.signature(fn)

    def size(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        first = next(iter(bound.arguments.values()))
        return _rows(first) * int(bound.arguments["steps"])

    return size


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, size]
        self.active = True
        self._stack = []
        self._restore = []  # (owner, attribute, original)
        self._wrappers = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, fn, name, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if size_of is not None:
                span[4] = size_of(args, kwargs, result)
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self):
        import numpy.fft

        qvlab_modules = [m for name, m in sorted(sys.modules.items())
                         if name == "qvlab" or name.startswith("qvlab.")]
        sizes = {
            "fields.write_snapshot": _written_bytes,
            "fields.read_snapshot": _read_bytes,
        }
        targets = []
        for name in FFT_FUNCTIONS:
            targets.append((getattr(numpy.fft, name), f"numpy.fft.{name}"))
        for short in TRACED_MODULES:
            module = sys.modules[f"qvlab.{short}"]
            for attr, value in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    targets.append((value, f"{short}.{attr}"))
        for original, name in targets:
            size_of = sizes.get(name)
            if name in PATHS:
                size_of = _path_size(original)
            wrapper = self.wrap(original, name, size_of)
            self._replace_everywhere(original, wrapper,
                                     qvlab_modules + [numpy.fft])
        for short, classes in METHODS.items():
            module = sys.modules[f"qvlab.{short}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    name = f"{short}.{cls_name}.{method}"
                    size_of = _sampler_points if method == "__call__" else None
                    if isinstance(original, classmethod):
                        wrapper = classmethod(
                            self.wrap(original.__func__, name, size_of))
                    else:
                        wrapper = self.wrap(original, name, size_of)
                    setattr(cls, method, wrapper)
                    self._restore.append((cls, method, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        import numpy.fft

        owners = [m for name, m in list(sys.modules.items())
                  if name == "qvlab" or name.startswith("qvlab.")]
        owners.append(numpy.fft)
        owners += [v for m in owners[:-1] for v in vars(m).values()
                   if inspect.isclass(v)]
        for owner in owners:
            for attr, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                if id(value) in self._wrappers:
                    raise RuntimeError(f"wrapper left on {owner!r}.{attr}")


# -- aggregation -------------------------------------------------------------


def _outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`."""
    names = set(names)
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            yield span


def _total(spans, names):
    calls = seconds = size = 0
    for span in _outermost(spans, names):
        calls += 1
        seconds += span[2] - span[1]
        size += span[4]
    return calls, seconds, size


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer {name: (value, unit)} of one traced pass.

    Seconds are inclusive of nested spans; a name group counts only its
    outermost spans, so a group never counts the same interval twice.
    Subcommand spans are named "cli.<command>".
    """
    fft = tuple(f"numpy.fft.{n}" for n in FFT_FUNCTIONS)
    fft_calls, fft_s, _ = _total(spans, fft)
    step_calls, _, _ = _total(spans, STEPS)
    current_calls, current_s, _ = _total(spans, CURRENTS)
    qp_calls, qp_s, _ = _total(spans, ["diagnostics.quantum_potential"])
    sampler_calls, sampler_s, sampler_points = _total(spans, SAMPLER_CALLS)
    _, path_s, particle_steps = _total(spans, PATHS)
    _, write_s, written = _total(spans, ["fields.write_snapshot"])
    _, read_s, read = _total(spans, ["fields.read_snapshot"])

    def seconds(*names):
        return _total(spans, names)[1]

    def per_call(name):
        calls, secs, _ = _total(spans, [name])
        return _ratio(secs, calls)

    children = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    cli_self = sum(span[2] - span[1] - children[i]
                   for i, span in enumerate(spans)
                   if span[0].startswith("cli."))

    return {
        "lattice.fft_calls": (fft_calls, "count"),
        "lattice.fft_s": (fft_s, "s"),
        "lattice.fft_call_s": (_ratio(fft_s, fft_calls), "s"),
        "lattice.spectral_gradient_s": (seconds("lattice.spectral_gradient"), "s"),
        "lattice.divergence_s": (seconds("lattice.divergence"), "s"),
        "evolvers.schrodinger_step_s": (per_call("evolvers.schrodinger_step"), "s"),
        "evolvers.pauli_step_s": (per_call("evolvers.pauli_step"), "s"),
        "evolvers.dirac_step_s": (per_call("evolvers.dirac_step"), "s"),
        "evolvers.step_calls": (step_calls, "count"),
        "evolvers.magnetic_field_calls":
            (_total(spans, ["evolvers.magnetic_field"])[0], "count"),
        "fields.write_snapshot_s": (write_s, "s"),
        "fields.bytes_written": (written, "B"),
        "fields.read_snapshot_s": (read_s, "s"),
        "fields.bytes_read": (read, "B"),
        "decomposition.current_s": (current_s, "s"),
        "decomposition.current_calls": (current_calls, "count"),
        "decomposition.assemble_s":
            (seconds("decomposition.GaugeConfiguration.assemble"), "s"),
        "diagnostics.quantum_potential_calls": (qp_calls, "count"),
        "diagnostics.quantum_potential_s": (qp_s, "s"),
        "diagnostics.quantum_force_s": (seconds("diagnostics.quantum_force"), "s"),
        "diagnostics.em_fields_s": (seconds("diagnostics.em_fields"), "s"),
        "diagnostics.residual_s": (seconds(*RESIDUALS), "s"),
        "trajectories.sampler_calls": (sampler_calls, "count"),
        "trajectories.sampler_points": (sampler_points, "count"),
        "trajectories.points_per_call":
            (_ratio(sampler_points, sampler_calls), "points/call"),
        "trajectories.sampler_s_per_point":
            (_ratio(sampler_s, sampler_points), "s/point"),
        "trajectories.sampler_build_s": (seconds(*SAMPLER_BUILDS), "s"),
        "trajectories.rk4_step_s_per_particle":
            (_ratio(path_s, particle_steps), "s/particle-step"),
        "cli.self_s": (cli_self, "s"),
    }

