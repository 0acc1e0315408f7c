"""The package's export list."""
import ast
import collections
import importlib
import inspect
import pathlib

import qvlab


def test_every_exported_name_resolves():
    missing = [name for name in qvlab.__all__ if not hasattr(qvlab, name)]
    assert missing == []
    assert len(set(qvlab.__all__)) == len(qvlab.__all__)


_LIBRARY = ("lattice", "fields", "algebra", "decomposition", "evolvers", "diagnostics",
            "trajectories")


def _defined_names(module) -> set:
    """The names a module's own top-level statements define, imports excluded."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_each_module_declares_what_it_defines():
    # a module's __all__ lists only names it defines, not ones it imports
    for name in _LIBRARY:
        module = importlib.import_module(f"qvlab.{name}")
        assert module.__all__ and set(module.__all__) <= _defined_names(module), name
        assert all(hasattr(module, export) for export in module.__all__), name


def test_package_exports_are_the_module_lists_in_pipeline_order():
    modules = [importlib.import_module(f"qvlab.{name}") for name in _LIBRARY]
    assert qvlab.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert not any(inspect.ismodule(getattr(qvlab, name)) for name in qvlab.__all__)


def test_em_fields_frames_are_the_one_frame_type():
    # em_fields returns MaxwellFrame objects; the per-family container is gone
    assert "EMFields" not in qvlab.__all__
    assert not hasattr(qvlab, "EMFields")
    assert {"MaxwellFrame", "maxwell_residuals", "em_fields"} <= set(qvlab.__all__)


def _called_names() -> set:
    """Every name the package's own source calls, bare or as an attribute."""
    names = set()
    for path in pathlib.Path(qvlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def test_every_public_function_is_exported_or_used():
    # a public function nothing exports or calls is a second entry point
    used = set(qvlab.__all__) | _called_names()
    orphans = [
        f"{module}.{name}"
        for module in _LIBRARY
        for name, obj in vars(importlib.import_module(f"qvlab.{module}")).items()
        if inspect.isfunction(obj) and obj.__module__ == f"qvlab.{module}"
        and not name.startswith("_") and name not in used
    ]
    assert orphans == []


def _references(node) -> collections.Counter:
    """How often each name is read under node, bare or as an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_is_used_outside_itself():
    # a module-level _helper that only its own body names is left over
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(qvlab.__file__).parent.glob("*.py"))]
    package = sum((_references(tree) for tree in trees), collections.Counter())
    leftovers = [
        node.name
        for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and package[node.name] <= _references(node)[node.name]
    ]
    assert leftovers == []


# the functions that may call a numpy.fft transform: the one spectral-derivative
# helper, the two steppers' kinetic halves and the samplers' half spectrum
_FFT_SITES = {"lattice._spectral", "evolvers._split_stepper.inner",
              "evolvers._dirac_stepper.inner", "trajectories._half_spectrum"}


def _fft_sites() -> set:
    """module.function (nested functions dotted) of every numpy.fft transform the
    package names, called or not; fftfreq and fftshift are not transforms."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Attribute)
                    and child.value.attr == "fft"
                    and not child.attr.endswith(("freq", "shift"))):
                sites.add(inner)
            if isinstance(child, (ast.Import, ast.ImportFrom)) and "fft" in " ".join(
                    [getattr(child, "module", None) or ""] + [a.name for a in child.names]):
                sites.add(f"{inner} imports numpy.fft")
            visit(child, inner)

    for path in pathlib.Path(qvlab.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def test_numpy_transforms_are_called_only_at_the_known_sites():
    # a transform outside these functions would be a spectral path beside them
    assert _fft_sites() == _FFT_SITES


def test_the_snapshot_file_name_is_spelled_once():
    # evolve names each kept step's file and a finished run is read back by the
    # same pattern, so the two cannot drift apart
    sources = [path.read_text(encoding="utf-8")
               for path in pathlib.Path(qvlab.__file__).parent.glob("*.py")]
    assert sum(source.count("snap_") for source in sources) == 1
