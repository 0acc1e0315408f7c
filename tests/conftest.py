"""The interpreters some tests start import qvlab from this checkout too.

pyproject.toml puts src/ on this process's sys.path; child processes see
only the environment, so src/ goes on their PYTHONPATH as well.
"""
import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
