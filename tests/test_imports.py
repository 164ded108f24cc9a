"""What a launch loads: the package exports lazily, and each subcommand
imports only the modules it runs; and what the referee imports."""
import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import maxminsep

SRC = str(Path(maxminsep.__file__).resolve().parent.parent)

# runs `python -m maxminsep ARGS` in this fresh interpreter, then reports the
# package modules it loaded on the last line of stderr
LAUNCH = """
import json, runpy, sys
sys.argv = ["maxminsep", *sys.argv[1:]]
try:
    runpy.run_module("maxminsep", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith("maxminsep."))), file=sys.stderr)
"""


def fresh(*argv):
    """Run python with argv in a fresh interpreter that imports this package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_modules(*args):
    """The maxminsep.* modules a fresh interpreter holds after the command."""
    last = fresh("-c", LAUNCH, *args).stderr.splitlines()[-1]
    return {m.removeprefix("maxminsep.") for m in json.loads(last)}


def write(tmp_path, data):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_family_loads_no_hull_separation_grid_or_drawing_code():
    loaded = loaded_modules("family", "-p", "0.6,0.3")
    assert loaded == {"cli", "core", "errors", "semispaces", "serialize"}


def test_separate_box_loads_no_planar_or_drawing_code(tmp_path):
    instance = {
        "dimension": 2,
        "box": {"lower": ["0.2", "0.2"], "upper": ["0.8", "0.5"]},
        "sets": {"C": [["0.1", "0.8"]]},
    }
    loaded = loaded_modules("separate-box", "-i", write(tmp_path, instance))
    # the benchmark's tracer finds oracle and convex in sys.modules once a
    # separate-box request has run
    assert {"separation", "oracle", "convex"} <= loaded
    assert loaded.isdisjoint({"planar", "svg"})


def test_plot_loads_no_separation_planar_or_verify_code(tmp_path):
    instance = {
        "dimension": 2,
        "box": {"lower": ["0.2", "0.2"], "upper": ["0.8", "0.5"]},
        "sets": {"C": [["0.1", "0.8"]]},
    }
    loaded = loaded_modules("plot", "-i", write(tmp_path, instance), "-o", str(tmp_path / "scene.svg"))
    assert {"svg", "oracle", "convex"} <= loaded
    assert loaded.isdisjoint({"separation", "planar", "verify"})


def test_importing_the_package_loads_no_module():
    probe = (
        "import sys, maxminsep; "
        "print(sorted(m for m in sys.modules if m.startswith('maxminsep.')), "
        "set(maxminsep.__all__) <= set(dir(maxminsep)))"
    )
    assert fresh("-c", probe).stdout == "[] True\n"


@pytest.mark.parametrize("name", [n for n in maxminsep.__all__ if n != "__version__"])
def test_every_export_is_the_defining_modules_object(name):
    module = import_module(f"maxminsep.{maxminsep._MODULE_OF[name]}")
    value = getattr(maxminsep, name)
    assert value is vars(module)[name]
    if getattr(value, "__module__", "").startswith("maxminsep."):
        assert value.__module__ == module.__name__


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from maxminsep import *", namespace)
    assert set(maxminsep.__all__) <= set(namespace) & set(dir(maxminsep))
    # the 51 names and __version__ the package exported when it imported eagerly
    assert len(set(maxminsep.__all__)) == len(maxminsep.__all__) == 52


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'maxminsep' has no attribute 'separate'"):
        maxminsep.separate
    assert not hasattr(maxminsep, "assert_nonseparable")


def test_referee_imports_from_the_library_only_what_it_does_not_check():
    # verify may take the outcome names from separation and, of the kernels
    # it referees, only the box–hull test it still shares with convex
    allowed = {"separation": {"HEMISPACE", "NOT_SEPARABLE", "SEMISPACE"}, "convex": {"box_hull_point"}}
    tree = ast.parse((Path(SRC) / "maxminsep" / "verify.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not {a.name.rpartition(".")[2] for a in node.names} & set(allowed)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            names = {a.name for a in node.names}
            if module in allowed:
                assert names <= allowed[module], (module, names - allowed[module])
            elif module in ("", "maxminsep"):
                assert not names & set(allowed), names
