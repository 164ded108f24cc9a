"""The benchmark's tracer against the package it traces.

bench/spans.py wraps functions by name at install and fails on a name that
is gone, so a renamed or moved function would show only in a traced
benchmark run.  Here the tracer is installed over every module, one
separate-box request runs under it, and uninstall must put every module
attribute and every wrapped method back.  The request must book its
instance read to the serialize.parse span.
"""
import importlib.util
from pathlib import Path

from maxminsep import cli
from maxminsep.core import Point

from helpers import package_modules
from test_cli import SEPARABLE, write_instance

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(modules) -> dict:
    """Every module attribute, and every attribute of the package's classes."""
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            out[module.__name__, name] = value
            if isinstance(value, type) and value.__module__.startswith("maxminsep"):
                out.update(((value.__module__, value.__qualname__, key), v) for key, v in vars(value).items())
    return out


def test_tracer_restores_the_package_and_books_the_instance_read(tmp_path, capsys):
    modules = package_modules()
    before = snapshot(modules)
    post_init = Point.__dict__["__post_init__"]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = cli.main(["separate-box", "-i", write_instance(tmp_path, SEPARABLE)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    after = snapshot(modules)
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert Point.__dict__["__post_init__"] is post_init
    recorded = {tracer.names[i] for i in tracer.span_name}
    assert {"cli.main", "serialize.parse_instance"} <= recorded
