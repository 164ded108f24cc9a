"""The mutant list of scripts/mutants.py against the code and tests it names.

The script refuses a mutant whose old text no longer occurs exactly once,
but only when it runs, and it runs no part of the tier-1 suite.  Here each
mutant's anchor must occur exactly once in its file, and each test it names
must exist, so a refactor that moves the code or renames a test shows at
once.  No mutant is applied and no pytest process is started.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


def defines(body: list, names: list[str]) -> bool:
    """Whether the statements define the class or function path names."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == names[0]:
            return len(names) == 1 or isinstance(node, ast.ClassDef) and defines(node.body, names[1:])
    return False


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_anchor_occurs_once_and_named_tests_exist(mutant):
    text = (ROOT / "src" / "maxminsep" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        assert (ROOT / path).is_file(), test
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        assert not names or defines(tree.body, names), test
