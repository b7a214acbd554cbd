"""The package as a set of modules: what importing one loads, and what each
one exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clustercones"


def test_importing_a_module_loads_no_other_package_module():
    # the package exports nothing, so a module that needs no sibling
    # loads none of them
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for module in ("clustercones.laurent", "clustercones.expressions"):
        probe = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'clustercones'))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == f"['clustercones', '{module}']\n", module


# runs `main` on argv, when given, after importing the CLI, then lists the
# package modules loaded
LOADED_BY_CLI = """
import contextlib, io, sys
import clustercones.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = clustercones.cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("clustercones."))))
sys.exit(code)
"""


@pytest.mark.parametrize("argv,grassmannian,kernel", [
    ([], False, False),
    (["enumerate", "--type", "E6", "--frozen", "6"], False, False),
    (["check", "--gr", "3", "8", "--ratio", "p[145]*p[235]/(p[135]*p[245])"],
     True, False),
    (["verify", "--suite", "gr48", "--samples", "1"], True, True),
], ids=["import", "enumerate-E6", "check-gr38", "verify-gr48"])
def test_a_cli_run_loads_only_the_modules_it_runs(argv, grassmannian, kernel):
    # the CLI loads the module of the command it dispatches, the
    # Grassmannian module only on Grassmannian paths, and the 4x8 kernel
    # only for the gr48 suite
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", LOADED_BY_CLI, *argv], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert ("clustercones.grassmannian" in loaded) == grassmannian
    assert ("clustercones.gr48" in loaded) == kernel
    commands = {m for m in loaded if m.startswith("clustercones.commands")}
    assert commands == ({"clustercones.commands", f"clustercones.commands.{argv[0]}"}
                        if argv else set())


def test_every_exported_name_is_used_outside_its_definition():
    # a name counts as used where code reads it (a Name or an Attribute
    # node), not where a docstring or comment mentions it; tests do not count
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(PACKAGE.glob("*.py")),
                          *sorted((ROOT / "benchmark").glob("*.py"))]}
    readers = {}  # name -> {(file, top-level statement it is read in)}
    for path, tree in trees.items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add((path, owner))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add((path, owner))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in trees[path].body:
            if (isinstance(stmt, ast.Assign)
                    and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]):
                unused += [f"{path.stem}.{name}" for name in ast.literal_eval(stmt.value)
                           if readers.get(name, set()) <= {(path, name)}]
    assert unused == []
