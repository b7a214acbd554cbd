"""The package as a set of modules: what importing one loads, and what each
one exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
