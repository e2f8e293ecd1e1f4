"""Every top-level function or class of the package is reached.

A name counts as used when an ``ast.Name`` or ``ast.Attribute`` outside
its own definition refers to it, anywhere in ``src/fatou_lab/`` or
``perfbench/``, or when ``perfbench/layers.py`` names it as a string in
``LAYERS``.  Code only the tests call belongs in ``tests/`` (reference
implementations live in ``tests/reference.py``).
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "fatou_lab").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    # writes the FLGF profile format that `fatou-lab` reads with
    # --profile; kept so the format has a writer next to its reader
    "save_lipschitz_graph",
}


def _names(node) -> set:
    """Names referred to by Name and Attribute nodes under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _layer_strings(tree) -> set:
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in stmt.targets)):
            return {c.value for c in ast.walk(stmt.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return set()


def unreached() -> list:
    """Top-level definitions in src/fatou_lab/ that nothing else uses."""
    used_by = defaultdict(set)  # name -> {(file, top-level statement index)}
    defined = []
    for path in FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, stmt in enumerate(tree.body):
            for name in _names(stmt):
                used_by[name].add((path, i))
            if path.parent.name == "fatou_lab" and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, i, stmt.name))
        if path.name == "layers.py":
            for name in _layer_strings(tree):
                used_by[name].add((path, -1))
    return sorted(f"{path.stem}.{name}" for path, i, name in defined
                  if name not in ALLOWED and not used_by[name] - {(path, i)})


def test_every_package_definition_is_used_outside_itself():
    assert unreached() == []
