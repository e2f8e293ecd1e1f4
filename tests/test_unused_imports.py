"""Every name a module under ``src/`` or ``tests/`` imports is used there.

A name counts as used when an ``ast.Name`` in the same module refers to
it; ``import a.b`` binds ``a``, and ``from __future__`` imports are
directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports() -> list:
    """"path:line name" for every imported name its module never uses."""
    out = []
    for path in FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        out += [f"{path.relative_to(ROOT)}:{line} {name}"
                for name, line in imported.items() if name not in used]
    return out


def test_no_unused_imports():
    assert unused_imports() == []
