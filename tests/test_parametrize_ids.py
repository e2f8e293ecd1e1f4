"""No ``pytest.mark.parametrize`` under ``tests/`` names its cases by a
bound ``str.join`` such as ``ids="-".join``.

pytest hands an ``ids`` callable one argument value at a time, so a
string's join spells each string value out letter by letter
(``n-a-g-e-l---s-t-e-i-n``) instead of joining the case's values.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "tests").rglob("*.py"))


def join_ids() -> list:
    """"path:line" of every parametrize call whose ids is a str's join."""
    out = []
    for path in FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "parametrize"):
                continue
            out += [f"{path.relative_to(ROOT)}:{node.lineno}"
                    for kw in node.keywords
                    if kw.arg == "ids" and isinstance(kw.value, ast.Attribute)
                    and kw.value.attr == "join"
                    and isinstance(kw.value.value, ast.Constant)
                    and isinstance(kw.value.value.value, str)]
    return out


def test_no_parametrize_ids_by_str_join():
    assert join_ids() == []
