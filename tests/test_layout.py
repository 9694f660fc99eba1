"""Module boundaries: no module reaches into another module's private
names, either by importing them or by attribute access."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tfkit"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [
                f"{path.name}:{node.lineno}: imports {alias.name} from {node.module}"
                for alias in node.names
                if _private(alias.name)
            ]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append(f"{path.name}:{node.lineno}: accesses .{node.attr}")
    return found


def test_no_private_name_crosses_a_module():
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "transform.py" in paths
    assert [use for path in paths for use in private_uses(path)] == []
