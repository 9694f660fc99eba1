"""Cell-by-cell difference of two tfkit report trees.

    python tests/report_diff.py OLD NEW

compares the files of two report directories, as `tfkit all --out DIR`
writes them, and prints one line per moved cell: file, row, column,
old -> new, the relative change |new - old| / |old| of a numeric cell,
and "grade changed" when the move changed a pass/fail grade (a check
row's `status` cell, a boolean or a `failures` entry of summary.json, or
a failing-check count on a stdout line).  A file named `stdout` is
compared line by line.  The exit code is 1 when anything moved, else 0.

tests/test_acceptance.py runs it on a mismatch against the reference
reports in tests/reports, so that a failure names every moved cell.
"""

import csv
import io
import json
import re
import sys
from pathlib import Path


def read_tree(path: Path) -> dict:
    """{file name: bytes} of every file in the directory path."""
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir()) if p.is_file()}


def tree_moves(old: dict, new: dict) -> list:
    """One line per moved cell of two {file name: bytes} trees, and one
    per file that only one of them has."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            lines.append(f"{name}: only in the {'old' if name in old else 'new'} tree")
        elif old[name] != new[name]:
            a, b = old[name].decode("utf-8"), new[name].decode("utf-8")
            if name.endswith(".csv"):
                moved = _csv_moves(name, a, b)
            elif name.endswith(".json"):
                moved = _json_moves(name, a, b)
            else:
                moved = _line_moves(name, a, b)
            lines.extend(moved or [f"{name}: the bytes differ, no cell moved"])
    return lines


def _move(where: str, old, new, graded: bool) -> str:
    line = f"{where}: {old} -> {new}"
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        a = b = None
    if a is not None and not isinstance(old, bool):
        line += f", relative change {abs(b - a) / abs(a):.3g}" if a else ", from zero"
    return line + (", grade changed" if graded else "")


def _csv_moves(name: str, old: str, new: str) -> list:
    old_rows = list(csv.reader(io.StringIO(old, newline="")))
    new_rows = list(csv.reader(io.StringIO(new, newline="")))
    header = new_rows[0] if new_rows else []
    lines = []
    if old_rows[:1] != new_rows[:1]:
        lines.append(f"{name} header: {old_rows[:1]} -> {new_rows[:1]}")
    status = header.index("status") if "status" in header else None
    for i, (a, b) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        graded = status is not None and a[status:status + 1] != b[status:status + 1]
        for col, x, y in zip(header, a, b):
            if x != y:
                lines.append(_move(f"{name} row {i} ({b[0]}) {col}", x, y, graded))
    if len(old_rows) != len(new_rows):
        lines.append(f"{name}: {len(old_rows) - 1} rows -> {len(new_rows) - 1} rows")
    return lines


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _json_moves(name: str, old: str, new: str) -> list:
    a, b = dict(_leaves(json.loads(old))), dict(_leaves(json.loads(new)))
    lines = []
    for path in sorted(a.keys() | b.keys()):
        x, y = a.get(path, "(absent)"), b.get(path, "(absent)")
        if x != y or type(x) is not type(y):
            graded = path.startswith("failures") or isinstance(x, bool) or isinstance(y, bool)
            lines.append(_move(f"{name} {path}", x, y, graded))
    return lines


def _line_moves(name: str, old: str, new: str) -> list:
    a, b = old.splitlines(), new.splitlines()
    lines = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else "(absent)"
        y = b[i] if i < len(b) else "(absent)"
        if x != y:
            graded = re.findall(r"\((\d+) failing", x) != re.findall(r"\((\d+) failing", y)
            lines.append(_move(f"{name} line {i + 1}", repr(x), repr(y), graded))
    return lines


if __name__ == "__main__":
    moves = tree_moves(read_tree(sys.argv[1]), read_tree(sys.argv[2]))
    print("\n".join(moves) if moves else "no cell moved")
    sys.exit(1 if moves else 0)
