"""Module boundaries: no module reaches into another module's private
names, either by importing them or by attribute access, and every name a
module exports is its own."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tfkit"


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


def test_every_exported_name_is_defined_in_its_module():
    # the benchmark tracer wraps each __all__ function by getattr, so a
    # stale name left after a rename would crash a traced run
    problems = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"tfkit.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                problems.append(f"{path.stem}.{name} is missing")
                continue
            obj = getattr(module, name)
            if callable(obj) and obj.__module__ != module.__name__:
                problems.append(f"{path.stem}.{name} is defined in {obj.__module__}")
    assert problems == []


def test_no_numeric_module_knows_the_config_error():
    # a config is judged once, in suites, before any numeric code runs
    numeric = ("groups", "signals", "transform", "kernels", "frames", "regnets", "modspaces")
    found = []
    for stem in numeric:
        path = SRC / f"{stem}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if "ConfigError" in names or getattr(node, "attr", None) == "ConfigError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_signals_and_transform_read_the_shift_windows_view():
    # the node layout that the DGT pair and the Gabor spectrum read has one
    # owner, transform.node_windows; any other module goes through it or
    # through signals.shift_matrix
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("signals", "transform"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names += [getattr(node, "attr", None), getattr(node, "id", None)]
            if "shift_windows" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_signals_names_numpys_fft():
    # every FFT goes through the one dispatch, signals.fft_axes, which
    # sends a single axis straight to np.fft.fft or ifft
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "signals":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                found.append(f"{path.name}:{node.lineno}: .fft")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                if any(name.startswith("numpy.fft") for name in names):
                    found.append(f"{path.name}:{node.lineno}: from {node.module}")
            elif isinstance(node, ast.Import):
                if any(a.name.startswith("numpy.fft") for a in node.names):
                    found.append(f"{path.name}:{node.lineno}: import numpy.fft")
    assert found == []


def test_only_errors_names_operator_index():
    # every integer argument is judged by the one rule, errors.as_integer,
    # which refuses the bool that operator.index takes for 1
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "errors":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "index":
                if isinstance(node.value, ast.Name) and node.value.id == "operator":
                    found.append(f"{path.name}:{node.lineno}: operator.index")
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                if any(a.name == "index" for a in node.names):
                    found.append(f"{path.name}:{node.lineno}: from operator import index")
    assert found == []


def test_every_table_the_tracer_reads_the_cache_of_keeps_its_cache():
    # benchmarks/tracer.py calls cache_info() on each exported function
    # named in its CACHED_TABLES; read the names without importing it
    path = ROOT / "benchmarks" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    cached = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "CACHED_TABLES" for t in node.targets)
    )
    missing = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"tfkit.{path.stem}")
        for name in set(cached) & set(getattr(module, "__all__", ())):
            if not hasattr(getattr(module, name), "cache_info"):
                missing.append(f"{path.stem}.{name}")
    assert missing == []


def test_no_dense_oracle_is_a_library_export():
    # tests/oracles.py keeps the dense second routes; a library export of
    # one of their names would be a second copy of the concept
    path = ROOT / "tests" / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    oracles = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"gabor_atoms", "frame_operator"} <= oracles
    package = importlib.import_module("tfkit")
    exported = {name for name in vars(package) if not name.startswith("_")}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"tfkit.{path.stem}")
            exported |= set(getattr(module, "__all__", ()))
    assert sorted(oracles & exported) == []
