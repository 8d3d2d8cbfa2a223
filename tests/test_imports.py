"""Package modules use one another only through public names, and so do
the tools and the benchmark; each function the benchmark wraps is defined
or called by name in the module where it is wrapped; each command imports
only the stages it runs."""

import ast
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import chronus
from chronus.pipeline import data_path

from helpers import TESTS_DATA

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chronus"


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "chronus"):
                private.extend(f"{path.name}: {alias.name}"
                               for alias in node.names
                               if alias.name.startswith("_"))
    assert private == []


ROOT = PACKAGE.parents[1]


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_chronus_names(tree):
    """Underscore names that ``tree`` imports from chronus, or reads as an
    attribute of a name it imported from chronus."""
    imported, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[0] == "chronus":
            private.extend(node.module.split(".")[1:] + [
                alias.name for alias in node.names])
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "chronus":
                    private.extend(alias.name.split("."))
                    imported.add(alias.asname or "chronus")
    private = [name for name in private if _private(name)]
    private.extend(
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in imported and _private(node.attr))
    return private


def test_tools_and_benchmark_use_only_public_chronus_names():
    private = []
    for folder in ("tools", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            private.extend(f"{path.relative_to(ROOT)}: {name}"
                           for name in _private_chronus_names(tree))
    assert private == []


def _wrapped_pairs():
    """The ``(module, name)`` pairs of ``WRAPPED`` in perfbench/spans.py,
    read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(
        encoding="utf-8"))
    wrapped = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["WRAPPED"])
    return [(module.id, name.value)
            for entry in wrapped.elts
            for module, name in (pair.elts for pair in entry.elts[1].elts)]


def test_every_benchmark_wrap_point_is_defined_or_called_there():
    # the trace replaces module.name, so it sees a call only if the module
    # defines the function or calls it through that global name
    pairs = _wrapped_pairs()
    assert pairs
    missing = []
    for module, name in pairs:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        defined = any(isinstance(node, ast.FunctionDef) and node.name == name
                      for node in tree.body)
        called = any(isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id == name
                     for node in ast.walk(tree))
        if not (defined or called):
            missing.append(f"{module}.{name}")
    assert missing == []


# A child that records the modules it has before importing the CLI, runs
# one command and prints the modules that command added, so modules that
# the environment's ``site`` preloads never count.
_FOOTPRINT = """
import io, json, sys
before = set(sys.modules)
from chronus.cli import main
rc = main(sys.argv[1:], out=io.StringIO())
print(json.dumps({"rc": rc, "hashlib_before": "hashlib" in before,
                  "new": sorted(set(sys.modules) - before)}))
"""


def _footprint(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(chronus.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0, (argv, proc.stderr)
    return result


def test_each_command_imports_only_the_stages_it_runs(tmp_path):
    model = str(tmp_path / "model.txt")
    demo = str(data_path("demo_corpus.txt"))
    semi = str(data_path("semi_corpus.txt"))
    runs = {
        "train": ["train", "--corpus", demo, "--out", model],
        "decode": ["decode", "--model", model, "SHOW ME FLIGHTS TO BOSTON"],
        "repl": ["repl", "--model", model,
                 "--script", str(TESTS_DATA / "repl_script1.txt")],
        "eval": ["eval", "--model", model, "--corpus", demo],
        "loop": ["loop", "--model", model, "--corpus", semi],
        "gen": ["gen", "alignment", "--test", "5",
                "--out", str(tmp_path / "gen")],
    }
    loaded = {name: _footprint(argv) for name, argv in runs.items()}
    for name in ("decode", "repl"):
        assert {"chronus.training", "chronus.gen"}.isdisjoint(
            loaded[name]["new"]), name
    # no command loads OpenSSL: the loop's snapshot ids use CPython's own
    # SHA-256; a site that preloads hashlib leaves nothing to check
    for name, result in loaded.items():
        if not result["hashlib_before"]:
            assert {"hashlib", "_hashlib"}.isdisjoint(result["new"]), name


def test_data_path_names_the_bundled_file_that_resources_names():
    folder = Path(chronus.__file__).parent / "data"
    names = sorted(path.name for path in folder.iterdir() if path.is_file())
    assert names
    for name in names:
        assert os.path.samefile(data_path(name),
                                resources.files("chronus.data") / name), name
