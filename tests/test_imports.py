"""Package modules use one another only through public names, and so do
the tools and the benchmark."""

import ast
from pathlib import Path

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
