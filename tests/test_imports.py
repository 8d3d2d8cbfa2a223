"""Package modules use one another only through public names."""

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
