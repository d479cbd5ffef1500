"""The test oracle stays a separate route: it imports nothing of the package."""

import ast
from pathlib import Path


def test_oracle_imports_only_fractions():
    tree = ast.parse((Path(__file__).parent / "_oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"fractions"}
