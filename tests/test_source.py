"""The package's source itself: what a refactor can leave behind unnoticed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kingman"


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}  # the name an import binds -> its line
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:  # import a.b binds a
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, f"{path.name} imports names it never uses: {unused}"
