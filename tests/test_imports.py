import ast
from pathlib import Path

import untensor


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads.  `from __future__`
    imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nx: b = os\n"
    assert unused_imports(source) == ["d (line 3)"]


def test_package_modules_read_every_name_they_import():
    package = Path(untensor.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    found = [f"{path.name}: {name}" for path in modules for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
