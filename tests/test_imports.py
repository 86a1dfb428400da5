"""No module imports a name it never uses.

There is no linter among the test dependencies, so this AST scan stands in
for one over src/, tests/ and demos/.  A package's __init__.py imports
names to re-export them and is exempt, as are `from __future__` imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})"
            for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = [p for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    found = {str(p.relative_to(ROOT)): names
             for p in files if (names := unused_imports(p))}
    assert not found, "unused imports: " + "; ".join(
        f"{path}: {', '.join(names)}" for path, names in found.items())
