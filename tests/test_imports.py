"""No module imports a name it never uses, and the package defines none
that nothing names.

There is no linter among the test dependencies, so these scans stand in
for one.  The import scan covers src/, tests/ and demos/; a package's
__init__.py imports names to re-export them and is exempt, as are
`from __future__` imports.  The orphan scan looks for every top-level def
and class of src/pseudo_dce/ in the code of src/, tests/, demos/ and
perfbench/, so a change that removes a definition's last caller removes
the definition too.
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


def _named(tree: ast.Module) -> set[str]:
    """Every name the module's code reads, imports or takes an attribute by."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_no_orphan_definitions():
    named = set()
    for d in (*SCANNED, "perfbench"):
        for path in (ROOT / d).rglob("*.py"):
            named |= _named(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    orphans = []
    for path in sorted((ROOT / "src" / "pseudo_dce").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        orphans += [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in named]
    assert not orphans, "defined but never named: " + "; ".join(orphans)
