"""Source hygiene: no unused imports, no private helper that nothing calls."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pricedbool"
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
MODULES = [name for name in TREES if name != "__init__.py"]
# the test modules, keyed apart from the package's
TEST_TREES = {f"tests/{p.name}": ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py"))}


def _reads(tree) -> set:
    """Every name the module loads, as a bare name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("module", MODULES + list(TEST_TREES))
def test_every_import_is_used(module):
    tree = TREES.get(module) or TEST_TREES[module]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    assert imported <= loaded, sorted(imported - loaded)


@pytest.mark.parametrize("module", MODULES)
def test_every_private_top_level_name_is_referenced(module):
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    referenced = set().union(*map(_reads, TREES.values()))
    assert private <= referenced, sorted(private - referenced)
