"""Source hygiene: every module-level import in the package is used."""

import ast
import pathlib

import pytest

import sgcoarse

PACKAGE = pathlib.Path(sgcoarse.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_name(alias):
    return alias.asname or alias.name.split(".")[0]


def _local_names(fn):
    """Names a function or lambda binds itself; a use of one of them inside
    it is not a use of the module global of that name."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    declared_global = set()
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_name(a) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue  # a nested scope's own names are not ours
        if not isinstance(node, ast.Lambda):
            stack += ast.iter_child_nodes(node)
    return names - declared_global


def _global_uses(tree):
    """Names that some expression in the module looks up as a global."""
    used = set()

    def visit(node, shadowed):
        if isinstance(node, SCOPES):
            shadowed = shadowed | _local_names(node)
        if isinstance(node, ast.Name) and node.id not in shadowed:
            used.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _global_uses(tree)
    unused = [
        f"{_bound_name(alias)} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.name != "*" and _bound_name(alias) not in used
    ]
    assert not unused, f"{path.name}: unused imports {unused}"
