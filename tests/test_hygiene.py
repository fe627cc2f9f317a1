"""Source hygiene: every module-level import in the package is used,
every module-level definition, method and property has a caller outside
the unit tests or is listed as waiting on an open item for one, and only
dynamics reads a branch or spin-pair label."""

import ast
import functools
import importlib
import pathlib
import types

import pytest

import sgcoarse

PACKAGE = pathlib.Path(sgcoarse.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = DEFS + (ast.Lambda,)
# Files whose references count as callers: a name only unit tests call is dead.
CALLERS = ("src", "bench", "tests/test_acceptance.py", "tests/conftest.py")
# Names that wait on an open ROADMAP item for their first caller, by module.
# Exact, so it can only shrink: a listed name that gains a caller or is
# deleted fails until it leaves the list.
AWAITING_CALLER = {
    "dynamics.py": {"evolve_free_after_field"},  # items 6 and 8
    "information.py": {"reduced_spin_density", "von_neumann_entropy"},  # item 6
    "phase_space.py": {"coarse_position_density"},  # item 9
}
# Methods and properties, as Class.name, that wait the same way.  Exact too.
AWAITING_METHODS = {
    "dynamics.py": {"SpinorWavepacket.in_field"},  # items 6 and 8
    "information.py": {"ScreenDistribution.mean_information"},  # item 4
    "oracle.py": {"GridState.boundary_mass"},  # item 9
    "phase_space.py": {"CoarsePixelSpec.cell_ratio"},  # item 9
}
# Method and property names that some other field, method or function in
# src also defines.  test_methods_and_properties_are_referenced matches
# callers by name, so a read of any one of them passes them all; each was
# checked by hand, with the src call that reaches it noted.  Exact, so a new
# collision fails until someone checks it the same way.  Names in
# AWAITING_METHODS are left out: that check already lists them as dead.
SHARED_NAMES = {
    "accel",  # PhysicalParams.accel: derive_scales and evolve_in_field read params.accel
    "amplitude",  # SpinorWavepacket.amplitude: density_matrix, oracle._branch_error
    "center",  # SpinorWavepacket.center: density_grid_for_wigner
    "value",  # GaussianBranch.value: SpinorWavepacket.amplitude;
    # PhaseSpaceGaussian.value: wigner_analytic passes it to _lay_blocks
    "variance",  # SpinorWavepacket.variance: density_grid_for_wigner;
    # GaussianBranch.variance: SpinorWavepacket.variance
}


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


def _defined_names(tree):
    """Top-level functions, classes and assigned names, each with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node


def _references(node, strings=True):
    """Identifiers that `node` loads, reads as an attribute or, with
    `strings`, spells as a whole string literal (as getattr hooks do)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value


@functools.cache
def _caller_trees():
    """(path, syntax tree) of every file in CALLERS."""
    sources = [p for c in map(ROOT.joinpath, CALLERS)
               for p in (c.rglob("*.py") if c.is_dir() else [c])]
    return tuple((s, ast.parse(s.read_text(encoding="utf-8"), filename=str(s))) for s in sources)


def _referenced_outside(path, names):
    """The subset of `names` some file in CALLERS refers to, not counting a
    definition's references to itself or the package __init__'s re-export
    list."""
    found = set()
    for source, tree in _caller_trees():
        own = {}  # definition node -> the names it defines, in the module itself
        if source.resolve() == path.resolve():
            for name, node in _defined_names(tree):
                own.setdefault(node, set()).add(name)
        strings = source.resolve() != PACKAGE.resolve() / "__init__.py"
        for node in tree.body:
            skip = own.get(node, set())
            found.update(n for n in _references(node, strings) if n in names and n not in skip)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_level_definitions_are_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {name for name, _ in _defined_names(tree)}
    dead = sorted(names - _referenced_outside(path, names))
    awaiting = sorted(AWAITING_CALLER.get(path.name, ()))
    assert dead == awaiting, f"{path.name}: module-level names without a caller: {dead}"


def _methods(tree):
    """(class, name) of each method and property the module's classes
    define; dunders, which Python itself calls, are left out."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, DEFS) and not node.name.startswith("__"):
                    yield cls.name, node.name


def _definitions(tree):
    """(class, name) of each field, method and property of the module's
    classes, and (None, name) of each module-level definition."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, DEFS):
                    yield cls.name, node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield cls.name, node.target.id
    for name, _ in _defined_names(tree):
        yield None, name


def test_shared_method_names_are_listed():
    # the names the by-name check below cannot tell apart
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    defs = {(module, *d) for module, tree in trees.items() for d in _definitions(tree)}
    awaiting = {m.split(".")[1] for methods in AWAITING_METHODS.values() for m in methods}
    shared = {name for module, tree in trees.items() for cls, name in _methods(tree)
              if any(d[2] == name and d[:2] != (module, cls) for d in defs)}
    assert shared - awaiting == SHARED_NAMES


def _overrides_a_library_method(module, cls_name, name):
    """True when a base class from outside the package defines `name`, as
    argparse.ArgumentParser defines the `error` that cli._Parser overrides:
    the library is then the caller."""
    bases = getattr(module, cls_name).__mro__[1:]
    return any(hasattr(base, name) for base in bases
               if not base.__module__.startswith(sgcoarse.__name__))


def _module_aliases(tree):
    """Names that an `import` statement of the file binds to a module, with
    that module; a module that does not import here is left out."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                try:
                    module = importlib.import_module(alias.name if alias.asname else _bound_name(alias))
                except ImportError:
                    continue
                aliases[_bound_name(alias)] = module
    return aliases


def _module_read(node, aliases):
    """The module that a dotted name such as np.linalg reads, else None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        value = getattr(_module_read(node.value, aliases), node.attr, None)
        return value if isinstance(value, types.ModuleType) else None
    return None


def _attributes_read(names):
    """The subset of `names` some file in CALLERS reads as an attribute,
    not counting a method's reads of its own name inside its body, nor a
    library module's attributes (np.linalg.norm is no GridState.norm)."""
    found = set()

    def visit(node, own, aliases):
        if (isinstance(node, ast.Attribute) and node.attr in names and node.attr not in own
                and _module_read(node.value, aliases) is None):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            method = isinstance(node, ast.ClassDef) and isinstance(child, DEFS)
            visit(child, own | {child.name} if method else own, aliases)

    for _, tree in _caller_trees():
        visit(tree, frozenset(), _module_aliases(tree))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_methods_and_properties_are_referenced(path):
    # by name, as above: a read of `.name` on any object counts for every
    # method and property of that name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module = importlib.import_module(f"{sgcoarse.__name__}.{path.stem}")
    methods = [(cls, name) for cls, name in _methods(tree)
               if not _overrides_a_library_method(module, cls, name)]
    read = _attributes_read({name for _, name in methods})
    dead = sorted(f"{cls}.{name}" for cls, name in methods if name not in read)
    awaiting = sorted(AWAITING_METHODS.get(path.name, ()))
    assert dead == awaiting, f"{path.name}: methods and properties without a caller: {dead}"


LABELS = {"+", "-", "++", "--", "+-", "-+"}
# dynamics' branch_index and pair_indices parse every label
OTHER_MODULES = [p for p in MODULES if p.name != "dynamics.py"]


def _is_label(node):
    """True for a branch or pair label literal, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_label, node.elts))
    return isinstance(node, ast.Constant) and node.value in LABELS


@pytest.mark.parametrize("path", OTHER_MODULES, ids=[p.name for p in OTHER_MODULES])
def test_only_dynamics_compares_labels(path):
    # ==, !=, in and not in against a label literal is how a module decodes
    # a label itself instead of asking dynamics' branch table
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
        and any(map(_is_label, [node.left, *node.comparators]))
    ]
    assert not found, f"{path.name} compares against branch labels: {found}"
