"""Every public library definition, every method and every class field has a reader.

Reference implementations and helpers that only tests call belong in
`tests/`, and a private module-level name that no library code reads is
dead. A module-level name counts as used when code in `src/skybeam` loads
it, reads it as an attribute or imports it; the re-exports in `__init__.py`
count. A method or property counts as used only when `src/skybeam` reads it
as an attribute, so a local variable of the same name does not hide an
unused property. Dunder methods are exempt, and so is a
method that implements an abstract method of a base class imported from
outside the package: the outside code calls it, as Python calls a dunder.
A class field counts as read when `src/skybeam` reads an attribute of that
name outside the class's own `__post_init__`: a field that only its own
validation reads changes no output. The few fields that only tests read are
named in `TEST_ONLY_FIELDS`, so a new test-only field fails here until it is
listed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from skybeam.channel import entity_block

SRC = Path(__file__).resolve().parent.parent / "src" / "skybeam"
TESTS = Path(__file__).resolve().parent


def _trees(directory: Path):
    for path in sorted(directory.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _library_uses() -> set[str]:
    """Names that `src/skybeam` loads, reads as an attribute or imports."""
    used: set[str] = set()
    for _, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _attribute_reads(trees, skip=None) -> set[str]:
    """Attribute names that the module `trees` read (`obj.name` in a load),
    leaving out the reads inside `skip`, a node of one of those trees."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skipped
    }

def test_every_public_definition_is_used_in_the_library():
    defined: dict[str, str] = {}
    for path, tree in _trees(SRC):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
    used = _library_uses()
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"public definitions no library code uses: {unused}"


def _module_level_names(tree) -> list[str]:
    """The functions, classes and assigned names a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
    return names


def test_every_private_definition_is_read_in_the_library():
    """A module-level `_name` (function, class or constant) that no library
    code reads is dead: the helper a deleted caller left behind."""
    defined = {
        f"{path.name}:{name}"
        for path, tree in _trees(SRC)
        for name in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__")
    }
    used = _library_uses()
    unread = sorted(key for key in defined if key.split(":")[1] not in used)
    assert not unread, f"private definitions no library code reads: {unread}"


def _outside_abstract_methods(tree, cls: ast.ClassDef) -> set[str]:
    """The abstract methods that `cls`'s bases declare, for each base that
    its module imports by `from <module outside the package> import`."""
    outside = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and not node.module.startswith("skybeam")
        for alias in node.names
    }
    names: set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in outside:
            module, name = outside[base.id]
            names |= set(getattr(getattr(importlib.import_module(module), name), "__abstractmethods__", ()))
    return names


def test_every_method_is_used_in_the_library():
    methods: dict[str, str] = {}  # "module:Class.method" -> method name
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                implemented = _outside_abstract_methods(tree, node)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if stmt.name.startswith("__") and stmt.name.endswith("__"):
                            continue
                        if stmt.name not in implemented:
                            methods[f"{path.name}:{node.name}.{stmt.name}"] = stmt.name
    used = _attribute_reads(tree for _, tree in _trees(SRC))
    unused = sorted(key for key, name in methods.items() if name not in used)
    assert not unused, f"methods and properties no library code uses: {unused}"


# class fields that tests read and no library code does
TEST_ONLY_FIELDS = {
    "genetic.py:Individual.fitness",
}


def test_every_class_field_is_read():
    fields: dict[str, str] = {}  # "module:Class.field" -> field name
    reads: dict[str, set[str]] = {}  # "module:Class.field" -> library reads outside its class's __post_init__
    src = list(_trees(SRC))
    trees = [tree for _, tree in src]
    library = _attribute_reads(trees)
    for path, tree in src:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                post_init = next(
                    (stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"),
                    None,
                )
                class_reads = library if post_init is None else _attribute_reads(trees, skip=post_init)
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        key = f"{path.name}:{node.name}.{stmt.target.id}"
                        fields[key], reads[key] = stmt.target.id, class_reads
    unread = sorted(key for key, name in fields.items() if name not in reads[key] and key not in TEST_ONLY_FIELDS)
    assert not unread, f"class fields no library code reads: {unread}"
    test_only = _attribute_reads(tree for _, tree in _trees(TESTS)) - library
    stale = sorted(key for key in TEST_ONLY_FIELDS if fields.get(key) not in test_only)
    assert not stale, f"TEST_ONLY_FIELDS entries that are gone, read by the library or read by no test: {stale}"


def test_channel_takes_no_entity_class():
    """A link's height picks every large-scale model, so no function in
    `skybeam.channel` takes a `kind` parameter, and `entity_block`'s record
    holds the positions alone."""
    tree = ast.parse((SRC / "channel.py").read_text())
    takes_kind = sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "kind" in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    )
    assert not takes_kind, f"functions taking a kind: {takes_kind}"
    assert entity_block(np.zeros((2, 3))).dtype.names == ("position_3d_m",)


def test_only_config_reads_the_noise_keys():
    """`RadioConfig.noise_mw` is the one receiver noise: no library module
    but `config.py` reads the thermal PSD or the UE noise figure."""
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path, tree in _trees(SRC)
        if path.name != "config.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("noise_psd_dbm_per_hz", "ue_noise_figure_db")
    )
    assert not readers, f"noise keys read outside config.py: {readers}"


def test_only_scenario_reads_the_mast_height():
    """A sector's `position_3d_m` is its mast, which `scenario.py` builds
    from `layout.bs_height_m`: no other library module reads the key, so
    every link model takes its sector's own height."""
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path, tree in _trees(SRC)
        if path.name != "scenario.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "bs_height_m"
    )
    assert not readers, f"bs_height_m read outside scenario.py: {readers}"
