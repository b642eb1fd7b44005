"""Every public library definition and every class field has a reader.

Reference implementations that only tests call belong in `tests/`. A name
counts as used when other code in `src/skybeam` loads it, reads it as an
attribute or imports it; the re-exports in `__init__.py` count. A class
field counts as read when `src/skybeam` or `tests/` reads an attribute of
that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skybeam"
TESTS = Path(__file__).resolve().parent


def _trees(directory: Path):
    for path in sorted(directory.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_public_definition_is_used_in_the_library():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path, tree in _trees(SRC):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, f"public definitions no library code uses: {unused}"


def test_every_class_field_is_read():
    fields: dict[str, str] = {}  # "module:Class.field" -> field name
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[f"{path.name}:{node.name}.{stmt.target.id}"] = stmt.target.id
    read = {
        node.attr
        for directory in (SRC, TESTS)
        for _, tree in _trees(directory)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(key for key, name in fields.items() if name not in read)
    assert not unread, f"class fields nothing reads: {unread}"
