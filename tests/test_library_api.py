"""Every public module-level function and class in the library has a user there.

Reference implementations that only tests call belong in `tests/`. A name
counts as used when other code in `src/skybeam` loads it, reads it as an
attribute or imports it; the re-exports in `__init__.py` count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skybeam"


def test_every_public_definition_is_used_in_the_library():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
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
