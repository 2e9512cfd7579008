"""Source checks on the library's modules.

No function writes module state: a result goes back as a return value,
not through a `global` or `nonlocal` name that the caller reads after
the call.
"""

import ast
from pathlib import Path

import rareclass

PACKAGE = Path(rareclass.__file__).resolve().parent


def test_no_global_or_nonlocal_statement():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10  # the package's modules were found
    found = [
        f"{path.name}:{node.lineno}: {type(node).__name__.lower()} {', '.join(node.names)}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert not found, "\n".join(found)
