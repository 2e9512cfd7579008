"""Source checks on the library's modules.

No function writes module state: a result goes back as a return value,
not through a `global` or `nonlocal` name that the caller reads after
the call.

No public function or class is unreachable: each is used by code in the
package, or named where the package is used from outside it (README's
examples and the benchmark), so code that nothing runs is deleted rather
than kept.

Every text file is read by `errors.read_lines`, so one line rule holds
for every input: no other module calls `read_text`, and none splits a
file's text with `str.splitlines`, which also ends a line at breaks
such as U+2028 that the line rule keeps inside it.
"""

import ast
import re
from pathlib import Path

import rareclass

PACKAGE = Path(rareclass.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


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


def _used_names(node: ast.AST) -> set[str]:
    """Names that code under `node` uses: loaded or stored names, attributes
    and imported names.  Strings (docstrings, the package's export table)
    and comments are not code, so they use nothing."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.add(child.name.rpartition(".")[2])
    return used


def test_every_public_function_and_class_is_used():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(trees) > 10  # the package's modules were found
    outside = [REPO / "README.md", *sorted((REPO / "perfbench").glob("*.py"))]
    outside.append(REPO / "tests" / "test_benchmark_contract.py")
    mentioned = "\n".join(path.read_text(encoding="utf-8") for path in outside)
    uses = {module: [_used_names(node) for node in tree.body] for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        used = set().union(*(u for m, us in uses.items() if m != module for u in us))
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # a use inside its own definition (a recursive call) does not count
            own = set().union(*(u for j, u in enumerate(uses[module]) if j != i))
            if node.name in used or node.name in own:
                continue
            if not re.search(rf"\b{re.escape(node.name)}\b", mentioned):
                found.append(f"{module}.py:{node.lineno}: {node.name}")
    assert not found, "used nowhere else:\n" + "\n".join(found)


def _call_name(node: ast.AST) -> str | None:
    """The name a call calls: `f` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def test_text_files_are_read_by_the_line_reader():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            name = _call_name(node)
            if name == "read_text" and path.stem != "errors":
                found.append(f"{path.name}:{node.lineno}: read_text")
            # `x.splitlines()` on what a reading call returns: `read_text`, `read`, ...
            if name == "splitlines" and isinstance(node.func, ast.Attribute):
                reader = _call_name(node.func.value) or ""
                if reader.startswith("read"):
                    found.append(f"{path.name}:{node.lineno}: {reader}(...).splitlines()")
    assert not found, "text read outside errors.read_lines:\n" + "\n".join(found)
