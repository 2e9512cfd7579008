"""Source checks on the library's modules.

No function writes module state: a result goes back as a return value,
not through a `global` or `nonlocal` name that the caller reads after
the call.

No public function or class is unreachable: each is used by code in the
package, or named where the package is used from outside it (README's
examples and the benchmark), so code that nothing runs is deleted rather
than kept.
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
