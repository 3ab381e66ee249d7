"""Every public top-level function and class in ``src/sepprob`` has a caller.

A caller is a ``Name`` or ``Attribute`` reference anywhere in ``src/``,
``demos/`` or ``perfbench/*.py`` outside the definition itself.  Imports and
``__all__`` entries are not references, so an ``__init__`` re-export does not
keep a name alive, and neither do the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(node: ast.AST) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def dead_public_names(root: Path = ROOT) -> list[str]:
    src = root / "src" / "sepprob"
    files = [*src.rglob("*.py"), *(root / "demos").glob("*.py"),
             *(root / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    used = Counter()
    for tree in trees.values():
        used += _references(tree)
    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and used[node.name] == _references(node)[node.name]):
                dead.append(f"{path.relative_to(root)}: {node.name}")
    return sorted(dead)


def test_every_public_name_has_a_caller():
    assert dead_public_names() == []
