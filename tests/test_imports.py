"""Every name a source or test file imports is read in that file, and every
private top-level name of a source module is read somewhere in `src/`.

A stand-in for a linter's unused-import rule (F401): an import bound to a
name that no expression in the file reads, and that `__all__` does not
list, fails. An import kept on purpose carries `# noqa: F401` on its line.
A private function, class or constant that nothing in `src/` reads is dead
code that the other tests cannot see. A public function, class or method
that only unit tests read is a seam kept for them: every one is read in
`src/`, `devtools/`, `perfbench/` or the acceptance tests, or named in
README.md as part of the library's use.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "gradremedy").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ count as read
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(bound)
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path) == []


SOURCES = sorted((ROOT / "src" / "gradremedy").glob("*.py"))


def private_definitions(tree: ast.Module) -> list[str]:
    """The private functions, classes and constants a module defines at its
    top level (dunder names such as __all__ excluded)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(trees) -> set[str]:
    """Every name the trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_private_name_is_read_somewhere_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    read = read_names(trees.values())
    unread = [f"{name}: {private}" for name, tree in trees.items()
              for private in private_definitions(tree) if private not in read]
    assert unread == []


def public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public function and class a module
    defines at its top level, and of each public method of those classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{method.name}", method.name)
                      for method in node.body if isinstance(method, ast.FunctionDef)
                      and not method.name.startswith("_")]
    return found


def test_every_public_name_is_used_outside_the_unit_tests():
    readers = [*SOURCES, *sorted((ROOT / "devtools").glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    read = read_names(ast.parse(path.read_text()) for path in readers)
    read |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [f"{path.name}: {qualified}" for path in SOURCES
              for qualified, name in public_definitions(ast.parse(path.read_text()))
              if name not in read]
    assert unused == []
