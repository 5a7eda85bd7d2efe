"""Every definition in ``src/cmtwist`` has a reader in ``src/cmtwist``.

The package's results reach users through the CLI, so a module-level
function, class or constant that no code in the package loads, or a
method or property that no code reads as an attribute, is dead: tests
alone keep it alive.  Brute-force oracles and corpus builders belong in
``tests/``.

A use is a load of the name (``ast.Name``) for module-level definitions,
or a read of the attribute (``ast.Attribute``) for methods and
properties, anywhere in the package outside the definition's own body.
Imports, ``__all__`` strings, docstrings and doctests, and annotations
(never evaluated under ``from __future__ import annotations``) do not
count.  Dunder names are exempt.

The same walk finds no ``assert`` statement and no ``AssertionError`` in
the package: a check there is a predicate that can fail, or its docstring
proves that it cannot.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cmtwist"

# name -> one-line reason it may stay without a reader in the package
ALLOWED: dict[str, str] = {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            roots += [a.annotation for a in every if a.annotation is not None]
            if node.returns is not None:
                roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _definitions(tree: ast.Module, module: str):
    """(kind, qualified name, lookup name, node) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield "name", f"{module}.{node.name}", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield "name", f"{module}.{leaf.id}", leaf.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield ("attribute", f"{module}.{node.name}.{item.name}",
                           item.name, item)


def unused_definitions() -> list[str]:
    """Definitions with no reader, closed under "read only by the unused"."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses: dict[tuple[str, str], list[int]] = {}
    for tree in trees.values():
        skip = _annotation_nodes(tree)
        for node in ast.walk(tree):
            if id(node) in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                uses.setdefault(("name", node.id), []).append(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(("attribute", node.attr), []).append(id(node))
    defs = [(kind, qualname, name, {id(n) for n in ast.walk(node)})
            for module, tree in trees.items()
            for kind, qualname, name, node in _definitions(tree, module)
            if not _is_dunder(name) and qualname not in ALLOWED]
    unused: list[str] = []
    dead: set[int] = set()
    while True:
        new = [(qualname, inside) for kind, qualname, name, inside in defs
               if qualname not in unused
               and all(u in inside or u in dead for u in uses.get((kind, name), ()))]
        if not new:
            return sorted(unused)
        for qualname, inside in new:
            unused.append(qualname)
            dead |= inside


def test_the_walk_sees_every_module():
    assert {p.stem for p in SRC.glob("*.py")} >= {
        "__init__", "cli", "cmtypes", "fields", "inertia", "residues", "twists"}


def test_every_definition_has_a_reader_in_src():
    unused = unused_definitions()
    assert not unused, "nothing in src/cmtwist reads: " + ", ".join(unused)


def test_src_holds_no_assert_and_no_assertion_error():
    # a check in src either can fail on some input, as its own predicate,
    # or is proved in a docstring; it never sits behind an AssertionError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "assert or AssertionError in src/cmtwist: " + ", ".join(found)
