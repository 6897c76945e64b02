"""Source hygiene of the package: no stale import and no dead helper.

Each module of ``src/chunkalg`` is parsed with ``ast``.  An import that its
module never uses fails (``__init__.py`` re-exports on purpose), so does a
``from .module import _name`` of another module's private name, so does a
``pair_masks`` call or a bit shift outside ``ieutxo.py``, and so does
a module-level function, class, constant or type alias that nothing in
``src/``, ``tests/`` or ``perfbench/`` names outside its own definition
(dunders such as ``__all__`` excepted).  A name counts as used when
it is read as a name or an attribute, imported, or spelled inside a string
that is not a docstring (quoted annotations, ``__all__``, dotted targets
such as ``"FiniteSetsAcs.mcompose"``).  Each ``:func:``, ``:class:``,
``:meth:``, ``:data:`` and ``:mod:`` reference in a docstring of ``src/``
must name something the package defines, so that a deletion leaves no
dangling one.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "chunkalg").glob("*.py"))
SEARCHED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _docstrings(tree: ast.AST) -> set:
    """The ids of the docstring nodes in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def _strings(tree: ast.AST) -> list:
    """Every identifier spelled in a string of ``tree`` that is no docstring."""
    docs = _docstrings(tree)
    return [
        word
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docs
        for word in IDENTIFIER.findall(node.value)
    ]


def _mentions(tree: ast.AST) -> Counter:
    """How often ``tree`` names each identifier."""
    out = Counter(_strings(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
    return out


def _imported(tree: ast.Module) -> list:
    """(bound name, line) for each import of the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out.append((a.asname or a.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out.append((a.asname or a.name, node.lineno))
    return out


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = _parse(path)
    read = set(_strings(tree))
    read.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    """A module's underscore names are its own (dunders such as
    ``__version__`` excepted); an attribute read such as ``Chunk._trusted``
    is no import and stays allowed."""
    private = [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "ieutxo.py"], ids=lambda p: p.name
)
def test_only_ieutxo_spells_the_pair_table_layout(path):
    """Bit ``j`` of a mask stands for a model's transaction ``j``; that layout
    is ``ieutxo``'s, which builds the pair table and walks it, so no other
    module calls ``pair_masks`` or shifts a bit."""
    spelled = [
        f"line {node.lineno}"
        for node in ast.walk(_parse(path))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.LShift))
        or (
            isinstance(node, ast.Call)
            and "pair_masks" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        )
    ]
    assert not spelled, f"{path.name} spells the pair-table layout: {', '.join(spelled)}"


def _bound(node: ast.AST) -> list:
    """The names a module- or class-level statement defines, each target
    of a tuple assignment included."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = [e for t in node.targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_module_level_definition_is_named_elsewhere():
    mentions = {path: _mentions(_parse(path)) for path in SEARCHED}
    everywhere = sum(mentions.values(), Counter())
    dead = []
    for path in MODULES:
        for node in _parse(path).body:
            dead += [
                f"{path.name}:{node.lineno} {name}"
                for name in _bound(node)
                if not name.startswith("__") and everywhere[name] == _mentions(node)[name]
            ]
    assert not dead, "named nowhere outside their own definition: " + ", ".join(dead)


ROLE_REFERENCE = re.compile(r":(?:func|class|meth|data|mod):`~?([\w.]+)`")


def _qualified(path: Path) -> str:
    return "chunkalg" if path.stem == "__init__" else f"chunkalg.{path.stem}"


def _documented(node: ast.AST, cls=None):
    """(docstring, enclosing class name or None) for ``node`` and every
    definition inside it."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, cls
    for child in ast.iter_child_nodes(node):
        yield from _documented(child, child.name if isinstance(child, ast.ClassDef) else cls)


def test_every_docstring_reference_names_a_definition():
    """Definitions are the package's modules, their module-level names and
    their classes' members; a reference resolves fully qualified, against
    its enclosing class, against its module, or through a name its module
    imports from the package."""
    trees = {path: _parse(path) for path in MODULES}
    defined, imports = set(), {}
    for path, tree in trees.items():
        module = _qualified(path)
        defined.add(module)
        for node in tree.body:
            defined.update(f"{module}.{name}" for name in _bound(node))
            if isinstance(node, ast.ClassDef):
                defined.update(
                    f"{module}.{node.name}.{name}" for child in node.body for name in _bound(child)
                )
        imports[module] = {
            alias.asname or alias.name: f"chunkalg.{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
    refs, dangling = 0, []
    for path, tree in trees.items():
        module = _qualified(path)
        for doc, cls in _documented(tree):
            for target in ROLE_REFERENCE.findall(doc):
                refs += 1
                first, dot, rest = target.partition(".")
                candidates = [target, f"{module}.{target}"]
                candidates += [f"{module}.{cls}.{target}"] if cls else []
                candidates += [imports[module][first] + dot + rest] if first in imports[module] else []
                if not defined.intersection(candidates):
                    dangling.append(f"{path.name}: {target}")
    assert refs, "no docstring reference found: the pattern no longer matches"
    assert not dangling, "docstring references to nothing defined: " + ", ".join(dangling)
