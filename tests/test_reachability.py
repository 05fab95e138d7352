"""Every definition under ``src/repro`` has a caller outside the tests,
every module reads what it imports, DESIGN.md's module map lists
exactly the modules of the tree, and every docstring cross-reference
to a ``repro.*`` name resolves.

(a) Reachability is checked by name.  Every ``.py`` file under ``src/``,
``perfbench/``, ``benchmarks/`` and ``examples/`` is parsed, and each
``Name``, ``Attribute`` and identifier-shaped string constant is
collected.  An import is not a use, and neither is a string of
``__all__``: a name only re-exported is reached by nothing.  A ``def``
or ``class`` under ``src/repro`` whose name appears nowhere among them
is reached only from ``tests/`` or not at all.  A method (a ``def``
directly inside a class) is reached only through an ``Attribute``
(``obj.name``): a local variable or a string that shares its name does
not call it.  Dunders are exempt; :data:`ALLOWED` names the definitions
kept on purpose.

The scan is a name-level over-approximation.  A definition counts as
reached when any same-named attribute (or, outside a class, name or
string) appears anywhere, and a cluster of dead definitions that only
name each other (or a recursive function that names itself) escapes it.

(b) Every name a module under ``src/repro`` imports is read in that
module: as a ``Name``, or inside a string annotation.  A package
``__init__.py`` is exempt, since its imports are its re-exports.

(c) The module map of DESIGN.md §3 names files relative to
``src/repro/``: a line ``  poly/`` opens a package, the ``*.py`` tokens
that start a line inside it are its modules.  Every listed file must
exist, and every module of the tree must be listed (a package line
stands for its ``__init__.py``).

(d) Every Sphinx role (``:mod:``, ``:func:``, ``:class:``, ``:meth:``,
``:attr:``, ``:data:``, ``:exc:``) in ``src/repro`` whose target is a
``repro.*`` name imports and resolves: a module, then attributes (a
dataclass field counts).
"""

from __future__ import annotations

import ast
import importlib
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCANNED = ("src", "perfbench", "benchmarks", "examples")

#: Definitions no code outside ``tests/`` names, kept on purpose.
ALLOWED = {
    "enumerate_distances": "test oracle: brute-force dependence distances",
    "verify_reconstruction": "test oracle: band schedules round-trip the point",
    "find_all": "tree inspector five suites use",
    "find_mark": "tree inspector five suites use",
    "member_vars": "tree inspector five suites use",
    "enable_tracing": "ROADMAP item 1 builds stall attribution on it",
    "duration": "ROADMAP item 1 builds stall attribution on it",
    "busy_time": "ROADMAP item 1 builds stall attribution on it",
    "analyze_overlap": "ROADMAP item 1 builds stall attribution on it",
    "degraded_summary": "documented in README and DESIGN A.5",
    "set_default_service": "public API (tests/api's surface snapshot)",
    "all_archs": "CI's multi-arch smoke iterates the registry with it",
    "ping": "client verb api.connect documents; CI's serve smoke calls it",
    "verify": "client verb api.connect documents",
}


def _all_strings(tree: ast.AST) -> Set[int]:
    """The ids of the string constants assigned to ``__all__``."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(id(c) for c in ast.walk(node.value))
    return found


def _names_used(tree: ast.AST) -> Iterator[str]:
    exported = _all_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            yield node.value


def _definitions(tree: ast.AST) -> Iterator[Tuple[int, str, bool]]:
    """``(line, name, is a method)`` of every non-dunder def and class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, functions)
    }
    for node in ast.walk(tree):
        if isinstance(node, (*functions, ast.ClassDef)) and not (
            node.name.startswith("__") and node.name.endswith("__")
        ):
            yield node.lineno, node.name, id(node) in methods


@lru_cache(maxsize=None)
def _unreached() -> Tuple[Tuple[str, int, str], ...]:
    """``(path, line, name)`` of every src/repro definition nothing
    outside ``tests/`` reaches."""
    used: Set[str] = set()
    attributes: Set[str] = set()
    defined = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used.update(_names_used(tree))
            attributes.update(
                node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            )
            if PACKAGE in path.parents:
                where = str(path.relative_to(ROOT))
                defined += [(where, *d) for d in _definitions(tree)]
    return tuple(
        (path, line, name)
        for path, line, name, method in defined
        if name not in (attributes if method else used)
    )


def test_every_definition_has_a_caller_outside_the_tests():
    unreached = [
        f"{path}:{line}: {name}"
        for path, line, name in _unreached()
        if name not in ALLOWED
    ]
    assert not unreached, "reached only from tests/ or not at all:\n" + "\n".join(
        unreached
    )


def test_allowed_names_are_still_unreached_definitions():
    """An ALLOWED entry that gained a caller, or whose definition is gone,
    is stale."""
    assert set(ALLOWED) <= {name for _, _, name in _unreached()}


def _imported(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` of every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _names_read(tree: ast.AST) -> Set[str]:
    """Names a module loads, string annotations (``"ArchSpec"``) included."""
    read: Set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [
                a.annotation
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                          args.vararg, args.kwarg)
                if a is not None
            ] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _names_read(tree)
        unread += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in _imported(tree)
            if name not in read
        ]
    assert not unread, "imported and never read:\n" + "\n".join(unread)


def _module_map() -> Set[str]:
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory (module map)", 1)[1]
    block = section.split("```", 2)[1]
    listed: Set[str] = set()
    package = ""
    for line in block.splitlines()[1:]:
        if not line.strip() or line.strip() == "src/repro/":
            continue
        indent = len(line) - len(line.lstrip())
        tokens = line.split()
        if indent == 2 and tokens[0].endswith("/"):
            package = tokens[0]
            listed.add(package + "__init__.py")
            continue
        prefix = package if indent > 2 else ""
        if indent == 2:
            package = ""
        for token in tokens:
            if not re.fullmatch(r"\w+\.py", token):
                break
            listed.add(prefix + token)
    return listed


def test_design_module_map_matches_the_tree():
    listed = _module_map()
    on_disk = {
        str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
    }
    assert sorted(listed - on_disk) == [], "listed in DESIGN.md §3, not on disk"
    assert sorted(on_disk - listed) == [], "on disk, not in DESIGN.md §3"


#: A Sphinx role whose target names something under ``repro``.
_XREF = re.compile(r":(?:mod|func|class|meth|attr|data|exc):`~?(repro\.[^`]*)`")


def _resolves(target: str) -> bool:
    """Whether ``target`` imports as a module followed by attributes."""
    if not re.fullmatch(r"\w+(\.\w+)*", target):
        return False
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if hasattr(obj, name):
                obj = getattr(obj, name)
            elif name in getattr(obj, "__dataclass_fields__", {}):
                obj = None  # a field without a default: nothing to descend
            else:
                return False
        return True
    return False


def test_docstring_cross_references_resolve():
    stale = [
        f"{path.relative_to(ROOT)}: {match.group(0)}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for match in _XREF.finditer(path.read_text())
        if not _resolves(match.group(1))
    ]
    assert not stale, "unresolved cross-references:\n" + "\n".join(stale)
