"""Every ``src/repro`` module is reachable from the CLI, or named here.

A static walk over ``import`` statements from ``repro.cli``, imports
inside functions included.  ``from pkg import name`` reaches the module
that defines ``name``: a submodule ``pkg.name``, or the module a package
``__init__`` re-exports it from.  A package's own top-level imports are
its re-exports, so reaching the package does not reach them all.
Package ``__init__`` files are not counted; every other module either
sits on a path from the CLI or is listed in :data:`UNREACHED`.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no CLI path imports, each kept for the reason given.
UNREACHED = {
    "repro.analysis.dbf": "the K=2 Ekberg-Yi DBF cross-check of Theorem 1",
    "repro.sched.releases": "the check that sporadic arrivals cause no misses",
}


def _modules() -> dict[str, Path]:
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@cache
def _tree(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))


def _base(module: str, node: ast.ImportFrom) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not node.level:
        return node.module
    package = module.split(".")
    if not _is_package(module):
        package = package[:-1]
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _defining(module: str, name: str) -> str:
    """The module that defines ``name`` as imported from ``module``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        for node in _tree(module).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _defining(_base(module, node), alias.name)
    return module


def _imports(module: str):
    """Modules named by ``module``'s imports (a package's top-level
    re-exports excluded)."""
    tree = _tree(module)
    skip = set(tree.body) if _is_package(module) else set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(module, node)
            if base in MODULES:
                yield from (_defining(base, alias.name) for alias in node.names)


def reached(root: str = "repro.cli") -> set[str]:
    seen, todo = set(), [root]
    while todo:
        module = todo.pop()
        if module in seen or module not in MODULES:
            continue
        seen.add(module)
        todo.extend(_imports(module))
    return seen


def test_unreached_modules_are_the_named_ones():
    leaves = {name for name in MODULES if not _is_package(name)}
    assert leaves - reached() == set(UNREACHED)


def test_walk_follows_reexports_and_nested_imports():
    # ``from repro.gen import generate_taskset`` in cli reaches the
    # defining module through repro/gen/__init__.py.
    assert _defining("repro.gen", "generate_taskset") == "repro.gen.generator"
    # The CLI imports its subcommand stacks inside functions.
    assert "repro.serve.daemon" in reached()
