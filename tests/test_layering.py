"""Layering lint: the import graph respects the architecture.

``docs/architecture.md`` draws the layers; this suite enforces them with
an AST walk over every module in ``src/repro`` (CI runs it as its own
job, so a violating import fails fast with the offending file:line):

* **foundation stays below orchestration** -- ``repro.core``,
  ``repro.grid``, and ``repro.bitset`` never import the engines' callers
  (``repro.parallel``, ``repro.session``, ``repro.dynamic``,
  ``repro.progressive``, ``repro.bench``, ``repro.cli``, ``repro.baselines``);
* **observability is freestanding** -- ``repro.obs`` imports nothing
  from the query machinery, so it can be reasoned about (and reused)
  independently;
* **sharding sits below the orchestrators** -- ``repro.shard`` (executor,
  router, curves) is plumbing that ``repro.parallel`` drives;
  it must never import the session/service/CLI layers, nor
  ``repro.parallel`` itself, or the worker processes would drag the
  whole application stack into every fork;
* **no private cross-module imports** -- ``from repro.x import _name``
  couples a module to another's internals; everything shared is public
  (this is what forced :func:`~repro.core.verification.bits_of` and
  :func:`~repro.datasets.trajectories.zipf_partition` into the open).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules the foundation layers must never reach up into.
ORCHESTRATION = (
    "repro.parallel",
    "repro.session",
    "repro.dynamic",
    "repro.progressive",
    "repro.bench",
    "repro.cli",
    "repro.baselines",
)

#: The foundation layers themselves.
FOUNDATION = ("repro.core", "repro.grid", "repro.bitset", "repro.kernels")

#: Query machinery the freestanding obs layer must not depend on.
QUERY_MACHINERY = (
    "repro.core",
    "repro.grid",
    "repro.parallel",
    "repro.session",
)

#: Layers the shard plumbing must never reach up into.  ``repro.parallel``
#: is in the list on purpose: the dependency points the other way (the
#: parallel engine drives the shard executor), and keeping workers free of
#: the orchestrators keeps the fork image small.
SHARD_FORBIDDEN = ORCHESTRATION + ("repro.service",)


def _module_name(path: Path) -> str:
    relative = path.relative_to(SRC.parent).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> Iterator[Tuple[int, str, List[str]]]:
    """Yield ``(lineno, imported_module, imported_names)`` for one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, []
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import at line {node.lineno}"
            module = node.module or ""
            yield node.lineno, module, [alias.name for alias in node.names]


def _in_layer(module: str, layers: Tuple[str, ...]) -> bool:
    return any(module == layer or module.startswith(layer + ".") for layer in layers)


def _all_files() -> List[Path]:
    files = sorted(SRC.rglob("*.py"))
    assert files, "src/repro not found"
    return files


def test_foundation_never_imports_orchestration():
    violations = []
    for path in _all_files():
        module = _module_name(path)
        if not _in_layer(module, FOUNDATION):
            continue
        for lineno, imported, _ in _imports(path):
            if _in_layer(imported, ORCHESTRATION + ("repro.shard",)):
                violations.append(f"{path}:{lineno}: {module} imports {imported}")
    assert not violations, "\n".join(violations)


def test_shard_never_imports_orchestration():
    violations = []
    for path in _all_files():
        module = _module_name(path)
        if not _in_layer(module, ("repro.shard",)):
            continue
        for lineno, imported, _ in _imports(path):
            if _in_layer(imported, SHARD_FORBIDDEN):
                violations.append(f"{path}:{lineno}: {module} imports {imported}")
    assert not violations, "\n".join(violations)


def test_obs_is_freestanding():
    violations = []
    for path in _all_files():
        module = _module_name(path)
        if not _in_layer(module, ("repro.obs",)):
            continue
        for lineno, imported, _ in _imports(path):
            if _in_layer(imported, QUERY_MACHINERY):
                violations.append(f"{path}:{lineno}: {module} imports {imported}")
    assert not violations, "\n".join(violations)


def test_no_private_cross_module_imports():
    violations = []
    for path in _all_files():
        for lineno, imported, names in _imports(path):
            if not imported.startswith("repro"):
                continue
            private = [name for name in names if name.startswith("_")]
            if private:
                violations.append(
                    f"{path}:{lineno}: from {imported} import {', '.join(private)}"
                )
    assert not violations, "\n".join(violations)
