"""RPR201 — cache-key soundness: every memo key covers what the value reads.

The correctness story for every digest-keyed cache in this repo is the
same sentence: *the key must determine the value*.  PR 3 and PR 6 both
shipped bugs where it didn't — most famously the cross-mode leg-cache
clobber, where the engine's (since removed) shared bay-leg cache was
keyed by ``(digest, bay)`` while the cached legs also depended on the
routing ``mode``, so switching modes served stale legs.  A reviewer cannot re-check this by eye every time a
cache or a transitive callee changes; this pass re-derives it.

For each memoized site (a container read *and* written through a key in
the same function — ``cache[k]`` / ``cache.get(k)`` / ``k in cache`` vs
``cache[k] = v`` / ``cache.put(k, v)``), the pass backward-slices both
the key and the stored value to dataflow roots (parameters, ``self``
attributes, module globals) and flags value roots the key does not
cover.  A root is *covered* when any of these hold:

* it appears in the key slice;
* it is a module global (treated as constant — rebinding module globals
  is flagged elsewhere);
* it is a recognized cache attribute of the same class (caches may read
  each other);
* it is a ``self`` attribute assigned only in ``__init__`` (immutable
  for the cache's lifetime);
* it is a ``self`` attribute whose every mutating method also flushes
  this cache (directly, via a callee, or because every intra-class
  caller of the mutator does) — the flush inside the engine's
  ``rebind``;
* it is guarded on the hit path: the function compares the root against
  an attribute of the cache-hit value (the registry's
  ``existing.mode != mode`` pattern).

Known blind spots: conditional flushes count as flushes; module globals
are assumed constant; cross-object aliasing of cache containers is not
tracked.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from ..callgraph import ClassInfo, FunctionInfo, Project
from ..dataflow import Root, backward_slice, format_root, local_type_env
from ..diagnostics import Diagnostic
from . import DeepRule, register_deep

__all__ = ["CacheKeySoundnessRule"]

#: (second-to-last, last) path parts of the modules that hold memo sites
_SCOPE_SUFFIXES = (
    ("routing", "engine.py"),
    ("analysis", "executor.py"),
    ("analysis", "experiments.py"),
    ("service", "registry.py"),
)

#: method names that read a cache through a key
_READ_METHODS = {"get"}
#: method names that write a cache through a key
_WRITE_METHODS = {"put", "setdefault"}

#: flush-search depth through same-class callees/callers
_MAX_FLUSH_DEPTH = 3

#: cell id: ("attr", name) for self.<name>, ("global", name) for a module var
_CellId = tuple[str, str]


@dataclass
class _Site:
    """One memoized site: a cell keyed-read and keyed-written in one fn."""

    cell: _CellId
    key_exprs: list[ast.expr] = field(default_factory=list)
    value_exprs: list[ast.expr] = field(default_factory=list)
    read_count: int = 0
    first_write: ast.AST | None = None
    #: local names bound from a keyed read (hit-path values)
    hit_vars: set[str] = field(default_factory=set)


def _cell_of(
    expr: ast.expr, fn: FunctionInfo, module_globals: set[str]
) -> _CellId | None:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and fn.cls is not None
    ):
        return ("attr", expr.attr)
    if isinstance(expr, ast.Name) and expr.id in module_globals:
        return ("global", expr.id)
    return None


def _cell_label(cell: _CellId) -> str:
    kind, name = cell
    return f"self.{name}" if kind == "attr" else name


def _collect_sites(
    fn: FunctionInfo, module_globals: set[str]
) -> dict[_CellId, _Site]:
    sites: dict[_CellId, _Site] = {}

    def site(cell: _CellId) -> _Site:
        return sites.setdefault(cell, _Site(cell=cell))

    for node in ast.walk(fn.node):
        if isinstance(node, ast.Subscript):
            cell = _cell_of(node.value, fn, module_globals)
            if cell is None:
                continue
            if isinstance(node.ctx, ast.Load):
                s = site(cell)
                s.read_count += 1
                s.key_exprs.append(node.slice)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    cell = _cell_of(target.value, fn, module_globals)
                    if cell is None:
                        continue
                    s = site(cell)
                    s.key_exprs.append(target.slice)
                    s.value_exprs.append(node.value)
                    if s.first_write is None:
                        s.first_write = node
            # hit vars: x = cell[k] / x = cell.get(k)
            value = node.value
            read_cell = _keyed_read_cell(value, fn, module_globals)
            if read_cell is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        site(read_cell).hit_vars.add(target.id)
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            cell = _cell_of(node.func.value, fn, module_globals)
            if cell is None or not node.args:
                continue
            if node.func.attr in _READ_METHODS:
                s = site(cell)
                s.read_count += 1
                s.key_exprs.append(node.args[0])
            elif node.func.attr in _WRITE_METHODS and len(node.args) >= 2:
                s = site(cell)
                s.key_exprs.append(node.args[0])
                s.value_exprs.append(node.args[1])
                if s.first_write is None:
                    s.first_write = node
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            if isinstance(node.ops[0], (ast.In, ast.NotIn)):
                cell = _cell_of(node.comparators[0], fn, module_globals)
                if cell is not None:
                    s = site(cell)
                    s.read_count += 1
                    s.key_exprs.append(node.left)
    return {
        cell: s
        for cell, s in sites.items()
        if s.read_count > 0 and s.value_exprs
    }


def _keyed_read_cell(
    expr: ast.expr, fn: FunctionInfo, module_globals: set[str]
) -> _CellId | None:
    if isinstance(expr, ast.Subscript) and isinstance(expr.ctx, ast.Load):
        return _cell_of(expr.value, fn, module_globals)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _READ_METHODS
    ):
        return _cell_of(expr.func.value, fn, module_globals)
    return None


# ---------------------------------------------------------------------------
# flush reasoning
# ---------------------------------------------------------------------------

def _flushes_directly(
    method: FunctionInfo, cell: _CellId, module_globals: set[str]
) -> bool:
    """Does the method clear, rebind, or delete from the cell?"""
    for node in ast.walk(method.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if _cell_of(target, method, module_globals) == cell:
                    return True
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    if _cell_of(target.value, method, module_globals) == cell:
                        return True
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in ("clear", "pop", "popitem"):
                if _cell_of(node.func.value, method, module_globals) == cell:
                    return True
    return False


def _self_callees(method: FunctionInfo, cls: ClassInfo) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(method.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr in cls.methods
        ):
            out.add(node.func.attr)
    return out


def _self_callers(cls: ClassInfo) -> dict[str, set[str]]:
    callers: dict[str, set[str]] = {name: set() for name in cls.methods}
    for name, method in cls.methods.items():
        for callee in _self_callees(method, cls):
            callers[callee].add(name)
    return callers


def _mutation_flushes(
    cls: ClassInfo,
    attr: str,
    cell: _CellId,
    module_globals: set[str],
) -> bool:
    """Is every non-``__init__`` mutator of ``attr`` flush-covered for cell?"""
    assign_fns = cls.attr_assign_fns.get(attr)
    if assign_fns is None:
        return True  # never assigned: a property/inherited value; no signal
    mutators = sorted(assign_fns - {"__init__"})
    if not mutators:
        return True  # init-only
    callers = _self_callers(cls)
    memo: dict[str, bool] = {}

    def covered(name: str, depth: int, visiting: frozenset[str]) -> bool:
        if name in memo:
            return memo[name]
        if depth <= 0 or name in visiting:
            return False
        method = cls.methods.get(name)
        if method is None:
            return False
        visiting = visiting | {name}
        if _flushes_directly(method, cell, module_globals):
            memo[name] = True
            return True
        for callee in sorted(_self_callees(method, cls)):
            if covered(callee, depth - 1, visiting):
                memo[name] = True
                return True
        ups = callers.get(name, set())
        if ups and all(
            up == "__init__" or covered(up, depth - 1, visiting)
            for up in sorted(ups)
        ):
            memo[name] = True
            return True
        memo[name] = False
        return False

    return all(
        covered(m, _MAX_FLUSH_DEPTH, frozenset()) for m in mutators
    )


def _hit_guarded_roots(fn: FunctionInfo, site: _Site) -> set[Root]:
    """Roots compared against a hit value's attribute (hit-path guard)."""
    if not site.hit_vars:
        return set()
    guarded: set[Root] = set()
    for node in ast.walk(fn.node):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
            continue
        sides = [node.left, node.comparators[0]]
        hit_side = any(
            isinstance(s, ast.Attribute)
            and isinstance(s.value, ast.Name)
            and s.value.id in site.hit_vars
            for s in sides
        )
        if not hit_side:
            continue
        for side in sides:
            if isinstance(side, ast.Name) and side.id in fn.params:
                guarded.add(("param", side.id))
            elif (
                isinstance(side, ast.Attribute)
                and isinstance(side.value, ast.Name)
                and side.value.id == "self"
            ):
                guarded.add(("attr", side.attr))
    return guarded


@register_deep
class CacheKeySoundnessRule(DeepRule):
    """Flag memo sites whose key does not determine the cached value."""

    code = "RPR201"
    name = "cache-key-soundness"
    scope_description = (
        "routing/engine.py, analysis/executor.py, analysis/experiments.py, "
        "service/registry.py"
    )
    rationale = (
        "a digest-keyed cache whose key omits something the cached "
        "computation reads serves stale answers the moment that input "
        "changes — the exact shape of the pre-PR 6 cross-mode leg-cache "
        "clobber"
    )

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        """Flag memo sites whose cached values read uncovered inputs."""
        for module in sorted(project.modules.values(), key=lambda m: m.path):
            parts = module.parts
            if len(parts) < 2 or (parts[-2], parts[-1]) not in _SCOPE_SUFFIXES:
                continue
            module_globals = set(module.assigns)
            fns = sorted(
                (
                    fn
                    for fn in project.functions.values()
                    if fn.module == module.name
                ),
                key=lambda f: f.node.lineno,
            )
            for fn in fns:
                yield from self._check_function(project, fn, module_globals)

    def _check_function(
        self,
        project: Project,
        fn: FunctionInfo,
        module_globals: set[str],
    ) -> Iterator[Diagnostic]:
        sites = _collect_sites(fn, module_globals)
        if not sites:
            return
        env = local_type_env(project, fn)
        cls = project.classes.get(fn.cls) if fn.cls else None
        # Any attribute that is itself a memo cell anywhere in the class:
        # caches may read each other without widening the key.
        cache_attrs: set[str] = set()
        if cls is not None:
            for method in cls.methods.values():
                for cell in _collect_sites(method, module_globals):
                    if cell[0] == "attr":
                        cache_attrs.add(cell[1])
        for cell in sorted(sites):
            site = sites[cell]
            key_roots = backward_slice(project, fn, site.key_exprs, env)
            value_roots = backward_slice(project, fn, site.value_exprs, env)
            guarded = _hit_guarded_roots(fn, site)
            uncovered = sorted(
                root
                for root in value_roots
                if not self._covered(
                    root,
                    key_roots,
                    guarded,
                    cls,
                    cell,
                    cache_attrs,
                    module_globals,
                )
            )
            if not uncovered:
                continue
            anchor = site.first_write
            key_text = (
                ast.unparse(site.key_exprs[0]) if site.key_exprs else "?"
            )
            for root in uncovered:
                yield Diagnostic(
                    path=fn.path,
                    line=getattr(anchor, "lineno", fn.node.lineno),
                    col=getattr(anchor, "col_offset", 0) + 1,
                    code=self.code,
                    message=(
                        f"cache `{_cell_label(cell)}` in `{fn.name}` is "
                        f"keyed by `{key_text}` but the cached value also "
                        f"depends on {format_root(root)}; add it to the "
                        "key, guard the hit path against it, or flush this "
                        "cache wherever it mutates"
                    ),
                )

    @staticmethod
    def _covered(
        root: Root,
        key_roots: set[Root],
        guarded: set[Root],
        cls: ClassInfo | None,
        cell: _CellId,
        cache_attrs: set[str],
        module_globals: set[str],
    ) -> bool:
        if root in key_roots or root in guarded:
            return True
        kind, name = root
        if kind == "global":
            return True  # module constants; rebinding flagged elsewhere
        if kind == "attr":
            if name in cache_attrs:
                return True
            if cls is None:
                return True
            return _mutation_flushes(cls, name, cell, module_globals)
        return False
