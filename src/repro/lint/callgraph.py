"""Pass 1 of the whole-program analyzer: declarations and call edges.

:func:`collect_module` walks one module's AST into flat declaration
tables — every function and method under a dotted *qualname*
(``mod.func``, ``mod.Class.method``, ``mod.outer.inner``), every class
with its best-effort-resolved base names, and an import-alias map that
covers module-level, class-level, relative, and function-body (lazy)
imports alike.

:func:`resolve_call` is the conservative call resolver shared by the
effect fixpoint (pass 1) and the transitive rules (pass 2): it claims a
``caller -> callee`` edge only when the target is statically certain —
a same-module or alias-imported project function, a ``self.m()`` /
``cls.m()`` method looked up through the in-project base-class chain, a
class call (edge to ``__init__``), or a method on a local variable
assigned from a project-class constructor in the same function.  An
unresolvable call contributes no edge: the analysis under-approximates
the call graph and never invents reachability.

This module imports only the stdlib and :mod:`repro.lint.config`
(keeping the ``repro.lint`` package at layer 0 and import-cycle-free).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Container,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.ClassDef,)


@dataclass
class FunctionDecl:
    """One function/method declaration (pass-1 transient; holds AST)."""

    qualname: str
    modname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: qualname of the immediately enclosing class, if this is a method
    cls: Optional[str] = None
    is_async: bool = False


@dataclass
class ClassDecl:
    """One class declaration with alias-expanded base-name candidates."""

    qualname: str
    modname: str
    bases: Tuple[str, ...] = ()


@dataclass
class ModuleDecls:
    """Everything :func:`collect_module` extracts from one module."""

    modname: str
    is_package: bool = False
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionDecl] = field(default_factory=list)
    classes: Dict[str, ClassDecl] = field(default_factory=dict)


def import_base(modname: str, is_package: bool, level: int,
                module: Optional[str]) -> str:
    """Absolute base module of an import, per the engine's rule for
    relative ones: level 1 inside a package ``__init__`` is the package
    itself."""
    if level == 0:
        return module or ""
    parts = modname.split(".")
    drop = level - 1 if is_package else level
    if drop >= len(parts):
        parts = []
    elif drop:
        parts = parts[:-drop]
    return ".".join(parts + ([module] if module else []))


def collect_aliases(tree: ast.Module, modname: str,
                    is_package: bool) -> Dict[str, str]:
    """Local name -> absolute dotted target, for *every* import in the
    file (function-body lazy imports included — the call graph must see
    through the sanctioned lazy-import escape hatch)."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            base = import_base(
                modname, is_package, node.level, node.module
            )
            if not base:
                continue
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = f"{base}.{a.name}"
    return out


def _base_candidates(node: ast.ClassDef, aliases: Dict[str, str],
                     modname: str) -> Tuple[str, ...]:
    """Dotted candidates for each base: the alias-expanded name plus the
    same-module qualname a bare base usually means."""
    out: List[str] = []
    for base in node.bases:
        parts: List[str] = []
        cur: ast.AST = base
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            continue
        head, rest = cur.id, list(reversed(parts))
        expanded = ".".join([aliases.get(head, head)] + rest)
        out.append(expanded)
        if head not in aliases and not rest:
            out.append(f"{modname}.{head}")
    return tuple(out)


def collect_module(tree: ast.Module, modname: str,
                   is_package: bool = False) -> ModuleDecls:
    """Flatten one module into declaration tables (see module docstring)."""
    decls = ModuleDecls(
        modname=modname,
        is_package=is_package,
        aliases=collect_aliases(tree, modname, is_package),
    )

    def walk(body: Sequence[ast.stmt], prefix: str,
             cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}"
                decls.functions.append(
                    FunctionDecl(
                        qualname=qual,
                        modname=modname,
                        node=node,
                        cls=cls,
                        is_async=isinstance(node, ast.AsyncFunctionDef),
                    )
                )
                walk(node.body, qual, None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}.{node.name}"
                decls.classes[qual] = ClassDecl(
                    qualname=qual,
                    modname=modname,
                    bases=_base_candidates(node, decls.aliases, modname),
                )
                walk(node.body, qual, qual)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.stmt):
                        walk([sub], prefix, cls)
                    elif isinstance(sub, ast.ExceptHandler):
                        walk(sub.body, prefix, cls)

    walk(tree.body, modname, None)
    return decls


def find_method(name: str, cls: str, functions: Container[str],
                classes: Mapping[str, "ClassDecl | Tuple[str, ...]"],
                _seen: Optional[Set[str]] = None) -> Optional[str]:
    """``cls.name`` through the in-project base chain (cycle-guarded)."""
    seen = _seen if _seen is not None else set()
    if cls in seen:
        return None
    seen.add(cls)
    cand = f"{cls}.{name}"
    if cand in functions:
        return cand
    info = classes.get(cls)
    if info is None:
        return None
    bases = info.bases if isinstance(info, ClassDecl) else info
    for base in bases:
        if base in classes:
            hit = find_method(name, base, functions, classes, seen)
            if hit is not None:
                return hit
    return None


def _lookup(dotted: str, functions: Container[str],
            classes: Mapping[str, "ClassDecl | Tuple[str, ...]"],
            ) -> Optional[str]:
    """A dotted absolute name -> project function qualname, treating a
    class call as a call of its ``__init__`` (when one is declared)."""
    if dotted in functions:
        return dotted
    if dotted in classes:
        init = f"{dotted}.__init__"
        return init if init in functions else None
    return None


def resolve_call(call: ast.Call, caller: FunctionDecl,
                 aliases: Mapping[str, str],
                 local_types: Mapping[str, str],
                 functions: Container[str],
                 classes: Mapping[str, "ClassDecl | Tuple[str, ...]"],
                 ) -> Optional[str]:
    """The conservative resolver (see module docstring); None = no edge."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        # Nested sibling first (mod.outer.inner shadows mod.inner), then
        # the alias-expanded import target, then a module-level name.
        for cand in (
            f"{caller.qualname}.{name}",
            aliases.get(name, ""),
            f"{caller.modname}.{name}",
        ):
            if not cand:
                continue
            hit = _lookup(cand, functions, classes)
            if hit is not None:
                return hit
        return None
    if not isinstance(func, ast.Attribute):
        return None
    parts: List[str] = [func.attr]
    cur: ast.AST = func.value
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    head = cur.id
    parts.reverse()
    if head in ("self", "cls"):
        if caller.cls is not None and len(parts) == 1:
            return find_method(parts[0], caller.cls, functions, classes)
        return None
    if head in local_types and len(parts) == 1:
        return find_method(parts[0], local_types[head], functions, classes)
    dotted = ".".join([aliases.get(head, head)] + parts)
    return _lookup(dotted, functions, classes)


def local_constructor_types(fn: ast.AST, modname: str,
                            aliases: Mapping[str, str],
                            classes: Mapping[str, "ClassDecl | Tuple[str, ...]"],
                            ) -> Dict[str, str]:
    """``var -> class qualname`` hints from ``var = ClassName(...)``
    assignments in ``fn``'s own body (nested defs excluded).  A name
    assigned from anything else afterwards drops its hint."""
    out: Dict[str, str] = {}
    for stmt in iter_own_nodes(fn):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        hint: Optional[str] = None
        if isinstance(stmt.value, ast.Call):
            cfunc = stmt.value.func
            cand = ""
            if isinstance(cfunc, ast.Name):
                cand = aliases.get(cfunc.id, f"{modname}.{cfunc.id}")
            elif isinstance(cfunc, ast.Attribute):
                cparts = [cfunc.attr]
                cval: ast.AST = cfunc.value
                while isinstance(cval, ast.Attribute):
                    cparts.append(cval.attr)
                    cval = cval.value
                if isinstance(cval, ast.Name):
                    cparts.reverse()
                    cand = ".".join(
                        [aliases.get(cval.id, cval.id)] + cparts
                    )
            if cand in classes:
                hint = cand
        if hint is None:
            out.pop(target.id, None)
        else:
            out[target.id] = hint
    return out


def iter_own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Every AST node in ``fn``'s body that executes *as* ``fn`` — the
    walk does not descend into nested function/class definitions (their
    bodies are separate declarations with their own effects).  For an
    ``ast.Module`` that is the import-time code: module level plus
    class bodies, which run at import too."""
    stops: Tuple[type, ...] = (
        _FUNCTION_NODES if isinstance(fn, ast.Module) else _SCOPE_NODES
    )
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, stops):
            continue
        stack.extend(ast.iter_child_nodes(node))


def call_edges(decls: ModuleDecls, functions: Container[str],
               classes: Mapping[str, "ClassDecl | Tuple[str, ...]"],
               ) -> Dict[str, Tuple[str, ...]]:
    """Resolved callee qualnames per function in ``decls`` (sorted,
    deduplicated — the deterministic edge lists the fixpoint consumes)."""
    out: Dict[str, Tuple[str, ...]] = {}
    for fn in decls.functions:
        local_types = local_constructor_types(
            fn.node, decls.modname, decls.aliases, classes
        )
        callees: Set[str] = set()
        for node in iter_own_nodes(fn.node):
            if isinstance(node, ast.Call):
                target = resolve_call(
                    node, fn, decls.aliases, local_types, functions, classes
                )
                if target is not None:
                    callees.add(target)
        out[fn.qualname] = tuple(sorted(callees))
    return out


class ModuleResolver:
    """Pass-2 helper: resolved call sites of one module against a
    project summary, addressable by AST node identity.

    Import-time code (module level and class bodies) resolves too, as
    the pseudo-caller ``<modname>.<module>``.  Pass 1 never sees it:
    nothing can call it, so it has no place in the effect fixpoint or
    the ``--effects`` report.
    """

    def __init__(self, tree: ast.Module, modname: str, is_package: bool,
                 functions: Container[str],
                 classes: Mapping[str, "ClassDecl | Tuple[str, ...]"],
                 ) -> None:
        self.decls = collect_module(tree, modname, is_package)
        self._by_node: Dict[int, Tuple[str, str]] = {}
        module_level = FunctionDecl(f"{modname}.<module>", modname, tree)
        for fn in [module_level] + self.decls.functions:
            local_types = local_constructor_types(
                fn.node, modname, self.decls.aliases, classes
            )
            for node in iter_own_nodes(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_call(
                    node, fn, self.decls.aliases, local_types,
                    functions, classes,
                )
                if target is not None:
                    self._by_node[id(node)] = (fn.qualname, target)

    def site(self, call: ast.Call) -> Optional[Tuple[str, str]]:
        """``(caller qualname, callee qualname)`` of a resolved call."""
        return self._by_node.get(id(call))
