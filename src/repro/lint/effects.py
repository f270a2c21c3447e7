"""Pass 1, second half: per-function effect sets and their fixpoint.

Effects form a small powerset lattice over five atoms:

``RNG``
    draws randomness (constructor, global-state draw, or draw-shaped
    method call) — skipped inside the sanctioned sampler modules
    (``config.RNG_ALLOWED_MODULES``) and the named host-side samplers
    (``config.RNG_SANCTIONED_FUNCTIONS``), whose draws are the
    documented seed->stream contract, not a violation to propagate.
``WALL_CLOCK``
    reads a wall clock (``config.WALL_CLOCK_CALLS``) — skipped inside
    ``config.WALL_CLOCK_ALLOWED_MODULES`` (the service clock shim).
``HOST_SYNC``
    forces a host-device round-trip (``config.HOST_SYNC_METHODS``;
    ``.get()`` only when called without arguments).
``DEVICE_TRANSFER``
    moves data across the host-device boundary
    (``config.DEVICE_TRANSFER_CALLS``) — informative only.
``STATE_MUTATION``
    mutates shared state: ``global``/``nonlocal``, stores through
    ``self``/``cls`` attributes, or a ``config.ASYNC_MUTATOR_METHODS``
    call on ``self``-rooted state.

What a call does by itself is decided in one place,
:func:`classify_call`; RL010-RL012 report its hits directly and through
the fixpoint.

Seeds are purely syntactic per function; :func:`fixpoint` unions each
function's seeds with its resolved callees' effect sets until nothing
changes.  Set union is monotone on a finite lattice, so the fixpoint
exists, terminates, and is independent of file or visit order — the
determinism the byte-stable ``--effects`` report and its checked-in CI
baseline rely on.

:class:`ProjectSummary` is the picklable (AST-free) result handed to
pass 2, including to ``--jobs`` worker processes.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.lint import callgraph, config
from repro.lint.callgraph import FunctionDecl, ModuleDecls

#: The effect atoms, in canonical (report) order.
EFFECTS: Tuple[str, ...] = (
    "RNG", "WALL_CLOCK", "HOST_SYNC", "DEVICE_TRANSFER", "STATE_MUTATION",
)

EFFECTS_FORMAT_VERSION = 1

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class ProjectSummary:
    """The whole-program analysis result pass 2 consumes.

    Picklable by construction: plain dicts/tuples/frozensets, no AST
    nodes — ``--jobs`` ships one copy to every lint worker.
    """

    #: every module that participated in the analysis
    modules: FrozenSet[str] = _EMPTY
    #: function qualname -> effect set after the fixpoint
    functions: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: function qualname -> syntactically seeded effects (fixpoint input)
    seeds: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: function qualname -> sorted resolved callee qualnames
    calls: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: class qualname -> base-class dotted-name candidates
    classes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def effects_of(self, qualname: str) -> FrozenSet[str]:
        return self.functions.get(qualname, _EMPTY)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_target(func: ast.AST, aliases: Mapping[str, str]) -> Optional[str]:
    """Dotted call target with the leading alias expanded: ``pc()`` ->
    ``time.perf_counter`` under ``from time import perf_counter as pc``."""
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


def _self_rooted(node: ast.AST) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _store_root(target: ast.AST) -> Optional[ast.AST]:
    """The attribute/subscript chain a store mutates, if any."""
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        return target
    return None


_WALL_CLOCKS: FrozenSet[str] = frozenset(
    f"{mod}.{attr}" for mod, attr in config.WALL_CLOCK_CALLS
)


@dataclass(frozen=True)
class CallEffect:
    """One effect a call performs itself: a witness chain of length 0."""

    effect: str
    #: the call as a finding names it, e.g. ``RNG construction (default_rng)``
    what: str
    #: RNG only: a draw-shaped method call on some generator object, as
    #: opposed to minting RNG state or drawing from global state
    draw_method: bool = False


def classify_call(
    call: ast.Call, aliases: Mapping[str, str]
) -> List[CallEffect]:
    """The effects ``call`` performs by itself, before any scoping.

    The one place that decides what an RNG draw, a wall-clock read or a
    host sync looks like: :func:`seed_effects` seeds the fixpoint with
    it, and RL010-RL012 report its hits as direct findings.
    """
    target = _call_target(call.func, aliases)
    tail = target.split(".")[-1] if target else None
    attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
    out: List[CallEffect] = []
    if tail in config.RNG_CONSTRUCTORS:
        out.append(CallEffect("RNG", f"RNG construction ({tail})"))
    elif target is not None and target.startswith(
        ("numpy.random.", "random.")
    ):
        out.append(CallEffect("RNG", f"global-RNG-state draw ({target})"))
    elif tail in config.RNG_DRAW_METHODS:
        out.append(
            CallEffect("RNG", f"draw-shaped call (.{tail}(...))", True)
        )
    if target in _WALL_CLOCKS:
        out.append(CallEffect("WALL_CLOCK", f"wall-clock read ({target})"))
    # Zero-arg .get() is cupy's device->host copy; d.get(key) is a lookup.
    if attr in config.HOST_SYNC_METHODS and not (
        attr == "get" and (call.args or call.keywords)
    ):
        out.append(CallEffect("HOST_SYNC", f".{attr}()"))
    if attr in config.DEVICE_TRANSFER_CALLS or (
        tail in config.DEVICE_TRANSFER_CALLS
    ):
        out.append(CallEffect("DEVICE_TRANSFER", f"{tail or attr}()"))
    if (
        attr in config.ASYNC_MUTATOR_METHODS
        and isinstance(call.func, ast.Attribute)
        and _self_rooted(call.func.value)
    ):
        out.append(CallEffect("STATE_MUTATION", f".{attr}()"))
    return out


def seed_effects(
    fn: FunctionDecl, aliases: Mapping[str, str]
) -> FrozenSet[str]:
    """The syntactic effect seeds of one function body."""
    modname = fn.modname
    rng_exempt = (
        config.module_matches(modname, config.RNG_ALLOWED_MODULES)
        or fn.qualname in config.RNG_SANCTIONED_FUNCTIONS
    )
    clock_exempt = config.module_matches(
        modname, config.WALL_CLOCK_ALLOWED_MODULES
    )
    seeds = set()
    for node in callgraph.iter_own_nodes(fn.node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            seeds.add("STATE_MUTATION")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                if isinstance(t, (ast.Tuple, ast.List)):
                    elts: List[ast.expr] = list(t.elts)
                else:
                    elts = [t]
                for elt in elts:
                    chain = _store_root(elt)
                    if chain is not None and _self_rooted(chain):
                        seeds.add("STATE_MUTATION")
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                chain = _store_root(t)
                if chain is not None and _self_rooted(chain):
                    seeds.add("STATE_MUTATION")
        elif isinstance(node, ast.Call):
            for hit in classify_call(node, aliases):
                if hit.effect == "RNG" and rng_exempt:
                    continue
                if hit.effect == "WALL_CLOCK" and clock_exempt:
                    continue
                seeds.add(hit.effect)
    return frozenset(seeds)


def fixpoint(
    seeds: Dict[str, FrozenSet[str]], calls: Dict[str, Tuple[str, ...]]
) -> Dict[str, FrozenSet[str]]:
    """Propagate callee effects to callers until stable.

    Monotone set union over a finite lattice: the result is the least
    fixpoint, reached in finitely many sweeps and identical for every
    iteration order (the sweeps stay sorted anyway, for reproducible
    intermediate states under debugging).
    """
    effects: Dict[str, FrozenSet[str]] = dict(seeds)
    changed = True
    while changed:
        changed = False
        for qualname in sorted(effects):
            merged = effects[qualname]
            for callee in calls.get(qualname, ()):
                callee_effects = effects.get(callee)
                if callee_effects:
                    merged = merged | callee_effects
            if merged != effects[qualname]:
                effects[qualname] = merged
                changed = True
    return effects


def build_project(
    modules: Iterable[Tuple[str, ast.Module, bool]]
) -> ProjectSummary:
    """Run pass 1 over ``(modname, tree, is_package)`` triples."""
    decls_list: List[ModuleDecls] = [
        callgraph.collect_module(tree, modname, is_package)
        for modname, tree, is_package in modules
    ]
    functions: Dict[str, FunctionDecl] = {}
    classes: Dict[str, Tuple[str, ...]] = {}
    for decls in decls_list:
        for fn in decls.functions:
            functions[fn.qualname] = fn
        for qualname, cls in decls.classes.items():
            classes[qualname] = cls.bases
    seeds: Dict[str, FrozenSet[str]] = {}
    calls: Dict[str, Tuple[str, ...]] = {}
    for decls in decls_list:
        for fn in decls.functions:
            seeds[fn.qualname] = seed_effects(fn, decls.aliases)
        calls.update(callgraph.call_edges(decls, functions, classes))
    return ProjectSummary(
        modules=frozenset(d.modname for d in decls_list),
        functions=fixpoint(seeds, calls),
        seeds=seeds,
        calls=calls,
        classes=classes,
    )


def effect_chain(
    summary: ProjectSummary, start: str, effect: str
) -> List[str]:
    """A deterministic witness chain from ``start`` down to a function
    that *seeds* ``effect`` (always the lexicographically least carrying
    callee at each hop; cycle-guarded)."""
    chain = [start]
    seen = {start}
    current = start
    while effect not in summary.seeds.get(current, _EMPTY):
        candidates = [
            callee
            for callee in summary.calls.get(current, ())
            if effect in summary.effects_of(callee) and callee not in seen
        ]
        if not candidates:
            break
        current = min(candidates)
        chain.append(current)
        seen.add(current)
    return chain


def render_chain(summary: ProjectSummary, start: str, effect: str) -> str:
    return " -> ".join(effect_chain(summary, start, effect))


def is_public_qualname(qualname: str) -> bool:
    """Public API surface: no ``_``-prefixed component anywhere (this
    also drops dunders like ``__init__`` and private helper modules)."""
    return all(not part.startswith("_") for part in qualname.split("."))


def effects_report(summary: ProjectSummary) -> str:
    """The ``--effects`` JSON: every public ``repro.*`` function with a
    non-empty effect set, effects in canonical lattice order.  Sorted
    keys + trailing newline make the output byte-stable run to run."""
    functions: Dict[str, List[str]] = {}
    for qualname, effect_set in summary.functions.items():
        if not effect_set:
            continue
        if not qualname.startswith("repro."):
            continue
        if not is_public_qualname(qualname):
            continue
        functions[qualname] = [e for e in EFFECTS if e in effect_set]
    return (
        json.dumps(
            {"version": EFFECTS_FORMAT_VERSION, "functions": functions},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
