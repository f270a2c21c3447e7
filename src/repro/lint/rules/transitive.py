"""Effect rules: RL010 (RNG), RL011 (host sync), RL012 (wall clock).

Each rule owns one effect of :mod:`repro.lint.effects` and reports it
in two ways from the same call classifier:

* a *direct* hit — the call performs the effect itself
  (:func:`~repro.lint.effects.classify_call`), a witness chain of
  length 0; the message names the call;
* a *transitive* hit — the call resolves (via
  :class:`~repro.lint.callgraph.ModuleResolver`, cached per module on
  the context) to a project function whose pass-1 fixpoint effect set
  holds the effect; the message carries the deterministic witness chain
  down to the seeding function.

Import-time code (module level, class bodies) is checked like function
bodies.  The ``Transitive*`` class names predate the direct tier; the
checked-in ``--effects`` baseline names their ``check`` methods.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint import config
from repro.lint.callgraph import ModuleResolver
from repro.lint.effects import classify_call, render_chain
from repro.lint.findings import Finding
from repro.lint.rules import ModuleContext, Rule, register

_LOOP_NODES = (
    ast.For,
    ast.While,
    ast.AsyncFor,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def get_resolver(ctx: ModuleContext) -> ModuleResolver:
    """The module's resolved call sites, built once and cached on the
    context (RL010/011/012 share it)."""
    assert ctx.project is not None  # the engine always supplies one
    if ctx.resolver is None:
        ctx.resolver = ModuleResolver(
            ctx.tree,
            ctx.modname,
            ctx.is_package,
            ctx.project.functions,
            ctx.project.classes,
        )
    return ctx.resolver


class _EffectRule(Rule):
    """One effect, reported at a call that performs it or reaches it.

    Messages read ``<call> <where>; <remedy>`` for a direct hit and
    ``call <where> reaches <noun> via <chain>; <remedy>`` otherwise.
    """

    effect: str = ""
    noun: str = ""
    where: str = ""
    remedy: str = ""
    #: callers whose call sites the transitive tier does not check
    exempt_callers: Tuple[str, ...] = ()

    def call_finding(
        self,
        ctx: ModuleContext,
        call: ast.Call,
        *,
        draw_methods: bool = True,
        transitive: bool = True,
    ) -> Optional[Finding]:
        resolver = get_resolver(ctx)
        for hit in classify_call(call, resolver.decls.aliases):
            if hit.effect == self.effect and (
                draw_methods or not hit.draw_method
            ):
                return self.finding(
                    ctx, call, f"{hit.what} {self.where}; {self.remedy}"
                )
        site = resolver.site(call)
        if not transitive or site is None or site[0] in self.exempt_callers:
            return None
        project = ctx.project
        assert project is not None
        if self.effect not in project.effects_of(site[1]):
            return None
        chain = render_chain(project, site[1], self.effect)
        return self.finding(
            ctx,
            call,
            f"call {self.where} reaches {self.noun} via {chain}; "
            f"{self.remedy}",
        )


def _imports_stdlib_random(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "random" for a in node.names)
    return (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == "random"
    )


@register
class TransitiveRngIntoKernel(_EffectRule):
    """RL010 — randomness stays in the seeded sampler layer.

    All randomness flows from seeds through ``repro.util.rngutil``-minted
    generators held by the sampler/generation modules
    (``config.RNG_ALLOWED_MODULES``, host-side, draw order pinned to the
    scalar reference).  Everywhere else under ``repro.*`` code must be a
    deterministic function of its inputs.  Two tiers:

    * direct, in every such module, import-time code included: no stdlib
      ``random`` import, no ``default_rng``/``RandomState``/
      ``SeedSequence`` construction, no ``np.random.*`` global-state
      draw; inside ``config.KERNEL_STRICT_MODULES`` no draw-shaped
      method call either (``.uniform(...)``, ``.integers(...)`` …), so
      a generator passed *into* a kernel cannot smuggle draws past the
      construction check;
    * transitive, in ``repro.vector`` only: no call whose callee's
      fixpoint effect set contains ``RNG``, however many helpers deep.
      The documented host-side samplers
      (``config.RNG_SANCTIONED_FUNCTIONS``) neither seed the effect nor
      have their call sites checked here — their own draws are direct
      hits and carry per-line pragmas.
    """

    id = "RL010"
    name = "rng-outside-samplers"
    summary = (
        "no RNG construction, global-state draw or stdlib random under "
        "repro.* outside the sampler modules (strict kernels: no "
        "draw-method calls); no call chain from repro.vector reaches a draw"
    )
    effect = "RNG"
    noun = "an RNG draw"
    where = "outside the sampler modules"
    remedy = (
        "draws come from a seeded Generator in the generation layer, "
        "sampled host-side before the batch boundary"
    )
    exempt_callers = config.RNG_SANCTIONED_FUNCTIONS

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SRC_NAMESPACE):
            return  # benchmarks/examples/scripts may draw ad hoc
        if config.module_matches(ctx.modname, config.RNG_ALLOWED_MODULES):
            return
        strict = config.module_matches(ctx.modname, config.KERNEL_STRICT_MODULES)
        kernel = config.module_matches(ctx.modname, config.KERNEL_PACKAGES)
        for node in ast.walk(ctx.tree):
            if _imports_stdlib_random(node):
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib 'random' import {self.where}; use a seeded "
                    f"numpy Generator from repro.util.rngutil in an "
                    f"allowlisted module",
                )
            elif isinstance(node, ast.Call):
                found = self.call_finding(
                    ctx, node, draw_methods=strict, transitive=kernel
                )
                if found is not None:
                    yield found


@register
class TransitiveHostSyncInLoop(_EffectRule):
    """RL011 — sync only at batch boundaries, never per event step.

    ``.item()``, ``.cpu()``, ``.tolist()`` and zero-arg ``.get()``
    (cupy's device→host transfer; ``d.get(key)`` dict lookups keep
    their argument and stay legal) each force a device round-trip.
    Inside the fused pass loops of ``sim_vec``/``placement_vec``
    (``config.SYNC_SCOPED_MODULES``) that turns one kernel launch per
    pass into one stall per event.  A loop may neither make such a call
    nor call a helper whose effect set contains ``HOST_SYNC``; device
    values cross to the host once per batch, via ``xp.asnumpy``/
    ``xp.synchronize()`` at the boundary.
    """

    id = "RL011"
    name = "host-sync-in-kernel-loop"
    summary = (
        "no .item()/.cpu()/.tolist()/zero-arg .get(), directly or through "
        "any call chain, inside sim_vec/placement_vec loops; sync only at "
        "batch boundaries via xp.synchronize()"
    )
    effect = "HOST_SYNC"
    noun = "a host-device sync"
    where = "inside a kernel pass loop"
    remedy = (
        "that is a stall per iteration — hoist it to the batch boundary "
        "(xp.asnumpy / xp.synchronize())"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SYNC_SCOPED_MODULES):
            return
        yield from self._walk(ctx, ctx.tree, 0)

    def _walk(
        self, ctx: ModuleContext, node: ast.AST, loop_depth: int
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            depth = loop_depth + (1 if isinstance(child, _LOOP_NODES) else 0)
            if depth > 0 and isinstance(child, ast.Call):
                found = self.call_finding(ctx, child)
                if found is not None:
                    yield found
            yield from self._walk(ctx, child, depth)


@register
class TransitiveWallClock(_EffectRule):
    """RL012 — nothing under ``repro.*`` reads a wall clock, directly or
    through any call chain, except ``repro.service.clock``.

    Analysis results must be a function of inputs and seeds alone, and
    device timing is only honest behind ``xp.synchronize()``.  Timing
    lives in ``benchmarks/``; the admission service's timing funnels
    through the one allowlisted shim.  Because callers are checked
    through the effect fixpoint, a clock read excused locally by a
    pragma is still never inherited silently.
    """

    id = "RL012"
    name = "wall-clock-read"
    summary = (
        "no wall-clock read (time.time/perf_counter/monotonic, "
        "timeit.default_timer), directly or through any call chain, "
        "under repro.* except repro.service.clock"
    )
    effect = "WALL_CLOCK"
    noun = "a wall-clock read"
    where = "in the analysis tree"
    remedy = (
        "results must depend only on inputs and seeds — route timing "
        "through repro.service.clock or move it to benchmarks/"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SRC_NAMESPACE):
            return  # timing belongs in benchmarks/ — outside repro.*
        if config.module_matches(
            ctx.modname, config.WALL_CLOCK_ALLOWED_MODULES
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                found = self.call_finding(ctx, node)
                if found is not None:
                    yield found
