"""Batched re-verdicting of many admission states at once.

When one event (a device-wide reconfiguration, a fleet-level parameter
sweep, a shared task updated everywhere) touches *k* states, querying
each state's scalar analyzers serially wastes the batch parallelism the
:mod:`repro.vector` kernels already have.  :func:`reverdict` applies the
per-state deltas, groups the affected states by ``(taskset size,
capacity)`` and fans each group into **one** vectorized kernel call per
requested test — backend-neutral via :mod:`repro.vector.xp` (numpy /
torch).

Contract: the vector kernels compute in float64 (states' task parameters
are cast on packing), so verdict parity with the scalar analyzers holds
on the same terms as the acceptance engine's vector path — exact for
float-representable parameters, verdict-level for exact rationals whose
knife edges fall below float resolution.  The states' own incremental
analyzers are untouched and remain the bit-identical reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.incremental.state import AdmissionState, Delta
from repro.model.task import TaskSet
from repro.vector.batch import TaskSetBatch
from repro.vector.dp_vec import dp_accepts
from repro.vector.gn1_vec import gn1_accepts
from repro.vector.gn2_vec import gn2_accepts
from repro.vector.xp import host as hnp

#: Tests reverdict can answer; ``"ANY"`` is the §6 portfolio disjunction.
TESTS = ("DP", "GN1", "GN2", "ANY")


def accept_masks(
    tasksets: Sequence[TaskSet],
    capacity: int,
    *,
    tests: Sequence[str] = ("DP", "GN1", "GN2"),
    backend: Optional[str] = None,
) -> Dict[str, "hnp.ndarray"]:
    """One vectorized kernel call per member test over same-length
    ``tasksets`` against a ``capacity``-column device.

    The shared primitive under :func:`reverdict` and the admission
    service's micro-batcher (:mod:`repro.service.engine`): callers group
    candidate tasksets by ``(len, capacity)`` and fan each group through
    here, paying one kernel launch per test for the whole group instead
    of one scalar rerun per candidate.  Returns ``{test: (B,) bool host
    mask}`` for exactly the requested ``tests`` (``"ANY"`` is the
    member disjunction — equal to the §6 EDF-NF portfolio verdict, since
    DP, GN1 and GN2 all apply to EDF-NF).
    """
    unknown = [t for t in tests if t not in TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {unknown!r} (choose from {TESTS})")
    batch = TaskSetBatch.from_tasksets(tasksets)
    need = set(tests) | ({"DP", "GN1", "GN2"} if "ANY" in tests else set())
    masks: Dict[str, "hnp.ndarray"] = {}
    if "DP" in need:
        masks["DP"] = dp_accepts(batch, capacity, backend=backend)
    if "GN1" in need:
        masks["GN1"] = gn1_accepts(batch, capacity, backend=backend)
    if "GN2" in need:
        masks["GN2"] = gn2_accepts(batch, capacity, backend=backend)
    if "ANY" in tests:
        masks["ANY"] = masks["DP"] | masks["GN1"] | masks["GN2"]
    return {t: masks[t] for t in tests}


def reverdict(
    states: Sequence[AdmissionState],
    deltas: Optional[Sequence[Optional[Delta]]] = None,
    *,
    tests: Sequence[str] = ("DP", "GN1", "GN2"),
    backend: Optional[str] = None,
) -> List[Dict[str, bool]]:
    """Apply ``deltas`` (one per state, ``None`` = untouched), then return
    each state's accept verdicts as ``{test: bool}`` in one vectorized
    sweep per ``(n_tasks, capacity)`` group.

    Empty states verdict ``True`` for every test (vacuous acceptance,
    matching :func:`repro.core.interfaces.empty_taskset_result`).
    """
    unknown = [t for t in tests if t not in TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {unknown!r} (choose from {TESTS})")
    if deltas is not None:
        if len(deltas) != len(states):
            raise ValueError("need exactly one delta (or None) per state")
        for state, delta in zip(states, deltas):
            if delta is not None:
                state.apply(delta)

    out: List[Dict[str, bool]] = [{} for _ in states]
    groups: Dict[Tuple[int, int], List[int]] = {}
    for idx, state in enumerate(states):
        if len(state) == 0:
            out[idx] = {t: True for t in tests}
        else:
            groups.setdefault((len(state), state.fpga.capacity), []).append(idx)

    for (_, capacity), idxs in groups.items():
        masks = accept_masks(
            [states[i].taskset for i in idxs], capacity, tests=tests, backend=backend
        )
        for pos, idx in enumerate(idxs):
            out[idx] = {t: bool(masks[t][pos]) for t in tests}
    return out
