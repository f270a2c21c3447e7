"""Pluggable array namespace for the vector kernels (numpy / torch).

Every kernel in :mod:`repro.vector` computes through an
:class:`ArrayBackend` — a numpy-compatible namespace plus the handful of
divergence shims the kernels need (:meth:`~ArrayBackend.lexsort`,
:meth:`~ArrayBackend.take_along_axis`, :meth:`~ArrayBackend.astype`,
:meth:`~ArrayBackend.maximum_accumulate`, the uint64 bitmap helpers) —
instead of importing numpy directly.  This module is the *only* place
that resolves which concrete array library backs that namespace:

* ``numpy`` — the eager default, imported unconditionally; with it
  active every kernel performs the exact same operations as before the
  backends existed, so verdicts stay bit-identical to the scalar
  reference implementations.
* ``torch`` / ``torch:cuda`` — resolved lazily behind an optional
  import.  torch is not required at import time; requesting it when it
  is not installed raises :class:`BackendUnavailable` with an
  actionable message.  ``torch`` runs on CPU tensors (float64,
  sequential reductions — the bit-exact parity contract holds there
  too); ``torch:cuda`` is a *device* backend
  (:attr:`ArrayBackend.is_device`), where parallel reductions may
  re-associate float adds, so parity is verdict-level, not guaranteed
  bit-for-bit.

Selection precedence (first match wins):

1. an explicit ``backend``/``array_backend`` argument at a call site
   (e.g. ``simulate_batch(..., array_backend="torch")``);
2. a process-wide override installed with :func:`set_backend` — the CLI
   ``--array-backend`` flag uses this;
3. the ``REPRO_ARRAY_BACKEND`` environment variable;
4. ``numpy``.

Host/device discipline: samplers and anything feeding the object model
stay on the host — :data:`host` is the guaranteed-host numpy namespace
for them — and kernels move data onto the active backend once per batch
(:meth:`ArrayBackend.asarray`) and back once per result
(:func:`asnumpy`), so transfers sit at batch boundaries only.

The uint64 bitmaps of :mod:`repro.vector.placement_vec` need one real
representation shim: torch has no uint64 arithmetic, so the torch
backend reinterprets the bitmap words as int64 (two's complement makes
``& | ^ ~`` and equality bit-identical; see
:meth:`ArrayBackend.bitmap_from_host`).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy

#: The guaranteed-host namespace (plain numpy) for the pieces that are
#: deliberately not backend-pluggable: the seeded samplers (their draw
#: order is pinned to the scalar reference for bit-exact parity), batch
#: generation, and the host side of every boundary transfer.
host = numpy

#: Environment variable consulted when no explicit backend is given and
#: no process-wide override is installed.
BACKEND_ENV = "REPRO_ARRAY_BACKEND"

#: Backend names this module knows how to resolve.
KNOWN_BACKENDS = ("numpy", "torch", "torch:cuda")


class BackendUnavailable(ImportError):
    """A known array backend was requested but cannot be imported/used."""


def _normalize(name: str) -> str:
    name = name.strip().lower()
    if name == "torch-cuda":  # tolerated spelling
        name = "torch:cuda"
    if name not in KNOWN_BACKENDS:
        known = ", ".join(KNOWN_BACKENDS)
        raise ValueError(f"unknown array backend {name!r}; known: {known}")
    return name


class ArrayBackend:
    """One concrete array library behind a numpy-compatible namespace.

    Attribute access falls through to the underlying module (``xp.where``
    -> ``numpy.where`` on the numpy backend), with resolved attributes
    cached on the instance so the hot path pays one dict lookup.  The
    named methods below are the divergence shims: places where the
    libraries disagree on API or dtype behaviour, defined so every
    backend matches *numpy's* semantics for the kernel call sites.
    """

    #: resolution-name of this backend ("numpy", "torch", "torch:cuda")
    name: str = "abstract"
    #: True when arrays live off-host (torch:cuda) — the engine
    #: must not fork workers sharing the device context, and
    #: bit-identical float reduction order is not guaranteed.
    is_device: bool = False

    def __init__(self, mod: Any) -> None:
        self._mod = mod
        self._low_bits_cache: Any = None
        self._col_index_cache: Dict[int, Any] = {}

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._mod, attr)
        # Cache on the instance so subsequent lookups skip __getattr__.
        setattr(self, attr, value)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayBackend {self.name}>"

    # -- boundary transfers -------------------------------------------------

    def asnumpy(self, a: Any) -> "numpy.ndarray":
        """Materialize ``a`` as a host numpy array (identity on numpy)."""
        return numpy.asarray(a)

    def bitmap_from_host(self, words: "numpy.ndarray") -> Any:
        """Move a host uint64 bitmap into this backend's bitmap dtype."""
        return self.asarray(words)

    def synchronize(self) -> None:
        """Block until all queued device work is done (no-op on host).

        Benchmarks must call this before reading the clock: device
        backends enqueue kernels asynchronously, so without a sync a
        timing loop measures launch latency, not execution.  Host
        backends execute eagerly and return immediately."""

    # -- dtype shims --------------------------------------------------------

    #: dtype of placement bitmap words on this backend.
    @property
    def bitmap_dtype(self) -> Any:
        return self._mod.uint64

    def astype(self, a: Any, dtype: Any) -> Any:
        """``ndarray.astype`` as a function (may avoid copying when the
        dtype already matches — no kernel call site mutates the result
        of a same-dtype astype)."""
        return a.astype(dtype)

    def copy(self, a: Any) -> Any:
        return a.copy()

    # -- numpy-API divergence shims ----------------------------------------

    def maximum_accumulate(self, a: Any, axis: int) -> Any:
        """``numpy.maximum.accumulate`` (running maximum along ``axis``)."""
        return self._mod.maximum.accumulate(a, axis=axis)

    def unpack_bitmap(self, words: Any, width: int) -> Any:
        """Unpack ``(R, n_words)`` bitmap words to ``(R, width)`` uint8 0/1.

        Bit ``c % 64`` of word ``c // 64`` lands at flat position ``c``
        (little-endian byte order, which holds on every platform this
        repo targets).
        """
        xp = self._mod
        rows = words.shape[0]
        flat = xp.unpackbits(
            xp.ascontiguousarray(words).view(xp.uint8).reshape(-1),
            bitorder="little",
        ).reshape(rows, words.shape[1] * 64)
        return flat[:, :width]

    # -- cached small tables ------------------------------------------------

    def low_bits(self) -> Any:
        """``low_bits()[j]`` has the low ``j`` bits set (``j`` in 0..64),
        in this backend's bitmap dtype."""
        if self._low_bits_cache is None:
            table = numpy.array(
                [(1 << j) - 1 for j in range(65)], dtype=numpy.uint64
            )
            self._low_bits_cache = self.bitmap_from_host(table)
        return self._low_bits_cache

    def col_index(self, width: int) -> Any:
        """Cached ``arange(1, width + 1)`` in the narrowest dtype that fits.

        Indices are biased by +1 so the maximum-accumulate that computes
        hole starts can run in uint8 for the (typical) narrow devices —
        half the bandwidth of int16 on the chooser's hottest loop.
        """
        cached = self._col_index_cache.get(width)
        if cached is None:
            max_width = int(numpy.iinfo(numpy.int16).max) // 2
            if width > max_width:
                raise ValueError(f"device width {width} exceeds {max_width}")
            dtype = self.uint8 if width < 255 else self.int16
            cached = self.arange(1, width + 1, dtype=dtype)
            self._col_index_cache[width] = cached
        return cached


class NumpyBackend(ArrayBackend):
    """The eager default: plain numpy, zero behavioural delta."""

    name = "numpy"
    is_device = False

    def __init__(self) -> None:
        super().__init__(numpy)


class TorchBackend(ArrayBackend):
    """PyTorch behind numpy-compatible wrappers.

    Every wrapper matches the numpy semantics the kernels rely on:
    ``axis`` keywords, value-only reductions (no ``(values, indices)``
    namedtuples), stable sorts, python-scalar operands adopting the
    tensor operand's dtype (the kernels pass exact values — 0, -1, inf —
    so the adoption is lossless), and int64-reinterpreted uint64
    bitmaps (bitwise ops and equality are bit-identical under two's
    complement).
    """

    is_device = False  # overridden for torch:cuda in __init__

    def __init__(self, mod: Any, device: str = "cpu") -> None:
        super().__init__(mod)
        self._device = device
        self.name = "torch" if device == "cpu" else f"torch:{device}"
        self.is_device = device != "cpu"
        # dtype attributes, set eagerly so __getattr__ never guesses.
        self.float64 = mod.float64
        self.float32 = mod.float32  # repro-lint: disable=RL004 -- the namespace must expose float32 so the batch-boundary pins can detect and widen f32 inputs
        self.int64 = mod.int64
        self.int32 = mod.int32
        self.int16 = mod.int16
        self.uint8 = mod.uint8
        self.bool_ = mod.bool
        self.inf = math.inf
        self.nan = math.nan

    @property
    def bitmap_dtype(self) -> Any:
        return self._mod.int64  # uint64 reinterpreted (no torch uint64 ops)

    # -- boundary transfers -------------------------------------------------

    def asnumpy(self, a: Any) -> "numpy.ndarray":
        if self._mod.is_tensor(a):
            return a.detach().cpu().numpy()
        return numpy.asarray(a)

    def synchronize(self) -> None:
        if self.is_device:  # pragma: no cover - needs CUDA
            self._mod.cuda.synchronize(self._device)

    def bitmap_from_host(self, words: "numpy.ndarray") -> Any:
        as_i64 = numpy.ascontiguousarray(words).view(numpy.int64).copy()
        return self._mod.from_numpy(as_i64).to(self._device)

    # -- construction / conversion -----------------------------------------

    def asarray(self, a: Any, dtype: Any = None) -> Any:
        return self._mod.as_tensor(a, dtype=dtype, device=self._device)

    def astype(self, a: Any, dtype: Any) -> Any:
        return a.to(dtype)

    def copy(self, a: Any) -> Any:
        return a.clone()

    def zeros(self, shape: Any, dtype: Any = None) -> Any:
        return self._mod.zeros(self._shape(shape), dtype=dtype, device=self._device)

    def ones(self, shape: Any, dtype: Any = None) -> Any:
        return self._mod.ones(self._shape(shape), dtype=dtype, device=self._device)

    def empty(self, shape: Any, dtype: Any = None) -> Any:
        return self._mod.empty(self._shape(shape), dtype=dtype, device=self._device)

    def full(self, shape: Any, fill: Any, dtype: Any = None) -> Any:
        if dtype is None:
            # Match numpy: a python-float fill yields a float64 array.
            dtype = self.float64 if isinstance(fill, float) else self.int64
        return self._mod.full(
            self._shape(shape), fill, dtype=dtype, device=self._device
        )

    def ones_like(self, a: Any, dtype: Any = None) -> Any:
        return self._mod.ones_like(a, dtype=dtype)

    def zeros_like(self, a: Any, dtype: Any = None) -> Any:
        return self._mod.zeros_like(a, dtype=dtype)

    def arange(self, *args: Any, dtype: Any = None) -> Any:
        return self._mod.arange(*args, dtype=dtype, device=self._device)

    @staticmethod
    def _shape(shape: Any) -> Any:
        return (shape,) if isinstance(shape, int) else tuple(shape)

    # -- elementwise with numpy scalar semantics ----------------------------

    def _pair(self, a: Any, b: Any) -> Tuple[Any, Any]:
        """Promote a python scalar operand to the tensor operand's dtype."""
        torch = self._mod
        if torch.is_tensor(a) and not torch.is_tensor(b):
            b = torch.as_tensor(b, dtype=a.dtype, device=a.device)
        elif torch.is_tensor(b) and not torch.is_tensor(a):
            a = torch.as_tensor(a, dtype=b.dtype, device=b.device)
        return a, b

    def where(self, cond: Any, x: Any, y: Any) -> Any:
        if cond.dtype is not self._mod.bool:
            cond = cond.bool()
        x, y = self._pair(x, y)
        return self._mod.where(cond, x, y)

    def minimum(self, a: Any, b: Any) -> Any:
        return self._mod.minimum(*self._pair(a, b))

    def maximum(self, a: Any, b: Any) -> Any:
        return self._mod.maximum(*self._pair(a, b))

    # -- reductions (value-only, numpy axis semantics) ----------------------

    def sum(self, a: Any, axis: Any = None, dtype: Any = None) -> Any:
        if axis is None:
            return self._mod.sum(a, dtype=dtype)
        return self._mod.sum(a, dim=axis, dtype=dtype)

    def max(self, a: Any, axis: Any = None) -> Any:
        return a.max() if axis is None else self._mod.amax(a, dim=axis)

    def min(self, a: Any, axis: Any = None) -> Any:
        return a.min() if axis is None else self._mod.amin(a, dim=axis)

    def any(self, a: Any, axis: Any = None) -> Any:
        return self._mod.any(a) if axis is None else self._mod.any(a, dim=axis)

    def all(self, a: Any, axis: Any = None) -> Any:
        return self._mod.all(a) if axis is None else self._mod.all(a, dim=axis)

    def argmax(self, a: Any, axis: Any = None) -> Any:
        if a.dtype is self._mod.bool:
            a = a.to(self._mod.uint8)
        return self._mod.argmax(a, dim=axis)

    def argmin(self, a: Any, axis: Any = None) -> Any:
        if a.dtype is self._mod.bool:
            a = a.to(self._mod.uint8)
        return self._mod.argmin(a, dim=axis)

    def cumsum(self, a: Any, axis: int) -> Any:
        return self._mod.cumsum(a, dim=axis)

    def maximum_accumulate(self, a: Any, axis: int) -> Any:
        if a.dtype is self._mod.uint8:
            # cummax dtype coverage is spotty for uint8; int16 is exact
            # for the < 255 column indices that ride in uint8.
            return self._mod.cummax(a.to(self._mod.int16), dim=axis).values.to(
                self._mod.uint8
            )
        return self._mod.cummax(a, dim=axis).values

    # -- sorting / indexing -------------------------------------------------

    def argsort(self, a: Any, axis: int = -1, kind: Any = None) -> Any:
        # Always stable: a superset of what numpy guarantees by default,
        # and exactly what the kernels' tie-breaks rely on.
        return self._mod.argsort(a, dim=axis, stable=True)

    def lexsort(self, keys: Sequence[Any], axis: int = -1) -> Any:
        """``numpy.lexsort``: last key is primary, earlier keys break ties."""
        if len(keys) == 0:
            raise ValueError("need at least one key")
        torch = self._mod
        order = torch.argsort(keys[0], dim=axis, stable=True)
        for key in keys[1:]:
            reordered = torch.take_along_dim(key, order, dim=axis)
            refine = torch.argsort(reordered, dim=axis, stable=True)
            order = torch.take_along_dim(order, refine, dim=axis)
        return order

    def take_along_axis(self, a: Any, indices: Any, axis: int) -> Any:
        return self._mod.take_along_dim(a, indices, dim=axis)

    def nonzero(self, a: Any) -> Tuple[Any, ...]:
        return self._mod.nonzero(a, as_tuple=True)

    # -- misc ---------------------------------------------------------------

    def concatenate(self, arrays: Sequence[Any], axis: int = 0) -> Any:
        return self._mod.cat(list(arrays), dim=axis)

    def unpack_bitmap(self, words: Any, width: int) -> Any:
        torch = self._mod
        shifts = torch.arange(64, dtype=torch.int64, device=words.device)
        # Arithmetic >> fills with the sign bit; the & 1 keeps only the
        # selected bit, so bit 63 of "negative" (reinterpreted-uint64)
        # words is extracted correctly too.
        bits = (words.unsqueeze(-1) >> shifts) & 1
        flat = bits.reshape(words.shape[0], words.shape[1] * 64)
        return flat[:, :width].to(torch.uint8)


# ---------------------------------------------------------------------------
# resolution


_INSTANCES: Dict[str, ArrayBackend] = {}
_IMPORT_ERRORS: Dict[str, str] = {}
#: process-wide override installed by set_backend() (None = no override).
_OVERRIDE: Optional[str] = None


def _make_backend(name: str) -> ArrayBackend:
    if name == "numpy":
        return NumpyBackend()
    if name in ("torch", "torch:cuda"):
        try:
            import torch  # noqa: F401  (optional dependency)
        except Exception as exc:
            raise BackendUnavailable(
                f"array backend {name!r} requested but torch is not "
                f"importable ({exc!r}); install the CPU wheel "
                f"(pip install torch --index-url "
                f"https://download.pytorch.org/whl/cpu) or pick another "
                f"backend"
            ) from exc
        if name == "torch:cuda":
            if not torch.cuda.is_available():
                raise BackendUnavailable(
                    "array backend 'torch:cuda' requested but "
                    "torch.cuda.is_available() is False; use 'torch' for "
                    "CPU tensors"
                )
            return TorchBackend(torch, device="cuda")
        return TorchBackend(torch, device="cpu")
    raise AssertionError(name)  # pragma: no cover - _normalize guards


def get_backend(name: "Optional[str | ArrayBackend]" = None) -> ArrayBackend:
    """Resolve an :class:`ArrayBackend` by precedence.

    ``name`` (when given) wins; otherwise the :func:`set_backend`
    override, then the ``REPRO_ARRAY_BACKEND`` environment variable,
    then ``numpy``.  Unknown names raise :class:`ValueError`; known but
    uninstalled backends raise :class:`BackendUnavailable` (numpy is
    always available).
    """
    if name is None:
        name = _OVERRIDE if _OVERRIDE is not None else os.environ.get(BACKEND_ENV)
        if not name:
            name = "numpy"
    elif isinstance(name, ArrayBackend):
        return name
    name = _normalize(name)
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _INSTANCES[name] = _make_backend(name)
    return backend


def set_backend(name: Optional[str]) -> Optional[str]:
    """Install (or with ``None`` clear) the process-wide backend override.

    Returns the previous override so callers can restore it.  The name
    is resolved eagerly, so a bad selection fails here, not at first
    kernel use.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    if name is not None:
        get_backend(name)  # validate + build eagerly
        name = _normalize(name)
    _OVERRIDE = name
    return previous


@contextmanager
def backend(name: Optional[str]) -> Iterator[ArrayBackend]:
    """Context manager form of :func:`set_backend`."""
    previous = set_backend(name)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


def backend_available(name: str) -> bool:
    """True when ``name`` resolves without error (cached per process)."""
    name = _normalize(name)
    if name in _INSTANCES:
        return True
    if name in _IMPORT_ERRORS:
        return False
    try:
        get_backend(name)
        return True
    except BackendUnavailable as exc:
        _IMPORT_ERRORS[name] = str(exc)
        return False


def available_backends() -> Tuple[str, ...]:
    """The subset of :data:`KNOWN_BACKENDS` importable in this process."""
    return tuple(n for n in KNOWN_BACKENDS if backend_available(n))


def backend_skip_reason(name: str) -> Optional[str]:
    """``None`` when ``name`` is usable; else why it is not.

    The shared helper behind every test/bench parametrization over
    backends: the reason is the :class:`BackendUnavailable` message
    itself, so a skipped ``torch:cuda`` leg reads "cuda unavailable",
    not "not installed", when torch is present but GPU-less.
    """
    name = _normalize(name)
    if backend_available(name):
        return None
    return _IMPORT_ERRORS.get(name, f"array backend {name!r} unavailable")


def namespace_of(arr: Any) -> ArrayBackend:
    """The backend an array belongs to (host numpy for anything host).

    This is the array-API-style dispatch used by the type-generic
    helpers (:func:`repro.vector.batch.sequential_sum`, the
    :class:`~repro.vector.batch.TaskSetBatch` aggregates, the placement
    bit-kernels): host inputs stay host, device inputs stay on device.
    """
    mod = type(arr).__module__.split(".")[0]
    if mod == "torch":
        dev = arr.device
        return get_backend("torch" if dev.type == "cpu" else f"torch:{dev.type}")
    return get_backend("numpy")


def asnumpy(arr: Any) -> "numpy.ndarray":
    """Materialize any backend's array on the host (identity for numpy)."""
    return namespace_of(arr).asnumpy(arr)


def __getattr__(attr: str) -> Any:
    """Module-level passthrough: ``xp.<name>`` resolves on the *active*
    backend (``get_backend(None)``), so ``from repro.vector import xp``
    behaves as a pluggable numpy-compatible namespace."""
    if attr.startswith("__"):
        raise AttributeError(attr)
    return getattr(get_backend(), attr)
