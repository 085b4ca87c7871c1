"""The native kernel tier: Numba-compiled packed kernels behind one registry.

The pure-NumPy batch kernels of the GateKeeper family, MAGNET and
SneakySnake (built on :mod:`repro.filters.packed`) are the *reference* tier:
vectorised, portable, always available.  This package adds an optional
*native* tier — the same three kernels written as tight scalar loops and
compiled with ``numba.njit(cache=True, nogil=True)`` — and the seam through
which the rest of the stack selects between them.

Design rules (enforced by the ``native-kernel-parity`` lint rule):

* every native kernel is registered next to a **same-named NumPy fallback**,
  so ``resolve(name, "numpy")`` always works and the two implementations are
  differential-testable by construction;
* ``numba`` is only ever imported inside ``repro/filters/native`` — the rest
  of the package reaches native code exclusively through :func:`resolve`;
* falling back is **silent and safe**: when Numba is not installed, when the
  JIT compile fails, or when a compiled kernel raises at call time, the
  registry routes the call to the NumPy twin and keeps routing there.  Which
  tier actually ran is recorded in the engine's result metadata, never in the
  decisions themselves — accept/reject vectors and Result JSON are
  bit-identical across tiers.

Tier selection is a three-valued knob threaded through every layer
(``ExecutionSpec.kernel_tier``, ``FilterEngine(kernel_tier=...)``, the
``--kernel-tier`` CLI flags):

``"auto"``
    Use the native tier when it is importable, else NumPy (the default).
``"numpy"``
    Always run the pure-NumPy reference tier.
``"native"``
    Prefer the native tier; still falls back to NumPy (silently, recorded in
    metadata) when Numba is absent rather than failing the run.

Registration is lazy: the kernel pairs in :mod:`._register` are imported on
the first :func:`resolve` call, which breaks the import cycle between this
package and the filter modules that both *provide* fallbacks and *consume*
the registry.
"""

from __future__ import annotations

import importlib.util
import threading
from typing import Any, Callable

__all__ = [
    "KERNEL_TIERS",
    "DEFAULT_KERNEL_TIER",
    "numba_available",
    "active_tier",
    "validate_tier",
    "register_fallback",
    "register_native",
    "registered_kernels",
    "resolve",
]

#: The three values ``kernel_tier`` accepts everywhere in the stack.
KERNEL_TIERS = ("auto", "numpy", "native")
DEFAULT_KERNEL_TIER = "auto"

#: name -> {"numpy": fallback, "native": compiled impl or None}.
_REGISTRY: "dict[str, dict[str, Callable[..., Any] | None]]" = {}
_REGISTERED = False
_LOCK = threading.Lock()

#: Probe result cache; ``None`` until first use.  Tests monkeypatch this to
#: force the NumPy tier (the forced-fallback contract).
_AVAILABLE: "bool | None" = None


def numba_available() -> bool:
    """Whether the Numba JIT is importable (``find_spec`` probe, cached)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            _AVAILABLE = importlib.util.find_spec("numba") is not None
        except (ImportError, ValueError):  # broken/namespace edge cases
            _AVAILABLE = False
    return _AVAILABLE


def validate_tier(tier: str) -> str:
    """Validate a ``kernel_tier`` value, returning it unchanged."""
    if tier not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel_tier {tier!r} (expected one of {list(KERNEL_TIERS)})"
        )
    return tier


def active_tier(tier: str = DEFAULT_KERNEL_TIER) -> str:
    """The tier that will actually run: ``"native"`` or ``"numpy"``.

    ``"native"`` requires both the request (``native`` / ``auto``) and an
    importable Numba; anything else resolves to the NumPy reference tier.
    """
    validate_tier(tier)
    if tier == "numpy":
        return "numpy"
    return "native" if numba_available() else "numpy"


# --------------------------------------------------------------------------- #
# Registration
# --------------------------------------------------------------------------- #
def register_fallback(name: str, fn: "Callable[..., Any]") -> None:
    """Register ``name``'s pure-NumPy reference implementation."""
    entry = _REGISTRY.setdefault(name, {"numpy": None, "native": None})
    entry["numpy"] = fn


def register_native(name: str, fn: "Callable[..., Any] | None") -> None:
    """Register ``name``'s compiled implementation (``None``: not compiled)."""
    entry = _REGISTRY.setdefault(name, {"numpy": None, "native": None})
    entry["native"] = fn


def _ensure_registered() -> None:
    global _REGISTERED
    if _REGISTERED:
        return
    with _LOCK:
        if _REGISTERED:
            return
        from . import _register  # noqa: F401  (imports populate the registry)

        _REGISTERED = True


def registered_kernels() -> "tuple[str, ...]":
    """Names of every registered kernel pair, in registration order."""
    _ensure_registered()
    return tuple(_REGISTRY)


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #
def _disable_native(name: str) -> None:
    """Permanently route ``name`` to its NumPy twin (compile/call failure)."""
    entry = _REGISTRY.get(name)
    if entry is not None:
        entry["native"] = None


def _guarded(name: str, native_fn: "Callable[..., Any]",
             numpy_fn: "Callable[..., Any]") -> "Callable[..., Any]":
    """Wrap a native kernel so a JIT failure degrades to the NumPy twin.

    ``numba.njit`` compiles lazily on first call; if that compilation (or the
    compiled code itself) raises, the kernel is disabled for the rest of the
    process and the call is replayed on the reference implementation — the
    run completes either way, just on the slower tier.
    """

    def call(*args: Any, **kwargs: Any) -> Any:
        try:
            return native_fn(*args, **kwargs)
        except Exception:
            _disable_native(name)
            return numpy_fn(*args, **kwargs)

    return call


def resolve(name: str, tier: str = DEFAULT_KERNEL_TIER) -> "tuple[Callable[..., Any], str]":
    """The implementation of kernel ``name`` for ``tier``: ``(fn, tier_label)``.

    The label is the tier the returned callable belongs to (``"native"`` or
    ``"numpy"``) — callers record it in result metadata so a silent fallback
    is still observable.
    """
    validate_tier(tier)
    _ensure_registered()
    entry = _REGISTRY.get(name)
    if entry is None or entry["numpy"] is None:
        raise KeyError(f"unknown native kernel {name!r}")
    numpy_fn = entry["numpy"]
    if tier != "numpy" and numba_available():
        native_fn = entry["native"]
        if native_fn is not None:
            return _guarded(name, native_fn, numpy_fn), "native"
    return numpy_fn, "numpy"
