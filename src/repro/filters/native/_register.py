"""Registration of every native/NumPy kernel pair.

Imported lazily by :func:`repro.filters.native._ensure_registered` on the
first :func:`~repro.filters.native.resolve` call.  Each ``register_fallback``
call names a module-level NumPy function whose terminal identifier equals the
registered name — the ``native-kernel-parity`` lint rule checks exactly that,
which is what guarantees every native kernel has a same-named reference twin.

Native implementations are registered only when Numba actually compiled the
sources (``NUMBA_COMPILED``); otherwise the entries stay ``None`` and
``resolve`` routes every tier to the NumPy fallback.
"""

from __future__ import annotations

from .. import gatekeeper as _gatekeeper
from .. import magnet as _magnet
from .. import sneakysnake as _sneakysnake
from . import register_fallback, register_native
from . import _kernels

register_fallback("gatekeeper_kernel", _gatekeeper.gatekeeper_kernel)
register_fallback("sneakysnake_kernel", _sneakysnake.sneakysnake_kernel)
register_fallback("magnet_kernel", _magnet.magnet_kernel)

for _name in ("gatekeeper_kernel", "sneakysnake_kernel", "magnet_kernel"):
    register_native(_name, getattr(_kernels, _name) if _kernels.NUMBA_COMPILED else None)
