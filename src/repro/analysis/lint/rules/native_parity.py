"""``native-kernel-parity``: every native kernel has a same-named NumPy twin.

The native kernel tier (:mod:`repro.filters.native`) promises bit-identical
decisions whether or not Numba is installed, which rests on two structural
invariants the AST can check:

* every ``register_fallback("name", fn)`` call registers a *same-named*
  module-level function — the fallback for kernel ``"name"`` must be spelled
  ``name`` (possibly behind a module prefix, ``_magnet.magnet_kernel``).  A
  mismatched registration would silently pair a native kernel with the wrong
  reference implementation, and the differential tests would then "verify"
  the wrong twin;
* ``numba`` is imported only inside ``repro/filters/native``.  A direct
  ``numba`` import anywhere else bypasses the registry's
  availability-probe / guarded-fallback machinery, so that module would
  crash instead of falling back when Numba is absent.
"""

from __future__ import annotations

import ast

from ..engine import Rule, Violation, module_path, terminal_name

__all__ = ["NativeKernelParityRule"]

#: The only package allowed to import numba (the tier implementation itself).
_NATIVE_PREFIX = "repro/filters/native/"


class NativeKernelParityRule(Rule):
    rule_id = "native-kernel-parity"
    contract = (
        "register_fallback pairs a kernel name with a same-named NumPy "
        "function; numba is imported only inside repro.filters.native"
    )

    def check(self, tree: ast.Module, path: str) -> "list[Violation]":
        findings: list[Violation] = []
        in_native = module_path(path).startswith(_NATIVE_PREFIX)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_registration(node, path))
            elif not in_native:
                findings.extend(self._check_numba_import(node, path))
        return findings

    def _check_registration(self, node: ast.Call, path: str) -> "list[Violation]":
        if terminal_name(node.func) != "register_fallback":
            return []
        if len(node.args) < 2:
            return []
        name_arg, fn_arg = node.args[0], node.args[1]
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            return []
        fallback = terminal_name(fn_arg)
        if fallback is None:
            return [
                self.violation(
                    node,
                    path,
                    f"register_fallback({name_arg.value!r}, ...) must pass a "
                    "named module-level function so the NumPy twin is "
                    "auditable by name",
                )
            ]
        if fallback != name_arg.value:
            return [
                self.violation(
                    node,
                    path,
                    f"register_fallback({name_arg.value!r}, ...) registers "
                    f"{fallback!r}; the NumPy fallback must share the kernel's "
                    "registered name",
                )
            ]
        return []

    def _check_numba_import(self, node: ast.AST, path: str) -> "list[Violation]":
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and (
                node.module == "numba" or node.module.startswith("numba.")
            ):
                return [
                    self.violation(
                        node,
                        path,
                        f"imports from {node.module}; numba is only imported "
                        "inside repro.filters.native (use the kernel registry)",
                    )
                ]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numba" or alias.name.startswith("numba."):
                    return [
                        self.violation(
                            node,
                            path,
                            f"imports {alias.name}; numba is only imported "
                            "inside repro.filters.native (use the kernel "
                            "registry)",
                        )
                    ]
        return []
