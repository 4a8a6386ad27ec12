"""Kernel selection: compiled extension when available, pure Python otherwise."""

try:
    from . import _kernels as _impl  # type: ignore[attr-defined]

    IMPLEMENTATION = "compiled"
except ImportError:
    from . import _kernels_py as _impl

    IMPLEMENTATION = "pure"

scan_join_closed = _impl.scan_join_closed
list_join_closed = _impl.list_join_closed
op_compatible = _impl.op_compatible
congruence_closure = _impl.congruence_closure
