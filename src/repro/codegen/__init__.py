"""Kernel-only code generation and textual emission.

Importing the package loads the kernel generator; the textual emitter
loads on first use of :func:`emit_kernel` (see :mod:`repro._deferred`).
"""

from repro._deferred import deferred_exports
from repro.codegen.kernel import (
    CodegenError,
    KernelCode,
    KernelOp,
    KernelOperand,
    generate_kernel,
)

__getattr__ = deferred_exports(globals(), {"repro.codegen.emit": ("emit_kernel",)})

__all__ = [
    "emit_kernel",
    "CodegenError",
    "KernelCode",
    "KernelOp",
    "KernelOperand",
    "generate_kernel",
]
