"""The kernel module that every layer calls.

``kernels`` is nsymm._core_py, the one implementation of the term-map
kernels.  Callers look each kernel up on it at call time (``_k.<name>``),
so a tracer can wrap a kernel by rebinding it on the module.
"""

from . import _core_py as kernels

BACKEND = "python"


def backend_name():
    """Which kernel backend this process is running on (always "python")."""
    return BACKEND
