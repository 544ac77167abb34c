"""The engine configurations the equivalence suites compare.

``"reference"`` is the message-at-a-time scheduler.  ``"kernels-on"`` and
``"kernels-off"`` are both the ``"vectorized"`` engine: once with whatever
kernel backend the machine resolves, once with kernels switched off through
``kernels.force_backend(None)``.  Kernels are a switch inside the engine, so
the two array configurations are a fixture here, not engine names.
:data:`CEXT` is the C library, for tests that hold it to the numpy steps.

:class:`ScratchFailLibrary` stands in for the compiled kernel library, so
the scratch-failure path of the C backend's wrappers runs on any machine.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Iterator

from repro.local_model import kernels
from repro.local_model.kernels import _c_backend


#: The C kernel library, loaded once whatever ``REPRO_KERNEL_BACKEND`` says
#: (``None`` on a machine without a compiler).
CEXT = _c_backend.load()

#: The vectorized engine with kernels as resolved, and with kernels off.
ARRAY_CONFIGS = ("kernels-on", "kernels-off")

#: Every configuration a golden or equivalence check runs on.
ENGINE_CONFIGS = ("reference",) + ARRAY_CONFIGS


@contextmanager
def engine_config(config: str) -> Iterator[str]:
    """Run the body under ``config``; yields the engine name to pass on."""
    if config == "reference":
        yield "reference"
        return
    restore = None
    if config == "kernels-off":
        restore = kernels.force_backend(None, reason="kernels switched off by the test")
    try:
        yield "vectorized"
    finally:
        if restore is not None:
            restore()


#: The phase kernels that allocate scratch and report a failed allocation as
#: status 2 (the L(G) builder's ``entry_twins`` does too; no phase calls it).
SCRATCH_KERNELS = ("defective_step", "iter_reduce", "kw_reduce", "psi_select")


class ScratchFailLibrary:
    """A compiled kernel library whose scratch kernels cannot allocate.

    Loaded under :class:`~repro.local_model.kernels._c_backend.CExtensionBackend`,
    its :data:`SCRATCH_KERNELS` and ``entry_twins`` report status 2 with
    their outputs untouched and record their names in :attr:`calls`.  Every
    other symbol comes from ``library`` (a loaded library) or, without one,
    raises when called, so no C compiler is needed.
    """

    def __init__(self, library=None) -> None:
        self.library = library
        self.calls = []

        def failing(name, through_status_array):
            def kernel(*args):
                self.calls.append(name)
                if not through_status_array:
                    return 2
                ctypes.c_longlong.from_address(args[-1]).value = 2

            return kernel

        for name in SCRATCH_KERNELS + ("entry_twins",):
            # The two reductions report through their status array (last argument).
            setattr(self, name, failing(name, name in ("iter_reduce", "kw_reduce")))
        if library is None:
            self.repro_max_threads = lambda: 1
            self.repro_set_threads = lambda count: None

    def __getattr__(self, symbol):
        if self.library is not None:
            return getattr(self.library, symbol)

        def missing(*args):
            raise AssertionError(f"{symbol} called on a library without kernels")

        return missing
