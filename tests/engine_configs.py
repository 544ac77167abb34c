"""The engine configurations the equivalence suites compare.

``"reference"`` is the message-at-a-time scheduler.  ``"kernels-on"`` and
``"kernels-off"`` are both the ``"vectorized"`` engine: once with whatever
kernel backend the machine resolves, once with kernels switched off through
``kernels.force_backend(None)``.  Kernels are a switch inside the engine, so
the two array configurations are a fixture here, not engine names.

:class:`ScratchFailLibrary` stands in for the compiled kernel library, so
the scratch-failure path of the C backend's wrappers runs on any machine.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Iterator

from repro.local_model import kernels

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
SCRATCH_KERNELS = ("kw_reduce", "psi_select")


class ScratchFailLibrary:
    """A compiled kernel library whose scratch kernels cannot allocate.

    Loaded under :class:`~repro.local_model.kernels._c_backend.CExtensionBackend`,
    its :data:`SCRATCH_KERNELS` and ``entry_twins`` report status 2 with
    their outputs untouched and record their names in :attr:`calls`.  Every other symbol comes from
    ``library`` (a loaded library) or, without one, raises when called, so
    no C compiler is needed.
    """

    def __init__(self, library=None) -> None:
        self.library = library
        self.calls = []

        def kw_reduce(*args):  # reports through its status array (last argument)
            self.calls.append("kw_reduce")
            ctypes.c_longlong.from_address(args[-1]).value = 2

        def psi_select(*args):
            self.calls.append("psi_select")
            return 2

        def entry_twins(*args):
            self.calls.append("entry_twins")
            return 2

        self.kw_reduce, self.psi_select, self.entry_twins = kw_reduce, psi_select, entry_twins
        if library is None:
            self.repro_max_threads = lambda: 1
            self.repro_set_threads = lambda count: None

    def __getattr__(self, symbol):
        if self.library is not None:
            return getattr(self.library, symbol)

        def missing(*args):
            raise AssertionError(f"{symbol} called on a library without kernels")

        return missing
