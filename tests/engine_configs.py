"""The engine configurations the equivalence suites compare.

``"reference"`` is the message-at-a-time scheduler.  ``"kernels-on"`` and
``"kernels-off"`` are both the ``"vectorized"`` engine: once with whatever
kernel backend the machine resolves, once with kernels switched off through
``kernels.force_backend(None)``.  Kernels are a switch inside the engine, so
the two array configurations are a fixture here, not engine names.
"""

from __future__ import annotations

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
