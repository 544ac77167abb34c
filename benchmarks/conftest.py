"""Make ``pytest benchmarks/`` collect the ``bench_*.py`` harnesses.

The benchmark files are deliberately named ``bench_*.py`` so the repo-root
test run (``python -m pytest``, the tier-1 gate) never picks them up -- but
that also meant ``pytest benchmarks/`` silently collected *nothing*, a
footgun that made the smoke paths look green without running.  This conftest
collects the ``bench_*.py`` modules exactly when the benchmarks directory
(or something inside it) was named on the command line, so:

* ``pytest benchmarks/`` runs every harness (combine with
  ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration);
* ``pytest`` from the repository root still collects only ``tests/``;
* explicitly named files (``pytest benchmarks/bench_engine_speedup.py``)
  keep working as before -- pytest collects explicit paths itself, and the
  hook skips them to avoid double collection.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent

# The harnesses cross-check the library against the dict-scan oracles of
# tests/graph_oracles.py.
sys.path.insert(0, str(_BENCH_DIR.parent / "tests"))


def _benchmarks_targeted(config) -> bool:
    """Whether the benchmarks directory was targeted by the invocation.

    True when the directory (or something inside it) was named on the
    command line, or when a path-less ``pytest`` was launched from inside
    it (``cd benchmarks && pytest``).
    """
    saw_positional = False
    for raw in config.invocation_params.args:
        arg = str(raw)
        if not arg or arg.startswith("-"):
            continue
        saw_positional = True
        try:
            path = Path(arg.split("::", 1)[0]).resolve()
        except (OSError, ValueError):
            continue
        if path == _BENCH_DIR or _BENCH_DIR in path.parents:
            return True
    if not saw_positional:
        invocation_dir = Path(str(config.invocation_params.dir)).resolve()
        return invocation_dir == _BENCH_DIR or _BENCH_DIR in invocation_dir.parents
    return False


def pytest_collect_file(file_path: Path, parent):
    if (
        file_path.suffix == ".py"
        and file_path.name.startswith("bench_")
        and not parent.session.isinitpath(file_path)
        and _benchmarks_targeted(parent.config)
    ):
        return pytest.Module.from_parent(parent, path=file_path)
    return None
