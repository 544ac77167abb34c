# Kernel dispatch now lives in the vectorized engine.  perfbench/worker.py still imports
# this name to trace run_table; delete this alias together with that import.
from repro.local_model.vectorized import VectorizedScheduler as CompiledScheduler  # noqa: F401
