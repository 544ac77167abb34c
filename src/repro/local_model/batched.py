# The batched engine is gone.  perfbench/worker.py still imports this name to trace
# run_table; delete this alias together with that import.
from repro.local_model.vectorized import VectorizedScheduler as BatchedScheduler  # noqa: F401
