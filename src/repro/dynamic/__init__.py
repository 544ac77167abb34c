"""Dynamic recoloring under edge churn (incremental repair vs. recompute).

See :mod:`repro.dynamic.session` for the full execution model.  Quickstart::

    from repro import graphs
    from repro.dynamic import DynamicColoring

    fast = graphs.random_regular(1024, 8, seed=1)
    session = DynamicColoring(fast, c=8, engine="vectorized")
    report = session.apply_updates(added=[[0, 5], [3, 9]], removed=[[0, 1]])
    session.verify()  # masked-CSR legality oracle
"""

from repro.dynamic.session import DynamicColoring, UpdateReport

__all__ = ["DynamicColoring", "UpdateReport"]
