"""Golden regression tests: seeded outputs are frozen under ``tests/data/``.

Every fixture in :mod:`make_goldens` is executed on the reference engine
and on the vectorized engine with kernels on and off, and compared -- full
coloring, palette, round count, message count, bandwidth -- against its
committed golden file.  A mismatch means an (intentional or not)
behavior change: if intentional, regenerate with
``PYTHONPATH=src python tests/make_goldens.py`` and review the diff.
"""

from __future__ import annotations

import json

import pytest

from engine_configs import ENGINE_CONFIGS, engine_config
from make_goldens import CHURN_SCHEDULE, FIXTURES, churn_session, compute_fixture, golden_path


#: Fields compared one by one for a readable failure before the full diff.
SUMMARY_FIELDS = (
    "num_nodes",
    "num_edges",
    "palette",
    "colors_used",
    "rounds",
    "messages",
    "total_words",
    "max_message_words",
)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("config", ENGINE_CONFIGS)
def test_golden_coloring(name, config):
    path = golden_path(name)
    assert path.exists(), (
        f"missing golden file {path}; generate with "
        "'PYTHONPATH=src python tests/make_goldens.py'"
    )
    golden = json.loads(path.read_text())
    with engine_config(config) as engine:
        actual = compute_fixture(name, engine=engine)

    for field in SUMMARY_FIELDS:
        assert actual[field] == golden[field], (
            f"{name} [{config}]: {field} changed "
            f"({golden[field]} -> {actual[field]})"
        )
    assert actual["coloring"] == golden["coloring"], (
        f"{name} [{config}]: the coloring itself changed; if intentional, "
        "regenerate the goldens and review the diff"
    )
    assert actual == golden


def test_goldens_cover_every_fixture():
    for name in FIXTURES:
        assert golden_path(name).exists()


def test_unpinned_dynamic_session_matches_reference():
    # ``engine=None`` takes the vectorized default; the churn golden must
    # come out exactly as on the reference engine.
    build, _ = FIXTURES["dynamic_churn_regular32x8"]
    default = churn_session(build(), engine=None, **CHURN_SCHEDULE)
    reference = churn_session(build(), engine="reference", **CHURN_SCHEDULE)
    assert (default.color_column == reference.color_column).all()
    assert default.palette_bound == reference.palette_bound
    assert default.metrics.summary() == reference.metrics.summary()
    assert all(report.fallback_phases == () for report in default.reports)
