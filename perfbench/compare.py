"""Compare two benchmark result records, refusing to compare unlike runs.

    python3 perfbench/compare.py .perfbench/base.json .perfbench/new.json

Each record is a ``.perfbench/result-*.json`` file written by ``run.py``.
Two results are *incomparable* -- reported as such, never as a regression --
when they differ in kernel backend, kernel threads, ``nproc``, Python or
numpy version, or in any portfolio decision (algorithm, engine, quality,
route).  Otherwise every metric is listed with its relative change, and a
change worse than the metric's bound in ``BENCHMARK.json`` is flagged.

Exit code: 0 comparable and within bounds, 1 a bound exceeded, 3 incomparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("kernel_backend", "kernel_threads", "nproc", "python", "numpy", "decisions")


def incomparable(base: dict, new: dict):
    """The stamp fields on which two records differ."""
    reasons = [
        f"{key}: {base['stamp'].get(key)!r} vs {new['stamp'].get(key)!r}"
        for key in STAMP_KEYS
        if base["stamp"].get(key) != new["stamp"].get(key)
    ]
    for key in ("workload", "trace", "smoke"):
        if base.get(key) != new.get(key):
            reasons.append(f"{key}: {base.get(key)!r} vs {new.get(key)!r}")
    return reasons


def bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(base: dict, new: dict, limits: dict):
    """Rows of (name, base, new, relative worsening, verdict)."""
    rows = []
    for name, entry in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        old, cur = entry["value"], new["metrics"][name]["value"]
        limit = limits.get(name, {})
        sign = -1.0 if limit.get("better") == "higher" else 1.0
        worse = sign * (cur - old) / abs(old) if old else 0.0
        bound = limit.get("bound")
        verdict = "" if bound is None else ("WORSE" if worse > bound else "ok")
        rows.append((name, old, cur, worse, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    reasons = incomparable(base, new)
    if reasons:
        print("incomparable (not a regression): " + "; ".join(reasons))
        return 3
    rows = compare(base, new, bounds())
    print(f"{'metric':40s} {'base':>14s} {'new':>14s} {'worse by':>9s}")
    for name, old, cur, worse, verdict in rows:
        print(f"{name:40s} {old:14.6g} {cur:14.6g} {worse:+9.2%} {verdict}")
    return 1 if any(verdict == "WORSE" for *_, verdict in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
