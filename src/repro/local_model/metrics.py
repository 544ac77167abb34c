"""Round, message and bandwidth accounting.

The quantities the paper's theorems bound are (a) the number of communication
rounds and (b) the size of the messages, measured in ``O(log n)``-bit words.
:class:`RunMetrics` accumulates both across the phases of an algorithm, and
records a per-phase breakdown that the benchmark harnesses report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class PhaseMetrics:
    """Metrics of a single phase execution."""

    name: str
    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_message_words: int = 0

    def record_message(self, size_words: int) -> None:
        """Charge one message of ``size_words`` words to this phase."""
        self.messages += 1
        self.total_words += size_words
        if size_words > self.max_message_words:
            self.max_message_words = size_words


@dataclass
class RunMetrics:
    """Aggregated metrics of a full algorithm execution.

    Attributes
    ----------
    rounds:
        Total number of communication rounds across all phases.
    messages:
        Total number of messages sent.
    total_words:
        Total bandwidth, in ``O(log n)``-bit words.
    max_message_words:
        The largest single message, in words.  An algorithm "uses messages of
        size ``O(log n)``" exactly when this stays bounded by a constant
        independent of ``Delta``.
    phases:
        Per-phase breakdown, in execution order.
    fallback_phase_names, compiled_fallback_phase_names, degraded_engine_names:
        Always empty; kept only because perfbench reads them (ROADMAP item
        1).  Nothing writes them: the vectorized engine runs ``vector_run``
        phases only and has no fallback.  Excluded from equality.
    phase_seconds:
        Wall-clock seconds per phase name, accumulated across executions of
        the same phase (recursion levels re-run phases under one name).
        Populated by every engine; excluded from equality because timings
        are machine- and run-dependent.
    """

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_message_words: int = 0
    phases: List[PhaseMetrics] = field(default_factory=list)
    fallback_phase_names: List[str] = field(default_factory=list, compare=False)
    compiled_fallback_phase_names: List[str] = field(default_factory=list, compare=False)
    phase_seconds: Dict[str, float] = field(default_factory=dict, compare=False)
    degraded_engine_names: List[str] = field(default_factory=list, compare=False)

    def add_phase(self, phase: PhaseMetrics) -> None:
        """Fold one phase's metrics into the aggregate."""
        self.phases.append(phase)
        self.rounds += phase.rounds
        self.messages += phase.messages
        self.total_words += phase.total_words
        self.max_message_words = max(self.max_message_words, phase.max_message_words)

    def add_phase_seconds(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time for one execution of phase ``name``."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def merge(self, other: "RunMetrics") -> None:
        """Fold another run's metrics (all of its phases) into this one."""
        for phase in other.phases:
            self.add_phase(phase)
        for name, seconds in other.phase_seconds.items():
            self.add_phase_seconds(name, seconds)
        if not other.phases:
            # The other run may carry only aggregate values (e.g. analytic
            # adjustments); account them as an anonymous phase.
            if other.rounds or other.messages:
                self.add_phase(
                    PhaseMetrics(
                        name="(aggregate)",
                        rounds=other.rounds,
                        messages=other.messages,
                        total_words=other.total_words,
                        max_message_words=other.max_message_words,
                    )
                )

    def add_rounds(self, rounds: int, name: str = "(adjustment)") -> None:
        """Add extra rounds without messages (e.g. simulation overhead)."""
        self.add_phase(PhaseMetrics(name=name, rounds=rounds))

    def summary(self) -> Tuple[int, int, int, int]:
        """Return ``(rounds, messages, total_words, max_message_words)``."""
        return (self.rounds, self.messages, self.total_words, self.max_message_words)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunMetrics(rounds={self.rounds}, messages={self.messages}, "
            f"total_words={self.total_words}, max_message_words={self.max_message_words})"
        )
