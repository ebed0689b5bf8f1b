"""Whole-run golden-run comparison: propagation timelines.

The paper's campaigns reduce each injected run to per-pair yes/no
outcomes.  The underlying golden-run comparison carries much more
information: *which* signals diverged and *in what order* — the
observable trace of an error propagating through the system.  This
module reconstructs that timeline:

* :class:`SignalDivergence` — one signal's first divergence (tick,
  golden vs injected value);
* :class:`PropagationTimeline` — all divergences of a run, ordered by
  time, with helpers to check observed orderings against the signal
  graph (an error can only reach a signal after one of its graph
  predecessors — or the injection itself — has diverged);
* :func:`compare_runs` — build the timeline from two
  :class:`~repro.target.simulation.SignalTraces`.

Useful both for debugging the target and as an oracle in tests: the
observed propagation order must be consistent with the static signal
graph.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import AnalysisError
from repro.model.graph import SignalGraph
from repro.model.simulator import SignalTraces

__all__ = ["SignalDivergence", "PropagationTimeline", "compare_runs"]


@dataclass(frozen=True)
class SignalDivergence:
    """First divergence of one signal between golden and injected run."""

    signal: str
    tick: int
    golden_value: Optional[object]
    injected_value: Optional[object]

    def describe(self) -> str:
        return (
            f"t={self.tick}: {self.signal} "
            f"{self.golden_value!r} -> {self.injected_value!r}"
        )


class PropagationTimeline:
    """All first divergences of one injected run, time-ordered."""

    def __init__(self, divergences: Sequence[SignalDivergence]):
        self.divergences = sorted(
            divergences, key=lambda d: (d.tick, d.signal)
        )
        self._by_signal = {d.signal: d for d in self.divergences}
        if len(self._by_signal) != len(self.divergences):
            raise AnalysisError(
                "duplicate signal in propagation timeline"
            )

    def __len__(self) -> int:
        return len(self.divergences)

    def __bool__(self) -> bool:
        return bool(self.divergences)

    def diverged(self, signal: str) -> bool:
        return signal in self._by_signal

    def divergence_of(self, signal: str) -> Optional[SignalDivergence]:
        return self._by_signal.get(signal)

    def first(self) -> Optional[SignalDivergence]:
        return self.divergences[0] if self.divergences else None

    def order(self) -> List[str]:
        """Signals in order of first divergence."""
        return [d.signal for d in self.divergences]

    def reached_output(self, graph: SignalGraph) -> bool:
        outputs = set(graph.system.system_outputs())
        return any(d.signal in outputs for d in self.divergences)

    def consistent_with(
        self, graph: SignalGraph, origin: Optional[str] = None
    ) -> List[str]:
        """Check the timeline against the signal graph.

        Every diverged signal must either be the *origin* (the
        injection point, when known), a system input (environment
        feedback can disturb any sensor), a direct successor of the
        origin (a corruption of the origin's backing store between
        producer writes never appears in the origin's own write
        trace, but its consumers see it), or have a graph predecessor
        that diverged no later than it did.  Returns the list of
        inconsistent signals (empty = consistent).
        """
        inputs = set(graph.system.system_inputs())
        problems: List[str] = []
        for divergence in self.divergences:
            signal = divergence.signal
            if signal == origin or signal in inputs:
                continue
            predecessors = {
                edge.in_signal for edge in graph.in_edges(signal)
            }
            if origin is not None and origin in predecessors:
                continue
            explained = any(
                other is not None and other.tick <= divergence.tick
                for other in (
                    self._by_signal.get(pred) for pred in predecessors
                )
            )
            if not explained:
                problems.append(signal)
        return problems

    def render(self) -> str:
        if not self.divergences:
            return "no divergence (the runs are identical)"
        lines = ["propagation timeline:"]
        lines.extend(f"  {d.describe()}" for d in self.divergences)
        return "\n".join(lines)


def compare_runs(
    golden: SignalTraces,
    injected: SignalTraces,
    signals: Optional[Sequence[str]] = None,
) -> PropagationTimeline:
    """Build the propagation timeline of an injected run.

    *signals* restricts the comparison; by default every signal traced
    in either run is compared.  For each diverging signal the values
    at the divergence point are extracted (``None`` for a missing
    write when one stream is shorter).
    """
    names = (
        list(signals)
        if signals is not None
        else sorted(set(golden.signals()) | set(injected.signals()))
    )
    divergences: List[SignalDivergence] = []
    for name in names:
        tick = golden.first_difference(injected, name)
        if tick is None:
            continue
        golden_value = _value_at(golden, name, tick)
        injected_value = _value_at(injected, name, tick)
        divergences.append(
            SignalDivergence(
                signal=name,
                tick=tick,
                golden_value=golden_value,
                injected_value=injected_value,
            )
        )
    return PropagationTimeline(divergences)


def _value_at(traces: SignalTraces, signal: str, tick: int):
    """The value written at *tick* (or the nearest earlier write)."""
    ticks = traces.ticks_of(signal)
    idx = bisect_right(ticks, tick)
    if not idx:
        return None
    return traces.values_of(signal)[idx - 1]
