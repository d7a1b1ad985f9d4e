"""Simulated clock charging per-operation costs.

Components call ``clock.charge("operation")`` (or ``charge_ms``) at the point
where the paper's testbed would spend GPU/CPU time.  Experiments read
``clock.elapsed_ms`` / ``elapsed_s`` to build the time-performance tables.
The clock also keeps a per-operation ledger for cost breakdowns.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.sim.costs import CostProfile, PAPER_COSTS


class SimulatedClock:
    """Accumulates simulated milliseconds against a :class:`CostProfile`."""

    def __init__(self, profile: Optional[CostProfile] = None) -> None:
        self.profile = profile or PAPER_COSTS
        self._ledger: Counter = Counter()
        self._op_counts: Counter = Counter()

    @property
    def elapsed_ms(self) -> float:
        """Total simulated time in milliseconds.

        Derived from the per-operation ledger, summed in sorted-key order:
        each operation's ledger entry only ever accumulates that operation's
        charges, so the total is independent of how charges to *different*
        operations interleave -- a batched component charging op-by-op reads
        the same elapsed time as its sequential equivalent charging
        frame-by-frame.
        """
        return sum(self._ledger[name] for name in sorted(self._ledger))

    @property
    def elapsed_s(self) -> float:
        """Total simulated time in seconds."""
        return self.elapsed_ms / 1000.0

    def charge(self, operation: str, times: int = 1) -> float:
        """Charge ``operation`` ``times`` times; returns the ms charged.

        The accumulators advance by repeated addition (not ``cost * times``)
        so one ``charge(op, times=n)`` leaves the clock bit-identical to
        ``n`` single charges -- batched components must not perturb the
        simulated-time accounting of their sequential equivalents.
        """
        cost = self.profile.cost(operation)
        if times == 1:
            # the common one-frame charge, without the loop; 0.0 + cost
            # is the loop's total
            self._ledger[operation] += cost
            self._op_counts[operation] += 1
            return 0.0 + cost
        if times < 0:
            raise ConfigurationError(f"times must be non-negative, got {times}")
        total = 0.0
        for _ in range(times):
            self._ledger[operation] += cost
            total += cost
        self._op_counts[operation] += times
        return total

    def charge_ms(self, operation: str, ms: float) -> float:
        """Charge an explicit duration under ``operation``'s ledger entry."""
        if ms < 0:
            raise ConfigurationError(f"ms must be non-negative, got {ms}")
        self._ledger[operation] += ms
        return ms

    def ledger(self) -> Dict[str, float]:
        """Milliseconds charged per operation name."""
        return dict(self._ledger)

    def operation_counts(self) -> Dict[str, int]:
        """How many times each operation was charged via :meth:`charge`."""
        return dict(self._op_counts)

    def reset(self) -> None:
        """Zero the clock and ledger."""
        self._ledger.clear()
        self._op_counts.clear()

    def split(self) -> "ClockSplit":
        """A context manager measuring the simulated time of a block."""
        return ClockSplit(self)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot (elapsed time + ledgers)."""
        return {"elapsed_ms": self.elapsed_ms,
                "ledger": dict(self._ledger),
                "op_counts": dict(self._op_counts)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` (the cost profile
        is configuration, not state; ``elapsed_ms`` is derived from the
        ledger, so only the ledgers are restored)."""
        self._ledger = Counter(
            {str(k): float(v) for k, v in state["ledger"].items()})
        self._op_counts = Counter(
            {str(k): int(v) for k, v in state["op_counts"].items()})


class ClockSplit:
    """Context manager capturing elapsed simulated ms inside a block."""

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed_ms = 0.0

    def __enter__(self) -> "ClockSplit":
        self._start = self._clock.elapsed_ms
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_ms = self._clock.elapsed_ms - self._start

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ms / 1000.0
