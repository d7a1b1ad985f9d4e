"""Exchangeability martingales and the windowed drift test (Section 4).

Two testing machines are provided:

- :class:`MultiplicativeMartingale` -- the classic product martingale of
  Eq. 5 (tracked in log space).  By Ville's inequality (Eq. 4), observing
  ``S_n > 1/r`` rejects exchangeability at significance ``r``.
- :class:`AdditiveMartingale` -- Algorithm 1's machine: a CUSUM-style sum of
  log betting scores with a ``max(0, .)`` reset, tested with the windowed
  Hoeffding-Azuma criterion of Eq. 15:

      | S_l - S_{l-W} | > sqrt( 2 W (2 / r) )

  The window assesses the *rate of change* of the martingale score, so a
  long quiet history cannot mask a sharp post-drift rise.

The paper's threshold uses ``2/r`` where the textbook Hoeffding-Azuma bound
gives ``ln(2/r)``; we default to the paper's form (it matches the worked
example in Section 4.3.1) and expose ``use_log_bound=True`` for the
statistically tight version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.core.betting import BettingFunction, LogScore


def hoeffding_threshold(window: int, significance: float, bound: float = 1.0,
                        use_log_bound: bool = False) -> float:
    """Drift threshold for the windowed Hoeffding-Azuma test (Eq. 15).

    ``bound`` is the maximum absolute per-step increment ``|g(p)|``; the
    paper's derivation assumes ``bound = 1``.
    """
    if window <= 0:
        raise ConfigurationError(f"window must be positive, got {window}")
    if not 0.0 < significance < 1.0:
        raise ConfigurationError(
            f"significance must be in (0, 1), got {significance}")
    if bound <= 0:
        raise ConfigurationError(f"bound must be positive, got {bound}")
    factor = math.log(2.0 / significance) if use_log_bound else 2.0 / significance
    return bound * math.sqrt(2.0 * window * factor)


@dataclass
class MartingaleState:
    """Result of one martingale update."""

    value: float
    drift: bool
    step: int


@dataclass
class MartingaleBatch:
    """Result of one :meth:`update_batch` call: per-step arrays.

    ``values[i]`` / ``drift[i]`` / ``steps[i]`` are exactly the fields the
    ``i``-th sequential :meth:`update` call would have reported.
    """

    values: np.ndarray
    drift: np.ndarray
    steps: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]

    def states(self) -> List[MartingaleState]:
        """The batch as per-step :class:`MartingaleState` objects."""
        return [MartingaleState(value=float(v), drift=bool(d), step=int(s))
                for v, d, s in zip(self.values, self.drift, self.steps)]


class MultiplicativeMartingale:
    """Product martingale ``S_n = prod g_i(p_i)`` tracked in log space.

    Declares drift at significance ``r`` when ``S_n > 1/r`` (Eq. 4).
    """

    def __init__(self, betting: BettingFunction,
                 significance: float = 0.05) -> None:
        if betting.kind != "multiplicative":
            raise ConfigurationError(
                "MultiplicativeMartingale needs a multiplicative betting "
                "function")
        if not 0.0 < significance < 1.0:
            raise ConfigurationError(
                f"significance must be in (0, 1), got {significance}")
        self.betting = betting
        self.significance = significance
        self.log_value = 0.0
        self.max_log_value = 0.0
        self.step = 0

    @property
    def value(self) -> float:
        """Current martingale value ``S_n`` (may overflow to inf; use
        :attr:`log_value` for numerics)."""
        # np.exp (not math.exp) so scalar and batch updates report
        # bit-identical values
        return float(np.exp(self.log_value)) if self.log_value < 700 else math.inf

    def update(self, p: float) -> MartingaleState:
        """Consume one p-value; returns the new state."""
        g = self.betting(p)
        if g <= 0.0:
            raise ConfigurationError(
                f"multiplicative betting returned non-positive value {g}")
        self.log_value += float(np.log(g))
        self.max_log_value = max(self.max_log_value, self.log_value)
        self.step += 1
        drift = self.log_value > math.log(1.0 / self.significance)
        return MartingaleState(value=self.value, drift=drift, step=self.step)

    def update_batch(self, ps: np.ndarray) -> MartingaleBatch:
        """Consume a 1-D array of p-values; bit-identical to sequential
        :meth:`update` calls (betting evaluated with the shared batch
        kernel, log-values accumulated with ``cumsum``, which performs the
        same left-to-right additions as the scalar loop)."""
        ps = np.asarray(ps, dtype=np.float64).reshape(-1)
        n = ps.shape[0]
        if n == 0:
            return MartingaleBatch(values=np.empty(0), drift=np.empty(0, bool),
                                   steps=np.empty(0, np.int64))
        g = self.betting.batch(ps)
        if (g <= 0.0).any():
            raise ConfigurationError(
                f"multiplicative betting returned non-positive value "
                f"{float(g[g <= 0.0][0])}")
        log_values = np.cumsum(np.concatenate(([self.log_value], np.log(g))))[1:]
        self.log_value = float(log_values[-1])
        self.max_log_value = max(self.max_log_value, float(log_values.max()))
        steps = self.step + 1 + np.arange(n, dtype=np.int64)
        self.step = int(steps[-1])
        drift = log_values > math.log(1.0 / self.significance)
        with np.errstate(over="ignore"):
            values = np.where(log_values < 700, np.exp(log_values), math.inf)
        return MartingaleBatch(values=values, drift=drift, steps=steps)

    def reset(self) -> None:
        """Restart the martingale at 1 (log 0)."""
        self.log_value = 0.0
        self.max_log_value = 0.0
        self.step = 0

    def state_dict(self) -> dict:
        """JSON-serializable snapshot for checkpoint / restore."""
        state = {"kind": "multiplicative", "log_value": self.log_value,
                 "max_log_value": self.max_log_value, "step": self.step}
        betting_state = getattr(self.betting, "state_dict", None)
        if betting_state is not None:
            state["betting"] = betting_state()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        if state.get("kind") != "multiplicative":
            raise CheckpointError(
                f"cannot load {state.get('kind')!r} state into a "
                f"multiplicative martingale")
        self.log_value = float(state["log_value"])
        self.max_log_value = float(state["max_log_value"])
        self.step = int(state["step"])
        if "betting" in state:
            loader = getattr(self.betting, "load_state_dict", None)
            if loader is None:
                raise CheckpointError(
                    "checkpoint carries betting state but the configured "
                    "betting function is stateless")
            loader(state["betting"])


ScoreFunction = Union[LogScore, BettingFunction, Callable[[float], float]]


class AdditiveMartingale:
    """Algorithm 1's additive martingale with the windowed rate test.

    Each update appends ``max(0, S[-1] + score(p))`` (the CUSUM reset keeps
    the statistic from drifting to minus infinity during long null periods)
    and tests ``|S[t] - S[t - w]| > threshold`` with ``w = min(W, t)``.

    ``score`` defaults to the log of a power betting function
    (:class:`~repro.core.betting.LogScore`); any additive betting function or
    plain callable can be substituted for ablation.
    """

    def __init__(self, score: ScoreFunction, window: int = 3,
                 significance: float = 0.5, cusum_reset: bool = True,
                 bound: float = 1.0, use_log_bound: bool = False,
                 max_history: Optional[int] = None) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self.score = score
        self.window = window
        self.significance = significance
        self.cusum_reset = cusum_reset
        self.threshold = hoeffding_threshold(
            window, significance, bound=bound, use_log_bound=use_log_bound)
        # history[0] == S[0] == 0; history[t] is the score after t updates.
        self.history: List[float] = [0.0]
        self.max_history = max_history
        self.step = 0

    @property
    def value(self) -> float:
        return self.history[-1]

    def update(self, p: float) -> MartingaleState:
        """Consume one p-value; returns the new state (Algorithm 1 lines
        10-14)."""
        history = self.history
        new_value = history[-1] + float(self.score(p))
        if self.cusum_reset:
            new_value = max(0.0, new_value)
        history.append(new_value)
        self.step += 1
        w = min(self.window, self.step)
        drift = abs(new_value - history[-1 - w]) > self.threshold
        self._trim()
        return MartingaleState(value=new_value, drift=drift, step=self.step)

    def _trim(self) -> None:
        """Drop the oldest history entries past ``max_history``, in place
        (the list is not reallocated once full)."""
        if self.max_history is not None and len(self.history) > self.max_history:
            # keep at least window + 1 entries so the rate test stays valid
            del self.history[:-max(self.window + 1, self.max_history)]

    def update_batch(self, ps: np.ndarray) -> MartingaleBatch:
        """Consume a 1-D array of p-values; bit-identical to sequential
        :meth:`update` calls.

        The log-score increments are evaluated with the betting function's
        batch kernel; the CUSUM recurrence ``S[t] = max(0, S[t-1] + inc)``
        is computed as a ``cumsum`` restarted at every clamp point --
        ``cumsum`` performs the same left-to-right additions as the scalar
        loop, and between clamps the two are the same float sequence.  The
        windowed Hoeffding-Azuma test is then evaluated for every step at
        once against the extended history.
        """
        ps = np.asarray(ps, dtype=np.float64).reshape(-1)
        n = ps.shape[0]
        if n == 0:
            return MartingaleBatch(values=np.empty(0), drift=np.empty(0, bool),
                                   steps=np.empty(0, np.int64))
        batch_score = getattr(self.score, "batch", None)
        if batch_score is not None:
            increments = np.asarray(batch_score(ps), dtype=np.float64)
        else:
            increments = np.asarray([float(self.score(p)) for p in ps],
                                    dtype=np.float64)
        values = np.empty(n, dtype=np.float64)
        start, last = 0, self.history[-1]
        # every scan is bounded by an adaptive lookahead window: splitting a
        # cumsum at any point and carrying ``last`` forward performs the
        # identical left-to-right additions, so windowing costs nothing in
        # exactness while keeping clamp-dense streams (which would otherwise
        # rescan the whole tail at every restart) linear overall
        lookahead = 32
        while start < n:
            stop = min(n, start + lookahead)
            window = increments[start:stop]
            if self.cusum_reset and last == 0.0:
                # S sticks at exactly 0.0 through a run of non-positive
                # increments (max(0, 0 + inc) == 0.0), so the run needs no
                # arithmetic at all -- without this, null streams (which
                # clamp almost every step) degenerate the cumsum restarts
                # into a per-frame loop
                nonpos = window <= 0.0
                if nonpos[0]:
                    if nonpos.all():
                        values[start:stop] = 0.0
                        start = stop
                        lookahead = min(lookahead * 2, 4096)
                    else:
                        run = int(np.argmin(nonpos))
                        values[start:start + run] = 0.0
                        start += run
                    continue
            segment = np.cumsum(np.concatenate(([last], window)))[1:]
            if self.cusum_reset:
                negative = np.nonzero(segment < 0.0)[0]
                if negative.size:
                    clamp = int(negative[0])
                    values[start:start + clamp] = segment[:clamp]
                    values[start + clamp] = 0.0
                    last = 0.0
                    start += clamp + 1
                    lookahead = 32
                    continue
            values[start:stop] = segment
            last = float(segment[-1])
            start = stop
            lookahead = min(lookahead * 2, 4096)
        # windowed rate test over the extended history, one comparison per
        # step: position i sits at extended index len(history) + i and is
        # compared w_i = min(W, step_i) entries back
        extended = np.concatenate((self.history, values))
        steps = self.step + 1 + np.arange(n, dtype=np.int64)
        positions = len(self.history) + np.arange(n)
        w = np.minimum(self.window, steps)
        delta = np.abs(extended[positions] - extended[positions - w])
        drift = delta > self.threshold
        self.history.extend(values.tolist())  # python floats: JSON-safe
        self.step = int(steps[-1])
        self._trim()
        return MartingaleBatch(values=values, drift=drift, steps=steps)

    def rate(self) -> float:
        """Current windowed rate ``|S[t] - S[t-w]|`` (0 before any update)."""
        if self.step == 0:
            return 0.0
        w = min(self.window, self.step, len(self.history) - 1)
        return abs(self.history[-1] - self.history[-1 - w])

    def reset(self) -> None:
        """Restart at ``S[0] = 0`` keeping the configuration."""
        self.history = [0.0]
        self.step = 0

    def _betting(self):
        """The underlying betting function, unwrapping a LogScore."""
        score = self.score
        return getattr(score, "betting", score)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot for checkpoint / restore."""
        state = {"kind": "additive", "history": list(self.history),
                 "step": self.step}
        betting_state = getattr(self._betting(), "state_dict", None)
        if betting_state is not None:
            state["betting"] = betting_state()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        if state.get("kind") != "additive":
            raise CheckpointError(
                f"cannot load {state.get('kind')!r} state into an "
                f"additive martingale")
        history = [float(v) for v in state["history"]]
        if not history:
            raise CheckpointError("additive martingale history is empty")
        self.history = history
        self.step = int(state["step"])
        if "betting" in state:
            loader = getattr(self._betting(), "load_state_dict", None)
            if loader is None:
                raise CheckpointError(
                    "checkpoint carries betting state but the configured "
                    "betting function is stateless")
            loader(state["betting"])
