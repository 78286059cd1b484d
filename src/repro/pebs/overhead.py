"""`ksampled` CPU-usage model and the dynamic sampling-period controller.

The paper bounds the sampling daemon to 3% of a single core (§4.1.1):
`ksampled` periodically computes an exponential moving average of its own
CPU usage and nudges the PEBS periods up or down via
``__perf_event_period``, with a hysteresis band of 0.5% to avoid
continual updates.  Measured behaviour (§6.3.5): average usage 2.016%,
periods grow from 200 to 1400 for sample-heavy workloads (654.roms) and
stay at the initial value for lighter ones (603.bwaves).

We model CPU usage structurally: processing one sample costs a fixed
number of daemon nanoseconds, so usage over a window is
``samples * per_sample_ns / window_wall_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pebs.sampler import DEFAULT_LOAD_PERIOD, DEFAULT_STORE_PERIOD


@dataclass
class CpuOverheadModel:
    """Converts samples processed into daemon CPU usage for a window."""

    per_sample_ns: float = 600.0  # histogram update + metadata touch
    total_busy_ns: float = 0.0

    def window_usage(self, samples: int, window_wall_ns: float) -> float:
        """CPU fraction of one core consumed processing ``samples``."""
        if window_wall_ns <= 0:
            return 0.0
        busy = samples * self.per_sample_ns
        self.total_busy_ns += busy
        return busy / window_wall_ns


class SamplingPeriodController:
    """EMA + hysteresis controller for the PEBS periods (paper §4.1.1).

    Parameters mirror the paper: usage capped at ``limit`` (3% of a
    core).  Capping is asymmetric: any EMA usage above the limit shrinks
    the sampling rate immediately (the 3% budget is a hard bound the
    daemon must not sit over), while growing back requires the EMA to
    fall ``hysteresis`` (0.5%) below the limit -- the dead band that
    prevents continual updates sits entirely on the grow side.
    Adjustment is a proportional step on both periods, clamped to
    ``[min_..., max_...]``; the observed range in the paper is 200..1400
    for loads (§6.3.5).
    """

    def __init__(
        self,
        limit: float = 0.03,
        hysteresis: float = 0.005,
        ema_weight: float = 0.3,
        step_fraction: float = 0.25,
        min_load_period: int = DEFAULT_LOAD_PERIOD,
        max_load_period: int = 7 * DEFAULT_LOAD_PERIOD,
        min_store_period: int = DEFAULT_STORE_PERIOD,
        max_store_period: int = 7 * DEFAULT_STORE_PERIOD,
    ):
        if not 0 < limit < 1:
            raise ValueError("limit must be a fraction of one core")
        if hysteresis < 0 or hysteresis >= limit:
            raise ValueError("hysteresis must be in [0, limit)")
        self.limit = limit
        self.hysteresis = hysteresis
        self.ema_weight = ema_weight
        self.step_fraction = step_fraction
        self.min_load_period = min_load_period
        self.max_load_period = max_load_period
        self.min_store_period = min_store_period
        self.max_store_period = max_store_period
        self.ema_usage = 0.0
        self.adjustments = 0
        self._usage_samples = 0
        self._usage_sum = 0.0
        self._usage_max = 0.0

    @property
    def mean_usage(self) -> float:
        """Average instantaneous usage over the run (for §6.3.5 tables)."""
        return self._usage_sum / self._usage_samples if self._usage_samples else 0.0

    @property
    def max_usage(self) -> float:
        return self._usage_max

    def update(self, usage: float, load_period: int, store_period: int):
        """Fold one window's usage in; return (new_load, new_store) periods.

        Capping is asymmetric on purpose: usage above the limit always
        shrinks the sampling rate (longer period), while usage has to
        fall ``hysteresis`` *below* the limit before the rate grows back.
        """
        self._usage_samples += 1
        self._usage_sum += usage
        self._usage_max = max(self._usage_max, usage)
        self.ema_usage = (
            self.ema_weight * usage + (1.0 - self.ema_weight) * self.ema_usage
        )

        new_load, new_store = load_period, store_period
        # Over the limit at all -> shrink; hysteresis only delays growth.
        if self.ema_usage > self.limit:
            new_load = min(
                self.max_load_period,
                max(load_period + 1, int(load_period * (1 + self.step_fraction))),
            )
            new_store = min(
                self.max_store_period,
                max(store_period + 1, int(store_period * (1 + self.step_fraction))),
            )
        elif self.ema_usage < self.limit - self.hysteresis:
            new_load = max(
                self.min_load_period, int(load_period * (1 - self.step_fraction))
            )
            new_store = max(
                self.min_store_period, int(store_period * (1 - self.step_fraction))
            )
        if (new_load, new_store) != (load_period, store_period):
            self.adjustments += 1
        return new_load, new_store
