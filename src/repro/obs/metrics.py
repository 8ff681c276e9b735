"""Unified metrics registry: counters, histograms, pluggable collectors.

One registry per :class:`~repro.database.Database` absorbs every
accounting surface the engine grew over time — the service layer's plan
cache counters, the dynamic-sampling cache, the transformation
quarantine, degradation-ladder and governor outcomes — behind a single
export: ``Database.snapshot()``, ``.metrics`` in the shell, and
``python -m repro metrics --json``.

Two primitive kinds plus collectors:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Histogram` — count/total/min/max plus a bounded reservoir of
  the most recent samples for percentile snapshots (p50/p90/p99);
* *collectors* — callables returning a dict, registered by subsystems
  that already keep their own thread-safe counters (quarantine,
  sampling cache) or views over their series (plan cache); they are
  invoked only at snapshot time, so absorption adds zero cost to the
  recording paths.

A subsystem with several instances per database (one plan cache per
:class:`~repro.service.QueryService`) names its series through a
:class:`MetricsScope`, ``<name>.<n>.<metric>``, so no two instances
share a series.

Everything is thread-safe; recording is a lock + a few arithmetic ops,
cheap enough for per-statement call sites (never per-row ones).
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from typing import Callable, Optional

from ..errors import VerificationError

#: most recent samples kept per histogram for percentile estimation
DEFAULT_RESERVOIR = 1024


def _quantile(samples: list[float], q: float) -> float:
    """The *q*-quantile (0 < q <= 1) of sorted *samples*, 0 when empty."""
    if not samples:
        return 0.0
    return samples[max(0, min(len(samples) - 1, math.ceil(q * len(samples)) - 1))]


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Histogram:
    """A named distribution: running aggregates + a recent-sample
    reservoir for percentiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_lock")

    def __init__(self, name: str, reservoir: int = DEFAULT_RESERVOIR):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: deque[float] = deque(maxlen=reservoir)
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._samples.append(value)

    def percentile(self, q: float) -> float:
        """The *q*-quantile (0 < q <= 1) over the recent reservoir."""
        with self._lock:
            samples = sorted(self._samples)
        return _quantile(samples, q)

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self.count, self.total
            low = self.min if self.count else 0.0
            high = self.max if self.count else 0.0
            samples = sorted(self._samples)
        return {
            "count": count,
            "total": total,
            "mean": total / count if count else 0.0,
            "min": low,
            "max": high,
            "p50": _quantile(samples, 0.50),
            "p90": _quantile(samples, 0.90),
            "p99": _quantile(samples, 0.99),
        }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = -math.inf
            self._samples.clear()


class MetricsScope:
    """The series of one subsystem instance, ``<prefix>.<name>`` in the
    registry.  It keeps what it bound, in binding order, so a view can
    list the instance's metrics without naming each again."""

    __slots__ = ("registry", "prefix", "counters", "histograms")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self.registry = registry
        self.prefix = prefix
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.registry.counter(f"{self.prefix}.{name}")
        self.counters[name] = counter
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self.registry.histogram(f"{self.prefix}.{name}")
        self.histograms[name] = histogram
        return histogram


class MetricsRegistry:
    """Create-on-first-use registry of counters, histograms, and
    collectors, with one consistent snapshot surface."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], dict]] = {}
        #: scope name -> instances numbered so far
        self._scopes: dict[str, int] = {}

    # -- construction ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        # double-checked create-on-first-use: the unlocked dict probe is a
        # GIL-atomic read and the hot path for every metered operation
        counter = self._counters.get(name)  # staticcheck: ignore[lock.discipline] double-checked fast path; setdefault under lock arbitrates
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def histogram(
        self, name: str, reservoir: int = DEFAULT_RESERVOIR
    ) -> Histogram:
        histogram = self._histograms.get(name)  # staticcheck: ignore[lock.discipline] double-checked fast path; setdefault under lock arbitrates
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, reservoir)
                )
        return histogram

    def scope(self, name: str) -> MetricsScope:
        """A new instance's scope, ``<name>.<n>`` with *n* counting the
        scopes of *name* from 1."""
        with self._lock:
            number = self._scopes[name] = self._scopes.get(name, 0) + 1
        return MetricsScope(self, f"{name}.{number}")

    def register_collector(self, name: str, fn: Callable[[], dict]) -> None:
        """Attach a subsystem's own accounting under *name*; *fn* is
        invoked at snapshot time only (last registration wins)."""
        with self._lock:
            self._collectors[name] = fn

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent export of every counter, histogram percentile
        summary, and collector dump."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            collectors = dict(self._collectors)
        out: dict = {
            "counters": {
                name: counter.value for name, counter in sorted(counters.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(histograms.items())
            },
        }
        for name, fn in sorted(collectors.items()):
            try:
                out[name] = fn()
            except VerificationError:
                # an invariant violation must abort loudly, never be
                # downgraded to an "error" row in a metrics snapshot
                raise
            except Exception as exc:  # a broken collector must not take
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True,
                          default=str)

    def format_table(self) -> str:
        """Human-readable rendering for the shell's ``.metrics``."""
        snap = self.snapshot()
        lines = ["metrics"]
        if snap["counters"]:
            lines.append("  counters")
            for name, value in snap["counters"].items():
                lines.append(f"    {name:<34} {value}")
        if snap["histograms"]:
            lines.append("  histograms")
            for name, h in snap["histograms"].items():
                lines.append(
                    f"    {name:<34} count={h['count']} mean={h['mean']:.3f} "
                    f"p50={h['p50']:.3f} p90={h['p90']:.3f} p99={h['p99']:.3f}"
                )
        for name, payload in snap.items():
            if name in ("counters", "histograms"):
                continue
            lines.append(f"  {name}")
            if isinstance(payload, dict):
                for key, value in payload.items():
                    lines.append(f"    {key:<34} {value}")
            else:  # pragma: no cover - collectors return dicts by contract
                lines.append(f"    {payload}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero counters and histograms (collectors own their state)."""
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        for counter in counters:
            counter.reset()
        for histogram in histograms:
            histogram.reset()
