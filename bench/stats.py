"""Small statistics helpers shared by the harness and its tests."""

from __future__ import annotations

import math
import statistics
import zlib
from typing import Iterable, Sequence

#: a percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1)
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile (``0 < q < 1``) of *values*.

    Refuses (``ValueError``) unless at least :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the requested rank, so a tail percentile is never
    read off a handful of points."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} is outside (0, 1)")
    ordered = sorted(values)
    # 1-based nearest rank; the rounding absorbs binary-float error in q * n
    rank = math.ceil(round(q * len(ordered), 9))
    beyond = len(ordered) - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{len(ordered)} samples leave {beyond}"
        )
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median - the driver's
    steadiness measure for one metric over repeated runs."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _canonical(value: object) -> str:
    # engines may sum floats in different orders; nine significant
    # digits keep real differences and drop the last-bit noise
    if isinstance(value, float):
        return f"{value:.9g}"
    return repr(value)


def checksum(rows: Iterable[Sequence[object]]) -> tuple[int, int]:
    """Order-insensitive ``(row count, checksum)`` of a result set."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += zlib.crc32("|".join(map(_canonical, row)).encode())
    return count, total & 0xFFFFFFFFFFFFFFFF
