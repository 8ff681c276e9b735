"""Deterministic synthetic data generation primitives.

These generators are the building blocks the workload schemas use to
populate tables.  All of them take an explicit :class:`random.Random` so
that every experiment is reproducible from a seed.

Value distributions supported: uniform ints, zipf-skewed ints (for
duplicate-heavy join columns — the paper's semijoin caching depends on
duplicates), sequential keys, foreign-key sampling, dates, and categorical
strings.
"""

from __future__ import annotations

import random
import string
from typing import Callable, Optional, Sequence


def sequential_int(start: int = 1) -> Callable[[random.Random, int], int]:
    """Primary-key style generator: row i gets start + i."""

    def gen(_rng: random.Random, row_index: int) -> int:
        return start + row_index

    return gen


def uniform_int(low: int, high: int) -> Callable[[random.Random, int], int]:
    """Uniformly distributed integers in [low, high]."""

    def gen(rng: random.Random, _row_index: int) -> int:
        return rng.randint(low, high)

    return gen


def zipf_int(
    n_values: int, skew: float = 1.1, start: int = 1
) -> Callable[[random.Random, int], int]:
    """Zipf-skewed integers over *n_values* distinct values.

    Value ``start`` is the most frequent.  Uses an inverse-CDF table so
    generation is O(log n) per row.
    """
    weights = [1.0 / (i ** skew) for i in range(1, n_values + 1)]
    total = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    import bisect

    def gen(rng: random.Random, _row_index: int) -> int:
        u = rng.random()
        return start + bisect.bisect_left(cumulative, u)

    return gen


def foreign_key(
    parent_keys: Sequence[int], skew: float = 0.0
) -> Callable[[random.Random, int], int]:
    """Sample a parent key, uniformly or with zipf skew over parents."""
    if not parent_keys:
        raise ValueError("foreign_key requires a non-empty parent key list")
    if skew <= 0.0:
        def gen(rng: random.Random, _row_index: int) -> int:
            return rng.choice(parent_keys)
        return gen
    zipf = zipf_int(len(parent_keys), skew, start=0)

    def skewed(rng: random.Random, row_index: int) -> int:
        return parent_keys[min(zipf(rng, row_index), len(parent_keys) - 1)]

    return skewed


def categorical(
    values: Sequence[object], weights: Optional[Sequence[float]] = None
) -> Callable[[random.Random, int], object]:
    """Pick from a fixed set of values with optional weights."""
    values = list(values)

    def gen(rng: random.Random, _row_index: int) -> object:
        if weights is None:
            return rng.choice(values)
        return rng.choices(values, weights=weights, k=1)[0]

    return gen


def iso_date(
    start_year: int = 1990, end_year: int = 2006
) -> Callable[[random.Random, int], str]:
    """ISO-format date strings (order correctly as strings)."""

    def gen(rng: random.Random, _row_index: int) -> str:
        year = rng.randint(start_year, end_year)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        return f"{year:04d}-{month:02d}-{day:02d}"

    return gen


def random_name(length: int = 8) -> Callable[[random.Random, int], str]:
    letters = string.ascii_lowercase

    def gen(rng: random.Random, _row_index: int) -> str:
        return "".join(rng.choice(letters) for _ in range(length))

    return gen


def nullable(
    inner: Callable[[random.Random, int], object], null_fraction: float
) -> Callable[[random.Random, int], object]:
    """Wrap a generator so a fraction of its outputs are NULL."""

    def gen(rng: random.Random, row_index: int) -> object:
        if rng.random() < null_fraction:
            return None
        return inner(rng, row_index)

    return gen


def generate_rows(
    column_generators: dict[str, Callable[[random.Random, int], object]],
    row_count: int,
    seed: int,
) -> list[dict]:
    """Generate *row_count* rows; column order follows the dict order."""
    rng = random.Random(seed)
    rows = []
    for i in range(row_count):
        rows.append({name: gen(rng, i) for name, gen in column_generators.items()})
    return rows
