"""Vectorized (batch-at-a-time) plan execution.

The package implements the columnar half of the engine:

* :class:`~repro.engine.vector.batch.Batch` — a list-of-columns chunk of
  rows keyed exactly like the row engine's dict rows (``"alias.column"``),
  so the two engines interconvert losslessly;
* :mod:`~repro.engine.vector.kernels` — compilation of expression trees
  into Python source kernels applied once per batch (a filter's conjuncts
  fuse into a single loop) instead of once per row;
* :class:`~repro.engine.vector.executor.VectorExecutor` — batch-at-a-time
  operators for the hot path (table scan, filter, projection, hash join,
  hash aggregate, distinct, sort, set operations) that bridge every other
  operator to the untouched row engine, sharing one
  :class:`~repro.engine.executor.ExecStats`.

Work-unit accounting is charge-for-charge identical to the row executor
(same :class:`~repro.optimizer.costmodel.CostModel` constants per row),
so "estimated cost" and "measured work" keep one currency across engines
and the committed paper-figure baselines hold under either executor.
"""

from .batch import Batch
from .executor import BATCH_SIZE, VECTOR_OPERATORS, VectorExecutor
from .kernels import KernelCompiler, NotVectorizable

__all__ = [
    "Batch",
    "BATCH_SIZE",
    "KernelCompiler",
    "NotVectorizable",
    "VECTOR_OPERATORS",
    "VectorExecutor",
]
