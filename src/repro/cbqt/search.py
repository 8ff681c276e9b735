"""State-space search strategies for cost-based transformation (§3.2).

A transformation that applies to N objects induces a state space of
alternative vectors; a state assigns each object one of its alternatives
(0 = untransformed).  For plain binary transformations this is the
paper's bit-vector; objects with more than two alternatives arise from
juxtaposition (§3.3.2), e.g. a view that can be merged *or* have join
predicates pushed into it.

Four strategies, exactly as in the paper:

* **exhaustive** — all combinations; guaranteed optimum.
* **iterative** — random-restart hill climbing; between N+1 and 2^N
  states, capped by ``max_states``.
* **linear** — dynamic-programming style: decide object 1, freeze, decide
  object 2 given the frozen prefix, ...; N+1 states for binary objects.
* **two-pass** — cost only all-zeros vs all-ones; 2 states.

Each strategy receives a ``cost_fn(state) -> float`` (``math.inf`` for a
state aborted by the cost cut-off) and returns ``SearchResult`` with the
best state found and the number of *distinct* states costed — the column
reported in Table 2 of the paper.

States-costed is unchanged by cost-annotation reuse (§3.4.2): every
state the strategy visits is still costed, but blocks an earlier state
of this search already optimized are served from their annotations
instead of fresh join-order enumerations, so the *work per state*
shrinks while the search shape (and Table 2's counts) stays identical.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

CostFn = Callable[[tuple[int, ...]], float]


@dataclass
class SearchResult:
    best_state: tuple[int, ...]
    best_cost: float
    states_evaluated: int
    costs: dict[tuple[int, ...], float] = field(default_factory=dict)
    #: states in first-evaluation order — the walk the strategy actually
    #: took, recorded for the optimizer trace (``cbqt.decision`` events)
    order: list[tuple[int, ...]] = field(default_factory=list)


class _Memo:
    """Wraps cost_fn so repeated states are never re-costed and every
    evaluation is recorded."""

    def __init__(self, cost_fn: CostFn):
        self._fn = cost_fn
        self.costs: dict[tuple[int, ...], float] = {}
        self.order: list[tuple[int, ...]] = []

    def __call__(self, state: tuple[int, ...]) -> float:
        cached = self.costs.get(state)
        if cached is not None:
            return cached
        cost = self._fn(state)
        self.costs[state] = cost
        self.order.append(state)
        return cost

    def result(self) -> SearchResult:
        best_state = min(self.costs, key=lambda s: self.costs[s])
        return SearchResult(
            best_state,
            self.costs[best_state],
            len(self.costs),
            dict(self.costs),
            list(self.order),
        )


def exhaustive_search(alternatives: Sequence[int], cost_fn: CostFn) -> SearchResult:
    """Cost every state in the cross product of alternatives."""
    memo = _Memo(cost_fn)
    for state in itertools.product(*(range(n) for n in alternatives)):
        memo(state)
    return memo.result()


def two_pass_search(alternatives: Sequence[int], cost_fn: CostFn) -> SearchResult:
    """Cost the all-untransformed and all-transformed states only."""
    memo = _Memo(cost_fn)
    memo(tuple(0 for _ in alternatives))
    memo(tuple(min(1, n - 1) for n in alternatives))
    return memo.result()


def linear_search(alternatives: Sequence[int], cost_fn: CostFn) -> SearchResult:
    """Greedy prefix-extension: if transforming object k improved the
    cost, keep it and move to object k+1 — "if Cost(1,0) is lower than
    Cost(0,0), and Cost(1,1) is lower than Cost(1,0), then it is safe to
    assume Cost(1,1) is the lowest" (§3.2).  N+1 states for binary
    objects."""
    memo = _Memo(cost_fn)
    current = [0] * len(alternatives)
    current_cost = memo(tuple(current))
    for i, n_alts in enumerate(alternatives):
        best_alt, best_cost = current[i], current_cost
        for alt in range(1, n_alts):
            candidate = list(current)
            candidate[i] = alt
            cost = memo(tuple(candidate))
            if cost < best_cost:
                best_alt, best_cost = alt, cost
        current[i] = best_alt
        current_cost = best_cost
    return memo.result()


def iterative_search(
    alternatives: Sequence[int],
    cost_fn: CostFn,
    max_states: int = 32,
    restarts: int = 4,
    seed: int = 0,
) -> SearchResult:
    """Iterative improvement: random starting states, always move to the
    best strictly-improving neighbour (one object changed), restart when
    stuck; stop when ``max_states`` distinct states have been costed or
    no unvisited states remain."""
    memo = _Memo(cost_fn)
    rng = random.Random(seed)
    total_states = 1
    for n in alternatives:
        total_states *= n
    memo(tuple(0 for _ in alternatives))  # always know the baseline

    for _restart in range(max(restarts, 1)):
        if len(memo.costs) >= min(max_states, total_states):
            break
        state = tuple(rng.randrange(n) for n in alternatives)
        cost = memo(state)
        improved = True
        while improved and len(memo.costs) < max_states:
            improved = False
            neighbours = []
            for i, n_alts in enumerate(alternatives):
                for alt in range(n_alts):
                    if alt == state[i]:
                        continue
                    candidate = list(state)
                    candidate[i] = alt
                    neighbours.append(tuple(candidate))
            rng.shuffle(neighbours)
            for candidate in neighbours:
                if len(memo.costs) >= max_states:
                    break
                candidate_cost = memo(candidate)
                if candidate_cost < cost:
                    state, cost = candidate, candidate_cost
                    improved = True
                    break
    return memo.result()


#: strategy name -> callable(alternatives, cost_fn)
STRATEGIES = {
    "exhaustive": exhaustive_search,
    "linear": linear_search,
    "two_pass": two_pass_search,
    "iterative": iterative_search,
}


#: object counts at which :func:`choose_strategy` switches strategy
EXHAUSTIVE_THRESHOLD = 4
LINEAR_THRESHOLD = 10
TWO_PASS_TOTAL_THRESHOLD = 16


def choose_strategy(n_objects: int, total_objects_in_query: int) -> str:
    """Automatic strategy selection (§3.2): exhaustive for few objects,
    linear past a threshold, iterative in between, and two-pass for all
    transformations when the query's total transformable-element count is
    itself past a (larger) threshold."""
    if total_objects_in_query > TWO_PASS_TOTAL_THRESHOLD:
        return "two_pass"
    if n_objects <= EXHAUSTIVE_THRESHOLD:
        return "exhaustive"
    if n_objects > LINEAR_THRESHOLD:
        return "linear"
    return "iterative"
