"""Change detection for the mutable configuration dataclasses.

The plan cache keys a statement on the ``repr`` of its
:class:`~repro.database.OptimizerConfig` — nested dataclasses, several
microseconds to build — and a cached statement should not pay that on
every execution.  Configs are mutable, though, so a key built once
could go stale.  Every attribute write to a :class:`Stamped` object
therefore advances one process-wide :func:`epoch`; a key remembered at
an older epoch is rebuilt.  Configs are written when they are built,
never on the serving path, so the epoch holds still there.
"""

from __future__ import annotations

import itertools

_stamps = itertools.count(1)
_epoch = 0


def epoch() -> int:
    """Advances on every attribute write to any :class:`Stamped`."""
    return _epoch


class Stamped:
    """Mixin for a configuration dataclass whose ``repr`` keys a cache."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        global _epoch
        object.__setattr__(self, name, value)
        _epoch = next(_stamps)
