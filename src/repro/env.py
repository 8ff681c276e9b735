"""Every ``REPRO_*`` environment switch the program reads.

Each is read when a default config or a ``Database`` is built, so a test
or a shell may set one any time before it builds either.
"""

from __future__ import annotations

import os

from .errors import ExecutionError

#: execution engines selectable per database / per statement; "vector"
#: (the default) runs the batch engine, "row" is the classic
#: row-at-a-time escape hatch
EXECUTOR_MODES = ("row", "vector")


def flag(name: str, default: bool) -> bool:
    """The switch *name*: ``1/true/on/yes`` is on, ``0/off/false/no`` is
    off, anything else (unset included) is *default*."""
    value = os.environ.get(name, "").lower()
    if value in ("1", "true", "on", "yes"):
        return True
    if value in ("0", "off", "false", "no"):
        return False
    return default


def executor_mode() -> str:
    """``REPRO_EXEC``: ``row`` or ``vector`` (the default when unset)."""
    mode = os.environ.get("REPRO_EXEC", "").strip().lower() or "vector"
    if mode not in EXECUTOR_MODES:
        raise ExecutionError(
            f"REPRO_EXEC={mode!r} is not one of {'/'.join(EXECUTOR_MODES)}"
        )
    return mode
