"""The analyzer's finding record and its stable fingerprint.

A fingerprint deliberately excludes line numbers: baselines must survive
unrelated edits that shift code up or down a file.  It is built from the
rule id, the repo-relative path, the enclosing scope
(``Class.method`` / function / ``<module>``), and a short rule-specific
detail slug (``read:self.queue``, ``raise:OSError``, ``cycle:A->B->A``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One static-analysis violation."""

    rule: str
    message: str
    relpath: str
    lineno: int
    scope: str
    detail: str
    severity: str = "error"

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}::{self.relpath}::{self.scope}::{self.detail}"

    @property
    def location(self) -> str:
        return f"{self.relpath}:{self.lineno}"

    def format(self) -> str:
        return f"{self.location}: {self.rule} [{self.scope}]: {self.message}"
