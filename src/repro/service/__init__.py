"""Query-serving layer: sessions, prepared statements, bind variables,
and a shared plan cache with adaptive cursor sharing.

See :mod:`repro.service.service` for the architecture overview.
"""

from .binds import BindPredicate, extract_bind_profile, max_drift, normalize_binds
from .plan_cache import CacheEntry, PlanCache, normalize_sql
from .service import (
    DEFAULT_REOPTIMIZE_THRESHOLD,
    Cursor,
    PreparedStatement,
    QueryService,
    Session,
)

__all__ = [
    "BindPredicate",
    "CacheEntry",
    "Cursor",
    "DEFAULT_REOPTIMIZE_THRESHOLD",
    "PlanCache",
    "PreparedStatement",
    "QueryService",
    "Session",
    "extract_bind_profile",
    "max_drift",
    "normalize_binds",
    "normalize_sql",
]
