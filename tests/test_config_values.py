"""Optimizer configs are values: frozen, hashable, and compared by
content, so the plan cache keys a statement on the config itself."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Database, OptimizerConfig
from repro.cbqt.framework import CbqtConfig
from repro.resilience import ResilienceConfig
from repro.service import QueryService

SQL = "SELECT t.id FROM t WHERE t.v > 1"


@pytest.fixture()
def service() -> QueryService:
    db = Database()
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.insert("t", [{"id": i, "v": i % 4} for i in range(20)])
    db.analyze()
    return QueryService(db)


def test_equal_configs_built_apart_share_one_entry(service):
    first = OptimizerConfig(cbqt=CbqtConfig(search_strategy="linear"))
    second = OptimizerConfig(cbqt=CbqtConfig(search_strategy="linear"))
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert service.execute(SQL, config=first).cache_status == "miss"
    assert service.execute(SQL, config=second).cache_status == "hit"
    assert len(service.cache) == 1


def test_derived_configs_get_their_own_entries(service):
    base = OptimizerConfig()
    variants = [base, base.without("jppd"), base.with_strategy("linear")]
    assert [service.execute(SQL, config=c).cache_status
            for c in variants] == ["miss", "miss", "miss"]
    assert [service.execute(SQL, config=c).cache_status
            for c in variants] == ["hit", "hit", "hit"]
    assert len(service.cache) == 3


@pytest.mark.parametrize("config, field", [
    (OptimizerConfig(), "dp_threshold"),
    (CbqtConfig(), "search_strategy"),
    (ResilienceConfig(), "fallback"),
])
def test_assigning_a_field_raises(config, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, None)

