"""DBMS engine analogues: native, Xcolumn, Xcollection, SQL Server.

Engines are obtained through the registry factory :func:`create`, which
is the one construction path shared by the CLI, the benchmark driver and
the sharded execution service (whose worker processes receive only the
engine *key* and construct their own instance).  Engines are context
managers::

    with create("native") as engine:
        engine.timed_load(db_class, texts)
        ...
    # close() has released trees, relstore tables, caches and summaries

:func:`register` adds third-party engines to the registry, and
:data:`PAPER_ENGINE_KEYS` lists the paper's four systems in row order.
"""

from __future__ import annotations

from typing import Callable

from ..errors import EngineError
from .base import Engine, LoadStats, QueryResult
from .native import NativeEngine, normalize_result
from .relational import ShreddedEngine, SqlServerEngine, XCollectionEngine
from .shredding import ShreddedStore, ShredPlan, build_plan
from .xcolumn import XColumnEngine


def _edge_factory() -> Engine:
    # Imported lazily: the edge store is an ablation extra, not one of
    # the paper's four systems.
    from .edge import EdgeEngine
    return EdgeEngine()


#: Registry: engine key -> zero-argument factory.  The paper's four rows
#: first (table row order), ablation extras after.
_REGISTRY: dict[str, Callable[[], Engine]] = {
    "xcolumn": XColumnEngine,
    "xcollection": XCollectionEngine,
    "sqlserver": SqlServerEngine,
    "native": NativeEngine,
    "edge": _edge_factory,
}

#: The paper's four systems in table row order.
PAPER_ENGINE_KEYS: tuple[str, ...] = ("xcolumn", "xcollection",
                                      "sqlserver", "native")


def create(key: str) -> Engine:
    """A fresh engine instance for ``key`` (the registry factory)."""
    factory = _REGISTRY.get(key)
    if factory is None:
        raise EngineError(
            f"unknown engine key {key!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}")
    return factory()


def register(key: str, factory: Callable[[], Engine]) -> None:
    """Add (or replace) a registry entry for ``key``."""
    _REGISTRY[key] = factory


def engine_keys() -> tuple[str, ...]:
    """All registered engine keys (paper rows first)."""
    return tuple(_REGISTRY)


__all__ = [
    "Engine",
    "LoadStats",
    "QueryResult",
    "NativeEngine",
    "normalize_result",
    "ShreddedEngine",
    "SqlServerEngine",
    "XCollectionEngine",
    "ShreddedStore",
    "ShredPlan",
    "build_plan",
    "XColumnEngine",
    "PAPER_ENGINE_KEYS",
    "create",
    "register",
    "engine_keys",
]
