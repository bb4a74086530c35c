"""Shared helpers for the benchmark modules (cells, ids, engine registry)."""

from __future__ import annotations

import os
from functools import partial

from repro.core import BenchmarkConfig
from repro.databases import CLASSES_BY_KEY
from repro.engines import PAPER_ENGINE_KEYS, create
from repro.errors import UnsupportedConfiguration

SCALES = ("small", "normal", "large")
CLASSES = ("dcsd", "dcmd", "tcsd", "tcmd")

ENGINES_BY_KEY = {key: partial(create, key) for key in PAPER_ENGINE_KEYS}


def benchmark_config() -> BenchmarkConfig:
    """Scale is controlled by XBENCH_DIVISOR (default 2000)."""
    divisor = int(os.environ.get("XBENCH_DIVISOR", "2000"))
    return BenchmarkConfig(scale_divisor=divisor, scale_names=SCALES)


def supported_cells() -> list[tuple[str, str, str]]:
    """(engine key, class key, scale) combos that are not '-' cells."""
    cells = []
    for engine_key, factory in ENGINES_BY_KEY.items():
        probe = factory()
        for class_key in CLASSES:
            for scale in SCALES:
                try:
                    probe.check_supported(CLASSES_BY_KEY[class_key],
                                          scale)
                except UnsupportedConfiguration:
                    continue
                cells.append((engine_key, class_key, scale))
    return cells


def cell_id(cell: tuple[str, str, str]) -> str:
    engine_key, class_key, scale = cell
    return f"{engine_key}-{class_key}-{scale}"
