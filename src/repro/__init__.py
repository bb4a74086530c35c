"""XBench: a family of XML DBMS benchmarks.

Reproduction of *XBench Benchmark and Performance Testing of XML DBMSs*
(Yao, Özsu, Khandelwal; ICDE 2004), built entirely in Python: XML document
model and parser, an XQuery engine, a ToXgene-style synthetic data
generator, the TPC-W relational substrate and mappings, four DBMS storage
architecture analogues, the 20-query workload and the full benchmark
harness.

Quickstart::

    from repro import XBench, BenchmarkConfig, format_suite

    bench = XBench(BenchmarkConfig(scale_divisor=2000,
                                   scale_names=("small",)))
    suite = bench.run_suite()
    print(format_suite(suite, scale_names=("small",)))
"""

from .core.benchmark import BenchmarkConfig, SuiteResult, XBench
from .core.diagrams import render_all_figures, render_figure
from .core.report import format_suite, format_table
from .core.shard import ShardedEngine
from .databases import ALL_CLASSES, CLASSES_BY_KEY
from .engines import create
from .workload import ALL_QUERIES, QUERIES_BY_ID
from .xml import parse_document, serialize
from .xquery import run_query

__version__ = "1.0.0"

__all__ = [
    "BenchmarkConfig",
    "SuiteResult",
    "XBench",
    "render_all_figures",
    "render_figure",
    "format_suite",
    "format_table",
    "ALL_CLASSES",
    "CLASSES_BY_KEY",
    "ShardedEngine",
    "create",
    "ALL_QUERIES",
    "QUERIES_BY_ID",
    "parse_document",
    "serialize",
    "run_query",
    "__version__",
]
