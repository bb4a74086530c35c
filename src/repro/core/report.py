"""Render experiment results in the paper's table layout.

The paper's result tables have one row per system (Xcolumn, Xcollection,
SQL Server, X-Hive) and columns grouped by database class (DC/SD, DC/MD,
TC/SD, TC/MD), each split into Small/Normal/Large.  ``-`` marks
configurations a system cannot run.  Cells whose result set disagrees
with the native oracle carry a ``*`` (the paper reports such times while
noting the results "are not necessarily accurate").
"""

from __future__ import annotations

import re

from ..databases import CLASSES_BY_KEY
from ..engines import PAPER_ENGINE_KEYS, create
from .benchmark import ExperimentResult, SuiteResult

#: paper column order.
CLASS_ORDER = ("dcsd", "dcmd", "tcsd", "tcmd")
SCALE_ORDER = ("small", "normal", "large")

#: the sharded execution service's row suffix (``X-Hive x2``).
_SHARD_SUFFIX = re.compile(r" x\d+$")


def _row_labels(result: ExperimentResult) -> list[str]:
    """Table rows for one result, in paper order.

    The four paper rows always render (an engine with no cells shows
    ``-``, matching the paper's layout) — unless the run was entirely
    sharded, where dash rows for the unsharded systems would just be
    noise.  Sharded rows (``<system> xN``) sort with their base
    system, so a ``--shards`` run keeps the paper's row order.
    """
    paper_order = [create(key).row_label for key in PAPER_ENGINE_KEYS]
    present = {row for (row, __, ___) in result.cells}

    def order(row: str) -> tuple[int, str]:
        base = _SHARD_SUFFIX.sub("", row)
        index = (paper_order.index(base) if base in paper_order
                 else len(paper_order))
        return (index, row)

    if present and not (present & set(paper_order)):
        return sorted(present, key=order)
    return sorted(set(paper_order) | present, key=order)


def format_cell(result: ExperimentResult, row_label: str, class_key: str,
                scale_name: str) -> str:
    cell = result.cells.get((row_label, class_key, scale_name))
    if cell is None or cell.seconds is None:
        return "-"
    value = cell.seconds * (1000.0 if result.unit == "ms" else 1.0)
    if value >= 100:
        text = f"{value:.0f}"
    elif value >= 1:
        text = f"{value:.1f}"
    else:
        text = f"{value:.2f}"
    if cell.correct is False:
        text += "*"
    return text


def format_table(result: ExperimentResult,
                 scale_names: tuple[str, ...] = SCALE_ORDER,
                 class_keys: tuple[str, ...] = CLASS_ORDER) -> str:
    """One experiment as a paper-style ASCII table."""
    row_labels = _row_labels(result)
    class_keys = tuple(key for key in class_keys
                       if any((row, key, scale) in result.cells
                              for row in row_labels
                              for scale in scale_names))

    headers = ["System"]
    for class_key in class_keys:
        label = CLASSES_BY_KEY[class_key].label
        for scale_name in scale_names:
            headers.append(f"{label} {scale_name[0].upper()}")

    rows = []
    for row_label in row_labels:
        row = [row_label]
        for class_key in class_keys:
            for scale_name in scale_names:
                row.append(format_cell(result, row_label, class_key,
                                       scale_name))
        rows.append(row)

    widths = [max(len(row[index]) for row in [headers] + rows)
              for index in range(len(headers))]

    def format_row(row: list[str]) -> str:
        return "  ".join(value.rjust(width)
                         for value, width in zip(row, widths))

    unit_note = ("(in Seconds)" if result.unit == "s"
                 else "(in Milliseconds)")
    lines = [f"{result.title} {unit_note}", format_row(headers),
             "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(format_row(row) for row in rows)
    lines.append("- : configuration not supported; "
                 "* : result differs from native oracle")
    return "\n".join(lines)


def format_suite(suite: SuiteResult,
                 scale_names: tuple[str, ...] = SCALE_ORDER) -> str:
    """All tables of one run, in the paper's order (Tables 4-9)."""
    parts = [format_table(suite.load, scale_names)]
    for qid in ("Q5", "Q12", "Q17", "Q8", "Q14"):
        if qid in suite.queries:
            parts.append(format_table(suite.queries[qid], scale_names))
    for qid, result in suite.queries.items():
        if qid not in ("Q5", "Q12", "Q17", "Q8", "Q14"):
            parts.append(format_table(result, scale_names))
    return "\n\n".join(parts)


def suite_records(suite: SuiteResult) -> list[dict]:
    """Flatten a suite into analysis-friendly records.

    One dict per measured (or unsupported) cell with keys: ``table``
    (load or query id), ``system``, ``class``, ``scale``, ``seconds``
    (None for ``-`` cells) and ``correct``.  Cells carrying warm-run
    stats or obs counters (``repeats > 1`` / ``observe=True``) include
    them under ``warm`` and ``counters``.
    """
    records = []

    def add(table: str, result: ExperimentResult) -> None:
        for (row_label, class_key, scale_name), cell in \
                sorted(result.cells.items()):
            record = {
                "table": table,
                "system": row_label,
                "class": CLASSES_BY_KEY[class_key].label,
                "scale": scale_name,
                "seconds": cell.seconds,
                "correct": cell.correct,
            }
            if cell.warm:
                record["warm"] = dict(cell.warm)
            if cell.counters:
                record["counters"] = dict(cell.counters)
            records.append(record)

    add("load", suite.load)
    for qid, result in suite.queries.items():
        add(qid, result)
    return records


def format_csv(suite: SuiteResult) -> str:
    """The suite as CSV (header + one row per cell)."""
    lines = ["table,system,class,scale,seconds,correct"]
    for record in suite_records(suite):
        seconds = "" if record["seconds"] is None \
            else f"{record['seconds']:.6f}"
        correct = "" if record["correct"] is None \
            else str(record["correct"]).lower()
        lines.append(f"{record['table']},{record['system']},"
                     f"{record['class']},{record['scale']},"
                     f"{seconds},{correct}")
    return "\n".join(lines)


def format_json(suite: SuiteResult) -> str:
    """The suite as a JSON array of cell records."""
    import json
    return json.dumps(suite_records(suite), indent=2)


def shape_summary(suite: SuiteResult) -> list[str]:
    """Qualitative findings, stated like the paper's Section 3.2 prose.

    Returns human-readable statements about who wins where, computed from
    the measured cells — used by EXPERIMENTS.md and by the sanity tests
    that assert the paper's shapes hold.
    """
    statements = []
    load = suite.load

    def seconds(row: str, class_key: str, scale: str) -> float | None:
        cell = load.cells.get((row, class_key, scale))
        return None if cell is None else cell.seconds

    for class_key in CLASS_ORDER:
        native = seconds("X-Hive", class_key, "large")
        shredded = seconds("SQL Server", class_key, "large")
        if native is not None and shredded is not None:
            who = "native" if native < shredded else "relational"
            statements.append(
                f"bulk load {class_key} large: {who} faster "
                f"({native:.3f}s vs {shredded:.3f}s)")
    return statements
