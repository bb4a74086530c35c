"""Helpers shared by the benchmark runner and its workload children:
repo location, statistics, ``/proc`` readers and the span log."""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"

#: the five queries of the paper's Tables 5-9.
QUERIES = ("Q5", "Q8", "Q12", "Q14", "Q17")
CLASSES = ("dcsd", "dcmd", "tcsd", "tcmd")
#: the class `repro serve` serves in both serving workloads.
SERVED_CLASS = "dcmd"
#: the seed whose result digests are pinned in golden.json.
DEFAULT_SEED = 42


def require_repo() -> None:
    """Put ``src/`` on the import path, or exit 2 when the program
    under test is not there (the benchmark measures it, it is not it)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: {SRC / 'repro'} not found: the benchmark must run "
              "from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def make_corpus(class_key: str, units: int, seed: int) -> list[tuple]:
    """Generate one class's documents and serialise them: the
    ``(name, xml text)`` pairs every engine bulk-loads."""
    from repro.databases import CLASSES_BY_KEY
    from repro.xml.serializer import serialize
    return [(doc.name, serialize(doc)) for doc in
            CLASSES_BY_KEY[class_key].generate(units, seed=seed)]


def load_indexed(engine, class_key: str, texts):
    """Bulk-load ``texts`` and create the class's Table 3 indexes;
    returns the load's ``LoadStats``."""
    from repro.core.indexes import indexes_for
    from repro.databases import CLASSES_BY_KEY
    stats = engine.timed_load(CLASSES_BY_KEY[class_key], texts)
    engine.create_indexes(list(indexes_for(class_key)))
    return stats


# -- statistics ---------------------------------------------------------------

median = statistics.median


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median — the
    steadiness figure the bounds in BENCHMARK.json are set from."""
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# -- /proc ----------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (index 0 is
    the state, 1 the parent pid), or None when the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def descendants(root: int) -> list[int]:
    """Live processes below ``root`` (zombies excluded), found by
    walking parent pids in /proc."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                parents[int(entry)] = int(fields[1])
    found: list[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def group_members(pgid: int) -> list[int]:
    """Live processes (zombies excluded) of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z" \
                    and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


def describe(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return f"{pid} (gone)"
    command = raw.replace(b"\0", b" ").decode(errors="replace").strip()
    return f"{pid} ({command})"


def cpu_seconds(pids) -> float:
    """utime + stime summed over ``pids``."""
    total = 0.0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb(pids) -> float:
    """``VmHWM`` summed over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def shm_segments(pids) -> set[str]:
    """Names of the /dev/shm segments mapped by ``pids``."""
    names: set[str] = set()
    for pid in pids:
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        for line in maps.splitlines():
            path = line.split(None, 5)[-1]
            if path.startswith("/dev/shm/"):
                names.add(path.removesuffix(" (deleted)"))
    return names


def tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


# -- the benchmark's own spans --------------------------------------------------

class Spans:
    """Spans recorded around each call the benchmark makes into a
    layer: name, start, end, parent and one id per operation.  Kept in
    memory (a no-op when disabled) and written out by the runner."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str, op: str, parent: str | None = None):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append({"name": name, "op": op, "parent": parent,
                                 "start": start,
                                 "end": time.perf_counter()})
