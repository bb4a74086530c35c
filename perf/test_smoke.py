"""Smoke tests of the benchmark itself: `pytest perf/` (not part of the
tier-1 suite).  They run the real command at tiny sizes."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
TMP_MARK = f"TMPDIR={PERF / 'out' / 'tmp'}".encode()


def ours() -> dict[int, str]:
    """Live processes started by a benchmark run: every child, server
    and worker inherits a TMPDIR under perf/out/tmp."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
            state = Path(f"/proc/{entry}/stat").read_text() \
                .rsplit(")", 1)[1].split()[0]
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if TMP_MARK in environ and state != "Z":
            found[int(entry)] = cmdline.replace(b"\0", b" ").decode()
    return found


def leftovers(shm_before: set[str]) -> list[str]:
    left = [f"process {pid}: {cmd}" for pid, cmd in ours().items()]
    left += [f"/dev/shm/{name}"
             for name in set(os.listdir("/dev/shm")) - shm_before]
    if (PERF / "out" / "tmp").exists():
        left.append("perf/out/tmp")
    return left


def test_smoke_prints_every_metric_and_leaves_nothing():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shm_before = set(os.listdir("/dev/shm"))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--smoke", "--traced"], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 60, f"smoke took {elapsed:.0f} s"
    printed = {(fields[0], fields[1]): fields[2:]
               for fields in map(str.split, proc.stdout.splitlines())
               if len(fields) >= 4}
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            value, unit = printed[workload["name"], metric["name"]][:2]
            assert unit == metric["unit"], (workload, metric, unit)
            float(value)
        assert float(printed[workload["name"], "failed_pct"][0]) == 0.0
    for workload in spec["workloads"]:
        trace = PERF / "out" / f"trace_{workload['name']}.ndjson"
        kinds = {json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()}
        assert {"span", "counters"} <= kinds
    assert leftovers(shm_before) == []


@pytest.mark.parametrize("how", ["child-killed", "interrupted", "terminated"])
def test_aborted_run_leaves_nothing(how):
    """Abort a serving workload while its server and shard workers are
    up — by killing the workload child outright, or by interrupting or
    terminating the runner — and check that the runner's sweep leaves nothing behind."""
    shm_before = set(os.listdir("/dev/shm"))
    runner = subprocess.Popen(
        [sys.executable, "perf/run.py", "--smoke", "--workload",
         "serve_rw_durable", "--seconds", "30"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            mine = ours()
            servers = [pid for pid, cmd in mine.items() if " serve " in cmd]
            children = [pid for pid, cmd in mine.items()
                        if "child.py" in cmd]
            if len(servers) >= 3 and children:      # server + 2 workers
                break
            time.sleep(0.05)
        else:
            pytest.fail("the serving workload never came up")
        time.sleep(0.5)
        if how == "child-killed":
            os.kill(children[0], signal.SIGKILL)
        else:
            runner.send_signal(signal.SIGINT if how == "interrupted"
                               else signal.SIGTERM)
        stdout, stderr = runner.communicate(timeout=60)
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()
    assert runner.returncode != 0
    assert not stdout.strip().endswith("}"), "an aborted run printed a result"
    assert "cleaned up: process" in stderr
    assert leftovers(shm_before) == []
