"""The repository's benchmark: four workloads, the end-to-end and
per-layer metrics named in BENCHMARK.json, one command.

    python3 perf/run.py                      every workload, end to end
    python3 perf/run.py --traced             ... and the traced runs
    python3 perf/run.py --workload serve_read --seed 7 --seconds 20 --trace 0
    python3 perf/run.py --smoke --traced     all of it at tiny sizes
    python3 perf/run.py --record perf/out/x.json --runs 10
    python3 perf/run.py --compare perf/out/baseline_A.json perf/out/baseline_B.json

Each workload pass runs in a child process of its own.  The runner
adopts orphans (it is a child subreaper), and before it exits it looks
for any surviving descendant, /dev/shm segment or temp directory of the
run, removes it and exits non-zero naming it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (CLASSES, DEFAULT_SEED, OUT, PERF, descendants, describe,
                    load_benchmark_json, require_repo)

NATIVE = [["native", key] for key in CLASSES]
RELATIONAL = ([[engine, key] for engine in ("xcolumn", "xcollection")
               for key in ("dcmd", "tcmd")]
              + [["sqlserver", key] for key in CLASSES])
SERVE_READ = {"engine": "xcolumn", "shards": 0, "executors": 1,
              "resource_sampling": False, "durable": False,
              "updates": False, "checkpoint_interval": 0}
SERVE_RW = {"engine": "native", "shards": 2, "executors": 2,
            "resource_sampling": True, "durable": True, "updates": True,
            "checkpoint_interval": 5}

#: sizes: ~3 MB of XML text per class for the tables, 200 orders served.
#: The open-loop rates are constants, about a quarter of what the closed
#: loop reaches on the 2-core reference box.
PROFILES = {
    "full": {
        "units": {"dcsd": 2000, "dcmd": 1800, "tcsd": 2000, "tcmd": 600},
        "tables": {"tables_native": {"cells": NATIVE, "repeats": 5},
                   "tables_relational": {"cells": RELATIONAL,
                                         "repeats": 10}},
        "serve": {"units": 200, "setups": 8, "warmup": 1.0, "pings": 200},
        "rates": {"serve_read": 500, "serve_rw_durable": 70},
        "setups": 3,
        "probes": {"units": 200, "rows": 20000, "appends": 1000,
                   "calls": 2000, "updates": 100},
    },
    "smoke": {
        "units": {"dcsd": 60, "dcmd": 60, "tcsd": 60, "tcmd": 30},
        "tables": {"tables_native": {"cells": NATIVE, "repeats": 2},
                   "tables_relational": {"cells": RELATIONAL,
                                         "repeats": 2}},
        "serve": {"units": 40, "setups": 1, "warmup": 0.2, "pings": 50},
        "rates": {"serve_read": 200, "serve_rw_durable": 60},
        "setups": 1,
        "probes": {"units": 40, "rows": 2000, "appends": 100,
                   "calls": 300, "updates": 20},
    },
}
SERVE = {"serve_read": SERVE_READ, "serve_rw_durable": SERVE_RW}
WORKLOADS = ("tables_native", "tables_relational", "serve_read",
             "serve_rw_durable")
#: what one smoke-sized filler pass measures, in seconds.
FILLER_SECONDS = 1.0


class Failure(Exception):
    """A child that crashed, hung or printed no result."""


class Runner:
    """Owns the children, the temp directory and the final sweep."""

    def __init__(self) -> None:
        self.tmp = OUT / "tmp" / f"run-{os.getpid()}"
        self.shm_before = _own_shm()
        #: when the run in progress must have ended (the contract gives
        #: one run 180 s); reset at the start of each run.
        self.deadline = time.monotonic() + 170.0
        # PR_SET_CHILD_SUBREAPER: a server orphaned by a dying child is
        # re-parented to this process, not init, so the sweep finds it.
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)

    def child_run(self, kind: str, cfg: dict) -> dict:
        """One pass in a child process of its own; returns its result."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        cfg = dict(cfg, tmp=str(self.tmp / f"{kind}-{time.monotonic_ns()}"))
        env = dict(os.environ, TMPDIR=str(self.tmp))
        child = subprocess.Popen(
            [sys.executable, str(PERF / "child.py"), kind, json.dumps(cfg)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
            start_new_session=True, text=True)
        try:
            stdout, __ = child.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise Failure(f"{kind} child ran past the run's 170 s") from None
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        lines = stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise Failure(f"{kind} child exited with code "
                          f"{child.returncode} and no result")
        return json.loads(lines[-1])

    def sweep(self, grace: float) -> list[str]:
        """Wait up to ``grace`` seconds for descendants to end, kill
        what remains, remove stray /dev/shm segments and the temp
        directory; returns what had to be cleaned up."""
        deadline = time.monotonic() + grace
        while True:
            _reap()
            alive = descendants(os.getpid())
            if not alive or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        leaks = [f"process {describe(pid)}" for pid in alive]
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        until = time.monotonic() + 5.0
        while descendants(os.getpid()) and time.monotonic() < until:
            _reap()
            time.sleep(0.02)
        _reap()
        for name in sorted(_own_shm() - self.shm_before):
            leaks.append(f"/dev/shm/{name}")
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass
        if self.tmp.exists():
            left = [str(path) for path in self.tmp.iterdir()]
            leaks.extend(f"temp directory {path}" for path in left)
            shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (OUT / "tmp").rmdir()
        except OSError:
            pass
        return leaks


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def _own_shm() -> set[str]:
    """This user's segments in /dev/shm (where ``ShardedEngine`` puts
    its corpus transport)."""
    found = set()
    try:
        for entry in os.scandir("/dev/shm"):
            if entry.stat(follow_symlinks=False).st_uid == os.geteuid():
                found.add(entry.name)
    except OSError:
        pass
    return found


# -- passes ---------------------------------------------------------------------

def pass_config(workload: str, profile: str, seed: int, seconds: float,
                **overrides) -> tuple[str, dict]:
    """The child kind and configuration of one pass of ``workload``."""
    sizes = PROFILES[profile]
    if workload in sizes["tables"]:
        cfg = dict(sizes["tables"][workload], units=sizes["units"],
                   setups=sizes["setups"], profile=profile, seed=seed,
                   seconds=seconds, traced=False, verify=True)
        kind = "tables"
    else:
        cfg = dict(SERVE[workload], **sizes["serve"], seed=seed,
                   seconds=seconds, traced=False, open_seconds=0.0,
                   rate=sizes["rates"][workload],
                   crash=SERVE[workload]["durable"],
                   connections=min(2, os.cpu_count() or 1))
        kind = "serve"
    # One set of overrides serves both kinds (the traced run's fillers
    # are of both): each kind takes the keys it has.
    cfg.update({key: value for key, value in overrides.items()
                if key in cfg})
    return kind, cfg


def end_to_end(runner: Runner, workload: str, profile: str, seed: int,
               seconds: float) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    runner.deadline = time.monotonic() + 170.0
    return runner.child_run(*pass_config(workload, profile, seed, seconds))


def traced(runner: Runner, workload: str, profile: str, seed: int,
           seconds: float) -> dict:
    """The traced run: every per-layer metric.

    Probes and smoke-sized passes of the other workloads give each
    layer a value; then this workload runs twice at a quarter of the
    window, untraced and traced, and what it measures itself overrides
    the rest.  The two passes also give the tracing overhead."""
    runner.deadline = time.monotonic() + 170.0
    layers: dict = {}
    samples: dict = {}
    attempted = failed = 0
    problems: list[str] = []

    def absorb(result: dict) -> dict:
        nonlocal attempted, failed
        layers.update(result["layers"])
        samples.update(result.get("samples", {}))
        attempted += result["attempted"]
        failed += result["failed"]
        problems.extend(result["problems"])
        return result

    absorb(runner.child_run("probes", PROFILES[profile]["probes"]))
    # Relational before native: both count the evaluator's nodes, and
    # the native pass is the one the xquery.* figures should come from.
    for filler in ("tables_relational", "tables_native",
                   "serve_rw_durable"):
        if filler != workload:
            absorb(runner.child_run(*pass_config(
                filler, "smoke", DEFAULT_SEED, FILLER_SECONDS, traced=True,
                setups=1, open_seconds=FILLER_SECONDS, crash=False)))
    share = seconds / 4
    base = absorb(runner.child_run(*pass_config(
        workload, profile, seed, share, setups=1, open_seconds=share,
        verify=False)))
    shown = absorb(runner.child_run(*pass_config(
        workload, profile, seed, share, traced=True, setups=1,
        crash=False)))
    if workload in SERVE:
        slower = (base["metrics"]["throughput_qps"]
                  / shown["metrics"]["throughput_qps"])
    else:
        slower = (shown["metrics"]["query_warm_ms"]
                  / base["metrics"]["query_warm_ms"])
    layers["obs.overhead_pct"] = 100 * (slower - 1)

    OUT.mkdir(exist_ok=True)
    with (OUT / f"trace_{workload}.ndjson").open("w") as handle:
        for record in shown["spans"]:
            handle.write(json.dumps(dict(record, kind="span")) + "\n")
        for record in shown.get("server_spans", ()):
            handle.write(json.dumps(dict(record, kind="server_span")) + "\n")
        handle.write(json.dumps({"kind": "counters",
                                 "counters": shown["counters"]}) + "\n")
    return {"metrics": layers, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": samples}


# -- reporting ------------------------------------------------------------------

def report(workload: str, result: dict, declared: list[dict]) -> dict:
    """Print every declared metric by name with its unit and return the
    result line of the contract; a declared metric the run did not
    produce is a failure."""
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in result["metrics"]:
            result["failed"] += 1
            result["problems"].append(f"metric {name} was not measured")
            continue
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
        count = result["samples"].get(name)
        print(f"{workload:<18} {name:<34} {value:>14.4f} {spec['unit']:<6}"
              + (f" n={count}" if count else ""))
    for problem in result["problems"]:
        print(f"{workload}: PROBLEM: {problem}")
    share = 100.0 * result["failed"] / max(result["attempted"], 1)
    print(f"{workload:<18} {'failed_pct':<34} {share:>14.4f} %      "
          f"({result['failed']} of {result['attempted']})")
    return {"correct": result["failed"] == 0,
            "attempted": max(result["attempted"], 1),
            "failed": result["failed"], "metrics": metrics}


def record(runner: Runner, path: Path, runs: int, first_seed: int,
           profile: str, seconds: float, spec: dict) -> bool:
    """``runs`` end-to-end runs of every workload, each with another
    seed, written as one set for ``--compare``."""
    sets: dict = {name: [] for name in WORKLOADS}
    good = True
    for n in range(runs):
        for name in WORKLOADS:
            started = time.monotonic()
            result = end_to_end(runner, name, profile, first_seed + n,
                                seconds)
            line = report(name, result, spec["end_to_end"])
            good &= line["correct"]
            sets[name].append({
                "seed": first_seed + n, "failed": line["failed"],
                "wall_s": round(time.monotonic() - started, 1),
                "metrics": {key: cell["value"]
                            for key, cell in line["metrics"].items()}})
    path.write_text(json.dumps(
        {"seconds": seconds, "profile": profile, "cpu_count": os.cpu_count(),
         "runs": sets}, indent=1) + "\n")
    return good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) "
                             "instead of the end-to-end run")
    parser.add_argument("--traced", action="store_true",
                        help="both runs: end to end, then traced")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for perf/test_smoke.py")
    parser.add_argument("--record", type=Path, metavar="FILE",
                        help="write --runs end-to-end runs per workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("A", "B"))
    parser.add_argument("--pin", action="store_true",
                        help="rewrite golden.json and expected_stars.json "
                             "from this tree (after a deliberate change)")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    require_repo()
    spec = load_benchmark_json()
    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (
        2.0 if args.smoke else float(spec["run_seconds"]))
    runner = Runner()
    # A terminated runner must sweep like an interrupted one.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        good, line = execute(args, runner, spec, profile, seconds)
    except BaseException as exc:
        # A crashed child, an interrupt or a bug in the runner: nothing
        # is waited for, everything left is killed and named.
        for leak in runner.sweep(0.0):
            print(f"perf: cleaned up: {leak}", file=sys.stderr)
        if isinstance(exc, (Failure, KeyboardInterrupt)):
            print(f"perf: aborted: {exc!r}", file=sys.stderr)
            return 130 if isinstance(exc, KeyboardInterrupt) else 1
        raise
    leaks = runner.sweep(5.0)
    for leak in leaks:
        print(f"perf: LEAK: {leak}", file=sys.stderr)
    if leaks:
        return 3
    if line is not None:
        print(json.dumps(line))
    return 0 if good else 1


def execute(args, runner: Runner, spec: dict, profile: str,
            seconds: float) -> tuple[bool, dict | None]:
    """Run what the arguments ask for; returns whether every output was
    correct and, for a single run of one workload, its result line."""
    if args.pin:
        import pin
        return pin.main(runner), None
    if args.record:
        return record(runner, args.record, args.runs, args.seed, profile,
                      seconds, spec), None
    lines = []
    for name in [args.workload] if args.workload else WORKLOADS:
        if args.traced or not args.trace:
            lines.append(report(name, end_to_end(
                runner, name, profile, args.seed, seconds),
                spec["end_to_end"]))
        if args.traced or args.trace:
            lines.append(report(name, traced(
                runner, name, profile, args.seed, seconds),
                spec["per_layer"]))
    return (all(line["correct"] for line in lines),
            lines[0] if len(lines) == 1 else None)


if __name__ == "__main__":
    raise SystemExit(main())
