"""The two serving workloads: a `repro serve` subprocess driven by the
benchmark's own closed and open loops over ``ServingClient``.

The loops live here, not in ``repro.loadgen.driver``, so reads and
updates are timed apart and an edit to the repository's own load driver
cannot change the measurement.  Every server runs in its own session
and is stopped in a ``finally``; the deliberate crash kills the whole
process group, so fork workers cannot orphan.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (QUERIES, SERVED_CLASS as CLASS_KEY, SRC, Spans,
                    cpu_seconds, descendants, geomean, group_members,
                    load_indexed, make_corpus, median, peak_rss_mb,
                    percentile, shm_segments, tree_bytes)

#: distinct order ids the request mix draws from.
ID_POOL = 32


def cpu_split() -> tuple[set[int], set[int]] | None:
    """(server CPUs, client CPU): the load generator gets the last CPU
    and the server's process tree the others, so the two never compete
    and the scheduler cannot place them differently from run to run
    (unpinned, closed-loop throughput on the 2-core reference box
    swung between 1150 and 1720 ops/s; pinned, 2035 to 2231).  None on
    a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


class Server:
    """One `repro serve` subprocess, leader of its own process group."""

    def __init__(self, cfg: dict, tmp: Path, tag: str,
                 data_dir: Path | None, trace_path: Path | None) -> None:
        self.args = [sys.executable, "-m", "repro", "serve", "--port", "0",
                     "--engine", cfg["engine"], "--class", CLASS_KEY,
                     "--units", str(cfg["units"]),
                     "--executors", str(cfg["executors"])]
        if cfg["shards"]:
            self.args += ["--shards", str(cfg["shards"])]
        if not cfg["resource_sampling"]:
            self.args.append("--no-resource-sampling")
        if data_dir is not None:
            self.args += ["--data-dir", str(data_dir), "--fsync", "always",
                          "--checkpoint-interval",
                          str(cfg["checkpoint_interval"])]
        if trace_path is not None:
            self.args += ["--trace-spans", str(trace_path)]
        self.log = tmp / f"server-{tag}.log"
        self.tmp = tmp
        self.cpus = cfg["server_cpus"]
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``listening on``; returns the seconds."""
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.tmp))
        start = time.perf_counter()
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                self.args, stdout=log, stderr=subprocess.STDOUT, env=env,
                stdin=subprocess.DEVNULL, start_new_session=True)
        if self.cpus is not None:
            # Set while the interpreter is still starting up; the
            # threads and fork workers it creates later inherit it.
            os.sched_setaffinity(self.proc.pid, self.cpus)
        while time.perf_counter() - start < 60.0:
            text = self.log.read_text(errors="replace")
            marker = text.find("listening on ")
            if marker >= 0 and "\n" in text[marker:]:
                address = text[marker:].split()[2]
                self.port = int(address.rsplit(":", 1)[1])
                return time.perf_counter() - start
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("repro serve did not start: "
                           + self.log.read_text(errors="replace")[-2000:])

    def pids(self) -> list[int]:
        return [self.proc.pid] + descendants(self.proc.pid)

    def stop(self, crash: bool = False) -> set[str]:
        """SIGTERM drain, bounded wait, then SIGKILL of the group (at
        once when ``crash``).  Returns the /dev/shm segments the group
        had mapped and left behind; they are removed here."""
        if self.proc is None:
            return set()
        segments = shm_segments(self.pids()) if self.proc.poll() is None \
            else set()
        try:
            if not crash and self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGTERM)
                try:
                    self.proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            deadline = time.perf_counter() + 5.0
            while group_members(self.proc.pid) \
                    and time.perf_counter() < deadline:
                time.sleep(0.005)
        left = {name for name in segments if os.path.exists(name)}
        for name in left:
            os.unlink(name)
        self.proc = None
        return left


class Ops:
    """What the loops record: one tuple per completed operation."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []     # kind, qid, latency, lag, exec, queue
        self.acked: list[tuple] = []    # seq, id, value
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(message)

    def latencies(self, kind: str, qid: str | None = None) -> list[float]:
        return [row[2] for row in self.rows
                if row[0] == kind and (qid is None or row[1] == qid)]


class Traffic:
    """The seeded request mix and its oracle: reads are the five
    experiment queries on ids from a seeded pool, and with ``updates``
    every read is followed by one acknowledged update."""

    def __init__(self, cfg: dict, spans: Spans) -> None:
        from repro.engines import create
        # `repro serve` generates its own corpus with this seed; the
        # oracle below must load the same one.
        from repro.server.server import CORPUS_SEED
        from repro.workload import bind_params
        self.seed, self.units = cfg["seed"], cfg["units"]
        self.updates = cfg["updates"]
        self.traced = cfg["traced"]
        self.spans = spans
        rng = random.Random(f"{self.seed}/ids")
        self.pool = [str(i) for i in rng.sample(
            range(1, self.units + 1), min(ID_POOL, self.units))]
        self.defaults = {qid: bind_params(qid, CLASS_KEY, self.units)
                         for qid in QUERIES}
        texts = make_corpus(CLASS_KEY, self.units, CORPUS_SEED)
        self.xml_bytes = sum(len(text.encode()) for __, text in texts)
        #: (qid, id) -> rows the single-process native engine returns.
        self.expected: dict[tuple, int] = {}
        with create("native") as engine:
            load_indexed(engine, CLASS_KEY, texts)
            for qid in QUERIES:
                for ident in self.pool + [self.defaults[qid]["id"]]:
                    key = (qid, ident if self._by_id(qid) else None)
                    if key not in self.expected:
                        self.expected[key] = len(engine.execute(
                            qid, self.params(qid, ident)))

    @staticmethod
    def _by_id(qid: str) -> bool:
        return qid in ("Q5", "Q8", "Q12")

    def params(self, qid: str, ident: str) -> dict:
        return dict(self.defaults[qid], id=ident)

    def plan(self, stream: str):
        """An endless seeded stream of ("read", qid, id) and
        ("update", token, id) operations."""
        rng = random.Random(f"{self.seed}/{stream}")
        n = 0
        while True:
            yield "read", rng.choice(QUERIES), rng.choice(self.pool)
            if self.updates:
                n += 1
                yield "update", f"t{self.seed}-{stream}-{n}", \
                    rng.choice(self.pool)

    def perform(self, client, op: tuple, op_id: str, ops: Ops,
                due: float | None = None) -> float | None:
        """Send one operation, check the reply, record the timing and
        return the latency (None when the operation failed).  ``due``
        is the scheduled send time of an open-loop request, which its
        latency is counted from."""
        kind, what, ident = op
        trace = {"trace_id": op_id} if self.traced else None
        sent = time.perf_counter()
        with self.spans.span(f"server.{kind}", op_id):
            if kind == "read":
                reply = client.query(what, self.params(what, ident),
                                     trace=trace)
            else:
                message = {"op": "update", "id": ident, "value": what}
                if trace is not None:
                    message["trace"] = trace
                reply = client.call(message)
        done = time.perf_counter()
        with ops.lock:
            ops.attempted += 1
        if not reply.get("ok"):
            ops.fail(f"{kind} {what}: {reply.get('error')}: "
                     f"{reply.get('message')}")
            return None
        if kind == "read":
            want = self.expected[what, ident if self._by_id(what) else None]
            if reply["rows"] != want:
                ops.fail(f"{what} id {ident}: {reply['rows']} rows, the "
                         f"native oracle has {want}")
                return None
        else:
            if reply["rows"] != 1 or not reply.get("seq"):
                ops.fail(f"update id {ident}: {reply}")
                return None
            ops.acked.append((reply["seq"], ident, what))
        start = sent if due is None else due
        ops.rows.append((kind, what if kind == "read" else None,
                         done - start, sent - start,
                         reply["seconds"], reply["queued_ms"] / 1000.0))
        return done - start


def closed_loop(port: int, traffic: Traffic, phase: str, seconds: float,
                connections: int) -> tuple[Ops, float]:
    """``connections`` clients, each sending its next request when the
    previous reply arrives, no think time.  Returns the operations
    completed and the window they completed in."""
    from repro.loadgen import ServingClient
    ops = Ops()
    start = time.perf_counter()
    end = start + seconds

    def work(index: int) -> None:
        plan = traffic.plan(f"{phase}{index}")
        with ServingClient(port=port) as client:
            client.hello()
            n = 0
            while time.perf_counter() < end:
                n += 1
                traffic.perform(client, next(plan),
                                f"{phase}{index}-{n}", ops)

    _run_threads(work, connections, ops)
    return ops, time.perf_counter() - start


def open_loop(port: int, traffic: Traffic, phase: str, seconds: float,
              rate: float, connections: int) -> Ops:
    """Seeded Poisson arrivals at a fixed ``rate`` over at most
    ``connections`` connections; each request is timed from its
    scheduled send time."""
    from repro.loadgen import ServingClient
    ops = Ops()
    rng = random.Random(f"{traffic.seed}/{phase}/arrivals")
    arrivals, at = [], rng.expovariate(rate)
    while at < seconds:
        arrivals.append(at)
        at += rng.expovariate(rate)
    plan = traffic.plan(phase)
    schedule = [(due, next(plan)) for due in arrivals]
    cursor = iter(enumerate(schedule))
    cursor_lock = threading.Lock()

    def work(index: int) -> None:
        with ServingClient(port=port) as client:
            client.hello()
            barrier.wait()
            while True:
                with cursor_lock:
                    k, (offset, op) = next(cursor, (None, (None, None)))
                if k is None:
                    return
                due = origin[0] + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                traffic.perform(client, op, f"{phase}-{k}", ops, due=due)

    origin = [0.0]

    def release() -> None:
        origin[0] = time.perf_counter()

    barrier = threading.Barrier(connections, action=release)
    _run_threads(work, connections, ops)
    return ops


def _run_threads(work, count: int, ops: Ops) -> None:
    def guarded(index: int) -> None:
        try:
            work(index)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            with ops.lock:
                ops.attempted += 1
            ops.fail(f"connection {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def verify_recovery(cfg: dict, data_dir: Path, acked: list[tuple],
                    ops: Ops) -> dict:
    """After the SIGKILL: recover the data directory in-process and read
    every acknowledged update back (the wire protocol returns row counts
    only, so values are read through the engine)."""
    from repro.core.shard import ShardedEngine
    spec_dir = data_dir / (f"{cfg['engine']}-{CLASS_KEY}-u{cfg['units']}"
                           f"-s{cfg['shards']}")
    final: dict[str, str] = {}
    for __, ident, value in sorted(acked):
        final[ident] = value
    engine = ShardedEngine(cfg["engine"], shards=cfg["shards"],
                           recover_dir=spec_dir, fsync="always")
    try:
        report = dict(engine.last_recovery_report)
        for ident, value in final.items():
            got = engine.adhoc(
                "collection()/order[@id = $id]//order_status",
                {"id": ident}).values
            ops.attempted += 1
            if len(got) != 1 or value not in got[0]:
                ops.fail(f"acknowledged update lost: id {ident} -> "
                         f"{value}, read back {got}")
    finally:
        engine.close()
    last_seq = max((seq for seq, __, __ in acked), default=0)
    ops.attempted += 1
    if report["committed_seq"] < last_seq:
        ops.fail(f"recovered to seq {report['committed_seq']}, below the "
                 f"acknowledged {last_seq}")
    return report


def run(cfg: dict) -> dict:
    from repro.loadgen import ServingClient

    tmp = Path(cfg["tmp"])
    split = cpu_split()
    cfg = dict(cfg, server_cpus=split[0] if split else None)
    if split:
        os.sched_setaffinity(0, split[1])
    spans = Spans(cfg["traced"])
    traffic = Traffic(cfg, spans)
    connections = cfg["connections"]
    check = Ops()
    trace_path = tmp / "server-spans.ndjson" if cfg["traced"] else None
    server = None
    leaked: set[str] = set()
    data_dir = None
    try:
        # Set-up, several times over: spawn until `listening on` (corpus
        # generation, engine load, shard fork, load-time checkpoint).
        # The first execution of each query on each fresh server is the
        # cold cell; the last server stays up for the measured phases.
        setup_s, cold = [], {qid: [] for qid in QUERIES}
        for n in range(cfg["setups"]):
            if server is not None:
                leaked |= server.stop()
            if cfg["durable"]:
                data_dir = tmp / f"data-{n}"
            server = Server(cfg, tmp, str(n), data_dir,
                            trace_path if n == cfg["setups"] - 1 else None)
            setup_s.append(server.start())
            with ServingClient(port=server.port) as client:
                client.hello()
                for qid in QUERIES:
                    ident = traffic.defaults[qid]["id"]
                    latency = traffic.perform(
                        client, ("read", qid, ident), f"cold{n}-{qid}",
                        check)
                    if latency is None:
                        raise RuntimeError(
                            f"cold {qid} failed: {check.problems}")
                    cold[qid].append(latency)

        closed_loop(server.port, traffic, "warm", cfg["warmup"], connections)
        tree = server.pids()
        cpu_server, cpu_client = cpu_seconds(tree), time.process_time()
        closed, window = closed_loop(server.port, traffic, "closed",
                                     cfg["seconds"], connections)
        cpu_server = cpu_seconds(tree) - cpu_server
        cpu_client = time.process_time() - cpu_client
        opened = None
        if cfg["open_seconds"]:
            opened = open_loop(server.port, traffic, "open",
                               cfg["open_seconds"], cfg["rate"], connections)
        with ServingClient(port=server.port) as client:
            pings = []
            for __ in range(cfg["pings"]):
                start = time.perf_counter()
                client.ping()
                pings.append(time.perf_counter() - start)
            stats = client.stats()
        rss = peak_rss_mb(server.pids())
        disk = tree_bytes(data_dir) if data_dir is not None else 0

        phases = [check, closed] + ([opened] if opened else [])
        acked = [entry for phase in phases for entry in phase.acked]
        recovery = None
        if cfg["crash"]:
            # The crash: SIGKILL the process group mid-life, recover the
            # directory, then restart the server on it and check that the
            # write sequence continues.  (A traced pass stops gracefully
            # instead: only a drained server writes its span log.)
            server.stop(crash=True)
            recovery = verify_recovery(cfg, data_dir, acked, check)
            server = Server(cfg, tmp, "restart", data_dir, None)
            server.start()
            with ServingClient(port=server.port) as client:
                client.hello()
                reply = client.update(traffic.pool[0], value="restarted")
            check.attempted += 1
            if not reply.get("ok") or \
                    reply.get("seq") != recovery["committed_seq"] + 1:
                check.fail(f"write after restart did not continue the "
                           f"sequence {recovery['committed_seq']}: {reply}")
            if "repro serve: recovered" not in server.log.read_text():
                check.fail("the restarted server did not announce a "
                           "recovery")
        leaked |= server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
    for name in leaked:
        check.fail(f"/dev/shm segment left after a graceful stop: {name}")
    for key in ("failed", "timeouts", "rejected", "unhandled"):
        if stats[key]:
            check.fail(f"server counted {stats[key]} {key} request(s)")

    done = len(closed.rows)
    layers = {
        "server.execute_ms_p50": 1000 * median(r[4] for r in closed.rows),
        "server.queue_ms_p50": 1000 * median(r[5] for r in closed.rows),
        "server.overhead_ms_p50": 1000 * median(
            r[2] - r[4] - r[5] for r in closed.rows),
        "server.cpu_ms_per_req": 1000 * cpu_server / done,
        "server.rejected": stats["rejected"],
        "server.timeouts": stats["timeouts"],
        "loadgen.client_cpu_ms_per_req": 1000 * cpu_client / done,
    }
    samples = {"setup_s": len(setup_s), "load_mb_s": len(setup_s),
               "query_cold_ms": len(setup_s),
               "query_warm_ms": len(closed.latencies("read")),
               "throughput_qps": done}
    if pings:
        layers["server.ping_rtt_us"] = 1e6 * median(pings)
    if opened is not None:
        lag = [row[3] for row in opened.rows]
        layers["loadgen.send_lag_ms_p99"] = 1000 * percentile(lag, 99)
        if 1000 * median(lag) > 1.0:
            check.fail(f"the open loop ran {1000 * median(lag):.2f} ms late "
                       "at the median: the run is invalid")
        for kind in ("read", "update") if cfg["updates"] else ("read",):
            latencies = opened.latencies(kind)
            for pct in (50, 95) + ((99,) if kind == "read" else ()):
                layers[f"loadgen.{kind}_p{pct}_ms"] = (
                    1000 * percentile(latencies, pct))
            samples[f"loadgen.{kind}_p50_ms"] = len(latencies)
    if recovery is not None:
        layers["wal.recovery_s"] = recovery["seconds"]
        if recovery["wal_records"]:
            layers["wal.replay_records_per_s"] = (
                recovery["wal_records"] / recovery["seconds"])
        if acked:
            layers["wal.bytes_per_update"] = disk / len(acked)
    server_spans = []
    if trace_path is not None and trace_path.exists():
        from repro.obs import read_ndjson
        from repro.obs.trace import assemble, attribution_table
        server_spans = read_ndjson(trace_path)
        table = attribution_table(assemble(server_spans))
        if table["requests"]:
            layers["shard.merge_ms"] = table["buckets"]["merge"]["mean_ms"]
            layers["shard.pipe_ms"] = table["buckets"]["pipe"]["mean_ms"]
    return {
        "metrics": {
            "setup_s": median(setup_s),
            "load_mb_s": traffic.xml_bytes / 1e6 / median(setup_s),
            "query_cold_ms": 1000 * geomean(
                median(v) for v in cold.values()),
            "query_warm_ms": 1000 * geomean(
                median(closed.latencies("read", qid)) for qid in QUERIES),
            "throughput_qps": done / window,
            "peak_rss_mb": rss,
        },
        "samples": samples, "layers": layers,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "problems": [p for phase in phases for p in phase.problems],
        "spans": spans.records, "server_spans": server_spans,
        "counters": {},
    }
