"""The ``service-mixed`` workload: a closed loop against ``pckpt serve``.

The benchmark, as one tenant, submits specs to a ``pckpt serve --jobs 1``
subprocess and waits on each job's NDJSON event stream for its terminal
event before sending the next.  A cold spec is one column of Fig. 6: one
app under all five models, one replication, a fresh seed.  A round is
three cold specs, one warm re-submission of a spec already finished, and
the planted fault: a fixed spec whose store entry set-up truncates.
``ResultStore.get`` reads it with ``json.loads`` and catches only
``FileNotFoundError``, so today that job fails every time: every round
attempts 5 jobs, of which exactly one fails.  Once a torn entry is read
as a miss, the job succeeds and its result is checked like a cold one.
"""

from __future__ import annotations

import json
import os
import random
import re
import secrets
import shutil
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import layers
from stats import (NoTrace, SpanRecorder, Tally, describe, median_or_zero,
                   percentile)

#: One job thread.  With two, a job's results occasionally differed
#: from an in-process ``run_spec`` of the same spec (see CHANGES.md).
SERVER_JOBS = 1
MODELS = ("B", "M1", "M2", "P1", "P2")
APPS = ("GYRO", "XGC")
#: Rounds on each side (untraced, traced) of a traced run.
TRACE_ROUNDS = 3

#: The planted fault: this spec never depends on ``--seed``.
POISON_DOC = {"schema_version": 1, "name": "planted-truncated-entry",
              "apps": ["GYRO"], "models": ["P2"], "include_base": False,
              "replications": 1, "seed": 424242}
TRUNCATE_TO = 40


def cold_doc(seed: int, app: str) -> dict:
    return {"schema_version": 1, "name": f"svc-{app}-{seed}",
            "apps": [app], "models": list(MODELS), "include_base": False,
            "replications": 1, "seed": seed}


def round_plan(seed: int, index: int) -> List[tuple]:
    """The round's ``(kind, doc)`` jobs in submission order."""
    rng = random.Random(seed * 7919 + index)
    cold = []
    for k in range(3):
        app = APPS[(3 * index + k) % len(APPS)]
        job_seed = (seed * 100_003 + index * 8 + k) % (2 ** 31)
        cold.append(cold_doc(job_seed, app))
    return [("cold", cold[0]), ("cold", cold[1]),
            ("warm", rng.choice(cold[:2])), ("cold", cold[2]),
            ("poison", POISON_DOC)]


def src_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Server:
    """A ``pckpt serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, store: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
             "--jobs", str(SERVER_JOBS), "--port", "0"],
            cwd=str(root), env=src_env(root), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.log: List[str] = []
        ready = threading.Event()
        self.port: Optional[int] = None
        self.client = None
        self.peak_rss_kib: Optional[int] = None

        def drain() -> None:
            for line in self.proc.stderr:
                self.log.append(line)
                found = re.search(r"http://[^:]+:(\d+)", line)
                if found and self.port is None:
                    self.port = int(found.group(1))
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        ready.wait(120)
        if self.port is None:
            self.stop()
            raise RuntimeError("pckpt serve did not start: "
                               + "".join(self.log[-20:]))
        from repro.service.client import ServiceClient

        self.client = ServiceClient(port=self.port, timeout=120.0)
        try:
            self.client.wait_ready(timeout=60)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Graceful drain when the service answers, SIGTERM otherwise.

        The server is reaped with ``wait4``, which also gives its peak
        resident set in KiB (``peak_rss_kib``; ``None`` if something
        else reaped it first).
        """
        if self.proc.returncode is None:
            try:
                if self.client is None:
                    raise OSError("service never became reachable")
                self.client.shutdown()
            except (OSError, RuntimeError):
                self.proc.terminate()
            if not self._reap(60):
                self.proc.kill()
                self._reap(None)
        self._reader.join(timeout=30)

    def _reap(self, timeout: Optional[float]) -> bool:
        """Wait up to *timeout* seconds (``None``: for ever) for the exit."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.proc.returncode is None:
            pid, status, usage = os.wait4(
                self.proc.pid, 0 if deadline is None else os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_kib = usage.ru_maxrss
            elif time.monotonic() >= deadline:
                return False
            else:
                time.sleep(0.05)
        return True


def set_up(root: Path, store: Path) -> Server:
    """Fresh store, server start, warm-up job, then the planted fault.

    The warm-up job computes the fixed spec, paying the server's lazy
    imports; its stored cell is then truncated so that every later
    submission of the spec reads a torn entry.
    """
    from repro.spec import cell_keys, spec_from_dict

    if store.exists():
        shutil.rmtree(store)
    server = Server(root, store)
    try:
        job = server.client.submit(POISON_DOC)["job"]
        terminal = wait_terminal(server.client, job["id"])
        if terminal["event"] != "done":
            raise RuntimeError(f"warm-up job failed: {terminal}")
        (key,) = cell_keys(spec_from_dict(POISON_DOC))
        entry = store / key[:2] / f"{key}.json"
        entry.write_bytes(entry.read_bytes()[:TRUNCATE_TO])
    except BaseException:
        server.stop()
        raise
    return server


def wait_terminal(client, job_id: str) -> dict:
    """Follow the job's event stream to its terminal event."""
    with closing(client.events(job_id)) as stream:
        for event in stream:
            if event["event"] in ("done", "failed"):
                return event
    raise RuntimeError(f"event stream of {job_id} ended without a terminal event")


@dataclass
class Sample:
    kind: str
    doc: dict
    latency_s: float
    submit_s: float
    state: str
    job_id: str
    deduped: bool
    data: Optional[dict]
    event_ts: float
    seen_at: float
    fetch_s: float = 0.0
    payload: Optional[dict] = None
    trace_id: Optional[str] = None


@dataclass
class Run:
    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0
    rounds: int = 0


def client_loop(client, jobs: List[tuple], out: List[Sample], trace) -> None:
    traced = isinstance(trace, SpanRecorder)
    for kind, doc in jobs:
        # A traced request names its own trace, so the server's spans
        # for the job parent to this client's.
        header = (f"{secrets.token_hex(16)}-{secrets.token_hex(8)}"
                  if traced else None)
        t0 = time.perf_counter()
        with trace.span("service", "submit"):
            reply = client.submit(doc, trace=header)
        t1 = time.perf_counter()
        job = reply["job"]
        with trace.span("service", "wait"):
            terminal = wait_terminal(client, job["id"])
        t2 = time.perf_counter()
        sample = Sample(kind, doc, t2 - t0, t1 - t0, terminal["event"],
                        job["id"], bool(reply["deduped"]), terminal["data"],
                        terminal["ts"], time.time(), trace_id=job["trace_id"])
        if sample.state == "done":
            t3 = time.perf_counter()
            with trace.span("service", "result"):
                sample.payload = client.result(job["id"])
            sample.fetch_s = time.perf_counter() - t3
        out.append(sample)


def run_round(server: Server, seed: int, index: int, run: Run,
              trace=NoTrace()) -> None:
    t0 = time.perf_counter()
    with trace.region():
        client_loop(server.client, round_plan(seed, index), run.samples, trace)
    run.wall_s += time.perf_counter() - t0
    run.rounds += 1


def account(run: Run, tally: Tally, problems: List[str]) -> None:
    """Tally jobs and check what the service returned."""
    payloads: Dict[str, dict] = {}
    for s in run.samples:
        if s.state == "done":
            tally.ok()
        else:
            error = (s.data or {}).get("error", "?")
            tally.fail(f"{s.kind}:{error.split(':')[0]}")
            if s.kind != "poison" or not error.startswith("JSONDecodeError"):
                problems.append(f"job {s.job_id} ({s.kind}) failed: {error}")
            continue
        if s.kind == "poison":
            continue  # checked against an in-process run by sample_check
        cells = [c["result"] for c in s.payload["cells"]]
        name = s.doc["name"]
        if s.kind == "cold":
            payloads[name] = cells
        elif payloads.get(name) != cells:
            problems.append(f"warm job {s.job_id} result differs from its cold run")
        if s.kind == "warm" and s.data["replications_executed"] != 0:
            problems.append(f"warm job {s.job_id} executed "
                            f"{s.data['replications_executed']} replications")


def sample_check(run: Run, store: Optional[Path] = None) -> List[str]:
    """Recompute one cold job per app, and the planted job if it
    succeeded, in-process and compare.

    With *store*, each document runs twice against it, cold then cached,
    the way the service runs a cold job and its warm re-submission.
    """
    from repro.campaign.store import ResultStore, result_to_dict
    from repro.spec import run_spec, spec_from_dict

    if store is not None and store.exists():
        shutil.rmtree(store)
    picks = []
    for app in APPS:
        cold = [s for s in run.samples if s.kind == "cold"
                and s.state == "done" and s.doc["apps"] == [app]]
        if cold:
            picks.append(cold[len(cold) // 2])
    picks += [s for s in run.samples
              if s.kind == "poison" and s.state == "done"][:1]
    problems = []
    for s in picks:
        spec = spec_from_dict(s.doc)
        for _ in range(1 if store is None else 2):
            local = run_spec(spec, workers=1,
                             store=None if store is None else ResultStore(store))
            if [result_to_dict(r) for r in local.values()] != \
                    [c["result"] for c in s.payload["cells"]]:
                problems.append(f"job {s.job_id} ({s.kind}): service result "
                                f"differs from an in-process run_spec")
    return problems


def end_to_end(run: Run) -> Dict[str, tuple]:
    cold = [s.latency_s for s in run.samples if s.kind == "cold" and s.state == "done"]
    warm = [s.latency_s for s in run.samples if s.kind == "warm" and s.state == "done"]
    done = sum(1 for s in run.samples if s.state == "done")
    print(describe("cold job_s", cold), file=sys.stderr)
    print(describe("warm job_s", warm), file=sys.stderr)
    print(describe("submit_s", [s.submit_s for s in run.samples]),
          file=sys.stderr)
    return {
        "throughput_per_s": (done / run.wall_s, "1/s"),
        "latency_p50_s": (percentile(cold, 50), "s"),
    }


def measure(root: Path, seed: int, seconds: float, workdir: Path,
            tally: Tally, problems: List[str]) -> Dict[str, tuple]:
    """Untraced run: whole rounds until *seconds* have been measured.

    ``peak_rss_mb`` is the server's own peak: the benchmark process is
    only the client here, and the checks run in it afterwards.
    """
    server = set_up(root, workdir / "store")
    run = Run()
    try:
        while run.wall_s < seconds:
            run_round(server, seed, run.rounds, run)
    finally:
        server.stop()
    if server.peak_rss_kib is None:
        raise RuntimeError("the server's peak RSS was not read")
    account(run, tally, problems)
    problems += sample_check(run)
    metrics = end_to_end(run)
    metrics["peak_rss_mb"] = (server.peak_rss_kib / 1024.0, "MB")
    return metrics


def read_server_spans(store: Path, samples: List[Sample]) -> List[dict]:
    """The spans the service wrote for these jobs (request, queue.wait,
    execute, campaign.run, kernel.run), from its trace fragments."""
    from repro.obs.context import trace_fragment_dir

    spans = []
    for s in samples:
        frag_dir = trace_fragment_dir(store, s.trace_id)
        for path in sorted(frag_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a torn tail line
                record["job_kind"] = s.kind
                spans.append(record)
    return spans


def trace_run(root: Path, seed: int, workdir: Path, tally: Tally,
              problems: List[str]):
    """Untraced rounds, as many traced rounds, then in-process replays.

    The traced rounds use the next round seeds, so their specs are cold
    too.
    """
    from repro.spec import build_cells, spec_from_dict, spec_hash

    server = set_up(root, workdir / "store")
    plain, traced = Run(), Run()
    rec = SpanRecorder()
    try:
        for index in range(TRACE_ROUNDS):
            run_round(server, seed, index, plain)
        rec.phase = "round"
        for index in range(TRACE_ROUNDS, 2 * TRACE_ROUNDS):
            run_round(server, seed, index, traced, trace=rec)
        rec.phase = ""
    finally:
        server.stop()
    server_spans = read_server_spans(workdir / "store", traced.samples)
    for run in (plain, traced):
        account(run, tally, problems)
    with rec.region():
        rec.phase = "replay"
        for s in traced.samples:
            with rec.span("spec", "load"):
                spec = spec_from_dict(s.doc)
            with rec.span("spec", "hash"):
                spec_hash(spec)
            with rec.span("spec", "build_cells"):
                build_cells(spec)
        with layers.model_side(rec):
            problems += sample_check(traced, workdir / "replay-store")
        rec.phase = ""
    overhead = traced.wall_s / plain.wall_s - 1.0
    return rec, overhead, service_metrics(traced, server_spans), server_spans


def service_metrics(run: Run, spans: List[dict]) -> Dict[str, tuple]:
    def span_durations(name, kind=None):
        return [sp["t1"] - sp["t0"] for sp in spans
                if sp["name"] == name and sp.get("t1") is not None
                and (kind is None or sp["job_kind"] == kind)]

    done = [s for s in run.samples if s.state == "done"]
    requested = sum(s.data["replications_executed"]
                    + s.data["replications_cached"] for s in done)
    cached = sum(s.data["replications_cached"] for s in done)
    return {
        "service.queue_wait_s": (median_or_zero(span_durations("queue.wait")), "s"),
        "service.execute_s.cold": (median_or_zero(
            span_durations("execute", "cold")), "s"),
        "service.execute_s.warm": (median_or_zero(
            span_durations("execute", "warm")), "s"),
        "service.notify_s": (median_or_zero(
            s.seen_at - s.event_ts for s in run.samples), "s"),
        "service.result_fetch_s": (median_or_zero(s.fetch_s for s in done), "s"),
        "service.submit_p50_s": (median_or_zero(
            s.submit_s for s in run.samples), "s"),
        "service.warm_job_p50_s": (median_or_zero(
            s.latency_s for s in done if s.kind == "warm"), "s"),
        "service.cache_hit_ratio": (cached / requested if requested else 0.0,
                                    "ratio"),
        "service.deduped": (sum(s.deduped for s in run.samples), "count"),
    }
