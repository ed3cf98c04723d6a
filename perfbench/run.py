#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no timers installed;
``--trace 1`` runs the workload's traced variant and reports per-layer
figures instead, writing a Chrome trace under ``.perfbench/``.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Human-readable detail (sample counts, tails, failures by cause, check
failures) goes to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign-cold", "sched-sweep", "service-mixed")

#: ``set_up`` is timed this many times; the median is reported.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s",
    "latency_p50_s": "s",
}


def per_layer_units():
    """Name -> unit of every per-layer metric, so that a traced run
    reports the full set (0 for a layer its workload does not run)."""
    import layers
    import service
    from stats import SpanRecorder

    metrics = layers.layer_metrics(SpanRecorder())
    metrics.update(service.service_metrics(service.Run(), []))
    units = {name: unit for name, (_, unit) in metrics.items()}
    units.update({"campaign.pool_busy_ratio": "ratio",
                  "campaign.warm_rerun_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload: str, seed: int, root: Path, workdir: Path):
    """Everything before the first timed operation; returns what to stop."""
    if workload == "service-mixed":
        import service

        return service.set_up(root, workdir / "store")
    import specrun

    specrun.load_inputs(spec_workload(workload), seed)
    return None


def spec_workload(name: str):
    import specrun

    return {"campaign-cold": specrun.CAMPAIGN, "sched-sweep": specrun.SCHED}[name]


def setup_probe(args, root: Path) -> int:
    """Child side of the set-up timing: set up, say so, tear down."""
    workdir = Path(args.setup_probe)
    handle = set_up(args.workload, args.seed, root, workdir)
    print("ready", flush=True)
    if handle is not None:
        handle.stop()
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_seconds(args, root: Path, workdir: Path) -> float:
    """Median wall time from a fresh interpreter to set-up complete."""
    times = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed),
               "--setup-probe", str(workdir / f"probe-{i}")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(root), stdout=subprocess.PIPE,
                                text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=170)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def run_untraced(args, root: Path, workdir: Path, tally, problems):
    if args.workload == "service-mixed":
        import service

        metrics = service.measure(root, args.seed, args.seconds, workdir,
                                  tally, problems)
    else:
        import specrun

        metrics = specrun.measure(spec_workload(args.workload), args.seed,
                                  args.seconds, workdir, tally, problems)
    # After the workload has read its peak RSS: the probes are children
    # of this process too.
    metrics["setup_s"] = (setup_seconds(args, root, workdir), "s")
    return {name: metrics[name] for name in END_TO_END}


def run_traced(args, root: Path, workdir: Path, tally, problems):
    import layers
    import specrun

    server_spans = []
    if args.workload == "service-mixed":
        import service

        rec, overhead, extra, server_spans = service.trace_run(
            root, args.seed, workdir, tally, problems)
    else:
        rec, overhead, extra = specrun.trace_run(
            spec_workload(args.workload), args.seed, workdir, tally,
            problems)
    metrics = layers.layer_metrics(rec)
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    write_chrome_trace(root, args, rec, server_spans)
    units = per_layer_units()
    return {name: metrics.get(name, (0, unit)) for name, unit in units.items()}


def write_chrome_trace(root: Path, args, rec, server_spans) -> None:
    events = rec.chrome_events(pid=1)
    for sp in server_spans:
        if sp.get("t1") is None:
            continue
        events.append({
            "name": sp["name"], "cat": "server", "ph": "X", "pid": 2,
            "tid": sp.get("source", "server"), "ts": sp["t0"] * 1e6,
            "dur": (sp["t1"] - sp["t0"]) * 1e6,
            "args": {"trace_id": sp.get("trace_id"),
                     "job_kind": sp.get("job_kind")},
        })
    out = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
    print(f"chrome trace: {out}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root: src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    if args.setup_probe is not None:
        return setup_probe(args, root)

    from stats import Tally, result_line

    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    tally, problems = Tally(), []
    try:
        if args.trace:
            metrics = run_traced(args, root, workdir, tally, problems)
        else:
            metrics = run_untraced(args, root, workdir, tally, problems)
    except Exception:
        traceback.print_exc()
        print("error: the workload did not run to its end", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for cause, n in sorted(tally.failed.items()):
        print(f"failed: {n} x {cause}", file=sys.stderr)
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(result_line(not problems, tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
