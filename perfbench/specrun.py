"""The ``campaign-cold`` and ``sched-sweep`` workloads.

Both run one spec document through ``repro.spec.run_spec`` with two
pool workers on a fresh result store.  A round is one such spec; a run
repeats rounds, each with its own seed, until the measuring time is
spent.  The traced run also re-runs its round a few times on the
now-populated store (every cell served from cache).
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import layers
import oracle
from layers import PAPER_MODELS, SCHED_POLICIES
from stats import NoTrace, SpanRecorder, Tally, describe, peak_rss_mb

#: Pool width: the host's two cores.
WORKERS = 2

#: Cached re-runs timed after the traced run's cold campaigns.
WARM_RERUNS = 5

SCHED_JOBS = 300
SCHED_TOTAL_NODES = 192


def campaign_doc(seed: int) -> dict:
    """Fig. 6 shape: all six Table-I apps x the five models, Titan failures."""
    return {
        "schema_version": 1, "name": f"fig6-cold-{seed}", "apps": "all",
        "models": PAPER_MODELS, "failures": "titan", "replications": 2,
        "seed": seed,
    }


def sched_doc(seed: int) -> dict:
    """``examples/specs/sched-backfill.json`` shape, swept over policies,
    with one replication so per-job records are exact."""
    return {
        "schema_version": 1, "name": f"sched-sweep-{seed}",
        "apps": ["GYRO", "POP", "VULCAN"], "models": ["M1", "M2", "P1", "P2"],
        "include_base": True,
        "platform": {"base": "summit", "total_nodes": SCHED_TOTAL_NODES},
        "failures": "titan", "replications": 1, "seed": seed,
        "sched": {"policy": "easy", "jobs": SCHED_JOBS, "arrival": "poisson",
                  "interarrival_seconds": 900.0, "hours_scale": 0.1,
                  "drain_lanes": 2},
        "sweep": {"axis": "sched-policy", "values": SCHED_POLICIES},
    }


def check_campaign(results) -> List[str]:
    problems = []
    if len(results) != 6 * len(PAPER_MODELS):
        problems.append(f"campaign returned {len(results)} cells, expected 30")
    for (model, app), result in results.items():
        if result.replications != 2:
            problems.append(f"{model}/{app}: {result.replications} replications")
        problems += oracle.check_campaign_cell(model, app, result)
    return problems


def check_sched(results) -> List[str]:
    problems = []
    if sorted(p for _, p in results) != sorted(SCHED_POLICIES):
        problems.append(f"sched sweep cells {list(results)}")
    for result in results.values():
        problems += oracle.check_sched_cell(result, SCHED_TOTAL_NODES)
    return problems


@dataclass(frozen=True)
class SpecWorkload:
    make_doc: Callable[[int], dict]
    check: Callable[[dict], List[str]]
    #: Operations a cell represents for the throughput figure.
    cell_ops: Callable[[object], int]
    #: Operations a cell counts as attempted (replications or cells).
    cell_attempts: Callable[[object], int]


CAMPAIGN = SpecWorkload(campaign_doc, check_campaign,
                        cell_ops=lambda r: r.replications,
                        cell_attempts=lambda r: r.replications)
SCHED = SpecWorkload(sched_doc, check_sched,
                     cell_ops=lambda r: r.jobs * r.replications,
                     cell_attempts=lambda r: 1)


@dataclass
class Round:
    results: Dict
    cold_s: float
    #: Seconds from the cold run's start until each cell's result was
    #: stored, in completion order.
    cell_s: List[float]
    warm_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def round_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def load_inputs(workload: SpecWorkload, seed: int, rounds: int = 64):
    """Generate and validate the documents of up to *rounds* rounds."""
    from repro.spec import spec_from_dict

    docs = [workload.make_doc(round_seed(seed, i)) for i in range(rounds)]
    for doc in docs:
        spec_from_dict(doc)
    return docs


def run_round(doc: dict, store_dir: Path, trace=NoTrace(),
              warm_reruns: int = 0) -> Round:
    from repro.campaign.progress import CampaignProgress
    from repro.campaign.store import ResultStore, result_to_dict
    from repro.spec import run_spec, spec_from_dict, spec_hash

    def timed_run():
        progress = CampaignProgress()
        done_at = []

        def cell_done(cell, index, _orig=progress.cell_done):
            done_at.append(time.perf_counter())
            _orig(cell, index)

        progress.cell_done = cell_done
        t0 = time.perf_counter()
        with trace.span("spec", "load"):
            spec = spec_from_dict(doc)
        with trace.span("spec", "hash"):
            spec_hash(spec)
        results = run_spec(spec, store=ResultStore(store_dir),
                           workers=WORKERS, progress=progress)
        return (results, time.perf_counter() - t0,
                [t - t0 for t in done_at])

    if store_dir.exists():
        shutil.rmtree(store_dir)
    trace.phase = "cold"
    results, cold_s, cell_s = timed_run()
    rnd = Round(results, cold_s, cell_s)
    reference = {k: result_to_dict(v) for k, v in results.items()}
    trace.phase = "warm"
    for _ in range(warm_reruns):
        again, warm_s, _ = timed_run()
        rnd.warm_s.append(warm_s)
        if {k: result_to_dict(v) for k, v in again.items()} != reference:
            rnd.problems.append("a cached re-run differs from the cold run")
    trace.phase = ""
    shutil.rmtree(store_dir)
    return rnd


def measure(workload: SpecWorkload, seed: int, seconds: float,
            workdir: Path, tally: Tally, problems: List[str]) -> Dict:
    """Untraced run: whole rounds until *seconds* have been measured."""
    docs = load_inputs(workload, seed)
    rounds: List[Round] = []
    spent = 0.0
    while spent < seconds and len(rounds) < len(docs):
        t0 = time.perf_counter()
        rnd = run_round(docs[len(rounds)], workdir / "store")
        spent += time.perf_counter() - t0
        rounds.append(rnd)
        for result in rnd.results.values():
            tally.ok(workload.cell_attempts(result))
        problems += rnd.problems + workload.check(rnd.results)
    # Read before survival_check imports scipy.stats into this process.
    rss = peak_rss_mb()
    problems += survival_check()
    print(describe("round cold_s", [r.cold_s for r in rounds]), file=sys.stderr)
    print(describe("cell ready_s", [t for r in rounds for t in r.cell_s]),
          file=sys.stderr)
    # Medians over rounds: one round slowed by a neighbour on a shared
    # host moves them less than it moves a total.
    return {
        "throughput_per_s": (statistics.median(
            sum(workload.cell_ops(c) for c in r.results.values()) / r.cold_s
            for r in rounds), "1/s"),
        "latency_p50_s": (statistics.median(
            statistics.median(r.cell_s) for r in rounds), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def survival_check() -> List[str]:
    # Imports scipy.stats into this process, so it runs after the timed
    # rounds: forked pool workers would otherwise inherit the import
    # every fresh worker pays in real campaigns.
    from repro.failures.leadtime import PAPER_LEAD_TIME_MODEL

    return oracle.survival_problems(PAPER_LEAD_TIME_MODEL.survival,
                                    oracle.survival_points())


def trace_run(workload: SpecWorkload, seed: int, workdir: Path,
              tally: Tally, problems: List[str]):
    """A warm-up round, the round untraced, the same round traced, then a
    serial in-process replay of its cells.

    The warm-up absorbs this process's first-campaign costs, so the
    traced/untraced ratio compares like with like.  Returns the
    recorder, that ratio - 1, and the campaign figures the recorder
    cannot give (the pool's busy share, the untraced cached re-run).
    """
    from repro.campaign.store import result_to_dict
    from repro.spec import run_spec, spec_from_dict

    doc = load_inputs(workload, seed, rounds=1)[0]
    warmup = run_round(doc, workdir / "store")
    plain = run_round(doc, workdir / "store", warm_reruns=WARM_RERUNS)
    rec = SpanRecorder()
    with rec.region():
        with layers.parent_side(rec):
            traced = run_round(doc, workdir / "store", trace=rec,
                               warm_reruns=WARM_RERUNS)
        rec.phase = "replay"
        with layers.model_side(rec):
            replay = run_spec(spec_from_dict(doc), store=None, workers=1)
        rec.phase = ""
    for rnd in (warmup, plain, traced):
        for result in rnd.results.values():
            tally.ok(workload.cell_attempts(result))
        problems += rnd.problems + workload.check(rnd.results)
    pooled = {k: result_to_dict(v) for k, v in traced.results.items()}
    if {k: result_to_dict(v) for k, v in replay.items()} != pooled:
        problems.append("serial in-process replay differs from the pooled run")
    problems += survival_check()
    pool_wall = rec.select("campaign", "run", phase="cold")[0].duration
    busy = sum(s.duration for s in rec.spans
               if s.args["phase"] == "replay" and s.layer in ("models", "sched"))
    extra = {
        "campaign.pool_busy_ratio": (busy / (WORKERS * pool_wall), "ratio"),
        "campaign.warm_rerun_s": (statistics.median(plain.warm_s), "s"),
    }
    return rec, traced.cold_s / plain.cold_s - 1.0, extra
