"""Timers around the public entry points of each layer, for traced runs.

Every wrapper is installed from outside the program and removed again
when the ``with`` block ends; the program's code is never edited.  Two
sets exist because of where the code runs:

* :func:`parent_side` wraps what runs in the benchmark's own process
  during a pooled campaign (spec loading and cell building, the
  campaign plan, store reads and writes, pool start-up);
* :func:`model_side` additionally wraps the model-layer entry points,
  and is installed only for the serial in-process replay: pool workers
  are forked from this process, and timers inherited by them would
  slow the pooled run without reporting anything back.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Dict, List, Tuple

from stats import SpanRecorder, median_or_zero

PAPER_MODELS = ["B", "M1", "M2", "P1", "P2"]
SCHED_POLICIES = ["fcfs", "easy", "fair"]

#: Layers a span can be charged to (``des`` and ``core`` are counted,
#: not timed: their code runs inside ``models`` and ``sched`` spans).
LAYERS = ("spec", "campaign", "models", "cr", "failures", "iomodel",
          "sched", "service")


@contextmanager
def _patched(patches: List[Tuple[object, str, object]]):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, new in patches:
        setattr(owner, name, new)
    try:
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


def _parent_patches(rec: SpanRecorder) -> List[Tuple[object, str, object]]:
    import repro.campaign.scheduler as scheduler
    import repro.spec.build as build
    from repro.campaign.plan import CampaignPlan
    from repro.campaign.store import ResultStore

    def store_get(orig):
        def get(self, key):
            with rec.span("campaign", "store.get"):
                found = orig(self, key)
            if found is not None:
                rec.counts["store_hits"] += 1
            return found
        return get

    return [
        (build, "build_cells",
         rec.wrap("spec", "build_cells", build.build_cells)),
        (build, "build_sched_cells",
         rec.wrap("spec", "build_cells", build.build_sched_cells)),
        (scheduler, "run_campaign",
         rec.wrap("campaign", "run", scheduler.run_campaign)),
        (CampaignPlan, "__init__",
         rec.wrap("campaign", "plan", CampaignPlan.__init__)),
        (ResultStore, "get", store_get(ResultStore.get)),
        (ResultStore, "put", rec.wrap("campaign", "store.put", ResultStore.put)),
        (ProcessPoolExecutor, "_launch_processes",
         rec.wrap("campaign", "pool_start",
                  ProcessPoolExecutor._launch_processes)),
    ]


def _model_patches(rec: SpanRecorder) -> List[Tuple[object, str, object]]:
    from repro.core.pckpt import PckptProtocol
    from repro.cr.oci import OCIController
    from repro.failures.leadtime import LeadTimeModel
    from repro.iomodel.matrix import AnalyticPFSModel
    from repro.models.base import CRSimulation
    from repro.sched.engine import SchedSimulation

    def kernel_counted(orig, layer, key, label):
        def run(self):
            with rec.span(layer, "run") as span:
                out = orig(self)
            span.args[key] = label(self)
            stats = self.env.kernel_stats()
            rec.counts["des_events"] += int(stats["events_processed"])
            rec.counts["des_wall_s"] += stats["wall_seconds"]
            if layer == "sched":
                rec.counts["sched_events"] += int(stats["events_processed"])
            return out
        return run

    def commit_counted(orig):
        def init(self, *args, on_commit=None, **kwargs):
            def counted(entry, when):
                rec.counts["pckpt_commits"] += 1
                if on_commit is not None:
                    on_commit(entry, when)
            orig(self, *args, on_commit=counted, **kwargs)
        return init

    return [
        (CRSimulation, "run", kernel_counted(
            CRSimulation.run, "models", "model", lambda sim: sim.config.name)),
        (SchedSimulation, "run", kernel_counted(
            SchedSimulation.run, "sched", "policy", lambda sim: sim.policy.name)),
        (OCIController, "interval",
         rec.wrap("cr", "oci.interval", OCIController.interval)),
        (LeadTimeModel, "survival",
         rec.wrap("failures", "survival", LeadTimeModel.survival)),
        (AnalyticPFSModel, "write_bandwidth",
         rec.wrap("iomodel", "bandwidth", AnalyticPFSModel.write_bandwidth)),
        (PckptProtocol, "__init__", commit_counted(PckptProtocol.__init__)),
    ]


def parent_side(rec: SpanRecorder):
    """Timers for the code a pooled campaign runs in this process."""
    return _patched(_parent_patches(rec))


def model_side(rec: SpanRecorder):
    """Parent-side timers plus the model layers, for in-process replays."""
    return _patched(_parent_patches(rec) + _model_patches(rec))


def layer_metrics(rec: SpanRecorder) -> Dict[str, tuple]:
    """Per-layer figures every traced run reports (0 where a layer is idle)."""
    def total(layer, name=None, self_only=False):
        return sum(s.self_time if self_only else s.duration
                   for s in rec.select(layer, name))

    def per_call(layer, name):
        return median_or_zero(s.duration for s in rec.select(layer, name))

    events = rec.counts["des_events"]
    out = {
        "failures.survival_calls": (len(rec.select("failures")), "count"),
        "failures.survival_s": (total("failures"), "s"),
        "cr.oci_interval_calls": (len(rec.select("cr")), "count"),
        "cr.oci_interval_self_s": (total("cr", self_only=True), "s"),
        "iomodel.bandwidth_calls": (len(rec.select("iomodel")), "count"),
        "iomodel.bandwidth_s": (total("iomodel"), "s"),
        "models.residual_s": (median_or_zero(
            s.self_time for s in rec.select("models")), "s"),
        "core.pckpt_commits": (rec.counts["pckpt_commits"], "count"),
        "des.events": (events, "count"),
        "des.us_per_event": (
            rec.counts["des_wall_s"] / events * 1e6 if events else 0.0, "us"),
        "sched.events": (rec.counts["sched_events"], "count"),
        "spec.load_s": (per_call("spec", "load"), "s"),
        "spec.hash_s": (per_call("spec", "hash"), "s"),
        "spec.build_cells_s": (per_call("spec", "build_cells"), "s"),
        "campaign.plan_s": (per_call("campaign", "plan"), "s"),
        "campaign.pool_start_s": (per_call("campaign", "pool_start"), "s"),
        "campaign.store_get_s": (total("campaign", "store.get"), "s"),
        "campaign.store_put_s": (total("campaign", "store.put"), "s"),
        "campaign.store_hits": (rec.counts["store_hits"], "count"),
    }
    for model in PAPER_MODELS:
        out[f"models.replication_s.{model}"] = (median_or_zero(
            s.duration for s in rec.select("models")
            if s.args.get("model") == model), "s")
    for policy in SCHED_POLICIES:
        out[f"sched.run_s.{policy}"] = (sum(
            s.duration for s in rec.select("sched")
            if s.args.get("policy") == policy), "s")
    self_times = rec.self_by_layer()
    for layer in LAYERS:
        out[f"self_s.{layer}"] = (self_times.get(layer, 0.0), "s")
    out["trace.residual_s"] = (rec.residual(), "s")
    out["trace.wall_s"] = (rec.region_wall, "s")
    return out
