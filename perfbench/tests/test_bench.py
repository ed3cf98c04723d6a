"""Tests of the benchmark's own statistics, accounting and checks.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
None of them runs the program under test.
"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
from stats import (SpanRecorder, Tally, percentile, result_line,  # noqa: E402
                   summarize, tail_percentile)


# -- the percentile rule ---------------------------------------------------

@pytest.mark.parametrize("n, tail", [
    (1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_needs_ten_samples_beyond_it(n, tail):
    assert tail_percentile(n) == tail


def test_fewer_than_forty_samples_give_the_median_only():
    assert summarize([float(i) for i in range(39)]) == {"n": 39, "p50": 19.0}


def test_summary_quotes_the_allowed_tail():
    out = summarize([float(i) for i in range(1, 101)])
    assert out == {"n": 100, "p50": 50.5, "p90": 90.0}


def test_nearest_rank_percentile():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 75) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- attempted / failed accounting -------------------------------------------

def test_tally_counts_failures_by_cause_within_attempted():
    tally = Tally()
    tally.ok(12)
    tally.fail("poison:JSONDecodeError")
    tally.fail("poison:JSONDecodeError")
    tally.ok()
    assert tally.attempted == 15
    assert tally.failed_total == 2
    assert dict(tally.failed) == {"poison:JSONDecodeError": 2}


def test_result_line_has_exactly_the_contract_keys():
    tally = Tally()
    tally.ok(3)
    tally.fail("x")
    line = json.loads(result_line(True, tally, {"setup_s": (1.5, "s")}))
    assert line == {"correct": True, "attempted": 4, "failed": 1,
                    "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}


def test_every_service_round_plants_one_job_in_five():
    for seed in (1, 2, 99):
        for index in range(5):
            jobs = service.round_plan(seed, index)
            assert len(jobs) == 5
            assert [doc for kind, doc in jobs if kind == "poison"] == \
                [service.POISON_DOC]


def test_service_rounds_depend_only_on_seed_and_index():
    assert service.round_plan(5, 3) == service.round_plan(5, 3)
    assert service.round_plan(5, 3) != service.round_plan(6, 3)


def test_warm_jobs_resubmit_a_finished_cold_spec():
    submitted = []
    for kind, doc in service.round_plan(7, 2):
        if kind == "warm":
            assert doc in submitted
        submitted.append(doc)
    cold = [doc for kind, doc in service.round_plan(7, 2) if kind == "cold"]
    assert len({d["seed"] for d in cold}) == len(cold)


def service_sample(kind, state, error=None):
    data = {"error": error} if state == "failed" else {
        "replications_executed": 1, "replications_cached": 0}
    payload = {"cells": [{"result": {"x": 1}}]} if state == "done" else None
    return service.Sample(kind, service.POISON_DOC, 0.1, 0.01, state,
                          f"j-{kind}", False, data, 0.0, 0.0,
                          payload=payload)


def test_a_planted_job_may_fail_with_the_torn_entry_or_succeed():
    run_ = service.Run(samples=[
        service_sample("poison", "failed", "JSONDecodeError: Expecting ','"),
        service_sample("poison", "done"),
    ])
    tally, problems = Tally(), []
    service.account(run_, tally, problems)
    assert problems == []
    assert tally.attempted == 2
    assert dict(tally.failed) == {"poison:JSONDecodeError": 1}


def test_any_other_failure_is_a_check_failure():
    run_ = service.Run(samples=[
        service_sample("poison", "failed", "KeyError: 'x'"),
        service_sample("cold", "failed", "JSONDecodeError: torn"),
    ])
    tally, problems = Tally(), []
    service.account(run_, tally, problems)
    assert len(problems) == 2
    assert tally.failed_total == 2


# -- self-time arithmetic ----------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_subtracts_children_and_residual_closes_the_sum():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.region():
        clock.tick(1.0)                          # residual
        with rec.span("models", "run"):
            clock.tick(2.0)
            with rec.span("cr", "oci.interval"):
                clock.tick(0.5)
                with rec.span("failures", "survival"):
                    clock.tick(3.0)
                clock.tick(0.25)
            with rec.span("iomodel", "bandwidth"):
                clock.tick(0.125)
        clock.tick(4.0)                          # residual
        with rec.span("campaign", "store.put"):
            clock.tick(0.5)
    self_times = rec.self_by_layer()
    assert self_times == {"models": 2.0, "cr": 0.75, "failures": 3.0,
                          "iomodel": 0.125, "campaign": 0.5}
    assert rec.residual() == 5.0
    assert rec.region_wall == 11.375
    assert sum(self_times.values()) + rec.residual() == rec.region_wall


def test_identity_holds_with_a_real_clock():
    rec = SpanRecorder()
    with rec.region():
        for _ in range(20):
            with rec.span("service", "submit"):
                with rec.span("spec", "load"):
                    time.sleep(0.0005)
            time.sleep(0.0002)
    total = sum(rec.self_by_layer().values()) + rec.residual()
    assert total == pytest.approx(rec.region_wall, rel=1e-9)
    assert rec.residual() > 0


def test_wrap_records_one_span_per_call_and_keeps_the_result():
    rec = SpanRecorder()
    double = rec.wrap("spec", "hash", lambda x: 2 * x)
    with rec.region():
        assert [double(i) for i in range(3)] == [0, 2, 4]
    assert len(rec.select("spec", "hash")) == 3


# -- the independent checks catch what they claim to -------------------------

def campaign_cell(**ft):
    counts = dict(failures=4, predicted=3, mitigated_lm=0, mitigated_pckpt=0,
                  mitigated_safeguard=0)
    counts.update(ft)
    overhead = SimpleNamespace(checkpoint=10.0, recomputation=20.0,
                               recovery=5.0, migration=0.0)
    useful = oracle.TABLE_I["GYRO"][2] * 3600.0
    return SimpleNamespace(ft=SimpleNamespace(**counts), overhead=overhead,
                           makespan_seconds=useful + 35.0,
                           oci_initial=oracle.expected_oci("GYRO", "P1"))


def test_campaign_check_accepts_a_sound_cell():
    assert oracle.check_campaign_cell("P1", "GYRO",
                                      campaign_cell(mitigated_pckpt=2)) == []


@pytest.mark.parametrize("ft, needle", [
    ({"mitigated_lm": 1}, "mitigated_lm"),
    ({"mitigated_pckpt": 4}, "predicted"),
])
def test_campaign_check_flags_impossible_counts(ft, needle):
    problems = oracle.check_campaign_cell("P1", "GYRO", campaign_cell(**ft))
    assert any(needle in p for p in problems)


def test_campaign_check_flags_a_wrong_interval_and_unbalanced_overhead():
    cell = campaign_cell()
    cell.oci_initial *= 1.0 + 1e-6
    cell.makespan_seconds += 1.0
    problems = oracle.check_campaign_cell("P1", "GYRO", cell)
    assert any("oci_initial" in p for p in problems)
    assert any("makespan" in p for p in problems)


def test_sigma_lengthens_the_interval():
    assert oracle.expected_oci("XGC", "P2") > oracle.expected_oci("XGC", "P1")


def sched_cell(jobs, makespan, utilization):
    return SimpleNamespace(policy="easy", replications=1, jobs=len(jobs),
                           starved=0, per_job=jobs, makespan_seconds=makespan,
                           utilization=utilization)


def test_sched_check_recomputes_utilization_and_conservation():
    jobs = [{"id": 0, "nodes": 2, "submit_s": 0.0, "wait_s": 0.0, "run_s": 10.0},
            {"id": 1, "nodes": 2, "submit_s": 0.0, "wait_s": 10.0, "run_s": 10.0}]
    assert oracle.check_sched_cell(sched_cell(jobs, 20.0, 40 / 60), 3) == []
    problems = oracle.check_sched_cell(sched_cell(jobs, 20.0, 0.5), 3)
    assert any("utilization" in p for p in problems)
    jobs[1]["wait_s"] = 5.0
    problems = oracle.check_sched_cell(sched_cell(jobs, 15.0, 40 / 45), 3)
    assert any("nodes held" in p for p in problems)


# -- the metric names match BENCHMARK.json -------------------------------------

def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
