"""Correctness checks computed apart from the program.

The constants below are restated from the paper (Table I applications,
the Fig. 2a lead-time sequences, the Titan Weibull fit of Table III and
the Summit burst-buffer, interconnect and memory figures), not imported
from ``repro``, so a check fails when the program's arithmetic drifts
from the paper's equations rather than agreeing with itself.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

GIB = float(1 << 30)

#: Table I: name -> (nodes, aggregate checkpoint GB, compute hours).
TABLE_I: Dict[str, Tuple[int, float, float]] = {
    "CHIMERA": (2272, 646_382.0, 360.0),
    "XGC": (1515, 149_625.0, 240.0),
    "S3D": (505, 20_199.0, 240.0),
    "GYRO": (126, 197.2, 120.0),
    "POP": (126, 102.5, 480.0),
    "VULCAN": (64, 3.27, 720.0),
}

#: Fig. 2a: (occurrences, mean lead s, sd lead s) per failure sequence.
LEAD_SEQUENCES: Tuple[Tuple[int, float, float], ...] = (
    (200, 9.0, 3.0), (1700, 18.5, 1.2), (400, 240.0, 60.0),
    (80, 800.0, 350.0), (1000, 25.0, 0.6), (5000, 43.2, 1.0),
    (1200, 39.2, 0.8), (100, 26.8, 0.3), (300, 22.6, 0.4),
    (20, 1800.0, 600.0),
)

#: Titan failures (Table III): Weibull shape, scale hours, system nodes.
TITAN = (0.6885, 5.4527, 18868)

BB_WRITE_BW = 2.1 * GIB          # node-local burst buffer, bytes/s
LINK_BW = 12.5 * GIB             # node-to-node interconnect, bytes/s
LINK_LATENCY = 1.0e-6            # seconds
DRAM_BYTES = 512.0 * GIB
LM_ALPHA = 3.0                   # live-migration image = 3x checkpoint
ASSUMED_RECALL = 0.85            # predictor recall the OCI believes in
MIN_INTERVAL = 1.0

#: Which proactive mechanisms each paper model may credit a failure to.
MECHANISMS: Dict[str, frozenset] = {
    "B": frozenset(),
    "M1": frozenset({"mitigated_safeguard"}),
    "M2": frozenset({"mitigated_lm"}),
    "P1": frozenset({"mitigated_pckpt"}),
    "P2": frozenset({"mitigated_lm", "mitigated_pckpt"}),
}
ALL_MECHANISMS = ("mitigated_lm", "mitigated_pckpt", "mitigated_safeguard")
SIGMA_MODELS = frozenset({"M2", "P2"})

REL_TOL = 1e-9


def lead_survival(t: float) -> float:
    """P(lead > t) of the Fig. 2a lognormal mixture, via ``math.erfc``."""
    total = sum(n for n, _, _ in LEAD_SEQUENCES)
    s = 0.0
    for n, mean, sd in LEAD_SEQUENCES:
        sigma = math.sqrt(math.log(1.0 + (sd / mean) ** 2))
        mu = math.log(mean) - 0.5 * sigma * sigma
        z = (math.log(max(t, 1e-300)) - mu) / (sigma * math.sqrt(2.0))
        s += (n / total) * 0.5 * math.erfc(z)
    return s


def lm_seconds(app: str) -> float:
    nodes, gb, _ = TABLE_I[app]
    image = min(LM_ALPHA * gb * GIB / nodes, DRAM_BYTES)
    return LINK_LATENCY + image / LINK_BW


def expected_oci(app: str, model: str) -> float:
    """Initial interval: Young's Eq. 1, or Eq. 2 with σ for M2/P2."""
    nodes, gb, _ = TABLE_I[app]
    shape, scale_h, system_nodes = TITAN
    t_ckpt = gb * GIB / nodes / BB_WRITE_BW
    app_mtbf_s = scale_h * system_nodes / nodes * math.gamma(1 + 1 / shape) * 3600
    rate_c = 1.0 / app_mtbf_s            # λ·c: failures/s hitting the job
    if model in SIGMA_MODELS:
        sigma = min(ASSUMED_RECALL * lead_survival(lm_seconds(app)), 0.999)
        rate_c *= 1.0 - sigma
    return max(math.sqrt(2.0 * t_ckpt / rate_c), MIN_INTERVAL)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_campaign_cell(model: str, app: str, result) -> List[str]:
    """Problems with one simulated cell's aggregate (empty when sound)."""
    problems = []
    ft = result.ft
    where = f"{model}/{app}"
    mitigated = sum(getattr(ft, m) for m in ALL_MECHANISMS)
    if not mitigated <= ft.predicted <= ft.failures:
        problems.append(f"{where}: mitigated {mitigated} > predicted "
                        f"{ft.predicted} or predicted > failures {ft.failures}")
    for mech in ALL_MECHANISMS:
        if mech not in MECHANISMS[model] and getattr(ft, mech):
            problems.append(f"{where}: {mech}={getattr(ft, mech)} on a model "
                            f"without that mechanism")
    parts = (result.overhead.checkpoint, result.overhead.recomputation,
             result.overhead.recovery, result.overhead.migration)
    if min(parts) < 0:
        problems.append(f"{where}: negative overhead component {parts}")
    useful = TABLE_I[app][2] * 3600.0
    if abs(result.makespan_seconds - useful - math.fsum(parts)) \
            > 1e-9 * result.makespan_seconds:
        problems.append(f"{where}: makespan - useful "
                        f"{result.makespan_seconds - useful!r} != overhead "
                        f"sum {math.fsum(parts)!r}")
    want = expected_oci(app, model)
    if not close(result.oci_initial, want):
        problems.append(f"{where}: oci_initial {result.oci_initial!r} "
                        f"!= Eq.{'2' if model in SIGMA_MODELS else '1'} {want!r}")
    return problems


def survival_problems(program_survival, points: Iterable[float]) -> List[str]:
    """Compare the program's mixture survival with :func:`lead_survival`."""
    problems = []
    for t in points:
        got, want = float(program_survival(t)), lead_survival(t)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"survival({t!r}) = {got!r}, erfc form {want!r}")
    return problems


def survival_points() -> List[float]:
    """Every app's LM threshold plus a log grid over 0.5 s .. 1 h."""
    grid = [0.5 * 1.25 ** k for k in range(40)]
    return sorted({lm_seconds(a) for a in TABLE_I} | set(grid))


def check_sched_cell(result, total_nodes: int) -> List[str]:
    """Schedule invariants recomputed from a one-replication cell's jobs."""
    where = f"sched/{result.policy}"
    problems = []
    if result.replications != 1:
        return [f"{where}: per-job records are exact only for one replication"]
    jobs = result.per_job
    if len(jobs) != result.jobs or result.starved:
        problems.append(f"{where}: {result.starved} starved of {result.jobs}")
    events = []
    busy = 0.0
    end_max = 0.0
    for job in jobs:
        if job["wait_s"] < 0:
            problems.append(f"{where}: job {job['id']} waits {job['wait_s']}")
        if not job["run_s"] > 0:
            problems.append(f"{where}: job {job['id']} never finished")
            continue
        start = job["submit_s"] + job["wait_s"]
        end = start + job["run_s"]
        end_max = max(end_max, end)
        busy += job["nodes"] * job["run_s"]
        # Millisecond snapping absorbs the rounding of start = submit +
        # wait, so a job placed the instant another ends is not counted
        # twice; jobs run for hours.
        events.append((round(start, 3), job["nodes"]))
        events.append((round(end, 3), -job["nodes"]))
    held = 0
    for _, delta in sorted(events):
        held += delta
        if held > total_nodes:
            problems.append(f"{where}: {held} nodes held > {total_nodes}")
            break
    if not close(end_max, result.makespan_seconds):
        problems.append(f"{where}: last job ends {end_max!r}, makespan "
                        f"{result.makespan_seconds!r}")
    util = busy / (total_nodes * result.makespan_seconds)
    if not close(util, result.utilization):
        problems.append(f"{where}: utilization {result.utilization!r} != "
                        f"recomputed {util!r}")
    return problems
