"""``serve-sparse`` and ``serve-busy``: ``simulate_service`` against the
three paper backends, built from inputs generated here.

* sparse: open-loop Poisson arrivals at 0.2% of full-batch capacity.
  Nearly every request is served alone and replicas idle most of the
  simulated time.
* busy: closed-loop clients with zero think time, enough of them that
  every batch is full and no replica waits.

A round runs one session per backend.  Rounds repeat until the run's
time is up, each with its own traffic seed drawn from the run's seed,
and ``wall_s`` is the median round: short rounds over several traffic
draws keep both host noise and the spread of one Poisson draw's length
out of the figure.
"""

from __future__ import annotations

import cProfile
import gc
import statistics
import time
import traceback

import numpy as np
from repro.fanns import build_ivfpq
from repro.farview import FarviewServer
from repro.microrec import EmbeddingTables
from repro.obs import Tracer
from repro.relational import (
    AggFunc, AggSpec, Aggregate, Filter, QueryPlan, Table, col,
)
from repro.serve import (
    AdmissionPolicy, BatchPolicy, ClosedLoopConfig, FannsBackend,
    FarviewBackend, MicroRecBackend, OpenLoopConfig, ServiceConfig,
    simulate_service,
)
from repro.workloads import RecModelSpec

from . import checks
from .layers import self_times

REPLICAS = 2
SETUP_REPEATS = 5
SPARSE_LOAD = 0.002
SPARSE_REQUESTS = 600
BUSY_REQUESTS = 12_288
# Client groups of max_batch: enough to fill every replica and the
# dispatch queue with one group to spare, so no replica ever waits.
BUSY_GROUPS = 2 * (REPLICAS + 2)


def build_backends(seed: int) -> dict:
    """The three servable backends over seeded synthetic inputs."""
    rng = np.random.default_rng([seed, 0x5E4E])
    centers = rng.random((32, 16), dtype=np.float32)
    base = centers[rng.integers(0, 32, size=4_000)] + rng.normal(
        0.0, 0.25, size=(4_000, 16)).astype(np.float32)
    index = build_ivfpq(base, nlist=32, m=8, ksub=64, seed=seed)

    rows = tuple(int(r) for r in np.geomspace(10, 20_000, num=24))
    tables = EmbeddingTables(RecModelSpec(table_rows=rows), seed=seed)

    n_rows = 50_000
    server = FarviewServer()
    server.store("t", Table({
        "key": rng.integers(0, 100_000, size=n_rows),
        "val0": rng.random(n_rows),
    }))
    plan = QueryPlan((
        Filter(col("key") < 10_000),
        Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
    ))
    return {
        "fanns": FannsBackend(index, nprobe=8, max_batch=16, list_scale=2_000),
        "microrec": MicroRecBackend(tables, max_batch=32),
        "farview": FarviewBackend(server, plan, "t", max_batch=8),
    }


def _max_wait_ps(backend) -> int:
    return max(1, backend.batch_service_ps(backend.max_batch) // 2)


def session(workload: str, backend):
    """``(traffic, service config)`` for one backend's session."""
    full_ps = backend.batch_service_ps(backend.max_batch)
    batch = BatchPolicy(max_batch=backend.max_batch,
                        max_wait_ps=_max_wait_ps(backend))
    if workload == "serve-sparse":
        capacity = REPLICAS * backend.max_batch * checks.PS_PER_S / full_ps
        traffic = OpenLoopConfig(
            offered_qps=SPARSE_LOAD * capacity,
            n_requests=SPARSE_REQUESTS,
            slo_ps=12 * full_ps,
        )
        admission = AdmissionPolicy(max_queue=4 * backend.max_batch)
    else:
        clients = BUSY_GROUPS * backend.max_batch
        traffic = ClosedLoopConfig(
            n_clients=clients,
            requests_per_client=BUSY_REQUESTS // clients,
            think_ps=0,
            slo_ps=full_ps * BUSY_REQUESTS,
        )
        admission = AdmissionPolicy(max_queue=clients, deadline_aware=False)
    return traffic, ServiceConfig(batch=batch, admission=admission,
                                  replicas=REPLICAS)


def check_session(workload: str, backend, row: dict) -> list[str]:
    problems = checks.accounting(row)
    if workload == "serve-sparse":
        problems += checks.sparse_latency(row, backend,
                                          _max_wait_ps(backend))
    else:
        problems += checks.busy_throughput(row, backend, REPLICAS)
    return problems


def run_round(workload: str, backends: dict, seed: int,
              tracers: dict | None = None) -> dict:
    """One session per backend; per-backend host time, rows, failures."""
    out = {"seed": seed, "session_s": {}, "rows": {}, "failed": set()}
    for name, backend in backends.items():
        traffic, config = session(workload, backend)
        gc.collect()
        start = time.perf_counter()
        try:
            report = simulate_service(
                backend, traffic, config, seed=seed,
                tracer=tracers[name] if tracers else None,
            )
        except Exception:
            traceback.print_exc()
            out["failed"].add(name)
            continue
        out["session_s"][name] = time.perf_counter() - start
        out["rows"][name] = report.row()
    out["wall_s"] = sum(out["session_s"].values())
    return out


def _counter(snapshot: dict, name: str, label: str = "") -> int:
    """Sum a counter over all label sets (optionally one label value)."""
    return sum(
        value for key, value in snapshot.items()
        if (key == name or key.startswith(name + "{")) and label in key
    )


def run(workload: str, seed: int, seconds: float, trace: bool,
        package_root) -> dict:
    setup = []
    backends = None
    for _ in range(SETUP_REPEATS):
        del backends
        gc.collect()
        start = time.perf_counter()
        backends = build_backends(seed)
        setup.append(time.perf_counter() - start)
    requests = {
        name: session(workload, b)[0].n_requests
        for name, b in backends.items()
    }

    traffic_seeds = np.random.default_rng([seed, 0x7EAF])
    start = time.perf_counter()
    rounds = []
    while not rounds or (
        not trace and time.perf_counter() - start < seconds
    ):
        rounds.append(run_round(workload, backends,
                                int(traffic_seeds.integers(1 << 31))))
    reference = rounds[0]

    problems: list[str] = []
    failed = 0
    traced = None
    if trace:
        traced = _traced_round(workload, backends, reference["seed"],
                               package_root)
        rounds.append(traced["round"])
        for name, row in traced["round"]["rows"].items():
            if row != reference["rows"].get(name, row):
                traced["round"]["failed"].add(name)
                problems.append(f"{name}: the traced session's outcome "
                                "differs from the untraced one")

    for r in rounds:
        for name, backend in backends.items():
            row = r["rows"].get(name)
            found = [] if row is None else check_session(workload, backend,
                                                         row)
            problems += found
            if row is None or found or name in r["failed"]:
                failed += requests[name]
    for item in dict.fromkeys(problems):
        print(f"[{workload}] {item}", flush=True)

    result = {
        "correct": failed == 0,
        "attempted": len(rounds) * sum(requests.values()),
        "failed": failed,
        "outcomes": reference["rows"],
    }
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setup),
        }
        return result

    snapshots = traced["snapshots"]
    total = sum(requests.values())

    def per_request(name: str, label: str = "") -> float:
        return sum(_counter(s, name, label) for s in snapshots) / total

    metrics = {f"{layer}.self_s": secs
               for layer, secs in traced["self_s"].items()}
    metrics.update({
        "core.events_per_request": per_request("sim.events.fired"),
        "core.resumes_per_request": per_request("sim.process.resumes"),
        "core.cancelled_per_request": per_request("sim.events.cancelled"),
        "serve.idle_polls_per_request":
            per_request("stream.timeouts", ".dispatch"),
        "trace.overhead": traced["round"]["wall_s"] / reference["wall_s"],
    })
    for name, secs in reference["session_s"].items():
        metrics[f"serve.{name}.session_s"] = secs
    result["metrics"] = metrics
    return result


def _traced_round(workload: str, backends: dict, seed: int, package_root):
    """The same sessions under cProfile, each with an obs Tracer."""
    tracers = {name: Tracer() for name in backends}
    profile = cProfile.Profile()
    profile.enable()
    try:
        traced = run_round(workload, backends, seed, tracers)
    finally:
        profile.disable()
    return {
        "round": traced,
        "snapshots": [t.registry.snapshot() for t in tracers.values()],
        "self_s": self_times(profile, package_root),
    }
