"""Each independent check passes the program's real output and rejects a
deliberately perturbed copy of it.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, serving
from perfbench.layers import END_TO_END, PER_LAYER, layer_of

ROOT = Path(__file__).resolve().parents[1]


def test_fanns_recall_rejects_a_wrong_recall_column():
    from repro.fanns import build_ivfpq, recall_at_k
    from repro.workloads import brute_force_knn

    rng = np.random.default_rng(3)
    base = rng.random((2_000, 8), dtype=np.float32)
    queries = rng.random((20, 8), dtype=np.float32)
    index = build_ivfpq(base, nlist=8, m=4, ksub=16, seed=3)
    truth = brute_force_knn(base, queries, 10)
    rows = [
        {"nprobe": n,
         "recall": recall_at_k(index.search(queries, 10, n), truth)}
        for n in (1, 8)
    ]
    assert checks.fanns_recall(rows, index, base, queries) == []
    rows[1] = {**rows[1], "recall": rows[1]["recall"] - 0.01}
    assert checks.fanns_recall(rows, index, base, queries)


def test_cartesian_lookup_rejects_a_changed_or_reordered_row():
    from repro.microrec import EmbeddingTables, plan_cartesian
    from repro.workloads import RecModelSpec

    spec = RecModelSpec(table_rows=(3, 5, 7, 200))
    tables = EmbeddingTables(spec, seed=4)
    plan = plan_cartesian(spec, byte_budget=64 * spec.total_embedding_bytes)
    assert max(len(g) for g in plan.groups) > 1
    rng = np.random.default_rng(4)
    trace = np.stack([rng.integers(0, r, size=32) for r in spec.table_rows],
                     axis=1)
    out = plan.lookup(tables, trace)
    assert checks.cartesian_lookup(tables.tables, trace, out) == []

    changed = out.copy()
    changed[5, 3] += 1.0
    assert checks.cartesian_lookup(tables.tables, trace, changed)
    dim = spec.embedding_dim
    swapped = out.copy()
    swapped[:, :dim] = out[:, dim:2 * dim]
    swapped[:, dim:2 * dim] = out[:, :dim]
    assert checks.cartesian_lookup(tables.tables, trace, swapped)


@pytest.mark.parametrize("algorithm", ["ring", "tree"])
def test_allreduce_sum_rejects_a_wrong_node(algorithm):
    from repro.accl import FpgaCluster

    rng = np.random.default_rng(5)
    inputs = [rng.integers(-9, 9, size=64).astype(np.float64)
              for _ in range(4)]
    outcome = FpgaCluster(4).allreduce([b.copy() for b in inputs],
                                       algorithm=algorithm)
    assert checks.allreduce_sum(inputs, outcome.buffers, algorithm) == []
    perturbed = [b.copy() for b in outcome.buffers]
    perturbed[2][7] += 1.0
    assert checks.allreduce_sum(inputs, perturbed, algorithm)


def test_filter_sum_rejects_a_wrong_sum_or_count():
    rng = np.random.default_rng(6)
    key = rng.integers(0, 100, size=1_000)
    val = rng.integers(0, 10, size=1_000).astype(np.float64)
    right = {"sum": float(val[key < 40].sum()), "count": int((key < 40).sum())}
    assert checks.filter_sum(key, val, 40, right) == []
    assert checks.filter_sum(key, val, 40, {**right, "sum": right["sum"] + 1})
    assert checks.filter_sum(key, val, 40,
                             {**right, "count": right["count"] - 1})


def test_pipeline_time_rejects_an_off_model_e1_time():
    from repro.core import LoopNest, Pragmas, synthesize
    from repro.exec import build_spec

    from perfbench.tables import _E1_ITEMS, _E1_OPS

    spec = build_spec("e1")
    [config] = [c for c in spec.grid if c["part"] == "ablation"]
    row = spec.cell(None, config, spec.seeds[0])
    kernel = synthesize(
        LoopNest(name="stream-op", trip_count=1_000_000, ops=_E1_OPS),
        Pragmas(pipeline=True, pipeline_ii=2),
    )
    assert checks.pipeline_time(row["t_item_us"], kernel, _E1_ITEMS) == []
    period_us = kernel.clock.period_ps / 1e6
    assert checks.pipeline_time(row["t_item_us"] + period_us, kernel,
                                _E1_ITEMS)


def test_warm_pass_rejects_recomputation_or_other_tables():
    assert checks.warm_pass("table", "table", 0) == []
    assert checks.warm_pass("table", "table", 1)
    assert checks.warm_pass("table", "tablf", 0)


def _session_row(workload):
    from repro.serve import SyntheticBackend, simulate_service

    backend = SyntheticBackend(service_ps=2_000_000, per_item_ps=300_000)
    traffic, config = serving.session(workload, backend)
    if workload == "serve-busy":
        traffic = replace(traffic, requests_per_client=8)
    return backend, simulate_service(backend, traffic, config, seed=7).row()


def test_accounting_rejects_lost_shed_or_failed_requests():
    _, row = _session_row("serve-sparse")
    assert checks.accounting(row) == []
    assert checks.accounting({**row, "completed": row["completed"] - 1})
    assert checks.accounting({**row, "shed": 1})
    assert checks.accounting({**row, "failed": 1})


def test_sparse_latency_rejects_a_shifted_median():
    backend, row = _session_row("serve-sparse")
    wait = serving._max_wait_ps(backend)
    assert checks.sparse_latency(row, backend, wait) == []
    assert checks.sparse_latency({**row, "p50_us": row["p50_us"] + 1e-6},
                                 backend, wait)


def test_busy_throughput_rejects_lower_qps_or_partial_batches():
    backend, row = _session_row("serve-busy")
    replicas = serving.REPLICAS
    assert checks.busy_throughput(row, backend, replicas) == []
    slower = {**row, "achieved_qps": row["achieved_qps"] * (1 - 1e-6)}
    assert checks.busy_throughput(slower, backend, replicas)
    partial = {**row, "mean_batch": row["mean_batch"] - 0.5}
    assert checks.busy_throughput(partial, backend, replicas)


def test_layers_follow_the_package_layout():
    root = ROOT / "src" / "repro"
    assert layer_of(str(root / "core" / "sim.py"), "step", root) == "core"
    assert layer_of(str(root / "exec" / "experiments" / "fanns.py"), "f",
                    root) == "exec.experiments"
    assert layer_of(str(root / "exec" / "runner.py"), "run", root) == "exec"
    assert layer_of(str(root / "__main__.py"), "main", root) == "other"
    assert layer_of("~", "<method 'sum' of 'numpy.ndarray' objects>",
                    root) == "numpy"
    assert layer_of("/usr/lib/python3/heapq.py", "heappush", root) == "other"


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-busy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
