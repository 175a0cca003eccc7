"""``tables-full``: regenerate every deterministic experiment's tables
from cold, as a first ``repro run all`` does.

One round prepares each experiment and runs its grid through
``SweepRunner`` with a fresh, empty ``ResultCache``.  ``prepare()`` is
timed apart from the cells by handing the runner a spec whose
``prepare`` returns the context built just before.  Experiments whose
tables are wall-clock readings (``deterministic=False``) are left out:
their output cannot be checked.
"""

from __future__ import annotations

import cProfile
import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from repro.accl import FpgaCluster
from repro.core import LoopNest, Pragmas, synthesize
from repro.exec import ResultCache, SweepRunner, build_spec, experiment_ids
from repro.exec.experiments import contexts
from repro.farview import FarviewServer
from repro.microrec import EmbeddingTables, plan_cartesian
from repro.relational import (
    AggFunc, AggSpec, Aggregate, Filter, QueryPlan, Table, col,
)
from repro.workloads import RecModelSpec

from . import checks
from .layers import data_plane_probes, self_times

# e1's ablation kernel: the loop and pragmas its item pipeline runs.
_E1_OPS = {"mem_read": 2, "mul": 1, "add": 1, "mem_write": 1}
_E1_ITEMS = 20_000


@dataclass
class Round:
    """Timings and outputs of one cold pass over the experiments."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    prepare_s: dict[str, float] = field(default_factory=dict)
    cell_s: dict[str, float] = field(default_factory=dict)
    cache_put_s: float = 0.0
    tables: dict[str, str] = field(default_factory=dict)
    rows: dict[str, list[dict]] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)
    e5_context: dict | None = None  # kept for the recall check


class TimedCache(ResultCache):
    """A result cache that adds up the time spent writing entries."""

    put_s = 0.0

    def put(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            super().put(*args, **kwargs)
        finally:
            self.put_s += time.perf_counter() - start


def _forget_contexts() -> None:
    """Drop the process-wide memo of experiment contexts, so ``prepare()``
    builds datasets and indexes again as a new process would."""
    for obj in vars(contexts).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def experiments() -> list[str]:
    return [e for e in experiment_ids() if build_spec(e).deterministic]


def render(tables) -> str:
    return "\n\n".join(table.render() for table in tables)


def cold_round(ids: list[str], cache_dir: Path) -> Round:
    """Prepare and run every experiment in ``ids`` through an empty cache."""
    _forget_contexts()
    cache = TimedCache(cache_dir)
    out = Round()
    for exp in ids:
        gc.collect()
        spec = build_spec(exp)
        cell_s = [0.0]

        def timed_cell(ctx, config, seed, cell=spec.cell):
            start = time.perf_counter()
            try:
                return cell(ctx, config, seed)
            finally:
                cell_s[0] += time.perf_counter() - start

        try:
            start = time.perf_counter()
            ctx = spec.prepare()
            prepared = time.perf_counter()
            runner = SweepRunner(
                replace(spec, prepare=lambda: ctx, cell=timed_cell),
                cache=cache,
            )
            result = runner.run()
            done = time.perf_counter()
        except Exception:
            traceback.print_exc()
            out.failed.add(exp)
            continue
        out.setup_s += prepared - start
        out.wall_s += done - prepared
        out.prepare_s[exp] = prepared - start
        out.cell_s[exp] = cell_s[0]
        out.tables[exp] = render(result.tables)
        out.rows[exp] = result.rows
        if exp == "e5":
            out.e5_context = ctx
        del ctx
    out.cache_put_s = cache.put_s
    return out


def warm_pass(reference: Round, cache_dir: Path) -> tuple[float, dict]:
    """Re-run every experiment from ``reference``'s cache; returns the
    pass's host time and the problems found per experiment."""
    problems: dict[str, list[str]] = {}
    start = time.perf_counter()
    for exp, tables in reference.tables.items():
        try:
            result = SweepRunner(
                build_spec(exp), cache=ResultCache(cache_dir)
            ).run()
        except Exception as exc:
            problems[exp] = [f"warm pass raised {exc!r}"]
            continue
        found = checks.warm_pass(tables, render(result.tables),
                                 result.computed)
        if found:
            problems[exp] = found
    return time.perf_counter() - start, problems


def check_outputs(reference: Round, seed: int) -> dict[str, list[str]]:
    """Run the independent checks; problems keyed by the experiment
    whose model each check covers.  ``seed`` draws the checks' inputs."""
    rng = np.random.default_rng([seed, 0x7AB1E5])
    problems: dict[str, list[str]] = {}

    def guarded(exp: str, check) -> None:
        if exp in reference.failed:
            return
        try:
            found = check()
        except Exception as exc:
            traceback.print_exc()
            found = [f"check raised {exc!r}"]
        if found:
            problems.setdefault(exp, []).extend(found)

    def fanns():
        ctx = reference.e5_context
        data = ctx["data"]
        return checks.fanns_recall(reference.rows["e5"], ctx["index"],
                                   data.base, data.queries)

    def microrec():
        rows = tuple(sorted(int(r) for r in rng.integers(2, 40, size=8)))
        spec = RecModelSpec(table_rows=rows + (500, 2_000))
        tables = EmbeddingTables(spec, seed=int(rng.integers(1 << 30)))
        plan = plan_cartesian(
            spec, byte_budget=64 * spec.total_embedding_bytes
        )
        if max(len(group) for group in plan.groups) < 2:
            return ["the Cartesian plan combined no tables"]
        trace = np.stack(
            [rng.integers(0, r, size=256) for r in spec.table_rows], axis=1
        )
        return checks.cartesian_lookup(tables.tables, trace,
                                       plan.lookup(tables, trace))

    def accl():
        found = []
        for nodes in (4, 8):
            inputs = [rng.integers(-1000, 1000, size=4096).astype(np.float64)
                      for _ in range(nodes)]
            for algorithm in ("ring", "tree"):
                outcome = FpgaCluster(nodes).allreduce(
                    [b.copy() for b in inputs], algorithm=algorithm
                )
                found += checks.allreduce_sum(
                    inputs, outcome.buffers, f"{algorithm} on {nodes} nodes"
                )
        return found

    def farview():
        n = 100_000
        key = rng.integers(0, 1_000_000, size=n)
        val = rng.integers(0, 1000, size=n).astype(np.float64)
        below = int(rng.integers(50_000, 500_000))
        server = FarviewServer()
        server.store("t", Table({"key": key, "val0": val}))
        plan = QueryPlan((
            Filter(col("key") < below),
            Aggregate((AggSpec(AggFunc.SUM, "val0", "sum"),
                       AggSpec(AggFunc.COUNT, "val0", "count"))),
        ))
        result = server.execute(plan, "t").result
        return checks.filter_sum(
            key, val, below,
            {name: result.column(name)[0].item() for name in ("sum", "count")},
        )

    def core():
        kernel = synthesize(
            LoopNest(name="stream-op", trip_count=1_000_000, ops=_E1_OPS),
            Pragmas(pipeline=True, pipeline_ii=2),
        )
        [ablation] = [r for r in reference.rows["e1"]
                      if r["part"] == "ablation"]
        return checks.pipeline_time(ablation["t_item_us"], kernel, _E1_ITEMS)

    guarded("e5", fanns)
    guarded("e8", microrec)
    guarded("e10", accl)
    guarded("e3", farview)
    guarded("e1", core)
    return problems


def run(seed: int, seconds: float, trace: bool, workdir: Path,
        package_root: Path) -> dict:
    ids = experiments()
    cells = {exp: build_spec(exp).cells for exp in ids}
    start = time.perf_counter()
    rounds = [cold_round(ids, workdir / "cache0")]
    while not trace and time.perf_counter() - start < seconds:
        rounds.append(cold_round(ids, workdir / f"cache{len(rounds)}"))
    reference = rounds[0]

    problems: dict[str, list[str]] = {}
    for later in rounds[1:]:
        for exp, tables in later.tables.items():
            if reference.tables.get(exp, tables) != tables:
                problems.setdefault(exp, []).append(
                    "a later round rendered different tables")
    warm_s, found = warm_pass(reference, workdir / "cache0")
    for exp, items in found.items():
        problems.setdefault(exp, []).extend(items)
    for exp, items in check_outputs(reference, seed).items():
        problems.setdefault(exp, []).extend(items)

    traced = None
    if trace:
        traced = _traced_round(ids, workdir / "traced", package_root)
        rounds.append(traced["round"])
        for exp, tables in traced["round"].tables.items():
            if reference.tables.get(exp) != tables:
                problems.setdefault(exp, []).append(
                    "the traced round rendered different tables")

    for exp, items in problems.items():
        for item in items:
            print(f"[tables-full] {exp}: {item}", flush=True)
    attempted = len(rounds) * sum(cells.values())
    failed = sum(
        cells[exp] for r in rounds for exp in r.failed
    ) + sum(cells[exp] for exp in problems if exp not in reference.failed)
    result = {
        "correct": not problems and not any(r.failed for r in rounds),
        "attempted": attempted,
        "failed": failed,
    }
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "setup_s": statistics.median(r.setup_s for r in rounds),
        }
        return result

    t_round = traced["round"]
    metrics = {f"{layer}.self_s": secs
               for layer, secs in traced["self_s"].items()}
    for exp in ids:
        metrics[f"{exp}.prepare_s"] = reference.prepare_s.get(exp, 0.0)
        metrics[f"{exp}.cell_s"] = reference.cell_s.get(exp, 0.0)
    counts = traced["counts"]
    metrics.update({
        "microrec.materialized_mb": counts["materialized_bytes"] / 1e6,
        "fanns.adc_table_calls": counts["adc_table_calls"],
        "accl.allreduce_calls": counts["allreduce_calls"],
        "exec.cache_put_s": reference.cache_put_s,
        "exec.warm_pass_s": warm_s,
        "trace.overhead": (
            (t_round.setup_s + t_round.wall_s)
            / (reference.setup_s + reference.wall_s)
        ),
    })
    result["metrics"] = metrics
    return result


def _traced_round(ids: list[str], cache_dir: Path, package_root: Path):
    """A cold round under cProfile with the data-plane probes installed."""
    profile = cProfile.Profile()
    with data_plane_probes() as counts:
        profile.enable()
        try:
            traced = cold_round(ids, cache_dir)
        finally:
            profile.disable()
    return {"round": traced, "counts": dict(counts),
            "self_s": self_times(profile, package_root)}
