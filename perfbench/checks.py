"""Independent output checks.

Every check compares a program output against a computation made here
with plain numpy, or against a property the modelled method must have.
None compares against a stored copy of an earlier output.  A check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

PS_PER_S = 1_000_000_000_000


def _exact_knn(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest base ids per query, by float64 squared L2."""
    base = np.asarray(base, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    dists = (
        (queries ** 2).sum(axis=1)[:, None]
        - 2.0 * queries @ base.T
        + (base ** 2).sum(axis=1)[None, :]
    )
    return np.argsort(dists, axis=1, kind="stable")[:, :k]


def fanns_recall(
    rows: list[dict], index, base: np.ndarray, queries: np.ndarray,
    k: int = 10,
) -> list[str]:
    """e5's recall column against the index's own search scored by
    exact brute force.

    The recall is recomputed with this module's k-NN, so a wrong
    ground truth or a wrong search both show; one neighbour missed or
    gained moves recall by ``1 / (queries * k)``.
    """
    truth = _exact_knn(base, queries, k)
    problems = []
    for row in rows:
        found = index.search(queries, k, row["nprobe"])
        hits = sum(
            len(set(found[i].tolist()) & set(truth[i].tolist()))
            for i in range(len(queries))
        )
        recall = hits / (len(queries) * k)
        if not math.isclose(recall, row["recall"], abs_tol=1e-12):
            problems.append(
                f"e5 nprobe={row['nprobe']}: reported recall "
                f"{row['recall']:.4f}, brute force gives {recall:.4f}"
            )
    return problems


def cartesian_lookup(
    tables: list[np.ndarray], trace: np.ndarray, looked_up: np.ndarray,
) -> list[str]:
    """A combined-layout lookup must return exactly the rows gathered
    from the original tables, in original table order."""
    expected = np.concatenate(
        [table[trace[:, t]] for t, table in enumerate(tables)], axis=1
    )
    if looked_up.shape != expected.shape:
        return [f"lookup shape {looked_up.shape}, expected {expected.shape}"]
    bad = int((looked_up != expected).any(axis=1).sum())
    if bad:
        return [f"{bad} of {len(trace)} looked-up rows differ from a "
                "direct gather"]
    return []


def allreduce_sum(
    inputs: list[np.ndarray], outputs: list[np.ndarray], label: str,
) -> list[str]:
    """Every node must hold the elementwise sum of all inputs.

    Inputs are integer-valued, so the sum is exact in any order.
    """
    expected = np.sum(np.stack(inputs), axis=0)
    if len(outputs) != len(inputs):
        return [f"{label}: {len(outputs)} result buffers for "
                f"{len(inputs)} nodes"]
    bad = [i for i, out in enumerate(outputs)
           if not np.array_equal(out, expected)]
    if bad:
        return [f"{label}: nodes {bad} do not hold the numpy sum"]
    return []


def filter_sum(
    key: np.ndarray, values: np.ndarray, below: int, result: dict,
) -> list[str]:
    """``SUM(values) WHERE key < below`` and the matching row count.

    ``result`` maps ``"sum"``/``"count"`` to what the offload returned.
    Values are integer-valued, so the sum is exact in any order.
    """
    mask = key < below
    expected = {"sum": float(values[mask].sum()), "count": int(mask.sum())}
    return [
        f"offloaded {name} {result[name]!r}, numpy gives {want!r}"
        for name, want in expected.items()
        if result[name] != want
    ]


def pipeline_time(t_item_us: float, kernel, n_items: int) -> list[str]:
    """Simulated item-pipeline time against the HLS cost model:
    ``depth + (n - 1) * II`` cycles at the kernel clock."""
    cycles = kernel.depth + (n_items - 1) * kernel.ii
    expected_us = cycles * kernel.clock.period_ps / 1e6
    if t_item_us != expected_us:
        return [f"e1 item pipeline took {t_item_us} us, the cost model "
                f"gives {expected_us} us"]
    return []


def warm_pass(reference: str, warm: str, computed: int) -> list[str]:
    """A cache-served pass renders the same bytes and computes nothing."""
    problems = []
    if computed:
        problems.append(f"warm pass computed {computed} cells")
    if warm != reference:
        problems.append("warm pass rendered different tables")
    return problems


def accounting(row: dict) -> list[str]:
    """Every offered request completes: none shed, none failed."""
    problems = []
    if row["completed"] != row["offered"]:
        problems.append(
            f"{row['backend']}: {row['completed']} of {row['offered']} "
            "requests completed"
        )
    if row["shed"] or row["failed"]:
        problems.append(
            f"{row['backend']}: shed={row['shed']} failed={row['failed']}"
        )
    return problems


def sparse_latency(row: dict, backend, max_wait_ps: int) -> list[str]:
    """At sparse load a request waits out the batch window alone and is
    served as a batch of one, so the median latency is exactly
    ``max_wait_ps + batch_service_ps(1)``."""
    expected_us = (max_wait_ps + backend.batch_service_ps(1)) / 1e6
    if row["p50_us"] != expected_us:
        return [f"{row['backend']}: p50 {row['p50_us']} us, the cost model "
                f"gives {expected_us} us"]
    return []


def busy_throughput(row: dict, backend, replicas: int) -> list[str]:
    """With enough zero-think clients every batch is full and no replica
    idles, so throughput is the backend's full-batch capacity."""
    problems = []
    capacity = (
        replicas * backend.max_batch * PS_PER_S
        / backend.batch_service_ps(backend.max_batch)
    )
    if not math.isclose(row["achieved_qps"], capacity, rel_tol=1e-9):
        problems.append(
            f"{row['backend']}: achieved {row['achieved_qps']} qps, "
            f"capacity is {capacity} qps"
        )
    if row["mean_batch"] != backend.max_batch:
        problems.append(
            f"{row['backend']}: mean batch {row['mean_batch']}, "
            f"max batch is {backend.max_batch}"
        )
    return problems
