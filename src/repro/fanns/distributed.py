"""Distributed FANNS: sharded vector search over an FPGA cluster.

The tutorial's Figure-1 rack and Use Case IV infrastructure exist so
systems like FANNS can scale past one card.  The standard recipe for
distributed IVF (also used by FleetRec's retrieval tier):

* the coarse quantizer (centroids) is replicated on every node;
* inverted lists are partitioned round-robin across nodes;
* a query broadcasts to all nodes, each scans the probed lists *it
  owns* and returns its local top-k;
* the root gathers ``P`` candidate lists and merges — which yields
  exactly the single-node result, because the union of scanned
  candidates is identical.

Latency = slowest node + gather + merge; throughput scales with nodes
because every node scans ~1/P of the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..accl.cluster import FpgaCluster
from ..core.clocking import FABRIC_300MHZ
from ..core.device import ALVEO_U55C, Device
from .accelerator import FannsAccelerator, FannsConfig
from .ivf import IVFPQIndex

__all__ = ["DistributedFanns", "DistributedSearchOutcome"]

_RESULT_ENTRY_BYTES = 12  # 8 B id + 4 B distance


@dataclass(frozen=True)
class DistributedSearchOutcome:
    """Results plus the latency/throughput model of a sharded search."""

    ids: np.ndarray
    node_latency_s: float     # slowest shard's accelerator latency
    gather_s: float           # shipping local top-k to the root
    merge_s: float            # root-side k-way merge
    query_latency_s: float
    qps: float


class DistributedFanns:
    """One logical index served by a cluster of FANNS accelerators."""

    def __init__(
        self,
        index: IVFPQIndex,
        n_nodes: int,
        config: FannsConfig = FannsConfig(),
        device: Device = ALVEO_U55C,
        list_scale: int = 1,
        cluster: FpgaCluster | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.index = index
        self.n_nodes = n_nodes
        self.cluster = cluster or FpgaCluster(n_nodes)
        # Each node owns lists l with l % n_nodes == node, every list at
        # full deployment length; a probed set of nprobe lists gives each
        # node ~nprobe/P of them to scan (handled in :meth:`search`).
        self._shard_accels = [
            FannsAccelerator(index, config, device, list_scale=list_scale)
            for _ in range(n_nodes)
        ]
        self.list_scale = list_scale

    def _owner(self, list_id: int) -> int:
        return list_id % self.n_nodes

    def shard_list_counts(self) -> list[int]:
        """How many inverted lists each node owns."""
        counts = [0] * self.n_nodes
        for list_id in range(self.index.nlist):
            counts[self._owner(list_id)] += 1
        return counts

    def search(self, queries: np.ndarray, k: int,
               nprobe: int) -> DistributedSearchOutcome:
        """Sharded search; ids match the single-node index exactly."""
        # Functional path: global search (provably equal to gathering
        # and merging per-shard top-k; tested against an explicit
        # shard-and-merge in the test suite).
        ids = self.index.search(queries, k, nprobe)

        # Performance: every node scans its ~1/P share of the probed
        # lists (round-robin ownership spreads any probe set evenly).
        per_node = min(math.ceil(nprobe / self.n_nodes), self.index.nlist)
        stages = self._shard_accels[0].stage_times(per_node)
        node_latency = stages.latency_s
        # Gather: P-1 nodes ship k entries to the root in one step.
        gather_transfers = [
            (node, 0, k * _RESULT_ENTRY_BYTES)
            for node in range(1, self.n_nodes)
        ]
        gather_s = self.cluster.fabric.parallel_step_ps(gather_transfers) / 1e12
        # Root merge: a k-way selection over P*k entries at one per cycle.
        merge_s = FABRIC_300MHZ.cycles_to_seconds(self.n_nodes * k)
        latency = node_latency + gather_s + merge_s
        bottleneck = max(stages.bottleneck_s, gather_s, merge_s)
        return DistributedSearchOutcome(
            ids=ids,
            node_latency_s=node_latency,
            gather_s=gather_s,
            merge_s=merge_s,
            query_latency_s=latency,
            qps=1.0 / bottleneck,
        )

    def shard_and_merge(self, queries: np.ndarray, k: int,
                        nprobe: int) -> np.ndarray:
        """The explicit distributed algorithm, for verification.

        Runs the per-shard searches and the root merge in plain numpy;
        must return exactly what :meth:`search` returns.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        out = np.full((queries.shape[0], k), -1, dtype=np.int64)
        centroids = self.index.centroids
        c_sq = (centroids ** 2).sum(axis=1)
        for qi, query in enumerate(queries):
            coarse = c_sq - 2.0 * (centroids @ query)
            probe = np.argpartition(coarse, nprobe - 1)[:nprobe]
            all_ids: list[np.ndarray] = []
            all_dists: list[np.ndarray] = []
            for node in range(self.n_nodes):
                local_lists = [l for l in probe if self._owner(l) == node]
                ids_l, dists_l = self.index.scan_lists(query, local_lists)
                if not ids_l:
                    continue
                ids_cat = np.concatenate(ids_l)
                dists_cat = np.concatenate(dists_l)
                top = min(k, len(ids_cat))
                # Local top-k under the same (distance, id) total order
                # the single-node index uses: every member of the
                # global top-k is then guaranteed to survive its
                # shard's cut, ties included.
                part = np.lexsort((ids_cat, dists_cat))[:top]
                all_ids.append(ids_cat[part])
                all_dists.append(dists_cat[part])
            if not all_ids:
                continue
            ids_cat = np.concatenate(all_ids)
            dists_cat = np.concatenate(all_dists)
            top = min(k, len(ids_cat))
            order = np.lexsort((ids_cat, dists_cat))[:top]
            out[qi, :top] = ids_cat[order]
        return out
