"""Unit tests for product quantization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fanns.ivf import SearchStats, build_ivfpq
from repro.fanns.pq import ProductQuantizer, train_pq
from repro.workloads.vectors import clustered_dataset


def _vectors(n=600, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, dim), dtype=np.float32)


def test_shapes_and_properties():
    pq = train_pq(_vectors(), m=4, ksub=32)
    assert pq.m == 4
    assert pq.ksub == 32
    assert pq.dsub == 4
    assert pq.dim == 16
    assert pq.code_nbytes == 4


def test_encode_produces_valid_codes():
    pq = train_pq(_vectors(), m=4, ksub=16)
    codes = pq.encode(_vectors(seed=1))
    assert codes.shape == (600, 4)
    assert codes.dtype == np.uint8
    assert codes.max() < 16


def test_roundtrip_error_bounded():
    vectors = _vectors()
    pq = train_pq(vectors, m=8, ksub=64)
    recon = pq.decode(pq.encode(vectors))
    err = ((vectors - recon) ** 2).sum(axis=1).mean()
    baseline = ((vectors - vectors.mean(axis=0)) ** 2).sum(axis=1).mean()
    # Quantization should explain most of the variance.
    assert err < baseline / 2


def test_more_subspaces_reduce_error():
    vectors = _vectors(seed=2)
    coarse = train_pq(vectors, m=2, ksub=32, seed=1)
    fine = train_pq(vectors, m=8, ksub=32, seed=1)
    err_coarse = ((vectors - coarse.decode(coarse.encode(vectors))) ** 2).sum()
    err_fine = ((vectors - fine.decode(fine.encode(vectors))) ** 2).sum()
    assert err_fine < err_coarse


def test_adc_matches_decoded_distance():
    """ADC distance == exact distance to the *reconstructed* vector."""
    vectors = _vectors(seed=3)
    pq = train_pq(vectors, m=4, ksub=32)
    codes = pq.encode(vectors[:50])
    recon = pq.decode(codes)
    query = vectors[100]
    table = pq.adc_table(query)
    adc = pq.adc_distances(table, codes)
    exact = ((recon - query) ** 2).sum(axis=1)
    assert np.allclose(adc, exact, rtol=1e-4, atol=1e-4)


def _adc_table_loop(pq, query):
    """Reference ADC table: one subquantiser at a time."""
    query = np.ascontiguousarray(query, dtype=np.float32)
    table = np.empty((pq.m, pq.ksub), dtype=np.float32)
    for sub in range(pq.m):
        chunk = query[sub * pq.dsub:(sub + 1) * pq.dsub]
        table[sub] = ((pq.codebooks[sub] - chunk) ** 2).sum(axis=1)
    return table


@pytest.mark.parametrize("dsub", [1, 2, 3, 4, 8, 16])
def test_adc_tables_bit_identical_to_loop(dsub):
    rng = np.random.default_rng(dsub)
    m, ksub = 4, 32
    pq = ProductQuantizer(
        codebooks=rng.standard_normal((m, ksub, dsub)).astype(np.float32)
    )
    queries = 3 * rng.standard_normal((7, m * dsub)).astype(np.float32)
    tables = pq.adc_tables(queries)
    assert tables.shape == (7, m, ksub)
    assert tables.dtype == np.float32
    for query, table in zip(queries, tables):
        expected = _adc_table_loop(pq, query)
        assert np.array_equal(table, expected)
        assert np.array_equal(pq.adc_table(query), expected)


def _search_per_list(index, queries, k, nprobe, stats):
    """Reference IVF-PQ search: one looped ADC table per probed list."""
    out = np.full((queries.shape[0], k), -1, dtype=np.int64)
    c_sq = (index.centroids ** 2).sum(axis=1)
    for qi, query in enumerate(queries):
        coarse = c_sq - 2.0 * (index.centroids @ query)
        probe = np.argpartition(coarse, nprobe - 1)[:nprobe]
        stats.centroid_distances += index.nlist
        ids, dists = [], []
        if not index.residual:
            shared = _adc_table_loop(index.pq, query)
            stats.lut_entries += shared.size
        for list_id in probe:
            codes = index.list_codes[list_id]
            if len(codes) == 0:
                continue
            if index.residual:
                table = _adc_table_loop(
                    index.pq, query - index.centroids[list_id]
                )
                stats.lut_entries += table.size
            else:
                table = shared
            ids.append(index.list_ids[list_id])
            dists.append(index.pq.adc_distances(table, codes))
            stats.codes_scanned += len(codes)
            stats.code_bytes_scanned += codes.nbytes
        if not ids:
            continue
        ids, dists = np.concatenate(ids), np.concatenate(dists)
        top = min(k, len(ids))
        out[qi, :top] = ids[np.lexsort((ids, dists))[:top]]
    stats.n_queries += queries.shape[0]
    return out


@pytest.mark.parametrize("residual", [True, False])
def test_search_ids_and_stats_match_per_list_reference(residual):
    ds = clustered_dataset(
        n=1500, dim=16, n_queries=20, gt_k=5, n_clusters=12,
        cluster_std=0.1, seed=4,
    )
    index = build_ivfpq(ds.base, nlist=48, m=8, ksub=32,
                        residual=residual, seed=1)
    # Empty every third list: both searches must skip empty lists.
    index = dataclasses.replace(
        index,
        list_ids=tuple(ids[:0] if i % 3 == 0 else ids
                       for i, ids in enumerate(index.list_ids)),
        list_codes=tuple(codes[:0] if i % 3 == 0 else codes
                         for i, codes in enumerate(index.list_codes)),
    )
    got_stats, want_stats = SearchStats(), SearchStats()
    got = index.search(ds.queries, k=10, nprobe=12, stats=got_stats)
    want = _search_per_list(index, ds.queries, 10, 12, want_stats)
    assert np.array_equal(got, want)
    assert got_stats == want_stats


def test_adc_empty_codes():
    pq = train_pq(_vectors(), m=4, ksub=16)
    table = pq.adc_table(_vectors()[0])
    assert pq.adc_distances(table, np.empty((0, 4), dtype=np.uint8)).shape == (0,)


def test_dimension_validation():
    pq = train_pq(_vectors(), m=4, ksub=16)
    with pytest.raises(ValueError):
        pq.encode(np.zeros((3, 10), dtype=np.float32))
    with pytest.raises(ValueError):
        pq.adc_table(np.zeros(10, dtype=np.float32))
    with pytest.raises(ValueError):
        pq.adc_tables(np.zeros(16, dtype=np.float32))
    with pytest.raises(ValueError):
        pq.decode(np.zeros((3, 7), dtype=np.uint8))


def test_training_validation():
    with pytest.raises(ValueError):
        train_pq(_vectors(), m=3)  # 16 % 3 != 0
    with pytest.raises(ValueError):
        train_pq(_vectors(), m=4, ksub=300)
    with pytest.raises(ValueError):
        train_pq(_vectors(n=10), m=4, ksub=64)  # too few samples
    with pytest.raises(ValueError):
        train_pq(np.zeros(16, dtype=np.float32), m=4)


@settings(max_examples=10, deadline=None)
@given(
    m=st.sampled_from([1, 2, 4, 8]),
    ksub=st.sampled_from([4, 16, 64]),
)
def test_property_adc_is_nonnegative_and_finite(m, ksub):
    vectors = _vectors(n=200, dim=8, seed=9)
    pq = train_pq(vectors, m=m, ksub=ksub, max_iterations=5)
    codes = pq.encode(vectors)
    table = pq.adc_table(vectors[0])
    d = pq.adc_distances(table, codes)
    assert (d >= 0).all()
    assert np.isfinite(d).all()
