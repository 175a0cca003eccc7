"""Unit and property tests for Cartesian-product table combining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microrec.accelerator import MicroRecAccelerator
from repro.microrec.cartesian import CartesianPlan, plan_cartesian
from repro.microrec.embedding import EmbeddingTables
from repro.workloads.traces import RecModelSpec, lookup_trace


def _spec(rows=(4, 8, 100, 1000), dim=4):
    return RecModelSpec(table_rows=rows, embedding_dim=dim)


def test_identity_plan_when_budget_too_small():
    spec = _spec()
    plan = plan_cartesian(spec, byte_budget=0)
    assert plan.n_lookups == spec.n_tables
    assert plan.lookups_saved == 0
    assert plan.total_bytes == spec.total_embedding_bytes
    assert plan.capacity_overhead == pytest.approx(1.0)


def test_generous_budget_combines_small_tables():
    spec = _spec()
    plan = plan_cartesian(spec, byte_budget=10 * spec.total_embedding_bytes)
    assert plan.n_lookups < spec.n_tables
    # The two smallest tables fuse first (possibly with further tables).
    fused = next(g for g in plan.groups if 0 in g)
    assert 1 in fused
    assert plan.capacity_overhead > 1.0


def test_max_group_rows_caps_fusion():
    spec = _spec(rows=(1000, 1000, 1000))
    plan = plan_cartesian(spec, byte_budget=1 << 40, max_group_rows=1_000)
    assert plan.n_lookups == 3  # any fusion would exceed 1000 rows


def test_groups_partition_tables():
    spec = _spec()
    plan = plan_cartesian(spec, byte_budget=4 * spec.total_embedding_bytes)
    flat = sorted(t for g in plan.groups for t in g)
    assert flat == list(range(spec.n_tables))
    with pytest.raises(ValueError):
        CartesianPlan(spec=spec, groups=((0, 1), (1, 2, 3)))
    with pytest.raises(ValueError):
        CartesianPlan(spec=spec, groups=((0, 1), (2,)))


def test_combined_spec_row_counts_multiply():
    spec = _spec(rows=(4, 8, 100))
    plan = CartesianPlan(spec=spec, groups=((0, 1), (2,)))
    combined = plan.combined_spec()
    assert combined.table_rows == (32, 100)
    assert plan.combined_dims() == (8, 4)
    assert plan.combined_row_bytes() == (32, 16)
    assert plan.total_bytes == 32 * 32 + 100 * 16


def test_rewrite_trace_mixed_radix():
    spec = _spec(rows=(4, 8, 100))
    plan = CartesianPlan(spec=spec, groups=((0, 1), (2,)))
    trace = np.array([[3, 7, 42], [0, 0, 0]])
    combined = plan.rewrite_trace(trace)
    assert combined.shape == (2, 2)
    assert combined[0, 0] == 3 * 8 + 7
    assert combined[0, 1] == 42
    assert combined[1, 0] == 0
    with pytest.raises(ValueError):
        plan.rewrite_trace(np.zeros((2, 2), dtype=np.int64))


def test_combined_lookup_equals_uncombined():
    """The defining correctness property of the Cartesian rewrite."""
    spec = _spec(rows=(4, 6, 50, 200))
    tables = EmbeddingTables(spec, seed=3)
    plan = plan_cartesian(spec, byte_budget=10 * spec.total_embedding_bytes)
    assert plan.lookups_saved >= 1
    trace = lookup_trace(spec, batch_size=32, seed=4)
    assert np.array_equal(plan.lookup(tables, trace), tables.lookup(trace))


def test_materialize_row_contents():
    spec = _spec(rows=(2, 3))
    tables = EmbeddingTables(spec, seed=5)
    plan = CartesianPlan(spec=spec, groups=((0, 1),))
    combined = plan.materialize(tables)[0]
    assert combined.shape == (6, 8)
    # Row (i*3 + j) is [table0[i], table1[j]].
    for i in range(2):
        for j in range(3):
            row = combined[i * 3 + j]
            assert np.array_equal(row[:4], tables.tables[0][i])
            assert np.array_equal(row[4:], tables.tables[1][j])


@pytest.mark.parametrize("bad", [[0, 20], [0, 25], [-1, 0], [10, 0]])
def test_combined_lookup_rejects_out_of_range_ids(bad):
    # Mixed-radix encoding would alias [0, 25] onto table 0 row 1 plus
    # table 1 row 5, and -1 onto the last row: ids are checked per
    # table before encoding, exactly as the uncombined lookup checks.
    spec = _spec(rows=(10, 20))
    tables = EmbeddingTables(spec, seed=2)
    plan = CartesianPlan(spec=spec, groups=((0, 1),))
    trace = np.array([bad])
    with pytest.raises(IndexError):
        tables.lookup(trace)
    with pytest.raises(IndexError):
        plan.rewrite_trace(trace)
    with pytest.raises(IndexError):
        plan.lookup(tables, trace)


def test_lookup_and_accelerator_never_materialize(monkeypatch):
    spec = _spec(rows=(4, 6, 50, 200))
    tables = EmbeddingTables(spec, seed=3)
    plan = plan_cartesian(spec, byte_budget=10 * spec.total_embedding_bytes)
    assert plan.lookups_saved >= 1

    def refuse(self, tables):
        raise AssertionError("product tables were materialised")

    monkeypatch.setattr(CartesianPlan, "materialize", refuse)
    trace = lookup_trace(spec, batch_size=8, seed=4)
    accel = MicroRecAccelerator(tables, plan)
    assert np.array_equal(plan.lookup(tables, trace), tables.lookup(trace))
    assert accel.infer(trace).logits.shape[0] == 8


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        plan_cartesian(_spec(), byte_budget=-1)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                  max_size=6),
    budget_factor=st.floats(min_value=0.0, max_value=20.0),
)
def test_property_plan_valid_and_lookup_exact(rows, budget_factor):
    spec = RecModelSpec(table_rows=tuple(rows), embedding_dim=2)
    budget = int(budget_factor * spec.total_embedding_bytes)
    plan = plan_cartesian(spec, byte_budget=budget)
    # Partition invariant.
    flat = sorted(t for g in plan.groups for t in g)
    assert flat == list(range(spec.n_tables))
    # Budget respected unless nothing was combined.
    if plan.lookups_saved > 0:
        assert plan.total_bytes <= max(budget, spec.total_embedding_bytes)
    # Functional equivalence on a small trace.
    tables = EmbeddingTables(spec, seed=0)
    trace = lookup_trace(spec, batch_size=5, seed=1)
    assert np.array_equal(plan.lookup(tables, trace), tables.lookup(trace))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=1, max_value=7), min_size=3,
                  max_size=6),
    data=st.data(),
)
def test_property_large_groups_lookup_exact(rows, data):
    """Groups of 3+ members decode exactly and agree with the
    materialised reference layout."""
    n = len(rows)
    order = data.draw(st.permutations(range(n)))
    size = data.draw(st.integers(min_value=3, max_value=n))
    groups = [tuple(sorted(order[:size]))]
    if size < n:
        groups.append(tuple(sorted(order[size:])))
    spec = RecModelSpec(table_rows=tuple(rows), embedding_dim=2)
    plan = CartesianPlan(spec=spec, groups=tuple(groups))
    tables = EmbeddingTables(spec, seed=0)
    trace = np.vstack([
        lookup_trace(spec, batch_size=6, seed=1),
        np.zeros((1, n), dtype=np.int64),
        np.array([rows]) - 1,
    ])
    looked_up = plan.lookup(tables, trace)
    assert np.array_equal(looked_up, tables.lookup(trace))
    combined = plan.materialize(tables)
    combined_trace = plan.rewrite_trace(trace)
    dim = spec.embedding_dim
    for g, group in enumerate(plan.groups):
        rows_g = combined[g][combined_trace[:, g]]
        expected = np.concatenate(
            [looked_up[:, t * dim:(t + 1) * dim] for t in group], axis=1
        )
        assert np.array_equal(rows_g, expected)
