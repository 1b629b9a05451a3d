"""Figure 8 — stress-testing query matching.

Paper series:

* "no coordination, no unification" — postconditions that unify with
  nothing; cost is pure per-arrival index lookups, near-linear;
* "usual partitions" — long unification chains that never close; the
  incremental unifier propagation dominates but stays near-linear
  because partitions stay bounded;
* one massively unifying cluster — the paper's incremental mode
  degrades sharply here because every arrival closes the partition
  again and re-evaluates it, so set-at-a-time evaluation of the same
  workload is far cheaper.  This reproduction keeps the per-arrival
  closures but carries the matching state and its "empty on the data"
  verdict between them (DESIGN.md §5a), so the re-evaluation — and
  with it the paper's gap — is gone; what the report asserts is that
  accounting, not a wall-clock ordering (EXPERIMENTS.md "Figure 8").
"""

from __future__ import annotations

import pytest

from repro.bench import figure8, run_batch, run_incremental, scaled
from repro.workloads import (big_cluster_queries, chain_queries,
                             non_unifying_queries)

POINT_SIZE = scaled(2_000)
CLUSTER_SIZE = scaled(200)


def test_no_unification(benchmark, network, database):
    queries = non_unifying_queries(network, POINT_SIZE, seed=21)
    result = benchmark.pedantic(
        lambda: run_incremental(database, queries),
        rounds=1, iterations=1)
    assert result["answered"] == 0
    assert result["pending"] == POINT_SIZE


def test_usual_partitions_chains(benchmark, network, database):
    queries = chain_queries(network, POINT_SIZE, seed=22)
    result = benchmark.pedantic(
        lambda: run_incremental(database, queries),
        rounds=1, iterations=1)
    assert result["answered"] == 0


@pytest.mark.slow
def test_big_cluster_incremental_paper_strategy(benchmark, network,
                                                database):
    queries = big_cluster_queries(network, CLUSTER_SIZE, seed=23)
    benchmark.pedantic(
        lambda: run_incremental(database, queries,
                                incremental_strategy="component"),
        rounds=1, iterations=1)


def test_big_cluster_incremental_local_strategy(benchmark, network,
                                                database):
    queries = big_cluster_queries(network, CLUSTER_SIZE, seed=23)
    benchmark.pedantic(lambda: run_incremental(database, queries),
                       rounds=1, iterations=1)


def test_big_cluster_set_at_a_time(benchmark, network, database):
    queries = big_cluster_queries(network, CLUSTER_SIZE, seed=23)
    benchmark.pedantic(lambda: run_batch(database, queries),
                       rounds=1, iterations=1)


@pytest.mark.slow
def test_fig8_report(benchmark, network, database):
    """Full Figure 8 sweep; prints all five series."""
    all_series = benchmark.pedantic(
        lambda: figure8(network=network, database=database),
        rounds=1, iterations=1)
    for series in all_series:
        series.print()
    by_name = {series.name: series for series in all_series}
    paper = by_name["Fig 8: single large cluster, incremental "
                    "(paper's per-component strategy)"]
    batch = by_name["Fig 8: single large cluster, set-at-a-time"]
    sizes = paper.xs()
    answered = paper.metric("answered")
    closures = paper.metric("closures")
    # Still the paper's regime: the incremental strategy closes the
    # partition again on every arrival that finds company (all but the
    # first, and the first after a settlement emptied the cluster),
    # where set-at-a-time runs one round over the whole cluster...
    for size, closed, settled in zip(sizes, closures, answered):
        assert size - settled - 1 <= closed <= size
    assert batch.metric("rounds") == [1] * len(sizes)
    # ...but a closure no longer re-evaluates.  The data never changes
    # in this figure, so every combined query built either settles
    # queries or leaves the one verdict all later closures are answered
    # from: builds are bounded by settlements, not one per closure.
    for built, settled in zip(paper.metric("combined"), answered):
        assert built <= settled + 1
    assert paper.metric("combined")[-1] <= closures[-1] // 4
    # With the re-evaluation gone the two land within noise of each
    # other (0.7-1.2x); only a loose guard on the ratio is kept.
    assert (sum(paper.metric("seconds"))
            <= 3 * sum(batch.metric("seconds"))), (
        "per-component incremental evaluation should stay within 3x "
        "of set-at-a-time on one huge cluster")
