"""Figure regeneration: one function per figure of the paper's §5.3.

Each function runs the corresponding experiment and returns
:class:`~repro.bench.harness.Series` objects whose rows mirror the
series plotted in the paper.  ``python -m repro bench`` runs them all
and prints the tables; the pytest-benchmark wrappers in ``benchmarks/``
call the same code.

What to compare against the paper (shapes, not absolute numbers —
see EXPERIMENTS.md):

* **Figure 6** — all three scalability series grow near-linearly in
  the number of queries; "specific" (best-case) beats "generic"
  (random) because naming the partner removes a join from the body.
* **Figure 7** — total time splits into matching vs database time;
  matching stays modest as postconditions grow 1→5 while database time
  grows much faster (more joins per combined query).
* **Figure 8** — "no unification" is cheapest and linear; "usual
  partitions" (chains) stays near-linear; the single big cluster
  degrades sharply in incremental mode and is clearly better
  set-at-a-time.
* **Figure 9** — safety-check time for an added query set against 20k
  residents is linear in the added-set size and small in absolute
  terms.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core.safety import SafetyChecker
from ..workloads.generators import (big_cluster_queries, chain_queries,
                                    clique_queries, non_unifying_queries,
                                    safety_stress_workload,
                                    three_way_triangles, two_way_pairs)
from .harness import (Series, bench_database, bench_network, run_batch,
                      run_incremental, scaled, stopwatch)

#: Default query-set sizes for the Figure 6 sweep (paper: 5 … 100,000).
FIG6_SIZES = (6, 60, 600, 3_000, 12_000)
#: Postcondition counts for Figure 7 (paper: 1 … 5).
FIG7_POSTCONDITIONS = (1, 2, 3, 4, 5)
#: Queries per Figure 7 run (paper: 10,000).
FIG7_QUERIES = 1_200
#: Sizes for the Figure 8 stress series.
FIG8_SIZES = (500, 1_000, 2_000, 4_000)
#: Big-cluster sizes (quadratic edge growth and, under the paper's
#: per-component incremental strategy, per-closure re-evaluation of the
#: whole partition; kept modest by default).
FIG8_CLUSTER_SIZES = (50, 100, 200)
#: Resident count for Figure 9 (paper: 20,000).
FIG9_RESIDENTS = 4_000
#: Added-set sizes for Figure 9 (paper: 5 … 100,000).
FIG9_ADDITIONS = (5, 50, 500, 5_000)


def figure6(sizes: Sequence[int] | None = None,
            network=None, database=None) -> list[Series]:
    """Figure 6: scalability of 2-way (generic/specific) and 3-way."""
    if network is None:
        network = bench_network()
    if database is None:
        database = bench_database(network)
    if sizes is None:
        sizes = [scaled(size, 6) for size in FIG6_SIZES]

    generic = Series("Fig 6: two-way coordination, random workload",
                     "queries")
    specific = Series("Fig 6: two-way coordination, best case (specific)",
                      "queries")
    threeway = Series("Fig 6: three-way coordination", "queries")
    for size in sizes:
        metrics = run_incremental(
            database, two_way_pairs(network, size, seed=size))
        generic.add(size, seconds=metrics["seconds"],
                    throughput_qps=metrics["throughput_qps"],
                    answered=metrics["answered"])
        metrics = run_incremental(
            database, two_way_pairs(network, size, specific=True,
                                    seed=size))
        specific.add(size, seconds=metrics["seconds"],
                     throughput_qps=metrics["throughput_qps"],
                     answered=metrics["answered"])
        metrics = run_incremental(
            database, three_way_triangles(network, size, seed=size))
        threeway.add(size, seconds=metrics["seconds"],
                     throughput_qps=metrics["throughput_qps"],
                     answered=metrics["answered"])
    return [generic, specific, threeway]


def figure7(postcondition_counts: Sequence[int] | None = None,
            num_queries: int | None = None,
            network=None, database=None) -> list[Series]:
    """Figure 7: matching time vs database time as postconditions grow."""
    if network is None:
        network = bench_network()
    if database is None:
        database = bench_database(network)
    if postcondition_counts is None:
        postcondition_counts = FIG7_POSTCONDITIONS
    if num_queries is None:
        num_queries = scaled(FIG7_QUERIES, 60)

    series = Series("Fig 7: scalability in the number of postconditions "
                    f"({num_queries} queries)", "postconditions")
    for count in postcondition_counts:
        group_size = count + 1
        size = num_queries - (num_queries % group_size)
        queries = clique_queries(network, size, count, seed=count)
        metrics = run_incremental(database, queries)
        series.add(count,
                   match_seconds=(metrics["match_seconds"]
                                  + metrics["graph_seconds"]),
                   db_seconds=metrics["db_seconds"],
                   total_seconds=metrics["seconds"],
                   answered=metrics["answered"])
    return [series]


def figure8(sizes: Sequence[int] | None = None,
            cluster_sizes: Sequence[int] | None = None,
            network=None, database=None) -> list[Series]:
    """Figure 8: stress workloads where little coordination happens."""
    if network is None:
        network = bench_network()
    if database is None:
        database = bench_database(network)
    if sizes is None:
        sizes = [scaled(size) for size in FIG8_SIZES]
    if cluster_sizes is None:
        cluster_sizes = [scaled(size) for size in FIG8_CLUSTER_SIZES]

    no_unify = Series("Fig 8: no coordination, no unification", "queries")
    chains = Series("Fig 8: usual partitions (unifying chains)", "queries")
    for size in sizes:
        metrics = run_incremental(
            database, non_unifying_queries(network, size, seed=size))
        no_unify.add(size, seconds=metrics["seconds"],
                     throughput_qps=metrics["throughput_qps"])
        metrics = run_incremental(
            database, chain_queries(network, size, seed=size))
        chains.add(size, seconds=metrics["seconds"],
                   throughput_qps=metrics["throughput_qps"])

    cluster_paper = Series(
        "Fig 8: single large cluster, incremental (paper's "
        "per-component strategy)", "queries")
    cluster_batch = Series(
        "Fig 8: single large cluster, set-at-a-time", "queries")
    cluster_local = Series(
        "Fig 8: single large cluster, incremental (this repo's "
        "local-group strategy)", "queries")
    for size in cluster_sizes:
        queries = big_cluster_queries(network, size, seed=size)
        metrics = run_incremental(database, queries,
                                  incremental_strategy="component")
        cluster_paper.add(size, seconds=metrics["seconds"],
                          answered=metrics["answered"],
                          closures=metrics["closure_events"],
                          combined=metrics["combined_queries_built"])
        metrics = run_batch(database, queries)
        cluster_batch.add(size, seconds=metrics["seconds"],
                          answered=metrics["answered"],
                          rounds=metrics["coordination_rounds"],
                          combined=metrics["combined_queries_built"])
        metrics = run_incremental(database, queries)
        cluster_local.add(size, seconds=metrics["seconds"],
                          answered=metrics["answered"])
    return [no_unify, chains, cluster_paper, cluster_batch,
            cluster_local]


def figure9(resident_count: int | None = None,
            addition_sizes: Sequence[int] | None = None,
            network=None) -> list[Series]:
    """Figure 9: safety-check cost against a large resident set."""
    if network is None:
        network = bench_network()
    if resident_count is None:
        resident_count = scaled(FIG9_RESIDENTS)
    if addition_sizes is None:
        addition_sizes = [scaled(size) for size in FIG9_ADDITIONS]

    workload = safety_stress_workload(network, resident_count,
                                      addition_sizes)
    checker = SafetyChecker()
    with stopwatch() as elapsed:
        for query in workload.resident:
            checker.add(query.rename_apart())
    load_seconds = elapsed()

    series = Series(f"Fig 9: safety-check time vs added-set size "
                    f"({resident_count} resident queries, "
                    f"load {load_seconds:.2f}s)", "added queries")
    for batch in workload.additions:
        rejected = 0
        with stopwatch() as elapsed:
            for query in batch:
                if not checker.is_safe_to_add(query.rename_apart()):
                    rejected += 1
        series.add(len(batch), seconds=elapsed(), rejected=rejected)
    return [series]


#: ``repro bench`` figure number -> runner.
FIGURES = {"6": figure6, "7": figure7, "8": figure8, "9": figure9}


def run_all() -> list[Series]:
    """Run every figure and return all series (also printed)."""
    all_series: list[Series] = []
    for runner in FIGURES.values():
        start = time.perf_counter()
        produced = runner()
        elapsed = time.perf_counter() - start
        for series in produced:
            series.print()
        print(f"[{runner.__name__} completed in {elapsed:.1f}s]")
        all_series.extend(produced)
    return all_series
