"""Figure regeneration: one function per figure of the paper's §5.3.

Each function runs the corresponding experiment and returns
:class:`~repro.bench.harness.Series` objects whose rows mirror the
series plotted in the paper.  ``python -m repro.bench`` runs them all
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
from ..engine.engine import D3CEngine
from ..workloads.generators import (big_cluster_queries, chain_queries,
                                    churn_rounds, clique_queries,
                                    dynamic_db_rounds,
                                    migration_heavy_rounds,
                                    multi_tenant_rounds,
                                    non_unifying_queries,
                                    range_sweep_pairs,
                                    safety_stress_workload,
                                    three_way_triangles, two_way_pairs)
from .harness import (Series, bench_database, bench_network, run_batch,
                      run_churn, run_dynamic, run_incremental,
                      run_range_sweep, run_sharded, schedule_database,
                      scaled, stopwatch)

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


def churn(round_counts: Sequence[int] | None = None,
          arrivals_per_round: int | None = None,
          network=None, database=None) -> list[Series]:
    """Beyond the paper: the high-churn arrival/expiry service scenario.

    Interleaves arrival blocks, staleness expiry, and set-at-a-time
    coordination rounds (see :func:`repro.workloads.generators.
    churn_rounds` and :func:`repro.bench.harness.run_churn`) — the
    regime a long-running coordination service operates in, where the
    delta-driven scheduler's worklist pays off: per-round cost tracks
    the *churned* queries, not the pending set.
    """
    if network is None:
        network = bench_network()
    if database is None:
        database = bench_database(network)
    if round_counts is None:
        round_counts = [6, 12, 24]
    if arrivals_per_round is None:
        arrivals_per_round = scaled(250)

    series = Series(
        f"Churn: arrival/expiry service rounds "
        f"({arrivals_per_round} arrivals per round)", "rounds")
    for num_rounds in round_counts:
        rounds = churn_rounds(network, num_rounds, arrivals_per_round,
                              seed=arrivals_per_round)
        metrics = run_churn(database, rounds)
        series.add(num_rounds, seconds=metrics["seconds"],
                   throughput_qps=metrics["throughput_qps"],
                   answered=metrics["answered"],
                   expired=metrics["failed_stale"])
    return [series]


def sharded(shard_counts: Sequence[int] | None = None,
            num_rounds: int | None = None,
            arrivals_per_round: int | None = None,
            backend: str = "process",
            network=None, database=None) -> list[Series]:
    """Beyond the paper: the sharded service on multi-tenant traffic.

    Drives the skewed multi-tenant arrival scenario (see
    :func:`repro.workloads.generators.multi_tenant_rounds`) through a
    single engine and through :class:`repro.shard.coordinator.
    ShardedCoordinator` fleets of growing size.  Process-backed shards
    are the point — each worker owns its components on its own core,
    the first configuration whose coordination hot path is not
    GIL-bound — but note the scaling column is only meaningful on a
    multi-core host (``os.cpu_count() > 1``; a single core only pays
    the serialization overhead).
    The migrations column counts cross-shard component moves (the
    two-phase protocol at work).
    """
    if network is None:
        network = bench_network()
    if database is None:
        database = bench_database(network)
    if shard_counts is None:
        shard_counts = [1, 2, 4]
    if num_rounds is None:
        num_rounds = 12
    if arrivals_per_round is None:
        arrivals_per_round = scaled(250)
    rounds = multi_tenant_rounds(network, num_rounds,
                                 arrivals_per_round,
                                 seed=arrivals_per_round)

    single_series = Series(
        f"Sharded service: single-engine baseline "
        f"({arrivals_per_round} arrivals per round)", "engines")
    metrics = run_churn(database, rounds)
    single_series.add(1, seconds=metrics["seconds"],
                      throughput_qps=metrics["throughput_qps"],
                      answered=metrics["answered"])

    shard_series = Series(
        f"Sharded service: {backend}-backed shards", "shards")
    for num_shards in shard_counts:
        metrics = run_sharded(database, rounds, num_shards,
                              backend=backend)
        shard_series.add(num_shards, seconds=metrics["seconds"],
                         throughput_qps=metrics["throughput_qps"],
                         answered=metrics["answered"],
                         migrations=metrics["migrations"])
    return [single_series, shard_series]


def migration_heavy(num_rounds: int | None = None,
                    arrivals_per_round: int | None = None,
                    num_shards: int = 2,
                    backend: str = "process",
                    network=None, database=None) -> list[Series]:
    """Beyond the paper: migration-dominated rendezvous traffic.

    Drives :func:`repro.workloads.generators.migration_heavy_rounds`
    (steep-skew cross-tenant triples — most arrivals entangle
    components on different shards) through the sharded service twice:
    once with the PR 3-era transport shape (one manifest exchange per
    co-location decision, ``migration_batching=False``) and once with
    batched per-(source, destination) manifests on the pipelined
    protocol.  The columns to compare are ``wire_per_round`` (protocol
    commands issued per round) and ``manifests`` — the moved-query
    count is identical by construction, the exchanges collapse.
    """
    if network is None:
        network = bench_network()
    if database is None:
        database = bench_database(network)
    if num_rounds is None:
        num_rounds = 10
    if arrivals_per_round is None:
        arrivals_per_round = scaled(200)
    rounds = migration_heavy_rounds(network, num_rounds,
                                    arrivals_per_round,
                                    seed=arrivals_per_round)
    series = Series(
        f"Migration-heavy rendezvous traffic: {backend}-backed "
        f"{num_shards}-shard fleet (manifest batching off/on)",
        "batching")
    for batching in (False, True):
        metrics = run_sharded(database, rounds, num_shards,
                              backend=backend,
                              migration_batching=batching)
        series.add(int(batching), seconds=metrics["seconds"],
                   wire_per_round=metrics["wire_requests_per_round"],
                   manifests=metrics["migrations"],
                   moved=metrics["migrated_queries"],
                   answered=metrics["answered"])
    return [series]


def dynamic_db(round_counts: Sequence[int] | None = None,
               arrivals_per_round: int | None = None,
               network=None, database=None) -> list[Series]:
    """Beyond the paper: live database mutations under pending queries.

    Drives :func:`repro.workloads.generators.dynamic_db_rounds` — gate
    rows arriving and retracting while coordination queries are pending
    — through :func:`repro.bench.harness.run_dynamic` twice per point:
    once with ``invalidate_cache()`` after every mutation batch (the
    full-recompute baseline: every component re-matched, every
    data-dependent cache dropped) and once with the default targeted
    invalidation, where a mutation re-queues only the components whose
    plans read the mutated table.  Both answer identically; the
    ``speedup`` column is the delta-driven win.
    """
    if network is None:
        network = bench_network()
    if database is None:
        database = bench_database(network)
    if round_counts is None:
        round_counts = [8, 16, 24]
    if arrivals_per_round is None:
        arrivals_per_round = scaled(250)

    series = Series(
        f"Dynamic DB: live mutations, targeted invalidation vs full "
        f"recompute ({arrivals_per_round} arrivals per round)", "rounds")
    for num_rounds in round_counts:
        rounds = dynamic_db_rounds(network, num_rounds,
                                   arrivals_per_round,
                                   seed=arrivals_per_round)
        full = run_dynamic(database, rounds, ttl_rounds=10,
                           full_recompute=True)
        delta = run_dynamic(database, rounds, ttl_rounds=10)
        if delta["answered"] != full["answered"]:
            raise RuntimeError(
                f"dynamic_db diverged: targeted answered "
                f"{delta['answered']} vs full recompute "
                f"{full['answered']}")
        series.add(num_rounds, seconds=delta["seconds"],
                   full_recompute_seconds=full["seconds"],
                   speedup=(full["seconds"] / delta["seconds"]
                            if delta["seconds"] > 0 else 0.0),
                   answered=delta["answered"],
                   mutations=delta["mutation_ops"])
    return [series]


def range_sweep(sizes: Sequence[int] | None = None,
                network=None) -> list[Series]:
    """Beyond the paper: slot-window coordination over ordered indexes.

    Drives :func:`repro.workloads.generators.range_sweep_pairs` — friend
    pairs whose bodies carry inequality slot windows — through
    :func:`repro.bench.harness.run_range_sweep` twice per point: once
    with ordered-index pushdown disabled (every body evaluation scans
    the schedule table and filters) and once with the default compiled
    range probes.  Both legs answer identically (enforced); the
    ``speedup`` column plus the probe/pruned-row counters show the
    pushdown win at the engine level.  The *wall-clock* gap here is
    diluted by per-query coordination overhead — the undiluted
    database-level figure is the ``range_scan`` regression probe.
    """
    if network is None:
        network = bench_network()
    database = schedule_database(network)
    if sizes is None:
        sizes = [scaled(size, 2) for size in (200, 800, 2_400)]

    series = Series("Range sweep: slot-window pairs, ordered-index "
                    "pushdown vs scan-and-filter", "queries")
    for size in sizes:
        queries = range_sweep_pairs(network, size, seed=size)
        baseline = run_range_sweep(database, queries, pushdown=False)
        pushed = run_range_sweep(database, queries, pushdown=True)
        if pushed["answered"] != baseline["answered"]:
            raise RuntimeError(
                f"range_sweep diverged: pushdown answered "
                f"{pushed['answered']} vs baseline "
                f"{baseline['answered']}")
        series.add(size, seconds=pushed["seconds"],
                   baseline_seconds=baseline["seconds"],
                   speedup=(baseline["seconds"] / pushed["seconds"]
                            if pushed["seconds"] > 0 else 0.0),
                   answered=pushed["answered"],
                   range_probes=pushed["range_probes"],
                   range_pruned=pushed["range_pruned"])
    return [series]


def run_all() -> list[Series]:
    """Run every figure and return all series (also printed)."""
    all_series: list[Series] = []
    for runner in (figure6, figure7, figure8, figure9, churn, sharded,
                   migration_heavy, dynamic_db, range_sweep):
        start = time.perf_counter()
        produced = runner()
        elapsed = time.perf_counter() - start
        for series in produced:
            series.print()
        print(f"[{runner.__name__} completed in {elapsed:.1f}s]")
        all_series.extend(produced)
    return all_series
