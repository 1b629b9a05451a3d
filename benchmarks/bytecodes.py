"""Bytecodes per arrival / per query, counted: the baseline table.

    PYTHONPATH=src python3 benchmarks/bytecodes.py [--scale X] [--seed S]
        [--rows name,name,...]

Timings on a shared host swing by ×2 across sessions; an opcode count
repeats exactly.  This script counts ``"opcode"`` trace events
(``sys.settrace`` with ``frame.f_trace_opcodes = True``) over the bare
service loop of each ledger workload shape: the ledger's generators
(``benchmarks/ledger/workloads.py``, imported, never edited) at seed
12 and scale 1 by default, ``PYTHONHASHSEED=0`` (the script re-executes
itself to set it), one uncounted warm-up epoch, then a fresh service
built outside the counted region, and no ledger ``Recorder`` inside
it.  Counts taken with any other loop do not compare with these.

It prints one table row per loop: bytecodes per arrival (the
``submit()`` loops) or per submitted query (the round loops).  At
scale 1 the seven rows take a few minutes; ``--scale 0.05`` is a smoke
run.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"
for entry in (LEDGER, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

if os.environ.get("PYTHONHASHSEED") != "0":
    # generate_social_network's output depends on string hashing.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

from workloads import (ClusterIncremental, Dataset,  # noqa: E402
                       DynamicDurableRounds, PairsIncremental,
                       ShardedRounds, apply_directly)

from repro.durability import DurableEngine  # noqa: E402
from repro.engine import D3CEngine, ManualClock  # noqa: E402
from repro.obs.trace import set_tracing  # noqa: E402
from repro.shard import ShardedCoordinator  # noqa: E402


def counted(loop) -> int:
    """Opcodes executed by ``loop()`` on this thread."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    # The previous epoch's service is cyclic garbage; its finalizers
    # must not run inside the count.
    gc.collect()
    sys.settrace(call)
    try:
        loop()
    finally:
        sys.settrace(None)
    return count


def per_arrival(workload, tracing: bool = False) -> float:
    """One ``submit()`` per arrival into a fresh incremental engine."""
    queries = workload.queries

    def service():
        return D3CEngine(workload.database, mode="incremental",
                         **workload.engine_kwargs)

    def loop(engine):
        for query in queries:
            engine.submit(query)

    set_tracing(tracing)
    try:
        loop(service())
        engine = service()
        return counted(lambda: loop(engine)) / len(queries)
    finally:
        set_tracing(False)


def per_query(workload, build, journalled: bool = False) -> float:
    """The ledger's closed round loop (advance the clock, expire,
    mutate, ``submit_many``, ``run_batch``) over a fresh service that
    *build(clock)* makes; a *journalled* service applies the mutations,
    else they go to the database directly."""
    rounds = workload.rounds
    queries = sum(len(block) for _, block in rounds)

    def loop(service, clock):
        apply = (service.apply_mutations if journalled
                 else apply_directly(workload.database))
        for mutations, block in rounds:
            clock.advance(1.0)
            service.expire_stale()
            if mutations:
                apply(mutations)
            service.submit_many(block)
            service.run_batch()

    def epoch(count: bool) -> float:
        clock = ManualClock()
        service = build(clock)
        try:
            if not count:
                loop(service, clock)
                return 0.0
            return counted(lambda: loop(service, clock)) / queries
        finally:
            close = getattr(service, "close", None)
            if close is not None:
                close()
            reset = getattr(workload, "reset_database", None)
            if reset is not None:
                reset()

    epoch(False)
    return epoch(True)


def rows(dataset: Dataset, seed: int, scale: float, workdir: Path):
    """``(name, per, thunk)`` for every counted loop, in table order."""
    pairs = PairsIncremental(dataset, seed, scale, workdir)
    cluster = ClusterIncremental(dataset, seed, scale, workdir)
    dynamic = DynamicDurableRounds(dataset, seed, scale, workdir)
    sharded = ShardedRounds(dataset, seed, scale, workdir)
    walls = iter(range(1_000))

    def plain(workload):
        return lambda clock: D3CEngine(workload.database, clock=clock,
                                       **workload.engine_config())

    def durable(clock):
        return DurableEngine(workdir / f"wal-{next(walls)}",
                             dynamic.database, clock=clock,
                             **dynamic.DURABLE, **dynamic.engine_config())

    def fleet(clock):
        return ShardedCoordinator(sharded.database, num_shards=2,
                                  backend="inprocess", clock=clock,
                                  **sharded.engine_config())

    return [
        ("pairs_incremental", "arrival",
         lambda: per_arrival(pairs)),
        ("pairs_incremental, tracing on", "arrival",
         lambda: per_arrival(pairs, tracing=True)),
        ("cluster_incremental", "arrival",
         lambda: per_arrival(cluster)),
        ("dynamic_durable_rounds, plain D3CEngine", "query",
         lambda: per_query(dynamic, plain(dynamic))),
        ("dynamic_durable_rounds, DurableEngine", "query",
         lambda: per_query(dynamic, durable, journalled=True)),
        ("sharded_rounds, plain D3CEngine", "query",
         lambda: per_query(sharded, plain(sharded))),
        ("sharded_rounds, 2-shard inprocess fleet", "query",
         lambda: per_query(sharded, fleet)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--rows", default="",
                        help="comma-separated row-name prefixes to count "
                             "(default: all seven)")
    args = parser.parse_args(argv)
    wanted = [name for name in args.rows.split(",") if name]
    dataset = Dataset(args.scale)
    with tempfile.TemporaryDirectory(prefix="bytecodes-") as workdir:
        print(f"| loop | per | bytecodes (seed {args.seed}, "
              f"scale {args.scale:g}) |")
        print("|---|---|---|")
        for name, per, thunk in rows(dataset, args.seed, args.scale,
                                     Path(workdir)):
            if wanted and not any(name.startswith(prefix)
                                  for prefix in wanted):
                continue
            print(f"| `{name}` | {per} | {thunk():.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
