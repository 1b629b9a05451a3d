"""Shard-vs-single equivalence: named runs of the model machine.

A :class:`repro.shard.ShardedCoordinator` — any shard count, either
backend — must be observationally identical to one
:class:`repro.engine.engine.D3CEngine`.  The generators and loops
this file held are gone: each case runs
:class:`servicekit.ServiceModel` with the one fleet it names as the
subject — the kit's tour of every rule, then seeded histories on the
seed it always had — and requires the run to have answered and
migrated (``tests/test_model.py`` runs every shape together).  The machine's fleets route through a
:class:`servicekit.ScriptedRouter` that scatters the id pool across
shards, so bridging arrivals force migrations.
"""

from __future__ import annotations

import pytest

from servicekit import run_model, single

SHARD_COUNTS = (1, 2, 4)


@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_inprocess_matches_single_engine(num_shards, seed):
    run_model(single("fleet", num_shards=num_shards), seed=seed)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_incremental_mode_matches_single_engine(num_shards):
    """Per-arrival coordination settles identically across shards."""
    run_model(single("fleet", num_shards=num_shards, mode="incremental",
                     reference=("engine-incremental", {})), seed=77)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_forced_migrations_match_single_engine(num_shards):
    run_model(single("fleet", num_shards=num_shards), seed=13)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_process_backend_matches_single_engine(num_shards):
    run_model(single("fleet-process", num_shards=num_shards), seed=29)
