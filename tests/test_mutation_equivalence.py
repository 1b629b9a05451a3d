"""Mutation equivalence: named runs of the model machine.

Live mutations — inserts and deletes over every column type, through
``apply_mutations`` and directly on ``service.database`` — must not
change answers.  The scripted interleavings and the fresh-engine oracle
this file held are gone: each case runs :class:`servicekit.ServiceModel`
(whose ``mutate`` rule draws those writes) with the shape it names as
the subject — the kit's tour of every rule, then seeded histories on
the seed it always had.
"""

from __future__ import annotations

import pytest

from servicekit import run_model, single

SHARD_COUNTS = (1, 2, 4)


@pytest.mark.parametrize("seed", [31, 62, 93])
def test_live_engine_matches_fresh_recompute_oracle(seed):
    """Against a twin that forgets everything before every round."""
    run_model(single("engine", forget=True), seed=seed)


@pytest.mark.parametrize("seed", [41, 82])
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_inprocess_shards_match_single_engine(num_shards, seed):
    run_model(single("fleet", num_shards=num_shards), seed=seed)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_process_shards_match_single_engine(num_shards):
    run_model(single("fleet-process", num_shards=num_shards), seed=55)


def test_direct_database_mutations_replicate_lazily():
    run_model(single("fleet-process", num_shards=2), seed=77)
