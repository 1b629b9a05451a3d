"""Deterministic component-affine routing for the sharded service.

Every arrival needs a *home shard* before any entanglement is known.
The router fingerprints the query's **anchor atom** — its first
postcondition if it has one, else its first head atom — reduced to the
same key shape the atom index uses: relation, arity, and the ground
constants by position (variables are wildcards and contribute nothing,
so renaming apart never changes the route).

Anchoring on the first postcondition is what makes routing
*component-affine* for the paper's workloads: a coordination partner's
postcondition names the same destination (and often the same traveller)
as the heads it will unify with, so mutually coordinating groups
usually hash to the same shard and never migrate.  Queries whose
entanglement cannot be guessed from one atom (multi-postcondition
rendezvous queries, chains) scatter — which is exactly what the
cross-shard migration protocol is for.

The fingerprint is BLAKE2 over a canonical rendering, **not** Python's
builtin ``hash``: string hashing is salted per process
(``PYTHONHASHSEED``).  Only the coordinator routes — workers never do —
so what BLAKE2 buys is run-to-run determinism: the same inputs place
the same queries, and migrate the same components, in every run.
"""

from __future__ import annotations

import hashlib

from ..core.query import EntangledQuery
from ..core.terms import Atom, Constant


def atom_route_key(atom: Atom) -> tuple:
    """The routing key of one atom: relation, arity, ground positions.

    Mirrors the atom index's key vocabulary (variables are wildcards),
    so two atoms that could unify on their ground structure share more
    of their key than two that cannot.
    """
    return (atom.relation, atom.arity,
            tuple((position, term.value)
                  for position, term in enumerate(atom.args)
                  if isinstance(term, Constant)))


def fingerprint(key: object) -> int:
    """Stable 64-bit fingerprint of a routing key.

    Process-independent (unlike builtin ``hash``), so reruns under
    different ``PYTHONHASHSEED`` route alike.
    """
    rendered = repr(key).encode("utf-8")
    digest = hashlib.blake2b(rendered, digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Assigns arrivals to home shards by anchor-atom fingerprint."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards

    def anchor_atom(self, query: EntangledQuery) -> Atom:
        """The atom whose key routes *query* (first pc, else first head).

        Postconditions are the *demand* side of coordination: a
        provider's head will be looked up by someone's postcondition,
        so hashing the demand clusters each rendezvous on one shard.
        """
        if query.postconditions:
            return query.postconditions[0]
        return query.head[0]

    def home_shard(self, query: EntangledQuery) -> int:
        """Deterministic home shard for an arrival with no known partners."""
        key = atom_route_key(self.anchor_atom(query))
        return fingerprint(key) % self.num_shards
