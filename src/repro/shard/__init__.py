"""The sharded coordination service (beyond the paper).

Isolates the D3C engine's coordination components in separate shards:
a :class:`~repro.shard.coordinator.ShardedCoordinator` presents the
single-engine API over N shard workers, each owning a disjoint set of
coordination components.  A deterministic
:class:`~repro.shard.router.ShardRouter` places arrivals by anchor-atom
fingerprint; arrivals that entangle queries on different shards trigger
the cross-shard migration protocol (detach → import, the imported
records built from the coordinator's own copy, the only copy) so
components are always whole on one shard — which is what keeps the
fleet's answers byte-identical to a single engine at any shard count.
One :class:`~repro.shard.backend.ShardHost` holds every command body;
two interchangeable transports carry commands to it: in-process
(deterministic, debuggable) and spawned worker processes speaking the
:mod:`repro.dataio` wire format.  Sharding here is fault containment,
not throughput: a fleet costs more than one engine, and a lost worker
costs only a re-home of its components (DESIGN.md §6).
"""

from .backend import (InProcessBackend, ShardBackend, ShardCall,
                      ShardLostError, ShardWorkerError)
from .coordinator import (ShardMigrationError, ShardReplicationError,
                          ShardedCoordinator)
from .process import ProcessBackend
from .router import ShardRouter

__all__ = [
    "InProcessBackend", "ProcessBackend", "ShardBackend", "ShardCall",
    "ShardLostError", "ShardMigrationError", "ShardReplicationError",
    "ShardRouter", "ShardWorkerError", "ShardedCoordinator",
]
