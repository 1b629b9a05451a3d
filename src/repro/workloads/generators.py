"""Query-set generators for every experiment in the paper (Section 5.3).

All generators are seeded and deterministic, emit queries over the
``R``/``F``/``U`` flight schema of :mod:`repro.workloads.flightdb`, and
assign sequential string ids carrying the workload name (handy when
mixing workloads in one engine).

Workload map (see DESIGN.md §5):

====================  =======================================
Figure 6              :func:`two_way_pairs` (generic + specific),
                      :func:`three_way_triangles`
Figure 7              :func:`clique_queries`
Figure 8              :func:`non_unifying_queries`,
                      :func:`chain_queries`,
                      :func:`big_cluster_queries`
Figure 9              :func:`safety_stress_workload`
====================  =======================================
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..core.query import EntangledQuery
from ..core.terms import Atom, Variable, atom
from .airports import AIRPORTS
from .flightdb import FRIENDS, RESERVE, USER
from .socialnet import SocialNetwork


def _reserve(*args) -> Atom:
    return atom(RESERVE, *args)


def _friends(*args) -> Atom:
    return atom(FRIENDS, *args)


def _user(*args) -> Atom:
    return atom(USER, *args)


def two_way_pairs(network: SocialNetwork, num_queries: int,
                  specific: bool = False, seed: int = 1,
                  destinations: Sequence[str] = AIRPORTS,
                  shuffle: bool = True) -> list[EntangledQuery]:
    """Pairs of friends coordinating on a flight (Experiment 5.3.1).

    *Generic* pairs (the paper's "random workload")::

        {R(x, ITH)} R(Jerry, ITH) <- F(Jerry, x) ∧ U(Jerry, c) ∧ U(x, c)

    *Specific* pairs (the paper's "best case": partner named, the F/U
    join in the body collapses)::

        {R(Kramer, ITH)} R(Jerry, ITH)
            <- F(Jerry, Kramer) ∧ U(Jerry, c) ∧ U(Kramer, c)

    Pair members are guaranteed friends; co-location is *not* enforced
    (paper: enforcing only one of the two keeps coordination odds
    realistic).  ``num_queries`` must be even; the output is a random
    permutation of the pairs unless ``shuffle=False``.
    """
    if num_queries % 2:
        raise ValueError("two-way workload needs an even query count")
    rng = random.Random(seed)
    pairs = network.friend_pairs(rng)
    queries: list[EntangledQuery] = []
    for pair_index in range(num_queries // 2):
        left, right = next(pairs)
        destination = rng.choice(list(destinations))
        tag = f"2way-{pair_index}"
        if specific:
            queries.append(_specific_member(f"{tag}-a", left, right,
                                            destination))
            queries.append(_specific_member(f"{tag}-b", right, left,
                                            destination))
        else:
            queries.append(_generic_member(f"{tag}-a", left, destination))
            queries.append(_generic_member(f"{tag}-b", right, destination))
    if shuffle:
        rng.shuffle(queries)
    return queries


def _generic_member(query_id: str, user: str,
                    destination: str) -> EntangledQuery:
    partner, town = Variable("x"), Variable("c")
    return EntangledQuery(
        query_id=query_id,
        head=(_reserve(user, destination),),
        postconditions=(_reserve(partner, destination),),
        body=(_friends(user, partner), _user(user, town),
              _user(partner, town)),
        owner=user)


def _specific_member(query_id: str, user: str, partner: str,
                     destination: str) -> EntangledQuery:
    town = Variable("c")
    return EntangledQuery(
        query_id=query_id,
        head=(_reserve(user, destination),),
        postconditions=(_reserve(partner, destination),),
        body=(_friends(user, partner), _user(user, town),
              _user(partner, town)),
        owner=user)


def three_way_triangles(network: SocialNetwork, num_queries: int,
                        seed: int = 2,
                        destinations: Sequence[str] = AIRPORTS,
                        shuffle: bool = True) -> list[EntangledQuery]:
    """Triples over social-graph triangles (Experiment 5.3.2).

    Each triangle (A, B, C) yields the cyclic queries of the paper::

        {R(B, IAH)} R(A, IAH) <- F(A, B) ∧ U(A, c) ∧ U(B, c)
        {R(C, IAH)} R(B, IAH) <- F(B, C) ∧ U(B, c) ∧ U(C, c)
        {R(A, IAH)} R(C, IAH) <- F(C, A) ∧ U(C, c) ∧ U(A, c)
    """
    if num_queries % 3:
        raise ValueError("three-way workload needs a multiple of 3")
    rng = random.Random(seed)
    triangles = network.triangles(rng)
    queries: list[EntangledQuery] = []
    for triple_index in range(num_queries // 3):
        members = list(next(triangles))
        destination = rng.choice(list(destinations))
        for position, user in enumerate(members):
            partner = members[(position + 1) % 3]
            queries.append(_specific_member(
                f"3way-{triple_index}-{position}", user, partner,
                destination))
    if shuffle:
        rng.shuffle(queries)
    return queries


def clique_queries(network: SocialNetwork, num_queries: int,
                   num_postconditions: int, seed: int = 3,
                   destinations: Sequence[str] = AIRPORTS,
                   shuffle: bool = True) -> list[EntangledQuery]:
    """All-together travel over (k+1)-cliques (Experiment 5.3.3).

    With ``num_postconditions = k``, each group has ``k + 1`` members
    and every member requires all *k* others::

        {R(Jerry, SBN) ∧ R(Kramer, SBN)} R(Elaine, SBN)
            <- F(Elaine, Jerry) ∧ F(Elaine, Kramer)
               ∧ U(Kramer, c) ∧ U(Elaine, c) ∧ U(Jerry, c)

    Groups are cliques in the social graph (planted for sizes > 3, as
    the paper's generator likewise ensures the needed friendships).
    """
    if num_postconditions < 1:
        raise ValueError("need at least one postcondition")
    group_size = num_postconditions + 1
    if num_queries % group_size:
        raise ValueError(f"query count must be a multiple of group size "
                         f"{group_size}")
    rng = random.Random(seed)
    groups = network.cliques(group_size, rng)
    queries: list[EntangledQuery] = []
    for group_index in range(num_queries // group_size):
        members = list(next(groups))
        destination = rng.choice(list(destinations))
        town = Variable("c")
        for position, user in enumerate(members):
            others = [member for member in members if member != user]
            body = tuple(_friends(user, other) for other in others) + \
                tuple(_user(member, town) for member in members)
            queries.append(EntangledQuery(
                query_id=f"clique{group_size}-{group_index}-{position}",
                head=(_reserve(user, destination),),
                postconditions=tuple(_reserve(other, destination)
                                     for other in others),
                body=body,
                owner=user))
    if shuffle:
        rng.shuffle(queries)
    return queries


def non_unifying_queries(network: SocialNetwork, num_queries: int,
                         seed: int = 4,
                         destinations: Sequence[str] = AIRPORTS
                         ) -> list[EntangledQuery]:
    """Queries whose postconditions unify with no head (Experiment 5.3.4).

    Each query's postcondition names a traveller (``nobody-i``) that no
    head ever mentions, so the unifiability graph gets no edges: the
    per-arrival cost is pure index lookups ("no coordination, no
    unification").
    """
    rng = random.Random(seed)
    queries: list[EntangledQuery] = []
    for index in range(num_queries):
        user = rng.choice(network.users)
        destination = rng.choice(list(destinations))
        town = Variable("c")
        queries.append(EntangledQuery(
            query_id=f"nounify-{index}",
            head=(_reserve(user, destination),),
            postconditions=(_reserve(f"nobody-{index}", destination),),
            body=(_user(user, town),),
            owner=user))
    return queries


def chain_queries(network: SocialNetwork, num_queries: int,
                  chain_length: int = 100, seed: int = 5,
                  destinations: Sequence[str] = AIRPORTS
                  ) -> list[EntangledQuery]:
    """Long unification chains that never close (Experiment 5.3.4).

    Query *i* of a chain requires query *i+1*'s head; the last query's
    postcondition is unsatisfiable, so the partition accumulates
    unifier-propagation work without ever producing a combined query —
    the paper's "usual partitions" series.  ``chain_length`` bounds the
    partition size, standing in for the social graph's clustering,
    which the paper observes keeps partitions bounded.
    """
    if chain_length < 2:
        raise ValueError("chains need at least two queries")
    rng = random.Random(seed)
    queries: list[EntangledQuery] = []
    index = 0
    chain_id = 0
    while index < num_queries:
        length = min(chain_length, num_queries - index)
        members = [rng.choice(network.users) for _ in range(length)]
        destination = rng.choice(list(destinations))
        for position in range(length):
            user = members[position]
            if position + 1 < length:
                required = members[position + 1]
                next_name = f"chainee-{chain_id}-{position + 1}"
            else:
                next_name = f"chainee-{chain_id}-open"
            town = Variable("c")
            queries.append(EntangledQuery(
                query_id=f"chain-{chain_id}-{position}",
                head=(_reserve(f"chainee-{chain_id}-{position}",
                               destination),),
                postconditions=(_reserve(next_name, destination),),
                body=(_user(user, town),),
                owner=user))
            index += 1
        chain_id += 1
    return queries


def big_cluster_queries(network: SocialNetwork, num_queries: int,
                        seed: int = 6,
                        destination: str = "ITH"
                        ) -> list[EntangledQuery]:
    """One massively unifying partition (Experiment 5.3.4's stress).

    All queries come from one BFS community and share a single
    destination; the variable postcondition ``R(x, dest)`` unifies with
    *every* head, so the whole set collapses into one partition that
    closes again on every arrival.  Nearly every closure is empty on
    the friendship data: the regime where the paper finds set-at-a-time
    superior to re-evaluating per arrival, and where the component
    strategy answers closures from its carried verdict instead.
    """
    rng = random.Random(seed)
    start = rng.choice(network.users)
    community = network.community_of(start, num_queries)
    if len(community) < num_queries:
        community = list(itertools.islice(
            itertools.cycle(community), num_queries))
    queries: list[EntangledQuery] = []
    for index in range(num_queries):
        user = community[index]
        partner, town = Variable("x"), Variable("c")
        queries.append(EntangledQuery(
            query_id=f"cluster-{index}",
            head=(_reserve(user, destination),),
            postconditions=(_reserve(partner, destination),),
            body=(_friends(user, partner), _user(user, town),
                  _user(partner, town)),
            owner=user))
    return queries


def churn_rounds(network: SocialNetwork, num_rounds: int,
                 arrivals_per_round: int,
                 answerable_fraction: float = 0.5,
                 chain_length: int = 8, seed: int = 8,
                 destinations: Sequence[str] = AIRPORTS
                 ) -> list[list[EntangledQuery]]:
    """Per-round arrival blocks for the high-churn service scenario.

    Models a long-running coordination service under heavy arrival
    traffic: every round delivers a block of fresh arrivals, a
    coordination round runs, and old queries expire.  Each block mixes

    * *answerable* specific two-way pairs (both members arrive in the
      same block, so they coordinate and leave at that round's
      coordination round when co-located), with
    * never-closing chains (round-unique ``churnee`` names, so they
      linger in the pending set until staleness expires them).

    The lingering chains are what makes the scenario interesting: a
    from-scratch coordination round pays for the whole pending set
    every round, while a delta-driven round only pays for the blocks
    that actually changed.  Returns ``num_rounds`` lists of queries.
    """
    if not 0.0 <= answerable_fraction <= 1.0:
        raise ValueError("answerable_fraction must be within [0, 1]")
    if chain_length < 2:
        raise ValueError("chains need at least two queries")
    rng = random.Random(seed)
    pairs = network.friend_pairs(rng)
    town_pool = list(destinations)
    rounds: list[list[EntangledQuery]] = []
    for round_index in range(num_rounds):
        block: list[EntangledQuery] = []
        pair_count = int(arrivals_per_round * answerable_fraction) // 2
        for pair_index in range(pair_count):
            left, right = next(pairs)
            destination = rng.choice(town_pool)
            tag = f"churn-r{round_index}-p{pair_index}"
            block.append(_specific_member(f"{tag}-a", left, right,
                                          destination))
            block.append(_specific_member(f"{tag}-b", right, left,
                                          destination))
        chain_id = 0
        while len(block) < arrivals_per_round:
            length = min(chain_length, arrivals_per_round - len(block))
            destination = rng.choice(town_pool)
            prefix = f"churnee-r{round_index}-c{chain_id}"
            for position in range(length):
                user = rng.choice(network.users)
                if position + 1 < length:
                    required = f"{prefix}-{position + 1}"
                else:
                    required = f"{prefix}-open"
                town = Variable("c")
                block.append(EntangledQuery(
                    query_id=f"churn-r{round_index}-c{chain_id}-"
                             f"{position}",
                    head=(_reserve(f"{prefix}-{position}", destination),),
                    postconditions=(_reserve(required, destination),),
                    body=(_user(user, town),),
                    owner=user))
            chain_id += 1
        rounds.append(block)
    return rounds


def multi_tenant_rounds(network: SocialNetwork, num_rounds: int,
                        arrivals_per_round: int,
                        tenants: int = 6, skew: float = 1.4,
                        rendezvous_fraction: float = 0.15,
                        answerable_fraction: float = 0.5,
                        seed: int = 9,
                        destinations: Sequence[str] = AIRPORTS
                        ) -> list[list[EntangledQuery]]:
    """Skewed multi-tenant arrival blocks for the sharded service.

    Models a coordination service shared by *tenants* (disjoint user
    groups with disjoint preferred-destination pools) whose traffic is
    zipf-skewed by ``skew`` — hot tenants hammer a few routing keys,
    which is what stresses shard placement.  Each round's block mixes:

    * **intra-tenant pairs** — mutually coordinating pairs inside one
      tenant; the second member always finds the first through partner
      lookup, so these exercise *component-affine routing* and answer
      at the round's coordination round;
    * **cross-tenant rendezvous triples** — two providers ``A`` and
      ``B`` in *different* tenants (different destinations, so their
      anchor atoms route to different shards) arrive one round before a
      two-postcondition bridge ``C`` that requires both their heads and
      provides both their postconditions.  ``C``'s arrival entangles
      two components that live on different shards, forcing the
      cross-shard migration protocol before the triple coordinates;
    * **never-coordinating fillers** — postconditions naming travellers
      nobody provides; they linger until staleness expires them,
      keeping a realistic pending set under the router.

    Returns ``num_rounds`` arrival blocks, deterministically seeded.
    """
    if tenants < 2:
        raise ValueError("need at least two tenants")
    if not 0.0 <= rendezvous_fraction <= 1.0:
        raise ValueError("rendezvous_fraction must be within [0, 1]")
    if not 0.0 <= answerable_fraction <= 1.0:
        raise ValueError("answerable_fraction must be within [0, 1]")
    rng = random.Random(seed)
    town_pool = list(destinations)
    if len(town_pool) < tenants:
        raise ValueError("need at least one destination per tenant")
    users_of = [network.users[index::tenants] for index in range(tenants)]
    towns_of = [town_pool[index::tenants] for index in range(tenants)]
    weights = [1.0 / (index + 1) ** skew for index in range(tenants)]

    def pick_tenant() -> int:
        return rng.choices(range(tenants), weights=weights)[0]

    def tenant_user(tenant: int) -> str:
        return rng.choice(users_of[tenant])

    def tenant_town(tenant: int) -> str:
        return rng.choice(towns_of[tenant])

    rounds: list[list[EntangledQuery]] = []
    held_bridges: list[EntangledQuery] = []
    for round_index in range(num_rounds):
        block: list[EntangledQuery] = []
        # Bridges staged last round: their providers are resident (and,
        # under a sharded engine, usually on different shards) by now.
        block.extend(held_bridges)
        held_bridges = []

        triple_count = int(arrivals_per_round * rendezvous_fraction) // 2
        for triple_index in range(triple_count):
            left_tenant = pick_tenant()
            right_tenant = rng.choice(
                [tenant for tenant in range(tenants)
                 if tenant != left_tenant])
            tag = f"mt-r{round_index}-x{triple_index}"
            left_dest = tenant_town(left_tenant)
            right_dest = tenant_town(right_tenant)
            bridge_name = f"{tag}-c"
            town_a, town_b, town_c = (Variable("c"), Variable("c"),
                                      Variable("c"))
            block.append(EntangledQuery(
                query_id=f"{tag}-a",
                head=(_reserve(f"{tag}-a", left_dest),),
                postconditions=(_reserve(bridge_name, left_dest),),
                body=(_user(tenant_user(left_tenant), town_a),),
                owner=f"tenant-{left_tenant}"))
            block.append(EntangledQuery(
                query_id=f"{tag}-b",
                head=(_reserve(f"{tag}-b", right_dest),),
                postconditions=(_reserve(bridge_name, right_dest),),
                body=(_user(tenant_user(right_tenant), town_b),),
                owner=f"tenant-{right_tenant}"))
            held_bridges.append(EntangledQuery(
                query_id=f"{tag}-c",
                head=(_reserve(bridge_name, left_dest),
                      _reserve(bridge_name, right_dest)),
                postconditions=(_reserve(f"{tag}-a", left_dest),
                                _reserve(f"{tag}-b", right_dest)),
                body=(_user(tenant_user(left_tenant), town_c),),
                owner=f"tenant-{left_tenant}"))

        pair_count = int(arrivals_per_round * answerable_fraction) // 2
        for pair_index in range(pair_count):
            tenant = pick_tenant()
            destination = tenant_town(tenant)
            tag = f"mt-r{round_index}-p{pair_index}"
            for member, partner in (("a", "b"), ("b", "a")):
                town = Variable("c")
                block.append(EntangledQuery(
                    query_id=f"{tag}-{member}",
                    head=(_reserve(f"{tag}-{member}", destination),),
                    postconditions=(_reserve(f"{tag}-{partner}",
                                             destination),),
                    body=(_user(tenant_user(tenant), town),),
                    owner=f"tenant-{tenant}"))

        filler_index = 0
        while len(block) < arrivals_per_round:
            tenant = pick_tenant()
            destination = tenant_town(tenant)
            town = Variable("c")
            block.append(EntangledQuery(
                query_id=f"mt-r{round_index}-f{filler_index}",
                head=(_reserve(tenant_user(tenant), destination),),
                postconditions=(_reserve(
                    f"mt-nobody-r{round_index}-{filler_index}",
                    destination),),
                body=(_user(tenant_user(tenant), town),),
                owner=f"tenant-{tenant}"))
            filler_index += 1
        rounds.append(block)
    return rounds


#: Gate tables of the ``dynamic_db`` scenario: small mutable relations
#: whose rows arrive and retract at runtime, gating coordination.  The
#: flight tables (``F``/``U``) stay immutable, so targeted dirty-marking
#: re-evaluates only the components reading the mutated gate.
DYNAMIC_GATE_TABLES = ("G0", "G1", "G2", "G3")


def install_dynamic_tables(database,
                           gate_tables=DYNAMIC_GATE_TABLES) -> None:
    """Create the (initially empty) gate tables the scenario mutates."""
    for name in gate_tables:
        if not database.has_table(name):
            database.create_table(name, "UserName1 text",
                                  "UserName2 text")


def dynamic_db_rounds(network: SocialNetwork, num_rounds: int,
                      arrivals_per_round: int,
                      gated_fraction: float = 0.4,
                      lag: int = 2,
                      doomed_every: int = 5,
                      gate_tables: Sequence[str] = DYNAMIC_GATE_TABLES,
                      chain_length: int = 8, seed: int = 12,
                      destinations: Sequence[str] = AIRPORTS
                      ) -> list[tuple[list[tuple], list[EntangledQuery]]]:
    """Per-round ``(mutations, arrivals)`` for the live-mutation scenario.

    Models a coordination service over a database that changes while
    queries are pending — the regime the paper assumes but the frozen
    substrate never exercised.  Each round delivers:

    * **mutations** — a list of ``("insert"/"delete", table, rows)``
      operations.  Round *r* inserts the gate rows that *enable* the
      gated pairs submitted at round ``r - lag`` (facts arriving), and
      deletes the gate rows it inserted two rounds earlier (facts
      retracting, after their pairs settled or lingered).  Every
      ``doomed_every``-th enabling is immediately retracted in the same
      batch (insert/delete interleaved on the same key), so those pairs
      never coordinate and expire instead.
    * **arrivals** — gated pairs whose body reads this round's gate
      table (``gate_tables[r % len]``) plus the flight ``U`` join, and
      never-coordinating filler chains reading only ``U``.  The chains
      linger until staleness expires them, so the pending set a
      full-recompute round must re-match is large while the set a
      mutation actually touches stays small — exactly the gap targeted
      invalidation exploits (the ledger's ``dynamic_durable_rounds``
      workload drives these rounds).

    The caller owns applying the mutations (``Database.insert`` /
    ``delete_rows``, or ``ShardedCoordinator.apply_mutations``) and
    must create the gate tables first (:func:`install_dynamic_tables`).
    """
    if not 0.0 <= gated_fraction <= 1.0:
        raise ValueError("gated_fraction must be within [0, 1]")
    if lag < 1:
        raise ValueError("lag must be at least one round")
    if chain_length < 2:
        raise ValueError("chains need at least two queries")
    rng = random.Random(seed)
    pairs = network.friend_pairs(rng)
    town_pool = list(destinations)
    #: submission round -> [(gate, left, right, doomed)] awaiting gates.
    awaiting: dict[int, list[tuple]] = {}
    #: enabling round -> [(gate, rows)] for later retraction.
    enabled: dict[int, list[tuple]] = {}
    rounds: list[tuple[list[tuple], list[EntangledQuery]]] = []
    for round_index in range(num_rounds):
        mutations: list[tuple] = []
        batch = enabled.setdefault(round_index, [])
        for position, (gate, left, right, doomed) in enumerate(
                awaiting.pop(round_index - lag, ())):
            rows = [(left, right), (right, left)]
            mutations.append(("insert", gate, rows))
            if doomed:
                # Retracted before anyone coordinates: the same batch
                # interleaves insert and delete on the same key.
                mutations.append(("delete", gate, rows))
            else:
                batch.append((gate, rows))
        for gate, rows in enabled.pop(round_index - 2, ()):
            mutations.append(("delete", gate, rows))

        block: list[EntangledQuery] = []
        gate = gate_tables[round_index % len(gate_tables)]
        staged = awaiting.setdefault(round_index, [])
        pair_count = int(arrivals_per_round * gated_fraction) // 2
        for pair_index in range(pair_count):
            left, right = next(pairs)
            destination = rng.choice(town_pool)
            tag = f"dyn-r{round_index}-p{pair_index}"
            for member, user, partner in (("a", left, right),
                                          ("b", right, left)):
                town = Variable("c")
                block.append(EntangledQuery(
                    query_id=f"{tag}-{member}",
                    head=(_reserve(user, destination),),
                    postconditions=(_reserve(partner, destination),),
                    body=(atom(gate, user, partner),
                          _user(user, town), _user(partner, town)),
                    owner=user))
            staged.append((gate, left, right,
                           pair_index % doomed_every == doomed_every - 1))

        chain_id = 0
        while len(block) < arrivals_per_round:
            length = min(chain_length, arrivals_per_round - len(block))
            destination = rng.choice(town_pool)
            prefix = f"dynee-r{round_index}-c{chain_id}"
            for position in range(length):
                user = rng.choice(network.users)
                if position + 1 < length:
                    required = f"{prefix}-{position + 1}"
                else:
                    required = f"{prefix}-open"
                town = Variable("c")
                block.append(EntangledQuery(
                    query_id=f"{prefix}-{position}",
                    head=(_reserve(f"{prefix}-{position}", destination),),
                    postconditions=(_reserve(required, destination),),
                    body=(_user(user, town),),
                    owner=user))
            chain_id += 1
        rounds.append((mutations, block))
    return rounds


@dataclass(frozen=True, slots=True)
class SafetyStressWorkload:
    """Resident queries plus unsafe addition sets (Experiment 5.3.5)."""

    resident: tuple[EntangledQuery, ...]
    additions: tuple[tuple[EntangledQuery, ...], ...]


def safety_stress_workload(network: SocialNetwork,
                           resident_count: int = 20_000,
                           addition_sizes: Sequence[int] = (5, 50, 500),
                           seed: int = 7,
                           destinations: Sequence[str] = AIRPORTS
                           ) -> SafetyStressWorkload:
    """The Figure 9 setup: 20k non-coordinating residents + unsafe sets.

    Residents cannot coordinate (postconditions unsatisfiable) but their
    heads cluster on destinations, so an added query with a *variable*
    traveller postcondition ``R(x, dest)`` unifies with many resident
    heads and fails the safety check.
    """
    rng = random.Random(seed)
    town_pool = list(destinations)
    resident = []
    for index in range(resident_count):
        user = rng.choice(network.users)
        destination = town_pool[index % len(town_pool)]
        town = Variable("c")
        resident.append(EntangledQuery(
            query_id=f"resident-{index}",
            head=(_reserve(user, destination),),
            postconditions=(_reserve(f"nobody-r{index}", destination),),
            body=(_user(user, town),),
            owner=user))
    additions = []
    counter = 0
    for size in addition_sizes:
        batch = []
        for _ in range(size):
            user = rng.choice(network.users)
            destination = rng.choice(town_pool)
            partner, town = Variable("x"), Variable("c")
            batch.append(EntangledQuery(
                query_id=f"unsafe-{counter}",
                head=(_reserve(user, destination),),
                postconditions=(_reserve(partner, destination),),
                body=(_friends(user, partner), _user(user, town),
                      _user(partner, town)),
                owner=user))
            counter += 1
        additions.append(tuple(batch))
    return SafetyStressWorkload(resident=tuple(resident),
                                additions=tuple(additions))
