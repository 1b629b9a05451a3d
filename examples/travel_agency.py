"""Travel agency — set-at-a-time rounds over a social network.

A travel agency collects coordination requests during the day and runs
one set-at-a-time round each evening (the paper's batch mode).  Built
on the same workload machinery as the benchmarks: a synthetic social
network with hometowns and friend pairs wanting to fly together.

Run:  python examples/travel_agency.py
"""

from repro import D3CEngine
from repro.workloads import (build_flight_database,
                             generate_social_network, two_way_pairs)


def main() -> None:
    network = generate_social_network(num_users=2_000, seed=7)
    db = build_flight_database(network)
    print(f"Social network: {network.user_count} users, "
          f"{network.edge_count} friendships, "
          f"{network.same_town_fraction():.0%} same-town friends")

    # -- Day phase: requests trickle in; the agency just queues them. --
    engine = D3CEngine(db, mode="batch", ucs_fallback=True)
    queries = two_way_pairs(network, 600, specific=True, seed=8)
    tickets = engine.submit_all(queries)
    print(f"\nQueued {len(tickets)} coordination requests during the day")

    # -- Evening phase: one coordination round. -------------------------
    answered = engine.run_batch()
    print(f"Evening round answered {answered} requests "
          f"({engine.pending_count} remain pending for tomorrow)")
    counters = engine.metrics_snapshot()["counters"]
    print(f"Engine counters: submitted={counters['submitted']} "
          f"answered={counters['answered']} "
          f"rounds={counters['coordination_rounds']}")

    example = next(ticket for ticket in tickets if ticket.done())
    print(f"\nSample coordinated booking: "
          f"{example.query_id} -> {example.answer.rows}")


if __name__ == "__main__":
    main()
