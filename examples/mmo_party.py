"""MMO party formation — coordination with unknown partners.

The paper motivates D3C with massively multiplayer online games where
"coordination partners may be unknown and their identities irrelevant"
(Section 1).  Here players queue for a dungeon needing a tank, a healer
and a damage dealer.  Nobody names a partner: each query's
postconditions require *some* players of the other two roles to join
the same party — the data (the Players table) determines who.

Also demonstrates staleness: a player queuing for a dungeon nobody else
wants expires after the timeout.

Run:  python examples/mmo_party.py
"""

from repro import (D3CEngine, Database, EntangledQuery, ManualClock,
                   StaleQueryError, TimeoutStaleness, Variable, atom)


def build_world() -> Database:
    db = Database()
    db.create_table("Players", "name text", "role text", "level int")
    db.insert("Players", [
        ("thorn", "tank", 60), ("ivy", "healer", 58),
        ("zax", "dps", 61), ("mira", "dps", 44),
        ("bron", "tank", 30), ("lila", "healer", 62),
    ])
    return db


def queue_query(player: str, role: str, dungeon: str,
                needs: dict[str, int]) -> EntangledQuery:
    """*player* (playing *role*) joins *dungeon* if the needed other
    roles are filled by players of sufficient level."""
    postconditions = []
    body = [atom("Players", player, role, Variable("own_level"))]
    for other_role, min_level in needs.items():
        partner = Variable(f"{other_role}_partner")
        level = Variable(f"{other_role}_level")
        postconditions.append(atom("Party", partner, other_role, dungeon))
        body.append(atom("Players", partner, other_role, level))
    return EntangledQuery(
        query_id=f"queue-{player}",
        head=(atom("Party", player, role, dungeon),),
        postconditions=tuple(postconditions),
        body=tuple(body),
        owner=player)


def main() -> None:
    db = build_world()
    clock = ManualClock()
    engine = D3CEngine(db, mode="incremental",
                       staleness=TimeoutStaleness(30), clock=clock)

    print("Three strangers queue for the Molten Core dungeon:")
    tickets = [
        engine.submit(queue_query("thorn", "tank", "MoltenCore",
                                  {"healer": 50, "dps": 50})),
        engine.submit(queue_query("ivy", "healer", "MoltenCore",
                                  {"tank": 50, "dps": 50})),
        engine.submit(queue_query("zax", "dps", "MoltenCore",
                                  {"tank": 50, "healer": 50})),
    ]
    for ticket in tickets:
        answer = ticket.result(timeout=5)
        ((name, role, dungeon),) = answer.rows["Party"]
        print(f"  {name} joins {dungeon} as {role}")

    print("\nbron queues for a dungeon nobody else wants...")
    lonely = engine.submit(queue_query("bron", "tank", "Deadmines",
                                       {"healer": 20, "dps": 20}))
    clock.advance(31)
    expired = engine.expire_stale()
    print(f"  staleness sweep expired {expired} query/queries")
    try:
        lonely.result(timeout=0.1)
    except StaleQueryError as error:
        print(f"  bron's queue ticket failed as expected: {error}")

    counters = engine.metrics_snapshot()["counters"]
    print(f"\nEngine counters: submitted={counters['submitted']} "
          f"answered={counters['answered']} "
          f"rounds={counters['coordination_rounds']}")


if __name__ == "__main__":
    main()
