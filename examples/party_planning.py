"""Party planning — the paper's Section 6 aggregation extension.

Jerry wants to attend a Friday party *only if more than two of his
friends attend the same party* — the paper's own example of an
aggregation constraint over an ANSWER relation (scaled from "more than
five" to "more than two" friends).  His friends, in turn, attend only
if Jerry does.

Run:  python examples/party_planning.py
"""

from repro import Database, FailureReason, coordinate
from repro.lang import parse_and_lower, schema_resolver

ANSWER_SCHEMAS = {"Attendance": ("pid", "name")}


def build_database() -> Database:
    db = Database()
    db.create_table("Parties", "pid text", "pdate text")
    db.create_table("Friend", "name1 text", "name2 text")
    db.insert("Parties", [("p-loft", "Friday"), ("p-roof", "Friday"),
                          ("p-brunch", "Sunday")])
    db.insert("Friend", [("Jerry", friend) for friend in
                         ("Elaine", "George", "Newman", "Kramer")])
    return db


def jerry_query(db: Database, threshold: int):
    """The paper's aggregation example, in the SQL dialect."""
    return parse_and_lower(f"""
        SELECT party_id, 'Jerry' INTO ANSWER Attendance
        WHERE party_id IN (SELECT pid FROM Parties
                           WHERE pdate = 'Friday')
          AND (SELECT COUNT(*) FROM ANSWER Attendance A, Friend F
               WHERE party_id = A.pid AND A.name = F.name2
                 AND F.name1 = 'Jerry') > {threshold}
        CHOOSE 1
    """, "jerry", schema_resolver(db), ANSWER_SCHEMAS)


def friend_query(db: Database, friend: str):
    """A friend attends whichever Friday party Jerry attends."""
    return parse_and_lower(f"""
        SELECT party_id, '{friend}' INTO ANSWER Attendance
        WHERE party_id IN (SELECT pid FROM Parties
                           WHERE pdate = 'Friday')
          AND (party_id, 'Jerry') IN ANSWER Attendance
        CHOOSE 1
    """, f"friend-{friend}", schema_resolver(db), ANSWER_SCHEMAS)


def main() -> None:
    db = build_database()

    print("Round 1: Jerry (needs > 2 friends) + 3 friends submit:")
    queries = [jerry_query(db, threshold=2)]
    queries += [friend_query(db, name)
                for name in ("Elaine", "George", "Newman")]
    result = coordinate(queries, db)
    for query_id, answer in sorted(result.answers.items()):
        ((party, name),) = answer.rows["Attendance"]
        print(f"  {name:>7} attends {party}")
    assert len(result.answers) == 4, "all four should attend together"

    print("\nRound 2: only one friend is available — the aggregate "
          "cannot be met:")
    queries = [jerry_query(db, threshold=2), friend_query(db, "Elaine")]
    result = coordinate(queries, db)
    assert not result.answers
    for query_id, reason in sorted(result.failures.items()):
        print(f"  {query_id}: failed ({reason.value})")
    assert all(reason is FailureReason.NO_DATA
               for reason in result.failures.values())
    print("  nobody commits to the party — exactly the intended "
          "all-or-nothing semantics.")


if __name__ == "__main__":
    main()
