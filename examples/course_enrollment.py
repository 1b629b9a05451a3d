"""Course enrollment — friends taking classes together (CHOOSE k).

College students want to enroll in the same courses as their friends
(one of the paper's motivating scenarios, Section 1).  Each pair of
study buddies submits entangled queries coordinating on a shared course
— and uses the paper's Section 6 ``CHOOSE k`` extension to get *two*
coordinated courses at once.

Run:  python examples/course_enrollment.py
"""

from repro import D3CEngine, Database, EntangledQuery, Variable, atom


def build_catalog() -> Database:
    db = Database()
    db.create_table("Courses", "cid text", "dept text", "level int")
    db.create_table("Buddies", "s1 text", "s2 text")
    db.insert("Courses", [
        ("CS4320", "CS", 4000), ("CS4410", "CS", 4000),
        ("CS4780", "CS", 4000), ("MATH4130", "MATH", 4000),
        ("CS2110", "CS", 2000), ("PHYS2213", "PHYS", 2000),
    ])
    db.insert("Buddies", [
        ("ann", "bob"), ("bob", "ann"),
        ("cem", "dia"), ("dia", "cem"),
    ])
    return db


def enrollment_query(student: str, buddy: str,
                     dept: str, k: int) -> EntangledQuery:
    """`student` takes k `dept` courses, each shared with `buddy`."""
    course = Variable("course")
    level = Variable("level")
    return EntangledQuery(
        query_id=f"enroll-{student}",
        head=(atom("Enrollment", student, course),),
        postconditions=(atom("Enrollment", buddy, course),),
        body=(atom("Courses", course, dept, level),
              atom("Buddies", student, buddy)),
        choose=k,
        owner=student)


def main() -> None:
    db = build_catalog()
    engine = D3CEngine(db, mode="incremental")

    print("Ann and Bob want two shared CS courses (CHOOSE 2):")
    ann = engine.submit(enrollment_query("ann", "bob", "CS", k=2))
    bob = engine.submit(enrollment_query("bob", "ann", "CS", k=2))
    for ticket in (ann, bob):
        answer = ticket.result(timeout=5)
        courses = [row[1] for row in answer.rows["Enrollment"]]
        print(f"  {ticket.query_id}: enrolled in {courses} "
              f"({answer.choices} coordinated choices)")

    ann_courses = {row[1] for row in ann.result().rows["Enrollment"]}
    bob_courses = {row[1] for row in bob.result().rows["Enrollment"]}
    assert ann_courses == bob_courses, "buddies must share courses"

    print("\nCem and Dia coordinate on one MATH course (CHOOSE 1):")
    cem = engine.submit(enrollment_query("cem", "dia", "MATH", k=1))
    dia = engine.submit(enrollment_query("dia", "cem", "MATH", k=1))
    for ticket in (cem, dia):
        answer = ticket.result(timeout=5)
        print(f"  {ticket.query_id}: {answer.rows['Enrollment']}")

    counters = engine.metrics_snapshot()["counters"]
    print(f"\nEngine counters: submitted={counters['submitted']} "
          f"answered={counters['answered']} "
          f"rounds={counters['coordination_rounds']}")


if __name__ == "__main__":
    main()
