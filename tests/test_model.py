"""One model-based differential harness for every service shape.

:class:`servicekit.ServiceModel` drives one command history in lockstep
through a reference batch engine and the subject shapes of a group —
the engine in batch and component mode, the fleet at 1, 2 and 4 shards
on both backends, the durable wrapper around each, and a served child —
with the paper as the ground oracle (Theorem 2.1's coordinating sets,
``coordinate()`` for §6 aggregates).  ``tests/servicekit.py`` lists
its rules and invariants.  Below: the hypothesis-driven runs of every
group (each replays the kit's tour of every rule first), then explicit
histories that once answered wrongly, replayed through the same
machine.
"""

from __future__ import annotations

import pytest

from servicekit import GROUPS, Spec, replay, run_model, single

IN_PROCESS = GROUPS["in-process"]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_every_shape_is_the_same_function_of_the_history(group):
    # A fixed seed keeps tier-1 reproducible; hunting with a bigger
    # budget and fresh seeds is run_model's other use.
    run_model(GROUPS[group], seed=36)


# ----------------------------------------------------------------------
# histories in which a batch service that forgets too little answers
# wrongly: the failed pair is joined by a member the data cannot serve;
# loses its partner and gets another; is satisfied by an insert after
# a delete; and comes back under an expired id as a different query.
# ----------------------------------------------------------------------

BOTH = [("U0", "U1"), ("U1", "U0")]


def _submit(*specs):
    return ("submit", {"block": list(specs)})


def _mutate(kind, rows):
    return ("mutate", {"ops": [(kind, "F", rows)], "direct": False})


def _advance(seconds):
    return ("advance", {"seconds": seconds, "then_round": False})


ROUND = ("run_batch", {})
PAIR = [_mutate("delete", BOTH), _submit(Spec("q0", "pair", 0, "D")),
        _submit(Spec("q1", "pair", 1, "D")), ROUND]

HISTORIES = {
    "joined": [*PAIR, _submit(Spec("q2", "bridge", 2, "D")),
               _mutate("insert", BOTH), ROUND],
    "replaced": [_mutate("delete", BOTH),
                 _submit(Spec("q0", "pair", 0, "D")), _advance(2.0),
                 _submit(Spec("q1", "pair", 1, "D")), ROUND,
                 _advance(1.0), _submit(Spec("q2", "pair", 0, "D")),
                 _mutate("insert", BOTH), ROUND],
    "refilled": [*PAIR, _mutate("insert", BOTH[:1]), ROUND,
                 _mutate("delete", BOTH[:1]),
                 _mutate("insert", BOTH[1:]), ROUND,
                 _mutate("insert", BOTH[:1]), ROUND],
    "reborn": [_mutate("delete", BOTH),
               _submit(Spec("q0", "pair", 0, "D")), _advance(2.0),
               _submit(Spec("q1", "pair", 1, "D")), ROUND, _advance(1.0),
               _submit(Spec("q0", "pair", 0, "E")),
               _mutate("insert", BOTH), ROUND,
               _submit(Spec("q2", "pair", 1, "E")), ROUND],
}


@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_retained_attempt_histories(history):
    replay(IN_PROCESS, HISTORIES[history])


# ----------------------------------------------------------------------
# a failed journal append stops the durable service
# ----------------------------------------------------------------------

#: The journal fills while a round settles a pending pair; a second
#: pair follows.  Before the fail-stop the wrapper kept serving after
#: the failed append, and its directory recovered with the first pair
#: pending again, to be answered a second time.
JOURNAL_FULL = [_submit(Spec("q0", "pair", 0, "D"),
                        Spec("q1", "pair", 1, "D")),
                ("journal_full", {"command": "run_batch", "ops": [],
                                  "reshape": 1}),
                _submit(Spec("q2", "pair", 2, "E"),
                        Spec("q3", "pair", 3, "E")),
                _mutate("insert", [("U3", "U2")]), ROUND, ROUND]


@pytest.mark.parametrize("shape", ["durable-engine", "durable-fleet",
                                   "served"])
def test_a_failed_journal_append_stops_the_service(shape):
    replay(single(shape, **({"num_shards": 2} if "fleet" in shape
                            else {})), JOURNAL_FULL)
