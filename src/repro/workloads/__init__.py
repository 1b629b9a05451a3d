"""Workloads: the paper's experimental scenario, reproduced.

* :mod:`~repro.workloads.airports` — the 102 destinations;
* :mod:`~repro.workloads.socialnet` — the Slashdot-scale synthetic
  social network (see DESIGN.md §4 for the substitution argument);
* :mod:`~repro.workloads.flightdb` — the ``R``/``F``/``U`` database;
* :mod:`~repro.workloads.generators` — one query-set generator per
  experiment of Section 5.3.
"""

from .airports import AIRPORTS, airport
from .socialnet import SocialNetwork, generate_social_network
from .flightdb import (FRIENDS, RESERVE, USER, build_flight_database,
                       build_intro_database)
from .generators import (DYNAMIC_GATE_TABLES, SafetyStressWorkload,
                         big_cluster_queries, chain_queries,
                         churn_rounds, clique_queries,
                         dynamic_db_rounds, install_dynamic_tables,
                         multi_tenant_rounds, non_unifying_queries,
                         safety_stress_workload, three_way_triangles,
                         two_way_pairs)

__all__ = [
    "AIRPORTS", "airport",
    "SocialNetwork", "generate_social_network",
    "FRIENDS", "RESERVE", "USER", "build_flight_database",
    "build_intro_database",
    "DYNAMIC_GATE_TABLES", "SafetyStressWorkload",
    "big_cluster_queries", "chain_queries", "churn_rounds",
    "clique_queries", "dynamic_db_rounds", "install_dynamic_tables",
    "multi_tenant_rounds", "non_unifying_queries",
    "safety_stress_workload", "three_way_triangles", "two_way_pairs",
]
