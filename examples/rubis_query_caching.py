"""RUBiS with query result caching on a single backend (paper §6.6, Table 1).

Even with a single database backend it pays off to put C-JDBC in front of it
just for the query result cache.  This example boots three descriptor-driven
configurations (no cache, coherent cache, relaxed cache with a 60 s
staleness limit — the relaxation rule is part of the descriptor), loads a
small RUBiS auction database, runs the bidding mix through each and prints
the cache statistics.  ``tests/test_op_budget.py`` counts the same three runs
(Python calls in the engine and in the middleware) as the reproduction of
the paper's Table 1.

Run with:  python examples/rubis_query_caching.py
"""

import repro
from repro.workloads.rubis import BIDDING_MIX, RUBISDataGenerator, RUBiSInteractions
from repro.workloads.rubis.schema import RUBISScale, create_schema


def descriptor(cache_enabled: bool, relaxed: bool) -> dict:
    """The declarative configuration for one of the Table 1 columns."""
    cache = {"enabled": cache_enabled}
    if relaxed:
        cache["relaxation_rules"] = [{"staleness_seconds": 60.0}]
    return {
        "name": "rubis-cluster",
        "virtual_databases": [
            {
                "name": "rubis",
                "replication": "single",
                "recovery_log": "none",
                "cache": cache,
                "backends": [{"name": "mysql", "engine": "mysql-single"}],
            }
        ],
        "controllers": [{"name": "rubis-controller"}],
    }


def run_functional(cache_enabled: bool, relaxed: bool, interactions_to_run: int = 150) -> dict:
    """Run the bidding mix through the real middleware and return cache stats."""
    cluster = repro.load_cluster(descriptor(cache_enabled, relaxed))
    virtual_database = cluster.virtual_database("rubis")
    connection = repro.connect("cjdbc://rubis-controller/rubis?user=rubis&password=rubis")

    create_schema(connection)
    scale = RUBISScale(users=60, items=40, bids_per_item=4)
    RUBISDataGenerator(scale, seed=9).populate(connection)
    for backend in virtual_database.backends:
        backend.refresh_schema()

    client = RUBiSInteractions(connection, users=scale.users, items=scale.items, seed=4)
    stream = BIDDING_MIX.interaction_stream(seed=8)
    for _ in range(interactions_to_run):
        client.run(next(stream))

    if virtual_database.request_manager.result_cache is None:
        return {"cache": "disabled"}
    return virtual_database.request_manager.result_cache.statistics.as_dict()


def main() -> None:
    print("functional run through the real middleware (150 bidding-mix interactions):")
    print("  no cache       :", run_functional(cache_enabled=False, relaxed=False))
    print("  coherent cache :", run_functional(cache_enabled=True, relaxed=False))
    print("  relaxed cache  :", run_functional(cache_enabled=True, relaxed=True))


if __name__ == "__main__":
    main()
