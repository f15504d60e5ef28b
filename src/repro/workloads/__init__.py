"""Workload generators: TPC-W and RUBiS.

Each workload provides a schema and a seeded data generator that populate
any DB-API connection (one engine, or a virtual database through the
driver), its interactions as SQL transaction templates run against a DB-API
connection, and its interaction mixes as weights with a seeded stream of
interaction names.  The examples, the integration tests, the load benchmark
and the count tables of the paper's Table 1 and Figures 10-12 all run the
interactions through the real middleware.
"""
