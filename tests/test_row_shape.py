"""One row shape from the engine to the client.

The engine's projection builds each row as a tuple, and every layer after
it — native driver, backend, result cache, wire, client driver,
scatter-gather, a nested controller — hands that row on unchanged.  Each
test runs the same SELECT through one path and checks the rows of the
:class:`~repro.core.request.RequestResult` the path returns, not only what
a cursor's ``fetchall`` gives back.
"""

import pytest

import repro
from repro.cluster.fixture import boot, descriptor
from repro.core import BackendConfig, Controller, VirtualDatabaseConfig, build_virtual_database
from repro.core.driver import connect
from repro.distrib import nested_backend_config
from repro.sql import DatabaseEngine, dbapi

SCHEMA = (
    "CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR(16))",
    "CREATE TABLE price (item_id INT PRIMARY KEY, amount FLOAT)",
)
ROWS = ((1, "pen", 1.5), (2, "ink", None), (3, "nib", 0.25))
SELECT = (
    "SELECT item.id, item.name, price.amount FROM item JOIN price"
    " ON price.item_id = item.id ORDER BY item.id"
)
EXPECTED = [(1, "pen", 1.5), (2, "ink", None), (3, "nib", 0.25)]


def populate(cursor):
    for statement in SCHEMA:
        cursor.execute(statement)
    for item_id, name, amount in ROWS:
        cursor.execute("INSERT INTO item (id, name) VALUES (?, ?)", (item_id, name))
        cursor.execute("INSERT INTO price (item_id, amount) VALUES (?, ?)", (item_id, amount))


def select(cursor):
    """Run SELECT; the RequestResult the path returned and what fetchall gives."""
    cursor.execute(SELECT)
    return cursor._result, cursor.fetchall()


def assert_one_shape(result, fetched):
    assert [type(row) for row in result.rows] == [tuple] * len(EXPECTED)
    assert result.rows == EXPECTED
    assert fetched == EXPECTED and all(type(row) is tuple for row in fetched)


@pytest.fixture
def cluster_factory():
    clusters = []

    def make(*args, **keys):
        cluster = boot(descriptor("shape", *args, **keys))
        clusters.append(cluster)
        return cluster

    yield make
    for cluster in clusters:
        cluster.shutdown()


class TestOneRowShape:
    def test_in_process_driver_without_a_cache(self, cluster_factory):
        cluster = cluster_factory(2, cache={"enabled": False})
        cursor = cluster.connect(cluster.name, "u", "p").cursor()
        populate(cursor)
        result, fetched = select(cursor)
        assert result.from_cache is False
        assert_one_shape(result, fetched)

    def test_in_process_driver_cache_miss_then_hit(self, cluster_factory):
        cluster = cluster_factory(2, cache={"enabled": True})
        cursor = cluster.connect(cluster.name, "u", "p").cursor()
        populate(cursor)
        miss, fetched = select(cursor)
        assert miss.from_cache is False
        assert_one_shape(miss, fetched)
        hit, fetched = select(cursor)
        assert hit.from_cache is True
        assert_one_shape(hit, fetched)
        # a hit shares the rows themselves, never a client's row list
        assert hit.rows is not miss.rows
        assert all(a is b for a, b in zip(hit.rows, miss.rows))

    def test_remote_driver(self, cluster_factory):
        cluster = cluster_factory(1, listen=True)
        (host, port), = cluster.start_servers().values()
        connection = repro.connect(f"cjdbc://{host}:{port}/{cluster.name}?user=u&password=p")
        try:
            cursor = connection.cursor()
            populate(cursor)
            assert_one_shape(*select(cursor))
        finally:
            connection.close()

    def test_nested_controller(self):
        bottom = Controller("shape-bottom", register=False)
        bottom.add_virtual_database(
            build_virtual_database(
                VirtualDatabaseConfig(
                    name="bottomdb",
                    backends=[BackendConfig(name="leaf", engine=DatabaseEngine("shape-leaf"))],
                )
            )
        )
        top = Controller("shape-top", register=False)
        top_database = build_virtual_database(
            VirtualDatabaseConfig(
                name="topdb", backends=[nested_backend_config("nested", bottom, "bottomdb")]
            )
        )
        top.add_virtual_database(top_database)
        cursor = connect(top, "topdb", "u", "p").cursor()
        populate(cursor)
        result, fetched = select(cursor)
        assert result.backend_name == "nested"
        assert_one_shape(result, fetched)

    def test_raidb2_scatter_gather_read(self, cluster_factory):
        cluster = cluster_factory(
            2,
            replication="raidb2",
            replication_map={"item": ["b0"], "price": ["b1"]},
            routing={"scatter_gather": True},
        )
        cursor = cluster.connect(cluster.name, "u", "p").cursor()
        populate(cursor)
        result, fetched = select(cursor)
        assert result.backend_name == "scatter:b0+b1"
        assert_one_shape(result, fetched)

    def test_engine_and_native_driver(self):
        engine = DatabaseEngine("shape-engine")
        cursor = dbapi.connect(engine).cursor()
        populate(cursor)
        assert_one_shape(*select(cursor))
        assert all(type(row) is tuple for row in engine.execute(SELECT).rows)
