"""Budget high availability (paper §5.1, Figure 6).

Reproduces the budget-ha.com deployment: two nodes, each hosting a C-JDBC
controller, *both* sharing the *same* two database backends — described
entirely by a declarative descriptor (one virtual database listed by two
controllers means they share it).  The system survives the failure of any
single component:

* a backend failure: the surviving backend keeps serving, the failed one is
  re-integrated later from a checkpoint + recovery-log replay;
* a controller failure: the C-JDBC driver transparently fails over to the
  other controller named in the ``cjdbc://`` URL.

Run with:  python examples/budget_high_availability.py
"""

import repro

DESCRIPTOR = {
    "name": "budget-ha",
    "virtual_databases": [
        {
            "name": "webappdb",
            "replication": "raidb1",
            "recovery_log": "memory",
            "backends": [
                {"name": "pg-node1", "engine": "postgresql-node1"},
                {"name": "pg-node2", "engine": "postgresql-node2"},
            ],
        }
    ],
    # Both controllers list the same virtual database: they share its backends.
    "controllers": [
        {"name": "controller-node1", "virtual_databases": ["webappdb"]},
        {"name": "controller-node2", "virtual_databases": ["webappdb"]},
    ],
}


def main() -> None:
    cluster = repro.load_cluster(DESCRIPTOR)
    virtual_database = cluster.virtual_database("webappdb")
    postgres_1 = cluster.engine("postgresql-node1")

    # The JBoss/Resin application tier connects through the C-JDBC driver,
    # listing both controllers for transparent failover.
    connection = repro.connect(
        "cjdbc://controller-node1,controller-node2/webappdb?user=webapp&password=webapp"
    )
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE sessions (id INT PRIMARY KEY AUTO_INCREMENT, user_name VARCHAR(40))")
    for user in ("ada", "grace", "edsger"):
        cursor.execute("INSERT INTO sessions (user_name) VALUES (?)", (user,))
    print("sessions stored:", cursor.execute("SELECT COUNT(*) FROM sessions").scalar())

    # --- survive a backend failure -------------------------------------------------
    print("\n--- failing backend pg-node1 ---")
    virtual_database.disable_backend("pg-node1")
    cursor.execute("INSERT INTO sessions (user_name) VALUES ('alan')")
    print("writes keep working, count =", cursor.execute("SELECT COUNT(*) FROM sessions").scalar())

    # re-integrate the failed backend: checkpoint the healthy one, restore.
    checkpoint = virtual_database.checkpoint_backend("pg-node2")
    # the failed node lost its disk: wipe it to make the point
    for table in list(postgres_1.catalog.table_names()):
        postgres_1.catalog.drop_table(table)
    virtual_database.recover_backend("pg-node1", checkpoint)
    print(
        "pg-node1 re-integrated from checkpoint",
        checkpoint,
        "rows:",
        postgres_1.execute("SELECT COUNT(*) FROM sessions").scalar(),
    )

    # --- survive a controller failure ------------------------------------------------
    print("\n--- failing controller-node1 ---")
    cluster.controller("controller-node1").shutdown()
    cursor.execute("INSERT INTO sessions (user_name) VALUES ('barbara')")
    print(
        "driver failed over to", connection.current_controller.name,
        "| failovers:", connection.failovers,
        "| count =", cursor.execute("SELECT COUNT(*) FROM sessions").scalar(),
    )
    print("\nthe system survived the failure of any single component")


if __name__ == "__main__":
    main()
