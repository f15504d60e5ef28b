"""The controller child process of a load run.

Boots the workload's cluster from its descriptor, populates it in-process
(populating TPC-W over the wire costs two orders of magnitude more),
starts the TCP front-ends, prints one ``ready`` line with the remote URL,
then answers one-word commands on stdin with one JSON line each:

* ``stats``   — :func:`snapshot.snapshot` (cluster and server statistics,
  process CPU, peak RSS);
* ``digests`` — ``repro.bench.chaos.table_digests`` of every engine;
* ``quit``    — shut the cluster down and exit.

End of input counts as ``quit``, so the child cannot outlive a parent that
died.  Only public API of ``repro`` is used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main() -> int:
    import repro
    from repro.bench.chaos import table_digests
    from snapshot import snapshot
    from workloads import VDB, descriptor, populate

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    cluster = repro.load_cluster(descriptor(args.workload))
    try:
        booted = time.perf_counter()
        connection = cluster.connect(VDB)
        populate(connection, args.workload, quick=args.quick)
        connection.close()
        populated = time.perf_counter()
        cluster.start_servers()
        reply(
            {
                "ready": True,
                "pid": os.getpid(),
                "url": cluster.remote_url(VDB),
                "boot_s": booted - started,
                "populate_s": populated - booted,
            }
        )
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                reply(snapshot(cluster))
            elif command == "digests":
                reply({name: table_digests(engine) for name, engine in cluster.engines.items()})
            elif command == "quit":
                break
            elif command:
                reply({"error": f"unknown command {command!r}"})
    finally:
        cluster.shutdown()
    return 0


def reply(document: dict) -> None:
    sys.stdout.write(json.dumps(document, default=str) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
