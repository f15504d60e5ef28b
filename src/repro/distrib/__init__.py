"""Horizontal and vertical scalability (paper §4).

* Horizontal: :class:`DistributedVirtualDatabase` replicates a virtual
  database across several controllers, synchronising writes and transaction
  demarcation through the group communication layer (§4.1);
* Vertical: :func:`nested_backend_config` turns a whole virtual database
  hosted by another controller into a backend of this controller, by using
  the C-JDBC driver as the backend's "native driver" (§4.2).
"""

from repro.distrib.distributed_vdb import DistributedVirtualDatabase
from repro.distrib.vertical import NestedVirtualDatabaseMetaData, nested_backend_config

__all__ = [
    "DistributedVirtualDatabase",
    "NestedVirtualDatabaseMetaData",
    "nested_backend_config",
]
