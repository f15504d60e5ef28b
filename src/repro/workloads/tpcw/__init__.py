"""TPC-W: transactional web e-commerce benchmark (online bookstore).

The paper's evaluation (§6.2-§6.5) runs the Java servlet implementation of
TPC-W from the University of Wisconsin with 10,000 items and 288,000
customers, and reports SQL-requests-per-minute for the three workload mixes
(browsing 95 % read-only, shopping 80 %, ordering 50 %).

This package provides:

* :mod:`repro.workloads.tpcw.schema` — the TPC-W tables and a scalable data
  generator;
* :mod:`repro.workloads.tpcw.interactions` — the 14 web interactions as SQL
  transaction templates;
* :mod:`repro.workloads.tpcw.mixes` — the browsing / shopping / ordering
  interaction mixes.
"""

from repro.workloads.tpcw.interactions import INTERACTION_NAMES, TPCWInteractions
from repro.workloads.tpcw.mixes import BROWSING_MIX, ORDERING_MIX, SHOPPING_MIX, TPCWMix
from repro.workloads.tpcw.schema import TPCWDataGenerator, TPCW_TABLES, create_schema

__all__ = [
    "BROWSING_MIX",
    "INTERACTION_NAMES",
    "ORDERING_MIX",
    "SHOPPING_MIX",
    "TPCWDataGenerator",
    "TPCWInteractions",
    "TPCWMix",
    "TPCW_TABLES",
    "create_schema",
]
