"""RUBiS: Rice University Bidding System (auction site, eBay-like).

Used in the paper (§6.6, Table 1) to evaluate the query result cache: the
servlet version with the *bidding mix* (80 % read-only, 20 % read-write
interactions), 450 clients and a single MySQL backend.
"""

from repro.workloads.rubis.interactions import INTERACTION_NAMES, RUBiSInteractions
from repro.workloads.rubis.mixes import BIDDING_MIX, RUBiSMix
from repro.workloads.rubis.schema import RUBISDataGenerator, RUBIS_TABLES, create_schema

__all__ = [
    "BIDDING_MIX",
    "INTERACTION_NAMES",
    "RUBISDataGenerator",
    "RUBIS_TABLES",
    "RUBiSInteractions",
    "RUBiSMix",
    "create_schema",
]
