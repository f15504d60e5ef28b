"""TPC-W workload mixes (browsing / shopping / ordering).

TPC-W specifies the mixes through a Markov transition matrix over the 14
interactions; what matters for the database tier (and for the paper's
results) is the stationary frequency of each interaction and in particular
the fraction of read-only interactions: 95 % for the browsing mix, 80 % for
the shopping mix and 50 % for the ordering mix (paper §6.2).

We encode each mix directly as the stationary interaction frequencies
(weights), chosen so that the read-only interaction fractions match the
specification and the relative popularity of interactions follows the
TPC-W 1.8 specification tables (best sellers and new products dominate the
browsing mix, the ordering mix is dominated by the buy path).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.workloads.tpcw.interactions import INTERACTION_NAMES, READ_ONLY_INTERACTIONS


@dataclass
class TPCWMix:
    """A named interaction mix: interaction name -> stationary weight."""

    name: str
    weights: Dict[str, float]
    #: think time between interactions in seconds (TPC-W uses a mean of 7 s;
    #: the emulated browsers of the paper's testbed follow the same model)
    mean_think_time: float = 7.0

    def __post_init__(self):
        unknown = set(self.weights) - set(INTERACTION_NAMES)
        if unknown:
            raise ValueError(f"unknown interactions in mix {self.name!r}: {sorted(unknown)}")
        total = sum(self.weights.values())
        self.weights = {name: weight / total for name, weight in self.weights.items()}

    # -- properties ------------------------------------------------------------------

    @property
    def read_only_fraction(self) -> float:
        """Fraction of interactions that are read-only (per the spec's 6/14 split)."""
        return sum(
            weight
            for name, weight in self.weights.items()
            if name in READ_ONLY_INTERACTIONS
        )

    # -- sampling ---------------------------------------------------------------------

    def sample(self, rng: random.Random) -> str:
        """Draw one interaction name according to the mix weights."""
        value = rng.random()
        cumulative = 0.0
        for name, weight in self.weights.items():
            cumulative += weight
            if value <= cumulative:
                return name
        return next(reversed(self.weights))

    def sample_think_time(self, rng: random.Random) -> float:
        """Negative-exponential think time, truncated like the TPC-W spec."""
        think = rng.expovariate(1.0 / self.mean_think_time)
        return min(think, self.mean_think_time * 10)

    def interaction_stream(self, seed: int = 0) -> Iterator[str]:
        """Infinite deterministic stream of interaction names."""
        rng = random.Random(seed)
        while True:
            yield self.sample(rng)


#: Browsing mix: 95 % read-only interactions, dominated by browse/search and
#: the expensive best-seller interaction.
BROWSING_MIX = TPCWMix(
    "browsing",
    {
        "home": 29.00,
        "new_products": 11.00,
        "best_sellers": 11.00,
        "product_detail": 21.00,
        "search_request": 12.00,
        "search_results": 11.00,
        "shopping_cart": 2.00,
        "customer_registration": 0.82,
        "buy_request": 0.75,
        "buy_confirm": 0.69,
        "order_inquiry": 0.30,
        "order_display": 0.25,
        "admin_request": 0.10,
        "admin_confirm": 0.09,
    },
)

#: Shopping mix: 80 % read-only interactions (the most representative mix).
SHOPPING_MIX = TPCWMix(
    "shopping",
    {
        "home": 16.00,
        "new_products": 5.00,
        "best_sellers": 5.00,
        "product_detail": 17.00,
        "search_request": 20.00,
        "search_results": 17.00,
        "shopping_cart": 11.60,
        "customer_registration": 3.00,
        "buy_request": 2.60,
        "buy_confirm": 1.20,
        "order_inquiry": 0.75,
        "order_display": 0.66,
        "admin_request": 0.10,
        "admin_confirm": 0.09,
    },
)

#: Ordering mix: 50 % read-only interactions, 50 % with updates.
ORDERING_MIX = TPCWMix(
    "ordering",
    {
        "home": 9.12,
        "new_products": 0.46,
        "best_sellers": 0.46,
        "product_detail": 12.35,
        "search_request": 14.53,
        "search_results": 13.08,
        "shopping_cart": 13.53,
        "customer_registration": 12.86,
        "buy_request": 12.73,
        "buy_confirm": 10.18,
        "order_inquiry": 0.25,
        "order_display": 0.22,
        "admin_request": 0.12,
        "admin_confirm": 0.11,
    },
)

ALL_MIXES: Dict[str, TPCWMix] = {
    "browsing": BROWSING_MIX,
    "shopping": SHOPPING_MIX,
    "ordering": ORDERING_MIX,
}


def mix_by_name(name: str) -> TPCWMix:
    try:
        return ALL_MIXES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown TPC-W mix {name!r}") from None
