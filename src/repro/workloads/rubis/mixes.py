"""RUBiS workload mixes.

The paper's Table 1 uses the *bidding mix*: 80 % read-only interactions and
20 % read-write interactions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator

from repro.workloads.rubis.interactions import INTERACTION_NAMES, READ_ONLY_INTERACTIONS


@dataclass
class RUBiSMix:
    """A named interaction mix: interaction name -> stationary weight."""

    name: str
    weights: Dict[str, float]

    def __post_init__(self):
        unknown = set(self.weights) - set(INTERACTION_NAMES)
        if unknown:
            raise ValueError(f"unknown interactions in mix {self.name!r}: {sorted(unknown)}")
        total = sum(self.weights.values())
        self.weights = {name: weight / total for name, weight in self.weights.items()}

    @property
    def read_only_fraction(self) -> float:
        return sum(
            weight
            for name, weight in self.weights.items()
            if name in READ_ONLY_INTERACTIONS
        )

    def sample(self, rng: random.Random) -> str:
        value = rng.random()
        cumulative = 0.0
        for name, weight in self.weights.items():
            cumulative += weight
            if value <= cumulative:
                return name
        return next(reversed(self.weights))

    def interaction_stream(self, seed: int = 0) -> Iterator[str]:
        rng = random.Random(seed)
        while True:
            yield self.sample(rng)


#: Bidding mix: 80 % read-only / 20 % read-write interactions (Table 1).
BIDDING_MIX = RUBiSMix(
    "bidding",
    {
        "browse_categories": 8.0,
        "browse_regions": 6.0,
        "search_items_by_category": 22.0,
        "search_items_by_region": 10.0,
        "view_item": 20.0,
        "view_user_info": 8.0,
        "view_bid_history": 6.0,
        "register_user": 1.5,
        "register_item": 2.5,
        "store_bid": 10.0,
        "store_buy_now": 2.0,
        "store_comment": 4.0,
    },
)
