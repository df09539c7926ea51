"""Shared value types used by both the qubit and Gaussian backends."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np


def freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CriterionId(enum.Enum):
    """Identifies which steering inequality produced a value."""

    CV_PRODUCT = "cv-product"
    SPIN_SUM_2OBS = "spin-sum-2obs"
    SPIN_SUM_3OBS = "spin-sum-3obs"
    CV_FIXED_COMBO = "cv-fixed-combo"


# Criteria built from two observables per site.  The three-observable spin
# sum is excluded: its bound is 2 and the monogamy product argument does not
# apply to it.
TWO_OBSERVABLE_CRITERIA = frozenset(
    {CriterionId.CV_PRODUCT, CriterionId.SPIN_SUM_2OBS, CriterionId.CV_FIXED_COMBO}
)


def as_integer(value, requirement: str, minimum: float = -math.inf) -> int:
    """value as a Python int if it is an integer but a bool (numpy ints pass)
    and >= minimum; a float, a string or True raises ValueError(requirement)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{requirement}, got {value!r}")
    return int(value)


def as_site(site) -> int:
    """A site (or mode) index as a Python int (see as_integer)."""
    if type(site) is int:  # the common case, without the slower ABC check
        return site
    return as_integer(site, "sites must be integers")


@dataclass(frozen=True)
class SitePartition:
    """A steering group A and the single target site B it tries to steer.

    Sites are 1-based.  For Gaussian states "site" means "mode".
    """

    steering_group: frozenset[int]
    target_site: int

    def __post_init__(self) -> None:
        group = frozenset(map(as_site, self.steering_group))
        object.__setattr__(self, "steering_group", group)
        object.__setattr__(self, "target_site", as_site(self.target_site))
        if not group:
            raise ValueError("steering group must be non-empty")
        if min(group) < 1 or self.target_site < 1:
            raise ValueError("sites are 1-based positive integers")
        if self.target_site in group:
            raise ValueError("target site must not belong to the steering group")

    @property
    def sites(self) -> frozenset[int]:
        return self.steering_group | {self.target_site}


def partition(steering_group: Iterable[int], target_site: int) -> SitePartition:
    """Convenience constructor accepting any iterable of sites."""
    return SitePartition(frozenset(steering_group), target_site)


# Each of the sites 1, 2, 3 steered by the other two, in site order.
STEERED_BY_COMPLEMENT = (
    SitePartition(frozenset({2, 3}), 1),
    SitePartition(frozenset({1, 3}), 2),
    SitePartition(frozenset({1, 2}), 3),
)


@dataclass(frozen=True)
class SteeringValue:
    """One evaluated steering criterion.

    The verdict is strict: value == bound is not a violation.
    """

    criterion_id: CriterionId
    partition: SitePartition
    value: float
    bound: float
    verdict: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "bound", float(self.bound))
        if not isinstance(self.criterion_id, CriterionId):
            raise ValueError("criterion_id must be a CriterionId")
        if self.bound not in (1.0, 2.0):
            raise ValueError(f"bound must be 1 or 2, got {self.bound}")
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"value must be finite and non-negative, got {self.value}")
        if self.verdict != (self.value < self.bound):
            raise ValueError("verdict must equal (value < bound)")

    @classmethod
    def of(
        cls,
        criterion_id: CriterionId,
        partition: SitePartition,
        value: float,
        bound: float = 1.0,
    ) -> "SteeringValue":
        value = float(value)
        bound = float(bound)
        return cls(criterion_id, partition, value, bound, value < bound)

    def to_dict(self) -> dict:
        """Flat JSON-ready representation."""
        return {
            "record": "steering-value",
            "criterion": self.criterion_id.value,
            "target": self.partition.target_site,
            "group": sorted(self.partition.steering_group),
            "value": self.value,
            "bound": self.bound,
            "verdict": self.verdict,
        }
