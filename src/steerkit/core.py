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


# A value within this guard of its bound is not below it, so rounding cannot
# decide a verdict on the bound.  Bounds are 1 or 2; the guard is absolute.
BOUNDARY_TOLERANCE = 1e-9


def below_bound(value: float, bound: float) -> bool:
    """The one rule behind every verdict, genuine, collective and monogamy flag."""
    return value < bound - BOUNDARY_TOLERANCE


def as_integer(value, requirement: str, minimum: float = -math.inf) -> int:
    """value as a Python int if it is an integer but a bool (numpy ints pass)
    and >= minimum; a float, a string or True raises ValueError(requirement)."""
    if type(value) is int and value >= minimum:  # the common case skips the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{requirement}, got {value!r}")
    return int(value)


def as_real(value, requirement: str, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a Python float if it is a real number but a bool (numpy floats
    and ints pass), finite and in [low, high]; else ValueError(requirement)."""
    # a float, the common case, skips the slower ABC check; NaN stands for a refusal
    real = type(value) is float or (not isinstance(value, bool) and isinstance(value, numbers.Real))
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int or a Fraction beyond the float range
        number = math.nan
    if low <= number <= high and math.isfinite(number):
        return number
    raise ValueError(f"{requirement}, got {value!r}")


def as_site(site, n: int | None = None) -> int:
    """A site (or mode) index as a Python int (see as_integer) in 1..n, or
    at least 1 when n is None; anything else raises ValueError."""
    if type(site) is not int:  # the common case skips the slower ABC check
        site = as_integer(site, "sites must be integers")
    if site < 1 or (n is not None and site > n):
        raise ValueError(f"site {site} outside 1..{'' if n is None else n}")
    return site


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

    The verdict is below_bound(value, bound): a value on its bound, or at
    most BOUNDARY_TOLERANCE (1e-9) below it, is not a violation.
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
        if self.verdict != below_bound(self.value, self.bound):
            raise ValueError("verdict must equal (value < bound - 1e-9)")

    @classmethod
    def of(
        cls,
        criterion_id: CriterionId,
        partition: SitePartition,
        value: float,
        bound: float = 1.0,
    ) -> "SteeringValue":
        value, bound = float(value), float(bound)
        return cls(criterion_id, partition, value, bound, below_bound(value, bound))

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
