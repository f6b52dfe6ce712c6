"""Exception types and the check record shared across the engine."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """``value`` against ``bound``: it passes at value < bound if ``strict``,
    else at value <= bound (a NaN value fails); nothing else decides a pass."""

    name: str
    value: float
    bound: float
    strict: bool = False

    @property
    def ok(self) -> bool:
        return bool(self.value < self.bound if self.strict
                    else self.value <= self.bound)

    @classmethod
    def worst(cls, name: str, pairs, limit: float = 1.0) -> "Check":
        """Many (value, bound) pairs as one check: their largest value /
        bound (0 where the value is 0) against ``limit``."""
        ratios = [0.0 if v == 0 else v / b if b else np.inf for v, b in pairs]
        return cls(name, float(np.max(ratios, initial=0.0)), limit)


class TorusflowError(Exception):
    """Base class for all engine errors."""


class ScaleMismatch(TorusflowError):
    """A norm or certificate was requested beyond the scale a field carries."""


class RealityDefect(TorusflowError):
    """A map meant to be real takes non-real values on the real grid."""


class DomainEscape(TorusflowError):
    """A norm bound certifies that an argument leaves the controlled strip."""


class TruncationBudgetExceeded(TorusflowError):
    """The discarded spectral tail of an operation exceeds the budget."""


class NonContraction(TorusflowError):
    """Observed iteration ratios contradict the contraction certificate."""


class OutOfRange(TorusflowError):
    """An inversion target violates the distance precondition, or a norm
    is not finite (its strip weights overflow)."""


class ContractionStall(TorusflowError):
    """A fixed-point residual stopped decreasing before reaching tolerance."""


class NoPositiveRadius(TorusflowError):
    """No radius on the search grid satisfies the inverse-chart bound."""


class InvertibilityLost(TorusflowError):
    """A composed map no longer carries a valid invertibility certificate."""


class EmptyLevel(TorusflowError):
    """A nested-ball level has an empty sampling intersection."""


class AdmissibilityViolation(TorusflowError):
    """A field fails the smallness certificates of the local solver."""

