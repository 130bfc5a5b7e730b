"""Piecewise-linear envelopes of the reward and of squared deviations.

Both constructions use chords through consecutive integer supply values, so
the linearization is exact wherever the supply is integral. Every piece ends
at an integer breakpoint, so a model can split the supply into one bounded
segment per piece with an integral width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import RewardParams, reward

__all__ = [
    "ConcavePL",
    "ConvexPL",
    "LinearPiece",
    "concavify_reward",
    "convexify_sq_dev",
]

# chords whose slopes differ by less than this are merged into one piece
_SLOPE_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class LinearPiece:
    """The line slope*y + intercept, used on supply up to the integer `end`."""

    slope: float
    intercept: float
    end: int

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError("piece coefficients must be finite")

    def __call__(self, y: float) -> float:
        return self.slope * y + self.intercept


@dataclass(frozen=True)
class _PiecewiseLinear:
    """Pieces in order of their breakpoints: piece k spans [end_{k-1}, end_k], end_0 = 0."""

    pieces: tuple[LinearPiece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("need at least one piece")
        ends = [0] + [p.end for p in self.pieces]
        if any(b <= a for a, b in zip(ends, ends[1:])):
            raise ValueError("piece ends must strictly increase from 0")

    def widths(self) -> list[int]:
        """Integer supply range spanned by each piece."""
        ends = [0] + [p.end for p in self.pieces]
        return [b - a for a, b in zip(ends, ends[1:])]


@dataclass(frozen=True)
class ConcavePL(_PiecewiseLinear):
    """Concave piecewise-linear function: min over pieces, slopes decreasing."""

    def __post_init__(self):
        super().__post_init__()
        slopes = [p.slope for p in self.pieces]
        if any(b >= a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("slopes must strictly decrease")

    def evaluate(self, y: float) -> float:
        return min(p(y) for p in self.pieces)


@dataclass(frozen=True)
class ConvexPL(_PiecewiseLinear):
    """Convex piecewise-linear function: max over pieces, slopes increasing."""

    def __post_init__(self):
        super().__post_init__()
        slopes = [p.slope for p in self.pieces]
        if any(b <= a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("slopes must strictly increase")

    def evaluate(self, y: float) -> float:
        return max(p(y) for p in self.pieces)


def _chords(values: list[float]) -> list[LinearPiece]:
    """Chords through the integer nodes (i, values[i]), merging equal slopes."""
    chords: list[list] = []  # [slope, intercept, end]
    for i in range(1, len(values)):
        slope = values[i] - values[i - 1]
        if chords and abs(slope - chords[-1][0]) < _SLOPE_MERGE_TOL:
            chords[-1][2] = i
        else:
            chords.append([slope, values[i - 1] - slope * (i - 1), i])
    return [LinearPiece(slope=m, intercept=b, end=e) for m, b, e in chords]


def concavify_reward(p: RewardParams, y_max: int) -> ConcavePL:
    """Integer-exact concave chord envelope of the reward on [0, y_max]."""
    if y_max < 1:
        raise ValueError("y_max must be >= 1")
    values = [reward(float(y), p) for y in range(y_max + 1)]
    return ConcavePL(pieces=tuple(_chords(values)))


def convexify_sq_dev(target: float, y_max: int) -> ConvexPL:
    """Integer-exact convex chord envelope of (y - target)^2 on [0, y_max]."""
    if y_max < 1:
        raise ValueError("y_max must be >= 1")
    values = [(float(y) - target) ** 2 for y in range(y_max + 1)]
    return ConvexPL(pieces=tuple(_chords(values)))
