"""Piecewise-linear envelopes of the reward and of squared deviations.

Both constructions use chords through an increasing sequence of integer
breakpoints. With every integer of [lo, hi] as a breakpoint, the
linearization is exact wherever the supply is integral; coarser breakpoints
give a chord under-estimate (reward) or over-estimate (squared deviation).
Every piece ends at an integer breakpoint, so a model can split the supply
into one bounded segment per piece with an integral width.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domain import RewardParams

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


class _Pieces(Sequence):
    """The pieces of an envelope as `LinearPiece`s, each made when read, so
    taking the count makes none; equal to any sequence of the same pieces."""

    def __init__(self, env: _PiecewiseLinear):
        self._env = env

    def __len__(self) -> int:
        return len(self._env.slopes)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        env = self._env
        return LinearPiece(float(env.slopes[k]), float(env.intercepts[k]), int(env.ends[k]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


class _PiecewiseLinear:
    """Pieces in order of their breakpoints: piece k spans [end_{k-1}, end_k],
    with end_0 = start. Stored as arrays `slopes`, `intercepts` and `ends`."""

    _slope_order = 0  # sign every difference of consecutive slopes must have

    def __init__(self, pieces: Sequence[LinearPiece], start: int = 0):
        slopes = np.array([p.slope for p in pieces], dtype=float)
        intercepts = np.array([p.intercept for p in pieces], dtype=float)
        ends = np.array([p.end for p in pieces], dtype=np.int64)
        if not len(slopes):
            raise ValueError("need at least one piece")
        if not (np.all(np.isfinite(slopes)) and np.all(np.isfinite(intercepts))):
            raise ValueError("piece coefficients must be finite")
        widths = np.diff(ends, prepend=start)
        if np.any(widths <= 0):
            raise ValueError("piece ends must strictly increase from the start")
        self._set(slopes, intercepts, ends, widths, start)

    def _set(self, slopes, intercepts, ends, widths, start, monotone=False):
        """Store the pieces; `monotone` says the slopes are known to be ordered."""
        if not monotone and np.count_nonzero((slopes[1:] - slopes[:-1]) * self._slope_order <= 0):
            order = "increase" if self._slope_order > 0 else "decrease"
            raise ValueError(f"slopes must strictly {order}")
        self.slopes, self.intercepts, self.ends, self._widths = slopes, intercepts, ends, widths
        self.start = int(start)
        self.start_value = float(slopes[0] * start + intercepts[0])

    @classmethod
    def _through(cls, breakpoints: np.ndarray, values: np.ndarray):
        """Chords through (breakpoints[k], values[k]), merging equal slopes."""
        widths = breakpoints[1:] - breakpoints[:-1]
        slopes = (values[1:] - values[:-1]) / widths
        starts, ends, values = breakpoints[:-1], breakpoints[1:], values[:-1]
        # consecutive slopes ordered and apart by at least the merge tolerance
        apart = not np.count_nonzero((slopes[1:] - slopes[:-1]) * cls._slope_order
                                     < _SLOPE_MERGE_TOL)
        if not apart:
            first = _run_starts(slopes.tolist())
            slopes, starts, values = slopes[first], starts[first], values[first]
            ends = np.append(starts[1:], breakpoints[-1])
            widths = ends - starts
        env = cls.__new__(cls)
        env._set(slopes, values - slopes * starts, ends, widths, breakpoints[0], apart)
        return env

    @property
    def pieces(self) -> _Pieces:
        return _Pieces(self)

    def widths(self) -> np.ndarray:
        """Integer supply range spanned by each piece."""
        return self._widths


class ConcavePL(_PiecewiseLinear):
    """Concave piecewise-linear function: min over pieces, slopes decreasing."""

    _slope_order = -1

    def evaluate(self, y: float) -> float:
        return float(np.min(self.slopes * y + self.intercepts))


class ConvexPL(_PiecewiseLinear):
    """Convex piecewise-linear function: max over pieces, slopes increasing."""

    _slope_order = 1

    def evaluate(self, y: float) -> float:
        return float(np.max(self.slopes * y + self.intercepts))


def _run_starts(slopes: list[float]) -> list[int]:
    """Index of the first chord of each run; a chord joins the current run
    while its slope is within _SLOPE_MERGE_TOL of the run's first slope."""
    starts = [0]
    for i, slope in enumerate(slopes):
        if abs(slope - slopes[starts[-1]]) >= _SLOPE_MERGE_TOL:
            starts.append(i)
    return starts


def _breakpoints(breakpoints: int | Sequence[int]) -> np.ndarray:
    """Breakpoints as an int array; an int y_max stands for 0, 1, ..., y_max."""
    if isinstance(breakpoints, (int, np.integer)):
        if breakpoints < 1:
            raise ValueError("y_max must be >= 1")
        return np.arange(breakpoints + 1)
    b = np.asarray(breakpoints, dtype=np.int64)
    if len(b) < 2 or b[0] < 0 or np.count_nonzero(b[1:] <= b[:-1]):
        raise ValueError("need at least two increasing non-negative breakpoints")
    return b


def concavify_reward(p: RewardParams, breakpoints: int | Sequence[int]) -> ConcavePL:
    """Concave chord envelope of the reward through the given breakpoints.

    An int y_max gives the envelope that is exact at every integer in [0, y_max].
    """
    b = _breakpoints(breakpoints)
    y = b.astype(float)
    values = np.zeros_like(y) if p.d == 0 else p.d * (1.0 - np.exp(-p.a * y / p.d))
    return ConcavePL._through(b, values)


def convexify_sq_dev(target: float, breakpoints: int | Sequence[int]) -> ConvexPL:
    """Convex chord envelope of (y - target)^2 through the given breakpoints.

    An int y_max gives the envelope that is exact at every integer in [0, y_max].
    """
    b = _breakpoints(breakpoints)
    return ConvexPL._through(b, (b.astype(float) - target) ** 2)
