"""Piecewise-linear envelopes of the reward and of squared deviations.

Both constructions use chords through an increasing sequence of integer
breakpoints per time step, and build every step at once. With every integer
of [lo, hi] as a breakpoint, the linearization is exact wherever the supply
is integral; coarser breakpoints give a chord under-estimate (reward) or
over-estimate (squared deviation). Every piece ends at an integer
breakpoint, so a model can split the supply into one bounded segment per
piece with an integral width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import reward_vector

__all__ = ["Envelopes", "concavify_reward", "convexify_sq_dev"]

# chords whose slopes differ by less than this are merged into one piece
_SLOPE_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Envelopes:
    """The envelopes of steps 0..T-1, their pieces flat and in step order.

    Piece k of step `step[k]` is the line slopes[k]*y + intercepts[k] on
    supply from the end of the step's previous piece (or from `start`) up to
    the integer ends[k]; `start_value` is the envelope at `start`. With
    sign = 1 every envelope is concave (min of its lines, slopes decreasing);
    with sign = -1 convex (max of its lines, slopes increasing).
    """

    step: np.ndarray
    ends: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    start: np.ndarray
    start_value: np.ndarray
    sign: int

    @property
    def pieces(self) -> np.recarray:
        """One record (step, end, slope, intercept) per piece."""
        return np.rec.fromarrays((self.step, self.ends, self.slopes, self.intercepts),
                                 names="step,end,slope,intercept")

    def _first(self) -> np.ndarray:
        """Index of every step's first piece."""
        return np.searchsorted(self.step, np.arange(len(self.start)))

    def widths(self) -> np.ndarray:
        """Integer supply range spanned by each piece."""
        begins = np.empty_like(self.ends)
        begins[1:] = self.ends[:-1]
        begins[self._first()] = self.start
        return self.ends - begins

    def evaluate(self, y) -> np.ndarray:
        """Every step's envelope at its supply y[t]."""
        lines = self.slopes * np.asarray(y, dtype=float)[self.step] + self.intercepts
        return (np.minimum if self.sign > 0 else np.maximum).reduceat(lines, self._first())


def _run_starts(steps: list[int], slopes: list[float]) -> list[int]:
    """Index of the first chord of each run; a chord joins the current run while it has the
    run's step and its slope is within _SLOPE_MERGE_TOL of the run's first slope."""
    starts, run_step, run_slope = [], None, 0.0
    for i, (step, slope) in enumerate(zip(steps, slopes)):
        if step != run_step or abs(slope - run_slope) >= _SLOPE_MERGE_TOL:
            starts.append(i)
            run_step, run_slope = step, slope
    return starts


def _grid(n_steps: int, lo, hi, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Every step's breakpoints lo_t, lo_t + stride, ..., hi_t, flat, and their steps."""
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=np.int64), n_steps) for v in (lo, hi))
    if stride < 1 or np.any(lo < 0) or np.any(hi <= lo):
        raise ValueError("need 0 <= lo < hi on every step and a stride >= 1")
    count = -(-(hi - lo) // stride) + 1
    step = np.repeat(np.arange(n_steps), count)
    k = np.arange(len(step)) - np.repeat(np.cumsum(count) - count, count)
    return np.minimum(lo[step] + k * stride, hi[step]), step


def _chords(b: np.ndarray, step: np.ndarray, values: np.ndarray, sign: int) -> Envelopes:
    """Chords through (b[j], values[j]) within each step, merging equal or
    out-of-order slopes into one chord through the ends of their run."""
    # step t's breakpoints are first[t]..last[t], its chords first[t]-t..last[t]-t-1
    first = np.flatnonzero(np.diff(step, prepend=-1))
    last = np.append(first[1:], len(b)) - 1
    j = np.delete(np.arange(len(b) - 1), last[:-1])  # left ends of the chords
    slopes = (values[j + 1] - values[j]) / (b[j + 1] - b[j])
    chord_step = step[j]
    # consecutive chords of a step with slopes out of order or within the tolerance
    close = ((slopes[1:] - slopes[:-1]) * -sign < _SLOPE_MERGE_TOL) & (
        chord_step[1:] == chord_step[:-1])
    if close.any():  # every chord of such a step, in runs
        merged = np.zeros(len(first), dtype=bool)
        merged[chord_step[1:][close]] = True
        keep = ~merged[chord_step]
        at = np.flatnonzero(~keep)
        keep[at[_run_starts(chord_step[at].tolist(), slopes[at].tolist())]] = True
        j, chord_step = j[keep], chord_step[keep]
    # a piece runs from breakpoint j to the next piece's, or to its step's last, and
    # its slope is that of the chord through its ends; a piece whose slope rounding
    # left out of order with its predecessor's is pooled with it, until none is
    while True:
        step_end = np.append(chord_step[1:] != chord_step[:-1], True)
        e = np.where(step_end, last[chord_step], np.append(j[1:], 0))
        starts, ends = b[j], b[e]
        slopes = (values[e] - values[j]) / (ends - starts)
        keep = np.append(True, (np.diff(slopes) * sign < 0) | step_end[:-1])
        if keep.all():
            break
        j, chord_step = j[keep], chord_step[keep]
    intercepts = values[j] - slopes * starts
    head = np.flatnonzero(np.diff(chord_step, prepend=-1))
    return Envelopes(step=chord_step, ends=ends, slopes=slopes, intercepts=intercepts,
                     start=b[first], start_value=slopes[head] * b[first] + intercepts[head],
                     sign=sign)


def concavify_reward(d, a: float, lo, hi, stride: int = 1) -> Envelopes:
    """Concave chord envelopes of the reward d_t * (1 - exp(-a*y/d_t)), 0 when
    d_t = 0, of every step t, through breakpoints lo_t, lo_t + stride, ..., hi_t."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0) or not a > 0:
        raise ValueError("demand must be >= 0 and steepness > 0")
    b, step = _grid(len(d), lo, hi, stride)
    return _chords(b, step, reward_vector(b, d[step], a), 1)


def convexify_sq_dev(target, lo, hi, stride: int = 1) -> Envelopes:
    """Convex chord envelopes of (y - target_t)^2 of every step t, through
    breakpoints lo_t, lo_t + stride, ..., hi_t."""
    target = np.asarray(target, dtype=float)
    b, step = _grid(len(target), lo, hi, stride)
    return _chords(b, step, (b.astype(float) - target[step]) ** 2, -1)
