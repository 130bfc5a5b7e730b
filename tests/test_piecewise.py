import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftopt import Envelopes, RewardParams, concavify_reward, convexify_sq_dev, reward
from shiftopt.domain import reward_vector

from oracles import reward_chords, sq_dev_chords


def at(env: Envelopes, y: float) -> float:
    """A one-step envelope's value at y."""
    return float(env.evaluate([y])[0])


def step_widths(env: Envelopes) -> list[int]:
    return np.bincount(env.step, env.widths()).astype(int).tolist()


class TestConcavifyReward:
    def test_zero_demand_single_piece(self):
        env = concavify_reward([0.0], 1.0, 0, 5)
        assert len(env.pieces) == 1
        assert (env.slopes.tolist(), env.intercepts.tolist(), env.ends.tolist()) == (
            [0.0], [0.0], [5])

    def test_unit_chords(self):
        env = concavify_reward([1.0], 1.0, 0, 2)
        s1, s2 = env.slopes
        assert s1 == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert s2 == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-12)
        i1, i2 = env.intercepts
        assert i1 == pytest.approx(0.0, abs=1e-12)
        assert i2 == pytest.approx(0.399576, abs=1e-6)

    def test_exact_at_integer_nodes(self):
        env = concavify_reward([1.0], 1.0, 0, 2)
        assert at(env, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_y_max_too_small(self):
        with pytest.raises(ValueError):
            concavify_reward([1.0], 1.0, 0, 0)

    def test_subnormal_demand_without_warning(self):
        # a*y/d overflows to inf: every y >= 1 serves all of the demand
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = concavify_reward([1e-310], 2.0, 0, 5)
        assert env.evaluate([0]).tolist() == [0.0]
        assert env.evaluate([5])[0] == pytest.approx(1e-310, rel=1e-9)

    @given(ds=st.lists(st.floats(0.01, 50), min_size=1, max_size=4), a=st.floats(0.1, 5),
           y_max=st.integers(1, 20))
    def test_integer_exactness_and_underestimation(self, ds, a, y_max):
        env = concavify_reward(ds, a, 0, y_max)
        params = [RewardParams(d=d, a=a) for d in ds]
        for k in range(y_max + 1):
            exact = [reward(k, p) for p in params]
            assert env.evaluate(np.full(len(ds), k)) == pytest.approx(exact, abs=1e-9)
        for y in np.linspace(0, y_max, 37):
            exact = np.array([reward(float(y), p) for p in params])
            assert np.all(env.evaluate(np.full(len(ds), y)) <= exact + 1e-9)

    @given(d=st.floats(0.01, 50), a=st.floats(0.1, 5), y_max=st.integers(1, 40))
    def test_slopes_strictly_decrease(self, d, a, y_max):
        env = concavify_reward([d], a, 0, y_max)
        slopes = env.slopes.tolist()
        assert all(b < a_ for a_, b in zip(slopes, slopes[1:]))
        assert step_widths(env) == [y_max]


class TestConvexifySqDev:
    def test_chords_of_square(self):
        assert convexify_sq_dev([0.0], 0, 2).slopes.tolist() == [1.0, 3.0]

    def test_exact_at_integers_near_target(self):
        env = convexify_sq_dev([1.5], 0, 3)
        assert at(env, 1.0) == pytest.approx(0.25, abs=1e-12)
        assert at(env, 2.0) == pytest.approx(0.25, abs=1e-12)

    def test_y_max_too_small(self):
        with pytest.raises(ValueError):
            convexify_sq_dev([1.0], 0, 0)

    @given(targets=st.lists(st.floats(-5, 25), min_size=1, max_size=4),
           y_max=st.integers(1, 20))
    def test_integer_exactness(self, targets, y_max):
        env = convexify_sq_dev(targets, 0, y_max)
        for k in range(y_max + 1):
            exact = [(k - target) ** 2 for target in targets]
            assert env.evaluate(np.full(len(targets), k)) == pytest.approx(exact, abs=1e-9)
        for t in range(len(targets)):
            slopes = env.slopes[env.step == t].tolist()
            assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert step_widths(env) == [y_max] * len(targets)


class TestOrderedAtLargeValues:
    """Rounding noise in the chord slopes grows with the values; a piece out
    of order with its predecessor is pooled with it, so each envelope stays
    concave or convex and meets the function at every breakpoint."""

    @pytest.mark.parametrize("build, exact", [
        (lambda: concavify_reward([1e5], 1.0, 2_000_000, 2_010_000),
         lambda y: reward_vector(y, np.full(len(y), 1e5), 1.0)),
        (lambda: convexify_sq_dev([1e12], 0, 2000), lambda y: (y - 1e12) ** 2),
    ])
    def test_slopes_ordered_and_exact_at_breakpoints(self, build, exact):
        env = build()
        assert np.all(np.diff(env.slopes) * env.sign < 0)
        y = np.arange(env.start[0], env.ends[-1] + 1, dtype=float)
        reduce = np.min if env.sign > 0 else np.max
        lines = np.concatenate([reduce(np.outer(env.slopes, part) + env.intercepts[:, None], 0)
                                for part in np.array_split(y, 200)])
        want = exact(y)
        assert np.all(np.abs(lines - want) <= 4 * np.spacing(np.abs(want)))


_WINDOWS = st.integers(1, 80).flatmap(lambda y_max: st.tuples(
    st.just(y_max),
    st.lists(st.integers(0, y_max - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, y_max))), min_size=1, max_size=4),
))


class TestWindowedEnvelopes:
    """An envelope over the integers of [lo, hi] is the full one restricted."""

    @staticmethod
    def _check(full: Envelopes, window: Envelopes, y_max: int, lo, hi):
        assert window.start.tolist() == lo
        assert window.ends[np.cumsum(np.bincount(window.step)) - 1].tolist() == hi
        assert step_widths(window) == [h - l for l, h in zip(lo, hi)]
        for k in range(y_max + 1):
            y = np.clip(k, lo, hi)
            # merged tail pieces (slopes within 1e-12) start at different breakpoints
            assert window.evaluate(y) == pytest.approx(full.evaluate(y), abs=1e-9)

    @given(a=st.floats(0.1, 5), windows=_WINDOWS, data=st.data())
    def test_reward_window_equals_full(self, a, windows, data):
        y_max, bounds = windows
        lo, hi = (list(v) for v in zip(*bounds))
        d = data.draw(st.lists(st.floats(0.0, 50), min_size=len(lo), max_size=len(lo)))
        self._check(concavify_reward(d, a, 0, y_max), concavify_reward(d, a, lo, hi),
                    y_max, lo, hi)

    @given(windows=_WINDOWS, data=st.data())
    def test_sq_dev_window_equals_full(self, windows, data):
        y_max, bounds = windows
        lo, hi = (list(v) for v in zip(*bounds))
        target = data.draw(st.lists(st.floats(0, 90), min_size=len(lo), max_size=len(lo)))
        self._check(convexify_sq_dev(target, 0, y_max), convexify_sq_dev(target, lo, hi),
                    y_max, lo, hi)

    def test_coarse_breakpoints_bound_the_reward(self):
        p = RewardParams(d=10.0, a=2.0)
        coarse = concavify_reward([p.d], p.a, 0, 9, stride=4)  # breakpoints 0, 4, 8, 9
        assert coarse.ends.tolist() == [4, 8, 9]
        assert coarse.widths().tolist() == [4, 4, 1]
        for k in (0, 4, 8, 9):
            assert at(coarse, k) == pytest.approx(reward(k, p), abs=1e-12)
        for k in range(10):
            assert at(coarse, k) <= reward(k, p) + 1e-12

    @pytest.mark.parametrize("d, a", [([1.0, -1.0], 1.0), ([1.0, 1.0], 0.0)])
    def test_negative_demand_or_flat_reward_rejected(self, d, a):
        with pytest.raises(ValueError, match="demand must be >= 0 and steepness > 0"):
            concavify_reward(d, a, 0, 3)

    def test_breakpoints_must_increase(self):
        for lo, hi, stride in ((0, 0, 1), (2, 1, 1), (-1, 3, 1), (0, 3, 0), ([0, 2], [2, 2], 1)):
            with pytest.raises(ValueError):
                concavify_reward([1.0, 1.0], 1.0, lo, hi, stride)
            with pytest.raises(ValueError):
                convexify_sq_dev([1.0, 1.0], lo, hi, stride)


_DEMAND = st.one_of(st.just(0.0), st.floats(1e-3, 0.5), st.floats(0.5, 50))


class TestBoundsAtEveryInteger:
    """An envelope under-estimates the reward (over-estimates the squared
    deviation) at every integer of its window, up to the rounding of the
    line that attains it."""

    @staticmethod
    def _check(env: Envelopes, exact, lo, hi):
        eps = np.finfo(float).eps
        for t, (l, h) in enumerate(zip(lo, hi)):
            mine = env.step == t
            y = np.arange(l, h + 1)
            lines = env.slopes[mine] * y[:, None] + env.intercepts[mine]
            k = (np.argmin if env.sign > 0 else np.argmax)(lines, axis=1)
            value = lines[np.arange(len(y)), k]
            f = exact(t, y.astype(float))
            tol = 4 * eps * (np.abs(env.slopes[mine][k] * y) + np.abs(env.intercepts[mine][k])
                             + np.abs(f))
            assert np.all(env.sign * (value - f) <= tol), (t, np.max(env.sign * (value - f)))

    @given(a=st.floats(0.1, 5), windows=_WINDOWS, stride=st.integers(1, 7), data=st.data())
    def test_reward(self, a, windows, stride, data):
        _, bounds = windows
        lo, hi = zip(*bounds)
        d = data.draw(st.lists(_DEMAND, min_size=len(lo), max_size=len(lo)))
        env = concavify_reward(d, a, lo, hi, stride)
        self._check(env, lambda t, y: reward_vector(y, np.full(len(y), d[t]), a), lo, hi)

    @given(windows=_WINDOWS, stride=st.integers(1, 7), data=st.data())
    def test_sq_dev(self, windows, stride, data):
        _, bounds = windows
        lo, hi = zip(*bounds)
        target = data.draw(st.lists(st.floats(-5, 90), min_size=len(lo), max_size=len(lo)))
        env = convexify_sq_dev(target, lo, hi, stride)
        self._check(env, lambda t, y: (y - target[t]) ** 2, lo, hi)


def _bits(v) -> bytes:
    return np.ascontiguousarray(v).tobytes()


class TestMatchesPerStepChords:
    """Every step's pieces are, bit for bit, those of its own chords."""

    @staticmethod
    def _check(env: Envelopes, chords, lo, hi, stride):
        assert len(env.start) == len(lo)
        for t, (l, h) in enumerate(zip(lo, hi)):
            breakpoints = np.append(np.arange(l, h, stride), h)
            slopes, intercepts, ends, start_value = chords(t, breakpoints)
            mine = env.step == t
            assert _bits(env.slopes[mine]) == _bits(slopes)
            assert _bits(env.intercepts[mine]) == _bits(intercepts)
            assert env.ends[mine].tolist() == ends.tolist()
            assert env.start[t] == l
            assert _bits(env.start_value[t]) == _bits(start_value)

    @given(a=st.floats(0.1, 5), windows=_WINDOWS, stride=st.integers(1, 7), data=st.data())
    def test_reward(self, a, windows, stride, data):
        _, bounds = windows
        lo, hi = zip(*bounds)
        d = data.draw(st.lists(_DEMAND, min_size=len(lo), max_size=len(lo)))
        env = concavify_reward(d, a, lo, hi, stride)
        self._check(env, lambda t, b: reward_chords(d[t], a, b), lo, hi, stride)

    @given(windows=_WINDOWS, stride=st.integers(1, 7), data=st.data())
    def test_sq_dev(self, windows, stride, data):
        _, bounds = windows
        lo, hi = zip(*bounds)
        target = data.draw(st.lists(st.floats(-5, 90), min_size=len(lo), max_size=len(lo)))
        env = convexify_sq_dev(target, lo, hi, stride)
        self._check(env, lambda t, b: sq_dev_chords(target[t], b), lo, hi, stride)


def _hand_built(slopes, intercepts, ends, sign) -> Envelopes:
    return Envelopes(step=np.zeros(len(ends), dtype=np.int64), ends=np.array(ends),
                     slopes=np.array(slopes), intercepts=np.array(intercepts),
                     start=np.array([0]), start_value=np.array([intercepts[0]]), sign=sign)


class TestEvalPl:
    def test_single_line(self):
        assert at(_hand_built([1.0], [0.0], [1], 1), 3.0) == 3.0

    def test_min_of_pieces(self):
        env = _hand_built([1.0, 0.0], [0.0, 1.0], [1, 2], 1)
        assert at(env, 0.5) == 0.5
        assert at(env, 2.0) == 1.0

    def test_max_of_pieces(self):
        env = _hand_built([0.0, 1.0], [1.0, 0.0], [1, 2], -1)
        assert at(env, 2.0) == 2.0
        assert at(env, 0.5) == 1.0

    def test_each_step_reads_its_own_supply(self):
        env = concavify_reward([0.0, 4.0, 2.0], 1.0, 0, 6)
        y = np.array([3, 5, 1])
        exact = [reward(float(v), RewardParams(d=d, a=1.0)) for v, d in zip(y, (0.0, 4.0, 2.0))]
        assert env.evaluate(y) == pytest.approx(exact, abs=1e-12)
