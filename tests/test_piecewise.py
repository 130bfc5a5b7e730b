import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftopt import (
    ConcavePL,
    ConvexPL,
    LinearPiece,
    RewardParams,
    concavify_reward,
    convexify_sq_dev,
    reward,
)


class TestConcavifyReward:
    def test_zero_demand_single_piece(self):
        pl = concavify_reward(RewardParams(d=0.0, a=1.0), 5)
        assert pl.pieces == (LinearPiece(slope=0.0, intercept=0.0, end=5),)

    def test_unit_chords(self):
        pl = concavify_reward(RewardParams(d=1.0, a=1.0), 2)
        s1, s2 = (p.slope for p in pl.pieces)
        assert s1 == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert s2 == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-12)
        i1, i2 = (p.intercept for p in pl.pieces)
        assert i1 == pytest.approx(0.0, abs=1e-12)
        assert i2 == pytest.approx(0.399576, abs=1e-6)

    def test_exact_at_integer_nodes(self):
        pl = concavify_reward(RewardParams(d=1.0, a=1.0), 2)
        assert pl.evaluate(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_y_max_too_small(self):
        with pytest.raises(ValueError):
            concavify_reward(RewardParams(d=1.0, a=1.0), 0)

    @given(d=st.floats(0.01, 50), a=st.floats(0.1, 5), y_max=st.integers(1, 20))
    def test_integer_exactness_and_underestimation(self, d, a, y_max):
        p = RewardParams(d=d, a=a)
        pl = concavify_reward(p, y_max)
        for k in range(y_max + 1):
            assert pl.evaluate(k) == pytest.approx(reward(k, p), abs=1e-9)
        for y in np.linspace(0, y_max, 37):
            assert pl.evaluate(float(y)) <= reward(float(y), p) + 1e-9

    @given(d=st.floats(0.01, 50), a=st.floats(0.1, 5), y_max=st.integers(1, 40))
    def test_slopes_strictly_decrease(self, d, a, y_max):
        pl = concavify_reward(RewardParams(d=d, a=a), y_max)
        slopes = [p.slope for p in pl.pieces]
        assert all(b < a_ for a_, b in zip(slopes, slopes[1:]))
        assert sum(pl.widths()) == y_max


class TestConvexifySqDev:
    def test_chords_of_square(self):
        pl = convexify_sq_dev(0.0, 2)
        assert [p.slope for p in pl.pieces] == [1.0, 3.0]

    def test_exact_at_integers_near_target(self):
        pl = convexify_sq_dev(1.5, 3)
        assert pl.evaluate(1.0) == pytest.approx(0.25, abs=1e-12)
        assert pl.evaluate(2.0) == pytest.approx(0.25, abs=1e-12)

    def test_y_max_too_small(self):
        with pytest.raises(ValueError):
            convexify_sq_dev(1.0, 0)

    @given(target=st.floats(-5, 25), y_max=st.integers(1, 20))
    def test_integer_exactness(self, target, y_max):
        pl = convexify_sq_dev(target, y_max)
        for k in range(y_max + 1):
            assert pl.evaluate(k) == pytest.approx((k - target) ** 2, abs=1e-9)
        slopes = [p.slope for p in pl.pieces]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert sum(pl.widths()) == y_max


class TestEvalPl:
    def test_single_line(self):
        assert ConcavePL(pieces=(LinearPiece(1.0, 0.0, 1),)).evaluate(3.0) == 3.0

    def test_min_of_pieces(self):
        pl = ConcavePL(pieces=(LinearPiece(1.0, 0.0, 1), LinearPiece(0.0, 1.0, 2)))
        assert pl.evaluate(0.5) == 0.5
        assert pl.evaluate(2.0) == 1.0

    def test_max_of_pieces(self):
        pl = ConvexPL(pieces=(LinearPiece(0.0, 1.0, 1), LinearPiece(1.0, 0.0, 2)))
        assert pl.evaluate(2.0) == 2.0
        assert pl.evaluate(0.5) == 1.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ConcavePL(pieces=(LinearPiece(0.0, 1.0, 1), LinearPiece(1.0, 0.0, 2)))
        with pytest.raises(ValueError):
            ConvexPL(pieces=(LinearPiece(1.0, 0.0, 1), LinearPiece(0.0, 1.0, 2)))
        with pytest.raises(ValueError):
            ConcavePL(pieces=())
        with pytest.raises(ValueError):  # breakpoints must increase
            ConcavePL(pieces=(LinearPiece(1.0, 0.0, 2), LinearPiece(0.0, 1.0, 2)))
