import decimal
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftopt import (
    Boundary,
    DemandModel,
    RewardParams,
    Scenario,
    ShiftPlan,
    demand_vector,
    reward,
    supply_curve,
    total_reward,
)
from shiftopt.domain import reward_vector

from oracles import demand_by_loop, total_reward_by_loop, window_sum

_EPS = np.finfo(float).eps


_FIELDS = dict(T=8, N=2, s=1, delta=2, beta=1, d_max=5.0, a=2.0, c_veh=5)


def scenario(**kw):
    return Scenario(**{**_FIELDS, **kw})


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            scenario(T=0)
        with pytest.raises(ValueError):
            scenario(delta=9)  # > T
        with pytest.raises(ValueError):
            scenario(a=0.0)
        with pytest.raises(ValueError):
            scenario(demand_model=DemandModel.EXPLICIT, demand=(1.0, 2.0))
        with pytest.raises(ValueError, match="only allowed with explicit demand"):
            scenario(demand=(1.0,) * 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            scenario(d_max=bad)
        with pytest.raises(ValueError, match="finite"):
            scenario(a=bad)
        with pytest.raises(ValueError, match="finite"):
            scenario(demand_model=DemandModel.EXPLICIT, demand=(1.0,) * 7 + (bad,))

    def test_json_round_trip(self):
        obj = {**_FIELDS, "demand_model": "explicit", "demand": list(range(8)),
               "boundary": "circular"}
        sc = scenario(
            demand_model=DemandModel.EXPLICIT,
            demand=tuple(float(i) for i in range(8)),
            boundary=Boundary.CIRCULAR,
        )
        assert Scenario.from_dict(json.loads(json.dumps(obj))) == sc

    @pytest.mark.parametrize("field, value", [
        ("T", math.inf), ("T", 1e999), ("N", 2.9), ("T", "6"), ("s", True), ("delta", None),
        ("beta", math.nan), ("c_veh", [4]), ("d_max", "5"), ("a", False), ("demand", ["1"] * 8),
    ])
    def test_from_dict_rejects_bad_fields(self, field, value):
        obj = {**_FIELDS, field: value}
        if field == "demand":
            obj["demand_model"] = "explicit"
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict(obj)

    @pytest.mark.parametrize("obj, match", [
        ({**_FIELDS, "d_max": 10**400}, "d_max must be within float range"),
        ({k: v for k, v in _FIELDS.items() if k != "T"}, "missing field T"),
        ({**_FIELDS, "demand_model": "explicit", "demand": 5}, "demand must be a list"),
        ([1], "expected an object, got list"),
    ], ids=["d_max-past-float", "no-T", "scalar-demand", "list"])
    def test_from_dict_raises_value_error_only(self, obj, match):
        # these raised OverflowError, KeyError, TypeError and AttributeError
        with pytest.raises(ValueError, match=match):
            Scenario.from_dict(obj)

    @pytest.mark.parametrize("extra, match", [
        ({"boundry": "circular", "Beta": 3}, "unknown field 'boundry'"),
        ({1: 2}, "unknown field 1"),
    ], ids=["misspelt-field", "non-string-key"])
    def test_from_dict_rejects_unknown_fields(self, extra, match):
        # each was ignored: a misspelt boundary gave a zero-padded scenario
        with pytest.raises(ValueError, match=match):
            Scenario.from_dict({**_FIELDS, **extra})

    @pytest.mark.parametrize("field", ["T", "N", "s", "beta", "c_veh"])
    def test_counts_bounded_by_int32(self, field):
        most = 2**20 if field == "T" else 2**31 - 1
        assert getattr(scenario(**{field: most}), field) == most
        with pytest.raises(ValueError, match=field):
            scenario(**{field: most + 1})

    def test_from_dict_accepts_whole_floats(self):
        obj = {**_FIELDS, "T": 8.0, "N": 2.0}
        assert Scenario.from_dict(obj) == scenario()

    @pytest.mark.parametrize("kw", [
        # sum(d) overflows
        dict(demand_model=DemandModel.EXPLICIT, demand=(1e308, 1e308) + (1.0,) * 6),
        # s*N*delta * max(d) overflows
        dict(demand_model=DemandModel.EXPLICIT, demand=(1e308,) + (1.0,) * 7),
        # d_max * (1 + sin) overflows
        dict(demand_model=DemandModel.OFFSET_SINUSOID, d_max=1e308),
    ], ids=["sum", "working-time-times-peak", "offset-sinusoid"])
    def test_demand_overflow_rejected(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            scenario(**kw)

    def test_largest_demand_accepted(self):
        sc = scenario(N=1, delta=1, demand_model=DemandModel.EXPLICIT,
                      demand=(1e308,) + (0.0,) * 7)
        assert demand_vector(sc)[0] == 1e308


class TestDemand:
    def test_envelope_vanishes_at_horizon_end(self):
        sc = scenario(T=24, delta=2, d_max=10.0)
        assert demand_vector(sc)[23] == pytest.approx(0.0, abs=1e-12)

    def test_envelope_midweek_value(self):
        # d_max/2 * (1 - cos(42*pi/12)) * sin(42*pi/168); cos(3.5*pi) = 0
        sc = Scenario(T=168, N=1, s=1, delta=1, beta=0, d_max=10.0, a=1.0, c_veh=1)
        expected = 5.0 * (1.0 - math.cos(42 * math.pi / 12)) * math.sin(math.pi / 4)
        assert expected == pytest.approx(5 * math.sin(math.pi / 4))
        assert demand_vector(sc)[41] == pytest.approx(expected, abs=1e-12)
        assert demand_vector(sc)[41] == pytest.approx(3.5355339059, abs=1e-9)

    def test_offset_sinusoid(self):
        sc = scenario(T=24, d_max=10.0, demand_model=DemandModel.OFFSET_SINUSOID)
        assert demand_vector(sc)[5] == pytest.approx(20.0)

    def test_explicit(self):
        sc = scenario(demand_model=DemandModel.EXPLICIT, demand=tuple(range(8)))
        assert demand_vector(sc)[2] == 2.0
        assert list(demand_vector(sc)) == list(range(8))

    @pytest.mark.parametrize("model", [DemandModel.ENVELOPE_SINUSOID, DemandModel.OFFSET_SINUSOID])
    def test_vector_matches_loop_bit_for_bit(self, model):
        for T in [*range(1, 169), 400]:
            sc = scenario(T=T, d_max=7.3, demand_model=model, delta=1)
            assert demand_vector(sc).tobytes() == demand_by_loop(sc).tobytes(), T
        sc = scenario(demand_model=DemandModel.EXPLICIT, demand=(0.1, 2.5, 0.0, 3, 4, 5, 6, 7))
        assert demand_vector(sc).tobytes() == demand_by_loop(sc).tobytes()

    @pytest.mark.parametrize("model", [DemandModel.ENVELOPE_SINUSOID, DemandModel.OFFSET_SINUSOID])
    def test_nonnegative_everywhere(self, model):
        # sin(pi*t/T) rounds below zero at t = T for T = 13, 26, 47, ...
        for T in range(1, 401):
            sc = scenario(T=T, d_max=7.3, demand_model=model, delta=1)
            assert demand_vector(sc).min() >= 0.0, T


class TestReward:
    def test_zero_supply(self):
        assert reward(0.0, RewardParams(d=10.0, a=2.0)) == 0.0

    def test_zero_demand(self):
        assert reward(3.0, RewardParams(d=0.0, a=2.0)) == 0.0

    def test_unit_values(self):
        assert reward(1.0, RewardParams(d=1.0, a=1.0)) == pytest.approx(
            1 - math.exp(-1), abs=1e-12
        )

    @pytest.mark.parametrize("d, a, match", [(-1.0, 1.0, "demand"), (1.0, 0.0, "steepness")])
    def test_params_rejected(self, d, a, match):
        with pytest.raises(ValueError, match=match):
            RewardParams(d=d, a=a)

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError):
            reward(-0.1, RewardParams(d=1.0, a=1.0))

    @given(
        y=st.floats(0, 50),
        eps=st.floats(0, 10),
        d=st.floats(0.01, 100),
        a=st.floats(0.01, 10),
    )
    def test_monotone_in_supply(self, y, eps, d, a):
        p = RewardParams(d=d, a=a)
        assert reward(y + eps, p) >= reward(y, p) - 1e-12

    @given(y=st.integers(0, 100), d=st.floats(0.01, 100), a=st.floats(0.01, 10))
    def test_concave_second_difference(self, y, d, a):
        p = RewardParams(d=d, a=a)
        second = reward(y + 2, p) - 2 * reward(y + 1, p) + reward(y, p)
        assert second <= 1e-12

    @given(y=st.floats(0, 1000), d=st.floats(1e-6, 100), a=st.floats(0.01, 10))
    def test_bounded_by_demand(self, y, d, a):
        assert reward(y, RewardParams(d=d, a=a)) <= d

    @given(st.lists(st.tuples(st.floats(0, 1000), st.floats(0, 100)), min_size=1, max_size=9),
           st.floats(0.01, 10))
    def test_vector_matches_scalar(self, pairs, a):
        y, d = (np.array(v) for v in zip(*pairs))
        exact = np.array([reward(yi, RewardParams(d=di, a=a)) for yi, di in pairs])
        # np.exp and math.exp may differ in the last bit: d * ulp(1) after 1 - exp
        assert np.all(np.abs(reward_vector(y, d, a) - exact) <= 4 * _EPS * d)

    @given(y=st.integers(0, 10**6), d=st.floats(1e-6, 1e300), a=st.floats(1e-3, 1e3))
    def test_vector_within_ulps_of_decimal_reference(self, y, d, a):
        # 1 - exp(-x) cancels where x = a*y/d is small: at d/y = 1e10 it kept 8 digits.
        # The reference keeps 40 digits by working with as many more as x has leading zeros
        D = decimal.Decimal
        with decimal.localcontext(decimal.Context(prec=40)):
            x = D(a) * D(y) / D(d)
        with decimal.localcontext(decimal.Context(prec=40 + max(0, -x.adjusted()))):
            exact = float(D(d) * (1 - (-x).exp()))
        for got in (reward_vector([y], [d], a)[0], reward(y, RewardParams(d=d, a=a))):
            assert abs(got - exact) <= 4 * math.ulp(exact)

    def test_vector_subnormal_demand_is_served_without_warning(self):
        # a*y/d overflows to inf; the reward is then all of the demand
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = reward_vector(np.array([0.0, 5.0]), np.array([1e-310, 1e-310]), 2.0)
        assert got.tolist() == [0.0, 1e-310]

    def test_nondecreasing_in_demand_grid(self):
        for a in (0.5, 1.0, 2.0):
            for y in (0.0, 0.5, 1.0, 3.0, 10.0):
                vals = [reward(y, RewardParams(d=d, a=a)) for d in np.linspace(0.01, 20, 50)]
                assert all(b >= a_ - 1e-12 for a_, b in zip(vals, vals[1:]))


class TestShiftPlan:
    @pytest.mark.parametrize("x", [[np.nan, 1.0], [np.inf, 0.0], [1e30, 0.0], [2.0**63, 0.0],
                                   np.array([2**64 - 1, 0], dtype=np.uint64)])
    def test_non_finite_or_oversized_counts_rejected_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                ShiftPlan(x=np.array(x))

    @pytest.mark.parametrize("x, match", [(np.ones((2, 2)), "1-D vector"),
                                          (np.array([0.5, 1.0]), "must be integral")])
    def test_not_a_vector_of_whole_counts_rejected(self, x, match):
        with pytest.raises(ValueError, match=match):
            ShiftPlan(x=x)

    def test_largest_float_below_int64_limit_accepted(self):
        assert ShiftPlan(x=np.array([2.0**63 - 1024])).x.tolist() == [2**63 - 1024]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_largest_int64_count_kept_exactly(self, dtype):
        assert ShiftPlan(x=np.array([2**63 - 1, 0], dtype=dtype)).x[0] == 2**63 - 1

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.uint64, np.float16,
                                       np.float32, np.longdouble])
    def test_every_numeric_dtype_cast_without_warning(self, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ShiftPlan(x=np.array([1, 0], dtype=dtype)).x.tolist() == [1, 0]

    def test_total_past_int64_is_exact(self):
        # an int64 sum of these counts wraps to -2**63 without a warning
        assert ShiftPlan(x=np.array([2**62, 2**62, 2**63 - 1])).total == 2**64 - 1


class TestSupplyCurve:
    def test_zero_padded(self):
        sc = scenario(T=4, delta=2, beta=0)
        curve = supply_curve(ShiftPlan(x=np.array([1, 0, 0, 0])), sc)
        assert list(curve.y) == [1, 1, 0, 0]

    def test_circular_no_wrap(self):
        sc = scenario(T=4, delta=2, beta=0, boundary=Boundary.CIRCULAR)
        curve = supply_curve(ShiftPlan(x=np.array([1, 0, 0, 0])), sc)
        assert list(curve.y) == [1, 1, 0, 0]

    def test_circular_wraps(self):
        sc = scenario(T=4, delta=2, beta=0, boundary=Boundary.CIRCULAR)
        curve = supply_curve(ShiftPlan(x=np.array([0, 0, 0, 1])), sc)
        assert list(curve.y) == [1, 0, 0, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            supply_curve(ShiftPlan(x=np.array([1, 0])), scenario(T=4))

    def test_sums_past_2_53_exact(self):
        curve = supply_curve(ShiftPlan(x=np.array([2**53 + 1, 0])), scenario(T=2, delta=1))
        assert curve.y.tolist() == [2**53 + 1, 0]

    @pytest.mark.parametrize("x, beta, boundary", [
        ([2**62, 2**62], 0, Boundary.ZERO_PADDED),  # the total passes 2**63 - 1
        ([2**62, 2**62], 0, Boundary.CIRCULAR),
        ([2**61, 0], 6, Boundary.CIRCULAR),  # 4 full sums of 2**61
        ([2**62, 2**62 - 1], 1, Boundary.CIRCULAR),  # z_1 = total + x_1
    ])
    def test_sums_past_int64_rejected_without_warning(self, x, beta, boundary):
        sc = scenario(T=2, delta=2, beta=beta, boundary=boundary)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="int64"):
                supply_curve(ShiftPlan(x=np.array(x)), sc)

    def test_largest_sums_kept_exactly(self):
        sc = scenario(T=2, delta=2, beta=4, boundary=Boundary.CIRCULAR)
        curve = supply_curve(ShiftPlan(x=np.array([2**61 - 1, 0])), sc)  # 3 full sums
        assert curve.y.tolist() == [2**61 - 1] * 2 and curve.z.tolist() == [3 * 2**61 - 3] * 2

    def test_zero_padded_window_of_2_20_steps(self):
        sc = scenario(T=2**20, N=1, delta=2**20, beta=0, c_veh=1)
        x = np.zeros(sc.T, dtype=np.int64)
        x[[0, -1]] = 1
        curve = supply_curve(ShiftPlan(x=x), sc)
        assert curve.y[0] == 1 and curve.y[-2] == 1 and curve.y[-1] == 2
        assert np.array_equal(curve.y, curve.z)

    @given(st.data())
    def test_random_plan_invariants(self, data):
        T = data.draw(st.integers(2, 10))
        delta = data.draw(st.integers(1, T))
        beta = data.draw(st.integers(0, 12))  # delta + beta > T about half the time
        x = np.array(data.draw(st.lists(st.integers(0, 3), min_size=T, max_size=T)))
        for boundary in Boundary:
            sc = Scenario(
                T=T, N=5, s=1, delta=delta, beta=beta, d_max=1.0, a=1.0, c_veh=9,
                boundary=boundary,
            )
            curve = supply_curve(ShiftPlan(x=x), sc)
            assert np.all(curve.z >= curve.y)
            assert np.all(curve.y >= 0)
            assert np.all(curve.z >= x)
            # the window sums by convolution agree, windows wider than T included
            assert np.array_equal(curve.y, window_sum(x, delta, boundary))
            assert np.array_equal(curve.z, window_sum(x, delta + beta, boundary))
            if boundary is Boundary.CIRCULAR:
                assert curve.y.sum() == delta * x.sum()
            else:
                assert curve.y.sum() <= delta * x.sum()


class TestTotalReward:
    @given(st.data())
    def test_matches_loop(self, data):
        T = data.draw(st.integers(1, 30))
        model = data.draw(st.sampled_from(DemandModel))
        sc = Scenario(
            T=T, N=4, s=1, delta=data.draw(st.integers(1, T)), beta=1,
            d_max=data.draw(st.floats(0, 100)), a=data.draw(st.floats(0.01, 10)), c_veh=9,
            demand_model=model, boundary=data.draw(st.sampled_from(Boundary)),
            demand=(tuple(data.draw(st.lists(st.floats(0, 100), min_size=T, max_size=T)))
                    if model is DemandModel.EXPLICIT else None),
        )
        plan = ShiftPlan(x=np.array(data.draw(st.lists(st.integers(0, 4), min_size=T, max_size=T))))
        # each step's np.exp and math.exp may differ in the last bit: d_t * ulp(1) after 1 - exp
        assert total_reward(plan, sc) == pytest.approx(
            total_reward_by_loop(plan, sc), rel=1e-13, abs=4 * _EPS * demand_vector(sc).sum())

    def test_all_zero_plan(self):
        sc = scenario()
        assert total_reward(ShiftPlan(x=np.zeros(8, dtype=int)), sc) == 0.0

    def test_two_step_uniform(self):
        sc = Scenario(
            T=2, N=2, s=1, delta=1, beta=0, d_max=1.0, a=1.0, c_veh=2,
            demand_model=DemandModel.EXPLICIT, demand=(1.0, 1.0),
        )
        got = total_reward(ShiftPlan(x=np.array([1, 1])), sc)
        assert got == pytest.approx(2 * (1 - math.exp(-1)), abs=1e-9)

    def test_overlapping_shift(self):
        # y = [1, 1, 0], f(1) = 1 - exp(-2) at two steps
        sc = Scenario(
            T=3, N=1, s=1, delta=2, beta=0, d_max=1.0, a=2.0, c_veh=1,
            demand_model=DemandModel.EXPLICIT, demand=(1.0, 1.0, 1.0),
        )
        got = total_reward(ShiftPlan(x=np.array([1, 0, 0])), sc)
        assert got == pytest.approx(2 * (1 - math.exp(-2)), abs=1e-9)
        assert got == pytest.approx(1.729329, abs=1e-6)

    def test_supply_curve_in_place_of_its_plan(self):
        sc = scenario()
        plan = ShiftPlan(x=np.array([2, 0, 1, 0, 0, 3, 0, 1]))
        assert total_reward(supply_curve(plan, sc), sc) == total_reward(plan, sc) > 0
