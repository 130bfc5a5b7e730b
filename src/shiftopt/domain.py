"""Scenario parameters, demand curves, the saturating reward, and supply algebra.

Time steps are 1-based (t = 1..T) in the public API; vectors are stored as
numpy arrays indexed 0..T-1 with entry i corresponding to t = i + 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Boundary",
    "DemandModel",
    "RewardParams",
    "Scenario",
    "ShiftPlan",
    "SupplyCurve",
    "demand_vector",
    "reward",
    "supply_curve",
    "total_reward",
]


class DemandModel(enum.Enum):
    """Shape of the demand curve d_t."""

    ENVELOPE_SINUSOID = "envelope_sinusoid"
    OFFSET_SINUSOID = "offset_sinusoid"
    EXPLICIT = "explicit"


class Boundary(enum.Enum):
    """How window sums treat indices outside 1..T."""

    ZERO_PADDED = "zero_padded"
    CIRCULAR = "circular"


# (field, least, most) of every count but delta: up to 2**31 - 1 keeps s*N and
# every int64 window bound exact, and T up to 2**20 keeps per-step arrays small
_COUNT_BOUNDS = (("T", 1, 2**20), ("N", 0, 2**31 - 1), ("s", 1, 2**31 - 1),
                 ("beta", 0, 2**31 - 1), ("c_veh", 0, 2**31 - 1))
# the largest desired supply whose square, which the baseline program takes, is finite
DESIRED_MAX = math.sqrt(np.finfo(float).max)


@dataclass(frozen=True)
class Scenario:
    """All model parameters for one planning instance.

    Attributes
    ----------
    T : number of time steps (hours) in the planning horizon
    N : number of drivers
    s : shifts each driver works within the horizon
    delta : shift length in time steps
    beta : minimum break between consecutive shifts, in time steps
    d_max : peak demand amplitude (rides per step)
    a : steepness of the saturating reward, > 0
    c_veh : vehicle cap (max simultaneously active shifts)
    demand_model : which demand curve to use
    demand : explicit demand vector (length T), only for DemandModel.EXPLICIT
    boundary : boundary handling for the supply window sums
    """

    T: int
    N: int
    s: int
    delta: int
    beta: int
    d_max: float
    a: float
    c_veh: int
    demand_model: DemandModel = DemandModel.ENVELOPE_SINUSOID
    demand: tuple[float, ...] | None = None
    boundary: Boundary = Boundary.ZERO_PADDED

    def __post_init__(self):
        for field, least, most in _COUNT_BOUNDS:
            if not least <= getattr(self, field) <= most:
                raise ValueError(f"{field} must satisfy {least} <= {field} <= {most}")
        if not 1 <= self.delta <= self.T:
            raise ValueError("delta must satisfy 1 <= delta <= T")
        if not (math.isfinite(self.d_max) and self.d_max >= 0):
            raise ValueError("d_max must be finite and >= 0")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("a must be finite and > 0")
        if self.demand_model is DemandModel.EXPLICIT:
            if self.demand is None or len(self.demand) != self.T:
                raise ValueError("explicit demand must have length T")
            if not all(math.isfinite(d) and d >= 0 for d in self.demand):
                raise ValueError("explicit demand must be finite and non-negative")
            object.__setattr__(self, "demand", tuple(float(d) for d in self.demand))
        elif self.demand is not None:
            raise ValueError("demand vector only allowed with explicit demand model")
        # keeps the agnostic optimum s*N*delta * d_t / sum(d) and the reward finite
        with np.errstate(over="ignore"):
            d = demand_vector(self)
            if not (np.isfinite(d.sum()) and math.isfinite(self.working_time * float(d.max()))):
                raise ValueError("demand sum and s*N*delta times peak demand must be finite")

    @property
    def total_shifts(self) -> int:
        return self.s * self.N

    @property
    def working_time(self) -> int:
        """Total personnel time s*N*delta."""
        return self.s * self.N * self.delta

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        """Scenario from a JSON object. Raises ValueError, and only ValueError,
        for anything else: a non-object, a key that is not a field, a missing
        or non-numeric field, a `demand` that is not a list of numbers, a real
        past float range and an integer field that is not a whole number."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected an object, got {type(obj).__name__}")
        names = {f.name for f in fields(cls)}
        if unknown := [key for key in obj if key not in names]:
            raise ValueError(f"unknown field {unknown[0]!r}")
        demand = obj.get("demand")
        if not isinstance(demand, (list, tuple, type(None))):
            raise ValueError(f"demand must be a list of numbers, got {type(demand).__name__}")
        try:
            ints = {k: _number(k, obj[k], True) for k in ("T", "N", "s", "delta", "beta", "c_veh")}
            reals = {k: _number(k, obj[k]) for k in ("d_max", "a")}
        except KeyError as exc:
            raise ValueError(f"missing field {exc.args[0]}") from None
        return cls(
            **ints,
            **reals,
            demand_model=DemandModel(obj.get("demand_model", "envelope_sinusoid")),
            demand=None if demand is None else tuple(_number("demand", v) for v in demand),
            boundary=Boundary(obj.get("boundary", "zero_padded")),
        )


def _number(key: str, v, whole: bool = False) -> float | int:
    """v as a float, or as an int if `whole`: a bool, a string, any other
    non-number, an int past float range if not `whole` and, if `whole`, a
    fractional or non-finite v raise ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.number)) or (
            whole and not isinstance(v, (int, np.integer)) and not float(v).is_integer()):
        raise ValueError(f"{key} must be a {'whole ' if whole else ''}number, got {v!r}")
    try:
        return int(v) if whole else float(v)
    except OverflowError:
        raise ValueError(f"{key} must be within float range, got {v!r}") from None


@dataclass(frozen=True)
class ShiftPlan:
    """Integer vector x; x[t-1] shifts start at step t."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 1 or x.dtype.kind not in "buif":
            raise ValueError("shift plan must be a 1-D vector of numbers")
        near = np.round(x)  # integer dtypes keep their exact values
        with np.errstate(invalid="ignore"):  # nan, inf and entries past int64 change here
            counts = near.astype(np.int64)
        if not np.all((x >= 0) & (counts == near)):
            raise ValueError("shift counts must be non-negative, finite and fit in int64")
        if np.any(np.abs(x - near) > 1e-6):
            raise ValueError("shift counts must be integral")
        counts.setflags(write=False)
        object.__setattr__(self, "x", counts)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def total(self) -> int:
        return sum(self.x.tolist())  # exact: an int64 sum would wrap past 2**63 - 1


@dataclass(frozen=True)
class SupplyCurve:
    """Active shifts y and active extended shifts z per step."""

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("y", "z"):
            v = np.asarray(getattr(self, name))
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class RewardParams:
    """Demand d and steepness a at a single time step."""

    d: float
    a: float

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("demand must be >= 0")
        if self.a <= 0:
            raise ValueError("steepness must be > 0")


def demand_vector(scenario: Scenario) -> np.ndarray:
    """Demand at every time step, as an array of length T."""
    if scenario.demand_model is DemandModel.EXPLICIT:
        return np.array(scenario.demand)
    t = np.arange(1, scenario.T + 1)
    if scenario.demand_model is DemandModel.ENVELOPE_SINUSOID:
        daily = 1.0 - np.cos(np.pi * t / 12.0)
        # sin(pi*t/T) rounds to about -3e-16 at t = T for some T
        envelope = np.maximum(0.0, np.sin(np.pi * t / scenario.T))
        return scenario.d_max / 2.0 * daily * envelope
    return scenario.d_max * (1.0 + np.sin(np.pi * t / 12.0))


def reward(y: float, p: RewardParams) -> float:
    """Rides served with supply y: d * (1 - exp(-a*y/d)), by expm1 (no cancellation); 0 if d = 0."""
    if y < 0:
        raise ValueError("supply must be >= 0")
    if p.d == 0:
        return 0.0
    return p.d * -math.expm1(-p.a * y / p.d)


def reward_vector(y, d, a: float) -> np.ndarray:
    """The reward at every step, as `reward` computes it; 0 where d_t = 0."""
    y, d = np.asarray(y, dtype=float), np.asarray(d, dtype=float)
    out = np.zeros_like(y)
    on = d > 0
    # a*y/d overflows to inf for a subnormal d_t, and the reward is then d_t
    with np.errstate(over="ignore"):
        out[on] = d[on] * -np.expm1(-a * y[on] / d[on])
    return out


def window_ends(scenario: Scenario, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The window of `width` steps ending at each step t = 1..T over the cumulative
    starts X_t = x_1 + ... + x_t, X_0 = 0: its sum is X_t - X_j + n * sum(x).
    Zero-padded, j = max(t - width, 0) and n = 0. Circular, width = qT + r gives
    j = t - r and n = q, or where t < r, j = t - r + T and n = q + 1."""
    t = np.arange(1, scenario.T + 1)
    if scenario.boundary is Boundary.CIRCULAR:
        q, r = divmod(width, scenario.T)
        return t - r + scenario.T * (t < r), q + (t < r)
    return np.maximum(t - width, 0), np.zeros(scenario.T, dtype=np.int64)


def supply_curve(plan: ShiftPlan, scenario: Scenario) -> SupplyCurve:
    """Active shifts y_t and active extended shifts z_t of a plan, exact in int64;
    ValueError where the plan's total or a window sum does not fit in int64."""
    if len(plan) != scenario.T:
        raise ValueError(f"plan length {len(plan)} != T={scenario.T}")
    X = np.concatenate([[0], np.cumsum(plan.x)])  # wraps where a sum passes 2**63 - 1

    def window_sum(width: int) -> np.ndarray:
        j, n = window_ends(scenario, width)
        last = X[1:] - X[j] + (n > n[-1]) * X[-1]  # the last (width mod T) starts
        whole = int(n[-1]) * int(X[-1])  # q full sums: n = q at t = T, q + 1 where j wraps
        if np.any(X[1:] < plan.x) or whole + int(last.max()) > np.iinfo(np.int64).max:
            raise ValueError("the plan's total or a window sum does not fit in int64")
        return last + whole

    return SupplyCurve(y=window_sum(scenario.delta), z=window_sum(scenario.delta + scenario.beta))


def total_reward(plan: ShiftPlan, scenario: Scenario) -> float:
    """Total rides served over the horizon, with the exact exponential reward."""
    y = supply_curve(plan, scenario).y
    return sum(reward_vector(y, demand_vector(scenario), scenario.a).tolist())
