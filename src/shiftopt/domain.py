"""Scenario parameters, demand curves, the saturating reward, and supply algebra.

Time steps are 1-based (t = 1..T) in the public API; vectors are stored as
numpy arrays indexed 0..T-1 with entry i corresponding to t = i + 1.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Boundary",
    "DemandModel",
    "RewardParams",
    "Scenario",
    "ShiftPlan",
    "SupplyCurve",
    "demand_at",
    "demand_vector",
    "reward",
    "reward_vector",
    "supply_curve",
    "total_reward",
    "window_indices",
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
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if not 1 <= self.delta <= self.T:
            raise ValueError("delta must satisfy 1 <= delta <= T")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not (math.isfinite(self.d_max) and self.d_max >= 0):
            raise ValueError("d_max must be finite and >= 0")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("a must be finite and > 0")
        if self.c_veh < 0:
            raise ValueError("c_veh must be >= 0")
        if self.demand_model is DemandModel.EXPLICIT:
            if self.demand is None or len(self.demand) != self.T:
                raise ValueError("explicit demand must have length T")
            if not all(math.isfinite(d) and d >= 0 for d in self.demand):
                raise ValueError("explicit demand must be finite and non-negative")
            object.__setattr__(self, "demand", tuple(float(d) for d in self.demand))
        elif self.demand is not None:
            raise ValueError("demand vector only allowed with explicit demand model")

    @property
    def total_shifts(self) -> int:
        return self.s * self.N

    @property
    def working_time(self) -> int:
        """Total personnel time s*N*delta."""
        return self.s * self.N * self.delta

    def to_json(self) -> str:
        obj = {
            "T": self.T,
            "N": self.N,
            "s": self.s,
            "delta": self.delta,
            "beta": self.beta,
            "d_max": self.d_max,
            "a": self.a,
            "c_veh": self.c_veh,
            "demand_model": self.demand_model.value,
            "boundary": self.boundary.value,
        }
        if self.demand is not None:
            obj["demand"] = list(self.demand)
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        obj = json.loads(text)
        return cls.from_dict(obj)

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        """Scenario from a JSON object; raises ValueError for a non-numeric
        field or entry, and for an integer field that is not a whole number."""
        demand = obj.get("demand")
        ints = {k: _number(k, obj[k], True) for k in ("T", "N", "s", "delta", "beta", "c_veh")}
        reals = {k: _number(k, obj[k]) for k in ("d_max", "a")}
        return cls(
            **ints,
            **reals,
            demand_model=DemandModel(obj.get("demand_model", "envelope_sinusoid")),
            demand=None if demand is None else tuple(_number("demand", v) for v in demand),
            boundary=Boundary(obj.get("boundary", "zero_padded")),
        )


def _number(key: str, v, whole: bool = False) -> float | int:
    """v as a float, or as an int if `whole`: a bool, a string, any other
    non-number and, if `whole`, a fractional or non-finite v raise ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.number)) or (
            whole and not isinstance(v, (int, np.integer)) and not float(v).is_integer()):
        raise ValueError(f"{key} must be a {'whole ' if whole else ''}number, got {v!r}")
    return int(v) if whole else float(v)


@dataclass(frozen=True)
class ShiftPlan:
    """Integer vector x; x[t-1] shifts start at step t."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 1:
            raise ValueError("shift plan must be a 1-D vector")
        if np.any(x < 0):
            raise ValueError("shift counts must be non-negative")
        if not np.issubdtype(x.dtype, np.integer):
            rounded = np.rint(x)
            if np.any(np.abs(x - rounded) > 1e-6):
                raise ValueError("shift counts must be integral")
            x = rounded.astype(np.int64)
        else:
            x = x.astype(np.int64)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def total(self) -> int:
        return int(self.x.sum())


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


def demand_at(scenario: Scenario, t: int) -> float:
    """Demanded rides at time step t (1-based)."""
    if not 1 <= t <= scenario.T:
        raise IndexError(f"t={t} outside 1..{scenario.T}")
    return float(demand_vector(scenario)[t - 1])


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
    """Rides served with supply y: d * (1 - exp(-a*y/d)); 0 when d = 0."""
    if y < 0:
        raise ValueError("supply must be >= 0")
    if p.d == 0:
        return 0.0
    return p.d * (1.0 - math.exp(-p.a * y / p.d))


def _window_sum(x: np.ndarray, width: int, boundary: Boundary) -> np.ndarray:
    """Backward-looking window sum: out[i] = sum of x[i-width+1 .. i]."""
    T = len(x)
    if boundary is Boundary.CIRCULAR:
        idx = (np.arange(T)[:, None] - np.arange(width)[None, :]) % T
        return x[idx].sum(axis=1)
    padded = np.concatenate([np.zeros(width - 1, dtype=x.dtype), x])
    return np.convolve(padded, np.ones(width, dtype=x.dtype), mode="valid")


def reward_vector(y, d, a: float) -> np.ndarray:
    """reward() at every step: d_t * (1 - exp(-a*y_t/d_t)), 0 where d_t = 0."""
    y, d = np.asarray(y, dtype=float), np.asarray(d, dtype=float)
    out = np.zeros_like(y)
    on = d > 0
    # a*y/d overflows to inf for a subnormal d_t, and the reward is then d_t
    with np.errstate(over="ignore"):
        out[on] = d[on] * (1.0 - np.exp(-a * y[on] / d[on]))
    return out


def window_indices(scenario: Scenario, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Row t and column tau of every unit entry of the T x T matrix W with
    W @ x = _window_sum(x, width, scenario.boundary). A circular window wider
    than T holds a start twice: its (t, tau) pair repeats, and entries add up."""
    T = scenario.T
    t = np.repeat(np.arange(T), width)
    tau = t - np.tile(np.arange(width), T)
    if scenario.boundary is Boundary.CIRCULAR:
        return t, tau % T
    return t[tau >= 0], tau[tau >= 0]


def supply_curve(plan: ShiftPlan, scenario: Scenario) -> SupplyCurve:
    """Active shifts y_t and active extended shifts z_t for a plan."""
    if len(plan) != scenario.T:
        raise ValueError(f"plan length {len(plan)} != T={scenario.T}")
    y = _window_sum(plan.x, scenario.delta, scenario.boundary)
    z = _window_sum(plan.x, scenario.delta + scenario.beta, scenario.boundary)
    return SupplyCurve(y=y, z=z)


def total_reward(plan: ShiftPlan, scenario: Scenario) -> float:
    """Total rides served over the horizon, with the exact exponential reward."""
    y = supply_curve(plan, scenario).y
    return sum(reward_vector(y, demand_vector(scenario), scenario.a).tolist())
