"""Reward-maximizing shift planning for demand-responsive services."""

from .benchmark import (
    AgnosticOptimum,
    GapReport,
    agnostic_optimum_closed_form,
    economic_standard_supply,
    relative_gap,
    service_standard_supply,
    water_fill,
)
from .domain import (
    Boundary,
    DemandModel,
    RewardParams,
    Scenario,
    ShiftPlan,
    SupplyCurve,
    demand_at,
    demand_vector,
    reward,
    supply_curve,
    total_reward,
)
from .milp import (
    MilpModel,
    MilpSolution,
    SolveStatus,
    export_lp,
    lp_solve,
    milp_solve,
)
from .piecewise import (
    ConcavePL,
    ConvexPL,
    LinearPiece,
    concavify_reward,
    convexify_sq_dev,
)
from .planner import (
    EconomicStandard,
    PlanningError,
    PlanResult,
    ServiceStandard,
    build_deviation_mip,
    build_reward_mip,
    plan,
    plan_baseline,
)
from .roster import (
    ExtendedShift,
    Roster,
    VerificationReport,
    greedy_assign,
    overlap,
    rebalance,
    roster_to_csv,
    verify_roster,
)

__version__ = "0.1.0"
