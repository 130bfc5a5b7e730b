"""Solve the headline week-long instance and inspect the optimal plan.

A fleet of 10 drivers works 5 shifts of 8 steps each over a 168-step week,
with an 8-step minimum break and at most 10 vehicles on the road. Demand
follows the weekly envelope sinusoid. We maximize the total expected served
demand directly and compare it against the shift-agnostic upper bound.
"""

import numpy as np

from shiftopt import Scenario, plan, relative_gap, water_fill

scenario = Scenario(
    T=168, N=10, s=5, delta=8, beta=8, d_max=10.0, a=2.0, c_veh=10
)

result = plan(scenario)
print(f"status          : {result.solve_status.value}")
print(f"LP solves       : {result.nodes}")
print(f"shifts started  : {result.plan.total} (required {scenario.total_shifts})")
print(f"max drivers busy: {result.supply.z.max()} (fleet size {scenario.N})")
print(f"total reward    : {result.true_reward:.4f}")

upper = water_fill(scenario)
gap = relative_gap(result.plan, scenario)
print(f"agnostic bound  : {upper.r_star:.4f}")
print(f"relative gap    : {gap.delta:.4%}")

# A compact picture of the first two days: ideal vs supplied vehicles.
print("\n  t  y_star  y  z")
for t in range(48):
    bar = "#" * result.supply.y[t]
    print(f"{t + 1:3d}  {upper.y_star[t]:6.2f}  {result.supply.y[t]}  "
          f"{result.supply.z[t]}  {bar}")
