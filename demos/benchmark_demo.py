"""Compare direct reward optimization against two traditional standards.

The service standard staffs each step so a fixed fraction of demand is
served; the economic standard staffs each step to its marginal break-even
point. Both targets are then rounded onto a feasible shift plan by
minimizing total squared deviation. Direct optimization should dominate
both at every fleet size.
"""

from shiftopt import Scenario, plan, plan_baseline, relative_gap
from shiftopt.planner import EconomicStandard, ServiceStandard

print(f"{'N':>3}  {'ours':>8}  {'service':>8}  {'economic':>8}")
for n in (4, 8, 12):
    sc = Scenario(
        T=168, N=n, s=5, delta=8, beta=9, d_max=0.75 * n, a=2.0, c_veh=10 * n
    )
    ours = relative_gap(plan(sc).plan, sc).delta
    service = relative_gap(plan_baseline(sc, ServiceStandard(0.8)).plan, sc).delta
    economic = relative_gap(plan_baseline(sc, EconomicStandard(1.0)).plan, sc).delta
    print(f"{n:>3}  {ours:8.4f}  {service:8.4f}  {economic:8.4f}")

print("\nEconomies of scale: gap to the shift-agnostic bound shrinks with N")
print(f"{'N':>3}  {'gap':>8}")
for n in (5, 10, 25, 50):
    sc = Scenario(T=168, N=n, s=5, delta=8, beta=8, d_max=float(n), a=2.0,
                  c_veh=10 * n)
    gap = relative_gap(plan(sc).plan, sc).delta
    print(f"{n:>3}  {gap:8.4f}")
