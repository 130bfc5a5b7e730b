"""Turn an optimal shift plan into a balanced per-driver roster.

Extended shifts (shift plus break) all have the same length, so dealing a
feasible plan's shifts in start order to the drivers in turn never gives a
driver two overlapping shifts, and gives every driver exactly s of them.
`rebalance` then has nothing to move, and `verify_roster` checks the result.
"""

from shiftopt import (
    Scenario,
    greedy_assign,
    plan,
    rebalance,
    roster_to_csv,
    verify_roster,
)

scenario = Scenario(T=48, N=3, s=2, delta=4, beta=2, d_max=6.0, a=2.0, c_veh=6)
result = plan(scenario)
print(f"plan: {result.plan.x.tolist()}")

dealt = greedy_assign(result.plan, scenario)
print(f"dealt shift counts    : {dealt.counts()} (target {scenario.s} each)")

trace = []
balanced = rebalance(dealt, scenario.s, trace=trace)
print(f"shifts moved          : {'yes' if trace else 'none'}")
print(f"balanced shift counts : {balanced.counts()}")

report = verify_roster(balanced, result.plan, scenario)
print(f"verified              : {report.ok}")

print("\n" + roster_to_csv(balanced, scenario))
