"""Turn an optimal shift plan into a balanced per-driver roster.

Extended shifts (shift plus break) all have the same length, so dealing a
feasible plan's shifts in start order to the drivers in turn never gives a
driver two overlapping shifts, and gives every driver exactly s of them.
The dealt `Roster` is two arrays, each shift's driver and start step. This
is the path `shiftopt roster` takes: deal, then check with `verify_roster`.
"""

from shiftopt import Scenario, greedy_assign, plan, roster_to_csv, verify_roster

scenario = Scenario(T=48, N=3, s=2, delta=4, beta=2, d_max=6.0, a=2.0, c_veh=6)
result = plan(scenario)
print(f"plan: {result.plan.x.tolist()}")

dealt = greedy_assign(result.plan, scenario)
print(f"dealt shift counts : {dealt.counts()} (target {scenario.s} each)")

report = verify_roster(dealt, result.plan, scenario)
print(f"verified           : {report.ok}")

print("\n" + roster_to_csv(dealt, scenario))
