"""Certified inexact block solves.

The inexact engine accepts a block solution only with a certified bound on
dist(0, d phi) below the step's threshold.  This script runs the two
acceptance schedules on a small exchange instance, shows the certificates
against their thresholds, and measures the empirical tail contraction that
the step-proportional criterion buys.
"""

from dataclasses import replace

import numpy as np

import augdecomp as ag
from augdecomp.inexact import InexactSchedule, criterion_a_threshold

problem, _ = ag.gen_exchange(K=3, n=20, p=10, seed=3)
params = ag.SolverParams(rho=2.0, c=2.0, max_iters=200, stop_eps=1e-14)

# summable absolute schedule
sched_a = InexactSchedule.for_problem(problem, "criterion_A", eps0=1.0, gamma=1.5)
print(f"stacked coupling norm ||E|| = {sched_a.e_norm:.6f}")
solvers = ag.build_block_solvers(problem, params, sched_a)
final, trace = ag.run(problem, params, solvers, stop_mode="max_iters",
                      schedule=sched_a)
print("criterion A certificates vs thresholds (every 80th iteration):")
for t in range(1, len(trace) + 1, 40):
    thr = criterion_a_threshold(t, sched_a, params.rho, params.c,
                                problem.num_blocks)
    worst = max(trace.metrics[t - 1].per_block_cert)
    print(f"  step {t:4d}: threshold {thr:.3e}, worst certificate {worst:.3e}")

# exact mode reproduces the exact engine bit for bit
sched_exact = None
solvers_e = ag.build_block_solvers(problem, params)
_, trace_exact = ag.run(problem, params, solvers_e, stop_mode="max_iters")
solvers_e2 = ag.build_block_solvers(problem, params)
_, trace_degenerate = ag.run(problem, params, solvers_e2, stop_mode="max_iters",
                             schedule=sched_exact)
same = all(a == b for a, b in zip(trace_exact.metrics, trace_degenerate.metrics))
print(f"exact schedule reproduces the exact engine bitwise: {same}")

# step-proportional schedule: empirical linear tail toward the run's limit,
# which is computed first so that an observer can follow the run toward it
sched_b = InexactSchedule.for_problem(problem, "criterion_B", eps0=1.0, gamma=2.0)
long_params = replace(params, max_iters=4000, stop_eps=1e-13)
solvers_b2 = ag.build_block_solvers(problem, params, sched_b)
limit, _ = ag.run(problem, long_params, solvers_b2, stop_mode="x_change",
                  schedule=sched_b)
initial = ag.make_initial_state(problem)
observer = ag.RateObserver(problem, params.rho, params.c, limit, initial,
                           exact_engine=False)
solvers_b = ag.build_block_solvers(problem, params, sched_b)
_, trace_b = ag.run(problem, params, solvers_b, initial=initial,
                    stop_mode="max_iters", schedule=sched_b, observe=observer)
theta = observer.report(trace_b).tail_ratio_theta
print(f"criterion B tail contraction factor: {theta:.4f} (< 1 means an "
      f"empirical local linear rate)")
