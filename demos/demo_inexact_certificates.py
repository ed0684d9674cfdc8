"""Certified inexact block solves.

The inexact engine accepts a block solution only with a certified bound on
dist(0, d phi) below the step's threshold.  This script runs the two
acceptance schedules on a small logistic consensus, shows the certificates
against their thresholds, and measures the empirical tail contraction that
the step-proportional criterion buys.  The logistic blocks are solved by
damped Newton steps, which stop once the rule holds, so their certificates
are those of genuinely inexact solves; the l1 block's soft threshold
certifies 0.
"""

from dataclasses import replace

import augdecomp as ag
from augdecomp.bench import build_logreg_consensus, gen_logreg_data, partition_rows
from augdecomp.inexact import InexactSchedule, criterion_a_threshold

A, labels = gen_logreg_data(n=120, d=6, seed=3)
problem = build_logreg_consensus(partition_rows(A, labels, N=3), lam=0.1)
params = ag.SolverParams(rho=2.0, c=2.0, max_iters=200, stop_eps=1e-14)

# summable absolute schedule
sched_a = InexactSchedule.for_problem(problem, "criterion_A", eps0=1.0, gamma=1.5)
print(f"stacked coupling norm ||E|| = {sched_a.e_norm:.6f}")
solvers = ag.build_block_solvers(problem, params)
final, trace = ag.run(problem, params, solvers, stop_mode="max_iters",
                      schedule=sched_a)
print("criterion A certificates vs thresholds (every 40th iteration):")
for t in range(1, len(trace) + 1, 40):
    thr = criterion_a_threshold(t, sched_a, params.rho, params.c,
                                problem.num_blocks)
    worst = max(trace.metrics[t - 1].per_block_cert)
    print(f"  step {t:4d}: threshold {thr:.3e}, worst certificate {worst:.3e}")

# step-proportional schedule: empirical linear tail toward the limit, which
# exact ADA computes first so that an observer can follow the run toward it
# (a criterion-B run that tight would ask for certificates below rounding)
sched_b = InexactSchedule.for_problem(problem, "criterion_B", eps0=1.0, gamma=2.0)
long_params = replace(params, max_iters=4000, stop_eps=1e-13)
limit, _ = ag.run(problem, long_params, ag.build_block_solvers(problem, long_params),
                  stop_mode="x_change")
initial = ag.make_initial_state(problem)
observer = ag.RateObserver(problem, params.rho, params.c, limit, initial,
                           exact_engine=False)
solvers_b = ag.build_block_solvers(problem, params)
_, trace_b = ag.run(problem, params, solvers_b, initial=initial,
                    stop_mode="max_iters", schedule=sched_b, observe=observer)
theta = observer.report(trace_b).tail_ratio_theta
print(f"criterion B tail contraction factor: {theta:.4f} (< 1 means an "
      f"empirical local linear rate)")
