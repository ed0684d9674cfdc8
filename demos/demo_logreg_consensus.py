"""Distributed l1-regularized logistic regression by consensus.

The data rows are partitioned into N local blocks, each holding a copy x_i
that must agree with the shared variable z (constraint x_i - z = 0); the z
block carries the l1 penalty.  Local logistic subproblems are solved by
damped Newton steps just accurately enough to satisfy the summable
inexactness criterion; the z update is an exact soft threshold.  Termination combines the consensus
ratio with the relative objective gap.
"""

import numpy as np

import augdecomp as ag
from augdecomp.bench import (build_logreg_consensus, consensus_objective,
                             consensus_ratio, gen_logreg_data, partition_rows)
from augdecomp.inexact import InexactSchedule

A, labels = gen_logreg_data(n=600, d=20, seed=5)
row_blocks = partition_rows(A, labels, N=3)
problem = build_logreg_consensus(row_blocks, lam=0.1)
print(f"consensus problem: {problem.num_blocks - 1} data blocks + z block, "
      f"coupling dimension {problem.m}")

params = ag.SolverParams(rho=10.0, c=10.0, max_iters=2000, stop_eps=1e-14)
sched = InexactSchedule.for_problem(problem, "criterion_A", eps0=1.0, gamma=1.5)
solvers = ag.build_block_solvers(problem, params, sched)

# reference objective value from a tighter run of the same configuration
from dataclasses import replace
ref_params = replace(params, stop_eps=1e-12)
ref, _ = ag.run(problem, ref_params, solvers, stop_mode="x_change", schedule=sched)
f_star = consensus_objective(problem, ref.x[-1])
print(f"reference objective F* = {f_star:.10f}")


def stop(state, metrics):
    if consensus_ratio(state.x) > 1e-6:
        return False
    gap = abs(consensus_objective(problem, state.x[-1]) - f_star) \
        / max(1.0, abs(f_star))
    return gap <= 1e-10


solvers2 = ag.build_block_solvers(problem, params, sched)
final, trace = ag.run(problem, params, solvers2, stop_mode=stop, schedule=sched)
z = final.x[-1]
print(f"stopped at iteration {len(trace)}: consensus ratio "
      f"{consensus_ratio(final.x):.2e}, F(z) = "
      f"{consensus_objective(problem, z):.10f}")
print(f"inner solver iterations total: "
      f"{sum(m.inner_iters_total for m in trace.metrics)}")
print(f"selected features: {int((z != 0).sum())} of {z.size}")
