"""Exchange problem walkthrough.

K agents trade n commodities under the equilibrium constraint sum_k x_k = 0;
each agent carries a least-squares cost built so the optimal value is exactly
zero.  The script runs the exact engine and checks its trace against the
convergence theory: monotone G-decrease, Fejer monotonicity toward the
saddle, and the O(1/N) ergodic duality-gap bound.
"""

import numpy as np

import augdecomp as ag
from augdecomp.model import saddle_state

problem, x_star = ag.gen_exchange(K=4, n=30, p=15, seed=11)
print(f"exchange instance: K = {problem.num_blocks}, commodities = {problem.m}, "
      f"optimal value 0 by construction")

# an exact saddle point for the rate checks: the generator's optimum zeroes
# every block gradient, so its multiplier is zero; the observer keeps one
# distance per step, not the states
reference = saddle_state(problem, x_star, np.zeros(problem.m))
params = ag.SolverParams(rho=2.0, c=2.0, max_iters=2000, stop_eps=1e-12)
initial = ag.make_initial_state(problem)
observer = ag.RateObserver(problem, params.rho, params.c, reference, initial)
solvers = ag.build_block_solvers(problem, params)
final, trace = ag.run(problem, params, solvers, initial=initial,
                      stop_mode="feasibility", observe=observer)
print(f"run: {len(trace)} iterations, objective {trace.metrics[-1].objective:.3e}, "
      f"residual {trace.metrics[-1].constraint_residual_norm:.3e}")
print(f"reference saddle KKT residual: "
      f"{ag.kkt_residual(reference.x, reference.zeta_bar, problem):.2e}")

report = observer.report(trace)
print(f"monotone G-decrease:   {report.monotone_ok}")
print(f"Fejer monotonicity:    {report.fejer_ok}")
print(f"ergodic bound slack:   {report.ergodic_max_violation:.3e} (<= 0 means "
      f"the O(1/N) bound holds with margin)")
first, last = report.nu_a_nu_medians
print(f"nu * ||du||_G^2 medians: first decade {first:.3e}, last decade {last:.3e}")
