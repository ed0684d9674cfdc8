"""Shared instances and reference oracles for the test suite.

Reference points are built by routes independent of the code they check:
the exchange saddle is the generator's optimum with multiplier zero, and the
lasso optimum comes from an active-set polish whose result is verified
against the optimality conditions before use.
"""

import numpy as np
import pytest

import augdecomp as ag
from augdecomp.model import IterateState, saddle_state
from cg_solver import cg_solvers


def lasso_polish(problem, params, run_iters=3000, kkt_tol=1e-10):
    """High-accuracy lasso solution by active-set refinement of a solver run.

    Runs the decomposition to identify the support from the soft-thresholded
    block, solves the reduced stationarity system directly, and verifies the
    full optimality conditions before returning the assembled state.
    """
    A = problem.blocks[0].objective.smooth.A
    b = problem.blocks[0].objective.smooth.b
    lam = problem.blocks[1].objective.l1_scale
    solvers = ag.build_block_solvers(problem, params)
    from dataclasses import replace
    for iters in (run_iters, 4 * run_iters):
        p = replace(params, max_iters=iters, stop_eps=1e-14)
        final, _ = ag.run(problem, p, solvers, stop_mode="max_iters")
        z = final.x[1]
        support = np.flatnonzero(z != 0.0)
        if support.size == 0:
            continue
        signs = np.sign(z[support])
        A_s = A[:, support]
        x_s = np.linalg.solve(A_s.T @ A_s, A_s.T @ b - lam * signs)
        if not np.all(np.sign(x_s) == signs):
            continue
        x_hat = np.zeros(A.shape[1])
        x_hat[support] = x_s
        y_hat = -(A.T @ (A @ x_hat - b))
        state = saddle_state(problem, (x_hat, x_hat), y_hat)
        if ag.kkt_residual(state.x, y_hat, problem) <= kkt_tol:
            return state
    raise RuntimeError("active-set polish failed to certify the lasso optimum")


def iterative_solvers(problem, params):
    """``build_block_solvers``' solvers, with conjugate gradients on the
    least-squares blocks: the default build solves those by their factor
    under any schedule, so tests of nonzero certificates build these."""
    return cg_solvers(problem, params.rho / 2, 1 / params.c)


@pytest.fixture(scope="session")
def small_lasso():
    """Lasso instance small enough that every solver reaches its tail fast."""
    problem, x0 = ag.gen_lasso(40, 60, seed=3)
    return problem


@pytest.fixture(scope="session")
def small_exchange():
    """Exchange instance with a roomy solution set (K*(n-p) > n)."""
    problem, x_star = ag.gen_exchange(3, 20, 10, seed=3)
    return problem, x_star


@pytest.fixture(scope="session")
def small_exchange_saddle(small_exchange):
    """Exact saddle: ``x*`` zeroes every block gradient, so ``y = 0``."""
    problem, x_star = small_exchange
    return saddle_state(problem, x_star, np.zeros(problem.m))
