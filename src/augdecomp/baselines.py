"""ADMM-family comparison solvers.

Three baselines share the block-solver machinery with the decomposition
engines:

* variable-splitting ADMM on the lifted constraint, whose ``w``-update is the
  closed-form projection onto the zero-sum subspace;
* proximal Jacobian ADMM, which updates all blocks in parallel against the
  previous sweep and damps the multiplier step;
* the classic two-block ADMM for the lasso with over-relaxation.

Every least-squares block update, the two-block ADMM's x-update included,
is a ``QuadBlockSolver`` solve.  Every step returns ``(new_state,
StepMetrics)``, as ``ada_step`` does, and every runner hands its step to the
engines' loop ``ada.drive``, so they share its stop modes, stop reasons and
trace schema; the G-norm delta column is not defined for these iterations
and is recorded as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ada import StepMetrics, drive, step_metrics
from .block_solvers import (QuadBlockSolver, build_penalized_solvers,
                            soft_threshold)
from .model import Problem, constraint_residual, project_onto_W


def check_baseline_params(beta: float, gamma_damp: float, admm_step: float) -> None:
    """Raise ``ValueError`` unless ``beta`` and ``gamma_damp`` are positive and
    ``admm_step`` lies in (0, 2); NaN fails every check."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not gamma_damp > 0:
        raise ValueError("gamma_damp must be positive")
    if not 0.0 < admm_step < 2.0:
        raise ValueError("admm_step must lie in the open interval (0, 2)")


@dataclass(frozen=True)
class BaselineParams:
    """Penalty, damping, and proximal weights for the baseline solvers, and
    the two-block ADMM's over-relaxation ``admm_step`` in the open interval
    (0, 2) (Eckstein and Bertsekas, 1992)."""

    beta: float = 1.0
    gamma_damp: float = 1.0
    prox_weights: Optional[tuple] = None
    admm_step: float = 1.618

    def __post_init__(self):
        check_baseline_params(self.beta, self.gamma_damp, self.admm_step)
        if self.prox_weights is not None:
            pw = tuple(float(t) for t in self.prox_weights)
            if not all(t > 0 for t in pw):
                raise ValueError("prox_weights must be positive")
            object.__setattr__(self, "prox_weights", pw)


def default_prox_weights(problem: Problem, params: BaselineParams) -> tuple:
    """Sufficient-condition weights ``tau_k = beta (K/(2-gamma) - 1) ||E_k||^2 + 0.1``.

    This guarantees convergence of the Jacobian iteration for damping
    ``gamma < 2``; the additive margin keeps every weight strictly positive.
    """
    K = problem.num_blocks
    if params.gamma_damp >= 2.0:
        raise ValueError("damping must satisfy gamma < 2 for the default weights")
    factor = params.beta * (K / (2.0 - params.gamma_damp) - 1.0)
    return tuple(factor * blk.E.norm ** 2 + 0.1 for blk in problem.blocks)


def _baseline_metrics(nu, problem, x_prev, x_new, resid, values) -> StepMetrics:
    """Shared metrics; no G-norm delta and zero certificates (exact solves).

    ``resid`` is the constraint residual at ``x_new``, which the step
    formed, and ``values`` the block objectives its solvers evaluated (None
    for the others; see ``objective``).
    """
    return step_metrics(nu, problem, x_prev, x_new, resid, values=values,
                        delta_g_norm_sq=float("nan"),
                        per_block_cert=(0.0,) * len(x_new))


# ---------------------------------------------------------------------------
# Variable-splitting ADMM


def vsadmm_step(state, problem: Problem, params: BaselineParams, solvers, nu: int = 0):
    """One sweep of variable-splitting ADMM on ``(w, x, y)``; returns
    ``((w, x, y), StepMetrics)``, like ``ada_step``.

    Block updates minimize ``f_k + (beta/2)||E_k x_k - q_k - w_k + y_k/beta||^2``
    (full column rank of ``E_k`` assumed); the ``w``-update projects
    ``v_k = E_k x_k - q_k + y_k/beta`` onto the zero-sum subspace.
    """
    w, x, y = state
    K, m = problem.num_blocks, problem.m
    beta = params.beta
    new_x, values = [], []
    ex = np.empty((K, m))
    v = np.empty((K, m))
    for k in range(K):
        qk = problem.q if k == K - 1 else 0.0
        t = qk + w[k] - y[k] / beta
        cert = solvers[k].solve(t, x[k], accept=None)
        new_x.append(cert.x)
        values.append(cert.value)
        ex[k] = problem.blocks[k].E.apply(cert.x)
        v[k] = ex[k] - qk + y[k] / beta
    w_new = project_onto_W(v)
    y_new = np.empty((K, m))
    for k in range(K):
        qk = problem.q if k == K - 1 else 0.0
        y_new[k] = y[k] + beta * (ex[k] - qk - w_new[k])
    resid = -problem.q.copy()  # summed in constraint_residual's order
    for k in range(K):
        resid += ex[k]
    new_x = tuple(new_x)
    return (w_new, new_x, y_new), _baseline_metrics(nu, problem, x, new_x, resid, values)


def vsadmm_run(problem: Problem, params: BaselineParams, max_iters: int,
               stop_eps: float = 1e-8, stop_mode: str = "x_change"):
    """Run VSADMM from zero; returns ``((w, x, y), Trace)``."""
    solvers = build_penalized_solvers(problem, penalty=params.beta, prox_weights=0.0)
    K, m = problem.num_blocks, problem.m
    state = (np.zeros((K, m)), tuple(np.zeros(n) for n in problem.block_dims()),
             np.zeros((K, m)))
    return drive(lambda state, nu: vsadmm_step(state, problem, params, solvers, nu),
                 state, max_iters, stop_mode, stop_eps)


# ---------------------------------------------------------------------------
# Proximal Jacobian ADMM


def prox_jadmm_step(state, problem: Problem, params: BaselineParams, solvers,
                    nu: int = 0):
    """One parallel sweep of proximal Jacobian ADMM on ``(x, lam)``; returns
    ``((x, lam), StepMetrics)``, like ``ada_step``.

    Every block minimizes
    ``f_k + (beta/2)||E_k x_k + sum_{j != k} E_j x_j - q - lam/beta||^2
    + (tau_k/2)||x_k - x_k_prev||^2`` against the previous sweep, then the
    multiplier takes the damped step ``lam -= gamma*beta*(E x - q)``.
    """
    x, lam = state
    K = problem.num_blocks
    beta = params.beta
    Ex = [problem.blocks[k].E.apply(x[k]) for k in range(K)]
    total = np.sum(Ex, axis=0)
    new_x, values = [], []
    for k in range(K):
        r_k = (total - Ex[k]) - problem.q - lam / beta
        cert = solvers[k].solve(-r_k, x[k], accept=None)
        new_x.append(cert.x)
        values.append(cert.value)
    resid = constraint_residual(new_x, problem)
    lam_new = lam - params.gamma_damp * beta * resid
    new_x = tuple(new_x)
    return (new_x, lam_new), _baseline_metrics(nu, problem, x, new_x, resid, values)


def prox_jadmm_run(problem: Problem, params: BaselineParams, max_iters: int,
                   stop_eps: float = 1e-8, stop_mode: str = "x_change"):
    """Run proximal Jacobian ADMM from zero; returns ``((x, lam), Trace)``."""
    weights = params.prox_weights
    if weights is None:
        weights = default_prox_weights(problem, params)
    solvers = build_penalized_solvers(problem, penalty=params.beta,
                                      prox_weights=weights)
    state = (tuple(np.zeros(n) for n in problem.block_dims()), np.zeros(problem.m))
    return drive(lambda state, nu: prox_jadmm_step(state, problem, params, solvers, nu),
                 state, max_iters, stop_mode, stop_eps)


# ---------------------------------------------------------------------------
# Two-block lasso ADMM


def _is_signed_identity(E, sign: int) -> bool:
    """``E == sign * I``, read from the structure or compared exactly."""
    if E.kind == "matrix":
        return np.array_equal(E.toarray(), sign * np.eye(E.shape[1]))
    return E.kind == "identity" and E.sign == sign


def _require_lasso_form(problem: Problem) -> float:
    """The l1 weight of a lasso coupled by ``x - z = 0``, the only coupling
    that ``Admm2Lasso``'s z- and multiplier updates are written for.  The
    least-squares block is checked by its ``QuadBlockSolver``."""
    if problem.num_blocks != 2:
        raise ValueError("two-block lasso form required")
    b1, b2 = problem.blocks
    ok = (b2.objective.smooth is None and np.allclose(problem.q, 0.0)
          and _is_signed_identity(b1.E, 1) and _is_signed_identity(b2.E, -1))
    if not ok:
        raise ValueError("expected blocks (least squares, l1) coupled by x - z = 0")
    return b2.objective.l1_scale


class Admm2Lasso:
    """Classic two-block ADMM for ``0.5||Ax-b||^2 + lam||z||_1`` s.t. ``x = z``.

    Scaled-dual form with over-relaxation ``admm_step`` and penalty ``beta``.
    The x-update is VSADMM's block-0 solve (penalty ``beta``, no proximal
    term) with target ``z - u``.
    """

    def __init__(self, problem: Problem, params: BaselineParams):
        self.lam = _require_lasso_form(problem)
        self.problem = problem
        self.params = params
        self._quad = QuadBlockSolver(problem.blocks[0], params.beta, 0.0)

    def step(self, state, nu: int = 0):
        """One sweep; returns ``((x, z, u), StepMetrics)``, like ``ada_step``.

        The metrics take ``f(x)`` from the x-update's solve and the residual
        ``x - z - q`` in ``constraint_residual``'s order for ``E = (I, -I)``.
        """
        x, z, u = state
        beta, alpha = self.params.beta, self.params.admm_step
        cert = self._quad.solve(z - u, x)
        x_new = cert.x
        x_relaxed = alpha * x_new + (1.0 - alpha) * z
        z_new = soft_threshold(x_relaxed + u, self.lam / beta)
        u_new = u + x_relaxed - z_new
        resid = -self.problem.q.copy()
        resid += x_new
        resid -= z_new
        return (x_new, z_new, u_new), _baseline_metrics(
            nu, self.problem, (x, z), (x_new, z_new), resid, (cert.value, None))

    def run(self, max_iters: int, stop_eps: float = 1e-8,
            stop_mode: str = "x_change"):
        """Run from zero; returns ``((x, z, u), Trace)``."""
        d = self.problem.blocks[0].n
        return drive(self.step, (np.zeros(d), np.zeros(d), np.zeros(d)), max_iters,
                     stop_mode, stop_eps)

    def multiplier(self, state) -> np.ndarray:
        """Unscaled dual for the coupling ``x - z = 0`` (sign matching E1 = I)."""
        return self.params.beta * state[2]
