"""Inexact decomposition engine with certified block solves.

The outer updates are identical to the exact engine; the block subproblems
may be solved approximately as long as each returned point carries a bound on
``dist(0, d phi_k)`` no larger than the active threshold.  Two acceptance
criteria are provided: a summable absolute schedule (criterion A)

    bound <= eps_nu / (c K (rho ||E|| + ||E|| + 1)),   eps_nu = eps0 / nu^gamma,

and its step-proportional tightening (criterion B), which multiplies the
threshold by ``min(1, ||x_k - x_k_prev||)`` and yields the local linear rate.
``||E||`` is the spectral norm of the full stacked coupling matrix, computed
once per problem (in closed form for the structured couplings).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import ada
from .block_solvers import BlockSolveCertificate
from .coupling import spectral_norm, stacked_norm
from .model import IterateState, Problem, SolverParams

__all__ = [
    "InexactSchedule", "BlockSolveCertificate", "criterion_a_threshold",
    "criterion_b_threshold", "spectral_norm", "stacked_coupling_norm",
    "inexact_block_solve", "iada_run",
]

SCHEDULE_KINDS = ("criterion_A", "criterion_B", "exact")


def stacked_coupling_norm(problem: Problem) -> float:
    """Spectral norm of the full ``m x n`` matrix ``[E_1 ... E_K]``."""
    return stacked_norm([blk.E for blk in problem.blocks])


@dataclass(frozen=True)
class InexactSchedule:
    """Inexactness budget ``eps_nu = eps0 / nu^gamma`` plus the coupling norm.

    ``gamma > 1`` makes the budget summable, which is what the convergence
    guarantee needs; smaller gamma is accepted for experimentation but
    flagged with a warning.
    """

    kind: str = "criterion_A"
    eps0: float = 1.0
    gamma: float = 1.5
    e_norm: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind != "exact":
            if self.eps0 <= 0 or self.gamma <= 0:
                raise ValueError("eps0 and gamma must be positive")
            if self.e_norm <= 0:
                raise ValueError("e_norm (spectral norm of the stacked coupling) required")
            if self.gamma <= 1.0:
                warnings.warn("gamma <= 1: inexactness budget is not summable, "
                              "convergence not guaranteed in theory", RuntimeWarning)

    @classmethod
    def for_problem(cls, problem: Problem, kind: str = "criterion_A",
                    eps0: float = 1.0, gamma: float = 1.5) -> "InexactSchedule":
        e_norm = stacked_coupling_norm(problem) if kind != "exact" else 1.0
        return cls(kind=kind, eps0=eps0, gamma=gamma, e_norm=e_norm)

    def eps_at(self, nu: int) -> float:
        if nu < 1:
            raise ValueError("nu must be at least 1")
        return self.eps0 / nu ** self.gamma


def criterion_a_threshold(nu: int, schedule: InexactSchedule, rho: float,
                          c: float, num_blocks: int) -> float:
    """Absolute bound ``eps_nu / (c K (rho ||E|| + ||E|| + 1))`` for step ``nu >= 1``."""
    if rho <= 0 or c <= 0 or num_blocks < 1:
        raise ValueError("rho, c must be positive and num_blocks >= 1")
    denom = c * num_blocks * (rho * schedule.e_norm + schedule.e_norm + 1.0)
    return schedule.eps_at(nu) / denom


def criterion_b_threshold(nu: int, schedule: InexactSchedule, rho: float,
                          c: float, num_blocks: int, x_step_norm: float) -> float:
    """Criterion-A bound scaled by ``min(1, ||x_k_new - x_k_prev||)``."""
    if x_step_norm < 0:
        raise ValueError("x_step_norm must be nonnegative")
    return criterion_a_threshold(nu, schedule, rho, c, num_blocks) \
        * min(1.0, x_step_norm)


def _accept_rules(nu: int, state: IterateState, schedule: InexactSchedule,
                  params: SolverParams, num_blocks: int):
    """Per-block acceptance tests for outer step ``nu`` (1-based)."""
    base = criterion_a_threshold(nu, schedule, params.rho, params.c, num_blocks)
    if schedule.kind == "criterion_A":
        return [lambda x, bound: bound <= base] * num_blocks
    rules = []
    for k in range(num_blocks):
        x_prev = state.x[k]

        def rule(x, bound, x_prev=x_prev):
            # min(1, .) <= 1, so a bound above base fails without the step norm
            if bound > base:
                return False
            return bound <= base * min(1.0, float(np.linalg.norm(x - x_prev)))

        rules.append(rule)
    return rules


def inexact_block_solve(k: int, state: IterateState, problem: Problem,
                        params: SolverParams, schedule: InexactSchedule,
                        inner, nu: int = 1) -> BlockSolveCertificate:
    """Solve block ``k`` to the schedule's criterion at outer step ``nu``.

    ``inner`` is a block solver whose iterative modes honor an acceptance
    rule; closed-form solvers certify zero and pass any threshold.  Raises
    ``BlockSolveError`` when the inner budget runs out below the threshold.
    """
    K = problem.num_blocks
    if not 0 <= k < K:
        raise IndexError(f"block index {k} out of range for K={K}")
    targets = ada._block_targets(state, problem, params.rho)
    accept = None
    if schedule.kind != "exact":
        accept = _accept_rules(nu, state, schedule, params, K)[k]
    return inner.solve(targets[k], state.x[k], accept=accept)


def iada_run(problem: Problem, params: SolverParams, schedule: InexactSchedule,
             solvers, initial: IterateState | None = None,
             stop_mode="x_change", record_states: bool = True,
             observe=None):
    """Run the decomposition with certified inexact block solves.

    With ``schedule.kind == "exact"`` this is bit-for-bit the exact engine on
    the same solvers; otherwise each outer step installs the criterion-A or
    criterion-B acceptance rules and the trace records the per-block
    certificates.  ``observe`` is passed to ``ada.run``.  Unlike
    ``ada.run``, this keeps every state by default (``record_states=True``):
    the benchmark's certificate gate recomputes criterion-B thresholds from
    ``trace.states``.  Pass ``record_states=False`` with a
    ``diagnostics.RateObserver`` to run the rate checks without them.
    """
    factory = None
    if schedule.kind != "exact":
        K = problem.num_blocks

        def factory(nu, state):
            return _accept_rules(nu, state, schedule, params, K)

    return ada.run(problem, params, solvers, initial=initial,
                   stop_mode=stop_mode, record_states=record_states,
                   accept_rule_factory=factory, observe=observe)
