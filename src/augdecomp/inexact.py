"""Inexactness schedules for the decomposition engine (iADA).

iADA is ``ada.run`` given an ``InexactSchedule``: the outer updates are the
exact engine's, and the block subproblems may be solved approximately as long
as each returned point carries a bound on ``dist(0, d phi_k)`` no larger than
the active threshold.  Without a schedule (``schedule=None``) the run is
exact ADA.  Two acceptance criteria are provided: a summable absolute
schedule (criterion A)

    bound <= eps_nu / (c K (rho ||E|| + ||E|| + 1)),   eps_nu = eps0 / nu^gamma,

and its step-proportional tightening (criterion B), which multiplies the
threshold by ``min(1, ||x_k - x_k_prev||)`` and yields the local linear rate.
``||E||`` is the spectral norm of the full stacked coupling matrix, computed
once per problem (in closed form for the structured couplings).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import ada
from .coupling import stacked_norm
from .model import IterateState, Problem, SolverParams, vnorm

__all__ = [
    "InexactSchedule", "criterion_a_threshold", "criterion_b_threshold", "iada_run",
]

SCHEDULE_KINDS = ("criterion_A", "criterion_B")


def check_schedule_params(eps0: float, gamma: float) -> None:
    """Raise ``ValueError`` unless ``eps0`` and ``gamma`` are positive; NaN
    fails the check."""
    if not (eps0 > 0 and gamma > 0):
        raise ValueError("eps0 and gamma must be positive")


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
        check_schedule_params(self.eps0, self.gamma)
        if not self.e_norm > 0:
            raise ValueError("e_norm (spectral norm of the stacked coupling) required")
        if self.gamma <= 1.0:
            warnings.warn("gamma <= 1: inexactness budget is not summable, "
                          "convergence not guaranteed in theory", RuntimeWarning)

    @classmethod
    def for_problem(cls, problem: Problem, kind: str = "criterion_A",
                    eps0: float = 1.0, gamma: float = 1.5) -> "InexactSchedule":
        return cls(kind=kind, eps0=eps0, gamma=gamma,
                   e_norm=stacked_norm([blk.E for blk in problem.blocks]))

    def eps_at(self, nu: int) -> float:
        if nu < 1:
            raise ValueError("nu must be at least 1")
        return self.eps0 / nu ** self.gamma

    def accept_rules(self, nu: int, state: IterateState, params: SolverParams,
                     num_blocks: int) -> list:
        """Per-block acceptance tests ``accept(x, bound)`` for outer step
        ``nu`` (1-based) from ``state``.

        Each rule's ``limit`` attribute is the criterion-A threshold: no
        bound above it passes either criterion, so a block solver may skip
        the call for such a bound.  The closed-form solvers certify 0, which
        passes every rule.
        """
        base = criterion_a_threshold(nu, self, params.rho, params.c, num_blocks)
        if self.kind == "criterion_A":
            def rule(x, bound):
                return bound <= base

            rule.limit = base
            return [rule] * num_blocks
        rules = []
        for k in range(num_blocks):
            x_prev = state.x[k]

            def rule(x, bound, x_prev=x_prev):
                # min(1, .) <= 1, so a bound above base fails without the step norm
                if bound > base:
                    return False
                return bound <= base * min(1.0, vnorm(x - x_prev))

            rule.limit = base
            rules.append(rule)
        return rules


def criterion_a_threshold(nu: int, schedule: InexactSchedule, rho: float,
                          c: float, num_blocks: int) -> float:
    """Absolute bound ``eps_nu / (c K (rho ||E|| + ||E|| + 1))`` for step ``nu >= 1``."""
    if not (rho > 0 and c > 0 and num_blocks >= 1):
        raise ValueError("rho, c must be positive and num_blocks >= 1")
    denom = c * num_blocks * (rho * schedule.e_norm + schedule.e_norm + 1.0)
    return schedule.eps_at(nu) / denom


def criterion_b_threshold(nu: int, schedule: InexactSchedule, rho: float,
                          c: float, num_blocks: int, x_step_norm: float) -> float:
    """Criterion-A bound scaled by ``min(1, ||x_k_new - x_k_prev||)``."""
    if not x_step_norm >= 0:
        raise ValueError("x_step_norm must be nonnegative")
    return criterion_a_threshold(nu, schedule, rho, c, num_blocks) \
        * min(1.0, x_step_norm)


def iada_run(problem: Problem, params: SolverParams,
             schedule: InexactSchedule | None, solvers,
             initial: IterateState | None = None, stop_mode="x_change"):
    """``ada.run(..., schedule=schedule)`` whose trace keeps every state.

    ``trace.states[i]`` is the iterate after step ``i+1``, so the last is
    the final state.  The benchmark's certificate gate recomputes
    criterion-B thresholds from them; otherwise prefer ``ada.run``, with a
    ``diagnostics.RateObserver`` as ``observe`` for the rate checks.
    ``schedule=None`` runs the exact engine.
    """
    states = []
    final, trace = ada.run(problem, params, solvers, initial=initial,
                           stop_mode=stop_mode, schedule=schedule, observe=states.append)
    trace.states = states
    return final, trace
