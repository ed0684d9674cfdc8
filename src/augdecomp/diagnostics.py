"""Post-hoc verification of convergence-rate claims from recorded traces.

These checks consume traces recorded with states and, where a reference
point is needed, a high-accuracy run of the same configuration (the
documented oracle, accurate to the run's own 1e-12 stopping tolerance):

* monotone decrease of the squared G-norm step ``a_nu = ||u_nu - u_nu+1||_G^2``;
* summability of ``a_nu`` and the decade-median surrogate for ``a_nu = o(1/nu)``;
* non-increase of the G-distance to the reference (Fejer property);
* the O(1/N) ergodic duality-gap bound for the running primal mean;
* the tail contraction factor of distances to the reference (local linear
  rate);
* aggregated KKT residuals at a candidate primal-dual pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .ada import Trace
from .block_solvers import subgrad_dist_l1
from .model import (IterateState, Problem, constraint_residual, objective,
                    state_g_dist_sq)


@dataclass
class RateReport:
    """Outcome of the rate checks; reference-based fields are None when no
    reference point was supplied."""

    monotone_ok: Optional[bool] = None
    first_violation: Optional[int] = None
    partial_sums: Optional[list] = None
    nu_a_nu_medians: Optional[tuple] = None
    fejer_ok: Optional[bool] = None
    ergodic_max_violation: Optional[float] = None
    tail_ratio_theta: Optional[float] = None

    def to_json(self, path=None) -> str:
        payload = asdict(self)
        if payload["nu_a_nu_medians"] is not None:
            payload["nu_a_nu_medians"] = list(payload["nu_a_nu_medians"])
        text = json.dumps(payload, indent=2, allow_nan=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def verify_monotone(trace: Trace, slack: float = 1e-9):
    """Check ``a_nu+1 <= a_nu * (1 + slack)`` along the whole trace.

    Only meaningful for exact runs; returns ``(ok, first_violation)`` with
    the 1-based index of the first offending step, or None.
    """
    a = trace.delta_g_sq()
    if len(a) < 3:
        raise ValueError("trace too short for a monotonicity check (need >= 3)")
    for i in range(len(a) - 1):
        if a[i + 1] > a[i] * (1.0 + slack):
            return False, trace.metrics[i + 1].iter
    return True, None


def delta_partial_sums(trace: Trace) -> np.ndarray:
    """Nondecreasing partial sums of ``a_nu``; a bounded tail indicates summability."""
    return np.cumsum(trace.delta_g_sq())


def nu_a_nu_medians(trace: Trace, frac: float = 0.1):
    """Medians of ``nu * a_nu`` over the first and last ``frac`` of iterations.

    A last-decade median well below the first-decade one is the falsifiable
    surrogate used for the ``a_nu = o(1/nu)`` claim.
    """
    a = trace.delta_g_sq()
    n = len(a)
    if n < 2:
        raise ValueError("trace too short for decade medians")
    window = max(1, int(math.floor(n * frac)))
    nu = np.arange(1, n + 1, dtype=float)
    seq = nu * a
    return float(np.median(seq[:window])), float(np.median(seq[-window:]))


def verify_fejer(trace: Trace, reference: IterateState, rho: float, c: float,
                 rel_slack: float = 1e-8):
    """Non-increase of ``||u_nu - ref||_G`` from the initial state onward.

    Returns ``(ok, first_violation)``.
    """
    if trace.states is None:
        raise ValueError("trace was recorded without states")
    seq = [trace.initial_state] + list(trace.states)
    d = [math.sqrt(state_g_dist_sq(s, reference, rho, c)) for s in seq]
    for i in range(len(d) - 1):
        if d[i + 1] > d[i] * (1.0 + rel_slack):
            return False, i + 1
    return True, None


def verify_ergodic(trace: Trace, reference: IterateState, problem: Problem,
                   rho: float, c: float) -> float:
    """Largest violation of the O(1/N) ergodic duality-gap bound.

    For every prefix length N the running primal mean ``x~_N`` must satisfy

        f(x~_N) + <eta_ref, E x~_N - q> - f(x_ref) <= ||ref - u0||_G^2 / N;

    returns ``max_N (lhs - rhs)``, which should not exceed the tolerance that
    matches the reference accuracy.
    """
    if trace.states is None:
        raise ValueError("trace was recorded without states")
    if not trace.states:
        raise ValueError("empty trace")
    eta_ref = reference.eta[0]
    f_ref = objective(reference.x, problem)
    d0_sq = state_g_dist_sq(reference, trace.initial_state, rho, c)
    K = problem.num_blocks
    acc = [np.zeros_like(xk) for xk in trace.states[0].x]
    worst = -math.inf
    for N, s in enumerate(trace.states, start=1):
        for k in range(K):
            acc[k] += s.x[k]
        x_tilde = [a / N for a in acc]
        lhs = objective(x_tilde, problem) \
            + float(eta_ref @ constraint_residual(x_tilde, problem)) - f_ref
        worst = max(worst, lhs - d0_sq / N)
    return worst


def verify_linear_tail(states: Sequence[IterateState], reference: IterateState,
                       rho: float, c: float, window_frac: float = 0.25,
                       floor: float = 1e-13) -> float:
    """Max contraction ratio ``d_nu+1 / d_nu`` over the trailing window.

    ``d_nu`` is the G-distance to the reference; pairs whose base distance is
    below ``floor`` are ignored to avoid ratio blow-up at numerical
    convergence.  A result below 1 is the empirical local linear rate; an
    empty window after filtering raises.
    """
    if not 0 < window_frac <= 1:
        raise ValueError("window_frac must be in (0, 1]")
    d = [math.sqrt(state_g_dist_sq(s, reference, rho, c)) for s in states]
    start = int(math.floor(len(d) * (1.0 - window_frac)))
    ratios = [d[i + 1] / d[i]
              for i in range(max(start, 0), len(d) - 1) if d[i] >= floor]
    if not ratios:
        raise ValueError("tail window is empty after the distance floor filter")
    return float(max(ratios))


def kkt_residual(x: Sequence[np.ndarray], y: np.ndarray, problem: Problem) -> float:
    """Aggregate optimality residual at ``(x, y)``.

    Root-sum-square of the per-block minimal subgradient norms of
    ``f_k + <E_k^T y, .>`` together with the coupling residual norm; every
    block is smooth, l1, or a smooth-plus-l1 composite.
    """
    total = float(np.linalg.norm(constraint_residual(x, problem))) ** 2
    for blk, xk in zip(problem.blocks, x):
        xk = np.asarray(xk, dtype=float)
        g = blk.objective.smooth_gradient(xk) + blk.E.apply_T(y)
        if blk.objective.l1_scale > 0.0:
            dist = subgrad_dist_l1(xk, g, blk.objective.l1_scale)
        else:
            dist = float(np.linalg.norm(g))
        total += dist ** 2
    return math.sqrt(total)


def rate_report(trace: Trace, problem: Problem, rho: float, c: float,
                reference: Optional[IterateState] = None,
                exact_engine: bool = True) -> RateReport:
    """Assemble every applicable check into one report.

    The monotone check only applies to exact runs; Fejer, ergodic, and tail
    fields need a reference point and stay None without one.
    """
    report = RateReport()
    if len(trace) >= 3 and exact_engine:
        report.monotone_ok, report.first_violation = verify_monotone(trace)
    if len(trace) >= 2:
        report.partial_sums = [float(v) for v in delta_partial_sums(trace)]
        report.nu_a_nu_medians = nu_a_nu_medians(trace)
    if reference is not None and trace.states:
        if exact_engine:
            report.fejer_ok, _ = verify_fejer(trace, reference, rho, c)
        report.ergodic_max_violation = verify_ergodic(trace, reference, problem, rho, c)
        try:
            report.tail_ratio_theta = verify_linear_tail(trace.states, reference, rho, c)
        except ValueError:
            report.tail_ratio_theta = None
    return report
