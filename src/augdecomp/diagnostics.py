"""Verification of convergence-rate claims, fed during a run or afterwards.

The checks that need a reference point (a high-accuracy run of the same
configuration, the documented oracle, accurate to the run's own 1e-12
stopping tolerance, or an exact saddle) live in ``RateObserver``, which an
engine feeds each step's state through ``drive(..., observe=)``.  It keeps
one G-distance per step and the ergodic running sum, never the states.  The
post-hoc ``rate_report``, ``verify_fejer``, ``verify_ergodic`` and
``verify_linear_tail`` compute the same numbers from a trace recorded with
states.  The checks are:

* monotone decrease of the squared G-norm step ``a_nu = ||u_nu - u_nu+1||_G^2``;
* summability of ``a_nu`` and the decade-median surrogate for ``a_nu = o(1/nu)``;
* non-increase of the G-distance to the reference (Fejer property);
* the O(1/N) ergodic duality-gap bound for the running primal mean;
* the tail contraction factor of distances to the reference (local linear
  rate);
* aggregated KKT residuals at a candidate primal-dual pair.

The first two read only the per-step metrics, which every trace records.
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

# defaults of the Fejer and tail checks; the report applies these
_FEJER_SLACK = 1e-8
_TAIL_WINDOW = 0.25
_TAIL_FLOOR = 1e-13


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
                 rel_slack: float = _FEJER_SLACK):
    """Non-increase of ``||u_nu - ref||_G`` from the initial state onward.

    Returns ``(ok, first_violation)``.
    """
    if trace.states is None:
        raise ValueError("trace was recorded without states")
    seq = [trace.initial_state] + list(trace.states)
    return _fejer_check([_g_dist(s, reference, rho, c) for s in seq], rel_slack)


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
    observer = RateObserver(problem, rho, c, reference, trace.initial_state)
    for state in trace.states:
        observer(state)
    return observer.ergodic_max_violation


def verify_linear_tail(states: Sequence[IterateState], reference: IterateState,
                       rho: float, c: float, window_frac: float = _TAIL_WINDOW,
                       floor: float = _TAIL_FLOOR) -> float:
    """Max contraction ratio ``d_nu+1 / d_nu`` over the trailing window.

    ``d_nu`` is the G-distance to the reference; pairs whose base distance is
    below ``floor`` are ignored to avoid ratio blow-up at numerical
    convergence.  A result below 1 is the empirical local linear rate; an
    empty window after filtering raises.
    """
    if not 0 < window_frac <= 1:
        raise ValueError("window_frac must be in (0, 1]")
    return _tail_ratio([_g_dist(s, reference, rho, c) for s in states],
                       window_frac, floor)


def _g_dist(state: IterateState, reference: IterateState, rho: float,
            c: float) -> float:
    return math.sqrt(state_g_dist_sq(state, reference, rho, c))


def _fejer_check(d: Sequence[float], rel_slack: float):
    """``(ok, first_violation)`` of ``d[i+1] <= d[i] (1 + rel_slack)``; the
    violation is an index into ``d``."""
    for i in range(len(d) - 1):
        if d[i + 1] > d[i] * (1.0 + rel_slack):
            return False, i + 1
    return True, None


def _tail_ratio(d: Sequence[float], window_frac: float, floor: float) -> float:
    """Largest ``d[i+1] / d[i]`` over the last ``window_frac`` of ``d``,
    skipping bases below ``floor``."""
    start = int(math.floor(len(d) * (1.0 - window_frac)))
    ratios = [d[i + 1] / d[i]
              for i in range(max(start, 0), len(d) - 1) if d[i] >= floor]
    if not ratios:
        raise ValueError("tail window is empty after the distance floor filter")
    return float(max(ratios))


class RateObserver:
    """The reference-based rate checks, fed one state per step.

    Pass it as ``observe=`` to ``ada.run``, ``iada_run`` or ``drive``, which
    call it with the state after each step, in order, from ``initial_state``
    on.  Per step it keeps the G-distance to ``reference`` (one float, read
    by the Fejer and tail checks) and adds the primal iterate to the running
    sum of the ergodic check; it keeps no state.  ``report(trace)`` is the
    ``RateReport`` that ``rate_report`` gives for the same run recorded with
    states, float for float.  Without a reference, calls do nothing and the
    report holds only the fields read from the trace's metrics.
    """

    def __init__(self, problem: Problem, rho: float, c: float,
                 reference: Optional[IterateState],
                 initial_state: Optional[IterateState], exact_engine: bool = True):
        self.problem, self.rho, self.c = problem, rho, c
        self.reference = reference
        self.exact_engine = exact_engine
        self.dists = []  # G-distance to the reference, initial state first
        self.ergodic_max_violation = -math.inf
        if reference is not None:
            self._d0_sq = state_g_dist_sq(initial_state, reference, rho, c)
            self.dists.append(math.sqrt(self._d0_sq))
            self._eta_ref = reference.eta[0]
            self._f_ref = objective(reference.x, problem)
            self._x_sum = None

    @property
    def steps(self) -> int:
        """Number of states fed so far."""
        return max(len(self.dists) - 1, 0)

    def __call__(self, state: IterateState) -> None:
        if self.reference is None:
            return
        self.dists.append(_g_dist(state, self.reference, self.rho, self.c))
        if self._x_sum is None:
            self._x_sum = [np.zeros_like(xk) for xk in state.x]
        for acc, xk in zip(self._x_sum, state.x):
            acc += xk
        N = self.steps
        x_tilde = [acc / N for acc in self._x_sum]
        lhs = objective(x_tilde, self.problem) \
            + float(self._eta_ref @ constraint_residual(x_tilde, self.problem)) \
            - self._f_ref
        self.ergodic_max_violation = max(self.ergodic_max_violation,
                                         lhs - self._d0_sq / N)

    def report(self, trace: Trace) -> RateReport:
        """Every applicable check of the run that fed this observer.

        The monotone check only applies to exact runs, as does the Fejer
        check; the Fejer, ergodic and tail fields stay None without a
        reference or a step.  Raises ``ValueError`` when the observer saw a
        different number of steps than the trace records.
        """
        if self.reference is not None and self.steps != len(trace):
            raise ValueError(f"observer was fed {self.steps} states for a trace "
                             f"of {len(trace)} steps")
        report = RateReport()
        if len(trace) >= 3 and self.exact_engine:
            report.monotone_ok, report.first_violation = verify_monotone(trace)
        if len(trace) >= 2:
            report.partial_sums = [float(v) for v in delta_partial_sums(trace)]
            report.nu_a_nu_medians = nu_a_nu_medians(trace)
        if self.steps:
            if self.exact_engine:
                report.fejer_ok, _ = _fejer_check(self.dists, _FEJER_SLACK)
            report.ergodic_max_violation = self.ergodic_max_violation
            try:
                report.tail_ratio_theta = _tail_ratio(self.dists[1:], _TAIL_WINDOW,
                                                      _TAIL_FLOOR)
            except ValueError:
                report.tail_ratio_theta = None
        return report


def kkt_residual(x: Sequence[np.ndarray], y: np.ndarray, problem: Problem) -> float:
    """Aggregate optimality residual at ``(x, y)``.

    Root-sum-square of the per-block minimal subgradient norms of
    ``f_k + <E_k^T y, .>`` together with the coupling residual norm; every
    block is a smooth loss or an l1 term.
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
    """Assemble every applicable check into one report, after the run.

    Feeds a ``RateObserver`` the recorded states, so the report equals the
    one an observer fed during the run gives.  The Fejer, ergodic and tail
    fields need a reference point and stay None without one; a reference
    with a trace recorded without states raises ``ValueError``.
    """
    observer = RateObserver(problem, rho, c, reference, trace.initial_state,
                            exact_engine)
    if reference is not None:
        if trace.states is None:
            raise ValueError("trace was recorded without states: pass "
                             "record_states=True, or a RateObserver as observe=")
        for state in trace.states:
            observer(state)
    return observer.report(trace)
