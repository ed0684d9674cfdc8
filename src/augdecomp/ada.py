"""Exact augmented decomposition engine.

One outer iteration solves the K proximal block subproblems, forms the
per-block multiplier estimates ``eta``, averages them into the common value
``zeta_bar``, and moves the lifted splitting variables ``w`` and the running
multipliers ``y``:

    x_k   <- argmin  f_k(x_k) + (rho/4)*||E_k x_k - q_k - w_k + (2/rho) y_k||^2
                     + (1/2c)*||x_k - x_k_prev||^2
    eta_k <- y_k + (rho/2) * (E_k x_k - q_k - w_k)
    zeta  <- mean_k eta_k
    w_k   <- w_k + (eta_k - zeta) / rho
    y_k   <- (eta_k + zeta) / 2

with ``q_k = q`` for the last block and zero otherwise.  The increments
``eta_k - zeta`` sum to zero by construction, so ``w`` stays in the zero-sum
subspace; the tiny floating-point drift is removed and recorded each step.

The block solves are ``sweep``, which VSADMM and proximal Jacobian ADMM
(``baselines``) share: one pass over the blocks solves them, tallies the
certificates and writes ``E_k x_k`` into row k of an array, which here
becomes ``eta`` after the residual is summed from it.  The updates run in
place with the bits of the formulas above, and the new state skips
``IterateState``'s zero-sum check, which the drift removal ensures; a
caller's state keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .block_solvers import BlockSolveError
from .model import (IterateState, Problem, SolverParams, _unchecked,
                    make_initial_state, objective, state_g_dist_sq, vnorm)

STOP_MODES = ("x_change", "feasibility", "max_iters")


@dataclass(frozen=True)
class StepMetrics:
    """Per-iteration diagnostics recorded by the engines."""

    iter: int
    objective: float
    constraint_residual_norm: float
    delta_g_norm_sq: float
    x_rel_change: float
    feas_rel: float
    per_block_cert: tuple
    inner_iters_total: int = 0
    w_drift: float = 0.0
    fallbacks: int = 0  # block solves that fell back to the exact solve
    factorizations: int = 0  # Hessian factorizations made by the block solves

    @property
    def finite(self) -> bool:
        """Objective and constraint residual norm are both finite."""
        return math.isfinite(self.objective) \
            and math.isfinite(self.constraint_residual_norm)


@dataclass
class Trace:
    """Recorded run: one ``StepMetrics`` per iteration.

    ``initial_state`` is the starting point; ``states`` stays None except
    in a trace of ``inexact.iada_run``, where ``states[i]`` is the iterate
    *after* step ``i+1``.  ``stop_reason`` says why the run ended:
    ``"converged"`` (the stopping criterion was met), ``"max_iters"`` (the
    iteration cap), ``"non_finite"`` (the last step produced a non-finite
    objective or residual norm), ``"solver_error"`` (a block solver raised
    ``BlockSolveError`` in the next step, whose message is ``error``; the
    metrics hold the steps before it) or ``"custom"`` (a callable stop
    rule).
    """

    initial_state: IterateState
    metrics: list = field(default_factory=list)
    states: Optional[list] = None
    stop_reason: str = "max_iters"
    error: Optional[str] = None

    @property
    def converged(self) -> bool:
        """The stop rule fired: ``stop_reason`` is ``"converged"`` or ``"custom"``."""
        return self.stop_reason in ("converged", "custom")

    def __len__(self):
        return len(self.metrics)

    def delta_g_sq(self) -> np.ndarray:
        return np.array([m.delta_g_norm_sq for m in self.metrics])

    def to_csv(self, path, include_certs: bool = False):
        """Write the metrics table; 17 significant digits, '.' decimal point.

        The bytes of ``csv.writer`` with floats formatted ``%.17g``: no field
        needs quoting, so each row is one ``%`` format and the file one
        write.
        """
        header = ["iter", "objective", "residual", "delta_g", "x_rel", "feas_rel"]
        row = "%d" + ",%.17g" * 5
        if include_certs:
            K = len(self.metrics[0].per_block_cert) if self.metrics \
                else self.initial_state.num_blocks
            header += [f"cert_{k + 1}" for k in range(K)] + ["inner_iters_total"]
            row += ",%.17g" * K + ",%d"
        row += "\r\n"
        lines = [",".join(header) + "\r\n"]
        for m in self.metrics:
            fields = (m.iter, m.objective, m.constraint_residual_norm,
                      m.delta_g_norm_sq, m.x_rel_change, m.feas_rel)
            if include_certs:
                fields += tuple(m.per_block_cert) + (m.inner_iters_total,)
            lines.append(row % fields)
        with open(path, "w", newline="") as fh:
            fh.write("".join(lines))


def _block_targets(state: IterateState, problem: Problem, rho: float) -> np.ndarray:
    """Targets ``t_k = q_k + w_k - (2/rho) y_k``, row k of a ``(K, m)``
    array, so each subproblem penalizes ``||E_k x_k - t_k||^2``.  Formed in
    place as ``w + (-2/rho) y``, which has the bits of ``w - (2/rho) y``."""
    targets = state.y * (-2.0 / rho)
    targets += state.w
    targets[-1] += problem.q
    return targets


class Sweep(NamedTuple):
    """A ``sweep``'s new blocks ``x``, ``E_k x_k`` in row k of ``ex``, ``resid =
    sum_k E_k x_k - q``, and its certificates' bounds, values ``f_k(x_k)``
    (None where unevaluated) and summed tallies."""

    x: tuple
    ex: Optional[np.ndarray]
    resid: np.ndarray
    certs: tuple
    values: Sequence
    inner_iters: int = 0
    fallbacks: int = 0
    factorizations: int = 0


def sweep(problem: Problem, solvers: Sequence, targets: np.ndarray,
          x_prev: Sequence, accept_rules: Optional[Sequence] = None) -> Sweep:
    """Solve block k against row k of ``targets`` from ``x_prev[k]``, under
    ``accept_rules[k]`` when given, in block order; a ``BlockSolveError``
    names the failing block.  The residual is summed in
    ``constraint_residual``'s order."""
    ex = np.empty((problem.num_blocks, problem.m))
    new_x, certs, values = [], [], []
    inner = fallbacks = factorizations = 0
    for k, solver in enumerate(solvers):
        try:
            cert = solver.solve(targets[k], x_prev[k],
                                accept=None if accept_rules is None else accept_rules[k])
        except BlockSolveError as err:
            raise BlockSolveError(f"block {k}: {err}") from err
        x = np.asarray(cert.x, dtype=float)
        new_x.append(x)
        certs.append(cert.subgrad_bound)
        values.append(cert.value)
        inner += cert.inner_iters
        fallbacks += cert.exact_fallback
        factorizations += cert.factorizations
        ex[k] = problem.blocks[k].E.apply(x)
    resid = np.negative(problem.q)
    for row in ex:
        resid += row
    return Sweep(tuple(new_x), ex, resid, tuple(certs), values, inner, fallbacks,
                 factorizations)


def step_metrics(nu: int, problem: Problem, x_prev: Sequence, sw: Sweep, *,
                 delta_g_norm_sq: float = math.nan, w_drift: float = 0.0) -> StepMetrics:
    """``StepMetrics`` of the step from ``x_prev`` to ``sw.x``, for every
    engine; the objective takes ``sw.values`` (see ``objective``), and the
    baselines leave the G-norm delta, undefined for them, NaN."""
    resid_norm = vnorm(sw.resid)
    x_prev_stacked = np.concatenate(x_prev)
    dx = np.concatenate(sw.x)
    dx -= x_prev_stacked
    return StepMetrics(nu, objective(sw.x, problem, sw.values), resid_norm,
                       delta_g_norm_sq, vnorm(dx) / max(1.0, vnorm(x_prev_stacked)),
                       resid_norm / max(1.0, vnorm(problem.q)), sw.certs,
                       sw.inner_iters, w_drift, sw.fallbacks, sw.factorizations)


def ada_step(state: IterateState, problem: Problem, params: SolverParams,
             solvers: Sequence, accept_rules: Optional[Sequence] = None,
             nu: int = 0):
    """One full sweep; returns ``(new_state, StepMetrics)``.

    ``accept_rules`` optionally supplies a per-block inexactness test
    ``accept(x, bound) -> bool`` forwarded to iterative solvers; with None
    every solver runs in its exact mode.  The blocks are solved by
    ``sweep``, whose ``BlockSolveError`` names the failing block.
    """
    K = problem.num_blocks
    rho, q = params.rho, problem.q
    sw = sweep(problem, solvers, _block_targets(state, problem, rho), state.x,
               accept_rules)

    # in-place updates with the bits of the formulas in the module docstring;
    # np.add.reduce(., axis=0) / K is mean(axis=0) without its wrapper
    eta_new = sw.ex
    eta_new -= state.w
    eta_new[K - 1] -= q
    eta_new *= 0.5 * rho
    eta_new += state.y
    zeta_new = np.add.reduce(eta_new, axis=0)
    zeta_new /= K
    w_new = eta_new - zeta_new
    w_new /= rho
    w_new += state.w
    # cancel floating-point drift out of the zero-sum subspace
    drift = np.add.reduce(w_new, axis=0)
    drift /= K
    w_new -= drift
    y_new = eta_new + zeta_new
    y_new *= 0.5
    # zero-sum by the drift removal, so the state is built unchecked
    new_state = _unchecked(IterateState, w_new, sw.x, eta_new, zeta_new, y_new)

    metrics = step_metrics(
        nu, problem, state.x, sw,
        delta_g_norm_sq=state_g_dist_sq(state, new_state, rho, params.c),
        w_drift=vnorm(drift) * np.sqrt(K))
    return new_state, metrics


def check_stop(metrics: StepMetrics, eps: float, mode: str) -> bool:
    """Relative x-change or relative feasibility test; ``max_iters`` never stops."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if mode == "x_change":
        return metrics.x_rel_change <= eps
    if mode == "feasibility":
        return metrics.feas_rel <= eps
    if mode == "max_iters":
        return False
    raise ValueError(f"unknown stop mode {mode!r}")


def drive(step: Callable, state, max_iters: int, stop_mode, stop_eps: float,
          initial_state=None, observe: Optional[Callable] = None):
    """The outer loop of every engine; returns ``(state, Trace)``.

    ``step(state, nu) -> (new_state, StepMetrics)`` performs iteration ``nu``
    (1-based).  ``stop_mode`` is one of ``STOP_MODES`` (tested by
    ``check_stop`` with ``stop_eps``) or a callable ``stop(state, metrics)``;
    a bad mode or ``stop_eps <= 0`` raises ``ValueError`` before the first
    step.  A step that raises ``BlockSolveError`` ends the run with the
    reason ``"solver_error"`` and the message as the trace's ``error``,
    keeping what the steps before it recorded.  Each step's metrics are
    recorded and its new state is passed to ``observe(state)`` (such as a
    ``diagnostics.RateObserver``); a non-finite step then ends the run
    (``"non_finite"``), and only a finite one reaches the stop rule, so a
    callable is called once per finite step.  A rule that fires ends the
    run with the reason ``"converged"`` (``"custom"`` for a callable);
    otherwise the run ends at ``"max_iters"``.
    """
    custom = callable(stop_mode)
    if not custom and stop_mode not in STOP_MODES:
        raise ValueError(f"unknown stop mode {stop_mode!r}")
    if not stop_eps > 0:
        raise ValueError("stop_eps must be positive")
    trace = Trace(initial_state=initial_state)
    for nu in range(1, max_iters + 1):
        try:
            state, metrics = step(state, nu)
        except BlockSolveError as err:
            trace.stop_reason = "solver_error"
            trace.error = str(err)
            break
        trace.metrics.append(metrics)
        if observe is not None:
            observe(state)
        if not metrics.finite:
            trace.stop_reason = "non_finite"
            break
        if stop_mode(state, metrics) if custom else check_stop(metrics, stop_eps, stop_mode):
            trace.stop_reason = "custom" if custom else "converged"
            break
    return state, trace


def run(problem: Problem, params: SolverParams, solvers: Sequence,
        initial: Optional[IterateState] = None, stop_mode="x_change",
        schedule=None, observe: Optional[Callable] = None):
    """Run ADA, or iADA under ``schedule``, to the chosen criterion or the
    iteration cap.

    Parameters
    ----------
    problem, params, solvers
        Problem data, proximal coefficients / limits, one solver per block.
    initial : IterateState, optional
        Starting point; all zeros when omitted.
    stop_mode : str or callable
        One of ``"x_change"``, ``"feasibility"``, ``"max_iters"``, or a
        callable ``stop(state, metrics) -> bool`` for custom termination.
    schedule : inexact.InexactSchedule, optional
        With a schedule, step ``nu`` solves the blocks under its acceptance
        rules ``schedule.accept_rules(nu, state, params, K)`` (iADA); with
        None every block solver runs in its exact mode (ADA).  The solvers
        are the same for every schedule.
    observe : callable, optional
        Called with the state after each step (see ``drive``), such as a
        ``diagnostics.RateObserver`` built with the same ``initial``; the
        trace keeps no states.

    Returns
    -------
    (IterateState, Trace)
        Final state and the recorded trace; ``trace.converged`` is False when
        the run ended without meeting the criterion (see ``drive``).
    """
    state = make_initial_state(problem) if initial is None else initial
    K = problem.num_blocks

    def step(state, nu):
        rules = None if schedule is None else schedule.accept_rules(nu, state, params, K)
        return ada_step(state, problem, params, solvers, accept_rules=rules, nu=nu)

    return drive(step, state, params.max_iters, stop_mode, params.stop_eps,
                 initial_state=state, observe=observe)
