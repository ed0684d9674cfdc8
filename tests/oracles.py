"""Reference implementations that the library no longer carries.

``lbfgs_minimize`` is the limited-memory BFGS method with a strong-Wolfe
line search that solved the logistic blocks before they moved to damped
Newton steps.  It is kept here as an independent oracle: ``TestLbfgs`` pins
its behaviour, and the solves of ``NewtonBlockSolver`` are checked
against it.

``GeneralQuadBlockSolver`` is the dense-factorization solver that served
quadratic blocks without a scalar-Gram coupling before ``QuadBlockSolver``
took them over.  It forms ``A^T A + p E^T E + s I`` from dense copies of
``A`` and ``E`` and is the exact reference for the certified and closed-form
quadratic solves.

``conjugate_gradients`` is the conjugate-gradient loop of
``CgBlockSolver`` before it skipped the rule above its ``limit``, kept line
for line: ``CgBlockSolver`` must return the same bits.

``ada_step`` (with its ``_block_targets``), ``quad_block_solve`` and
``l1_block_solve`` are the engine's sweep, ``QuadBlockSolver.solve`` and
``L1ProxBlockSolver.solve`` as they were before they updated their arrays in
place and the Woodbury solve carried its loss, kept line for line: with the
loss stripped from the certificates, the two sweeps must agree bit for bit.
The sweep's metrics come from ``step_metrics`` and ``state_g_dist_sq``, the
library's functions as they were before they squared and subtracted in
place, kept line for line too, so that a change to the library's metrics
cannot pass the comparison on both sides at once.

``write_libsvm`` writes a LIBSVM text file for ``bench.load_libsvm`` to
read; only tests write such files.

``trace_to_csv`` is ``Trace.to_csv`` as it was before it formatted whole
rows: a ``csv.writer`` fed one formatted field at a time.

``identity_quad_solver`` builds the ``QuadBlockSolver`` of the shifted
normal system ``(A^T A + sigma I) x = r``.

``quad_solve``, ``l1_prox_block``, ``phi_value``, ``ergodic_average`` and
``project_onto_Wperp`` write formulas of the method out by hand, apart from
the engines' solver objects; no code in the library calls them.
"""

import csv
import math
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from augdecomp.ada import StepMetrics
from augdecomp.block_solvers import (_FLOOR_TRIGGER, _UNIT_ROUNDOFF,
                                     BlockSolveCertificate, BlockSolveError,
                                     QuadBlockSolver, soft_threshold)
from augdecomp.coupling import Coupling
from augdecomp.model import (BlockSpec, FunctionDescriptor, IterateState,
                             Problem, SmoothPart, SolverParams, _stack,
                             objective, vnorm)


class GeneralQuadBlockSolver:
    """Dense-factorization solver for quadratic blocks with arbitrary coupling.

    Factors ``A^T A + p E^T E + s I`` once; used when the coupling Gram
    matrix is not a multiple of the identity.
    """

    exact = True

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float):
        fd = block.objective
        if fd.smooth is None or fd.l1_scale != 0.0:
            raise ValueError("GeneralQuadBlockSolver requires a purely smooth block")
        if fd.smooth.kind != "least_squares":
            raise ValueError("GeneralQuadBlockSolver requires a least-squares loss")
        A = fd.smooth.A
        A = A.toarray() if sp.issparse(A) else A
        E = block.E.toarray()
        self.E = block.E
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        M = A.T @ A + penalty * (E.T @ E) + prox_weight * np.eye(block.n)
        self._chol = scipy.linalg.cho_factor(M, lower=True)
        self.atb = A.T @ fd.smooth.b

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        rhs = self.atb + self.penalty * self.E.apply_T(t)
        if self.prox_weight > 0:
            rhs = rhs + self.prox_weight * z
        x = scipy.linalg.cho_solve(self._chol, rhs)
        return BlockSolveCertificate(x=x, subgrad_bound=0.0)


class _LineSearchStall(RuntimeError):
    """Line search cannot make progress at rounding level; caller stops."""


def _wolfe_line_search(fun_grad, x, f0, g0, direction,
                       c1: float = 1e-4, c2: float = 0.9, max_steps: int = 30):
    """Strong-Wolfe step length by bracketing and bisection-with-interpolation.

    Returns ``(alpha, f_new, g_new, n_evals)``.  When objective differences
    fall below the rounding noise of ``f0``, the exact Armijo test is no
    longer decidable; a point that passes the curvature test with an
    approximate (noise-tolerant) decrease is then accepted, which keeps the
    search progressing on gradient information alone.
    """
    d0 = float(g0 @ direction)
    if d0 >= 0:
        raise _LineSearchStall("non-descent direction at rounding level")
    f_noise = 1e-12 * (abs(f0) + 1.0)

    def phi(alpha):
        f, g = fun_grad(x + alpha * direction)
        return f, g, float(g @ direction)

    alpha_prev, f_prev, d_prev = 0.0, f0, d0
    alpha = 1.0
    lo = hi = None
    f_lo = None
    evals = 0
    best = None         # best Armijo point (exact sufficient decrease)
    best_approx = None  # curvature + noise-tolerant decrease fallback
    for _ in range(max_steps):
        f_a, g_a, d_a = phi(alpha)
        evals += 1
        if f_a <= f0 + c1 * alpha * d0:
            if best is None or f_a < best[1]:
                best = (alpha, f_a, g_a)
            if abs(d_a) <= -c2 * d0:
                return alpha, f_a, g_a, evals
        elif f_a <= f0 + f_noise and abs(d_a) <= -c2 * d0:
            if best_approx is None or f_a < best_approx[1]:
                best_approx = (alpha, f_a, g_a)
        if f_a > f0 + c1 * alpha * d0 or f_a >= f_prev:
            lo, f_lo, hi = alpha_prev, f_prev, alpha
            break
        if d_a >= 0:
            lo, f_lo, hi = alpha, f_a, alpha_prev
            break
        alpha_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= 2.0
    else:
        for cand in (best, best_approx):
            if cand is not None:
                return cand[0], cand[1], cand[2], evals
        raise _LineSearchStall("failed to bracket a Wolfe step")

    # zoom on [lo, hi]
    for _ in range(max_steps):
        alpha = 0.5 * (lo + hi)
        f_a, g_a, d_a = phi(alpha)
        evals += 1
        if f_a <= f0 + f_noise and abs(d_a) <= -c2 * d0:
            if best_approx is None or f_a < best_approx[1]:
                best_approx = (alpha, f_a, g_a)
        if f_a > f0 + c1 * alpha * d0 or f_a >= f_lo:
            hi = alpha
        else:
            if best is None or f_a < best[1]:
                best = (alpha, f_a, g_a)
            if abs(d_a) <= -c2 * d0:
                return alpha, f_a, g_a, evals
            if d_a * (hi - lo) >= 0:
                hi = lo
            lo, f_lo = alpha, f_a
    for cand in (best, best_approx):
        if cand is not None:
            return cand[0], cand[1], cand[2], evals
    raise _LineSearchStall("failed to satisfy the Wolfe conditions")


def lbfgs_minimize(fun_grad, x0: np.ndarray, grad_tol: float,
                   max_inner: int = 500, memory: int = 10, accept=None):
    """Limited-memory BFGS with a strong-Wolfe line search.

    The gradient tested against ``grad_tol`` or ``accept`` is the one
    ``fun_grad`` returned at the current point.

    Parameters
    ----------
    fun_grad : callable
        Returns ``(value, gradient)`` at a point.
    x0 : ndarray
        Starting point.
    grad_tol : float
        Stop once ``||grad||_2 <= grad_tol``; for smooth objectives this norm
        is a valid bound on the subgradient distance.
    max_inner : int, optional
        Iteration budget; on exhaustion the iterate with the smallest
        gradient norm seen so far is returned.
    memory : int, optional
        Number of curvature pairs kept by the two-loop recursion.
    accept : callable, optional
        ``accept(x, grad_norm) -> bool`` overriding the ``grad_tol`` test,
        used to stop as soon as an external inexactness criterion holds.

    Returns
    -------
    x : ndarray
    grad_norm : float
    iters : int
    """
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    gnorm = float(np.linalg.norm(g))
    best_x, best_gnorm = x.copy(), gnorm
    s_hist: list = []
    done = (lambda xx, gn: gn <= grad_tol) if accept is None else accept
    stalled = 0
    used = 0

    for it in range(max_inner):
        if done(x, gnorm):
            return x, gnorm, it
        if stalled > 50:
            break  # gradient norm pinned at its rounding floor
        used = it + 1
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s_i, y_i, rho_i in reversed(s_hist):
            a_i = rho_i * float(s_i @ q)
            alphas.append(a_i)
            q -= a_i * y_i
        if s_hist:
            s_l, y_l, _ = s_hist[-1]
            q *= float(s_l @ y_l) / float(y_l @ y_l)
        for (s_i, y_i, rho_i), a_i in zip(s_hist, reversed(alphas)):
            b_i = rho_i * float(y_i @ q)
            q += (a_i - b_i) * s_i
        direction = -q
        if float(g @ direction) >= 0:
            direction = -g  # safeguard: reset to steepest descent
        try:
            alpha, f_new, g_new, _ = _wolfe_line_search(fun_grad, x, f, g, direction)
        except _LineSearchStall:
            break  # progress limited by rounding; best iterate is the answer
        s_vec = alpha * direction
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-14 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            s_hist.append((s_vec, y_vec, 1.0 / sy))
            if len(s_hist) > memory:
                s_hist.pop(0)
        x = x + s_vec
        f, g = f_new, g_new
        gnorm = float(np.linalg.norm(g))
        if gnorm < best_gnorm * (1.0 - 1e-6):
            stalled = 0
        else:
            stalled += 1
        if gnorm < best_gnorm:
            best_x, best_gnorm = x.copy(), gnorm
    if done(x, gnorm):
        return x, gnorm, used
    return best_x, best_gnorm, used


def conjugate_gradients(self, fun_grad, z, done):
    """Warm-started CG on ``e = x - z``; ``(x, grad_norm, steps)``, with
    ``x = None`` when the solve must fall back to the exact one.

    ``CgBlockSolver._conjugate_gradients`` as it was before it formed
    ``x`` and asked the rule only once ``||r||`` is at most the rule's
    ``limit``; ``self`` is the solver.  The arithmetic is the same, so the
    two must agree bit for bit.
    """
    z = np.asarray(z, dtype=float)
    _, g0 = fun_grad(z)
    gnorm = float(np.linalg.norm(g0))
    if done(z, gnorm):
        return z.copy(), gnorm, 0
    H = self._hess
    # H >= lam_min I; the floor stop needs it positive
    lam_min = self.prox_weight if self._shift is None else self._shift
    floor_armed = lam_min > 0.0
    trigger_sq = (_FLOOR_TRIGGER * lam_min) ** 2
    replaced = False
    e = np.zeros_like(z)
    r = g0.copy()
    d = -r
    rr = float(r @ r)
    for it in range(1, self.cg_budget + 1):
        hd = H @ d
        dhd = float(d @ hd)
        if not dhd > 0.0:  # d vanished or the products are no longer finite
            return None, gnorm, it
        step = rr / dhd
        e += step * d
        r += step * hd
        rr_new = float(r @ r)
        x = z + e
        if floor_armed and rr_new <= trigger_sq * float(e @ e):
            # ||x - x*|| <= ||r|| / lam_min <= 0.1 ||e||: the step is known,
            # so ask once whether the rule accepts the rounding floor
            floor_armed = False
            b_norm = float(np.linalg.norm(H @ z - g0))
            floor = _UNIT_ROUNDOFF * (
                self._hess_norm * float(np.linalg.norm(x)) + b_norm)
            if not done(x, floor):
                return None, gnorm, it
        if done(x, math.sqrt(rr_new)):
            _, g = fun_grad(x)
            gnorm = float(np.linalg.norm(g))
            if done(x, gnorm):
                return x, gnorm, it
            if replaced:
                return None, gnorm, it
            # the recursive residual drifted from the gradient: replace it
            replaced = True
            r = g
            rr_new = float(g @ g)
        d *= rr_new / rr
        d -= r
        rr = rr_new
    return None, gnorm, self.cg_budget


def write_libsvm(path, X, labels):
    """Write ``(X, labels)`` in LIBSVM text format, 17 significant digits."""
    X = sp.csr_matrix(X)
    X.eliminate_zeros()
    with open(path, "w") as fh:
        for i in range(X.shape[0]):
            row = X.getrow(i)
            entries = " ".join(f"{j + 1}:{v:.17g}"
                               for j, v in zip(row.indices, row.data))
            label = f"{labels[i]:.17g}"
            fh.write(f"{label} {entries}\n" if entries else f"{label}\n")


def trace_to_csv(trace, path, include_certs: bool = False):
    """``Trace.to_csv`` by ``csv.writer``; ``trace`` is the trace."""
    fmt = lambda v: f"{v:.17g}"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["iter", "objective", "residual", "delta_g", "x_rel", "feas_rel"]
        if include_certs:
            K = len(trace.metrics[0].per_block_cert) if trace.metrics \
                else trace.initial_state.num_blocks
            header += [f"cert_{k + 1}" for k in range(K)] + ["inner_iters_total"]
        writer.writerow(header)
        for m in trace.metrics:
            row = [m.iter, fmt(m.objective), fmt(m.constraint_residual_norm),
                   fmt(m.delta_g_norm_sq), fmt(m.x_rel_change), fmt(m.feas_rel)]
            if include_certs:
                row += [fmt(cb) for cb in m.per_block_cert] + [m.inner_iters_total]
            writer.writerow(row)


def _block_targets(state: IterateState, problem: Problem, rho: float) -> list:
    """Targets ``t_k = q_k + w_k - (2/rho) y_k`` so each subproblem penalizes
    ``||E_k x_k - t_k||^2``."""
    K = problem.num_blocks
    ts = []
    for k in range(K):
        t = state.w[k] - (2.0 / rho) * state.y[k]
        if k == K - 1:
            t = t + problem.q
        ts.append(t)
    return ts


def step_metrics(nu: int, problem: Problem, x_prev: Sequence, x_new: Sequence,
                 resid: np.ndarray, values=None, **extra) -> StepMetrics:
    """``StepMetrics`` of the step ``x_prev -> x_new``, for every engine.

    ``resid = sum_k E_k x_k - q`` at ``x_new``; ``values`` optionally gives
    ``f_k(x_k)`` where a block solver evaluated it (see ``objective``);
    ``extra`` holds the other fields (``delta_g_norm_sq`` and
    ``per_block_cert`` at least).
    """
    resid_norm = vnorm(resid)
    x_prev_stacked = np.concatenate(x_prev)
    dx = vnorm(np.concatenate(x_new) - x_prev_stacked)
    return StepMetrics(
        iter=nu,
        objective=objective(x_new, problem, values),
        constraint_residual_norm=resid_norm,
        x_rel_change=dx / max(1.0, vnorm(x_prev_stacked)),
        feas_rel=resid_norm / max(1.0, vnorm(problem.q)),
        **extra,
    )


def state_g_dist_sq(a: IterateState, b: IterateState, rho: float, c: float) -> float:
    """Squared G-distance between two states, with ``d = a - b`` partwise:

        rho ||dw||^2 + ||dx||^2 / c + (||deta||^2 + K ||dzeta_bar||^2) / rho

    ``zeta`` holds K copies of ``zeta_bar``, so its part counts K times.
    This is the metric in which the decomposition iteration is a proximal
    step; all monotonicity and rate statements are phrased in it.
    """
    if not (rho > 0 and c > 0):
        raise ValueError("rho and c must be positive")
    K = a.num_blocks
    dw = a.w - b.w
    deta = a.eta - b.eta
    dz = a.zeta_bar - b.zeta_bar
    dxs = [xa - xb for xa, xb in zip(a.x, b.x)]
    dx_sq = sum(float(dx.dot(dx)) for dx in dxs)
    # (M * M).sum() sums pairwise, which dot does not: keep it for the 2-D parts
    return (
        rho * float((dw * dw).sum())
        + dx_sq / c
        + (float((deta * deta).sum()) + K * float(dz.dot(dz))) / rho
    )


def ada_step(state: IterateState, problem: Problem, params: SolverParams,
             solvers: Sequence, accept_rules: Optional[Sequence] = None,
             nu: int = 0):
    """One full sweep; returns ``(new_state, StepMetrics)``.

    ``accept_rules`` optionally supplies a per-block inexactness test
    ``accept(x, bound) -> bool`` forwarded to iterative solvers; with None
    every solver runs in its exact mode.  A solver failure aborts the step
    with the failing block index.
    """
    K, m = problem.num_blocks, problem.m
    rho, c = params.rho, params.c
    targets = _block_targets(state, problem, rho)

    new_x = []
    certs = []
    values = []  # f_k(x_k) where the solver evaluated it, else None
    inner_total = 0
    fallbacks = 0
    factorizations = 0
    for k in range(K):
        accept = accept_rules[k] if accept_rules is not None else None
        try:
            cert = solvers[k].solve(targets[k], state.x[k], accept=accept)
        except BlockSolveError as err:
            raise BlockSolveError(f"block {k}: {err}") from err
        new_x.append(np.asarray(cert.x, dtype=float))
        certs.append(cert.subgrad_bound)
        values.append(cert.value)
        inner_total += cert.inner_iters
        fallbacks += cert.exact_fallback
        factorizations += cert.factorizations

    # E_k x_k once per block: the eta update and the residual both use it
    Ex = [problem.blocks[k].E.apply(new_x[k]) for k in range(K)]
    eta_new = np.empty((K, m))
    for k in range(K):
        r_k = Ex[k] - state.w[k]
        if k == K - 1:
            r_k = r_k - problem.q
        eta_new[k] = state.y[k] + 0.5 * rho * r_k
    zeta_new = eta_new.mean(axis=0)
    w_new = state.w + (eta_new - zeta_new) / rho
    # cancel floating-point drift out of the zero-sum subspace
    drift = w_new.mean(axis=0)
    w_new = w_new - drift
    y_new = 0.5 * (eta_new + zeta_new)

    new_state = IterateState(w=w_new, x=tuple(new_x), eta=eta_new,
                             zeta_bar=zeta_new, y=y_new)

    resid = -problem.q.copy()  # summed in constraint_residual's order
    for ex in Ex:
        resid += ex
    metrics = step_metrics(
        nu, problem, state.x, new_x, resid, values=values,
        delta_g_norm_sq=state_g_dist_sq(state, new_state, rho, c),
        per_block_cert=tuple(certs),
        inner_iters_total=inner_total,
        w_drift=vnorm(drift) * np.sqrt(K),
        fallbacks=fallbacks,
        factorizations=factorizations,
    )
    return new_state, metrics


def quad_block_solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
    """``QuadBlockSolver.solve`` before it assembled the right-hand side in
    place and carried the loss; ``self`` is the solver."""
    rhs = self.atb + self.penalty * self.E.apply_T(t)
    if self.prox_weight > 0:
        rhs = rhs + self.prox_weight * z
    return BlockSolveCertificate(x=self._factored(rhs)[0], subgrad_bound=0.0)


def l1_block_solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
    """``L1ProxBlockSolver.solve`` before it assembled the numerator in
    place; ``self`` is the solver."""
    numer = self.penalty * self.E.apply_T(t)
    if self.prox_weight > 0:
        numer = numer + self.prox_weight * z
    x = soft_threshold(numer / self.denom, self.lam / self.denom)
    return BlockSolveCertificate(x=x, subgrad_bound=0.0)


def identity_quad_solver(A, sigma: float, b=None) -> QuadBlockSolver:
    """``QuadBlockSolver`` whose ``_factored(r)[0]`` is ``(A^T A + sigma I)^{-1} r``:
    the block ``0.5*||A x - b||^2`` (``b = 0`` by default) under the coupling
    ``E = I`` with penalty ``sigma`` and no proximal term."""
    rows, d = A.shape
    b = np.zeros(rows) if b is None else b
    block = BlockSpec(n=d, E=Coupling.identity(d), objective=FunctionDescriptor(
        smooth=SmoothPart("least_squares", A, b)))
    return QuadBlockSolver(block, sigma, 0.0)


def quad_solve(solver: QuadBlockSolver, rhs_state, rho: float, c: float) -> np.ndarray:
    """Exact minimizer of the identity-coupled regularized least-squares block.

    For the subproblem with ``f = 0.5*||A x - b||^2`` and coupling ``E = I``,
    returns ``(A^T A + sigma I)^{-1} (A^T b + (rho/2) w + x_prev/c - y)`` with
    ``sigma = rho/2 + 1/c``; raises if the solver was factored for a
    different ``sigma`` (its penalty plus its proximal weight, as ``E = I``).
    """
    if rho <= 0 or c <= 0:
        raise ValueError("rho and c must be positive")
    sigma = rho / 2.0 + 1.0 / c
    factored = solver.penalty + solver.prox_weight
    if not np.isclose(sigma, factored, rtol=1e-12):
        raise ValueError(f"factored sigma={factored} does not match rho/2 + 1/c = {sigma}")
    w, x_prev, y = (np.asarray(v, dtype=float) for v in rhs_state)
    return solver._factored(solver.atb + 0.5 * rho * w + x_prev / c - y)[0]


def l1_prox_block(state, rho: float, c: float, lambda1: float, sign: int) -> np.ndarray:
    """Closed-form l1 block update for a signed-identity coupling.

    Solves ``min lambda1*||x||_1 + (rho/4)*||sign*x - w + (2/rho) y||^2
    + (1/2c)*||x - x_prev||^2`` by soft thresholding; with ``sign = -1`` this
    is the familiar ``S((y + x_prev/c - rho w/2)/(rho/2 + 1/c), .)`` update.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if rho <= 0 or c <= 0:
        raise ValueError("rho and c must be positive")
    w, x_prev, y = (np.asarray(v, dtype=float) for v in state)
    denom = rho / 2.0 + 1.0 / c
    numer = sign * (0.5 * rho * w - y) + x_prev / c
    return soft_threshold(numer / denom, lambda1 / denom)


def phi_value(k: int, x_k: np.ndarray, state: IterateState,
              problem: Problem, params: SolverParams) -> float:
    """Block subproblem objective at ``x_k`` (0-based block index).

    ``f_k(x_k) + (rho/4)*||E_k x_k - q_k - w_k + (2/rho) y_k||^2
    + (1/2c)*||x_k - x_k_prev||^2``.
    """
    K = problem.num_blocks
    if not 0 <= k < K:
        raise IndexError(f"block index {k} out of range for K={K}")
    blk = problem.blocks[k]
    x_k = np.asarray(x_k, dtype=float)
    qk = problem.q if k == K - 1 else 0.0
    r = blk.E.apply(x_k) - qk - state.w[k] + (2.0 / params.rho) * state.y[k]
    dx = x_k - state.x[k]
    return blk.objective.value(x_k) \
        + 0.25 * params.rho * float(r @ r) \
        + 0.5 / params.c * float(dx @ dx)


def ergodic_average(iterates: Sequence, N: int):
    """Componentwise mean of the first ``N`` primal iterates.

    ``iterates`` is a sequence of per-iteration block tuples, iterate 1
    first; the averaged point carries the O(1/N) duality-gap guarantee.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if N > len(iterates):
        raise ValueError(f"N={N} exceeds trace length {len(iterates)}")
    K = len(iterates[0])
    acc = [np.zeros_like(np.asarray(iterates[0][k], dtype=float)) for k in range(K)]
    for xs in iterates[:N]:
        for k in range(K):
            acc[k] += xs[k]
    return tuple(a / N for a in acc)


def project_onto_Wperp(v) -> np.ndarray:
    """Common value of the projection onto the all-equal subspace.

    Returns the mean ``(1/K) sum_j v_j``; replicating it K times gives the
    actual projection.
    """
    a = _stack(v)
    return a.mean(axis=0)
