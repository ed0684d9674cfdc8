"""Reference implementations that the library no longer carries.

``lbfgs_minimize`` is the limited-memory BFGS method with a strong-Wolfe
line search that solved the logistic blocks before they moved to damped
Newton steps.  It is kept here as an independent oracle: ``TestLbfgs`` pins
its behaviour, and the Newton solves of ``LbfgsBlockSolver`` are checked
against it.

``GeneralQuadBlockSolver`` is the dense-factorization solver that served
quadratic blocks without a scalar-Gram coupling before ``QuadBlockSolver``
took them over.  It forms ``A^T A + p E^T E + s I`` from dense copies of
``A`` and ``E`` and is the exact reference for the certified and closed-form
quadratic solves.

``conjugate_gradients`` is the conjugate-gradient loop of
``LbfgsBlockSolver`` before its lean kernel, kept line for line: the kernel
must return the same bits.

``identity_quad_solver`` builds the ``QuadBlockSolver`` of the shifted
normal system ``(A^T A + sigma I) x = r``.

``quad_solve``, ``l1_prox_block``, ``phi_value``, ``ergodic_average`` and
``project_onto_Wperp`` write formulas of the method out by hand, apart from
the engines' solver objects; no code in the library calls them.
"""

import math
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from augdecomp.block_solvers import (_FLOOR_TRIGGER, _UNIT_ROUNDOFF,
                                     BlockSolveCertificate, QuadBlockSolver,
                                     soft_threshold)
from augdecomp.coupling import Coupling
from augdecomp.model import (BlockSpec, FunctionDescriptor, IterateState,
                             Problem, SmoothPart, SolverParams, _stack)


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

    ``LbfgsBlockSolver._conjugate_gradients`` as it was before its kernel
    kept ``(e, r)`` and ``(d, H d)`` in stacked arrays, reduced by
    ``ndarray.dot`` and skipped the rule above its ``limit``; ``self`` is
    the solver.  The body is unchanged, so the two must agree bit for bit.
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


def identity_quad_solver(A, sigma: float, b=None) -> QuadBlockSolver:
    """``QuadBlockSolver`` whose ``_solve`` is ``r -> (A^T A + sigma I)^{-1} r``:
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
    return solver._solve(solver.atb + 0.5 * rho * w + x_prev / c - y)


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
