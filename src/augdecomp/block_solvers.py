"""Per-block subproblem solvers.

Every decomposition method in this package reduces each outer iteration to K
independent subproblems of the shape

    minimize_x  f_k(x) + (p/2) * ||E_k x - t||^2 + (s/2) * ||x - z||^2

for a penalty ``p``, a target ``t``, and a proximal center ``z`` (``s = 0``
drops the proximal term).  This module provides closed-form solvers for
least-squares and l1 blocks, a certified iterative solver for smooth blocks
(conjugate gradients for quadratic losses, limited-memory BFGS for logistic
ones), and a proximal-gradient solver for smooth-plus-l1 composites.
Iterative solvers report a certified upper bound on ``dist(0, d phi(x))`` at
the returned point, computed from the gradient evaluated at that point;
closed forms certify zero.  When a quadratic block's threshold is at about
what finite precision can certify, the exact factorized solve is returned
instead and the certificate says so (``exact_fallback``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .coupling import e_gram_scale  # noqa: F401 -- part of this module's interface
from .coupling import spectral_norm
from .model import BlockSpec

# Conjugate-gradient floor stop (``LbfgsBlockSolver``): the floor is tested
# once ||r|| <= _FLOOR_TRIGGER * lam_min * ||x - z||, and the attainable
# gradient accuracy is estimated as _UNIT_ROUNDOFF * (||H|| ||x|| + ||b||).
_FLOOR_TRIGGER = 0.1
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class BlockSolveError(RuntimeError):
    """An inner solver could not produce an acceptable block solution."""


class _LineSearchStall(RuntimeError):
    """Line search cannot make progress at rounding level; caller stops."""


@dataclass(frozen=True)
class BlockSolveCertificate:
    """Block solution plus a certified bound on the subgradient distance.

    ``subgrad_bound`` is an upper bound on ``dist(0, d phi(x))`` for the
    subproblem objective phi at ``x``; exact (closed-form) solves report 0.
    ``exact_fallback`` marks an iterative solver that gave up on its
    threshold and returned the exact factorized solve instead.
    """

    x: np.ndarray
    subgrad_bound: float
    inner_iters: int = 0
    exact_fallback: bool = False

    def __post_init__(self):
        if self.subgrad_bound < 0:
            raise ValueError("subgrad_bound must be nonnegative")


def soft_threshold(a, kappa: float):
    """Shrink ``a`` toward zero by ``kappa``, clipping the dead zone to zero.

    Componentwise on arrays; the proximal operator of ``kappa * |.|``.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)


def subgrad_dist_l1(x: np.ndarray, smooth_grad_at_x: np.ndarray, lambda1: float) -> float:
    """Exact ``dist(0, g + lambda1 * d||.||_1(x))`` for ``g = smooth_grad_at_x``.

    Componentwise the nearest subgradient is ``g_i + lambda1*sign(x_i)`` where
    ``x_i != 0`` and the projection of ``-g_i`` onto ``[-lambda1, lambda1]``
    where ``x_i = 0``; returns the Euclidean norm of the residual vector.
    """
    if lambda1 < 0:
        raise ValueError("lambda1 must be nonnegative")
    g = np.asarray(smooth_grad_at_x, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.where(x != 0.0,
                 g + lambda1 * np.sign(x),
                 np.sign(g) * np.maximum(np.abs(g) - lambda1, 0.0))
    return float(np.linalg.norm(r))


class CachedQuadSolver:
    """Factorization cache for ``(A^T A + sigma I) x = r``.

    Factors the d-by-d normal matrix directly when ``d <= p`` (``A`` is
    p-by-d), and the p-by-p dual matrix ``A A^T + sigma I`` otherwise, using
    the Woodbury identity to recover the primal solve.  The factorization is
    computed once and reused for every right-hand side.
    """

    def __init__(self, A, b, sigma: float, mode: str | None = None):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        A = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=float)
        self.A = A
        self.b = np.asarray(b, dtype=float) if b is not None else np.zeros(A.shape[0])
        self.sigma = float(sigma)
        p, d = A.shape
        if mode is None:
            mode = "woodbury" if d > p else "primal"
        if mode not in ("primal", "woodbury"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        if mode == "primal":
            M = A.T @ A + sigma * np.eye(d)
        else:
            M = A @ A.T + sigma * np.eye(p)
        self._chol = scipy.linalg.cho_factor(M, lower=True)
        self.atb = A.T @ self.b

    def solve_shifted(self, r: np.ndarray) -> np.ndarray:
        """Solve ``(A^T A + sigma I) x = r``."""
        if self.mode == "primal":
            return scipy.linalg.cho_solve(self._chol, r)
        inner = scipy.linalg.cho_solve(self._chol, self.A @ r)
        return (r - self.A.T @ inner) / self.sigma


def quad_solve(solver: CachedQuadSolver, rhs_state, rho: float, c: float) -> np.ndarray:
    """Exact minimizer of the identity-coupled regularized least-squares block.

    For the subproblem with ``f = 0.5*||A x - b||^2`` and coupling ``E = I``,
    returns ``(A^T A + sigma I)^{-1} (A^T b + (rho/2) w + x_prev/c - y)`` with
    ``sigma = rho/2 + 1/c``; raises if the cached factorization was built for
    different coefficients.
    """
    if rho <= 0 or c <= 0:
        raise ValueError("rho and c must be positive")
    sigma = rho / 2.0 + 1.0 / c
    if not np.isclose(sigma, solver.sigma, rtol=1e-12):
        raise ValueError(f"cached sigma={solver.sigma} does not match rho/2 + 1/c = {sigma}")
    w, x_prev, y = (np.asarray(v, dtype=float) for v in rhs_state)
    return solver.solve_shifted(solver.atb + 0.5 * rho * w + x_prev / c - y)


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


# ---------------------------------------------------------------------------
# L-BFGS


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

    Serves the smooth blocks that are not quadratic (the logistic loss);
    quadratic blocks are solved by conjugate gradients in
    ``LbfgsBlockSolver``.  The gradient tested against ``grad_tol`` or
    ``accept`` is the one ``fun_grad`` returned at the current point.

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


# ---------------------------------------------------------------------------
# Block solver objects


class QuadBlockSolver:
    """Closed-form solver for smooth quadratic blocks with scalar-Gram coupling.

    Handles ``f(x) = 0.5*||A x - b||^2`` (or ``0.5*||A x||^2``) coupled by any
    ``E`` with ``E^T E = alpha I``; the shifted normal matrix is factored once
    at construction.
    """

    exact = True

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float, mode=None):
        fd = block.objective
        if fd.smooth is None or fd.l1_scale != 0.0:
            raise ValueError("QuadBlockSolver requires a purely smooth block")
        if fd.smooth.kind not in ("least_squares", "quadratic"):
            raise ValueError("QuadBlockSolver requires a quadratic loss")
        alpha = block.E.gram_scale
        if alpha is None:
            raise ValueError("coupling matrix must satisfy E^T E = alpha I")
        self.E = block.E
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        sigma = penalty * alpha + prox_weight
        self._quad = CachedQuadSolver(fd.smooth.A, fd.smooth.b, sigma, mode=mode)

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        rhs = self._quad.atb + self.penalty * self.E.apply_T(t)
        if self.prox_weight > 0:
            rhs = rhs + self.prox_weight * z
        return BlockSolveCertificate(x=self._quad.solve_shifted(rhs), subgrad_bound=0.0)


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
        if fd.smooth.kind not in ("least_squares", "quadratic"):
            raise ValueError("GeneralQuadBlockSolver requires a quadratic loss")
        A = fd.smooth.A
        A = A.toarray() if sp.issparse(A) else A
        E = block.E.toarray()
        self.E = block.E
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        M = A.T @ A + penalty * (E.T @ E) + prox_weight * np.eye(block.n)
        self._chol = scipy.linalg.cho_factor(M, lower=True)
        b = fd.smooth.b if fd.smooth.b is not None else np.zeros(A.shape[0])
        self.atb = A.T @ b

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        rhs = self.atb + self.penalty * self.E.apply_T(t)
        if self.prox_weight > 0:
            rhs = rhs + self.prox_weight * z
        x = scipy.linalg.cho_solve(self._chol, rhs)
        return BlockSolveCertificate(x=x, subgrad_bound=0.0)


class L1ProxBlockSolver:
    """Closed-form soft-threshold solver for pure l1 blocks.

    Requires ``E^T E = alpha I``; covers signed identities as well as the
    stacked-copy coupling of the consensus formulation.
    """

    exact = True

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float):
        fd = block.objective
        if fd.smooth is not None or fd.l1_scale <= 0.0:
            raise ValueError("L1ProxBlockSolver requires a pure l1 block")
        alpha = block.E.gram_scale
        if alpha is None:
            raise ValueError("coupling matrix must satisfy E^T E = alpha I")
        self.E = block.E
        self.lam = fd.l1_scale
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.denom = penalty * alpha + prox_weight

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        numer = self.penalty * self.E.apply_T(t)
        if self.prox_weight > 0:
            numer = numer + self.prox_weight * z
        x = soft_threshold(numer / self.denom, self.lam / self.denom)
        return BlockSolveCertificate(x=x, subgrad_bound=0.0)


class LbfgsBlockSolver:
    """Certified iterative solver for smooth blocks.

    Minimizes ``f(x) + (p/2)*||E x - t||^2 + (s/2)*||x - z||^2`` from the
    warm start ``z``: by conjugate gradients when ``f`` is a least-squares or
    quadratic loss, by L-BFGS (``lbfgs_minimize``) when it is logistic.  The
    certificate is the norm of the gradient evaluated at the returned point,
    which equals the subgradient distance for smooth objectives.  The solve
    stops on the caller's ``accept(x, bound)`` rule or, without one, once the
    gradient norm is at most ``exact_tol``.

    Conjugate gradients iterate on the correction ``e = x - z`` and track the
    gradient by a recursive residual.  When that residual passes, the
    gradient is recomputed at the point and its norm must pass too; the
    first time it does not, the residual is replaced by it and the iteration
    continues.  Each step multiplies by the Hessian ``H``, formed once on the
    first solve.  Three events return the exact factorized minimizer with
    certificate 0 and ``exact_fallback=True``:

    * the floor stop: once the residual is small enough to fix ``||e||`` to
      within 10% (``||r|| <= 0.1 lam_min ||e||``), the rule is asked once
      whether it would accept the estimated rounding floor of the gradient,
      ``u (||H|| ||x|| + ||b||)`` with the unit roundoff ``u`` for the
      system ``H x = b``, and it refuses;
    * a second refusal of the recomputed gradient;
    * ``min(max_inner, 300)`` steps without a pass.

    The floor is Greenbaum's estimate of the attainable accuracy, not a
    proof: a refused floor means the threshold is at or below what the
    recomputed gradient can be expected to show, and the exact solve is
    cheaper than finding out.

    A logistic block that misses a caller's rule within ``max_inner`` steps
    raises ``BlockSolveError``; without a rule the iterate with the smallest
    gradient norm is returned, since the proximal term keeps it well inside
    the basin.
    """

    exact = False
    cg_budget = 300  # conjugate-gradient steps before the exact fallback

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float,
                 exact_tol: float = 1e-12, max_inner: int = 500, memory: int = 10):
        fd = block.objective
        if fd.smooth is None or fd.l1_scale != 0.0:
            raise ValueError("LbfgsBlockSolver requires a purely smooth block")
        self.block = block
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.exact_tol = float(exact_tol)
        self.max_inner = int(max_inner)
        self.memory = int(memory)
        self._fallback = None
        if fd.smooth.kind in ("least_squares", "quadratic"):
            alpha = block.E.gram_scale
            if alpha is not None:
                self._fallback = QuadBlockSolver(block, penalty, prox_weight)
                self._shift = self.penalty * alpha + self.prox_weight
            else:
                self._fallback = GeneralQuadBlockSolver(block, penalty, prox_weight)
                self._shift = None

    def _fun_grad(self, t, z):
        fd = self.block.objective
        E = self.block.E
        p, s = self.penalty, self.prox_weight

        def fun_grad(x):
            r = E.apply(x) - t
            val, grad = fd.smooth.value_and_gradient(x)
            val += 0.5 * p * float(r @ r)
            grad = grad + p * E.apply_T(r)
            if s > 0:
                dz = x - z
                val += 0.5 * s * float(dz @ dz)
                grad = grad + s * dz
            return val, grad

        return fun_grad

    @cached_property
    def _hess(self) -> np.ndarray:
        """``H = A^T A + p E^T E + s I`` of a quadratic block, dense; formed on
        the first conjugate-gradient solve, not at construction."""
        A = self.block.objective.smooth.A
        A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        H = A.T @ A
        if self._shift is not None:
            H[np.diag_indices_from(H)] += self._shift
        else:
            E = self.block.E.toarray()
            H += self.penalty * (E.T @ E)
            H[np.diag_indices_from(H)] += self.prox_weight
        return H

    @cached_property
    def _hess_norm(self) -> float:
        """``||H||_2``.  The floor needs it to a few percent only; power
        iteration to 1e-4 gives that in about a millisecond, where a dense
        SVD grows the resident set by about 1 MB."""
        return spectral_norm(self._hess, rel_tol=1e-4)

    def _conjugate_gradients(self, fun_grad, z, done):
        """Warm-started CG on ``e = x - z``; ``(x, grad_norm, steps)``, with
        ``x = None`` when the solve must fall back to the exact one."""
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
        steps = min(self.max_inner, self.cg_budget)
        for it in range(1, steps + 1):
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
        return None, gnorm, steps

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        fun_grad = self._fun_grad(t, z)
        if self._fallback is not None:
            done = (lambda xx, gn: gn <= self.exact_tol) if accept is None else accept
            x, gnorm, iters = self._conjugate_gradients(fun_grad, z, done)
            if x is None:
                cert = self._fallback.solve(t, z)
                return BlockSolveCertificate(x=cert.x, subgrad_bound=0.0,
                                             inner_iters=iters, exact_fallback=True)
            return BlockSolveCertificate(x=x, subgrad_bound=gnorm, inner_iters=iters)
        x, gnorm, iters = lbfgs_minimize(
            fun_grad, z, grad_tol=self.exact_tol, max_inner=self.max_inner,
            memory=self.memory, accept=accept)
        if accept is not None and not accept(x, gnorm):
            raise BlockSolveError(
                f"inner solver exhausted {self.max_inner} iterations at "
                f"gradient norm {gnorm:.3e} without meeting its threshold")
        return BlockSolveCertificate(x=x, subgrad_bound=gnorm, inner_iters=iters)


class CompositeBlockSolver:
    """Proximal-gradient solver for smooth-plus-l1 blocks.

    The certificate is the exact minimal-norm subgradient at the returned
    point, evaluated from the smooth gradient by ``subgrad_dist_l1``.
    """

    exact = False

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float,
                 exact_tol: float = 1e-10, max_inner: int = 5000):
        fd = block.objective
        if fd.smooth is None or fd.l1_scale <= 0.0:
            raise ValueError("CompositeBlockSolver requires smooth and l1 parts")
        A = fd.smooth.A
        A = A.toarray() if sp.issparse(A) else A
        lip_g = 0.25 if fd.smooth.kind == "logistic" else 1.0
        self.lipschitz = lip_g * float(np.linalg.norm(A, 2)) ** 2 \
            + penalty * block.E.norm ** 2 + prox_weight
        self.block = block
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.exact_tol = float(exact_tol)
        self.max_inner = int(max_inner)

    def _smooth_grad(self, x, t, z):
        fd = self.block.objective
        E = self.block.E
        g = fd.smooth.gradient(x) + self.penalty * E.apply_T(E.apply(x) - t)
        if self.prox_weight > 0:
            g = g + self.prox_weight * (x - z)
        return g

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        lam = self.block.objective.l1_scale
        step = 1.0 / self.lipschitz
        x = np.asarray(z, dtype=float).copy()
        done = (lambda xx, bound: bound <= self.exact_tol) if accept is None else accept
        for it in range(self.max_inner):
            g = self._smooth_grad(x, t, z)
            bound = subgrad_dist_l1(x, g, lam)
            if done(x, bound):
                return BlockSolveCertificate(x=x, subgrad_bound=bound, inner_iters=it)
            x = soft_threshold(x - step * g, step * lam)
        g = self._smooth_grad(x, t, z)
        bound = subgrad_dist_l1(x, g, lam)
        if done(x, bound):
            return BlockSolveCertificate(x=x, subgrad_bound=bound, inner_iters=self.max_inner)
        if accept is not None:
            raise BlockSolveError(
                f"proximal gradient exhausted {self.max_inner} iterations at "
                f"bound {bound:.3e} without meeting its threshold")
        return BlockSolveCertificate(x=x, subgrad_bound=bound, inner_iters=self.max_inner)


def build_penalized_solvers(problem, penalty: float, prox_weights,
                            iterative_smooth: bool = False,
                            exact_tol: float = 1e-12, max_inner: int = 500):
    """Construct one solver per block for a given penalty/proximal pairing.

    ``prox_weights`` is a scalar or one weight per block.  With
    ``iterative_smooth`` the quadratic blocks also go through the iterative
    ``LbfgsBlockSolver`` (conjugate gradients) so that their solves carry
    nontrivial certificates; logistic blocks always do (L-BFGS).
    """
    K = problem.num_blocks
    weights = np.broadcast_to(np.asarray(prox_weights, dtype=float), (K,))
    solvers = []
    for blk, s in zip(problem.blocks, weights):
        if not blk.is_free:
            raise NotImplementedError("bundled block solvers handle free blocks only")
        fd = blk.objective
        if fd.smooth is not None and fd.l1_scale > 0.0:
            solvers.append(CompositeBlockSolver(blk, penalty, s))
        elif fd.smooth is None:
            solvers.append(L1ProxBlockSolver(blk, penalty, s))
        elif fd.smooth.kind == "logistic" or iterative_smooth:
            solvers.append(LbfgsBlockSolver(blk, penalty, s,
                                            exact_tol=exact_tol, max_inner=max_inner))
        elif blk.E.gram_scale is not None:
            solvers.append(QuadBlockSolver(blk, penalty, s))
        else:
            solvers.append(GeneralQuadBlockSolver(blk, penalty, s))
    return solvers


def build_block_solvers(problem, params, schedule=None):
    """Solvers for the decomposition engines: penalty ``rho/2``, prox ``1/c``.

    Under an inexact schedule the smooth blocks are solved iteratively so the
    acceptance criteria are genuinely exercised: quadratic blocks by
    warm-started conjugate gradients with an exact factorized fallback,
    logistic blocks by L-BFGS (up to 2000 steps).  With no schedule (or an
    exact one) every block that admits a closed form uses it.
    """
    inexact = schedule is not None and getattr(schedule, "kind", "exact") != "exact"
    return build_penalized_solvers(
        problem, penalty=params.rho / 2.0, prox_weights=1.0 / params.c,
        iterative_smooth=inexact, max_inner=2000 if inexact else 500)
