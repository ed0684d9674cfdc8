"""Per-block subproblem solvers.

Every decomposition method in this package reduces each outer iteration to K
independent subproblems of the shape

    minimize_x  f_k(x) + (p/2) * ||E_k x - t||^2 + (s/2) * ||x - z||^2

for a penalty ``p``, a target ``t``, and a proximal center ``z`` (``s = 0``
drops the proximal term).  This module provides closed-form solvers for
least-squares and l1 blocks, a certified iterative solver for smooth blocks
(conjugate gradients for quadratic losses, damped Newton steps for logistic
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
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

from .coupling import spectral_norm
from .model import BlockSpec, vnorm

# Conjugate-gradient floor stop (``LbfgsBlockSolver``): the floor is tested
# once ||r|| <= _FLOOR_TRIGGER * lam_min * ||x - z||, and the attainable
# gradient accuracy is estimated as _UNIT_ROUNDOFF * (||H|| ||x|| + ||b||).
_FLOOR_TRIGGER = 0.1
_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# Damped Newton (``LbfgsBlockSolver``, logistic blocks): step budget, Armijo
# constant, step halvings before the line search gives up, and the relative
# rounding level of f below which a step that lowers the gradient norm is taken.
_NEWTON_STEPS = 500
_ARMIJO = 1e-4
_BACKTRACKS = 30
_F_NOISE = 1e-12
# Newton steps in a row that neither lower f beyond its rounding level nor
# set a new smallest gradient norm before the solve counts as stalled
_STALL_STEPS = 10
# Proximal-gradient steps of ``CompositeBlockSolver`` per solve
_PROX_GRAD_STEPS = 5000


class BlockSolveError(RuntimeError):
    """An inner solver could not produce an acceptable block solution."""


@dataclass(frozen=True)
class BlockSolveCertificate:
    """Block solution plus a certified bound on the subgradient distance.

    ``subgrad_bound`` is an upper bound on ``dist(0, d phi(x))`` for the
    subproblem objective phi at ``x``; exact (closed-form) solves report 0.
    ``exact_fallback`` marks an iterative solver that gave up on its
    threshold and returned the exact factorized solve instead.  ``value`` is
    the block objective ``f_k(x)`` when the solver evaluated it at ``x`` (the
    engine then sums it into the trace's objective), otherwise None.
    """

    x: np.ndarray
    subgrad_bound: float
    inner_iters: int = 0
    exact_fallback: bool = False
    value: float | None = None

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
    return vnorm(r)


def _cholesky_solver(M: np.ndarray):
    """Factor the symmetric positive definite ``M`` once; returns
    ``solve(r) = M^{-1} r``.

    The factor is one call of LAPACK ``potrf`` and each solve one of
    ``potrs``: the numbers of ``scipy.linalg.cho_factor`` and ``cho_solve``,
    without their wrappers and finiteness scans.  A non-finite ``r`` gives a
    non-finite solution, which ends an engine run as ``"non_finite"``.
    Raises ``np.linalg.LinAlgError`` when the factorization fails.
    """
    factor, info = dpotrf(M, lower=True, clean=False)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (potrf info {info})")
    return lambda r: dpotrs(factor, r, lower=True)[0]


# ---------------------------------------------------------------------------
# Block solver objects


def _coupling_hessian(E, penalty: float, prox_weight: float):
    """``C = p E^T E + s I``: the float ``p alpha + s`` for a coupling with
    ``E^T E = alpha I``, otherwise a dense n-by-n array."""
    alpha = E.gram_scale
    if alpha is not None:
        return float(penalty * alpha + prox_weight)
    M = E.toarray()
    C = penalty * (M.T @ M)
    C.flat[::C.shape[0] + 1] += prox_weight
    return C


def _row_scaled(A, h):
    """``diag(sqrt h) A`` (``A`` itself without ``h``); a sparse ``A`` stays
    sparse."""
    if h is None:
        return A
    root = np.sqrt(h)
    return sp.diags(root) @ A if sp.issparse(A) else A * root[:, None]


def _dense(M) -> np.ndarray:
    return M.toarray() if sp.issparse(M) else M


def _formed_hessian(A, C, h=None) -> np.ndarray:
    """``A^T diag(h) A + C`` (``A^T A + C`` without ``h``) as a new dense
    array; a sparse ``A`` is never densified."""
    B = _row_scaled(A, h)
    H = _dense(B.T @ B)
    if isinstance(C, float):
        H.flat[::H.shape[0] + 1] += C
    else:
        H += C
    return H


def _hessian_solver(A, C, h=None):
    """``solve(r) = (A^T diag(h) A + C)^{-1} r`` from one factorization
    (``h = None`` means all ones).

    When ``C`` is a positive scalar ``sigma`` and ``A`` has more columns than
    rows, the smaller ``sigma I + B B^T`` with ``B = diag(sqrt h) A`` is
    factored and the Woodbury identity gives ``(r - B^T inner(B r)) / sigma``;
    scaling by ``sqrt h`` needs no ``diag(h)^{-1}``, so curvature that
    underflows to 0 is harmless.  Otherwise ``A^T diag(h) A + C`` is formed
    and factored.  A sparse ``A`` stays sparse; only the factored matrix is
    dense.  Raises ``np.linalg.LinAlgError`` when that matrix is not
    positive definite.
    """
    rows, cols = A.shape
    if not (isinstance(C, float) and C > 0 and cols > rows):
        return _cholesky_solver(_formed_hessian(A, C, h))
    B = _row_scaled(A, h)
    G = _dense(B @ B.T)
    G.flat[::rows + 1] += C
    inner = _cholesky_solver(G)
    return lambda r: (r - B.T @ inner(B @ r)) / C


class QuadBlockSolver:
    """Closed-form solver for least-squares blocks, under any coupling.

    Solves ``(A^T A + C) x = A^T b + p E^T t + s z`` with ``C = p E^T E + s I``,
    factored once, at construction, by ``_hessian_solver``: when ``C`` is a
    scalar ``sigma`` and ``A`` has more columns than rows, the smaller
    ``A A^T + sigma I`` is factored and the Woodbury identity recovers the
    solve; otherwise ``A^T A + C`` is.
    """

    exact = True

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float):
        fd = block.objective
        if fd.smooth is None or fd.l1_scale != 0.0:
            raise ValueError("QuadBlockSolver requires a purely smooth block")
        if fd.smooth.kind != "least_squares":
            raise ValueError("QuadBlockSolver requires a least-squares loss")
        A = fd.smooth.A
        self.E = block.E
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.atb = A.T @ fd.smooth.b
        C = _coupling_hessian(block.E, penalty, prox_weight)
        if isinstance(C, float) and not C > 0:
            raise ValueError("p E^T E + s I must be positive definite")
        # the factorization does not scan its input: check the data once here
        if not (np.isfinite(self.atb).all() and np.isfinite(C).all()):
            raise ValueError("least-squares data and p E^T E + s I must be finite")
        self._solve = _hessian_solver(A, C)

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        rhs = self.atb + self.penalty * self.E.apply_T(t)
        if self.prox_weight > 0:
            rhs = rhs + self.prox_weight * z
        return BlockSolveCertificate(x=self._solve(rhs), subgrad_bound=0.0)


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
    warm start ``z``: by conjugate gradients when ``f`` is a least-squares
    loss, by damped Newton steps when it is logistic.  (The name
    is historical: both paths replaced an L-BFGS method.)  The certificate
    is the norm of the gradient evaluated at the returned point, which
    equals the subgradient distance for smooth objectives.  The solve stops
    on the caller's ``accept(x, bound)`` rule or, without one, once the
    gradient norm is at most ``exact_tol``.

    Both paths use the Hessian ``H = A^T diag(h) A + C`` with the loss
    curvature ``h`` (all ones for a quadratic loss) and the coupling and
    proximal part ``C = p E^T E + s I``, which is ``(p alpha + s) I`` for a
    coupling with ``E^T E = alpha I`` and otherwise formed once per solver.

    Conjugate gradients iterate on the correction ``e = x - z`` and track the
    gradient by a recursive residual.  When that residual passes, the
    gradient is recomputed at the point and its norm must pass too; the
    first time it does not, the residual is replaced by it and the iteration
    continues.  Each step multiplies by ``H``, formed once on the first
    solve, into a preallocated vector; ``(e, r)`` and ``(d, H d)`` are the
    rows of two arrays, so one update moves both, and every reduction is an
    ``ndarray.dot``: about eight calls into numpy per step, of which the
    product with ``H`` is the only one that grows with the block.  The
    point ``x = z + e`` is formed, and the rule asked, only once ``||r||``
    is at most the rule's ``limit`` (see ``solve``).  Three events return
    the exact factorized minimizer with certificate 0 and
    ``exact_fallback=True``:

    * the floor stop: once the residual is small enough to fix ``||e||`` to
      within 10% (``||r|| <= 0.1 lam_min ||e||``), the rule is asked once
      whether it would accept the estimated rounding floor of the gradient,
      ``u (||H|| ||x|| + ||b||)`` with the unit roundoff ``u`` for the
      system ``H x = b``, and it refuses;
    * a second refusal of the recomputed gradient;
    * ``cg_budget`` (300) steps without a pass.

    The floor is Greenbaum's estimate of the attainable accuracy, not a
    proof: a refused floor means the threshold is at or below what the
    recomputed gradient can be expected to show, and the exact solve is
    cheaper than finding out.

    A Newton step costs one loss evaluation, one factorization and one
    solve.  ``_hessian_solver`` factors ``H`` at the current point (``8 d^2``
    bytes) on a block with at least as many rows as columns, and the
    rows-by-rows Woodbury matrix ``sigma I + B B^T``, ``B = diag(sqrt h) A``,
    on a wider one with ``C = sigma I``; a sparse ``A`` is multiplied sparse
    and only the factored matrix is dense.  The loss's value, gradient and
    curvature at the last point evaluated are kept, so a solve that starts
    where the previous one stopped does not evaluate the loss there again;
    the coupling and proximal terms are recomputed for the new ``t`` and
    ``z``.  (Conjugate gradients keep the loss's value and gradient the same
    way, and a certificate carries the loss when the returned point is the
    last one evaluated.)  The step
    length is found by Armijo backtracking from 1; once objective
    differences are at the rounding level of ``f``, a step that lowers the
    gradient norm is accepted too, so the iteration keeps progressing on
    gradient information alone.  The subproblem is strongly convex, so this
    converges from any warm start.  A logistic block that misses a caller's
    rule within 500 steps, or stalls at rounding level (10 steps
    that neither lower ``f`` beyond rounding nor set a new smallest gradient
    norm), raises ``BlockSolveError``; without a rule the iterate with the
    smallest gradient norm is returned.
    """

    exact = False
    cg_budget = 300  # conjugate-gradient steps before the exact fallback

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float,
                 exact_tol: float = 1e-12):
        fd = block.objective
        if fd.smooth is None or fd.l1_scale != 0.0:
            raise ValueError("LbfgsBlockSolver requires a purely smooth block")
        self.block = block
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.exact_tol = float(exact_tol)
        self._coupling = _coupling_hessian(block.E, self.penalty, self.prox_weight)
        self._fallback = None
        # ((curvature, bytes of x), loss's (value, gradient[, curvature]) at x)
        self._memo = None
        if fd.smooth.kind == "least_squares":
            self._fallback = QuadBlockSolver(block, penalty, prox_weight)

    @property
    def _shift(self) -> float | None:
        """``c`` when ``C = c I`` (a coupling with a scalar Gram), else None."""
        return self._coupling if isinstance(self._coupling, float) else None

    def _fun_grad(self, t, z, curvature=False):
        """``x -> (phi(x), grad phi(x))``; with ``curvature`` the loss
        curvature ``h`` at ``x`` comes third."""
        E = self.block.E
        p, s = self.penalty, self.prox_weight

        def fun_grad(x):
            r = E.apply(x) - t
            val, grad, *h = self._smooth(x, curvature)
            val += 0.5 * p * float(r.dot(r))
            grad = grad + p * E.apply_T(r)
            if s > 0:
                dz = x - z
                val += 0.5 * s * float(dz.dot(dz))
                grad = grad + s * dz
            return (val, grad, *h)

        return fun_grad

    def _smooth(self, x, curvature=False):
        """The loss's ``(value, gradient)`` at ``x``, with ``h`` third under
        ``curvature``.  The last evaluation is kept: a solve starts at the
        point the previous one returned, where the loss has just been
        evaluated.  The memo serves a point with the same bytes only."""
        key = (curvature, x.tobytes())
        if self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        out = self.block.objective.smooth.value_and_gradient(x, curvature=curvature)
        self._memo = (key, out)
        return out

    def _loss_at(self, x) -> float | None:
        """The loss's value at ``x`` when ``x`` is the last point evaluated."""
        key, out = self._memo
        return out[0] if key[1] == x.tobytes() else None

    def _hessian(self, h=None) -> np.ndarray:
        """``A^T diag(h) A + C`` (``A^T A + C`` without ``h``), new and dense."""
        return _formed_hessian(self.block.objective.smooth.A, self._coupling, h)

    @cached_property
    def _hess(self) -> np.ndarray:
        """``H`` of a quadratic block; formed on the first conjugate-gradient
        solve, not at construction."""
        return self._hessian()

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
        gnorm = vnorm(g0)
        if done(z, gnorm):
            return z.copy(), gnorm, 0
        H = self._hess
        # H >= lam_min I; the floor stop needs it positive
        lam_min = self.prox_weight if self._shift is None else self._shift
        floor_armed = lam_min > 0.0
        trigger_sq = (_FLOOR_TRIGGER * lam_min) ** 2
        # no bound above the limit passes, so the rule need not see it
        limit = getattr(done, "limit", math.inf)
        replaced = False
        er = np.zeros((2, z.size))  # rows e = x - z and the residual r
        e, r = er
        r[:] = g0
        dh = np.empty((2, z.size))  # rows d and H d
        d, hd = dh
        np.negative(r, out=d)
        rr = float(r.dot(r))
        for it in range(1, self.cg_budget + 1):
            np.matmul(H, d, out=hd)
            dhd = float(d.dot(hd))
            if not dhd > 0.0:  # d vanished or the products are no longer finite
                return None, gnorm, it
            step = rr / dhd
            er += step * dh
            rr_new = float(r.dot(r))
            if floor_armed and rr_new <= trigger_sq * float(e.dot(e)):
                # ||x - x*|| <= ||r|| / lam_min <= 0.1 ||e||: the step is known,
                # so ask once whether the rule accepts the rounding floor
                floor_armed = False
                x = z + e
                floor = _UNIT_ROUNDOFF * (
                    self._hess_norm * vnorm(x) + vnorm(H @ z - g0))
                if not done(x, floor):
                    return None, gnorm, it
            r_norm = math.sqrt(rr_new)
            if r_norm <= limit:
                x = z + e
                if done(x, r_norm):
                    _, g = fun_grad(x)
                    gnorm = vnorm(g)
                    if done(x, gnorm):
                        return x, gnorm, it
                    if replaced:
                        return None, gnorm, it
                    # the recursive residual drifted from the gradient: replace it
                    replaced = True
                    r[:] = g
                    rr_new = float(g.dot(g))
            d *= rr_new / rr
            d -= r
            rr = rr_new
        return None, gnorm, self.cg_budget

    def _newton(self, fun_grad, z, done):
        """Damped Newton from ``z``; ``(x, grad_norm, steps)`` of the first
        point that passes ``done``, else of the smallest gradient seen."""
        x = np.array(z, dtype=float)
        f, g, h = fun_grad(x)
        gnorm = vnorm(g)
        best = (x, gnorm)
        steps = stalled = 0
        while not done(x, gnorm):
            if steps == _NEWTON_STEPS or stalled == _STALL_STEPS:
                return best + (steps,)
            try:
                solve = _hessian_solver(self.block.objective.smooth.A,
                                        self._coupling, h)
            except np.linalg.LinAlgError:
                return best + (steps,)
            direction = -solve(g)
            slope = float(g.dot(direction))
            f_noise = _F_NOISE * (abs(f) + 1.0)
            step = 1.0
            for _ in range(_BACKTRACKS):
                x_new = x + step * direction
                f_new, g_new, h_new = fun_grad(x_new)
                gnorm_new = vnorm(g_new)
                if f_new <= f + _ARMIJO * step * slope \
                        or (f_new <= f + f_noise and gnorm_new < gnorm):
                    break
                step *= 0.5
            else:  # not even a rounding-level step lowers f or ||g||
                return best + (steps,)
            steps += 1
            # at the rounding floor full steps keep passing Armijo with f
            # unchanged while ||g|| wanders; count those steps
            stalled = 0 if gnorm_new < best[1] or f_new < f - f_noise else stalled + 1
            x, f, g, h, gnorm = x_new, f_new, g_new, h_new, gnorm_new
            if gnorm < best[1]:
                best = (x, gnorm)
        return x, gnorm, steps

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        """Solve from the warm start ``z`` until ``accept(x, bound)`` holds.

        ``accept`` may carry a float attribute ``limit``, a promise that it
        refuses every ``bound > limit`` whatever ``x`` is; conjugate
        gradients then form ``x`` and call ``accept`` only once the residual
        norm is at most ``limit``.  ``InexactSchedule.accept_rules`` sets it
        to the criterion-A threshold.  A rule without ``limit`` is asked at
        every step.  Without ``accept`` the solve runs to ``exact_tol``.
        """
        done = (lambda xx, gn: gn <= self.exact_tol) if accept is None else accept
        if self._fallback is not None:
            x, gnorm, iters = self._conjugate_gradients(self._fun_grad(t, z), z, done)
            if x is None:
                cert = self._fallback.solve(t, z)
                return BlockSolveCertificate(x=cert.x, subgrad_bound=0.0,
                                             inner_iters=iters, exact_fallback=True)
        else:
            x, gnorm, iters = self._newton(self._fun_grad(t, z, curvature=True), z, done)
            if accept is not None and not accept(x, gnorm):
                raise BlockSolveError(
                    f"Newton solve stopped after {iters} of {_NEWTON_STEPS} steps at "
                    f"gradient norm {gnorm:.3e} without meeting its threshold")
        return BlockSolveCertificate(x=x, subgrad_bound=gnorm, inner_iters=iters,
                                     value=self._loss_at(x))


class CompositeBlockSolver:
    """Proximal-gradient solver for smooth-plus-l1 blocks.

    The certificate is the exact minimal-norm subgradient at the returned
    point, evaluated from the smooth gradient by ``subgrad_dist_l1``.
    """

    exact = False

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float,
                 exact_tol: float = 1e-10):
        fd = block.objective
        if fd.smooth is None or fd.l1_scale <= 0.0:
            raise ValueError("CompositeBlockSolver requires smooth and l1 parts")
        lip_g = 0.25 if fd.smooth.kind == "logistic" else 1.0
        self.lipschitz = lip_g * spectral_norm(fd.smooth.A) ** 2 \
            + penalty * block.E.norm ** 2 + prox_weight
        self.block = block
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.exact_tol = float(exact_tol)

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
        for it in range(_PROX_GRAD_STEPS):
            g = self._smooth_grad(x, t, z)
            bound = subgrad_dist_l1(x, g, lam)
            if done(x, bound):
                return BlockSolveCertificate(x=x, subgrad_bound=bound, inner_iters=it)
            x = soft_threshold(x - step * g, step * lam)
        g = self._smooth_grad(x, t, z)
        bound = subgrad_dist_l1(x, g, lam)
        if done(x, bound):
            return BlockSolveCertificate(x=x, subgrad_bound=bound, inner_iters=_PROX_GRAD_STEPS)
        if accept is not None:
            raise BlockSolveError(
                f"proximal gradient exhausted {_PROX_GRAD_STEPS} iterations at "
                f"bound {bound:.3e} without meeting its threshold")
        return BlockSolveCertificate(x=x, subgrad_bound=bound, inner_iters=_PROX_GRAD_STEPS)


def build_penalized_solvers(problem, penalty: float, prox_weights,
                            iterative_smooth: bool = False):
    """Construct one solver per block for a given penalty/proximal pairing.

    ``prox_weights`` is a scalar or one weight per block.  With
    ``iterative_smooth`` the quadratic blocks also go through the iterative
    ``LbfgsBlockSolver`` (conjugate gradients) so that their solves carry
    nontrivial certificates; logistic blocks always do (damped Newton).
    """
    K = problem.num_blocks
    weights = np.broadcast_to(np.asarray(prox_weights, dtype=float), (K,))
    solvers = []
    for blk, s in zip(problem.blocks, weights):
        fd = blk.objective
        if fd.smooth is not None and fd.l1_scale > 0.0:
            solvers.append(CompositeBlockSolver(blk, penalty, s))
        elif fd.smooth is None:
            solvers.append(L1ProxBlockSolver(blk, penalty, s))
        elif fd.smooth.kind == "logistic" or iterative_smooth:
            solvers.append(LbfgsBlockSolver(blk, penalty, s))
        else:
            solvers.append(QuadBlockSolver(blk, penalty, s))
    return solvers


def build_block_solvers(problem, params, schedule=None):
    """Solvers for the decomposition engines: penalty ``rho/2``, prox ``1/c``.

    Under an inexact schedule (pass the same one to ``ada.run``) the smooth
    blocks are solved iteratively so the acceptance criteria are genuinely
    exercised: quadratic blocks by warm-started conjugate gradients with an
    exact factorized fallback (at most 300 steps).  Logistic blocks are
    always solved by damped Newton steps (at most 500), to ``1e-12`` in the
    gradient norm when no schedule sets a threshold.  With no schedule every
    block that admits a closed form uses it.
    """
    return build_penalized_solvers(
        problem, penalty=params.rho / 2.0, prox_weights=1.0 / params.c,
        iterative_smooth=schedule is not None)
