"""Per-block subproblem solvers.

Every decomposition method in this package reduces each outer iteration to K
independent subproblems of the shape

    minimize_x  f_k(x) + (p/2) * ||E_k x - t||^2 + (s/2) * ||x - z||^2

for a penalty ``p``, a target ``t``, and a proximal center ``z`` (``s = 0``
drops the proximal term).  This module provides closed-form solvers for
least-squares and l1 blocks and two certified iterative solvers: conjugate
gradients for least-squares blocks, built on request only, and damped
Newton steps with a kept Hessian factor for logistic ones.  Iterative
solvers report a certified upper bound on ``dist(0, d phi(x))`` at the
returned point, computed from the gradient evaluated at that point; closed
forms certify zero.  When a least-squares block's threshold is at about
what finite precision can certify, the exact factorized solve is returned
instead and the certificate says so (``exact_fallback``).  The engines
solve the K subproblems of a sweep one after another, each by its own
solver.
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

# Conjugate-gradient floor stop (``CgBlockSolver``): the floor is tested
# once ||r|| <= _FLOOR_TRIGGER * lam_min * ||x - z||, and the attainable
# gradient accuracy is estimated as _UNIT_ROUNDOFF * (||H|| ||x|| + ||b||).
_FLOOR_TRIGGER = 0.1
_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# Damped Newton (``NewtonBlockSolver``): step budget, Armijo
# constant, step halvings before the line search gives up, and the relative
# rounding level of f below which a step that lowers the gradient norm is taken.
_NEWTON_STEPS = 500
_ARMIJO = 1e-4
_BACKTRACKS = 30
_F_NOISE = 1e-12
# the kept Hessian factor is dropped after a step that does not cut ||g|| to
# at most this share of its value before the step
_CONTRACTION = 0.1
# Newton steps in a row that neither lower f beyond its rounding level nor
# set a new smallest gradient norm before the solve counts as stalled
_STALL_STEPS = 10


class BlockSolveError(RuntimeError):
    """An inner solver could not produce an acceptable block solution."""


@dataclass(frozen=True)
class BlockSolveCertificate:
    """Block solution plus a certified bound on the subgradient distance.

    ``subgrad_bound`` is an upper bound on ``dist(0, d phi(x))`` for the
    subproblem objective phi at ``x``; exact (closed-form) solves report 0.
    ``exact_fallback`` marks an iterative solver that gave up on its
    threshold and returned the exact factorized solve instead.
    ``factorizations`` counts the Hessian factorizations the solve made
    (damped Newton only; the closed forms and the exact fallback reuse the
    factor made when the solver was built).  ``value`` is
    the block objective ``f_k(x)`` when the solver has it, otherwise None;
    the engine then sums it into the trace's objective.  An iterative solve
    carries the loss it evaluated at ``x``, the same bits as
    ``f_k(x)``.  A Woodbury ``QuadBlockSolver`` solve carries the loss at
    its inner vector, which is ``A x`` up to rounding, so ``value`` equals
    ``f_k(x)`` up to about ``u ||A x|| ||A x - b||`` for the unit roundoff
    ``u`` times a modest factor.
    """

    x: np.ndarray
    subgrad_bound: float
    inner_iters: int = 0
    exact_fallback: bool = False
    value: float | None = None
    factorizations: int = 0

    def __post_init__(self):
        if self.subgrad_bound < 0:
            raise ValueError("subgrad_bound must be nonnegative")


def soft_threshold(a, kappa: float):
    """Shrink ``a`` toward zero by ``kappa``, clipping the dead zone to zero.

    Componentwise on arrays; the proximal operator of ``kappa * |.|``.
    """
    if not kappa >= 0:
        raise ValueError("kappa must be nonnegative")
    return np.sign(a) * np.maximum(np.abs(a) - kappa, 0.0)


def subgrad_dist_l1(x: np.ndarray, smooth_grad_at_x: np.ndarray, lambda1: float) -> float:
    """Exact ``dist(0, g + lambda1 * d||.||_1(x))`` for ``g = smooth_grad_at_x``.

    Componentwise the nearest subgradient is ``g_i + lambda1*sign(x_i)`` where
    ``x_i != 0`` and the projection of ``-g_i`` onto ``[-lambda1, lambda1]``
    where ``x_i = 0``; returns the Euclidean norm of the residual vector.
    """
    if not lambda1 >= 0:
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
    ``E^T E = alpha I``, otherwise a dense n-by-n array.  Only a ``"matrix"``
    coupling has no scalar Gram; a sparse one is multiplied sparse, and
    only the n-by-n product is densified."""
    alpha = E.gram_scale
    if alpha is not None:
        return float(penalty * alpha + prox_weight)
    M = E._matrix if sp.issparse(E._matrix) else E.toarray()
    C = _dense(penalty * (M.T @ M))
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


def _factored_solver(A, C, h=None):
    """``solve(r) = (x, v)`` with ``x = (A^T diag(h) A + C)^{-1} r`` from one
    factorization (``h = None`` means all ones).

    When ``C`` is a positive scalar ``sigma`` and ``A`` has more columns than
    rows, the smaller ``sigma I + B B^T`` with ``B = diag(sqrt h) A`` is
    factored and the Woodbury identity gives ``x = (r - B^T v) / sigma`` with
    ``v = inner(B r)``; then ``B x = (B r - B B^T v) / sigma = v`` in exact
    arithmetic, so ``v`` is ``B x`` up to rounding.  Scaling by ``sqrt h``
    needs no ``diag(h)^{-1}``, so curvature that underflows to 0 is
    harmless.  Otherwise ``A^T diag(h) A + C`` is formed and factored, and
    ``v`` is None.  A sparse ``A`` stays sparse; only the factored matrix is
    dense.  Raises ``np.linalg.LinAlgError`` when that matrix is not
    positive definite.
    """
    rows, cols = A.shape
    if not (isinstance(C, float) and C > 0 and cols > rows):
        primal = _cholesky_solver(_formed_hessian(A, C, h))
        return lambda r: (primal(r), None)
    B = _row_scaled(A, h)
    G = _dense(B @ B.T)
    G.flat[::rows + 1] += C
    inner = _cholesky_solver(G)

    def solve(r):
        v = inner(B @ r)
        x = B.T @ v
        np.subtract(r, x, out=x)
        x /= C
        return x, v

    return solve


class QuadBlockSolver:
    """Closed-form solver for least-squares blocks, under any coupling.

    Solves ``(A^T A + C) x = A^T b + p E^T t + s z`` with ``C = p E^T E + s I``,
    factored once, at construction, by ``_factored_solver``: when ``C`` is a
    scalar ``sigma`` and ``A`` has more columns than rows, the smaller
    ``A A^T + sigma I`` is factored and the Woodbury identity recovers the
    solve; otherwise ``A^T A + C`` is.  The Woodbury solve forms ``v``, which
    is ``A x`` up to rounding, so its certificate carries the loss
    ``0.5 ||v - b||^2`` as ``value`` and the engine's objective needs no
    further product with ``A``; the formed path carries no value.
    """

    exact = True
    kind = "quad"

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float):
        fd = block.objective
        if fd.smooth is None or fd.smooth.kind != "least_squares":
            raise ValueError("QuadBlockSolver requires a least-squares block")
        A = fd.smooth.A
        self.E = block.E
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.atb = A.T @ fd.smooth.b
        self._loss = fd.smooth
        C = _coupling_hessian(block.E, penalty, prox_weight)
        if isinstance(C, float) and not C > 0:
            raise ValueError("p E^T E + s I must be positive definite")
        # the factorization does not scan its input: check the data once here
        if not (np.isfinite(self.atb).all() and np.isfinite(C).all()):
            raise ValueError("least-squares data and p E^T E + s I must be finite")
        self._factored = _factored_solver(A, C)

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        # p E^T t + A^T b (+ s z), assembled in place: the bits of A^T b + p E^T t
        rhs = self.E.apply_T(t)
        rhs *= self.penalty
        rhs += self.atb
        if self.prox_weight > 0:
            rhs += self.prox_weight * z
        x, ax = self._factored(rhs)
        value = None if ax is None else self._loss._value_at(ax)
        return BlockSolveCertificate(x=x, subgrad_bound=0.0, value=value)


class L1ProxBlockSolver:
    """Closed-form soft-threshold solver for pure l1 blocks.

    Requires ``E^T E = alpha I``; covers signed identities as well as the
    stacked-copy coupling of the consensus formulation.
    """

    exact = True
    kind = "l1"

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float):
        fd = block.objective
        if fd.smooth is not None:
            raise ValueError("L1ProxBlockSolver requires an l1 block")
        alpha = block.E.gram_scale
        if alpha is None:
            raise ValueError("coupling matrix must satisfy E^T E = alpha I")
        self.E = block.E
        self.lam = fd.l1_scale
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.denom = penalty * alpha + prox_weight

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        numer = self.E.apply_T(t)
        numer *= self.penalty
        if self.prox_weight > 0:
            numer += self.prox_weight * z
        numer /= self.denom
        x = soft_threshold(numer, self.lam / self.denom)
        return BlockSolveCertificate(x=x, subgrad_bound=0.0)


def _line_search(fun_grad, x, f, g, gnorm, direction, f_noise):
    """Armijo backtracking from step 1 along the descent ``direction``.

    Returns ``(step, armijo, x, f, g, h, gnorm)`` at the first step that
    passes Armijo (``armijo`` True) or, failing that, lowers ``f`` by no more
    than its rounding level ``f_noise`` but lowers the gradient norm; None
    when ``_BACKTRACKS`` halvings find neither.
    """
    slope = float(g.dot(direction))
    step = 1.0
    for _ in range(_BACKTRACKS):
        x_new = x + direction if step == 1.0 else x + step * direction
        f_new, g_new, h_new = fun_grad(x_new)
        gnorm_new = vnorm(g_new)
        armijo = f_new <= f + _ARMIJO * step * slope
        if armijo or (f_new <= f + f_noise and gnorm_new < gnorm):
            return step, armijo, x_new, f_new, g_new, h_new, gnorm_new
        step *= 0.5
    return None


class _SmoothBlockSolver:
    """What the certified iterative solvers of smooth blocks share.

    Each minimizes ``f(x) + (p/2)*||E x - t||^2 + (s/2)*||x - z||^2`` from
    the warm start ``z`` until the caller's ``accept(x, bound)`` rule holds
    or, without one, until the gradient norm is at most ``exact_tol``.  The
    certificate is the norm of the gradient evaluated at the returned point,
    which for a smooth objective is the subgradient distance.  The Hessian
    is ``H = A^T diag(h) A + C`` with the loss curvature ``h`` (all ones for
    least squares) and ``C = p E^T E + s I``, which is ``(p alpha + s) I``
    for a coupling with ``E^T E = alpha I`` and otherwise formed once.  The
    loss's evaluation at the last point is kept, so a solve that starts
    where the previous one stopped does not evaluate the loss there again,
    and a certificate carries the loss when its point is that last one.
    """

    exact = False
    _curvature = False  # whether the loss's curvature h comes third

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float,
                 exact_tol: float, loss_kind: str):
        fd = block.objective
        if fd.smooth is None or fd.smooth.kind != loss_kind:
            raise ValueError(f"{type(self).__name__} requires a {loss_kind} block")
        self.block = block
        self.penalty = float(penalty)
        self.prox_weight = float(prox_weight)
        self.exact_tol = float(exact_tol)
        self._coupling = _coupling_hessian(block.E, self.penalty, self.prox_weight)
        self._memo = None  # (bytes of x, the loss's _smooth tuple at x)

    @property
    def _shift(self) -> float | None:
        """``c`` when ``C = c I`` (a coupling with a scalar Gram), else None."""
        return self._coupling if isinstance(self._coupling, float) else None

    def _fun_grad(self, t, z):
        """``x -> (phi(x), grad phi(x))``, with the loss curvature ``h`` at
        ``x`` third on a solver that asks for it.

        A structured coupling (``Coupling.identity`` or ``Coupling.copies``)
        has the exact Gram ``E^T E = alpha I``, so its term is ``(p/2)
        (alpha ||x - c||^2 + ||t - E c||^2)`` with ``c = E^T t / alpha``,
        and its gradient ``p alpha (x - c)``: ``c`` and ``||t - E c||^2``
        are formed once per solve, and an evaluation touches n-vectors only.
        For ``alpha = 1`` that gradient has the bits of ``p E^T (E x - t)``,
        and the value equals ``(p/2) ||E x - t||^2`` up to rounding.  A
        ``"matrix"`` coupling forms ``E x - t`` at every evaluation.
        """
        E = self.block.E
        p, s = self.penalty, self.prox_weight
        if E.kind == "matrix":
            def coupling(x):
                r = E.apply(x) - t
                return 0.5 * p * float(r.dot(r)), p * E.apply_T(r)
        else:
            alpha = E.gram_scale
            c = E.apply_T(t)
            c /= alpha
            off = E.apply(c)
            off -= t
            off_sq = float(off.dot(off))
            p_alpha = p * alpha

            def coupling(x):
                d = x - c
                return 0.5 * p * (alpha * float(d.dot(d)) + off_sq), p_alpha * d

        def fun_grad(x):
            val, grad, *h = self._smooth(x)
            coupling_val, out = coupling(x)
            val += coupling_val
            out += grad  # a new array: the kept evaluation's grad is not written
            if s > 0:
                dz = x - z
                val += 0.5 * s * float(dz.dot(dz))
                dz *= s
                out += dz
            return (val, out, *h)

        return fun_grad

    def _smooth(self, x):
        """The loss's ``(value, gradient[, h])`` at ``x``.  The last
        evaluation is kept: a solve starts at the point the previous one
        returned, where the loss has just been evaluated.  The memo serves
        a point with the same bytes only."""
        key = x.tobytes()
        if self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        out = self.block.objective.smooth.value_and_gradient(x, curvature=self._curvature)
        self._memo = (key, out)
        return out

    def _loss_at(self, x) -> float | None:
        """The loss's value at ``x`` when ``x`` is the last point evaluated."""
        key, out = self._memo
        return out[0] if key == x.tobytes() else None

    def _rule(self, accept):
        """``accept``, or the ``exact_tol`` test without one."""
        return (lambda xx, gn: gn <= self.exact_tol) if accept is None else accept


class CgBlockSolver(_SmoothBlockSolver):
    """Certified conjugate-gradient solver for least-squares blocks; the
    dispatcher builds it only under ``iterative_smooth=True``.

    Conjugate gradients iterate on the correction ``e = x - z`` and track the
    gradient by a recursive residual.  When that residual passes, the
    gradient is recomputed at the point and its norm must pass too; the
    first time it does not, the residual is replaced by it and the iteration
    continues.  Each solve runs its own loop, one product ``H d`` per step,
    with ``H`` formed on the first solve.

    A rule may carry a float attribute ``limit``, a promise that it refuses
    every ``bound > limit`` whatever ``x`` is (``InexactSchedule.accept_rules``
    sets it to the criterion-A threshold); the point ``x = z + e`` is then
    formed, and the rule asked, only once ``||r||`` is at most ``limit``.  A
    rule without ``limit`` is asked at every step.  Three events return the
    exact factorized minimizer with certificate 0 and
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
    """

    kind = "cg"
    cg_budget = 300  # conjugate-gradient steps before the exact fallback

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float,
                 exact_tol: float = 1e-12):
        super().__init__(block, penalty, prox_weight, exact_tol, "least_squares")
        self._fallback = QuadBlockSolver(block, penalty, prox_weight)

    @cached_property
    def _hess(self) -> np.ndarray:
        """``H``, formed on the first solve, not at construction."""
        return _formed_hessian(self.block.objective.smooth.A, self._coupling)

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
        e = np.zeros_like(z)
        r = g0.copy()
        d = -r
        rr = float(r.dot(r))
        for it in range(1, self.cg_budget + 1):
            hd = H @ d
            dhd = float(d.dot(hd))
            if not dhd > 0.0:  # d vanished or the products are no longer finite
                return None, gnorm, it
            step = rr / dhd
            e += step * d
            r += step * hd
            rr_new = float(r.dot(r))
            if floor_armed and rr_new <= trigger_sq * float(e.dot(e)):
                # ||x - x*|| <= ||r|| / lam_min <= 0.1 ||e||: the step is known,
                # so ask once whether the rule accepts the rounding floor of the
                # gradient at x, u (||H|| ||x|| + ||b||) with b = H z - g0
                floor_armed = False
                x = z + e
                floor = _UNIT_ROUNDOFF * (self._hess_norm * vnorm(x) + vnorm(H @ z - g0))
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
                    r = g
                    rr_new = float(g.dot(g))
            d *= rr_new / rr
            d -= r
            rr = rr_new
        return None, gnorm, self.cg_budget

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        x, gnorm, iters = self._conjugate_gradients(self._fun_grad(t, z), z,
                                                    self._rule(accept))
        if x is None:
            # the fallback's Woodbury loss equals f(x) only up to
            # rounding, so it is not carried (see BlockSolveCertificate)
            cert = self._fallback.solve(t, z)
            return BlockSolveCertificate(x=cert.x, subgrad_bound=0.0,
                                         inner_iters=iters, exact_fallback=True)
        return BlockSolveCertificate(x=x, subgrad_bound=gnorm, inner_iters=iters,
                                     value=self._loss_at(x))


class NewtonBlockSolver(_SmoothBlockSolver):
    """Certified damped Newton solver for logistic blocks.

    Newton steps use the chord (Shamanskii) method: the solver keeps the
    solve function of its last factorization, across steps and across
    solves, and a step costs one loss evaluation and one solve with it.
    ``C`` is fixed for the solver, so only the curvature ``h`` has moved
    since the factor was made.  The factor is dropped after a step that
    backtracked, that passed only by the rounding-level clause below, or
    that did not cut the gradient norm to ``_CONTRACTION`` (0.1) of its
    value; the next step then factors ``H`` at its own point.  When the line
    search along a kept factor's direction finds no step, ``H`` is factored
    at the same point and the search run again; the failure of a fresh
    factor ends the solve.  ``_factored_solver`` factors ``H`` at the current
    point (``8 d^2`` bytes) on a block with at least as many rows as
    columns, and the rows-by-rows Woodbury matrix ``sigma I + B B^T``,
    ``B = diag(sqrt h) A``, on a wider one with ``C = sigma I``; a sparse
    ``A`` is multiplied sparse and only the factored matrix is dense.  The
    certificate counts the factorizations of the solve.  The step length
    is found by Armijo backtracking from 1; once objective differences are
    at the rounding level of ``f``, a step that lowers the gradient norm is
    accepted too, so the iteration keeps progressing on gradient
    information alone.  The subproblem is strongly convex and every kept
    factor is positive definite, so this converges from any warm start; the
    certificate is the gradient norm at the returned point whichever factor
    made the steps.  A solve that misses a caller's rule within 500 steps
    (a step with a kept factor counts as one), or stalls at rounding level
    (10 steps that neither lower ``f`` beyond rounding nor set a new
    smallest gradient norm), raises ``BlockSolveError``; without a rule the
    iterate with the smallest gradient norm is returned.  The rule is asked
    at every step.
    """

    kind = "newton"
    _curvature = True

    def __init__(self, block: BlockSpec, penalty: float, prox_weight: float,
                 exact_tol: float = 1e-12):
        super().__init__(block, penalty, prox_weight, exact_tol, "logistic")
        # the kept factor: the ``_factored_solver`` solve, r -> (H^{-1} r, v),
        # of the H of the last factorization, None until the next step factors
        self._factor = None

    def _newton(self, fun_grad, z, done):
        """Damped Newton from ``z`` with the kept factor; ``(x, grad_norm,
        steps, factorizations)`` of the first point that passes ``done``,
        else of the smallest gradient seen."""
        x = np.array(z, dtype=float)
        f, g, h = fun_grad(x)
        gnorm = vnorm(g)
        best = (x, gnorm)
        steps = stalled = factored = 0
        while not done(x, gnorm):
            if steps == _NEWTON_STEPS or stalled == _STALL_STEPS:
                return best + (steps, factored)
            f_noise = _F_NOISE * (abs(f) + 1.0)
            found = None
            while found is None:
                fresh = self._factor is None
                if fresh:
                    try:
                        self._factor = _factored_solver(self.block.objective.smooth.A,
                                                        self._coupling, h)
                    except np.linalg.LinAlgError:
                        return best + (steps, factored)
                    factored += 1
                found = _line_search(fun_grad, x, f, g, gnorm, -self._factor(g)[0], f_noise)
                if found is None:
                    # no step along a kept factor's direction: refactor at x
                    # and search again; a fresh factor's failure ends the solve
                    self._factor = None
                    if fresh:
                        return best + (steps, factored)
            step, armijo, x_new, f_new, g_new, h_new, gnorm_new = found
            steps += 1
            if step < 1.0 or not armijo or gnorm_new > _CONTRACTION * gnorm:
                self._factor = None  # the next step factors at its own point
            # at the rounding floor full steps keep passing Armijo with f
            # unchanged while ||g|| wanders; count those steps
            stalled = 0 if gnorm_new < best[1] or f_new < f - f_noise else stalled + 1
            x, f, g, h, gnorm = x_new, f_new, g_new, h_new, gnorm_new
            if gnorm < best[1]:
                best = (x, gnorm)
        return x, gnorm, steps, factored

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        x, gnorm, iters, factored = self._newton(self._fun_grad(t, z), z, self._rule(accept))
        if accept is not None and not accept(x, gnorm):
            raise BlockSolveError(
                f"Newton solve stopped after {iters} of {_NEWTON_STEPS} steps at "
                f"gradient norm {gnorm:.3e} without meeting its threshold")
        return BlockSolveCertificate(x=x, subgrad_bound=gnorm, inner_iters=iters,
                                     value=self._loss_at(x), factorizations=factored)


def build_penalized_solvers(problem, penalty: float, prox_weights,
                            iterative_smooth: bool = False):
    """Construct one solver per block for a given penalty/proximal pairing.

    ``prox_weights`` is a scalar or one weight per block.  An l1 block gets
    ``L1ProxBlockSolver``, a logistic one ``NewtonBlockSolver`` and a
    least-squares one ``QuadBlockSolver``.  ``iterative_smooth`` asks for
    ``CgBlockSolver`` on the least-squares blocks instead, whose solves
    carry nonzero certificates.  No other code picks an algorithm by a
    loss's kind.  Each solver's ``kind`` names its class:
    ``"l1"``, ``"newton"``, ``"quad"`` or ``"cg"``.
    """
    K = problem.num_blocks
    weights = np.broadcast_to(np.asarray(prox_weights, dtype=float), (K,))
    solvers = []
    for blk, s in zip(problem.blocks, weights):
        fd = blk.objective
        if fd.smooth is None:
            solvers.append(L1ProxBlockSolver(blk, penalty, s))
        elif fd.smooth.kind == "logistic":
            solvers.append(NewtonBlockSolver(blk, penalty, s))
        elif iterative_smooth:
            solvers.append(CgBlockSolver(blk, penalty, s))
        else:
            solvers.append(QuadBlockSolver(blk, penalty, s))
    return solvers


def build_block_solvers(problem, params, schedule=None):
    """Solvers for the decomposition engines: penalty ``rho/2``, prox ``1/c``.

    The build is the same with or without an inexact ``schedule``: l1 and
    least-squares blocks get their closed forms, which certify 0 and so pass
    every acceptance rule, and logistic blocks damped Newton steps (at most
    500), to ``1e-12`` in the gradient norm when no schedule sets a
    threshold.  A least-squares block holds its factorization from the
    build, and one solve with it costs about one conjugate-gradient step, so
    an iterative solve is never the cheaper choice; on problems without
    logistic blocks an inexact run therefore has the iterates of the exact
    one.  ``build_penalized_solvers(..., iterative_smooth=True)`` builds
    conjugate-gradient solvers for those blocks on request.
    """
    return build_penalized_solvers(
        problem, penalty=params.rho / 2.0, prox_weights=1.0 / params.c)
