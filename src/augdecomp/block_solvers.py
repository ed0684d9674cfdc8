"""Per-block subproblem solvers.

Every decomposition method in this package reduces each outer iteration to K
independent subproblems of the shape

    minimize_x  f_k(x) + (p/2) * ||E_k x - t||^2 + (s/2) * ||x - z||^2

for a penalty ``p``, a target ``t``, and a proximal center ``z`` (``s = 0``
drops the proximal term).  This module provides closed-form solvers for
least-squares and l1 blocks and a certified iterative one, damped Newton
steps with a kept Hessian factor, for logistic blocks: the three kinds the
dispatcher picks.  The Newton solver reports a certified upper bound on
``dist(0, d phi(x))`` at the returned point, computed from the gradient
evaluated at that point; closed forms certify zero.  The engines solve the
K subproblems of a sweep one after another, each by its own solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

from .model import BlockSpec, _unchecked, vnorm

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
    ``exact_fallback`` marks an iterative solve that gave up on its
    threshold and returned an exact solve instead; no solver of this
    package does, but the engines count the flag from any solver (the
    tests' conjugate gradients set it).  ``factorizations`` counts the
    Hessian factorizations the solve made (damped Newton only; the closed
    forms reuse the factor made when the solver was built).  ``value`` is
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
    out = np.abs(a)  # max(|a| - kappa, 0) * sign(a) is formed in this array
    out -= kappa
    out = np.maximum(out, 0.0, out=out if out.ndim else None)  # a scalar has no buffer
    out *= np.sign(a)
    return out


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


def _scaled_adjoint(E, penalty: float):
    """``t -> p E^T t`` as a new array, chosen when a solver is built: one
    product ``t * (sign p)`` for a signed identity, the bits of
    ``E.apply_T(t)`` scaled by ``p``."""
    if E.kind == "identity":
        return lambda t, scale=E.sign * penalty: t * scale
    return lambda t: E.apply_T(t) * penalty


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
    BT = B.T  # kept: a sparse B would form its transpose at every solve
    G = _dense(B @ BT)
    G.flat[::rows + 1] += C
    inner = _cholesky_solver(G)

    def solve(r):
        v = inner(B.dot(r))  # .dot: the products of @ without its dispatch
        x = BT.dot(v)
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
        self._adjoint = _scaled_adjoint(block.E, self.penalty)
        self.atb = A.T @ fd.smooth.b
        self._loss = fd.smooth
        C = block.E.penalized_gram(penalty, prox_weight)
        if isinstance(C, float) and not C > 0:
            raise ValueError("p E^T E + s I must be positive definite")
        # the factorization does not scan its input: check the data once here
        if not (np.isfinite(self.atb).all() and np.isfinite(C).all()):
            raise ValueError("least-squares data and p E^T E + s I must be finite")
        self._factored = _factored_solver(A, C)

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        # p E^T t + A^T b (+ s z), assembled in place: the bits of A^T b + p E^T t
        rhs = self._adjoint(t)
        rhs += self.atb
        if self.prox_weight > 0:
            rhs += self.prox_weight * z
        x, ax = self._factored(rhs)
        value = None if ax is None else self._loss._value_at(ax)
        # an exact solve certifies 0, so the certificate needs no check
        return _unchecked(BlockSolveCertificate, x, 0.0, 0, False, value, 0)


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
        self._adjoint = _scaled_adjoint(block.E, self.penalty)

    def solve(self, t: np.ndarray, z: np.ndarray, accept=None) -> BlockSolveCertificate:
        numer = self._adjoint(t)
        if self.prox_weight > 0:
            numer += self.prox_weight * z
        numer /= self.denom
        x = soft_threshold(numer, self.lam / self.denom)
        return _unchecked(BlockSolveCertificate, x, 0.0, 0, False, None, 0)


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
    """What a certified iterative solver of smooth blocks needs: the base
    of ``NewtonBlockSolver``, and of the tests' conjugate gradients.

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
        self._coupling = block.E.penalized_gram(self.penalty, self.prox_weight)
        self._memo = None  # (bytes of x, the loss's _smooth tuple at x)

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


def build_penalized_solvers(problem, penalty: float, prox_weights):
    """Construct one solver per block for a given penalty/proximal pairing.

    ``prox_weights`` is a scalar or one weight per block.  An l1 block gets
    ``L1ProxBlockSolver``, a logistic one ``NewtonBlockSolver`` and a
    least-squares one ``QuadBlockSolver``.  No other code picks an
    algorithm by a loss's kind.  Each solver's ``kind`` names its class:
    ``"l1"``, ``"newton"`` or ``"quad"``.
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
    build, and one solve with it costs about one step of an iterative
    solve, so an iterative solve is never the cheaper choice; on problems
    without logistic blocks an inexact run therefore has the iterates of
    the exact one.
    """
    return build_penalized_solvers(
        problem, penalty=params.rho / 2.0, prox_weights=1.0 / params.c)
