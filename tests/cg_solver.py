"""Certified conjugate gradients for least-squares blocks, a test solver.

``build_block_solvers`` solves every least-squares block by its factor,
whose certificate is 0.  The tests of nonzero certificates on least-squares
blocks (acceptance criteria 7 and 8, the conjugate-gradient loop against
``oracles.conjugate_gradients``, the exact fallback and its floor stop)
build ``CgBlockSolver`` instead: ``cg_solvers`` gives the package's build
with this solver on the least-squares blocks.  It subclasses the package's
``_SmoothBlockSolver``, so it evaluates the subproblem as Newton does.
"""

import math
from functools import cached_property

import numpy as np

from augdecomp.block_solvers import (BlockSolveCertificate, QuadBlockSolver,
                                     _formed_hessian, _SmoothBlockSolver,
                                     build_penalized_solvers)
from augdecomp.coupling import spectral_norm
from augdecomp.model import BlockSpec, vnorm

# Conjugate-gradient floor stop (``CgBlockSolver``): the floor is tested
# once ||r|| <= _FLOOR_TRIGGER * lam_min * ||x - z||, and the attainable
# gradient accuracy is estimated as _UNIT_ROUNDOFF * (||H|| ||x|| + ||b||).
_FLOOR_TRIGGER = 0.1
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class CgBlockSolver(_SmoothBlockSolver):
    """Certified conjugate-gradient solver for least-squares blocks; only
    the tests build it.

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

    @property
    def _shift(self) -> float | None:
        """``c`` when ``C = c I`` (a coupling with a scalar Gram), else None."""
        return self._coupling if isinstance(self._coupling, float) else None

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


def cg_solvers(problem, penalty: float, prox_weights):
    """``build_penalized_solvers(problem, penalty, prox_weights)`` with a
    ``CgBlockSolver`` in place of each ``QuadBlockSolver``, built with the
    same penalty and proximal weight."""
    return [CgBlockSolver(blk, penalty, sv.prox_weight) if sv.kind == "quad" else sv
            for blk, sv in zip(problem.blocks, build_penalized_solvers(
                problem, penalty, prox_weights))]
