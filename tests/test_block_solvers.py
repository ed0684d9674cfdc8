import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import augdecomp as ag
from augdecomp import block_solvers
from augdecomp.bench import gen_logreg_data
from augdecomp.block_solvers import (BlockSolveCertificate, BlockSolveError,
                                     L1ProxBlockSolver,
                                     NewtonBlockSolver, QuadBlockSolver,
                                     _cholesky_solver, _coupling_hessian,
                                     _factored_solver, _formed_hessian,
                                     build_penalized_solvers, soft_threshold,
                                     subgrad_dist_l1)
from augdecomp.coupling import e_gram_scale
from augdecomp.inexact import InexactSchedule
from augdecomp.model import (BlockSpec, FunctionDescriptor, IterateState,
                             SmoothPart, make_initial_state)
import oracles
from cg_solver import CgBlockSolver, cg_solvers
from conftest import iterative_solvers
from oracles import (GeneralQuadBlockSolver, _block_targets, conjugate_gradients,
                     identity_quad_solver, l1_prox_block, lbfgs_minimize,
                     quad_solve)


class TestSoftThreshold:
    def test_shrink_above(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_dead_zone(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_shrink_below(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_is_prox_of_scaled_abs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = float(rng.uniform(-4, 4))
            kappa = float(rng.uniform(0, 2))
            grid = np.linspace(-6, 6, 2_000_001)
            vals = 0.5 * (grid - a) ** 2 + kappa * np.abs(grid)
            best = grid[np.argmin(vals)]
            assert abs(soft_threshold(a, kappa) - best) < 1e-5


class TestSubgradDistL1:
    def test_zero_at_origin(self):
        assert subgrad_dist_l1(np.zeros(3), np.zeros(3), 0.5) == 0.0

    def test_stationary_point(self):
        lam = 0.8
        assert subgrad_dist_l1(np.array([1.0]), np.array([-lam]), lam) == 0.0

    def test_matches_interval_projection_oracle(self):
        rng = np.random.default_rng(1)
        lam = 0.3
        for _ in range(20):
            x = rng.standard_normal(6) * (rng.random(6) > 0.4)
            g = rng.standard_normal(6)
            # per-coordinate projection of -g onto the subdifferential interval
            r = np.empty(6)
            for i in range(6):
                if x[i] != 0.0:
                    r[i] = g[i] + lam * np.sign(x[i])
                else:
                    r[i] = g[i] - np.clip(g[i], -lam, lam)
            assert subgrad_dist_l1(x, g, lam) == pytest.approx(np.linalg.norm(r))

    def test_zero_exactly_at_prox_output(self):
        rng = np.random.default_rng(2)
        lam, step = 0.6, 0.3
        for _ in range(10):
            v = rng.standard_normal(5)
            # x = prox of step*lam at v minimizes 0.5||x-v||^2 + step*lam*||x||_1
            x = soft_threshold(v, step * lam)
            g = (x - v) / step
            assert subgrad_dist_l1(x, g, lam / 1.0 * 1.0) >= 0.0
            assert subgrad_dist_l1(x, g, lam) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            subgrad_dist_l1(np.zeros(2), np.zeros(2), -1.0)


class TestQuadFactorization:
    """The factorizations ``QuadBlockSolver`` picks at construction: Cholesky
    of ``A^T A + C`` for a tall ``A`` or a non-scalar ``C``, Woodbury through
    ``A A^T + sigma I`` for a wide ``A`` and ``C = sigma I``."""

    def test_scalar_identity_case(self):
        # sigma = rho/2 + 1/c = 2, divisor A^T A + sigma = 3
        solver = identity_quad_solver(np.array([[1.0]]), 2.0)
        out = quad_solve(solver, (np.array([3.0]), np.array([3.0]), np.array([3.0])),
                         rho=2.0, c=1.0)
        assert out == pytest.approx(1.0)

    def test_all_zero(self):
        solver = identity_quad_solver(np.array([[1.0]]), 2.0)
        out = quad_solve(solver, (np.zeros(1), np.zeros(1), np.zeros(1)), 2.0, 1.0)
        assert out == pytest.approx(0.0)

    def test_sigma_mismatch_rejected(self):
        solver = identity_quad_solver(np.array([[1.0]]), 2.0)
        with pytest.raises(ValueError):
            quad_solve(solver, (np.zeros(1), np.zeros(1), np.zeros(1)), 4.0, 1.0)

    def test_woodbury_matches_primal_and_direct(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((30, 50))
        b = rng.standard_normal(30)
        sigma = 1.7
        primal = _cholesky_solver(_formed_hessian(A, sigma))
        dual = identity_quad_solver(A, sigma, b)
        r = rng.standard_normal(50)
        x_p = primal(r)
        x_w = dual._factored(r)[0]
        x_direct = np.linalg.solve(A.T @ A + sigma * np.eye(50), r)
        assert np.linalg.norm(x_w - x_p) <= 1e-9 * (1 + np.linalg.norm(x_p))
        assert np.allclose(x_w, x_direct, rtol=1e-9)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((12, 8))
        solver = identity_quad_solver(A, 2.2, rng.standard_normal(12))
        r = rng.standard_normal(8)
        x = solver._factored(r)[0]
        resid = np.linalg.norm((A.T @ A + 2.2 * np.eye(8)) @ x - r)
        assert resid <= 1e-10 * (1 + np.linalg.norm(r))

    @pytest.mark.parametrize("case", ["primal", "woodbury", "general"])
    def test_solves_equal_cho_solve_bitwise(self, case, monkeypatch):
        # each solve calls LAPACK potrs on the factor, as cho_solve does
        factored = []

        def spy(M):
            factored.append(M.copy())
            return _cholesky_solver(M)

        monkeypatch.setattr(block_solvers, "_cholesky_solver", spy)
        rng = np.random.default_rng(17)
        A = rng.standard_normal((40, 25) if case == "primal" else (25, 40))
        d = A.shape[1]
        if case == "general":
            E = ag.Coupling(matrix=rng.standard_normal((7, d)))
            solver = QuadBlockSolver(BlockSpec(n=d, E=E, objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", A, np.zeros(A.shape[0])))), 1.2, 0.3)
            M = _formed_hessian(A, _coupling_hessian(E, 1.2, 0.3))
        else:
            solver = identity_quad_solver(A, 1.7)
            M = (A.T @ A if case == "primal" else A @ A.T) + 1.7 * np.eye(min(A.shape))
        # the tall block factors the primal system, the wide one the dual
        assert len(factored) == 1 and np.array_equal(factored[0], M)
        solve = lambda r: solver._factored(r)[0]
        chol = scipy.linalg.cho_factor(M, lower=True)
        for _ in range(50):
            r = rng.standard_normal(d)
            if case == "woodbury":
                want = (r - A.T @ scipy.linalg.cho_solve(chol, A @ r)) / 1.7
            else:
                want = scipy.linalg.cho_solve(chol, r)
            assert np.array_equal(solve(r), want)


    def test_zero_scalar_shift_rejected(self):
        # C = p E^T E + s I = 0 for a zero coupling and no proximal term; the
        # wide block's Woodbury solve would divide by it
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 9))
        block = BlockSpec(n=9, E=ag.Coupling(matrix=np.zeros((3, 9))),
                          objective=FunctionDescriptor(
                              smooth=SmoothPart("least_squares", A, np.zeros(4))))
        assert block.E.gram_scale == 0.0
        with pytest.raises(ValueError, match="positive definite"):
            QuadBlockSolver(block, 1.0, 0.0)


    def test_non_finite_data_rejected(self):
        # the factorization does not scan its input; the constructor does
        A = np.ones((6, 3))
        A[2, 1] = np.nan
        for a, b in ((A, np.zeros(6)), (np.ones((6, 3)), np.full(6, np.inf))):
            block = BlockSpec(n=3, E=np.eye(3), objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", a, b)))
            with pytest.raises(ValueError, match="finite"):
                QuadBlockSolver(block, 1.0, 0.5)


class TestWoodburyValue:
    """A Woodbury ``QuadBlockSolver`` solve carries the loss at its inner
    vector ``v``, which is ``A x`` up to rounding; the formed path carries
    none."""

    @staticmethod
    def _gap_and_bound(smooth, x, value):
        # |0.5||v - b||^2 - 0.5||A x - b||^2| for v = A x + delta with
        # ||delta|| <= 1e-12 ||A x||
        ax = smooth.A @ x
        gap = abs(value - smooth.value(x))
        return gap, 1e-12 * np.linalg.norm(ax) * np.linalg.norm(ax - smooth.b) \
            + (1e-12 * np.linalg.norm(ax)) ** 2

    @classmethod
    def _check(cls, solver, smooth, t, z):
        """Assert the bound on one solve; return the certificate and whether
        ``v`` scaled by ``1 + 1e-9`` would break the bound."""
        factored, formed = solver._factored, []
        solver._factored = lambda r: formed.append(factored(r)) or formed[-1]
        try:
            cert = solver.solve(t, z)
        finally:
            solver._factored = factored
        (x, v), = formed
        assert x is cert.x and cert.value == smooth._value_at(v)
        gap, bound = cls._gap_and_bound(smooth, x, cert.value)
        assert gap <= bound
        off, _ = cls._gap_and_bound(smooth, x, smooth._value_at(v * (1.0 + 1e-9)))
        return cert, off > bound

    @classmethod
    def _check_run(cls, problem, params, iters):
        """Check every Woodbury solve of an exact ADA run; for each, whether
        a ``1e-9`` relative error in ``v`` would break its bound."""
        solvers = ag.build_block_solvers(problem, params)
        caught = []

        class Spy:
            def __init__(self, inner, smooth):
                self.inner, self.smooth = inner, smooth

            def solve(self, t, z, accept=None):
                cert, broken = cls._check(self.inner, self.smooth, t, z)
                caught.append(broken)
                return cert

        spied = [Spy(s, blk.objective.smooth) if isinstance(s, QuadBlockSolver) else s
                 for s, blk in zip(solvers, problem.blocks)]
        ag.run(problem, replace(params, max_iters=iters), spied, stop_mode="max_iters")
        return caught

    def test_wide_dense_lasso_run(self):
        problem, _ = ag.gen_lasso(60, 150, seed=21)
        caught = self._check_run(problem, ag.SolverParams(rho=10.0, c=10.0), 60)
        assert len(caught) == 60 and all(caught)

    def test_exchange_run(self):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=22)
        caught = self._check_run(problem, ag.SolverParams(rho=10.0, c=10.0), 30)
        assert len(caught) == 150 and all(caught)

    def test_wide_csr_block(self):
        rng = np.random.default_rng(23)
        A = sp.random(30, 70, density=0.3, random_state=rng, format="csr")
        b = rng.standard_normal(30)
        block = BlockSpec(n=70, E=ag.Coupling.copies(70, 2, rows=(0, 1)),
                          objective=FunctionDescriptor(
                              smooth=SmoothPart("least_squares", A, b)))
        solver = QuadBlockSolver(block, 0.6, 0.3)
        caught = [self._check(solver, block.objective.smooth,
                              rng.standard_normal(140), rng.standard_normal(70))[1]
                  for _ in range(20)]
        assert all(caught)

    @pytest.mark.parametrize("case", ["tall", "matrix"])
    def test_formed_path_carries_no_value(self, case):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((40, 25) if case == "tall" else (25, 40))
        d = A.shape[1]
        E = ag.Coupling.identity(d) if case == "tall" \
            else ag.Coupling(matrix=rng.standard_normal((7, d)))
        solver = QuadBlockSolver(BlockSpec(n=d, E=E, objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", A, rng.standard_normal(A.shape[0])))),
            1.2, 0.3)
        cert = solver.solve(rng.standard_normal(E.shape[0]), rng.standard_normal(d))
        assert cert.value is None


class TestL1Prox:
    def test_lambda_zero_is_prox_average(self):
        rng = np.random.default_rng(5)
        rho, c = 2.0, 1.5
        w, x, y = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
        out = l1_prox_block((w, x, y), rho, c, lambda1=0.0, sign=-1)
        expected = (y + x / c - rho * w / 2.0) / (rho / 2.0 + 1.0 / c)
        assert np.allclose(out, expected)

    def test_zero_state(self):
        z = np.zeros(3)
        assert np.allclose(l1_prox_block((z, z, z), 2.0, 1.0, 0.5, sign=-1), 0.0)

    def test_matches_scalar_minimization_oracle(self):
        # bisection on the subderivative of phi: independent of the
        # soft-threshold derivation and accurate past the 1e-8 target
        rng = np.random.default_rng(6)
        rho, c, lam = 2.0, 1.0, 0.4
        for sign in (1, -1):
            for _ in range(10):
                w, xp, y = (float(v) for v in rng.standard_normal(3))

                def dphi(t, side):
                    sub = lam * (np.sign(t) if t != 0.0 else side)
                    return sub + rho / 2 * (sign * t - w + 2 / rho * y) * sign \
                        + (t - xp) / c

                if dphi(0.0, -1.0) <= 0.0 <= dphi(0.0, 1.0):
                    t_star = 0.0
                else:
                    lo, hi = -10.0, 10.0
                    for _ in range(200):
                        mid = 0.5 * (lo + hi)
                        side = 1.0 if mid > 0 else -1.0
                        if dphi(mid, side) > 0:
                            hi = mid
                        else:
                            lo = mid
                    t_star = 0.5 * (lo + hi)
                out = l1_prox_block((np.array([w]), np.array([xp]), np.array([y])),
                                    rho, c, lam, sign=sign)
                assert abs(float(out[0]) - t_star) < 1e-8
                # the engines' solver on the same subproblem: penalty rho/2,
                # prox 1/c and target t = w - (2/rho) y
                blk = BlockSpec(n=1, E=ag.Coupling.identity(1, sign=sign),
                                objective=FunctionDescriptor(l1_scale=lam))
                cert = L1ProxBlockSolver(blk, rho / 2, 1 / c).solve(
                    np.array([w - 2 / rho * y]), np.array([xp]))
                assert abs(float(cert.x[0]) - t_star) < 1e-8

    def test_bad_sign_rejected(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            l1_prox_block((z, z, z), 1.0, 1.0, 0.1, sign=2)


class TestClosedFormSolveParity:
    """``QuadBlockSolver.solve`` and ``L1ProxBlockSolver.solve`` against
    ``oracles.quad_block_solve`` and ``oracles.l1_block_solve``, the solves
    before they assembled their right-hand sides in place: the same
    certificate bit for bit, on every coupling kind, with and without a
    proximal weight.  The loss that a Woodbury solve carries is stripped,
    as in ``TestSweepMatchesOracle``."""

    N = 12

    @classmethod
    def _couplings(cls, kind, rng, scalar_gram):
        """A coupling of ``kind`` on ``R^N``; with ``scalar_gram`` one with
        ``E^T E = alpha I``, as the l1 solver requires."""
        n = cls.N
        if kind == "identity":
            return ag.Coupling.identity(n)
        if kind == "negated identity":
            return ag.Coupling.identity(n, sign=-1)
        if kind == "copies":
            return ag.Coupling.copies(n, 3, rows=(0, 2), sign=-1)
        if scalar_gram:
            # a scaled signed permutation: E^T E = 4 I exactly
            M = np.zeros((n, n))
            M[rng.permutation(n), np.arange(n)] = 2.0 * rng.choice((-1.0, 1.0), n)
        else:
            M = rng.standard_normal((9, n))
            M[np.abs(M) < 0.5] = 0.0
        return ag.Coupling(matrix=sp.csr_matrix(M) if kind == "sparse matrix" else M)

    @staticmethod
    def _assert_same(new, old):
        assert new.x.tobytes() == old.x.tobytes()
        assert replace(new, x=None, value=None) == replace(old, x=None)

    @pytest.mark.parametrize("prox", [0.0, 0.7])
    @pytest.mark.parametrize("rows", [8, 20])
    @pytest.mark.parametrize("kind", ["identity", "negated identity", "copies",
                                      "dense matrix", "sparse matrix"])
    def test_quad(self, kind, rows, prox):
        rng = np.random.default_rng(41)
        E = self._couplings(kind, rng, scalar_gram=False)
        block = BlockSpec(n=self.N, E=E, objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", rng.standard_normal((rows, self.N)),
                              rng.standard_normal(rows))))
        solver = QuadBlockSolver(block, 1.3, prox)
        for _ in range(3):
            t, z = rng.standard_normal(E.shape[0]), rng.standard_normal(self.N)
            self._assert_same(solver.solve(t, z), oracles.quad_block_solve(solver, t, z))

    @pytest.mark.parametrize("prox", [0.0, 0.7])
    @pytest.mark.parametrize("kind", ["identity", "negated identity", "copies",
                                      "dense matrix", "sparse matrix"])
    def test_l1(self, kind, prox):
        rng = np.random.default_rng(42)
        E = self._couplings(kind, rng, scalar_gram=True)
        block = BlockSpec(n=self.N, E=E, objective=FunctionDescriptor(l1_scale=0.8))
        solver = L1ProxBlockSolver(block, 1.3, prox)
        nonzero = 0
        for _ in range(3):
            t, z = rng.standard_normal(E.shape[0]), rng.standard_normal(self.N)
            cert = solver.solve(t, z)
            nonzero += np.count_nonzero(cert.x)
            self._assert_same(cert, oracles.l1_block_solve(solver, t, z))
        # some entries shrink to zero and some do not
        assert 0 < nonzero < 3 * self.N


class TestLbfgs:
    def test_exact_on_simple_quadratic(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(6)

        def fg(x):
            return 0.5 * float((x - a) @ (x - a)), x - a

        x, gn, iters = lbfgs_minimize(fg, np.zeros(6), grad_tol=1e-10)
        assert gn <= 1e-10
        assert iters <= 11  # n + 5
        assert np.allclose(x, a, atol=1e-9)

    def test_descent_and_tolerance_on_strongly_convex(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((10, 6))
        H = A.T @ A + 0.5 * np.eye(6)
        b = rng.standard_normal(6)

        def fg(x):
            return 0.5 * float(x @ (H @ x)) - float(b @ x), H @ x - b

        x0 = rng.standard_normal(6)
        f0 = fg(x0)[0]
        x, gn, _ = lbfgs_minimize(fg, x0, grad_tol=1e-9)
        assert gn <= 1e-9
        assert fg(x)[0] <= f0

    def test_scalar_logistic_matches_bisection(self):
        # one sample, one feature: phi(t) = log(1+exp(-b*a*t)) + quadratic terms
        a_val, b_val, rho, c = 1.3, 1.0, 2.0, 1.0
        w, y, xp = 0.4, -0.2, 0.7

        def stationarity(t):
            s = -b_val * a_val / (1.0 + np.exp(b_val * a_val * t))
            return s + rho / 2 * (t - w + 2 / rho * y) + (t - xp) / c

        lo, hi = -50.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if stationarity(mid) > 0:
                hi = mid
            else:
                lo = mid
        t_star = 0.5 * (lo + hi)

        def fg(x):
            t = x[0]
            val = np.logaddexp(0.0, -b_val * a_val * t) \
                + rho / 4 * (t - w + 2 / rho * y) ** 2 + (t - xp) ** 2 / (2 * c)
            return float(val), np.array([stationarity(t)])

        x, gn, _ = lbfgs_minimize(fg, np.array([0.0]), grad_tol=1e-10)
        assert abs(float(x[0]) - t_star) < 1e-8

    def test_accept_rule_stops_early(self):
        def fg(x):
            return 0.5 * float(x @ x), x.copy()

        x, gn, iters = lbfgs_minimize(fg, np.full(4, 10.0), grad_tol=1e-12,
                                      accept=lambda xx, g: g <= 1.0)
        assert gn <= 1.0
        assert iters <= 5


def _logistic_block(E, rows=40, seed=21):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, E.shape[1]))
    labels = np.where(rng.standard_normal(rows) >= 0.0, 1.0, -1.0)
    return BlockSpec(n=E.shape[1], E=E, objective=FunctionDescriptor(
        smooth=SmoothPart("logistic", A, labels)))


class TestLogisticNewton:
    def test_scalar_logistic_matches_bisection(self):
        # TestLbfgs's one-sample case, solved by the block solver's Newton steps
        a_val, b_val, rho, c = 1.3, 1.0, 2.0, 1.0
        w, y, xp = 0.4, -0.2, 0.7

        def stationarity(t):
            s = -b_val * a_val / (1.0 + np.exp(b_val * a_val * t))
            return s + rho / 2 * (t - w + 2 / rho * y) + (t - xp) / c

        lo, hi = -50.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if stationarity(mid) > 0:
                hi = mid
            else:
                lo = mid
        t_star = 0.5 * (lo + hi)

        blk = BlockSpec(n=1, E=np.eye(1), objective=FunctionDescriptor(
            smooth=SmoothPart("logistic", np.array([[a_val]]), np.array([b_val]))))
        solver = NewtonBlockSolver(blk, penalty=rho / 2, prox_weight=1 / c,
                                  exact_tol=1e-12)
        cert = solver.solve(np.array([w - 2 / rho * y]), np.array([xp]))
        assert cert.subgrad_bound <= 1e-12 and cert.inner_iters > 0
        assert abs(float(cert.x[0]) - t_star) < 1e-8

    def test_general_coupling_agrees_with_lbfgs_oracle(self):
        rng = np.random.default_rng(20)
        blk = _logistic_block(rng.standard_normal((4, 6)))
        solver = NewtonBlockSolver(blk, penalty=1.5, prox_weight=0.2)
        assert not isinstance(solver._coupling, float)  # E^T E is not a multiple of I
        t, z = rng.standard_normal(4), 3.0 * rng.standard_normal(6)
        cert = solver.solve(t, z, accept=lambda x, bound: bound <= 1e-10)
        fun_grad = solver._fun_grad(t, z)
        assert cert.subgrad_bound == float(np.linalg.norm(fun_grad(cert.x)[1])) <= 1e-10
        assert 0 < cert.inner_iters <= 20
        x_ref, gn_ref, _ = lbfgs_minimize(lambda x: fun_grad(x)[:2], z, grad_tol=1e-10)
        assert gn_ref <= 1e-10
        # phi is 0.2-strongly convex: ||x - x_ref|| <= (||g|| + ||g_ref||) / 0.2
        assert np.linalg.norm(cert.x - x_ref) <= (cert.subgrad_bound + gn_ref) / 0.2

    def test_hessian_matches_finite_differences_of_the_gradient(self):
        rng = np.random.default_rng(22)
        for E in (np.eye(6), rng.standard_normal((4, 6))):
            solver = NewtonBlockSolver(_logistic_block(E), penalty=1.5, prox_weight=0.2)
            t, z = rng.standard_normal(E.shape[0]), rng.standard_normal(6)
            fun_grad = solver._fun_grad(t, z)
            x = rng.standard_normal(6)
            H = _formed_hessian(solver.block.objective.smooth.A, solver._coupling,
                                fun_grad(x)[2])
            fd = np.empty((6, 6))
            for i in range(6):
                e = np.zeros(6)
                e[i] = 1e-6
                fd[:, i] = (fun_grad(x + e)[1] - fun_grad(x - e)[1]) / 2e-6
            assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()

    def test_certificate_value_is_the_loss_at_the_returned_point(self):
        # without a rule a stalled solve returns the point of the smallest
        # gradient norm, often not the last one evaluated: then it carries no
        # value, rather than the loss at another point
        carried = missing = 0
        for seed in range(10):
            solver = NewtonBlockSolver(_logistic_block(np.eye(6)), penalty=1.0,
                                      prox_weight=0.1, exact_tol=0.0)
            rng = np.random.default_rng(seed)
            cert = solver.solve(rng.standard_normal(6), rng.standard_normal(6))
            if cert.value is None:
                missing += 1
            else:
                assert cert.value == solver.block.objective.value(cert.x)
                carried += 1
        assert carried > 0 and missing > 0

    def test_unattainable_threshold_raises_once_stalled(self):
        # at the rounding floor full steps pass Armijo with f unchanged; the
        # stall stop ends the solve long before the 500-step budget
        solver = NewtonBlockSolver(_logistic_block(np.eye(6)), penalty=1.0, prox_weight=0.1)
        rng = np.random.default_rng(23)
        with pytest.raises(BlockSolveError, match=r"after \d{1,2} of 500 steps"):
            solver.solve(rng.standard_normal(6), rng.standard_normal(6),
                         accept=lambda x, bound: bound <= 0.0)


class TestNewtonFactorRule:
    """``_factored_solver`` on the Newton path: Woodbury through
    ``sigma I + B B^T``, ``B = diag(sqrt h) A``, on wide blocks, the formed
    ``A^T diag(h) A + C`` on tall ones; and the loss memo at the warm start."""

    @staticmethod
    def _consensus_block(rows, cols, seed, sparse=False):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.6)
        A[:rows // 4] *= 1e3  # |A x| far beyond expit's range on these rows
        labels = np.where(rng.standard_normal(rows) >= 0.0, 1.0, -1.0)
        E = ag.Coupling.copies(cols, 3, rows=(1,))
        data = sp.csr_matrix(A) if sparse else A
        return BlockSpec(n=cols, E=E, objective=FunctionDescriptor(
            smooth=SmoothPart("logistic", data, labels))), rng

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_wide_block_direction_matches_formed_hessian(self, sparse, monkeypatch):
        factored = []

        def spy(M):
            factored.append(M.shape)
            return _cholesky_solver(M)

        monkeypatch.setattr(block_solvers, "_cholesky_solver", spy)
        block, rng = self._consensus_block(24, 90, seed=31, sparse=sparse)
        solver = NewtonBlockSolver(block, penalty=0.8, prox_weight=0.1)
        A, C = block.objective.smooth.A, solver._coupling
        assert isinstance(C, float)
        t, z = rng.standard_normal(3 * 90), rng.standard_normal(90)
        _, g, h = solver._fun_grad(t, z)(rng.standard_normal(90))
        assert np.count_nonzero(h == 0.0) >= 3  # curvature underflowed to 0
        direction = _factored_solver(A, C, h)(g)[0]
        assert factored == [(24, 24)]
        formed = _cholesky_solver(_formed_hessian(A, C, h))(g)
        assert np.linalg.norm(direction - formed) <= 1e-12 * np.linalg.norm(formed)

    def test_tall_block_factors_the_formed_hessian(self, monkeypatch):
        factored = []

        def spy(M):
            factored.append(M.shape)
            return _cholesky_solver(M)

        monkeypatch.setattr(block_solvers, "_cholesky_solver", spy)
        block, rng = self._consensus_block(60, 8, seed=32)
        solver = NewtonBlockSolver(block, penalty=0.8, prox_weight=0.1)
        A, C = block.objective.smooth.A, solver._coupling
        t, z = rng.standard_normal(3 * 8), rng.standard_normal(8)
        _, g, h = solver._fun_grad(t, z)(rng.standard_normal(8))
        direction = _factored_solver(A, C, h)(g)[0]
        assert factored == [(8, 8)]
        H = _formed_hessian(A, C, h)
        assert np.array_equal(direction, _cholesky_solver(H)(g))
        # the numbers of the cho_factor/cho_solve pair it replaces
        chol = scipy.linalg.cho_factor(H, lower=True)
        assert np.array_equal(direction, scipy.linalg.cho_solve(chol, g))

    @pytest.mark.parametrize("shape", [(60, 8), (12, 40)], ids=["tall", "wide"])
    def test_reused_solver_matches_fresh_solvers(self, shape):
        # the memo serves the warm start of every solve after the first; a
        # fresh solver given the reused one's kept factor evaluates it, and
        # the certificates agree bit for bit
        block, rng = self._consensus_block(*shape, seed=33)
        n = shape[1]
        reused = NewtonBlockSolver(block, penalty=0.8, prox_weight=0.1)
        z = np.zeros(n)
        kept = 0
        for k in range(6):
            t = rng.standard_normal(3 * n)
            rule = lambda x, bound, k=k: bound <= 10.0 ** -(k + 2)
            fresh = NewtonBlockSolver(block, penalty=0.8, prox_weight=0.1)
            fresh._factor = reused._factor
            kept += reused._factor is not None
            got = reused.solve(t, z, accept=rule)
            want = fresh.solve(t, z, accept=rule)
            assert np.array_equal(got.x, want.x)
            assert (got.subgrad_bound, got.inner_iters, got.factorizations) == (
                want.subgrad_bound, want.inner_iters, want.factorizations)
            z = got.x
        assert kept > 0  # some solves started from a factor kept by the last

    def test_memo_serves_only_an_equal_warm_start(self, monkeypatch):
        evaluated = []
        original = SmoothPart.value_and_gradient

        def spy(part, x, curvature=False):
            evaluated.append(np.array(x))
            return original(part, x, curvature)

        monkeypatch.setattr(SmoothPart, "value_and_gradient", spy)
        block, rng = self._consensus_block(40, 6, seed=34)
        solver = NewtonBlockSolver(block, penalty=0.8, prox_weight=0.1)
        x = solver.solve(rng.standard_normal(18), rng.standard_normal(6)).x
        assert np.array_equal(evaluated[-1], x)  # the memo holds the returned point
        evaluated.clear()
        x_next = solver.solve(rng.standard_normal(18), x).x
        assert len(evaluated) > 0 and not any(np.array_equal(v, x) for v in evaluated)
        assert np.array_equal(evaluated[-1], x_next)
        z = x_next.copy()
        z[3] = np.nextafter(z[3], np.inf)
        evaluated.clear()
        solver.solve(rng.standard_normal(18), z)
        assert np.array_equal(evaluated[0], z)


class TestKeptNewtonFactor:
    """Newton steps with the factor kept from the last factorization, across
    steps and solves: refactored after a step that backtracks, passes only
    at rounding level or cuts ``||g||`` by less than ``_CONTRACTION``, and
    at the same point when a kept factor's line search fails."""

    @staticmethod
    def _consensus(rows, cols, seed):
        A, labels = gen_logreg_data(rows, cols, seed)
        return ag.build_logreg_consensus(ag.partition_rows(A, labels, 3), lam=0.1)

    @pytest.mark.parametrize("kind", ["criterion_A", "criterion_B"])
    @pytest.mark.parametrize("shape", [(240, 8), (36, 40)], ids=["tall", "wide"])
    def test_stale_factor_never_returns_a_refused_point(self, kind, shape):
        problem = self._consensus(*shape, seed=41)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=25)
        sched = InexactSchedule.for_problem(problem, kind, eps0=1.0, gamma=1.5)
        checked, stale_only = [], 0

        class Recheck:
            def __init__(self, inner, blk):
                self.inner, self.blk = inner, blk

            def solve(self, t, z, accept=None):
                nonlocal stale_only
                cert = self.inner.solve(t, z, accept=accept)
                blk, x = self.blk, cert.x
                g = blk.objective.smooth_gradient(x) \
                    + self.inner.penalty * blk.E.apply_T(blk.E.apply(x) - t) \
                    + self.inner.prox_weight * (x - z)
                gnorm = float(np.linalg.norm(g))
                assert cert.subgrad_bound == gnorm and accept(x, gnorm)
                checked.append(gnorm)
                stale_only += cert.inner_iters > 0 and cert.factorizations == 0
                return cert

        solvers = ag.build_block_solvers(problem, params, sched)
        K = problem.num_blocks
        solvers[:K - 1] = [Recheck(sv, blk) for sv, blk in zip(solvers[:K - 1], problem.blocks)]
        _, trace = ag.run(problem, params, solvers, stop_mode="max_iters", schedule=sched)
        assert trace.stop_reason == "max_iters" and len(trace) == 25
        assert len(checked) == 25 * (K - 1)
        assert stale_only > 0  # solves whose every step used a kept factor
        factored = sum(m.factorizations for m in trace.metrics)
        assert 0 < factored < sum(m.inner_iters_total for m in trace.metrics)

    @pytest.mark.parametrize("shape", [(60, 8), (12, 40)], ids=["tall", "wide"])
    def test_failed_search_on_a_stale_factor_refactors(self, shape, monkeypatch):
        searches = []
        search = block_solvers._line_search

        def spy(*args):
            searches.append(search(*args))
            return searches[-1]

        monkeypatch.setattr(block_solvers, "_line_search", spy)
        block, rng = TestNewtonFactorRule._consensus_block(*shape, seed=35)
        n = shape[1]
        t, z = rng.standard_normal(3 * n), rng.standard_normal(n)
        rule = lambda x, bound: bound <= 1e-8
        stale = NewtonBlockSolver(block, penalty=0.8, prox_weight=0.1)
        stale._factor = lambda r: (-r, None)  # a kept factor whose direction is uphill
        got = stale.solve(t, z, accept=rule)
        assert searches[0] is None  # the kept factor's search failed ...
        want = NewtonBlockSolver(block, penalty=0.8, prox_weight=0.1).solve(
            t, z, accept=rule)
        # ... and the solve went on as a fresh one from the same point
        assert np.array_equal(got.x, want.x)
        assert (got.subgrad_bound, got.inner_iters, got.factorizations) == (
            want.subgrad_bound, want.inner_iters, want.factorizations)
        assert got.factorizations > 0 and rule(got.x, got.subgrad_bound)

    def test_factorizations_count_the_factors_made(self, monkeypatch):
        made = []
        factor = block_solvers._factored_solver

        def spy(A, C, h=None):
            made.append(A.shape)
            return factor(A, C, h)

        monkeypatch.setattr(block_solvers, "_factored_solver", spy)
        problem = self._consensus(240, 8, seed=42)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=20)
        sched = InexactSchedule.for_problem(problem, "criterion_A")
        _, trace = ag.run(problem, params, ag.build_block_solvers(problem, params, sched),
                          stop_mode="max_iters", schedule=sched)
        assert sum(m.factorizations for m in trace.metrics) == len(made) > 0


class TestCGLoop:
    """The conjugate-gradient loop returns the bits of
    ``oracles.conjugate_gradients``: the same ``x``, gradient norm, step
    count and fallback, under every kind of rule."""

    @staticmethod
    def _case(block=0, seed=0, prox_weight=0.1):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        rng = np.random.default_rng(seed)
        t, z = rng.standard_normal(100), rng.standard_normal(100)
        # one solver per loop, so neither sees the other's memo
        make = lambda: CgBlockSolver(problem.blocks[block], penalty=5.0,
                                        prox_weight=prox_weight)
        return problem, make(), make(), t, z

    @staticmethod
    def _compare(loop, oracle, t, z, done):
        calls = {"loop": 0, "oracle": 0}

        def counted(solver, key):
            fun_grad = solver._fun_grad(t, z)

            def f(x):
                calls[key] += 1
                return fun_grad(x)
            return f

        got = loop._conjugate_gradients(counted(loop, "loop"), z, done)
        want = conjugate_gradients(oracle, counted(oracle, "oracle"), z, done)
        assert (got[0] is None) == (want[0] is None)
        if want[0] is not None:
            assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        assert calls["loop"] == calls["oracle"]
        return want, calls["oracle"]

    def test_no_rule(self):
        _, loop, oracle, t, z = self._case()
        self._compare(loop, oracle, t, z, lambda x, gn: gn <= loop.exact_tol)

    @pytest.mark.parametrize("nu", [1, 4, 30])
    @pytest.mark.parametrize("kind", ["criterion_A", "criterion_B"])
    def test_schedule_rules(self, kind, nu):
        problem, loop, oracle, t, z = self._case(block=2, seed=nu)
        sched = InexactSchedule.for_problem(problem, kind, eps0=1e-5, gamma=2.0)
        state = make_initial_state(problem)
        rng = np.random.default_rng(nu)
        # x_prev one small step from z: criterion B scales by ||x - x_prev|| < 1
        x_prev = z + 1e-3 * rng.standard_normal(100)
        state = IterateState(w=state.w, x=(np.zeros(100), np.zeros(100), x_prev,
                                           np.zeros(100), np.zeros(100)),
                             eta=state.eta, zeta_bar=state.zeta_bar, y=state.y)
        params = ag.SolverParams(rho=10.0, c=10.0)
        rule = sched.accept_rules(nu, state, params, 5)[2]
        assert rule.limit > 0
        (_, _, steps), _ = self._compare(loop, oracle, t, z, rule)
        assert steps > 0

    def test_plain_lambda_without_limit(self):
        _, loop, oracle, t, z = self._case(seed=3)
        rule = lambda x, bound: bound <= 1e-9
        assert not hasattr(rule, "limit")
        (x, _, _), _ = self._compare(loop, oracle, t, z, rule)
        assert x is not None

    def test_small_budget(self):
        _, loop, oracle, t, z = self._case(seed=4)
        loop.cg_budget = oracle.cg_budget = 5
        (x, _, steps), _ = self._compare(loop, oracle, t, z, lambda x, b: b <= 1e-9)
        assert x is None and steps == 5

    def test_floor_stop_fallback(self):
        _, loop, oracle, t, z = self._case(seed=5)
        (x, _, steps), calls = self._compare(loop, oracle, t, z, lambda x, b: b <= 1e-30)
        assert x is None and 0 < steps < loop.cg_budget and calls == 1

    @pytest.mark.parametrize("block, seed, accepted",
                             [(1, 1, True), (2, 2, None), (4, 24, False)])
    def test_replaced_residual(self, block, seed, accepted):
        # the recursive residual passes, the recomputed gradient does not, the
        # residual is replaced; the second pass is accepted or refused again.
        # (2, 2) ends either way by the last bits of its gradient, which
        # depend on the BLAS thread count; (1, 1) and (4, 24) end the same
        # way with one BLAS thread or several
        _, loop, oracle, t, z = self._case(block=block, seed=seed)
        asked = []

        def rule(x, bound):
            asked.append((bound, bound <= 1e-12))
            return asked[-1][1]

        (x, gnorm, steps), calls = self._compare(loop, oracle, t, z, rule)
        assert calls == 3
        if accepted is not None:
            assert (x is not None) == accepted
        if accepted is False:
            # refused again: the last question was the second recomputed
            # gradient norm, well before the step budget
            assert asked[-1] == (gnorm, False) and gnorm > 1e-12
            assert steps < oracle.cg_budget


def logistic_phi_gradient_fd_check(block, t, z, penalty, prox_weight, rng):
    solver = NewtonBlockSolver(block, penalty, prox_weight)
    fun_grad = solver._fun_grad(t, z)
    x = rng.standard_normal(block.n) * 0.5
    _, g, _ = fun_grad(x)
    fd = np.empty_like(g)
    for i in range(block.n):
        h = 1e-6 * (1.0 + abs(x[i]))
        e = np.zeros(block.n)
        e[i] = h
        fp = fun_grad(x + e)[0]
        fm = fun_grad(x - e)[0]
        fd[i] = (fp - fm) / (2 * h)
    denom = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(g - fd) / denom) <= 1e-6


class TestPerBlockSweep:
    """Every block's ``solve`` gives the certificate of solving it by
    ``oracles.conjugate_gradients`` plus the exact fallback, bit for bit,
    and asks its rule what that loop asks, but for the bounds above the
    rule's ``limit``."""

    @staticmethod
    def _solo(solver, t, z, rule):
        done = (lambda x, gn: gn <= solver.exact_tol) if rule is None else rule
        x, gnorm, iters = conjugate_gradients(solver, solver._fun_grad(t, z), z, done)
        if x is None:
            return BlockSolveCertificate(x=solver._fallback.solve(t, z).x, subgrad_bound=0.0,
                                         inner_iters=iters, exact_fallback=True)
        return BlockSolveCertificate(x=x, subgrad_bound=gnorm, inner_iters=iters,
                                     value=solver.block.objective.smooth.value(x))

    @staticmethod
    def _logged(rule, log):
        """``rule`` that appends each ``(bound, verdict)`` to ``log``; it
        keeps the rule's ``limit``.  A NaN bound is logged as ``math.nan``,
        so that two logs of it compare equal."""
        def logged(x, bound):
            log.append((math.nan if math.isnan(bound) else bound, bool(rule(x, bound))))
            return log[-1][1]

        if hasattr(rule, "limit"):
            logged.limit = rule.limit
        return logged

    def _check(self, problem, targets, zs, rules, penalty=5.0, prox_weight=0.1,
               budgets=None):
        """One sweep of ``solve`` calls against solo solves; returns the
        sweep's certificates and each block's number of gradient
        evaluations."""
        K = problem.num_blocks
        # separate solvers, so neither side sees the other's memo
        swept, solo = (cg_solvers(problem, penalty, prox_weight) for _ in range(2))
        for k, budget in (budgets or {}).items():
            for side in (swept, solo):
                side[k].cg_budget = budget
        calls = [0] * K

        def counted(k, make):
            def fun_grad_factory(t, z):
                fun_grad = make(t, z)

                def f(x):
                    calls[k] += 1
                    return fun_grad(x)
                return f
            return fun_grad_factory

        for k, sv in enumerate(swept):
            if isinstance(sv, CgBlockSolver):
                sv._fun_grad = counted(k, sv._fun_grad)
        logs = {side: [[] for _ in range(K)] for side in ("swept", "solo")}
        wrap = lambda side: [None if rules[k] is None else
                             self._logged(rules[k], logs[side][k]) for k in range(K)]
        swept_rules, solo_rules = wrap("swept"), wrap("solo")
        certs = [sv.solve(targets[k], zs[k], accept=swept_rules[k])
                 for k, sv in enumerate(swept)]
        for k in range(K):
            if isinstance(solo[k], CgBlockSolver):
                want = self._solo(solo[k], targets[k], zs[k], solo_rules[k])
            else:
                want = solo[k].solve(targets[k], zs[k], accept=solo_rules[k])
            assert certs[k].x.tobytes() == want.x.tobytes(), k
            assert (certs[k].subgrad_bound, certs[k].inner_iters, certs[k].exact_fallback,
                    certs[k].value) \
                == (want.subgrad_bound, want.inner_iters, want.exact_fallback, want.value), k
        # after the warm start, the solo loop also asks every bound above a
        # rule's limit, all refused; solve asks the others, in the same order
        for k, rule in enumerate(rules):
            if rule is None:
                continue
            limit = getattr(rule, "limit", math.inf)
            first, *rest = logs["solo"][k]
            assert all(ok is False for bound, ok in rest if bound > limit)
            assert logs["swept"][k] == [first] + [q for q in rest if q[0] <= limit]
        return certs, calls

    @staticmethod
    def _exchange_sweep(seed):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        rng = np.random.default_rng(seed)
        return problem, rng.standard_normal((5, 100)), rng.standard_normal((5, 100))

    @pytest.mark.parametrize("nu", [1, 4, 30])
    @pytest.mark.parametrize("kind", ["criterion_A", "criterion_B"])
    def test_schedule_rules(self, kind, nu):
        problem, targets, zs = self._exchange_sweep(nu)
        sched = InexactSchedule.for_problem(problem, kind, eps0=1e-5, gamma=2.0)
        rng = np.random.default_rng(100 + nu)
        # x_prev one small step from z: criterion B scales by ||x - x_prev|| < 1
        x_prev = tuple(zs + 1e-3 * rng.standard_normal((5, 100)))
        state = replace(make_initial_state(problem), x=x_prev)
        rules = sched.accept_rules(nu, state, ag.SolverParams(rho=10.0, c=10.0), 5)
        certs, _ = self._check(problem, targets, zs, rules)
        # the blocks take different step counts
        assert len({c.inner_iters for c in certs}) > 1 and min(c.inner_iters for c in certs) > 0

    def test_no_rules(self):
        problem, targets, zs = self._exchange_sweep(7)
        certs, _ = self._check(problem, targets, zs, [None] * 5)
        assert len({c.inner_iters for c in certs}) > 1

    def test_every_event_in_one_sweep(self):
        # per block the (block, seed) of TestCGLoop: block 0 refuses the
        # floor, block 1 passes after a replaced residual, block 2 spends a
        # budget of 5 steps, block 3 is accepted at its warm start and block 4
        # refuses its replaced residual again
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        seeds = [5, 1, 4, 0, 24]
        draws = [np.random.default_rng(s).standard_normal((2, 100)) for s in seeds]
        targets, zs = np.array([d[0] for d in draws]), np.array([d[1] for d in draws])
        rules = [lambda x, b: b <= 1e-30, lambda x, b: b <= 1e-12,
                 lambda x, b: b <= 1e-9, lambda x, b: True, lambda x, b: b <= 1e-12]
        certs, calls = self._check(problem, targets, zs, rules, budgets={2: 5})
        steps = [c.inner_iters for c in certs]
        assert [c.exact_fallback for c in certs] == [True, False, True, False, True]
        assert calls == [1, 3, 1, 1, 3]
        assert steps[2] == 5 and steps[3] == 0
        assert all(5 < steps[k] < CgBlockSolver.cg_budget for k in (0, 1, 4))

    def test_stopped_blocks_leave_the_others_alone(self):
        # block 1's products go non-finite in the first step (a NaN target)
        # and it falls back; block 3 has zero data and t = z = 0, so its
        # gradient is exactly zero and it is accepted at its warm start.
        # The other blocks keep their bits, and nothing warns
        problem, targets, zs = self._exchange_sweep(9)
        zero = problem.blocks[3].objective.smooth
        problem = replace(problem, blocks=problem.blocks[:3] + (replace(
            problem.blocks[3], objective=FunctionDescriptor(smooth=SmoothPart(
                "least_squares", zero.A, np.zeros_like(zero.b)))),) + problem.blocks[4:])
        targets[1, 7] = np.nan
        targets[3] = zs[3] = 0.0
        rules = [lambda x, b: b <= 1e-9, lambda x, b: b <= 1e-9,
                 lambda x, b: b <= 1e-6, lambda x, b: b == 0.0, lambda x, b: b <= 1e-8]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            certs, calls = self._check(problem, targets, zs, rules)
        assert [c.exact_fallback for c in certs] == [False, True, False, False, False]
        assert (certs[1].inner_iters, certs[3].inner_iters) == (1, 0)
        assert calls[1] == calls[3] == 1 and certs[3].subgrad_bound == 0.0
        assert np.isnan(certs[1].x).all() and not certs[3].x.any()
        assert all(certs[k].inner_iters > 1 and np.isfinite(certs[k].x).all()
                   for k in (0, 2, 4))

    def test_two_dimensions_and_a_closed_form_block(self):
        rng = np.random.default_rng(11)
        m = 6

        def quad(n):
            return BlockSpec(n=n, E=rng.standard_normal((m, n)), objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", rng.standard_normal((9, n)),
                                  rng.standard_normal(9))))

        l1 = BlockSpec(n=m, E=ag.Coupling.identity(m, sign=-1),
                       objective=FunctionDescriptor(l1_scale=0.3))
        problem = ag.Problem(blocks=(quad(7), quad(5), l1, quad(7), quad(5)), q=np.zeros(m))
        solvers = cg_solvers(problem, 1.5, 0.5)
        assert isinstance(solvers[2], L1ProxBlockSolver)
        targets = rng.standard_normal((5, m))
        zs = [rng.standard_normal(blk.n) for blk in problem.blocks]
        rules = [lambda x, b: b <= 1e-10, lambda x, b: b <= 1e-6, None,
                 lambda x, b: b <= 1e-8, None]
        self._check(problem, targets, zs, rules, penalty=1.5, prox_weight=0.5)

    def test_blocks_solved_out_of_order(self):
        # four of the five blocks, out of block order: each keeps the bits of
        # solving it alone
        problem, targets, zs = self._exchange_sweep(5)
        order = [3, 0, 4, 1]
        rule = lambda x, b: b <= 1e-9
        swept, solo = (cg_solvers(problem, 5.0, 0.1) for _ in range(2))
        certs = [swept[k].solve(targets[k], zs[k], accept=rule) for k in order]
        for k, got in zip(order, certs):
            want = self._solo(solo[k], targets[k], zs[k], rule)
            assert got.x.tobytes() == want.x.tobytes(), k
            assert (got.subgrad_bound, got.inner_iters, got.exact_fallback, got.value) \
                == (want.subgrad_bound, want.inner_iters, want.exact_fallback, want.value), k
        assert len({c.inner_iters for c in certs}) > 1

    def test_each_solver_forms_its_own_hessian_on_first_solve(self):
        problem, targets, zs = self._exchange_sweep(3)
        solvers = cg_solvers(problem, 5.0, 0.1)
        assert all("_hess" not in vars(sv) for sv in solvers)
        for k, sv in enumerate(solvers):
            sv.solve(targets[k], zs[k], accept=lambda x, b: b <= 1e-9)
        for k, sv in enumerate(solvers):
            H = vars(sv)["_hess"]
            want = _formed_hessian(problem.blocks[k].objective.smooth.A, sv._coupling)
            assert H.shape == (100, 100) and H.tobytes() == want.tobytes()
            assert not any(np.shares_memory(H, other._hess) for other in solvers[k + 1:])

    def test_repeated_solves_match_a_solver_built_alone(self):
        # a solver from the dispatcher, solving twice with its H kept, and a
        # fresh solver built alone for each solve return the same bits
        problem, targets, zs = self._exchange_sweep(6)
        rule = lambda x, b: b <= 1e-9
        kept = cg_solvers(problem, 5.0, 0.1)[2]
        rng = np.random.default_rng(60)
        for t, z in ((targets[2], zs[2]), (rng.standard_normal(100), rng.standard_normal(100))):
            got = kept.solve(t, z, accept=rule)
            want = CgBlockSolver(problem.blocks[2], 5.0, 0.1).solve(t, z, accept=rule)
            assert got.x.tobytes() == want.x.tobytes()
            assert (got.subgrad_bound, got.inner_iters, got.exact_fallback, got.value) \
                == (want.subgrad_bound, want.inner_iters, want.exact_fallback, want.value)
            assert got.inner_iters > 0

    def test_whole_run_matches_a_per_block_sweep(self):
        # ada.run with conjugate-gradient solvers against the same run whose
        # blocks are solved by the oracle loop
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1000)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=45)
        sched = InexactSchedule.for_problem(problem, "criterion_B", eps0=1e-5, gamma=2.0)
        solo = self._solo

        class PerBlock:
            def __init__(self, inner):
                self.inner = inner

            def solve(self, t, z, accept=None):
                return solo(self.inner, t, z, accept)

        runs = [ag.run(problem, params, solvers, stop_mode="max_iters", schedule=sched)
                for solvers in (iterative_solvers(problem, params),
                                [PerBlock(s) for s in iterative_solvers(problem, params)])]
        (final, trace), (final_solo, trace_solo) = runs
        assert [repr(m) for m in trace.metrics] == [repr(m) for m in trace_solo.metrics]
        for a, b in ((final.w, final_solo.w), (final.y, final_solo.y),
                     (final.eta, final_solo.eta), (final.zeta_bar, final_solo.zeta_bar)):
            assert a.tobytes() == b.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(final.x, final_solo.x))
        assert sum(m.fallbacks for m in trace.metrics) > 0


class TestDispatcher:
    """``build_penalized_solvers`` picks the solver class from the kind of a
    block's loss; each iterative class takes only its own kind."""

    @staticmethod
    def _problem():
        rng = np.random.default_rng(12)
        m = 6

        def smooth(kind, n):
            A = rng.standard_normal((9, n))
            b = np.where(rng.standard_normal(9) >= 0.0, 1.0, -1.0) \
                if kind == "logistic" else rng.standard_normal(9)
            return BlockSpec(n=n, E=rng.standard_normal((m, n)), objective=FunctionDescriptor(
                smooth=SmoothPart(kind, A, b)))

        l1 = BlockSpec(n=m, E=ag.Coupling.identity(m, sign=-1),
                       objective=FunctionDescriptor(l1_scale=0.3))
        return ag.Problem(blocks=(l1, smooth("logistic", 5), smooth("least_squares", 7),
                                  smooth("least_squares", 7)), q=np.zeros(m))

    @pytest.mark.parametrize("iterative, classes", [
        (False, [L1ProxBlockSolver, NewtonBlockSolver, QuadBlockSolver, QuadBlockSolver])])
    def test_one_class_per_loss_kind(self, iterative, classes):
        solvers = build_penalized_solvers(self._problem(), 1.5, 0.5)
        assert [type(sv) for sv in solvers] == classes

    def test_iterative_classes_refuse_other_kinds(self):
        l1, logistic, quad, _ = self._problem().blocks
        for block in (logistic, l1):
            with pytest.raises(ValueError, match="least_squares"):
                CgBlockSolver(block, 1.5, 0.5)
        for block in (quad, l1):
            with pytest.raises(ValueError, match="logistic"):
                NewtonBlockSolver(block, 1.5, 0.5)

    def test_ada_step_solves_each_block_once_in_order(self):
        # every kind of solver is asked once, in block order, with its own
        # target, warm start and rule
        problem = self._problem()
        solvers = cg_solvers(problem, 1.5, 0.5)
        params = ag.SolverParams(rho=1.5, c=1.0)
        rng = np.random.default_rng(13)
        w = rng.standard_normal((4, 6))
        state = replace(make_initial_state(problem), w=w - w.mean(axis=0),
                        y=rng.standard_normal((4, 6)),
                        x=tuple(rng.standard_normal(blk.n) for blk in problem.blocks))
        rules = [None, lambda x, b: b <= 1e-8, lambda x, b: b <= 1e-9, None]
        asked = []

        def spy(k, solve):
            def f(t, z, accept=None):
                asked.append((k, t.copy(), z, accept))
                return solve(t, z, accept=accept)
            return f

        for k, sv in enumerate(solvers):
            sv.solve = spy(k, sv.solve)
        new_state, metrics = ag.ada_step(state, problem, params, solvers, rules)
        assert [a[0] for a in asked] == [0, 1, 2, 3]
        targets = _block_targets(state, problem, params.rho)
        for k, t, z, accept in asked:
            assert t.tobytes() == targets[k].tobytes() and z is state.x[k]
            assert accept is rules[k]
        assert [x.shape for x in new_state.x] == [(blk.n,) for blk in problem.blocks]
        assert len(metrics.per_block_cert) == 4


class TestBlockSolverObjects:
    def test_lbfgs_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((30, 5))
        labels = np.sign(rng.standard_normal(30))
        labels[labels == 0] = 1.0
        block = BlockSpec(n=5, E=np.eye(5), objective=FunctionDescriptor(
            smooth=SmoothPart("logistic", A, labels)))
        logistic_phi_gradient_fd_check(block, t=rng.standard_normal(5),
                                       z=rng.standard_normal(5),
                                       penalty=1.0, prox_weight=0.2, rng=rng)

    def test_quad_solver_zeroes_phi_gradient(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((8, 5))
        b = rng.standard_normal(8)
        block = BlockSpec(n=5, E=-np.eye(5), objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", A, b)))
        solver = QuadBlockSolver(block, penalty=1.5, prox_weight=0.4)
        t = rng.standard_normal(5)
        z = rng.standard_normal(5)
        cert = solver.solve(t, z)
        grad = A.T @ (A @ cert.x - b) + 1.5 * block.E.apply_T(block.E.apply(cert.x) - t) \
            + 0.4 * (cert.x - z)
        assert np.linalg.norm(grad) <= 1e-9 * (1 + np.linalg.norm(cert.x))
        assert cert.subgrad_bound == 0.0

    def test_general_quad_matches_specialized(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((8, 5))
        b = rng.standard_normal(8)
        # scalar Gram (cached primal solve), then a general coupling (Cholesky
        # of A^T A + p E^T E + s I); both against the dense oracle
        for E in (np.eye(5), rng.standard_normal((3, 5))):
            block = BlockSpec(n=5, E=E, objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", A, b)))
            problem = ag.Problem(blocks=(block, BlockSpec(
                n=E.shape[0], E=-np.eye(E.shape[0]),
                objective=FunctionDescriptor(l1_scale=0.5))), q=np.zeros(E.shape[0]))
            solver = ag.build_penalized_solvers(problem, 1.2, 0.3)[0]
            fallback = CgBlockSolver(block, 1.2, 0.3)._fallback
            assert isinstance(solver, QuadBlockSolver)
            assert isinstance(fallback, QuadBlockSolver)
            t, z = rng.standard_normal(E.shape[0]), rng.standard_normal(5)
            x_ref = GeneralQuadBlockSolver(block, 1.2, 0.3).solve(t, z).x
            for s in (solver, fallback):
                x = s.solve(t, z).x
                assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12)])  # primal, Woodbury
    def test_sparse_data_matches_dense(self, shape):
        rng = np.random.default_rng(14)
        A = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
        b = rng.standard_normal(shape[0])
        n = shape[1]
        for E in (-np.eye(n), rng.standard_normal((3, n))):
            t, z = rng.standard_normal(E.shape[0]), rng.standard_normal(n)
            x = [QuadBlockSolver(BlockSpec(n=n, E=E, objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", data, b))), 1.2, 0.3).solve(t, z).x
                for data in (A, sp.csr_matrix(A))]
            assert np.linalg.norm(x[1] - x[0]) <= 1e-12 * np.linalg.norm(x[0])

    def test_sparse_matrix_coupling_is_not_densified(self, monkeypatch):
        # p E^T E + s I for a 1%-dense CSR coupling: only the n-by-n product
        # may be densified, never the m-by-n E
        shapes = []
        for cls in (sp.csr_matrix, sp.csc_matrix, ag.Coupling):
            def spy(self, *args, _orig=cls.toarray, **kwargs):
                shapes.append(self.shape)
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(cls, "toarray", spy)
        E = sp.random(2000, 50, density=0.01, random_state=23, format="csr")
        C = _coupling_hessian(ag.Coupling(matrix=E), 1.2, 0.3)
        assert (2000, 50) not in shapes
        monkeypatch.undo()
        C_dense = _coupling_hessian(ag.Coupling(matrix=E.toarray()), 1.2, 0.3)
        assert np.linalg.norm(C - C_dense) <= 1e-14 * np.linalg.norm(C_dense)

    def test_l1_solver_stacked_coupling(self):
        # consensus-style coupling: E = -[I; I], alpha = 2
        rng = np.random.default_rng(12)
        E = -np.vstack([np.eye(3), np.eye(3)])
        block = BlockSpec(n=3, E=E, objective=FunctionDescriptor(l1_scale=0.5))
        assert e_gram_scale(E) == pytest.approx(2.0)
        solver = L1ProxBlockSolver(block, penalty=1.0, prox_weight=0.25)
        t = rng.standard_normal(6)
        z = rng.standard_normal(3)
        cert = solver.solve(t, z)
        # check against the subgradient condition of the full objective
        g_smooth = 1.0 * (E.T @ (E @ cert.x - t)) + 0.25 * (cert.x - z)
        assert subgrad_dist_l1(cert.x, g_smooth, 0.5) < 1e-12

    def test_factory_covers_descriptor_space(self, small_lasso):
        params = ag.SolverParams(rho=2.0, c=1.0, max_iters=5)
        solvers = ag.build_block_solvers(small_lasso, params)
        assert isinstance(solvers[0], QuadBlockSolver)
        assert isinstance(solvers[1], L1ProxBlockSolver)


class TestScalarGramCoupling:
    """``_fun_grad``'s coupling term under a structured coupling, ``(p/2)
    (alpha ||x - c||^2 + ||t - E c||^2)`` with ``c = E^T t / alpha``,
    against the same block on ``Coupling(matrix=E.toarray())``, which forms
    ``E x - t`` at every evaluation."""

    @pytest.mark.parametrize("E", [
        ag.Coupling.identity(12),
        ag.Coupling.identity(12, sign=-1),
        ag.Coupling.copies(12, 4, rows=(2,)),
        ag.Coupling.copies(12, 4, rows=(1,), sign=-1),
        ag.Coupling.copies(12, 4, rows=(0, 2, 3)),
        ag.Coupling.copies(12, 4, rows=(0, 1, 3), sign=-1),
    ], ids=repr)
    def test_matches_the_matrix_coupling(self, E):
        rng = np.random.default_rng(47)
        A, labels = gen_logreg_data(30, 12, seed=47)
        smooth = SmoothPart("logistic", A, labels)
        structured = NewtonBlockSolver(BlockSpec(12, E, FunctionDescriptor(smooth)),
                                       penalty=0.7, prox_weight=0.2)
        general = NewtonBlockSolver(
            BlockSpec(12, ag.Coupling(matrix=E.toarray()), FunctionDescriptor(smooth)),
            penalty=0.7, prox_weight=0.2)
        alpha = E.gram_scale
        assert alpha == len(E.rows)
        t, z = rng.standard_normal(E.shape[0]), rng.standard_normal(12)
        fast, slow = structured._fun_grad(t, z), general._fun_grad(t, z)
        for _ in range(5):
            x = rng.standard_normal(12) * 3.0
            (f1, g1, h1), (f2, g2, h2) = fast(x), slow(x)
            assert f1 == pytest.approx(f2, rel=1e-13, abs=0)
            assert np.linalg.norm(g1 - g2) <= 1e-13 * np.linalg.norm(g2)
            assert np.array_equal(h1, h2)
            if alpha == 1.0:
                assert np.array_equal(g1, g2)
