import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import augdecomp as ag
from augdecomp import block_solvers
from augdecomp.block_solvers import (BlockSolveError, CompositeBlockSolver,
                                     L1ProxBlockSolver, LbfgsBlockSolver,
                                     QuadBlockSolver, _cholesky_solver,
                                     _coupling_hessian, _formed_hessian,
                                     _hessian_solver, soft_threshold,
                                     subgrad_dist_l1)
from augdecomp.coupling import e_gram_scale
from augdecomp.inexact import InexactSchedule
from augdecomp.model import (BlockSpec, FunctionDescriptor, IterateState,
                             SmoothPart, make_initial_state)
from oracles import (GeneralQuadBlockSolver, conjugate_gradients,
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
        x_w = dual._solve(r)
        x_direct = np.linalg.solve(A.T @ A + sigma * np.eye(50), r)
        assert np.linalg.norm(x_w - x_p) <= 1e-9 * (1 + np.linalg.norm(x_p))
        assert np.allclose(x_w, x_direct, rtol=1e-9)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((12, 8))
        solver = identity_quad_solver(A, 2.2, rng.standard_normal(12))
        r = rng.standard_normal(8)
        x = solver._solve(r)
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
        solve = solver._solve
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
        solver = LbfgsBlockSolver(blk, penalty=rho / 2, prox_weight=1 / c,
                                  exact_tol=1e-12)
        cert = solver.solve(np.array([w - 2 / rho * y]), np.array([xp]))
        assert cert.subgrad_bound <= 1e-12 and cert.inner_iters > 0
        assert abs(float(cert.x[0]) - t_star) < 1e-8

    def test_general_coupling_agrees_with_lbfgs_oracle(self):
        rng = np.random.default_rng(20)
        blk = _logistic_block(rng.standard_normal((4, 6)))
        solver = LbfgsBlockSolver(blk, penalty=1.5, prox_weight=0.2)
        assert solver._shift is None  # E^T E is not a multiple of I
        t, z = rng.standard_normal(4), 3.0 * rng.standard_normal(6)
        cert = solver.solve(t, z, accept=lambda x, bound: bound <= 1e-10)
        fun_grad = solver._fun_grad(t, z)
        assert cert.subgrad_bound == float(np.linalg.norm(fun_grad(cert.x)[1])) <= 1e-10
        assert 0 < cert.inner_iters <= 20
        x_ref, gn_ref, _ = lbfgs_minimize(fun_grad, z, grad_tol=1e-10)
        assert gn_ref <= 1e-10
        # phi is 0.2-strongly convex: ||x - x_ref|| <= (||g|| + ||g_ref||) / 0.2
        assert np.linalg.norm(cert.x - x_ref) <= (cert.subgrad_bound + gn_ref) / 0.2

    def test_hessian_matches_finite_differences_of_the_gradient(self):
        rng = np.random.default_rng(22)
        for E in (np.eye(6), rng.standard_normal((4, 6))):
            solver = LbfgsBlockSolver(_logistic_block(E), penalty=1.5, prox_weight=0.2)
            t, z = rng.standard_normal(E.shape[0]), rng.standard_normal(6)
            fun_grad = solver._fun_grad(t, z, curvature=True)
            x = rng.standard_normal(6)
            H = solver._hessian(fun_grad(x)[2])
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
            solver = LbfgsBlockSolver(_logistic_block(np.eye(6)), penalty=1.0,
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
        solver = LbfgsBlockSolver(_logistic_block(np.eye(6)), penalty=1.0, prox_weight=0.1)
        rng = np.random.default_rng(23)
        with pytest.raises(BlockSolveError, match=r"after \d{1,2} of 500 steps"):
            solver.solve(rng.standard_normal(6), rng.standard_normal(6),
                         accept=lambda x, bound: bound <= 0.0)


class TestNewtonFactorRule:
    """``_hessian_solver`` on the Newton path: Woodbury through
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
        solver = LbfgsBlockSolver(block, penalty=0.8, prox_weight=0.1)
        A, C = block.objective.smooth.A, solver._coupling
        assert isinstance(C, float)
        t, z = rng.standard_normal(3 * 90), rng.standard_normal(90)
        _, g, h = solver._fun_grad(t, z, curvature=True)(rng.standard_normal(90))
        assert np.count_nonzero(h == 0.0) >= 3  # curvature underflowed to 0
        direction = _hessian_solver(A, C, h)(g)
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
        solver = LbfgsBlockSolver(block, penalty=0.8, prox_weight=0.1)
        A, C = block.objective.smooth.A, solver._coupling
        t, z = rng.standard_normal(3 * 8), rng.standard_normal(8)
        _, g, h = solver._fun_grad(t, z, curvature=True)(rng.standard_normal(8))
        direction = _hessian_solver(A, C, h)(g)
        assert factored == [(8, 8)]
        H = _formed_hessian(A, C, h)
        assert np.array_equal(direction, _cholesky_solver(H)(g))
        # the numbers of the cho_factor/cho_solve pair it replaces
        chol = scipy.linalg.cho_factor(H, lower=True)
        assert np.array_equal(direction, scipy.linalg.cho_solve(chol, g))

    @pytest.mark.parametrize("shape", [(60, 8), (12, 40)], ids=["tall", "wide"])
    def test_reused_solver_matches_fresh_solvers(self, shape):
        # the memo serves the warm start of every solve after the first; a
        # fresh solver evaluates it, and the certificates agree bit for bit
        block, rng = self._consensus_block(*shape, seed=33)
        n = shape[1]
        reused = LbfgsBlockSolver(block, penalty=0.8, prox_weight=0.1)
        z = np.zeros(n)
        for k in range(6):
            t = rng.standard_normal(3 * n)
            rule = lambda x, bound, k=k: bound <= 10.0 ** -(k + 2)
            got = reused.solve(t, z, accept=rule)
            want = LbfgsBlockSolver(block, penalty=0.8, prox_weight=0.1).solve(
                t, z, accept=rule)
            assert np.array_equal(got.x, want.x)
            assert (got.subgrad_bound, got.inner_iters) == (want.subgrad_bound,
                                                            want.inner_iters)
            z = got.x

    def test_memo_serves_only_an_equal_warm_start(self, monkeypatch):
        evaluated = []
        original = SmoothPart.value_and_gradient

        def spy(part, x, curvature=False):
            evaluated.append(np.array(x))
            return original(part, x, curvature)

        monkeypatch.setattr(SmoothPart, "value_and_gradient", spy)
        block, rng = self._consensus_block(40, 6, seed=34)
        solver = LbfgsBlockSolver(block, penalty=0.8, prox_weight=0.1)
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


class TestLeanCGKernel:
    """The conjugate-gradient kernel returns the bits of the loop it replaced
    (``oracles.conjugate_gradients``): the same ``x``, gradient norm, step
    count and fallback, under every kind of rule."""

    @staticmethod
    def _case(block=0, seed=0, prox_weight=0.1):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        rng = np.random.default_rng(seed)
        t, z = rng.standard_normal(100), rng.standard_normal(100)
        # one solver per kernel, so neither sees the other's memo
        make = lambda: LbfgsBlockSolver(problem.blocks[block], penalty=5.0,
                                        prox_weight=prox_weight)
        return problem, make(), make(), t, z

    @staticmethod
    def _compare(lean, old, t, z, done):
        calls = {"lean": 0, "old": 0}

        def counted(solver, key):
            fun_grad = solver._fun_grad(t, z)

            def f(x):
                calls[key] += 1
                return fun_grad(x)
            return f

        got = lean._conjugate_gradients(counted(lean, "lean"), z, done)
        want = conjugate_gradients(old, counted(old, "old"), z, done)
        assert (got[0] is None) == (want[0] is None)
        if want[0] is not None:
            assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        assert calls["lean"] == calls["old"]
        return want, calls["old"]

    def test_no_rule(self):
        _, lean, old, t, z = self._case()
        self._compare(lean, old, t, z, lambda x, gn: gn <= lean.exact_tol)

    @pytest.mark.parametrize("nu", [1, 4, 30])
    @pytest.mark.parametrize("kind", ["criterion_A", "criterion_B"])
    def test_schedule_rules(self, kind, nu):
        problem, lean, old, t, z = self._case(block=2, seed=nu)
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
        (_, _, steps), _ = self._compare(lean, old, t, z, rule)
        assert steps > 0

    def test_plain_lambda_without_limit(self):
        _, lean, old, t, z = self._case(seed=3)
        rule = lambda x, bound: bound <= 1e-9
        assert not hasattr(rule, "limit")
        (x, _, _), _ = self._compare(lean, old, t, z, rule)
        assert x is not None

    def test_small_budget(self):
        _, lean, old, t, z = self._case(seed=4)
        lean.cg_budget = old.cg_budget = 5
        (x, _, steps), _ = self._compare(lean, old, t, z, lambda x, b: b <= 1e-9)
        assert x is None and steps == 5

    def test_floor_stop_fallback(self):
        _, lean, old, t, z = self._case(seed=5)
        (x, _, steps), calls = self._compare(lean, old, t, z, lambda x, b: b <= 1e-30)
        assert x is None and 0 < steps < lean.cg_budget and calls == 1

    @pytest.mark.parametrize("block, seed, accepted", [(1, 1, True), (2, 2, False)])
    def test_replaced_residual(self, block, seed, accepted):
        # the recursive residual passes, the recomputed gradient does not, the
        # residual is replaced; the second pass is accepted or refused again
        _, lean, old, t, z = self._case(block=block, seed=seed)
        (x, _, _), calls = self._compare(lean, old, t, z, lambda x, b: b <= 1e-12)
        assert calls == 3 and (x is not None) == accepted


def logistic_phi_gradient_fd_check(block, t, z, penalty, prox_weight, rng):
    solver = LbfgsBlockSolver(block, penalty, prox_weight)
    fun_grad = solver._fun_grad(t, z)
    x = rng.standard_normal(block.n) * 0.5
    _, g = fun_grad(x)
    fd = np.empty_like(g)
    for i in range(block.n):
        h = 1e-6 * (1.0 + abs(x[i]))
        e = np.zeros(block.n)
        e[i] = h
        fp, _ = fun_grad(x + e)
        fm, _ = fun_grad(x - e)
        fd[i] = (fp - fm) / (2 * h)
    denom = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(g - fd) / denom) <= 1e-6


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
            fallback = LbfgsBlockSolver(block, 1.2, 0.3)._fallback
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
        t, z = rng.standard_normal(n), rng.standard_normal(n)
        x = [CompositeBlockSolver(BlockSpec(n=n, E=np.eye(n), objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", data, b), l1_scale=0.1)), 1.0, 0.5,
            exact_tol=1e-12).solve(t, z).x for data in (A, sp.csr_matrix(A))]
        assert np.linalg.norm(x[1] - x[0]) <= 1e-12 * np.linalg.norm(x[0])

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

    def test_composite_solver_certificate(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        block = BlockSpec(n=4, E=np.eye(4), objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", A, b), l1_scale=0.8))
        solver = CompositeBlockSolver(block, penalty=1.0, prox_weight=0.5,
                                      exact_tol=1e-11)
        t, z = rng.standard_normal(4), rng.standard_normal(4)
        cert = solver.solve(t, z)
        assert cert.subgrad_bound <= 1e-11
        g = A.T @ (A @ cert.x - b) + (cert.x - t) + 0.5 * (cert.x - z)
        assert subgrad_dist_l1(cert.x, g, 0.8) <= 1e-10

    def test_factory_covers_descriptor_space(self, small_lasso):
        params = ag.SolverParams(rho=2.0, c=1.0, max_iters=5)
        solvers = ag.build_block_solvers(small_lasso, params)
        assert isinstance(solvers[0], QuadBlockSolver)
        assert isinstance(solvers[1], L1ProxBlockSolver)
