import numpy as np
import pytest
import scipy.sparse as sp

import augdecomp as ag
from augdecomp.model import (BlockSpec, FunctionDescriptor, IterateState,
                             Problem, SmoothPart, project_onto_W,
                             state_g_dist_sq)

from oracles import project_onto_Wperp


def project_w_oracle(v):
    """Equality-constrained least squares: min ||w - v||^2 s.t. sum_k w_k = 0.

    Solved through the KKT system with one multiplier per coordinate.
    """
    v = np.asarray(v, dtype=float)
    K, m = v.shape
    size = K * m + m
    M = np.zeros((size, size))
    rhs = np.zeros(size)
    for k in range(K):
        sl = slice(k * m, (k + 1) * m)
        M[sl, sl] = np.eye(m)
        M[sl, K * m:] = np.eye(m)
        M[K * m:, sl] = np.eye(m)
        rhs[sl] = v[k]
    sol = np.linalg.solve(M, rhs)
    return sol[:K * m].reshape(K, m)


class TestProjections:
    def test_two_block_scalar(self):
        out = project_onto_W([[1.0], [3.0]])
        assert np.allclose(out, [[-1.0], [1.0]])

    def test_idempotent_on_W(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 3))
        v -= v.mean(axis=0)
        assert np.allclose(project_onto_W(v), v)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((4, 3))
        assert np.allclose(project_onto_W(v), project_w_oracle(v), atol=1e-12)

    def test_wperp_mean(self):
        assert np.allclose(project_onto_Wperp([[1.0, 0.0], [3.0, 0.0]]), [2.0, 0.0])

    def test_wperp_fixed_point(self):
        u = np.array([0.5, -1.0])
        v = np.tile(u, (5, 1))
        assert np.allclose(project_onto_Wperp(v), u)

    def test_orthogonal_decomposition(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((6, 4))
        w = project_onto_W(v)
        mean = project_onto_Wperp(v)
        assert np.allclose(w + mean, v)

    def test_orthogonality_and_pythagoras(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.standard_normal((5, 7))
            w = project_onto_W(v)
            mean = project_onto_Wperp(v)
            repl = np.tile(mean, (5, 1))
            ip = float((w * repl).sum())
            assert abs(ip) <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(repl) + 1e-15
            total = float((v * v).sum())
            parts = float((w * w).sum()) + 5 * float(mean @ mean)
            assert abs(total - parts) <= 1e-10 * max(1.0, total)


def g_dist_sq(dw, dx, deta, dzeta_bar, rho, c):
    """``state_g_dist_sq`` from the zero state to the state with these parts."""
    zero = lambda a: np.zeros_like(a)
    state = IterateState(w=dw, x=dx, eta=deta, zeta_bar=dzeta_bar, y=zero(deta))
    origin = IterateState(w=zero(dw), x=[zero(d) for d in dx], eta=zero(deta),
                          zeta_bar=zero(dzeta_bar), y=zero(deta))
    return state_g_dist_sq(state, origin, rho, c)


class TestGNorm:
    def test_zero(self):
        z = np.zeros((2, 1))
        assert g_dist_sq(z, [np.zeros(1)] * 2, z, np.zeros(1), rho=2.0, c=1.0) == 0.0

    def test_hand_value(self):
        # rho=2, c=1, K=2, m=n_k=1: 8/9 + 1/9 + 1/9 = 10/9, zeta_bar counted twice
        dw = np.zeros((2, 1))
        dx = [np.array([2.0 / 3]), np.array([2.0 / 3])]
        deta = np.array([[-1.0 / 3], [-1.0 / 3]])
        dzeta_bar = np.array([-1.0 / 3])
        val = g_dist_sq(dw, dx, deta, dzeta_bar, rho=2.0, c=1.0)
        assert abs(val - 10.0 / 9.0) < 1e-15

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(4)
        dw = project_onto_W(rng.standard_normal((3, 2)))
        dx = [rng.standard_normal(4) for _ in range(3)]
        deta = rng.standard_normal((3, 2))
        dzeta_bar = rng.standard_normal(2)
        base = g_dist_sq(dw, dx, deta, dzeta_bar, 2.5, 0.7)
        for t in (0.5, 3.0):
            scaled = g_dist_sq(t * dw, [t * d for d in dx], t * deta, t * dzeta_bar,
                               2.5, 0.7)
            assert np.isclose(scaled, t * t * base)

    def test_positive_definite(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dw = project_onto_W(rng.standard_normal((2, 3)))
            dx = [rng.standard_normal(2) for _ in range(2)]
            deta = rng.standard_normal((2, 3))
            dzeta_bar = rng.standard_normal(3)
            assert g_dist_sq(dw, dx, deta, dzeta_bar, 1.3, 2.1) > 0

    def test_rejects_bad_coefficients(self):
        z = np.zeros((2, 1))
        with pytest.raises(ValueError):
            g_dist_sq(z, [np.zeros(1)] * 2, z, np.zeros(1), rho=0.0, c=1.0)
        with pytest.raises(ValueError):
            g_dist_sq(z, [np.zeros(1)] * 2, z, np.zeros(1), rho=1.0, c=-2.0)


def _ls_block(n, A, b, E):
    return BlockSpec(n=n, E=E, objective=FunctionDescriptor(
        smooth=SmoothPart("least_squares", A, b)))


class TestResidualAndObjective:
    def test_exchange_construction_is_feasible(self):
        problem, x_star = ag.gen_exchange(4, 6, 3, seed=0)
        r = ag.constraint_residual(x_star, problem)
        assert np.linalg.norm(r) < 1e-12

    def test_zero_x_gives_minus_q(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal(3)
        blocks = [_ls_block(2, rng.standard_normal((4, 2)), rng.standard_normal(4),
                            rng.standard_normal((3, 2))) for _ in range(2)]
        problem = Problem(blocks=tuple(blocks), q=q)
        r = ag.constraint_residual([np.zeros(2), np.zeros(2)], problem)
        assert np.allclose(r, -q)

    def test_residual_matches_naive_accumulation(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal(4)
        blocks = [_ls_block(n, rng.standard_normal((3, n)), rng.standard_normal(3),
                            rng.standard_normal((4, n))) for n in (2, 3, 5)]
        problem = Problem(blocks=tuple(blocks), q=q)
        x = [rng.standard_normal(n) for n in (2, 3, 5)]
        expected = -q.copy()
        for blk, xk in zip(problem.blocks, x):
            for i in range(4):
                expected[i] += float(blk.E.toarray()[i] @ xk)
        assert np.allclose(ag.constraint_residual(x, problem), expected)

    def test_objective_least_squares_at_solution(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        x = np.array([3.0, 0.5])
        b = A @ x
        blocks = (_ls_block(2, A, b, np.eye(2)),
                  _ls_block(2, A, b, -np.eye(2)))
        problem = Problem(blocks=blocks, q=np.zeros(2))
        assert ag.objective([x, x], problem) == pytest.approx(0.5 * np.linalg.norm(A @ x - b) ** 2 * 2)
        assert ag.objective([x, x], problem) == pytest.approx(0.0, abs=1e-15)

    def test_weighted_l1_value(self):
        blk = BlockSpec(n=2, E=np.eye(2), objective=FunctionDescriptor(l1_scale=2.0))
        blk2 = _ls_block(2, np.eye(2), np.zeros(2), -np.eye(2))
        problem = Problem(blocks=(blk, blk2), q=np.zeros(2))
        x = [np.array([1.0, -3.0]), np.zeros(2)]
        assert ag.objective(x, problem) == pytest.approx(8.0)


class TestValidation:
    def test_single_block_rejected(self):
        blk = _ls_block(2, np.eye(2), np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            Problem(blocks=(blk,), q=np.zeros(2))

    def test_row_mismatch_rejected(self):
        blk1 = _ls_block(2, np.eye(2), np.zeros(2), np.eye(2))
        blk2 = _ls_block(2, np.eye(2), np.zeros(2), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            Problem(blocks=(blk1, blk2), q=np.zeros(2))

    def test_empty_descriptor_rejected(self):
        with pytest.raises(ValueError):
            FunctionDescriptor()

    def test_smooth_plus_l1_descriptor_rejected(self):
        # the l1 term goes on its own block, coupled by x - z = 0
        smooth = SmoothPart("least_squares", np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="own block coupled by x - z = 0"):
            FunctionDescriptor(smooth=smooth, l1_scale=0.5)

    @pytest.mark.parametrize("value", [-0.5, float("nan")])
    def test_negative_and_nan_l1_weight_rejected(self, value):
        with pytest.raises(ValueError, match="l1_scale"):
            FunctionDescriptor(l1_scale=value)

    def test_state_w_sum_invariant(self):
        w = np.ones((2, 2))
        with pytest.raises(ValueError):
            IterateState(w=w, x=(np.zeros(1), np.zeros(1)),
                         eta=np.zeros((2, 2)), zeta_bar=np.zeros(2),
                         y=np.zeros((2, 2)))

    @pytest.mark.parametrize("field", ["rho", "c", "stop_eps"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_solver_params_reject_nonpositive_and_nan(self, field, value):
        kwargs = {"rho": 1.0, "c": 1.0, field: value}
        with pytest.raises(ValueError, match="positive"):
            ag.SolverParams(**kwargs)

    def test_logistic_labels_checked(self):
        with pytest.raises(ValueError):
            SmoothPart("logistic", np.eye(2), np.array([1.0, 2.0]))

    def test_saddle_state_is_valid(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        ref = small_exchange_saddle
        assert abs(ref.w.sum(axis=0)).max() < 1e-10
        assert ag.kkt_residual(ref.x, ref.zeta_bar, problem) < 1e-8


class TestValueAndGradient:
    @pytest.mark.parametrize("kind", ["least_squares", "logistic"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_bit_identical_to_separate_calls(self, kind, sparse):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((7, 4))
        if sparse:
            A = sp.csr_matrix(np.where(np.abs(A) > 0.5, A, 0.0))
        b = np.where(rng.standard_normal(7) >= 0, 1.0, -1.0)
        part = SmoothPart(kind, A, b)
        for _ in range(5):
            x = rng.standard_normal(4)
            value, grad = part.value_and_gradient(x)
            assert value == part.value(x)
            assert np.array_equal(grad, part.gradient(x))
