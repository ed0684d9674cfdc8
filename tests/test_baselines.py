import math

import numpy as np
import pytest

import augdecomp as ag
from augdecomp import baselines
from augdecomp.baselines import (Admm2Lasso, BaselineParams, default_prox_weights,
                                 prox_jadmm_run, prox_jadmm_step, vsadmm_run,
                                 vsadmm_step)
from augdecomp.bench import gen_logreg_data
from augdecomp.block_solvers import build_penalized_solvers
from augdecomp.model import (BlockSpec, FunctionDescriptor, Problem,
                             SmoothPart)


def w_update_oracle(v):
    """argmin over the zero-sum subspace of sum_k ||v_k - w_k||^2, via KKT."""
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


class TestVsadmm:
    def test_equal_v_gives_zero_w(self, small_exchange):
        problem, _ = small_exchange
        params = BaselineParams(beta=2.0)
        solvers = build_penalized_solvers(problem, penalty=2.0, prox_weights=0.0)
        K, m = problem.num_blocks, problem.m
        # rig y so that v_k = E_k x_k + y_k/beta comes out equal across k:
        # start from zero state; after one step w is mean-removed v
        state = (np.zeros((K, m)), tuple(np.zeros(n) for n in problem.block_dims()),
                 np.zeros((K, m)))
        w_new, x_new, y_new = vsadmm_step(state, problem, params, solvers)[0]
        v = np.array([problem.blocks[k].E @ x_new[k] for k in range(K)])
        assert np.allclose(w_new, v - v.mean(axis=0))

    def test_w_update_matches_qp_oracle(self, small_exchange):
        rng = np.random.default_rng(0)
        problem, _ = small_exchange
        params = BaselineParams(beta=1.5)
        solvers = build_penalized_solvers(problem, penalty=1.5, prox_weights=0.0)
        K, m = problem.num_blocks, problem.m
        w = rng.standard_normal((K, m))
        w -= w.mean(axis=0)
        x = tuple(rng.standard_normal(n) for n in problem.block_dims())
        y = rng.standard_normal((K, m))
        w_new, x_new, _ = vsadmm_step((w, x, y), problem, params, solvers)[0]
        v = np.array([problem.blocks[k].E @ x_new[k] + y[k] / 1.5
                      for k in range(K)])
        assert np.allclose(w_new, w_update_oracle(v), atol=1e-10)
        assert abs(w_new.sum(axis=0)).max() < 1e-10

    def test_fixed_point_at_saddle(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        ref = small_exchange_saddle
        params = BaselineParams(beta=1.3)
        solvers = build_penalized_solvers(problem, penalty=1.3, prox_weights=0.0)
        state = (ref.w, ref.x, ref.y)
        w2, x2, y2 = vsadmm_step(state, problem, params, solvers)[0]
        assert max(np.abs(np.concatenate(x2) - np.concatenate(ref.x))) < 1e-8
        assert np.abs(w2 - ref.w).max() < 1e-8
        assert np.abs(y2 - ref.y).max() < 1e-8

    def test_one_coupling_product_per_block(self, monkeypatch):
        # v and the multiplier update share E_k x_k (2K products before)
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        params = BaselineParams(beta=1.0)
        solvers = build_penalized_solvers(problem, penalty=1.0, prox_weights=0.0)
        K, m = problem.num_blocks, problem.m
        calls = []
        apply = ag.Coupling.apply

        def counting_apply(self, x):
            calls.append(1)
            return apply(self, x)

        monkeypatch.setattr(ag.Coupling, "apply", counting_apply)
        state = (np.zeros((K, m)), tuple(np.zeros(n) for n in problem.block_dims()),
                 np.zeros((K, m)))
        for sweep in range(1, 4):
            state = vsadmm_step(state, problem, params, solvers)[0]
            assert len(calls) == K * sweep


class TestProxJadmm:
    def test_fixed_point(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        ref = small_exchange_saddle
        params = BaselineParams(beta=1.0, gamma_damp=1.0,
                                prox_weights=(1.0,) * problem.num_blocks)
        solvers = build_penalized_solvers(problem, penalty=1.0,
                                          prox_weights=(1.0,) * problem.num_blocks)
        lam = -ref.zeta_bar  # lambda convention: 0 in df - E^T lam
        x2, lam2 = prox_jadmm_step((ref.x, lam), problem, params, solvers)[0]
        assert max(np.abs(np.concatenate(x2) - np.concatenate(ref.x))) < 1e-8
        assert np.abs(lam2 - lam).max() < 1e-10

    def test_scalar_two_block_hand_step(self):
        # f_k = (x_k - a_k)^2 / 2, E_k = [1], q = 0
        a1, a2 = 1.0, -2.0
        blocks = tuple(
            BlockSpec(n=1, E=ag.Coupling.identity(1), objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", np.array([[1.0]]),
                                  np.array([a]))))
            for a in (a1, a2))
        problem = Problem(blocks=blocks, q=np.zeros(1))
        beta, tau, gamma = 1.5, 0.7, 1.0
        params = BaselineParams(beta=beta, gamma_damp=gamma,
                                prox_weights=(tau, tau))
        solvers = build_penalized_solvers(problem, penalty=beta,
                                          prox_weights=(tau, tau))
        x0 = (np.array([0.3]), np.array([-0.4]))
        lam0 = np.array([0.2])
        x1, lam1 = prox_jadmm_step((x0, lam0), problem, params, solvers)[0]
        # stationarity: (x - a) + beta*(x + other - lam/beta) + tau*(x - x0) = 0
        for k, (a, other) in enumerate(((a1, float(x0[1][0])),
                                        (a2, float(x0[0][0])))):
            xk = float(x1[k][0])
            expected = (a + beta * (float(lam0[0]) / beta - other)
                        + tau * float(x0[k][0])) / (1 + beta + tau)
            assert xk == pytest.approx(expected, abs=1e-12)
        resid = float(x1[0][0] + x1[1][0])
        assert float(lam1[0]) == pytest.approx(float(lam0[0]) - gamma * beta * resid)

    def test_lambda_update_unit_case(self, small_exchange):
        problem, _ = small_exchange
        params = BaselineParams(beta=1.0, gamma_damp=1.0,
                                prox_weights=(1.0,) * problem.num_blocks)
        solvers = build_penalized_solvers(problem, penalty=1.0,
                                          prox_weights=(1.0,) * problem.num_blocks)
        x0 = tuple(np.zeros(n) for n in problem.block_dims())
        lam0 = np.zeros(problem.m)
        x1, lam1 = prox_jadmm_step((x0, lam0), problem, params, solvers)[0]
        r = ag.constraint_residual(x1, problem)
        assert np.allclose(lam1, lam0 - r)

    def test_default_weights_satisfy_sufficient_condition(self, small_exchange):
        problem, _ = small_exchange
        params = BaselineParams(beta=2.0, gamma_damp=1.0)
        weights = default_prox_weights(problem, params)
        K = problem.num_blocks
        from cg_solver import spectral_norm
        for tau, blk in zip(weights, problem.blocks):
            lower = 2.0 * (K / (2.0 - 1.0) - 1.0) * spectral_norm(blk.E.toarray()) ** 2
            assert tau > lower

    def test_residual_tail_nonincreasing(self, small_lasso):
        params = BaselineParams(beta=1.0, gamma_damp=1.0)
        state, trace = prox_jadmm_run(small_lasso, params, max_iters=400,
                                      stop_mode="max_iters")
        res = np.array([m.constraint_residual_norm for m in trace.metrics])
        # median over consecutive windows decreases over the tail
        tail = res[len(res) // 2:]
        w = len(tail) // 4
        medians = [np.median(tail[i * w:(i + 1) * w]) for i in range(4)]
        assert all(medians[i + 1] <= medians[i] * (1 + 1e-6) for i in range(3))

    def test_two_coupling_products_per_block(self, monkeypatch):
        # the multiplier step and the metrics share one residual (3K products before)
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        K = problem.num_blocks
        calls = []
        apply = ag.Coupling.apply

        def counting_apply(self, x):
            calls.append(1)
            return apply(self, x)

        monkeypatch.setattr(ag.Coupling, "apply", counting_apply)
        for sweeps in range(1, 4):
            calls.clear()
            prox_jadmm_run(problem, BaselineParams(beta=1.0), max_iters=sweeps,
                           stop_mode="max_iters")
            assert len(calls) == 2 * K * sweeps


class TestAdmm2:
    def test_zero_data_fixed_point(self):
        d = 4
        A = np.eye(d)
        blocks = (
            BlockSpec(n=d, E=ag.Coupling.identity(d), objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", A, np.zeros(d)))),
            BlockSpec(n=d, E=ag.Coupling.identity(d, sign=-1),
                      objective=FunctionDescriptor(l1_scale=0.5)),
        )
        problem = Problem(blocks=blocks, q=np.zeros(d))
        solver = Admm2Lasso(problem, BaselineParams(beta=1.0))
        state = (np.zeros(d), np.zeros(d), np.zeros(d))
        state = solver.step(state)[0]
        assert all(np.allclose(s, 0.0) for s in state)

    def test_lambda_zero_converges_to_least_squares(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 8))
        b = rng.standard_normal(20)
        blocks = (
            BlockSpec(n=8, E=ag.Coupling.identity(8), objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", A, b))),
            BlockSpec(n=8, E=ag.Coupling.identity(8, sign=-1),
                      objective=FunctionDescriptor(l1_scale=1e-12)),
        )
        problem = Problem(blocks=blocks, q=np.zeros(8))
        solver = Admm2Lasso(problem, BaselineParams(beta=10.0))
        state, trace = solver.run(max_iters=4000, stop_eps=1e-13)
        x_ls = np.linalg.solve(A.T @ A, A.T @ b)
        assert np.allclose(state[1], x_ls, atol=1e-6)

    def test_descent_sanity(self, small_lasso):
        # large penalty keeps the first sweep near the (expensive) start, so
        # the trace must eventually drop below the iteration-1 objective
        solver = Admm2Lasso(small_lasso, BaselineParams(beta=50.0))
        state, trace = solver.run(max_iters=1000, stop_mode="max_iters")
        objs = np.array([m.objective for m in trace.metrics])
        assert objs[-1] < objs[0]

    def test_rejects_non_lasso_form(self, small_exchange):
        problem, _ = small_exchange
        with pytest.raises(ValueError):
            Admm2Lasso(problem, BaselineParams())

    def test_rejects_couplings_other_than_x_minus_z(self, small_lasso):
        # its z- and u-updates are written for E = (I, -I); a scaled, permuted
        # or negated coupling would be solved as x = z
        d = small_lasso.blocks[0].n
        for E0, E1 in ((2.0 * np.eye(d), -2.0 * np.eye(d)),
                       (np.eye(d)[::-1], -np.eye(d)),
                       (ag.Coupling.identity(d, sign=-1), ag.Coupling.identity(d))):
            blocks = tuple(BlockSpec(n=d, E=E, objective=blk.objective)
                           for E, blk in zip((E0, E1), small_lasso.blocks))
            with pytest.raises(ValueError, match="x - z"):
                Admm2Lasso(Problem(blocks=blocks, q=np.zeros(d)), BaselineParams())

    def test_rejects_a_nonzero_q_however_small(self):
        # the z- and u-updates ignore q: with q = 1e-9 the residual cannot
        # fall below ||q|| = 6.3e-9, so only an exactly zero q (of either
        # sign) is the lasso form
        problem, _ = ag.gen_lasso(30, 40, seed=3)
        tiny = Problem(blocks=problem.blocks, q=np.full(problem.m, 1e-9))
        with pytest.raises(ValueError, match="x - z"):
            Admm2Lasso(tiny, BaselineParams())
        Admm2Lasso(Problem(blocks=problem.blocks, q=-np.zeros(problem.m)),
                   BaselineParams())

    def test_x_update_is_the_vsadmm_block_solve(self, small_lasso):
        # with w[0] = z - u and y[0] = 0, VSADMM's block-0 target is ADMM2's z - u
        rng = np.random.default_rng(21)
        d = small_lasso.blocks[0].n
        x, z, u = (rng.standard_normal(d) for _ in range(3))
        params = BaselineParams(beta=1.7)
        x_admm = Admm2Lasso(small_lasso, params).step((x, z, u))[0][0]
        solvers = build_penalized_solvers(small_lasso, penalty=params.beta,
                                          prox_weights=0.0)
        w = np.stack([z - u, rng.standard_normal(d)])
        y = np.stack([np.zeros(d), rng.standard_normal(d)])
        _, (x_vs, _), _ = vsadmm_step((w, (x, z), y), small_lasso, params, solvers)[0]
        assert np.array_equal(x_admm, x_vs)

    @pytest.mark.parametrize("admm_step", [0.0, 2.0, -1.0, float("nan")])
    def test_admm_step_outside_open_interval_rejected(self, admm_step):
        with pytest.raises(ValueError, match="admm_step"):
            BaselineParams(admm_step=admm_step)


class TestSolverAgreement:
    def test_all_solvers_reach_same_lasso_objective(self, small_lasso):
        """Exact engine and the three baselines agree at their tails."""
        problem = small_lasso
        params = ag.SolverParams(rho=5.0, c=5.0, max_iters=6000, stop_eps=1e-12)
        solvers = ag.build_block_solvers(problem, params)
        final, _ = ag.run(problem, params, solvers)
        objs = {"ada": ag.objective(final.x, problem)}

        admm = Admm2Lasso(problem, BaselineParams(beta=1.0, admm_step=1.618))
        st, _ = admm.run(max_iters=6000, stop_eps=1e-12)
        objs["admm2"] = ag.objective((st[0], st[1]), problem)

        st, _ = vsadmm_run(problem, BaselineParams(beta=10.0), max_iters=6000,
                           stop_eps=1e-12)
        objs["vsadmm"] = ag.objective(st[1], problem)

        st, _ = prox_jadmm_run(problem, BaselineParams(beta=1.0, gamma_damp=1.0),
                               max_iters=6000, stop_eps=1e-12)
        objs["proxjadmm"] = ag.objective(st[0], problem)

        ref = objs["ada"]
        for name, val in objs.items():
            assert abs(val - ref) <= 1e-5 * max(1.0, abs(ref)), (name, val, ref)

    def test_vsadmm_matches_ada_on_exchange(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=4000, stop_eps=1e-12)
        solvers = ag.build_block_solvers(problem, params)
        final, _ = ag.run(problem, params, solvers)
        st, _ = vsadmm_run(problem, BaselineParams(beta=2.0), max_iters=4000,
                           stop_eps=1e-12)
        f_ada = ag.objective(final.x, problem)
        f_vs = ag.objective(st[1], problem)
        assert abs(f_vs - f_ada) <= 1e-5 * max(1.0, abs(f_ada))


class NaNAfterTwo:
    """Delegates to a real block solver, then returns NaN from the third solve on."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def solve(self, t, z, accept=None):
        self.calls += 1
        cert = self.inner.solve(t, z, accept=accept)
        if self.calls < 3:
            return cert
        return ag.BlockSolveCertificate(x=np.full_like(cert.x, np.nan),
                                        subgrad_bound=0.0)


def _assert_stopped_at_third(trace):
    assert len(trace) == 3
    assert trace.stop_reason == "non_finite"
    assert not trace.converged
    assert all(m.finite for m in trace.metrics[:2])
    assert not trace.metrics[-1].finite


class TestNonFiniteStop:
    @pytest.fixture
    def nan_second_block(self, monkeypatch):
        original = baselines.build_penalized_solvers

        def build(*args, **kwargs):
            solvers = original(*args, **kwargs)
            solvers[1] = NaNAfterTwo(solvers[1])
            return solvers

        monkeypatch.setattr(baselines, "build_penalized_solvers", build)

    def test_vsadmm(self, small_exchange, nan_second_block):
        problem, _ = small_exchange
        _, trace = vsadmm_run(problem, BaselineParams(beta=1.0), 50,
                              stop_mode="max_iters")
        _assert_stopped_at_third(trace)

    def test_prox_jadmm(self, small_exchange, nan_second_block):
        problem, _ = small_exchange
        _, trace = prox_jadmm_run(problem, BaselineParams(beta=1.0, gamma_damp=0.5),
                                  50, stop_mode="max_iters")
        _assert_stopped_at_third(trace)

    def test_admm2(self, small_lasso):
        solver = Admm2Lasso(small_lasso, BaselineParams(beta=1.0))
        solver._quad = NaNAfterTwo(solver._quad)
        _, trace = solver.run(50, stop_mode="max_iters")
        _assert_stopped_at_third(trace)
        assert math.isnan(trace.metrics[-1].objective)

    def test_finite_runs_keep_their_reasons(self, small_lasso):
        bp = BaselineParams(beta=1.0)
        assert vsadmm_run(small_lasso, bp, 5, stop_mode="max_iters")[1].stop_reason \
            == "max_iters"
        assert prox_jadmm_run(small_lasso, BaselineParams(beta=1.0, gamma_damp=0.5), 5,
                              stop_mode="max_iters")[1].stop_reason == "max_iters"
        assert Admm2Lasso(small_lasso, bp).run(5, stop_mode="max_iters")[1] \
            .stop_reason == "max_iters"


class CountingSolver:
    """Delegates to a real block solver and keeps the certificate of each
    solve in ``calls``."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls

    def solve(self, t, z, accept=None):
        cert = self.inner.solve(t, z, accept=accept)
        self.calls.append(cert)
        return cert


@pytest.mark.parametrize("name", ["vsadmm", "proxjadmm"])
def test_baseline_step_reports_what_its_newton_solves_did(name):
    """On logistic blocks the baselines' metrics carry the Newton solves'
    certificates and tallies, as ADA's do, not zeros."""
    A, labels = gen_logreg_data(120, 6, 1)
    problem = ag.build_logreg_consensus(ag.partition_rows(A, labels, 3), lam=0.1)
    K, m = problem.num_blocks, problem.m
    bp = BaselineParams(beta=1.0, gamma_damp=0.5)
    zeros_x = tuple(np.zeros(n) for n in problem.block_dims())
    if name == "vsadmm":
        weights, state, step = 0.0, (np.zeros((K, m)), zeros_x, np.zeros((K, m))), vsadmm_step
    else:
        weights, state, step = default_prox_weights(problem, bp), (zeros_x, np.zeros(m)), \
            prox_jadmm_step
    certs = []
    solvers = [CountingSolver(s, certs) for s in
               build_penalized_solvers(problem, penalty=bp.beta, prox_weights=weights)]
    for nu in (1, 2):
        del certs[:]
        state, metrics = step(state, problem, bp, solvers, nu)
        assert metrics.per_block_cert == tuple(c.subgrad_bound for c in certs)
        assert metrics.inner_iters_total == sum(c.inner_iters for c in certs) > 0
        assert metrics.factorizations == sum(c.factorizations for c in certs) > 0
        assert metrics.fallbacks == 0
    assert any(b > 0 for b in metrics.per_block_cert)


def _counted_runner(name, problem, monkeypatch):
    """``(run(stop_mode, stop_eps) -> (state, trace), calls)`` for one runner;
    ``calls`` grows by one per block solve (per step for admm2)."""
    calls = []
    if name == "ada":
        def run(stop_mode, stop_eps):
            params = ag.SolverParams(rho=1.0, c=1.0, max_iters=5, stop_eps=stop_eps)
            solvers = [CountingSolver(s, calls)
                       for s in ag.build_block_solvers(problem, params)]
            return ag.run(problem, params, solvers, stop_mode=stop_mode)
        return run, calls
    if name == "admm2":
        solver = Admm2Lasso(problem, BaselineParams(beta=1.0))
        solver._quad = CountingSolver(solver._quad, calls)
        return (lambda stop_mode, stop_eps: solver.run(5, stop_eps, stop_mode)), calls

    original = baselines.build_penalized_solvers
    monkeypatch.setattr(baselines, "build_penalized_solvers", lambda *a, **kw: [
        CountingSolver(s, calls) for s in original(*a, **kw)])
    runner = {"vsadmm": vsadmm_run, "proxjadmm": prox_jadmm_run}[name]
    bp = BaselineParams(beta=1.0, gamma_damp=0.5)
    return (lambda stop_mode, stop_eps: runner(problem, bp, 5, stop_eps, stop_mode)), calls


@pytest.mark.parametrize("name", ["ada", "vsadmm", "proxjadmm", "admm2"])
def test_stop_arguments_checked_before_first_sweep(name, small_lasso, monkeypatch):
    run, calls = _counted_runner(name, small_lasso, monkeypatch)
    for stop_mode, stop_eps in (("bogus", 1e-8), ("x_change", 0.0)):
        with pytest.raises(ValueError):
            run(stop_mode, stop_eps)
        assert calls == []
    seen = []

    def stop(state, metrics):
        seen.append(metrics.iter)
        return metrics.iter == 2

    _, trace = run(stop, 1e-8)
    assert seen == [1, 2]
    assert len(trace) == 2
    assert trace.converged
    assert trace.stop_reason == "custom"


def _oracle_columns(problem, x_new, x_prev_stacked):
    """The baselines' metric formulas, written out independently of the runners."""
    resid_norm = float(np.linalg.norm(ag.constraint_residual(x_new, problem)))
    dx = float(np.linalg.norm(np.concatenate(x_new) - x_prev_stacked))
    return (ag.objective(x_new, problem), resid_norm, float("nan"),
            dx / max(1.0, float(np.linalg.norm(x_prev_stacked))),
            resid_norm / max(1.0, float(np.linalg.norm(problem.q))))


def _trace_columns(trace):
    return [np.array([(m.objective, m.constraint_residual_norm, m.delta_g_norm_sq,
                       m.x_rel_change, m.feas_rel) for m in trace.metrics]),
            np.array([m.per_block_cert for m in trace.metrics]),
            [m.iter for m in trace.metrics]]


@pytest.mark.parametrize("name", ["vsadmm", "proxjadmm", "admm2"])
def test_baseline_traces_match_hand_loop(name, small_lasso):
    """30 sweeps through the public step functions reproduce each runner's
    trace: bit for bit, but for the objective, which the runners sum from
    the least-squares loss their Woodbury solves evaluated at ``A x`` up to
    rounding (see ``BlockSolveCertificate``).  The metrics each step returns
    are the runner's, bit for bit."""
    problem, iters = small_lasso, 30
    K, m = problem.num_blocks, problem.m
    zeros_x = tuple(np.zeros(n) for n in problem.block_dims())
    bp = BaselineParams(beta=1.0, gamma_damp=0.5)
    if name == "vsadmm":
        solvers = build_penalized_solvers(problem, penalty=bp.beta, prox_weights=0.0)
        state = (np.zeros((K, m)), zeros_x, np.zeros((K, m)))
        step = lambda s, nu: vsadmm_step(s, problem, bp, solvers, nu)
        blocks = lambda s: s[1]
        final, trace = vsadmm_run(problem, bp, iters, stop_mode="max_iters")
    elif name == "proxjadmm":
        solvers = build_penalized_solvers(problem, penalty=bp.beta,
                                          prox_weights=default_prox_weights(problem, bp))
        state = (zeros_x, np.zeros(m))
        step = lambda s, nu: prox_jadmm_step(s, problem, bp, solvers, nu)
        blocks = lambda s: s[0]
        final, trace = prox_jadmm_run(problem, bp, iters, stop_mode="max_iters")
    else:
        solver = Admm2Lasso(problem, bp)
        state = zeros_x + (np.zeros(m),)
        step = solver.step
        blocks = lambda s: (s[0], s[1])
        final, trace = Admm2Lasso(problem, bp).run(iters, stop_mode="max_iters")

    rows, metrics = [], []
    for nu in range(1, iters + 1):
        x_prev = np.concatenate(blocks(state))
        state, step_metrics = step(state, nu)
        metrics.append(step_metrics)
        rows.append(_oracle_columns(problem, blocks(state), x_prev))
    # float reprs round-trip, so equal reprs are equal bits (and NaN matches NaN)
    assert [repr(a) for a in metrics] == [repr(b) for b in trace.metrics]
    values, certs, its = _trace_columns(trace)
    rows = np.array(rows)
    np.testing.assert_allclose(values[:, 0], rows[:, 0], rtol=1e-12, atol=0)
    assert np.array_equal(values[:, 1:], rows[:, 1:], equal_nan=True)
    assert np.array_equal(certs, np.zeros((iters, K)))
    assert its == list(range(1, iters + 1))
    for a, b in zip(blocks(final), blocks(state)):
        assert np.array_equal(a, b)
    assert trace.stop_reason == "max_iters" and not trace.converged
