import math
from dataclasses import replace

import numpy as np
import pytest

import augdecomp as ag
import oracles
from augdecomp.ada import StepMetrics, ada_step, check_stop, run
from augdecomp.bench import gen_logreg_data
from augdecomp.block_solvers import L1ProxBlockSolver, QuadBlockSolver
from augdecomp.diagnostics import _fejer_check
from augdecomp.inexact import InexactSchedule
from augdecomp.model import (BlockSpec, FunctionDescriptor, IterateState,
                             Problem, SmoothPart, make_initial_state,
                             saddle_state)

from conftest import iterative_solvers
from oracles import ergodic_average, phi_value


def scalar_quadratic_problem():
    """K=2, m=n_k=1, f_k = x^2/2, E_k = [1], q = 0."""
    blocks = tuple(
        BlockSpec(n=1, E=np.array([[1.0]]), objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", [[1.0]], [0.0])))
        for _ in range(2))
    return Problem(blocks=blocks, q=np.zeros(1))


def state_with_x(problem, x_vals):
    base = make_initial_state(problem)
    return IterateState(w=base.w, x=tuple(np.array([v]) for v in x_vals),
                        eta=base.eta, zeta_bar=base.zeta_bar, y=base.y)


class TestPhiValue:
    def test_hand_value_one_third(self):
        problem = scalar_quadratic_problem()
        params = ag.SolverParams(rho=2.0, c=1.0, max_iters=1)
        state = state_with_x(problem, (1.0, 1.0))
        val = phi_value(0, np.array([1.0 / 3.0]), state, problem, params)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_reduces_to_f_when_prox_terms_vanish(self):
        rng = np.random.default_rng(0)
        problem, _ = ag.gen_exchange(3, 4, 2, seed=5)
        params = ag.SolverParams(rho=3.0, c=2.0, max_iters=1)
        x = [rng.standard_normal(4) for _ in range(3)]
        w = np.array([problem.blocks[k].E @ x[k] for k in range(3)])
        w -= w.mean(axis=0)  # keep the state valid; adjust x to match w
        x = [np.linalg.solve(problem.blocks[k].E.toarray(), w[k]) for k in range(3)]
        state = IterateState(w=w, x=tuple(x), eta=np.zeros((3, 4)),
                             zeta_bar=np.zeros(4), y=np.zeros((3, 4)))
        for k in range(3):
            f_k = problem.blocks[k].objective.value(x[k])
            assert phi_value(k, x[k], state, problem, params) == pytest.approx(f_k)

    def test_y_shift_changes_only_quadratic_term(self):
        rng = np.random.default_rng(1)
        problem = scalar_quadratic_problem()
        params = ag.SolverParams(rho=2.0, c=1.5, max_iters=1)
        base = make_initial_state(problem)
        y = rng.standard_normal((2, 1))
        state = IterateState(w=base.w, x=base.x, eta=base.eta,
                             zeta_bar=base.zeta_bar, y=y)
        t = rng.standard_normal(1)
        # term-by-term oracle
        k = 0
        blk = problem.blocks[k]
        f_term = blk.objective.value(t)
        r = blk.E @ t - state.w[k] + (2.0 / params.rho) * y[k]
        quad_term = 0.25 * params.rho * float(r @ r)
        prox_term = 0.5 / params.c * float((t - state.x[k]) @ (t - state.x[k]))
        assert phi_value(k, t, state, problem, params) == pytest.approx(
            f_term + quad_term + prox_term)

    def test_index_out_of_range(self):
        problem = scalar_quadratic_problem()
        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=1)
        state = make_initial_state(problem)
        with pytest.raises(IndexError):
            phi_value(2, np.zeros(1), state, problem, params)


class TestAdaStep:
    def test_scalar_hand_computation(self):
        problem = scalar_quadratic_problem()
        params = ag.SolverParams(rho=2.0, c=1.0, max_iters=1)
        solvers = ag.build_block_solvers(problem, params)
        state = state_with_x(problem, (1.0, 1.0))
        new_state, metrics = ada_step(state, problem, params, solvers)
        assert np.allclose([float(xk[0]) for xk in new_state.x], [1 / 3, 1 / 3])
        assert np.allclose(new_state.eta, 1 / 3)
        assert np.allclose(new_state.zeta_bar, 1 / 3)
        assert np.allclose(new_state.w, 0.0)
        assert np.allclose(new_state.y, 1 / 3)

    def test_saddle_is_fixed_point(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=3.0, c=2.0, max_iters=1)
        solvers = ag.build_block_solvers(problem, params)
        new_state, metrics = ada_step(small_exchange_saddle, problem, params, solvers)
        assert metrics.delta_g_norm_sq < 1e-18

    def test_w_increments_sum_to_zero(self):
        rng = np.random.default_rng(2)
        problem, _ = ag.gen_exchange(4, 5, 3, seed=9)
        params = ag.SolverParams(rho=2.0, c=1.0, max_iters=1)
        solvers = ag.build_block_solvers(problem, params)
        eta = rng.standard_normal((4, 5))
        zeta = eta.mean(axis=0)
        w = rng.standard_normal((4, 5))
        w -= w.mean(axis=0)
        state = IterateState(w=w, x=tuple(rng.standard_normal(5) for _ in range(4)),
                             eta=eta, zeta_bar=zeta, y=0.5 * (eta + zeta))
        new_state, _ = ada_step(state, problem, params, solvers)
        assert abs(new_state.w.sum(axis=0)).max() < 1e-12

    def test_update_consistency_identity(self):
        # y - zeta = (eta - zeta)/2 = (rho/2)(w_new - w_old)
        problem, _ = ag.gen_exchange(3, 4, 2, seed=11)
        params = ag.SolverParams(rho=2.5, c=1.5, max_iters=1)
        solvers = ag.build_block_solvers(problem, params)
        state = make_initial_state(problem)
        for _ in range(5):
            prev_w = state.w
            state, _ = ada_step(state, problem, params, solvers)
            lhs = state.y - state.zeta_bar
            mid = 0.5 * (state.eta - state.zeta_bar)
            rhs = 0.5 * params.rho * (state.w - prev_w)
            assert np.abs(lhs - mid).max() < 1e-10
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_matches_proximal_saddle_oracle(self):
        """One step equals the saddle point of the proximal lifted Lagrangian,
        computed by an independent KKT solve with general couplings."""
        rng = np.random.default_rng(7)
        K, m, n, p = 3, 2, 2, 3
        As, bs, Es, blocks = [], [], [], []
        for _ in range(K):
            A = rng.standard_normal((p, n))
            b = rng.standard_normal(p)
            E = rng.standard_normal((m, n))
            As.append(A), bs.append(b), Es.append(E)
            blocks.append(BlockSpec(n=n, E=E, objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", A, b))))
        q = rng.standard_normal(m)
        problem = Problem(blocks=tuple(blocks), q=q)
        rho, c = 2.0, 3.0
        params = ag.SolverParams(rho=rho, c=c, max_iters=1)

        eta0 = rng.standard_normal((K, m))
        zeta0 = eta0.mean(axis=0)
        w0 = rng.standard_normal((K, m))
        w0 -= w0.mean(axis=0)
        x0 = tuple(rng.standard_normal(n) for _ in range(K))
        state = IterateState(w=w0, x=x0, eta=eta0, zeta_bar=zeta0,
                             y=0.5 * (eta0 + zeta0))
        solvers = ag.build_block_solvers(problem, params)
        new_state, _ = ada_step(state, problem, params, solvers)

        # stationarity system of the proximal saddle problem
        size = K * n + K * m + K * m + m
        M = np.zeros((size, size))
        rhs = np.zeros(size)
        xi = lambda k: slice(k * n, (k + 1) * n)
        wi = lambda k: slice(K * n + k * m, K * n + (k + 1) * m)
        ei = lambda k: slice(K * n + K * m + k * m, K * n + K * m + (k + 1) * m)
        mu_i = slice(K * n + 2 * K * m, size)
        for k in range(K):
            M[xi(k), xi(k)] = As[k].T @ As[k] + np.eye(n) / c
            M[xi(k), ei(k)] = Es[k].T
            rhs[xi(k)] = As[k].T @ bs[k] + np.asarray(x0[k]) / c
            M[wi(k), ei(k)] = -np.eye(m)
            M[wi(k), wi(k)] = rho * np.eye(m)
            M[wi(k), mu_i] = np.eye(m)
            rhs[wi(k)] = rho * w0[k]
            M[ei(k), xi(k)] = Es[k]
            M[ei(k), wi(k)] = -np.eye(m)
            M[ei(k), ei(k)] -= np.eye(m) / rho
            for j in range(K):
                M[ei(k), ei(j)] -= np.eye(m) / (rho * K)
            rhs[ei(k)] = (q if k == K - 1 else 0) - eta0[k] / rho - zeta0 / rho
            M[mu_i, wi(k)] += np.eye(m)
        sol = np.linalg.solve(M, rhs)
        for k in range(K):
            assert np.allclose(new_state.x[k], sol[xi(k)], atol=1e-12)
            assert np.allclose(new_state.w[k], sol[wi(k)], atol=1e-12)
            assert np.allclose(new_state.eta[k], sol[ei(k)], atol=1e-12)


class TestSweepMatchesOracle:
    """``ada_step`` against ``oracles.ada_step``, the sweep before its
    in-place updates, over the parent's closed-form solves: the same states
    and ``StepMetrics`` bit for bit.  The loss that a Woodbury solve now
    carries is stripped, so both sides take that block's objective from
    ``objective(x)``; iterative solvers are shared code on both sides."""

    class _Stripped:
        def __init__(self, inner):
            self.inner = inner

        def solve(self, t, z, accept=None):
            return replace(self.inner.solve(t, z, accept=accept), value=None)

    class _Parent:
        def __init__(self, inner, solve):
            self.inner, self._solve = inner, solve

        def solve(self, t, z, accept=None):
            return self._solve(self.inner, t, z, accept=accept)

    @classmethod
    def _compare(cls, problem, params, schedule, iters, build=ag.build_block_solvers):
        new_solvers, old_solvers = [], []
        for new, old in zip(build(problem, params), build(problem, params)):
            if isinstance(new, QuadBlockSolver):
                new, old = cls._Stripped(new), cls._Parent(old, oracles.quad_block_solve)
            elif isinstance(new, L1ProxBlockSolver):
                old = cls._Parent(old, oracles.l1_block_solve)
            new_solvers.append(new)
            old_solvers.append(old)
        K = problem.num_blocks
        new = old = make_initial_state(problem)
        fallbacks = 0
        for nu in range(1, iters + 1):
            rules = [None if schedule is None else schedule.accept_rules(nu, st, params, K)
                     for st in (new, old)]
            new, m_new = ada_step(new, problem, params, new_solvers, rules[0], nu)
            old, m_old = oracles.ada_step(old, problem, params, old_solvers, rules[1], nu)
            assert repr(m_new) == repr(m_old)
            for a, b in zip((new.w, new.eta, new.zeta_bar, new.y, *new.x),
                            (old.w, old.eta, old.zeta_bar, old.y, *old.x)):
                assert a.tobytes() == b.tobytes()
            fallbacks += m_new.fallbacks
        return fallbacks

    def test_exact_lasso(self):
        problem, _ = ag.gen_lasso(60, 150, seed=31)
        self._compare(problem, ag.SolverParams(rho=10.0, c=10.0), None, 40)

    def test_exact_exchange(self):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=32)
        self._compare(problem, ag.SolverParams(rho=10.0, c=10.0), None, 30)

    def test_criterion_b_exchange(self):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1000)
        sched = InexactSchedule.for_problem(problem, "criterion_B", eps0=1e-5, gamma=2.0)
        # the exact fallback runs QuadBlockSolver.solve on both sides
        assert self._compare(problem, ag.SolverParams(rho=10.0, c=10.0), sched, 32,
                             iterative_solvers) > 0

    def test_criterion_a_logreg(self):
        A, labels = gen_logreg_data(400, 10, seed=7)
        problem = ag.build_logreg_consensus(ag.partition_rows(A, labels, 3), lam=0.1)
        sched = InexactSchedule.for_problem(problem, "criterion_A")
        self._compare(problem, ag.SolverParams(rho=10.0, c=10.0), sched, 20)


class TestCheckStop:
    def test_x_unchanged(self):
        m = StepMetrics(1, 0.0, 0.0, 0.0, x_rel_change=0.0, feas_rel=1.0,
                        per_block_cert=(0.0,))
        assert check_stop(m, 1e-12, "x_change")

    def test_feasibility_with_zero_q(self):
        m = StepMetrics(1, 0.0, 0.0, 0.0, x_rel_change=1.0, feas_rel=0.0,
                        per_block_cert=(0.0,))
        assert check_stop(m, 1e-9, "feasibility")

    def test_ratio_arithmetic(self):
        # ||x||=10, ||diff||=0.05 -> ratio 0.005 <= 0.01 passes
        m = StepMetrics(1, 0.0, 0.0, 0.0, x_rel_change=0.05 / 10, feas_rel=1.0,
                        per_block_cert=(0.0,))
        assert check_stop(m, 0.01, "x_change")
        # ||diff||=0.2 -> ratio 0.02 > 0.01 fails
        m2 = StepMetrics(1, 0.0, 0.0, 0.0, x_rel_change=0.2 / 10, feas_rel=1.0,
                         per_block_cert=(0.0,))
        assert not check_stop(m2, 0.01, "x_change")

    def test_max_iters_never_stops(self):
        m = StepMetrics(1, 0.0, 0.0, 0.0, 0.0, 0.0, (0.0,))
        assert not check_stop(m, 1e-3, "max_iters")

    def test_bad_inputs(self):
        m = StepMetrics(1, 0.0, 0.0, 0.0, 0.0, 0.0, (0.0,))
        with pytest.raises(ValueError):
            check_stop(m, 0.0, "x_change")
        with pytest.raises(ValueError):
            check_stop(m, 1e-3, "wrong")


class TestRun:
    def test_zero_iterations(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=0)
        solvers = ag.build_block_solvers(problem, params)
        final, trace = run(problem, params, solvers)
        assert len(trace) == 0
        assert not trace.converged
        assert all(np.all(xk == 0) for xk in final.x)

    def test_exchange_objective_reaches_tolerance(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=4000, stop_eps=1e-12)
        solvers = ag.build_block_solvers(problem, params)

        def stop(state, metrics):
            return metrics.objective <= 1e-6
        final, trace = run(problem, params, solvers, stop_mode=stop)
        assert trace.converged
        assert trace.metrics[-1].objective <= 1e-6

    def test_determinism_bitwise(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=50)
        out = []
        for _ in range(2):
            solvers = ag.build_block_solvers(problem, params)
            final, trace = run(problem, params, solvers, stop_mode="max_iters")
            out.append((final, trace))
        a, b = out
        for ma, mb in zip(a[1].metrics, b[1].metrics):
            assert ma == mb  # dataclass equality: bitwise-identical floats
        for xa, xb in zip(a[0].x, b[0].x):
            assert np.array_equal(xa, xb)

    def test_monotone_g_decrease_and_fejer(self, small_exchange,
                                           small_exchange_saddle):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=400)
        solvers = ag.build_block_solvers(problem, params)
        initial = ag.make_initial_state(problem)
        observer = ag.RateObserver(problem, params.rho, params.c,
                                   small_exchange_saddle, initial)
        final, trace = run(problem, params, solvers, initial=initial,
                           stop_mode="max_iters", observe=observer)
        ok, first = ag.verify_monotone(trace)
        assert ok, f"first G-monotonicity violation at iteration {first}"
        fejer_ok, viol = _fejer_check(observer.dists, 1e-8)
        assert fejer_ok, f"Fejer violation at index {viol}"

    def test_only_iada_run_keeps_states(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=6)
        _, trace = run(problem, params, ag.build_block_solvers(problem, params),
                       stop_mode="max_iters")
        assert trace.states is None
        final, trace = ag.iada_run(problem, params, None,
                                   ag.build_block_solvers(problem, params),
                                   stop_mode="max_iters")
        assert len(trace.states) == 6
        assert trace.states[-1] is final

    def test_w_drift_stays_small(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=500)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = run(problem, params, solvers, stop_mode="max_iters")
        assert max(m.w_drift for m in trace.metrics) < 1e-10

    def test_solver_failure_reports_block(self, small_exchange):
        problem, _ = small_exchange

        class FailsThird:
            """Delegates to a real solver, then raises on the third solve."""

            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def solve(self, t, z, accept=None):
                self.calls += 1
                if self.calls == 3:
                    raise ag.BlockSolveError("boom")
                return self.inner.solve(t, z, accept=accept)

        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=5)
        solvers = ag.build_block_solvers(problem, params)
        failing = FailsThird(solvers[1])
        failing.calls = 2
        with pytest.raises(ag.BlockSolveError, match="block 1: boom"):
            ada_step(make_initial_state(problem), problem, params,
                     solvers[:1] + [failing] + solvers[2:])
        # a run ends at the failing step and keeps the steps before it
        solvers[1] = FailsThird(solvers[1])
        states = []
        final, trace = run(problem, params, solvers, stop_mode="max_iters",
                           observe=states.append)
        assert trace.stop_reason == "solver_error" and not trace.converged
        assert trace.error == "block 1: boom"
        assert len(trace) == len(states) == 2
        assert states[-1] is final


class TestErgodicAverage:
    def test_identical_iterates(self):
        xs = [(np.array([2.0, -1.0]),)] * 4
        out = ergodic_average(xs, 3)
        assert np.allclose(out[0], [2.0, -1.0])

    def test_two_point_mean(self):
        xs = [(np.array([0.0]),), (np.array([2.0]),)]
        assert np.allclose(ergodic_average(xs, 2)[0], [1.0])

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(3)
        xs = [(rng.standard_normal(3), rng.standard_normal(2)) for _ in range(9)]
        out = ergodic_average(xs, 7)
        for k in range(2):
            for i in range(xs[0][k].shape[0]):
                expected = math.fsum(float(xs[t][k][i]) for t in range(7)) / 7
                assert float(out[k][i]) == pytest.approx(expected, rel=1e-15)

    def test_length_errors(self):
        xs = [(np.zeros(1),)] * 3
        with pytest.raises(ValueError):
            ergodic_average(xs, 4)
        with pytest.raises(ValueError):
            ergodic_average(xs, 0)


class TestTraceCsv:
    def test_schema_and_determinism(self, small_exchange, tmp_path):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=20)
        paths = []
        for i in range(2):
            solvers = ag.build_block_solvers(problem, params)
            _, trace = run(problem, params, solvers, stop_mode="max_iters")
            p = tmp_path / f"trace{i}.csv"
            trace.to_csv(p)
            paths.append(p)
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "iter,objective,residual,delta_g,x_rel,feas_rel"
        assert len(a.decode().splitlines()) == 21

    def test_cert_columns(self, small_exchange, tmp_path):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=5)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = run(problem, params, solvers, stop_mode="max_iters")
        p = tmp_path / "trace.csv"
        trace.to_csv(p, include_certs=True)
        header = p.read_text().splitlines()[0]
        assert header == ("iter,objective,residual,delta_g,x_rel,feas_rel,"
                          "cert_1,cert_2,cert_3,inner_iters_total")

    def test_seventeen_digit_roundtrip(self, small_exchange, tmp_path):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=8)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = run(problem, params, solvers, stop_mode="max_iters")
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        lines = p.read_text().splitlines()[1:]
        for line, m in zip(lines, trace.metrics):
            parts = line.split(",")
            assert float(parts[1]) == m.objective  # %.17g is value-exact
            assert float(parts[3]) == m.delta_g_norm_sq

    @pytest.mark.parametrize("include_certs", [False, True])
    @pytest.mark.parametrize("rows", [0, 1, 45])
    def test_bytes_match_csv_writer(self, small_exchange, tmp_path, include_certs, rows):
        problem, _ = small_exchange
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1e300, 1e16, 2.0 ** 53 + 2, 0.1, -1 / 3,
                   np.float64(123456.789), 7]
        rng = np.random.default_rng(rows)
        pick = lambda: special[rng.integers(len(special))] if rng.random() < 0.5 \
            else float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
        trace = ag.Trace(initial_state=ag.make_initial_state(problem), metrics=[
            StepMetrics(iter=i + 1, objective=pick(), constraint_residual_norm=pick(),
                        delta_g_norm_sq=pick(), x_rel_change=pick(), feas_rel=pick(),
                        per_block_cert=tuple(pick() for _ in range(3)),
                        inner_iters_total=int(rng.integers(0, 10 ** 6)))
            for i in range(rows)])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        trace.to_csv(got, include_certs=include_certs)
        oracles.trace_to_csv(trace, want, include_certs=include_certs)
        assert got.read_bytes() == want.read_bytes()


class TestStopReason:
    def test_non_finite_block_solution_stops_the_run(self, small_exchange):
        problem, _ = small_exchange

        class NaNAfterTwo:
            """Delegates to a real solver, then returns NaN from the third solve on."""

            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def solve(self, t, z, accept=None):
                self.calls += 1
                cert = self.inner.solve(t, z, accept=accept)
                if self.calls < 3:
                    return cert
                return ag.BlockSolveCertificate(x=np.full_like(cert.x, np.nan),
                                                subgrad_bound=0.0)

        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=50)
        solvers = ag.build_block_solvers(problem, params)
        solvers[1] = NaNAfterTwo(solvers[1])
        states = []
        final, trace = run(problem, params, solvers, stop_mode="max_iters",
                           observe=states.append)
        assert len(trace) == 3
        assert trace.stop_reason == "non_finite"
        assert not trace.converged
        assert all(math.isfinite(m.objective) for m in trace.metrics[:2])
        assert math.isnan(trace.metrics[-1].objective)
        assert states[-1] is final

    def test_reasons_of_finite_runs(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=1.0, c=1.0, max_iters=5)
        solvers = ag.build_block_solvers(problem, params)
        assert run(problem, params, solvers, stop_mode="max_iters")[1].stop_reason \
            == "max_iters"
        _, trace = run(problem, params, solvers, stop_mode=lambda s, m: m.iter == 2)
        assert trace.stop_reason == "custom" and trace.converged
        with pytest.raises(AttributeError):  # read from stop_reason, never set
            trace.converged = False
        loose = ag.SolverParams(rho=1.0, c=1.0, max_iters=5, stop_eps=1e3)
        assert run(problem, loose, solvers)[1].stop_reason == "converged"
