import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

import augdecomp as ag
from augdecomp.ada import _block_targets
from augdecomp.bench import build_logreg_consensus, gen_logreg_data, partition_rows
from augdecomp.coupling import stacked_norm
from augdecomp.inexact import (SCHEDULE_KINDS, InexactSchedule,
                               criterion_a_threshold, criterion_b_threshold,
                               iada_run)
from augdecomp.model import (BlockSpec, FunctionDescriptor, IterateState,
                             Problem, SmoothPart, make_initial_state)

from cg_solver import CgBlockSolver, spectral_norm
from conftest import iterative_solvers
from oracles import GeneralQuadBlockSolver


def _schedule(kind="criterion_A", eps0=1.0, gamma=1.5, e_norm=1.0):
    return InexactSchedule(kind=kind, eps0=eps0, gamma=gamma, e_norm=e_norm)


class TestThresholds:
    def test_worked_example(self):
        # eps0=1, gamma=1.5, nu=4, c=1, K=2, rho=1, ||E||=1 -> (1/8)/6 = 1/48
        sched = _schedule()
        thr = criterion_a_threshold(4, sched, rho=1.0, c=1.0, num_blocks=2)
        assert thr == pytest.approx(1.0 / 48.0)

    def test_first_step(self):
        sched = _schedule(gamma=2.0)
        thr = criterion_a_threshold(1, sched, rho=3.0, c=2.0, num_blocks=4)
        assert thr == pytest.approx(1.0 / (2.0 * 4 * (3.0 + 1.0 + 1.0)))

    def test_partial_sum_matches_high_precision_oracle(self):
        import mpmath
        sched = _schedule(gamma=1.5)
        total = sum(criterion_a_threshold(nu, sched, 1.0, 1.0, 2)
                    for nu in range(1, 10_001))
        mpmath.mp.dps = 40
        oracle = mpmath.fsum(mpmath.mpf(1) / mpmath.mpf(nu) ** mpmath.mpf("1.5")
                             for nu in range(1, 10_001)) / 6
        assert abs(total - float(oracle)) < 1e-9

    def test_criterion_b_saturation(self):
        sched = _schedule()
        a = criterion_a_threshold(4, sched, 1.0, 1.0, 2)
        assert criterion_b_threshold(4, sched, 1.0, 1.0, 2, x_step_norm=2.5) == a
        assert criterion_b_threshold(4, sched, 1.0, 1.0, 2, x_step_norm=0.0) == 0.0
        assert criterion_b_threshold(4, sched, 1.0, 1.0, 2, x_step_norm=0.5) \
            == pytest.approx(1.0 / 96.0)

    def test_b_below_a_pointwise(self):
        sched = _schedule(gamma=1.2)
        rng = np.random.default_rng(0)
        for nu in (1, 3, 17, 240):
            step = float(rng.random())
            a = criterion_a_threshold(nu, sched, 2.0, 0.5, 3)
            b = criterion_b_threshold(nu, sched, 2.0, 0.5, 3, step)
            assert b <= a

    def test_validation(self):
        with pytest.raises(ValueError):
            _schedule(kind="criterion_C")
        with pytest.raises(ValueError):
            _schedule(eps0=-1.0)
        with pytest.raises(ValueError):
            InexactSchedule(kind="criterion_A", e_norm=0.0)
        with pytest.warns(RuntimeWarning):
            _schedule(gamma=1.0)
        sched = _schedule()
        with pytest.raises(ValueError):
            sched.eps_at(0)

    @pytest.mark.parametrize("field, value", [
        ("eps0", float("nan")), ("eps0", 0.0), ("gamma", float("nan")),
        ("gamma", -1.0), ("e_norm", float("nan")), ("e_norm", -1.0)])
    def test_rejects_nonpositive_and_nan(self, field, value):
        with pytest.raises(ValueError):
            _schedule(**{field: value})


_NAN = float("nan")


_STATE = make_initial_state(ag.gen_lasso(4, 6, seed=0)[0])


def _state_g_dist_sq(rho, c):
    return ag.state_g_dist_sq(_STATE, _STATE, rho, c)


@pytest.mark.parametrize("call", [
    lambda: criterion_b_threshold(4, _schedule(), 1.0, 1.0, 2, x_step_norm=_NAN),
    lambda: criterion_a_threshold(4, _schedule(), _NAN, 1.0, 2),
    lambda: criterion_a_threshold(4, _schedule(), 1.0, _NAN, 2),
    lambda: _state_g_dist_sq(_NAN, 1.0),
    lambda: _state_g_dist_sq(1.0, _NAN),
    lambda: ag.soft_threshold(np.ones(3), _NAN),
    lambda: ag.subgrad_dist_l1(np.ones(3), np.ones(3), _NAN),
    lambda: ag.check_stop(None, _NAN, "x_change"),
], ids=["b_step_norm", "a_rho", "a_c", "g_dist_rho", "g_dist_c", "soft_threshold_kappa",
        "subgrad_dist_l1_lambda1", "check_stop_eps"])
def test_nan_argument_is_refused(call):
    # a NaN argument is refused, not read as the loosest threshold (min(1, nan)
    # is 1) or carried into a NaN result
    with pytest.raises(ValueError):
        call()


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0)

    def test_nilpotent(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) \
            == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_random_matches_svd_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            E = rng.standard_normal((20, 30))
            sv = np.linalg.svd(E, compute_uv=False)[0]
            assert abs(spectral_norm(E) - sv) <= 1e-8 * sv

    def test_unsettled_warning_shows_the_last_two_estimates(self):
        # top singular values 1 and 0.999: five sweeps are far from settled
        E = np.diag([0.5, 0.999, 1.0])
        v = np.linspace(1.0, 2.0, 3)
        v /= np.linalg.norm(v)
        estimates = []
        for _ in range(5):
            u = E.T @ (E @ v)
            estimates.append(float(np.sqrt(v @ u)))
            v = u / np.linalg.norm(u)
        with pytest.warns(RuntimeWarning, match="did not settle") as caught:
            sigma = spectral_norm(E, max_iters=5)
        pair = re.search(r"\((.*), (.*)\)", str(caught[0].message)).groups()
        shown = [float(x) for x in pair]
        assert shown == estimates[-2:] and shown[0] != shown[1]
        assert sigma == estimates[-1]

    def test_stacked_coupling_for_lasso(self):
        problem, _ = ag.gen_lasso(20, 30, seed=2)
        assert stacked_norm([b.E for b in problem.blocks]) == math.sqrt(2.0)

    def test_stacked_coupling_for_exchange(self):
        problem, _ = ag.gen_exchange(5, 8, 4, seed=2)
        assert stacked_norm([b.E for b in problem.blocks]) == math.sqrt(5.0)


class TestInexactBlockSolve:
    def _setup(self, seed=3):
        problem, _ = ag.gen_exchange(3, 6, 4, seed=seed)
        params = ag.SolverParams(rho=2.0, c=1.0, max_iters=10)
        sched = InexactSchedule.for_problem(problem, "criterion_A", 1.0, 1.5)
        rng = np.random.default_rng(seed)
        eta = rng.standard_normal((3, 6))
        w = rng.standard_normal((3, 6))
        w -= w.mean(axis=0)
        zeta = eta.mean(axis=0)
        state = IterateState(w=w, x=tuple(rng.standard_normal(6) for _ in range(3)),
                             eta=eta, zeta_bar=zeta, y=0.5 * (eta + zeta))
        return problem, params, sched, state

    def test_closed_form_certifies_zero(self):
        problem, params, sched, state = self._setup()
        solvers = ag.build_block_solvers(problem, params)  # exact closed forms
        t = _block_targets(state, problem, params.rho)[0]
        cert = solvers[0].solve(t, state.x[0],
                                accept=sched.accept_rules(1, state, params, 3)[0])
        assert cert.subgrad_bound == 0.0

    def test_smooth_bound_is_gradient_norm(self):
        problem, params, sched, state = self._setup()
        solvers = iterative_solvers(problem, params)
        thr = criterion_a_threshold(1, sched, params.rho, params.c, 3)
        t = _block_targets(state, problem, params.rho)[0]
        cert = solvers[0].solve(t, state.x[0],
                                accept=sched.accept_rules(1, state, params, 3)[0])
        assert 0.0 <= cert.subgrad_bound <= thr
        # recompute the gradient of phi at the returned point
        blk = problem.blocks[0]
        t = state.w[0] - (2.0 / params.rho) * state.y[0]
        g = blk.objective.smooth_gradient(cert.x) \
            + 0.5 * params.rho * blk.E.apply_T(blk.E.apply(cert.x) - t) \
            + (cert.x - state.x[0]) / params.c
        if cert.subgrad_bound > 0:
            assert np.linalg.norm(g) == pytest.approx(cert.subgrad_bound, rel=1e-12)

    def test_strong_convexity_distance_bound(self):
        # ||x_certified - x_exact|| <= c * subgrad_bound, exact via factorization
        rng = np.random.default_rng(4)
        for trial in range(20):
            n_k = int(rng.integers(2, 11))
            p = int(rng.integers(2, 11))
            A = rng.standard_normal((p, n_k))
            b = rng.standard_normal(p)
            E = rng.standard_normal((3, n_k))
            blk = BlockSpec(n=n_k, E=E, objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", A, b)))
            c = float(rng.uniform(0.5, 3.0))
            rho = float(rng.uniform(0.5, 3.0))
            t = rng.standard_normal(3)
            z = rng.standard_normal(n_k)
            tol = 10 ** rng.uniform(-6, -2)
            inexact = CgBlockSolver(blk, penalty=rho / 2, prox_weight=1 / c,
                                       exact_tol=tol)
            exact = GeneralQuadBlockSolver(blk, penalty=rho / 2, prox_weight=1 / c)
            cert = inexact.solve(t, z)
            x_exact = exact.solve(t, z).x
            assert np.linalg.norm(cert.x - x_exact) <= c * cert.subgrad_bound + 1e-12


class TestIadaRun:
    def test_exact_schedule_bitwise_identical(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=40)
        sched = None
        solvers = ag.build_block_solvers(problem, params)
        final_a, trace_a = ag.run(problem, params, solvers, stop_mode="max_iters")
        solvers_b = ag.build_block_solvers(problem, params)
        final_b, trace_b = iada_run(problem, params, sched, solvers_b,
                                    stop_mode="max_iters")
        for ma, mb in zip(trace_a.metrics, trace_b.metrics):
            assert ma == mb
        for xa, xb in zip(final_a.x, final_b.x):
            assert np.array_equal(xa, xb)

    @pytest.mark.parametrize("kind", ["criterion_A", "criterion_B"])
    def test_run_with_schedule_equals_iada_run(self, small_exchange, kind):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=60)
        sched = InexactSchedule.for_problem(problem, kind, 1.0, 2.0)
        _, trace_a = ag.run(problem, params, iterative_solvers(problem, params),
                            stop_mode="max_iters", schedule=sched)
        _, trace_b = iada_run(problem, params, sched,
                              iterative_solvers(problem, params),
                              stop_mode="max_iters")
        assert len(trace_a) == len(trace_b) == 60
        for ma, mb in zip(trace_a.metrics, trace_b.metrics):
            assert ma == mb

    def test_criterion_a_certificates_and_budget(self, small_exchange):
        problem, _ = small_exchange
        K = problem.num_blocks
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=150)
        sched = InexactSchedule.for_problem(problem, "criterion_A", 1.0, 1.5)
        solvers = iterative_solvers(problem, params)
        final, trace = iada_run(problem, params, sched, solvers,
                                stop_mode="max_iters")
        denom_factor = params.c * (params.rho * sched.e_norm + sched.e_norm + 1.0)
        total_inexact = 0.0
        total_budget = 0.0
        for t, m in enumerate(trace.metrics, start=1):
            thr = criterion_a_threshold(t, sched, params.rho, params.c, K)
            assert all(cb <= thr for cb in m.per_block_cert)
            total_inexact += denom_factor * sum(m.per_block_cert)
            total_budget += sched.eps_at(t)
        assert total_inexact <= total_budget

    def test_criterion_b_certificates(self, small_exchange):
        problem, _ = small_exchange
        K = problem.num_blocks
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=120)
        sched = InexactSchedule.for_problem(problem, "criterion_B", 1.0, 2.0)
        solvers = iterative_solvers(problem, params)
        final, trace = iada_run(problem, params, sched, solvers,
                                stop_mode="max_iters")
        prev_x = trace.initial_state.x
        for t, (m, s) in enumerate(zip(trace.metrics, trace.states), start=1):
            for k in range(K):
                step = float(np.linalg.norm(s.x[k] - prev_x[k]))
                thr = criterion_b_threshold(t, sched, params.rho, params.c, K, step)
                assert m.per_block_cert[k] <= thr + 1e-18
            prev_x = s.x

    def test_inexact_tracks_exact_objective(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=300)
        sched = InexactSchedule.for_problem(problem, "criterion_A", 1.0, 1.5)
        solvers_i = iterative_solvers(problem, params)
        _, trace_i = iada_run(problem, params, sched, solvers_i,
                              stop_mode="max_iters")
        solvers_e = ag.build_block_solvers(problem, params)
        _, trace_e = ag.run(problem, params, solvers_e, stop_mode="max_iters")
        fi = trace_i.metrics[-1].objective
        fe = trace_e.metrics[-1].objective
        assert abs(fi - fe) <= 1e-5 * max(1.0, abs(fe))

    def _tail_theta(self, problem, rho, c, trace_iters):
        """Tail ratio of a criterion-B run against its own limit.

        The solution set here is not a singleton, so the reference must be
        the trajectory's own limit: determinism makes the short trace an
        exact prefix of the longer reference run.
        """
        from dataclasses import replace
        params = ag.SolverParams(rho=rho, c=c, max_iters=trace_iters,
                                 stop_eps=1e-14)
        sched = InexactSchedule.for_problem(problem, "criterion_B", 1.0, 2.0)
        long_params = replace(params, max_iters=12 * trace_iters, stop_eps=1e-13)
        ref_solvers = iterative_solvers(problem, params)
        ref, _ = ag.run(problem, long_params, ref_solvers, stop_mode="x_change",
                        schedule=sched)
        initial = ag.make_initial_state(problem)
        observer = ag.RateObserver(problem, rho, c, ref, initial, exact_engine=False)
        solvers = iterative_solvers(problem, params)
        _, trace = ag.run(problem, params, solvers, initial=initial,
                          stop_mode="max_iters", schedule=sched, observe=observer)
        return observer.report(trace).tail_ratio_theta

    def test_local_linear_tail_on_roomy_exchange(self, small_exchange):
        # criterion B with c = rho: empirical contraction toward the limit
        problem, _ = small_exchange
        assert self._tail_theta(problem, rho=2.0, c=2.0, trace_iters=200) < 1.0

    def test_c_not_equal_rho_still_contracts(self, small_exchange):
        problem, _ = small_exchange
        assert self._tail_theta(problem, rho=2.0, c=0.7, trace_iters=200) < 1.0


class TestCriterionBRule:
    def test_matches_the_threshold_formula(self):
        # the rule refuses a bound above the criterion-A base before it forms
        # ||x - x_prev||; its decisions must equal the plain formula's
        problem, _ = ag.gen_exchange(3, 6, 4, seed=5)
        params = ag.SolverParams(rho=2.0, c=1.0, max_iters=10)
        sched = InexactSchedule.for_problem(problem, "criterion_B", 1.0, 2.0)
        rng = np.random.default_rng(5)
        state = make_initial_state(problem)
        state = IterateState(w=state.w, x=tuple(rng.standard_normal(6) for _ in range(3)),
                             eta=state.eta, zeta_bar=state.zeta_bar, y=state.y)
        nu = 7
        rules = sched.accept_rules(nu, state, params, 3)
        base = criterion_a_threshold(nu, sched, params.rho, params.c, 3)
        special = [0.0, base, np.nextafter(base, 0.0), np.nextafter(base, 1.0),
                   np.inf, np.nan]
        agreed = accepted = 0
        for trial in range(3000):
            k = trial % 3
            x_prev = state.x[k]
            x = x_prev + rng.standard_normal(6) * 10 ** rng.uniform(-9, 1)
            if trial % 50 == 0:
                x = x_prev.copy()
            if trial % 37 == 0:
                x[int(rng.integers(6))] = np.nan
            bound = base * 10 ** rng.uniform(-10, 2)
            if trial % 11 == 0:
                bound = special[(trial // 11) % len(special)]
            want = bound <= base * min(1.0, float(np.linalg.norm(x - x_prev)))
            assert rules[k](x, bound) == want
            agreed += 1
            accepted += want
        assert agreed == 3000 and 0 < accepted < agreed


class TestRuleLimit:
    def test_every_rule_refuses_every_bound_above_its_limit(self):
        # the CG loop skips the rule while ||r|| > limit: that is sound only
        # if no rule ever accepts such a bound, whatever x is
        rng = np.random.default_rng(41)
        refused = 0
        for trial in range(300):
            kind = SCHEDULE_KINDS[trial % 2]
            K = int(rng.integers(2, 6))
            sched = _schedule(kind, eps0=10 ** rng.uniform(-8, 1),
                              gamma=rng.uniform(1.01, 3.0),
                              e_norm=10 ** rng.uniform(-1, 2))
            params = ag.SolverParams(rho=10 ** rng.uniform(-2, 2),
                                     c=10 ** rng.uniform(-2, 2))
            n = int(rng.integers(1, 8))
            state = IterateState(w=np.zeros((K, 1)),
                                 x=tuple(rng.standard_normal(n) for _ in range(K)),
                                 eta=np.zeros((K, 1)), zeta_bar=np.zeros(1),
                                 y=np.zeros((K, 1)))
            nu = int(rng.integers(1, 10_000))
            base = criterion_a_threshold(nu, sched, params.rho, params.c, K)
            for k, rule in enumerate(sched.accept_rules(nu, state, params, K)):
                assert rule.limit == base
                assert rule(state.x[k] + 10.0, base)  # a step of norm >= 1
                for bound in (np.nextafter(base, np.inf), base * (1 + rng.random()),
                              base * 10 ** rng.uniform(0.01, 30), np.inf):
                    x = state.x[k] + rng.standard_normal(n) * 10 ** rng.uniform(-6, 6)
                    assert not rule(x, bound)
                    refused += 1
        assert refused > 1000


class TestHonestCertificates:
    def test_recomputed_gradient_passes_every_accept_rule(self):
        # criterion B with eps0 small enough that thresholds reach rounding
        # level: a certificate taken from a recursively updated gradient can
        # pass the rule while the gradient at the returned point does not
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1000)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=45)
        sched = InexactSchedule.for_problem(problem, "criterion_B", eps0=1e-5,
                                            gamma=2.0)
        checked, refused, fallbacks = [], [], []

        class Recheck:
            def __init__(self, inner, blk):
                self.inner, self.blk = inner, blk

            def solve(self, t, z, accept=None):
                cert = self.inner.solve(t, z, accept=accept)
                if cert.exact_fallback:
                    fallbacks.append(cert)
                    return cert
                blk, x = self.blk, cert.x
                g = blk.objective.smooth_gradient(x) \
                    + self.inner.penalty * blk.E.apply_T(blk.E.apply(x) - t) \
                    + self.inner.prox_weight * (x - z)
                gnorm = float(np.linalg.norm(g))
                checked.append(gnorm)
                if not accept(x, gnorm):
                    refused.append((gnorm, cert.subgrad_bound))
                return cert

        solvers = [Recheck(s, blk) for s, blk in
                   zip(iterative_solvers(problem, params), problem.blocks)]
        _, trace = iada_run(problem, params, sched, solvers, stop_mode="max_iters")
        assert len(trace) == 45
        assert len(checked) + len(fallbacks) == 45 * 5
        assert len(checked) > 0
        assert refused == []
        assert all(c.subgrad_bound == 0.0 for c in fallbacks)
        assert sum(m.fallbacks for m in trace.metrics) == len(fallbacks) > 0


class TestObjectiveFromCertificates:
    """The trace's objective sums the loss values that the iterative block
    solves carry; it equals ``objective(x, problem)`` bit for bit."""

    @staticmethod
    def _check(problem, params, sched):
        carried = []

        class Spy:
            def __init__(self, inner, blk):
                self.inner, self.blk = inner, blk

            def solve(self, t, z, accept=None):
                cert = self.inner.solve(t, z, accept=accept)
                if cert.value is not None:
                    assert cert.value == self.blk.objective.value(cert.x)
                    carried.append(cert.value)
                return cert

        solvers = [Spy(s, blk) for s, blk in
                   zip(iterative_solvers(problem, params), problem.blocks)]
        _, trace = iada_run(problem, params, sched, solvers, stop_mode="max_iters")
        for m, state in zip(trace.metrics, trace.states):
            assert m.objective == ag.objective(state.x, problem)
        return len(carried)

    def test_exchange_criterion_b(self):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1000)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=30)
        sched = InexactSchedule.for_problem(problem, "criterion_B", eps0=1e-5,
                                            gamma=2.0)
        assert self._check(problem, params, sched) > 30

    def test_logreg_criterion_a(self):
        A, labels = gen_logreg_data(400, 10, seed=7)
        problem = build_logreg_consensus(partition_rows(A, labels, 3), lam=0.1)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=20)
        sched = InexactSchedule.for_problem(problem, "criterion_A")
        assert self._check(problem, params, sched) > 20


class TestLogisticNewton:
    """Logistic blocks under criterion A: Newton solves, honest certificates."""

    @staticmethod
    def _run(row_blocks, iters):
        problem = build_logreg_consensus(row_blocks, lam=0.1)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=iters)
        sched = InexactSchedule.for_problem(problem, "criterion_A", eps0=1.0,
                                            gamma=1.5)
        solvers = ag.build_block_solvers(problem, params, sched)
        _, trace = iada_run(problem, params, sched, solvers, stop_mode="max_iters")
        assert len(trace) == iters
        return problem, params, sched, solvers, trace

    def test_every_certificate_is_the_recomputed_gradient(self):
        A, labels = gen_logreg_data(400, 10, seed=7)
        problem, params, sched, solvers, trace = self._run(
            partition_rows(A, labels, 3), 30)
        K = problem.num_blocks
        prev, checked = trace.initial_state, 0
        for nu, (state, m) in enumerate(zip(trace.states, trace.metrics), start=1):
            targets = _block_targets(prev, problem, params.rho)
            rules = sched.accept_rules(nu, prev, params, K)
            for k in range(K - 1):  # the last block is the l1 prox
                blk, solver = problem.blocks[k], solvers[k]
                x, t, z = state.x[k], targets[k], prev.x[k]
                g = blk.objective.smooth_gradient(x) \
                    + solver.penalty * blk.E.apply_T(blk.E.apply(x) - t) \
                    + solver.prox_weight * (x - z)
                gnorm = float(np.linalg.norm(g))
                assert m.per_block_cert[k] == gnorm
                assert rules[k](x, gnorm)
                checked += 1
            prev = state
        assert checked == 30 * (K - 1)
        assert sum(m.inner_iters_total for m in trace.metrics) > 0

    def test_sparse_data_takes_the_same_steps(self):
        # A^T diag(h) A is formed by sparse products for CSR data
        A, labels = gen_logreg_data(300, 8, seed=3)
        parts = partition_rows(A, labels, 2)
        *_, dense = self._run(parts, 20)
        problem, *_, sparse = self._run([(sp.csr_matrix(A_i), b_i) for A_i, b_i in parts], 20)
        assert sp.issparse(problem.blocks[0].objective.smooth.A)
        for md, ms, sd, ss in zip(dense.metrics, sparse.metrics, dense.states, sparse.states):
            assert md.inner_iters_total == ms.inner_iters_total
            for xd, xs in zip(sd.x, ss.x):
                assert np.linalg.norm(xs - xd) <= 1e-12 * max(1.0, np.linalg.norm(xd))


class TestClosedFormsUnderSchedule:
    """The default build solves least-squares and l1 blocks by their closed
    forms under any schedule; those certify 0, which passes every rule, so
    the run is exact ADA's bit for bit."""

    @pytest.mark.parametrize("kind", ["criterion_A", "criterion_B"])
    @pytest.mark.parametrize("case", ["exchange", "lasso"])
    def test_inexact_run_is_the_exact_run(self, small_exchange, small_lasso, case, kind):
        problem = small_exchange[0] if case == "exchange" else small_lasso
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=60)
        sched = InexactSchedule.for_problem(problem, kind, 1.0, 2.0)
        final_i, trace_i = ag.run(problem, params, ag.build_block_solvers(problem, params, sched),
                                  stop_mode="max_iters", schedule=sched)
        final_e, trace_e = ag.run(problem, params, ag.build_block_solvers(problem, params),
                                  stop_mode="max_iters")
        assert len(trace_i) == len(trace_e) == 60
        assert all(np.array_equal(a, b) for a, b in zip(final_i.x, final_e.x))
        assert np.array_equal(final_i.zeta_bar, final_e.zeta_bar)
        assert np.array_equal(np.array([m.objective for m in trace_i.metrics]),
                              np.array([m.objective for m in trace_e.metrics]))
        assert all(cb == 0.0 for m in trace_i.metrics for cb in m.per_block_cert)


class TestQuadraticBlocksByCG:
    def _block(self, seed, E=None):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((12, 7))
        b = rng.standard_normal(12)
        E = ag.Coupling.identity(7) if E is None else E
        blk = BlockSpec(n=7, E=E, objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", A, b)))
        return blk, rng.standard_normal(E.shape[0]), rng.standard_normal(7)

    @pytest.mark.parametrize("general", [False, True])
    def test_certificate_is_recomputed_gradient(self, general):
        E = np.random.default_rng(1).standard_normal((5, 7)) if general else None
        blk, t, z = self._block(2, E)
        solver = CgBlockSolver(blk, penalty=1.5, prox_weight=0.5)
        thr = 1e-6
        cert = solver.solve(t, z, accept=lambda x, bound: bound <= thr)
        assert not cert.exact_fallback and 0 < cert.inner_iters <= 7 + 5
        _, g = solver._fun_grad(t, z)(cert.x)
        assert cert.subgrad_bound == float(np.linalg.norm(g)) <= thr

    def test_unattainable_threshold_falls_back_to_exact_solve(self):
        blk, t, z = self._block(3)
        solver = CgBlockSolver(blk, penalty=1.5, prox_weight=0.5)
        cert = solver.solve(t, z, accept=lambda x, bound: bound <= 0.0)
        exact = GeneralQuadBlockSolver(blk, penalty=1.5, prox_weight=0.5).solve(t, z)
        assert cert.exact_fallback and cert.subgrad_bound == 0.0
        assert 0 < cert.inner_iters <= CgBlockSolver.cg_budget
        assert np.allclose(cert.x, exact.x, rtol=0, atol=1e-12)

    def test_closed_form_runs_report_no_fallbacks(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=30)
        _, trace = ag.run(problem, params, ag.build_block_solvers(problem, params),
                          stop_mode="max_iters")
        assert [m.fallbacks for m in trace.metrics] == [0] * 30


class TestCGFloorStop:
    """The conjugate-gradient solve falls back once the rule refuses the
    rounding floor of the gradient, and only then."""

    @staticmethod
    def _exchange_block(seed=0):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        solver = CgBlockSolver(problem.blocks[0], penalty=5.0, prox_weight=0.1)
        rng = np.random.default_rng(seed)
        return solver, rng.standard_normal(100), rng.standard_normal(100)

    def test_fallback_returns_the_exact_solve(self):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1000)
        params = ag.SolverParams(rho=10.0, c=10.0, max_iters=45)
        sched = InexactSchedule.for_problem(problem, "criterion_B", eps0=1e-5,
                                            gamma=2.0)
        fallbacks = []

        class Check:
            def __init__(self, inner):
                self.inner = inner

            def solve(self, t, z, accept=None):
                cert = self.inner.solve(t, z, accept=accept)
                if cert.exact_fallback:
                    fallbacks.append(cert)
                    assert np.array_equal(cert.x, self.inner._fallback.solve(t, z).x)
                    assert cert.subgrad_bound == 0.0 and cert.inner_iters > 0
                return cert

        solvers = [Check(s) for s in iterative_solvers(problem, params)]
        iada_run(problem, params, sched, solvers, stop_mode="max_iters")
        assert len(fallbacks) > 0

    def test_refused_floor_stops_early(self):
        # without the floor stop this solve ran to the 300-step budget
        solver, t, z = self._exchange_block()
        cert = solver.solve(t, z, accept=lambda x, bound: bound <= 1e-30)
        assert cert.exact_fallback and cert.subgrad_bound == 0.0
        assert 0 < cert.inner_iters <= 30
        assert np.array_equal(cert.x, solver._fallback.solve(t, z).x)

    def test_threshold_above_the_floor_is_certified(self):
        solver, t, z = self._exchange_block()
        fun_grad = solver._fun_grad(t, z)
        A = solver.block.objective.smooth.A
        x_star = solver._fallback.solve(t, z).x
        b = A.T @ (A @ z) + solver._shift * z - fun_grad(z)[1]
        floor = np.finfo(float).eps / 2 * (
            (np.linalg.norm(A, 2) ** 2 + solver._shift) * np.linalg.norm(x_star)
            + np.linalg.norm(b))
        cert = solver.solve(t, z, accept=lambda x, bound: bound <= 100 * floor)
        assert not cert.exact_fallback and cert.inner_iters > 0
        _, g = fun_grad(cert.x)
        assert cert.subgrad_bound == float(np.linalg.norm(g)) <= 100 * floor


class TestFormedHessian:
    def test_lazy_hessian_matches_the_two_products(self):
        problem, _ = ag.gen_exchange(5, 100, 80, seed=1)
        params = ag.SolverParams(rho=10.0, c=10.0)
        solvers = iterative_solvers(problem, params)
        assert all("_hess" not in vars(s) for s in solvers)
        rng = np.random.default_rng(0)
        for s in solvers:
            A = s.block.objective.smooth.A
            for _ in range(3):
                d = rng.standard_normal(100)
                want = A.T @ (A @ d) + s._shift * d
                # relative to the vector: single entries can cancel to ~1e-3 of it
                assert np.linalg.norm(s._hess @ d - want) <= 1e-13 * np.linalg.norm(want)

    def test_general_coupling_hessian_matches_the_products(self):
        rng = np.random.default_rng(1)
        blk = BlockSpec(n=7, E=rng.standard_normal((5, 7)), objective=FunctionDescriptor(
            smooth=SmoothPart("least_squares", rng.standard_normal((12, 7)),
                              rng.standard_normal(12))))
        solver = CgBlockSolver(blk, penalty=1.5, prox_weight=0.5)
        assert "_hess" not in vars(solver)
        A, E = blk.objective.smooth.A, blk.E
        for _ in range(3):
            d = rng.standard_normal(7)
            want = A.T @ (A @ d) + 1.5 * E.apply_T(E.apply(d)) + 0.5 * d
            assert np.linalg.norm(solver._hess @ d - want) <= 1e-13 * np.linalg.norm(want)
