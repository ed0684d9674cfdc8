import json
import math
from dataclasses import fields

import numpy as np
import pytest

import augdecomp as ag
from augdecomp.ada import StepMetrics, Trace
from augdecomp.diagnostics import (_TAIL_FLOOR, _TAIL_WINDOW, RateObserver,
                                   RateReport, _tail_ratio, delta_partial_sums,
                                   kkt_residual, nu_a_nu_medians, rate_report,
                                   verify_monotone)
from augdecomp.inexact import InexactSchedule, iada_run
from augdecomp.model import IterateState, make_initial_state

from conftest import iterative_solvers, lasso_polish


def trace_with_deltas(deltas):
    metrics = [StepMetrics(i + 1, 0.0, 0.0, float(d), 0.0, 0.0, (0.0,))
               for i, d in enumerate(deltas)]
    return Trace(initial_state=None, metrics=metrics)


class TestMonotone:
    def test_exact_run_is_monotone(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=1.5, c=1.0, max_iters=300)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = ag.run(problem, params, solvers, stop_mode="max_iters")
        ok, first = verify_monotone(trace)
        assert ok and first is None

    def test_permuted_trace_reports_index(self):
        ok, first = verify_monotone(trace_with_deltas([4.0, 1.0, 2.0, 0.5]))
        assert not ok
        assert first == 3

    def test_constant_trace(self):
        ok, _ = verify_monotone(trace_with_deltas([1.0, 1.0, 1.0]))
        assert ok

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            verify_monotone(trace_with_deltas([1.0, 0.5]))


class TestPartialSumsAndMedians:
    def test_partial_sums_nondecreasing(self):
        sums = delta_partial_sums(trace_with_deltas([3.0, 1.0, 0.5, 0.1]))
        assert np.all(np.diff(sums) >= 0)
        assert sums[-1] == pytest.approx(4.6)

    def test_decade_medians(self):
        # a_nu = 1/nu^2 so nu*a_nu = 1/nu: last-decade median well below first
        n = 200
        deltas = [1.0 / (i + 1) ** 2 for i in range(n)]
        first, last = nu_a_nu_medians(trace_with_deltas(deltas))
        assert last <= 0.2 * first

    def test_summability_tail_proxy_on_run(self, small_exchange):
        # Cauchy proxy: last-decade contribution <= 1% of the total sum
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=400)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = ag.run(problem, params, solvers, stop_mode="max_iters")
        sums = delta_partial_sums(trace)
        tail = sums[-1] - sums[int(0.9 * len(sums)) - 1]
        assert tail <= 0.01 * sums[-1]


class TestErgodic:
    def _run(self, problem, reference, rho=2.0, c=2.0, iters=400):
        params = ag.SolverParams(rho=rho, c=c, max_iters=iters)
        solvers = ag.build_block_solvers(problem, params)
        initial = make_initial_state(problem)
        observer = RateObserver(problem, rho, c, reference, initial)
        _, trace = ag.run(problem, params, solvers, initial=initial,
                          stop_mode="max_iters", observe=observer)
        return trace, observer

    def test_bound_holds_against_saddle(self, small_exchange,
                                        small_exchange_saddle):
        problem, _ = small_exchange
        _, observer = self._run(problem, small_exchange_saddle)
        assert observer.ergodic_max_violation <= 1e-8

    def test_rhs_halves_when_n_doubles(self, small_exchange,
                                       small_exchange_saddle):
        problem, _ = small_exchange
        ref = small_exchange_saddle
        trace, _ = self._run(problem, ref, iters=8)
        d0 = ag.state_g_dist_sq(ref, trace.initial_state, 2.0, 2.0)
        assert d0 / 2 == pytest.approx((d0 / 1) / 2)
        assert d0 / 4 == pytest.approx((d0 / 2) / 2)

    def test_first_iterate_at_optimum(self, small_exchange, small_exchange_saddle):
        # lhs at N=1 with x^1 = x_hat is 0 (feasible, optimal), rhs > 0
        problem, _ = small_exchange
        ref = small_exchange_saddle
        observer = RateObserver(problem, 2.0, 2.0, ref, make_initial_state(problem))
        observer(ref)
        assert observer.ergodic_max_violation <= 0.0


class TestLinearTail:
    def test_geometric_synthetic(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        ref = small_exchange_saddle
        K, m = ref.w.shape
        direction = np.zeros((K, m))
        direction[0, 0] = 1.0
        direction[1, 0] = -1.0
        states = []
        for nu in range(40):
            w = ref.w + 0.5 ** nu * direction
            states.append(IterateState(w=w, x=ref.x, eta=ref.eta,
                                       zeta_bar=ref.zeta_bar, y=ref.y))
        observer = RateObserver(problem, 2.0, 1.0, ref, make_initial_state(problem))
        for state in states:
            observer(state)
        theta = _tail_ratio(observer.dists[1:], 0.5, _TAIL_FLOOR)
        assert theta == pytest.approx(0.5)

    def test_at_reference_reports_empty_window(self, small_exchange,
                                               small_exchange_saddle):
        problem, _ = small_exchange
        ref = small_exchange_saddle
        observer = RateObserver(problem, 1.0, 1.0, ref, make_initial_state(problem))
        for _ in range(3):
            observer(ref)
        with pytest.raises(ValueError, match="empty"):
            _tail_ratio(observer.dists[1:], _TAIL_WINDOW, _TAIL_FLOOR)
        trace = trace_with_deltas([0.0, 0.0, 0.0])
        assert observer.report(trace).tail_ratio_theta is None


class TestKkt:
    def test_at_saddle(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        ref = small_exchange_saddle
        assert kkt_residual(ref.x, ref.zeta_bar, problem) <= 1e-8

    def test_lasso_origin_with_zero_data(self):
        from augdecomp.model import (BlockSpec, FunctionDescriptor, Problem,
                                     SmoothPart)
        A = np.eye(3)
        blocks = (
            BlockSpec(n=3, E=np.eye(3), objective=FunctionDescriptor(
                smooth=SmoothPart("least_squares", A, np.zeros(3)))),
            BlockSpec(n=3, E=-np.eye(3), objective=FunctionDescriptor(l1_scale=0.5)),
        )
        problem = Problem(blocks=blocks, q=np.zeros(3))
        assert kkt_residual([np.zeros(3), np.zeros(3)], np.zeros(3), problem) == 0.0

    def test_nonnegative_on_random_points(self, small_lasso):
        rng = np.random.default_rng(0)
        d = small_lasso.blocks[0].n
        for _ in range(5):
            x = [rng.standard_normal(d), rng.standard_normal(d)]
            y = rng.standard_normal(small_lasso.m)
            assert kkt_residual(x, y, small_lasso) >= 0.0


class TestRateReport:
    def test_json_field_names(self, tmp_path):
        report = RateReport(monotone_ok=True, first_violation=None,
                            partial_sums=[1.0, 1.5], nu_a_nu_medians=(2.0, 0.1),
                            fejer_ok=True, ergodic_max_violation=-0.5,
                            tail_ratio_theta=0.9)
        path = tmp_path / "report.json"
        report.to_json(path)
        data = json.loads(path.read_text())
        assert set(data) == {"monotone_ok", "first_violation", "partial_sums",
                             "nu_a_nu_medians", "fejer_ok",
                             "ergodic_max_violation", "tail_ratio_theta"}
        assert data["nu_a_nu_medians"] == [2.0, 0.1]

    def test_assembled_from_run(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=300)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = iada_run(problem, params, None, solvers, stop_mode="max_iters")
        report = rate_report(trace, problem, 2.0, 2.0,
                             reference=small_exchange_saddle)
        assert report.monotone_ok
        assert report.fejer_ok
        assert report.ergodic_max_violation <= 1e-8
        assert report.partial_sums[-1] >= report.partial_sums[0]

    def test_reference_needs_states_or_an_observer(self, small_exchange,
                                                   small_exchange_saddle):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=5)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = ag.run(problem, params, solvers, stop_mode="max_iters")
        with pytest.raises(ValueError, match="without states"):
            rate_report(trace, problem, 2.0, 2.0, reference=small_exchange_saddle)
        unfed = RateObserver(problem, 2.0, 2.0, small_exchange_saddle,
                             trace.initial_state)
        with pytest.raises(ValueError, match="fed 0 states for a trace of 5"):
            unfed.report(trace)

    def test_reference_needs_an_initial_state(self, small_exchange, small_exchange_saddle):
        problem, _ = small_exchange
        with pytest.raises(ValueError, match="a reference needs an initial state"):
            RateObserver(problem, 2.0, 2.0, small_exchange_saddle, None)

    def test_reference_free_report(self, small_exchange):
        problem, _ = small_exchange
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=50)
        solvers = ag.build_block_solvers(problem, params)
        _, trace = ag.run(problem, params, solvers, stop_mode="max_iters")
        report = rate_report(trace, problem, 2.0, 2.0)
        assert report.fejer_ok is None
        assert report.ergodic_max_violation is None
        assert report.monotone_ok is not None


class TestRateObserver:
    @pytest.mark.parametrize("case", ["exchange-ada", "exchange-iada-b", "lasso-ada"])
    def test_fed_during_the_run_equals_post_hoc(self, case, small_exchange,
                                                small_exchange_saddle, small_lasso):
        if case == "lasso-ada":
            problem = small_lasso
            reference = lasso_polish(problem, ag.SolverParams(rho=5.0, c=5.0))
        else:
            problem, reference = small_exchange[0], small_exchange_saddle
        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=200)
        exact = case != "exchange-iada-b"
        sched = None if exact \
            else InexactSchedule.for_problem(problem, "criterion_B", 1.0, 2.0)

        def solvers():
            return ag.build_block_solvers(problem, params) if exact \
                else iterative_solvers(problem, params)

        initial = make_initial_state(problem)
        observer = RateObserver(problem, params.rho, params.c, reference, initial,
                                exact_engine=exact)
        _, fed = ag.run(problem, params, solvers(), initial=initial, stop_mode="max_iters",
                        schedule=sched, observe=observer)
        _, kept = iada_run(problem, params, sched, solvers(), stop_mode="max_iters")
        assert fed.states is None and observer.steps == len(fed) == 200
        got = observer.report(fed)
        want = rate_report(kept, problem, params.rho, params.c, reference=reference,
                           exact_engine=exact)
        for f in fields(RateReport):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got.ergodic_max_violation is not None
        assert (got.fejer_ok is not None) == exact

    def test_non_finite_run_fails_every_check(self, small_exchange,
                                              small_exchange_saddle):
        # block 0 returns NaN at step 10: the run stops there, and no check
        # may read the NaN state as passing
        problem, _ = small_exchange

        class NaNAtTen:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def solve(self, t, z, accept=None):
                self.calls += 1
                cert = self.inner.solve(t, z, accept=accept)
                if self.calls < 10:
                    return cert
                return ag.BlockSolveCertificate(x=np.full_like(cert.x, np.nan),
                                                subgrad_bound=0.0)

        params = ag.SolverParams(rho=2.0, c=2.0, max_iters=50)
        solvers = ag.build_block_solvers(problem, params)
        solvers[0] = NaNAtTen(solvers[0])
        initial = make_initial_state(problem)
        observer = RateObserver(problem, params.rho, params.c, small_exchange_saddle,
                                initial)
        _, trace = ag.run(problem, params, solvers, initial=initial,
                          stop_mode="max_iters", observe=observer)
        assert trace.stop_reason == "non_finite" and len(trace) == 10
        report = observer.report(trace)
        assert report.monotone_ok is False and report.first_violation == 10
        assert report.fejer_ok is False
        assert math.isnan(report.ergodic_max_violation)
        assert math.isnan(report.tail_ratio_theta)
