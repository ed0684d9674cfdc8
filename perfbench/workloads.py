"""The benchmark's workloads: instances, the public calls a CLI run makes, and
the correctness gate.

One *attempt* is what ``augdecomp solve`` does for one instance, in process:
set up (generate the instance, build the inexact schedule and the block
solvers), run the engine at a fixed outer budget with ``stop_mode =
"max_iters"``, then the post-run pass (rate report, KKT residual and the
three artifacts).  Each phase is timed around the public calls only.

A run solves a fixed list of instances derived from the seed.  The accuracy
reached at a fixed budget, and for the iterative engines the cost per
iteration, differ by 15-25% from one instance to the next, so a single
instance per run would make every run-to-run comparison mostly a comparison
of instances.  The run pools the list instead: timings are averaged over its
attempts and the accuracy is the geometric mean over its instances.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import augdecomp as ag
from augdecomp import ada, baselines, bench, diagnostics
from augdecomp.inexact import (InexactSchedule, criterion_a_threshold,
                               criterion_b_threshold, iada_run)
from augdecomp.model import saddle_state

STOP_EPS = 1e-8  # unused by the "max_iters" stop mode, but must be positive

# Every phase is timed in CPU time of the process, not wall time.  The
# process is single-threaded (one BLAS thread) and its timed calls do not
# block, so on an idle machine the two agree; on a shared VM the host can
# take 30-50% of a vCPU for seconds at a time, which wall time counts and
# CPU time does not.
clock = time.process_time

# set-up and the post-run pass are repeated within an attempt until this
# much time is spent (at least once, at most MAX_REPEATS times): both take
# 3-100 ms, too short for one sample per attempt to be steady
REPEAT_MIN_S = 0.1
MAX_REPEATS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str        # generator: "lasso", "exchange" or "logreg"
    engine: str        # "ada", "iada" or "baselines"
    instances: int     # distinct instances per run
    iters: int         # fixed outer budget per engine call
    sizes: tuple       # generator dimensions
    rho: float = 10.0
    c: float = 10.0
    criterion: str | None = None
    eps0: float = 1.0
    gamma: float = 1.5
    saddle_reference: bool = False  # rate report checks against the exact saddle


def _workloads(tiny: bool) -> dict:
    """Full-size workloads, or the same four at toy sizes for the self-check."""
    def pick(full, small):
        return small if tiny else full

    wls = [
        Workload(
            "lasso-ada",
            "exact ADA on lasso 200x800: dense +-identity coupling and "
            "closed-form quad/l1 solves load model, ada and the closed-form "
            "solvers; no iterative solver runs",
            family="lasso", engine="ada",
            instances=pick(20, 2), iters=pick(200, 12),
            sizes=pick((200, 800), (20, 40)), rho=5.0, c=5.0),
        Workload(
            "exchange-iada-b",
            "iADA criterion B on exchange 5x100x80: over 95% of time in L-BFGS "
            "on quadratic blocks, where exact fallbacks and wasted inner "
            "iterations appear",
            family="exchange", engine="iada",
            instances=pick(8, 2), iters=pick(45, 12),
            sizes=pick((5, 100, 80), (3, 12, 8)),
            criterion="criterion_B", eps0=1e-5, gamma=2.0, saddle_reference=True),
        Workload(
            "logreg-iada",
            "iADA criterion A on logistic consensus 2000x50/4: L-BFGS with "
            "Wolfe line search and sparse coupling; engine and model layers "
            "nearly idle, no fallback path",
            family="logreg", engine="iada",
            instances=pick(24, 2), iters=pick(30, 8),
            sizes=pick((2000, 50, 4, 0.1), (120, 6, 2, 0.1)),
            criterion="criterion_A", eps0=1.0, gamma=1.5),
        Workload(
            "lasso-admm",
            "the lasso instances under the ADMM2, VSADMM and PJADMM baselines, "
            "which reach model and block_solvers through other drivers than ADA",
            family="lasso", engine="baselines",
            instances=pick(12, 2), iters=pick(120, 12),
            sizes=pick((200, 800), (20, 40))),
    ]
    return {wl.name: wl for wl in wls}


WORKLOADS = _workloads(tiny=False)
TINY_WORKLOADS = _workloads(tiny=True)


def instance_seeds(seed: int, count: int) -> list:
    """Generator seeds of a run's instances; disjoint for seeds below 2**50."""
    return [1000 * seed + j for j in range(count)]


# ---------------------------------------------------------------------------
# Set-up: everything before iteration 1


@dataclass
class Setup:
    problem: object
    params: object
    schedule: object = None
    solvers: object = None  # block solvers, or the Admm2Lasso driver


def generate(wl: Workload, seed: int):
    if wl.family == "lasso":
        problem, _ = ag.gen_lasso(*wl.sizes, seed=seed)
    elif wl.family == "exchange":
        problem, _ = ag.gen_exchange(*wl.sizes, seed=seed)
    else:
        n, d, parts, lam = wl.sizes
        A, labels = bench.gen_logreg_data(n, d, seed)
        problem = bench.build_logreg_consensus(bench.partition_rows(A, labels, parts), lam)
    return problem


def make_schedule(wl: Workload, problem):
    if wl.criterion is None:
        return None
    return InexactSchedule.for_problem(problem, kind=wl.criterion,
                                       eps0=wl.eps0, gamma=wl.gamma)


def build(wl: Workload, problem, params, schedule):
    if wl.engine == "baselines":
        return baselines.Admm2Lasso(problem, baseline_params())
    return ag.build_block_solvers(problem, params, schedule)


def baseline_params():
    return baselines.BaselineParams(beta=1.0, gamma_damp=1.0, admm_step=1.618)


def solver_params(wl: Workload):
    return ag.SolverParams(rho=wl.rho, c=wl.c, max_iters=wl.iters, stop_eps=STOP_EPS)


def setup(wl: Workload, seed: int) -> Setup:
    problem = generate(wl, seed)
    params = solver_params(wl)
    schedule = make_schedule(wl, problem)
    return Setup(problem, params, schedule, build(wl, problem, params, schedule))


def exchange_saddle(problem):
    """Exact saddle of an exchange instance from its dense KKT system.

    Stationarity ``A_k^T A_k x_k + y = A_k^T b_k`` per block and
    ``sum_k x_k = 0``; the reference for the rate report's ergodic and tail
    checks.  It is the benchmark's own work, timed in no metric.
    """
    K, n = problem.num_blocks, problem.m
    M = np.zeros((K * n + n, K * n + n))
    rhs = np.zeros(K * n + n)
    for k, blk in enumerate(problem.blocks):
        A, b = blk.objective.smooth.A, blk.objective.smooth.b
        rows = slice(k * n, (k + 1) * n)
        M[rows, rows] = A.T @ A
        M[rows, K * n:] = np.eye(n)
        M[K * n:, rows] = np.eye(n)
        rhs[rows] = A.T @ b
    sol = np.linalg.solve(M, rhs)
    return saddle_state(problem, [sol[k * n:(k + 1) * n] for k in range(K)], sol[K * n:])


# ---------------------------------------------------------------------------
# Engine calls


@dataclass
class Solve:
    """One engine call and what the post-run pass needs from it."""

    label: str
    trace: object
    x: tuple
    multiplier: np.ndarray
    start: float
    end: float
    exact_engine: bool = True
    include_certs: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_engine(wl: Workload, s: Setup, stop=None, wrap_baseline=None) -> list:
    """The workload's engine call(s); ``stop`` replaces the ``"max_iters"``
    stop mode and ``wrap_baseline`` the baselines' solver factory (tracing)."""
    stop_mode = "max_iters" if stop is None else stop
    if wl.engine == "ada":
        t0 = clock()
        final, trace = ada.run(s.problem, s.params, s.solvers, stop_mode=stop_mode)
        t1 = clock()
        return [Solve("ada", trace, final.x, final.zeta_bar, t0, t1)]
    if wl.engine == "iada":
        t0 = clock()
        final, trace = iada_run(s.problem, s.params, s.schedule, s.solvers,
                                stop_mode=stop_mode)
        t1 = clock()
        return [Solve("iada", trace, final.x, final.zeta_bar, t0, t1,
                      exact_engine=False, include_certs=True)]
    return _run_baselines(wl, s, wrap_baseline)


def _run_baselines(wl: Workload, s: Setup, wrap_baseline) -> list:
    bp = baseline_params()
    out = []
    t0 = clock()
    state, trace = s.solvers.run(wl.iters, STOP_EPS, "max_iters")
    t1 = clock()
    out.append(Solve("admm2", trace, (state[0], state[1]),
                     s.solvers.multiplier(state), t0, t1))
    original = baselines.build_penalized_solvers
    if wrap_baseline is not None:
        baselines.build_penalized_solvers = wrap_baseline(original)
    try:
        t0 = clock()
        state, trace = baselines.vsadmm_run(s.problem, bp, wl.iters, STOP_EPS, "max_iters")
        t1 = clock()
        out.append(Solve("vsadmm", trace, state[1], state[2].mean(axis=0), t0, t1))
        t0 = clock()
        state, trace = baselines.prox_jadmm_run(s.problem, bp, wl.iters, STOP_EPS,
                                                "max_iters")
        t1 = clock()
        out.append(Solve("proxjadmm", trace, state[0], -state[1], t0, t1))
    finally:
        baselines.build_penalized_solvers = original
    return out


# ---------------------------------------------------------------------------
# Post-run pass: what a CLI run pays after solving


def post(wl: Workload, s: Setup, solves: list, out_dir: Path, reference=None,
         times: dict | None = None) -> list:
    """Rate report, KKT residual, trace CSV, report JSON and summary JSON for
    every engine call; returns the summaries.  ``times`` collects the split
    between ``rate_report``, ``kkt`` and ``artifacts`` when given."""
    split = {"rate_report": 0.0, "kkt": 0.0, "artifacts": 0.0}
    summaries = []
    for sv in solves:
        t0 = clock()
        if wl.engine == "baselines":
            report = diagnostics.RateReport()
        else:
            report = diagnostics.rate_report(sv.trace, s.problem, s.params.rho, s.params.c,
                                             reference=reference,
                                             exact_engine=sv.exact_engine)
        t1 = clock()
        kkt = diagnostics.kkt_residual(sv.x, sv.multiplier, s.problem)
        t2 = clock()
        d = out_dir / sv.label
        d.mkdir(parents=True, exist_ok=True)
        sv.trace.to_csv(d / "trace.csv", include_certs=sv.include_certs)
        report.to_json(d / "rate_report.json")
        summary = {
            "workload": wl.name,
            "solver": sv.label,
            "iterations": len(sv.trace),
            "converged": bool(sv.trace.converged),
            "objective": ag.objective(sv.x, s.problem),
            "residual_norm": float(np.linalg.norm(ag.constraint_residual(sv.x, s.problem))),
            "kkt_residual": kkt,
        }
        with open(d / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        t3 = clock()
        split["rate_report"] += t1 - t0
        split["kkt"] += t2 - t1
        split["artifacts"] += t3 - t2
        summaries.append(summary)
    if times is not None:
        for key, value in split.items():
            times[key] = times.get(key, 0.0) + value
    return summaries


# ---------------------------------------------------------------------------
# One untraced attempt


def repeat(fn):
    """``(last result, times)`` of ``fn()``, called until REPEAT_MIN_S is spent."""
    times = []
    while not times or (sum(times) < REPEAT_MIN_S and len(times) < MAX_REPEATS):
        t0 = clock()
        result = fn()
        times.append(clock() - t0)
    return result, times


def untraced_attempt(wl: Workload, seed: int, out_dir: Path):
    """Set-up, engine call and post-run pass on one instance; returns
    ``(setup, solves, summaries, timings)``."""
    s, setup_times = repeat(lambda: setup(wl, seed))
    reference = exchange_saddle(s.problem) if wl.saddle_reference else None
    solves = run_engine(wl, s)
    summaries, post_times = repeat(lambda: post(wl, s, solves, out_dir, reference))
    return s, solves, summaries, {
        "setup_s": setup_times,
        "engine_s": sum(sv.seconds for sv in solves),
        "iters": sum(len(sv.trace) for sv in solves),
        "post_s": post_times,
    }


# ---------------------------------------------------------------------------
# Correctness gate


def cert_violations(s: Setup, trace) -> int:
    """Recorded certificates above the schedule's threshold, recomputed from
    the recorded states with the library's threshold functions."""
    if s.schedule is None or trace.states is None:
        return 0
    K = s.problem.num_blocks
    rho, c = s.params.rho, s.params.c
    prev = trace.initial_state
    count = 0
    for nu, (m, cur) in enumerate(zip(trace.metrics, trace.states), start=1):
        for k, bound in enumerate(m.per_block_cert):
            if s.schedule.kind == "criterion_B":
                step = float(np.linalg.norm(cur.x[k] - prev.x[k]))
                limit = criterion_b_threshold(nu, s.schedule, rho, c, K, step)
            else:
                limit = criterion_a_threshold(nu, s.schedule, rho, c, K)
            count += bound > limit
        prev = cur
    return count


def gate(wl: Workload, s: Setup, solves: list, summaries: list, out_dir: Path,
         expected: dict | None) -> list:
    """Every check an attempt must pass; returns the failures (empty = pass).

    ``expected`` maps a solve label to ``(objective, kkt)`` recorded for this
    instance, compared to 1e-9 relative.
    """
    failures = []
    for sv, summ in zip(solves, summaries):
        tag = f"{wl.name}/{sv.label}"
        for key in ("objective", "residual_norm", "kkt_residual"):
            if not math.isfinite(summ[key]):
                failures.append(f"{tag}: {key} is {summ[key]}")
        if len(sv.trace) != wl.iters:
            failures.append(f"{tag}: {len(sv.trace)} iterations, budget {wl.iters}")
        with open(out_dir / sv.label / "trace.csv", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows != len(sv.trace):
            failures.append(f"{tag}: trace.csv has {rows} rows for {len(sv.trace)} iterations")
        violations = cert_violations(s, sv.trace)
        if violations:
            failures.append(f"{tag}: {violations} certificates above their threshold")
        if wl.saddle_reference and summ["objective"] < 0.0:
            failures.append(f"{tag}: objective {summ['objective']!r} below the optimum 0")
        if expected is not None:
            want = expected.get(sv.label)
            got = (summ["objective"], summ["kkt_residual"])
            if want is None:
                failures.append(f"{tag}: no recorded reference")
            elif any(abs(g - w) > 1e-9 * abs(w) for g, w in zip(got, want)):
                failures.append(f"{tag}: (objective, kkt) {got!r} differs from the "
                                f"recorded {tuple(want)!r}")
    return failures
