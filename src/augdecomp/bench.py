"""Benchmark instance generators, dataset I/O, and the experiment runner.

Every generator is a pure function of its dimensions and a 64-bit seed: the
random stream is a counter-based Philox generator and Gaussians are produced
by the Box-Muller transform over its uniforms, so repeat runs are
reproducible byte for byte.  The runner writes a trace CSV, a rate-report
JSON, and a run-summary JSON; the ``solve`` subcommand of the CLI drives it
from a JSON config or command-line flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import ada, baselines, diagnostics
from .block_solvers import BlockSolveError, build_block_solvers
from .coupling import Coupling
from .inexact import SCHEDULE_KINDS, InexactSchedule, check_schedule_params
from .model import (BlockSpec, FunctionDescriptor, Problem, SmoothPart,
                    SolverParams, constraint_residual, make_initial_state,
                    objective)


class RandomStream:
    """Deterministic draws from a counter-based Philox stream.

    Gaussians come from the Box-Muller transform over the stream's uniforms;
    subsets are chosen by ranking uniforms, so every consumer depends only on
    the seed and the (fixed) order of calls.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(seed))

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def gaussians(self, shape) -> np.ndarray:
        n = int(np.prod(shape))
        half = (n + 1) // 2
        u1 = self.uniforms(half)
        u2 = self.uniforms(half)
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], log is finite
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def index_subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), by ranking n uniforms."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        return np.argsort(self.uniforms(n), kind="stable")[:k]


# ---------------------------------------------------------------------------
# Instance generators


def gen_lasso(n: int, d: int, seed: int):
    """Random lasso instance in two-block form.

    ``A`` is n-by-d standard Gaussian; the ground truth has ``floor(0.05 d)``
    Gaussian nonzeros (at least one) at uniformly random positions;
    ``b = A x0 + noise`` with noise variance 1e-3, and the l1 weight is
    ``0.1 * ||A^T b||_inf``.  Returns ``(problem, x0)`` with blocks
    ``(least squares, l1)`` coupled by ``x - z = 0``.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rs = RandomStream(seed)
    A = rs.gaussians((n, d))
    nnz = max(1, int(math.floor(0.05 * d)))
    support = rs.index_subset(d, nnz)
    x0 = np.zeros(d)
    x0[support] = rs.gaussians(nnz)
    noise = math.sqrt(1e-3) * rs.gaussians(n)
    b = A @ x0 + noise
    lam = 0.1 * float(np.abs(A.T @ b).max())
    blocks = (
        BlockSpec(n=d, E=Coupling.identity(d),
                  objective=FunctionDescriptor(smooth=SmoothPart("least_squares", A, b))),
        BlockSpec(n=d, E=Coupling.identity(d, sign=-1),
                  objective=FunctionDescriptor(l1_scale=lam)),
    )
    return Problem(blocks=blocks, q=np.zeros(d)), x0


def gen_exchange(K: int, n: int, p: int, seed: int):
    """Random exchange instance with known optimum and optimal value 0.

    Draws ``x*_1..x*_{K-1}`` standard Gaussian and sets
    ``x*_K = -sum_{k<K} x*_k``; each block cost is
    ``0.5 ||A_k x_k - A_k x*_k||^2`` with Gaussian p-by-n ``A_k``, so ``x*``
    is feasible for ``sum_k x_k = 0`` and attains objective zero.  Each
    block's gradient vanishes there, so ``saddle_state(problem, x_star,
    np.zeros(problem.m))`` is an exact saddle (KKT residual 0), also where
    ``K (n - p) > n`` leaves the solution set roomy.  Returns
    ``(problem, x_star_blocks)``.
    """
    if K < 2:
        raise ValueError("need at least two blocks")
    rs = RandomStream(seed)
    x_star = [rs.gaussians(n) for _ in range(K - 1)]
    x_star.append(-np.sum(x_star, axis=0))
    blocks = []
    for k in range(K):
        A = rs.gaussians((p, n))
        b = A @ x_star[k]
        blocks.append(BlockSpec(
            n=n, E=Coupling.identity(n),
            objective=FunctionDescriptor(smooth=SmoothPart("least_squares", A, b))))
    return Problem(blocks=tuple(blocks), q=np.zeros(n)), tuple(x_star)


def gen_logreg_data(n: int, d: int, seed: int):
    """Synthetic binary classification data for the consensus benchmark.

    Gaussian features, labels from the sign of a sparse linear model plus
    unit noise (ties resolved to +1).  Returns ``(A, labels)``.
    """
    rs = RandomStream(seed)
    A = rs.gaussians((n, d))
    nnz = max(1, d // 10)
    support = rs.index_subset(d, nnz)
    x_true = np.zeros(d)
    x_true[support] = rs.gaussians(nnz)
    margins = A @ x_true + rs.gaussians(n)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    return A, labels


# ---------------------------------------------------------------------------
# LIBSVM text format


def load_libsvm(path):
    """Read a LIBSVM text file into ``(csr_matrix, labels, n, d)``.

    One sample per line, ``label idx:val ...`` with 1-based strictly
    increasing indices; labels are coerced to +1 for positive values and -1
    otherwise.  Malformed lines, non-finite labels or values and indices
    below 1 raise ``ValueError`` with their line number.
    """
    data, indices, indptr, labels = [], [], [0], []
    d = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            try:
                raw = float(toks[0])
            except ValueError:
                raise ValueError(f"line {lineno}: label {toks[0]!r} is not numeric")
            if not math.isfinite(raw):
                raise ValueError(f"line {lineno}: label {toks[0]!r} is not finite")
            labels.append(1.0 if raw > 0 else -1.0)
            prev = 0
            for tok in toks[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ValueError(f"line {lineno}: malformed entry {tok!r}")
                if idx < 1:
                    raise ValueError(f"line {lineno}: index {idx} is below 1 "
                                     f"(indices are 1-based)")
                if idx <= prev:
                    raise ValueError(
                        f"line {lineno}: index {idx} not strictly increasing")
                if not math.isfinite(val):
                    raise ValueError(
                        f"line {lineno}: value {val_s!r} at index {idx} is not finite")
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            d = max(d, prev)
            indptr.append(len(data))
    if not labels:
        raise ValueError(f"{path}: empty LIBSVM file")
    X = sp.csr_matrix((data, indices, indptr), shape=(len(labels), d))
    return X, np.asarray(labels), len(labels), d


def partition_rows(A, b, N: int):
    """Split ``(A, b)`` into N contiguous row blocks of near-equal size.

    Block sizes differ by at most one (the larger ones first); vertical
    concatenation of the pieces reproduces the inputs exactly.
    """
    n = A.shape[0]
    if N < 1 or N > n:
        raise ValueError(f"need 1 <= N <= {n} row blocks")
    parts = np.array_split(np.arange(n), N)
    return [(A[idx[0]:idx[-1] + 1], b[idx[0]:idx[-1] + 1]) for idx in parts]


def check_l1_weight(lam: float) -> None:
    """Raise ``ValueError`` unless the consensus l1 weight ``lam`` is
    positive; NaN fails the check."""
    if not lam > 0:
        raise ValueError("lam must be positive")


def build_logreg_consensus(row_blocks, lam: float) -> Problem:
    """Consensus formulation of l1-regularized logistic regression.

    Blocks 1..N carry the logistic losses of their data rows with local
    copies ``x_i``; block N+1 carries ``lam * ||z||_1``; the coupling stacks
    ``x_i - z = 0`` for every i, so the constraint dimension is ``N * d``.
    """
    check_l1_weight(lam)
    N = len(row_blocks)
    if N < 1:
        raise ValueError("need at least one row block")
    d = row_blocks[0][0].shape[1]
    blocks = []
    for i, (A_i, b_i) in enumerate(row_blocks):
        if A_i.shape[0] == 0:
            raise ValueError(f"row block {i} is empty")
        blocks.append(BlockSpec(
            n=d, E=Coupling.copies(d, N, rows=(i,)),
            objective=FunctionDescriptor(smooth=SmoothPart("logistic", A_i, b_i))))
    blocks.append(BlockSpec(n=d, E=Coupling.copies(d, N, rows=range(N), sign=-1),
                            objective=FunctionDescriptor(l1_scale=lam)))
    return Problem(blocks=tuple(blocks), q=np.zeros(N * d))


def consensus_ratio(x_blocks) -> float:
    """Termination statistic ``sum_i ||x_i - z|| / (N ||z||)``; z is the last block."""
    z = x_blocks[-1]
    locals_ = x_blocks[:-1]
    z_norm = float(np.linalg.norm(z))
    if z_norm == 0.0:
        return math.inf
    return sum(float(np.linalg.norm(xi - z)) for xi in locals_) \
        / (len(locals_) * z_norm)


def consensus_objective(problem: Problem, z: np.ndarray) -> float:
    """Full single-variable objective ``sum_i loss_i(z) + lam ||z||_1``."""
    val = 0.0
    for blk in problem.blocks[:-1]:
        val += blk.objective.smooth.value(z)
    return val + problem.blocks[-1].objective.l1_scale * float(np.abs(z).sum())


# ---------------------------------------------------------------------------
# Experiment configuration and runner


_EXPERIMENTS = ("lasso", "exchange", "logreg")
_SOLVERS = ("ada", "iada", "vsadmm", "proxjadmm", "admm2")
_STOP_MODES = ada.STOP_MODES + ("consensus",)
# the "consensus" stop: consensus ratio and relative objective gap to f*
_CONSENSUS_RATIO_TOL = 1e-6
_CONSENSUS_GAP_TOL = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one benchmark run; JSON configs mirror the fields."""

    experiment: str = "lasso"
    solver: str = "ada"
    seed: int = 1
    # lasso: (n, d); exchange: (blocks, n, p); logreg: (n, d, partitions, lam)
    n: int = 200
    d: int = 800
    blocks: int = 5
    p: int = 80
    partitions: int = 4
    lam: float = 0.1
    data_path: str | None = None
    rho: float = 10.0
    c: float = 10.0
    max_iters: int = 2000
    stop_eps: float = 1e-8
    stop_mode: str = "x_change"
    criterion: str = "criterion_A"
    eps0: float = 1.0
    gamma: float = 1.5
    beta: float = 1.0
    gamma_damp: float = 1.0
    admm_step: float = 1.618
    out: str = "."
    full_diagnostics: bool = False

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.solver not in _SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.criterion not in SCHEDULE_KINDS:
            raise ValueError(f"unknown criterion {self.criterion!r}: use one of "
                             f"{SCHEDULE_KINDS}, or solver=\"ada\" for exact solves")
        for name in ("n", "d", "blocks", "p", "partitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        check_l1_weight(self.lam)
        check_schedule_params(self.eps0, self.gamma)
        baselines.check_baseline_params(self.beta, self.gamma_damp, self.admm_step)
        _engine_params(self)  # rho, c, max_iters and stop_eps
        if self.stop_mode not in _STOP_MODES:
            raise ValueError(f"unknown stop mode {self.stop_mode!r}")
        if self.stop_mode == "consensus" and (self.experiment != "logreg"
                                              or self.solver not in ("ada", "iada")):
            raise ValueError("consensus stop mode applies to the logreg experiment "
                             "with the ada or iada solver")
        # pairings the runner would ignore or fail on after generating the instance
        if self.solver == "admm2" and self.experiment != "lasso":
            raise ValueError("the admm2 solver applies to the lasso experiment only")
        if self.solver == "proxjadmm" and not self.gamma_damp < 2.0:
            raise ValueError("the proxjadmm solver applies to gamma_damp < 2 only, "
                             "which its default proximal weights need")
        if self.full_diagnostics and self.solver not in ("ada", "iada"):
            raise ValueError("full_diagnostics applies to the ada and iada solvers only")
        if self.data_path is not None and self.experiment != "logreg":
            raise ValueError("data_path applies to the logreg experiment only")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


def build_instance(config: ExperimentConfig):
    """Produce the Problem for a config (plus the generator's side info)."""
    if config.experiment == "lasso":
        return gen_lasso(config.n, config.d, config.seed)
    if config.experiment == "exchange":
        return gen_exchange(config.blocks, config.n, config.p, config.seed)
    if config.data_path is not None:
        X, labels, _, _ = load_libsvm(config.data_path)
    else:
        X, labels = gen_logreg_data(config.n, config.d, config.seed)
    row_blocks = partition_rows(X, labels, config.partitions)
    return build_logreg_consensus(row_blocks, config.lam), None


def _engine_params(config: ExperimentConfig) -> SolverParams:
    return SolverParams(rho=config.rho, c=config.c,
                        max_iters=config.max_iters, stop_eps=config.stop_eps)


def _consensus_stop(problem: Problem, f_star: float):
    """Stop rule: consensus ratio at most 1e-6 and relative objective gap at
    most 1e-10."""

    def stop(state, metrics):
        z = state.x[-1]
        if consensus_ratio(state.x) > _CONSENSUS_RATIO_TOL:
            return False
        gap = abs(consensus_objective(problem, z) - f_star) / max(1.0, abs(f_star))
        return gap <= _CONSENSUS_GAP_TOL

    return stop


def reference_state(problem: Problem, params: SolverParams,
                    schedule: InexactSchedule | None = None,
                    eps: float = 1e-12, max_iters: int = 20000):
    """High-accuracy oracle: the same configuration run to ``eps`` x-change.

    Solver-generated rather than ground truth; its accuracy limits how small
    a tolerance downstream comparisons may claim.  Raises ``BlockSolveError``
    when a block solver fails on the way.
    """
    tight = replace(params, stop_eps=eps, max_iters=max_iters)
    final, trace = ada.run(problem, tight, build_block_solvers(problem, tight, schedule),
                           stop_mode="x_change", schedule=schedule)
    if trace.error is not None:
        raise BlockSolveError(f"reference run: {trace.error}")
    return final


def run_experiment(config: ExperimentConfig) -> int:
    """Generate, solve, and write artifacts; 0 on convergence, 1 when a block
    solver failed (stop reason ``"solver_error"``, the message printed and
    recorded as the summary's ``error``), 2 otherwise.

    Artifacts under ``config.out``: ``trace.csv`` (engine schema),
    ``rate_report.json``, and ``summary.json`` with the headline numbers;
    a run ended by a solver error writes them for the steps it completed.
    The reference of the rate checks (``full_diagnostics``, or the
    ``consensus`` stop) is computed before the run, whose states are fed to
    a ``RateObserver`` and not kept.
    """
    t_start = time.perf_counter()
    problem, _ = build_instance(config)
    out = Path(config.out)  # after the build, so a failed build leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    params = _engine_params(config)

    stop_mode = config.stop_mode
    reference = None
    # iada is ada under an inexact schedule; ada runs without one
    schedule = ref_sched = None
    if config.solver == "iada":
        schedule = InexactSchedule.for_problem(problem, kind=config.criterion,
                                               eps0=config.eps0, gamma=config.gamma)
        # a reference runs to 1e-12 x-change, where criterion B's thresholds,
        # scaled by the step, ask for certificates below rounding
        ref_sched = replace(schedule, kind="criterion_A")
    if stop_mode == "consensus":
        reference = reference_state(problem, params,
                                    ref_sched or InexactSchedule.for_problem(problem),
                                    max_iters=max(config.max_iters, 5000))
        f_star = consensus_objective(problem, reference.x[-1])
        stop_mode = _consensus_stop(problem, f_star)

    include_certs = config.solver == "iada"  # the ada CSV has no cert columns
    if config.solver in ("ada", "iada"):
        if config.full_diagnostics and reference is None:
            reference = reference_state(problem, params, ref_sched)
        # the rate checks ride along with the run, which keeps no states
        initial = make_initial_state(problem)
        observer = diagnostics.RateObserver(problem, params.rho, params.c, reference,
                                            initial, exact_engine=schedule is None)
        solvers = build_block_solvers(problem, params, schedule)
        kinds = [sv.kind for sv in solvers]
        final, trace = ada.run(problem, params, solvers, initial=initial,
                               stop_mode=stop_mode, schedule=schedule, observe=observer)
        final_x = final.x
        multiplier = final.zeta_bar
        report = observer.report(trace)
    else:
        bparams = baselines.BaselineParams(beta=config.beta,
                                           gamma_damp=config.gamma_damp,
                                           admm_step=config.admm_step)
        if config.solver == "vsadmm":
            state, trace = baselines.vsadmm_run(problem, bparams, config.max_iters,
                                                config.stop_eps, stop_mode)
            final_x = state[1]
            multiplier = state[2].mean(axis=0)
        elif config.solver == "proxjadmm":
            state, trace = baselines.prox_jadmm_run(problem, bparams,
                                                    config.max_iters,
                                                    config.stop_eps, stop_mode)
            final_x = state[0]
            multiplier = -state[1]
        else:
            solver = baselines.Admm2Lasso(problem, bparams)
            state, trace = solver.run(config.max_iters, config.stop_eps, stop_mode)
            final_x = (state[0], state[1])
            multiplier = solver.multiplier(state)
        report = diagnostics.RateReport()
        kinds = None  # the baselines build their solvers inside their runs

    trace.to_csv(out / "trace.csv", include_certs=include_certs)
    report.to_json(out / "rate_report.json")
    summary = {
        "experiment": config.experiment,
        "solver": config.solver,
        "seed": config.seed,
        "iterations": len(trace),
        "converged": bool(trace.converged),
        "stop_reason": trace.stop_reason,
        "block_solvers": kinds,
        "exact_fallbacks": sum(m.fallbacks for m in trace.metrics),
        "hessian_factorizations": sum(m.factorizations for m in trace.metrics),
        "objective": objective(final_x, problem),
        "residual_norm": float(np.linalg.norm(constraint_residual(final_x, problem))),
        "kkt_residual": diagnostics.kkt_residual(final_x, multiplier, problem),
        "wall_time_s": time.perf_counter() - t_start,
    }
    if trace.error is not None:
        summary["error"] = trace.error
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if trace.error is not None:
        print(f"error: {trace.error}", file=sys.stderr)
        return 1
    return 0 if trace.converged else 2


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augdecomp",
        description="Benchmark runner for the decomposition solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one experiment and write artifacts")
    solve.add_argument("--config", type=str, default=None,
                       help="JSON file mirroring ExperimentConfig")
    solve.add_argument("--experiment", choices=_EXPERIMENTS)
    solve.add_argument("--solver", choices=_SOLVERS)
    solve.add_argument("--rho", type=float)
    solve.add_argument("--c", type=float)
    solve.add_argument("--gamma", type=float)
    solve.add_argument("--eps0", type=float)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--max-iters", type=int, dest="max_iters")
    solve.add_argument("--stop-eps", type=float, dest="stop_eps")
    solve.add_argument("--stop-mode", dest="stop_mode",
                       choices=_STOP_MODES)
    solve.add_argument("--out", type=str)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = (ExperimentConfig.from_json(args.config)
                  if args.config else ExperimentConfig())
        overrides = {name: value for name, value in vars(args).items()
                     if value is not None and name not in ("command", "config")}
        if overrides:
            config = replace(config, **overrides)
        return run_experiment(config)
    except Exception as err:  # noqa: BLE001 -- CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
