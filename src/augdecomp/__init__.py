"""Augmented decomposition solvers for multi-block separable convex programs.

The package splits into the problem model, the exact and inexact
decomposition engines, per-block subproblem solvers, ADMM-family baselines,
convergence-rate diagnostics, and the benchmark harness.
"""

from .coupling import Coupling
from .model import (BlockSpec, FunctionDescriptor, IterateState, Problem,
                    SmoothPart, SolverParams, constraint_residual,
                    make_initial_state, objective, project_onto_W,
                    saddle_state, state_g_dist_sq)
from .block_solvers import (BlockSolveCertificate, BlockSolveError,
                            build_block_solvers, build_penalized_solvers,
                            soft_threshold, subgrad_dist_l1)
from .ada import StepMetrics, Trace, ada_step, check_stop, run
from .inexact import (InexactSchedule, criterion_a_threshold,
                      criterion_b_threshold, iada_run)
from .baselines import (Admm2Lasso, BaselineParams, default_prox_weights,
                        prox_jadmm_run, prox_jadmm_step, vsadmm_run,
                        vsadmm_step)
from .diagnostics import (RateObserver, RateReport, kkt_residual,
                          nu_a_nu_medians, rate_report, verify_monotone)
from .bench import (ExperimentConfig, build_logreg_consensus, consensus_ratio,
                    gen_exchange, gen_lasso, load_libsvm, partition_rows,
                    run_experiment)

__version__ = "0.1.0"
