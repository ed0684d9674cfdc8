"""Traced attempts: spans and counters recorded from outside ``augdecomp``.

Nothing inside the package is instrumented.  The traced attempt times the
same public calls as an untraced one and adds three probes:

* each block solver from ``build_block_solvers`` (and, for the baselines, from
  ``build_penalized_solvers``) is wrapped in a ``SolverProxy`` that times
  ``.solve``, sums ``inner_iters``, replays the ``accept`` rule on the returned
  certificate, and flags a zero certificate from an ``exact = False`` solver
  as an exact fallback;
* a callable stop rule timestamps every outer iteration and defers to
  ``ada.check_stop`` with the workload's own ``"max_iters"`` mode;
* after the run, the model metrics are re-evaluated on the recorded iterates.

Spans are ``[id, name, start, end, parent]`` in seconds of process CPU
time (``workloads.clock``), kept in memory and written out when the run
ends.
"""

from __future__ import annotations

from collections import defaultdict

import augdecomp as ag
from augdecomp import ada
from augdecomp.model import state_g_dist_sq

import workloads as W

SOLVER_KINDS = {
    "QuadBlockSolver": "quad",
    "GeneralQuadBlockSolver": "quad",
    "L1ProxBlockSolver": "l1",
    "LbfgsBlockSolver": "lbfgs",
    "CompositeBlockSolver": "composite",
}


class Tracer:
    """Spans and counters of every traced attempt in one run."""

    def __init__(self):
        self.spans = []
        self.parent = None          # span that block solves are attributed to
        self.count = defaultdict(float)
        self.samples = defaultdict(list)
        self._iter = None           # open iteration span
        self._iter_solve_s = 0.0    # block-solve time inside it

    def add(self, name, start, end, parent=None) -> int:
        self.spans.append([len(self.spans), name, start, end, parent])
        return len(self.spans) - 1

    def open(self, name, parent=None) -> int:
        return self.add(name, W.clock(), None, parent)

    def close(self, sid, end=None):
        self.spans[sid][3] = W.clock() if end is None else end

    # -- outer iterations -------------------------------------------------

    def open_iteration(self, engine_span, now):
        self._iter = self.add("ada.iteration", now, None, engine_span)
        self._iter_solve_s = 0.0
        self.parent = self._iter

    def stop_rule(self, params, iters, engine_span):
        """Stop callable for ``ada.run``: closes the iteration span and defers
        to ``ada.check_stop`` in ``"max_iters"`` mode."""
        def stop(state, metrics):
            now = W.clock()
            self.close(self._iter, now)
            elapsed = now - self.spans[self._iter][2]
            self.samples["iter_s"].append(elapsed)
            self.count["engine_self_s"] += elapsed - self._iter_solve_s
            self.count["ada_iters"] += 1
            if metrics.iter < iters:
                self.open_iteration(engine_span, now)
            return ada.check_stop(metrics, params.stop_eps, "max_iters")
        return stop

    # -- block solves -----------------------------------------------------

    def record_solve(self, kind, start, end, cert, accept, exact):
        self.add(f"block_solvers.{kind}.solve", start, end, self.parent)
        self._iter_solve_s += end - start
        self.count[f"{kind}.solves"] += 1
        self.count[f"{kind}.s"] += end - start
        self.count[f"{kind}.inner"] += cert.inner_iters
        if accept is not None and not accept(cert.x, cert.subgrad_bound):
            self.count["cert_violations"] += 1
        if not exact and cert.subgrad_bound == 0.0:
            self.count[f"{kind}.fallbacks"] += 1
            self.count[f"{kind}.wasted_inner"] += cert.inner_iters


class SolverProxy:
    """Block solver wrapper that reports every ``.solve`` to a ``Tracer``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.kind = SOLVER_KINDS.get(type(inner).__name__, type(inner).__name__)
        self.tracer = tracer

    @property
    def exact(self):
        return self.inner.exact

    def solve(self, t, z, accept=None):
        start = W.clock()
        cert = self.inner.solve(t, z, accept=accept)
        end = W.clock()
        self.tracer.record_solve(self.kind, start, end, cert, accept, self.inner.exact)
        return cert


def _time_model(tracer: Tracer, s: W.Setup, solves: list):
    """Re-evaluate objective, residual and (for the decomposition engines)
    the G-distance on each iterate of the run, as the engines do per step."""
    p, rho, c = s.problem, s.params.rho, s.params.c
    clock = W.clock
    for sv in solves:
        states = sv.trace.states
        if states:
            pairs = zip([sv.trace.initial_state] + states[:-1], states)
        else:  # the baselines keep no iterates: evaluate at the final one
            pairs = [(None, None)] * len(sv.trace)
        for prev, cur in pairs:
            x = sv.x if cur is None else cur.x
            t0 = clock()
            ag.objective(x, p)
            t1 = clock()
            ag.constraint_residual(x, p)
            t2 = clock()
            if cur is not None:
                state_g_dist_sq(prev, cur, rho, c)
            t3 = clock()
            tracer.count["model.metrics_s"] += t3 - t0
            tracer.count["model.residual_s"] += t2 - t1
            tracer.count["model.evals"] += 1
        if states:
            tracer.count["states_bytes"] += sum(
                st.w.nbytes + sum(x.nbytes for x in st.x) + st.eta.nbytes
                + st.zeta_bar.nbytes + st.y.nbytes for st in states)


def traced_attempt(wl: W.Workload, seed: int, tracer: Tracer, out_dir):
    """One attempt with every probe on; returns ``(setup, solves, summaries)``."""
    clock = W.clock
    root = tracer.open(f"attempt {wl.name} seed={seed}")
    t0 = clock()
    problem = W.generate(wl, seed)
    t1 = clock()
    params = W.solver_params(wl)
    schedule = W.make_schedule(wl, problem)
    t2 = clock()
    solvers = W.build(wl, problem, params, schedule)
    t3 = clock()
    for name, a, b in (("bench.generate", t0, t1), ("inexact.schedule", t1, t2),
                       ("block_solvers.build", t2, t3)):
        tracer.add(name, a, b, root)
    tracer.samples["gen_s"].append(t1 - t0)
    tracer.samples["schedule_s"].append(t2 - t1 if schedule is not None else 0.0)
    tracer.samples["build_s"].append(t3 - t2)

    if isinstance(solvers, list):
        solvers = [SolverProxy(sv, tracer) for sv in solvers]
    s = W.Setup(problem, params, schedule, solvers)
    reference = W.exchange_saddle(problem) if wl.saddle_reference else None

    engine = tracer.open("engine", root)
    tracer.parent = engine
    stop = None
    if wl.engine != "baselines":
        tracer.open_iteration(engine, clock())
        stop = tracer.stop_rule(params, wl.iters, engine)

    def wrap(factory):
        def proxied(*args, **kwargs):
            return [SolverProxy(sv, tracer) for sv in factory(*args, **kwargs)]
        return proxied

    solves = W.run_engine(wl, s, stop=stop, wrap_baseline=wrap)
    tracer.close(engine)
    tracer.parent = None
    for sv in solves:
        tracer.add(f"engine.{sv.label}", sv.start, sv.end, engine)
        tracer.count[f"{sv.label}.s"] += sv.seconds
        tracer.count[f"{sv.label}.iters"] += len(sv.trace)

    span = tracer.open("model.metrics", root)
    _time_model(tracer, s, solves)
    tracer.close(span)

    times = {}
    span = tracer.open("post", root)
    summaries = W.post(wl, s, solves, out_dir, reference, times=times)
    tracer.close(span)
    tracer.samples["rate_report_s"].append(times["rate_report"])
    tracer.samples["kkt_s"].append(times["kkt"])
    tracer.samples["artifacts_s"].append(times["artifacts"])
    tracer.close(root)
    tracer.count["attempts"] += 1
    return s, solves, summaries
