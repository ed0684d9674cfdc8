"""Benchmark of the augdecomp engines: one workload per run, closed loop.

    python3 perfbench/run.py --workload lasso-ada --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-check            # toy sizes, a few seconds
    python3 perfbench/run.py --record-reference      # rewrite reference_seed1.json

Run it from the root of a source tree: it imports ``augdecomp`` from
``src/`` beside this directory and refuses to run without it.  It runs in
one process with one BLAS thread.  Attempts (set-up, engine call, post-run
pass, correctness gate) go round-robin over the run's instances until
``--seconds`` have passed and, untraced, every instance has run once; attempt
k runs pinned to CPU k mod n of the n CPUs the process may use.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` pairs every
traced attempt with an untraced one on the same instance and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is the result as one JSON object; artifacts, the
environment record and the spans go to ``.bench_build/perfbench/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference_seed1.json"
DEFAULT_SEED = 1

END_TO_END = {
    "setup_s": "s",
    "ms_per_iter": "ms",
    "post_s": "s",
    "peak_rss_mb": "MB",
    "kkt_final": "1",
}

PER_LAYER = {
    "bench.gen_s": "s",
    "inexact.schedule_s": "s",
    "block_solvers.build_s": "s",
    "model.metrics_ms_per_iter": "ms",
    "model.residual_ms": "ms",
    "block_solvers.quad.solves": "count",
    "block_solvers.quad.ms_per_solve": "ms",
    "block_solvers.l1.solves": "count",
    "block_solvers.l1.ms_per_solve": "ms",
    "block_solvers.lbfgs.solves": "count",
    "block_solvers.lbfgs.ms_per_solve": "ms",
    "block_solvers.lbfgs.inner_iters": "count",
    "block_solvers.lbfgs.ms_per_inner_iter": "ms",
    "block_solvers.lbfgs.fallbacks": "count",
    "block_solvers.lbfgs.fallback_share": "1",
    "block_solvers.lbfgs.wasted_inner_share": "1",
    "ada.iter_ms_p50": "ms",
    "ada.iter_ms_p90": "ms",
    "ada.engine_ms_per_iter": "ms",
    "ada.states_mb": "MB",
    "inexact.cert_violations": "count",
    "baselines.admm2.ms_per_iter": "ms",
    "baselines.vsadmm.ms_per_iter": "ms",
    "baselines.proxjadmm.ms_per_iter": "ms",
    "diagnostics.rate_report_s": "s",
    "diagnostics.kkt_s": "s",
    "bench.artifacts_s": "s",
    "trace.overhead_share": "1",
}

def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _import_package():
    """Import ``augdecomp`` from this tree's ``src/``, never from elsewhere."""
    if not (SRC / "augdecomp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'augdecomp'} not found; run from a source tree")
    sys.path.insert(0, str(SRC))
    import augdecomp
    if Path(augdecomp.__file__).resolve().parent != (SRC / "augdecomp").resolve():
        sys.exit(f"error: imported augdecomp from {augdecomp.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Environment record


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(import_rss_mb: float) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "augdecomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "import_rss_mb": import_rss_mb,
    }


# ---------------------------------------------------------------------------
# Attempts


def _expected(wl, seed, inst_seed, tiny):
    """Recorded (objective, kkt) per solve for this instance on the default seed."""
    if seed != DEFAULT_SEED or tiny:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(wl.name, {}).get(str(inst_seed), {})


def _outcome(summaries):
    return [(s["solver"], s["objective"], s["kkt_residual"]) for s in summaries]


def measure(W, wl, seed, seconds, traced, out_dir, tiny=False):
    """Run attempts for ``seconds``; returns ``(result dict, tracer or None)``."""
    import tracing
    seeds = W.instance_seeds(seed, wl.instances)
    tracer = tracing.Tracer() if traced else None
    first = {}          # instance seed -> outcome of its first attempt
    timings = {}        # instance seed -> list of untraced timings
    overhead = []
    attempted = failed = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while (attempted == 0 or time.perf_counter() - start < seconds
           or (not traced and attempted < len(seeds))):
        inst = seeds[attempted % len(seeds)]
        # attempt k is pinned to CPU k mod n: on a shared host each vCPU's
        # speed drifts on its own, by up to a third for tens of seconds, so
        # every run takes the same mix of CPUs rather than whichever one the
        # scheduler kept it on
        os.sched_setaffinity(0, {cpus[attempted % len(cpus)]})
        attempted += 1
        try:
            failures = []
            expected = _expected(wl, seed, inst, tiny)
            runs = ["plain", "traced"] if traced else ["plain"]
            if traced and attempted % 2 == 0:
                runs.reverse()  # alternate which side runs first
            per_iter = {}
            for kind in runs:
                if kind == "traced":
                    s, solves, summaries = tracing.traced_attempt(wl, inst, tracer, out_dir)
                    per_iter[kind] = (sum(sv.seconds for sv in solves)
                                      / sum(len(sv.trace) for sv in solves))
                else:
                    s, solves, summaries, t = W.untraced_attempt(wl, inst, out_dir)
                    timings.setdefault(inst, []).append(t)
                    per_iter[kind] = t["engine_s"] / t["iters"]
                failures += W.gate(wl, s, solves, summaries, out_dir, expected)
                outcome = _outcome(summaries)
                if first.setdefault(inst, outcome) != outcome:
                    failures.append(f"{wl.name}: instance {inst} gave {outcome!r}, "
                                    f"earlier {first[inst]!r}")
            if traced:
                overhead.append(per_iter["traced"] / per_iter["plain"] - 1.0)
        except Exception:  # noqa: BLE001 -- one attempt must not end the run
            failures = [traceback.format_exc()]
        if failures:
            failed += 1
            for f in failures:
                print(f"FAILED attempt {attempted}: {f}", file=sys.stderr)
    os.sched_setaffinity(0, cpus)
    if not timings:
        raise RuntimeError("no attempt completed")
    if traced:
        metrics = per_layer_metrics(tracer, overhead)
    else:
        metrics = end_to_end_metrics(timings, first)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "attempts": timings}, tracer


def end_to_end_metrics(timings: dict, first: dict) -> dict:
    """Set-up and post-run times are each attempt's median, averaged over the
    attempts; engine time is pooled over all attempts; accuracy is the
    geometric mean over instances."""
    samples = [t for ts in timings.values() for t in ts]
    kkts = [kkt for outcome in first.values() for _, _, kkt in outcome
            if math.isfinite(kkt) and kkt > 0.0]  # the gate reports the others
    values = {
        "setup_s": statistics.fmean(statistics.median(t["setup_s"]) for t in samples),
        "ms_per_iter": 1e3 * sum(t["engine_s"] for t in samples) / sum(t["iters"] for t in samples),
        "post_s": statistics.fmean(statistics.median(t["post_s"]) for t in samples),
        "peak_rss_mb": _rss_mb(),
        "kkt_final": math.exp(statistics.fmean(math.log(k) for k in kkts)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(tracer, overhead: list) -> dict:
    c, smp = tracer.count, tracer.samples
    attempts = c["attempts"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {
        "bench.gen_s": statistics.median(smp["gen_s"]),
        "inexact.schedule_s": statistics.median(smp["schedule_s"]),
        "block_solvers.build_s": statistics.median(smp["build_s"]),
        "model.metrics_ms_per_iter": ratio(c["model.metrics_s"], c["model.evals"], 1e3),
        "model.residual_ms": ratio(c["model.residual_s"], c["model.evals"], 1e3),
        "block_solvers.lbfgs.inner_iters": ratio(c["lbfgs.inner"], attempts),
        "block_solvers.lbfgs.ms_per_inner_iter": ratio(c["lbfgs.s"], c["lbfgs.inner"], 1e3),
        "block_solvers.lbfgs.fallbacks": ratio(c["lbfgs.fallbacks"], attempts),
        "block_solvers.lbfgs.fallback_share": ratio(c["lbfgs.fallbacks"], c["lbfgs.solves"]),
        "block_solvers.lbfgs.wasted_inner_share": ratio(c["lbfgs.wasted_inner"],
                                                        c["lbfgs.inner"]),
        "ada.iter_ms_p50": _percentile(smp["iter_s"], 50) * 1e3,
        "ada.iter_ms_p90": _percentile(smp["iter_s"], 90) * 1e3,
        "ada.engine_ms_per_iter": ratio(c["engine_self_s"], c["ada_iters"], 1e3),
        "ada.states_mb": ratio(c["states_bytes"], attempts, 2.0 ** -20),
        "inexact.cert_violations": c["cert_violations"],
        "diagnostics.rate_report_s": statistics.median(smp["rate_report_s"]),
        "diagnostics.kkt_s": statistics.median(smp["kkt_s"]),
        "bench.artifacts_s": statistics.median(smp["artifacts_s"]),
        "trace.overhead_share": statistics.median(overhead),
    }
    for kind in ("quad", "l1", "lbfgs"):
        values[f"block_solvers.{kind}.solves"] = ratio(c[f"{kind}.solves"], attempts)
        values[f"block_solvers.{kind}.ms_per_solve"] = ratio(c[f"{kind}.s"],
                                                             c[f"{kind}.solves"], 1e3)
    for label in ("admm2", "vsadmm", "proxjadmm"):
        values[f"baselines.{label}.ms_per_iter"] = ratio(c[f"{label}.s"],
                                                         c[f"{label}.iters"], 1e3)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}


def _percentile(xs, q):
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(math.ceil(q / 100.0 * len(xs))) - 1)]


# ---------------------------------------------------------------------------
# Commands


def _print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload:16s} {name:40s} {m['value']:.6g} {m['unit']}")


def run_one(args):
    import_rss = _rss_mb()
    import workloads as W
    wl = W.WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(import_rss)
    (OUT / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env " + json.dumps(env))
    result, tracer = measure(W, wl, args.seed, args.seconds, bool(args.trace), out_dir)
    (out_dir / f"attempts-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result.pop("attempts")))
    if tracer is not None:
        spans = out_dir / f"spans-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans))
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    _print_metrics(wl.name, result["metrics"])
    print(f"{wl.name}: {result['attempted']} attempts, {result['failed']} failed")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process (so peak RSS is its own), one table."""
    import workloads as W
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        _print_metrics(name, result["metrics"])
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def record_reference():
    """Write (objective, kkt) of every default-seed instance and solve."""
    import workloads as W
    table = {}
    for wl in W.WORKLOADS.values():
        out_dir = OUT / "reference" / wl.name
        out_dir.mkdir(parents=True, exist_ok=True)
        table[wl.name] = {}
        for inst in W.instance_seeds(DEFAULT_SEED, wl.instances):
            s, solves, summaries, _ = W.untraced_attempt(wl, inst, out_dir)
            table[wl.name][str(inst)] = {label: [obj, kkt]
                                         for label, obj, kkt in _outcome(summaries)}
            print(wl.name, inst, table[wl.name][str(inst)], flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def self_check():
    """Every workload at toy sizes, untraced and traced: the result has every
    metric with its unit, nothing fails, and the gate catches a wrong result."""
    import workloads as W
    problems = []
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} does not match the harness")
    if {w["name"]: w["why"] for w in spec["workloads"]} != \
            {wl.name: wl.why for wl in W.WORKLOADS.values()}:
        problems.append("BENCHMARK.json workloads do not match workloads.py")
    for wl in W.TINY_WORKLOADS.values():
        out_dir = OUT / "self-check" / wl.name
        out_dir.mkdir(parents=True, exist_ok=True)
        for traced, table in ((False, END_TO_END), (True, PER_LAYER)):
            result, _ = measure(W, wl, 7, 0.0, traced, out_dir, tiny=True)
            names = {n: m["unit"] for n, m in result["metrics"].items()}
            if names != table or result["failed"] or not result["correct"]:
                problems.append(f"{wl.name} trace={int(traced)}: {result}")
            for n, m in result["metrics"].items():
                v = m["value"]
                if not math.isfinite(v) or (not traced and v <= 0.0):
                    problems.append(f"{wl.name}: metric {n} = {v}")
        s, solves, summaries, _ = W.untraced_attempt(wl, 7, out_dir)
        wrong = {label: [obj * (1.0 + 1e-6), kkt] for label, obj, kkt in _outcome(summaries)}
        if not W.gate(wl, s, solves, summaries, out_dir, wrong):
            problems.append(f"{wl.name}: the gate accepted a perturbed reference")
    for p in problems:
        print("SELF-CHECK:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(HERE))
    if args.self_check:
        return self_check()
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    import workloads as W
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
