import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import augdecomp as ag
from augdecomp import bench
from augdecomp.bench import (ExperimentConfig, RandomStream, _build_parser,
                             build_logreg_consensus, consensus_objective,
                             consensus_ratio, gen_exchange, gen_lasso,
                             gen_logreg_data, load_libsvm, main,
                             partition_rows, run_experiment)

from conftest import iterative_solvers
from oracles import write_libsvm


class TestRandomStream:
    def test_repeatable(self):
        a = RandomStream(42).gaussians((3, 4))
        b = RandomStream(42).gaussians((3, 4))
        assert np.array_equal(a, b)

    def test_box_muller_moments(self):
        z = RandomStream(7).gaussians(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_index_subset_distinct(self):
        idx = RandomStream(1).index_subset(50, 20)
        assert len(set(idx.tolist())) == 20


class TestGenLasso:
    def test_lambda_formula_tiny_case(self):
        # the generator's rule on a fixed (A, b): 0.1 * ||A^T b||_inf
        A = np.array([[1.0]])
        b = np.array([2.0])
        assert 0.1 * float(np.abs(A.T @ b).max()) == pytest.approx(0.2)

    def test_lambda_matches_rule_on_instance(self):
        problem, _ = gen_lasso(30, 40, seed=5)
        A = problem.blocks[0].objective.smooth.A
        b = problem.blocks[0].objective.smooth.b
        lam = problem.blocks[1].objective.l1_scale
        assert lam == pytest.approx(0.1 * float(np.abs(A.T @ b).max()))

    def test_nonzero_count_at_acceptance_scale(self):
        _, x0 = gen_lasso(20, 800, seed=1)
        assert int((x0 != 0).sum()) == 40

    def test_small_d_forces_one_nonzero(self):
        _, x0 = gen_lasso(10, 12, seed=1)
        assert int((x0 != 0).sum()) == 1

    def test_same_seed_identical(self):
        p1, x1 = gen_lasso(15, 25, seed=9)
        p2, x2 = gen_lasso(15, 25, seed=9)
        assert np.array_equal(x1, x2)
        assert np.array_equal(p1.blocks[0].objective.smooth.A,
                              p2.blocks[0].objective.smooth.A)
        assert np.array_equal(p1.blocks[0].objective.smooth.b,
                              p2.blocks[0].objective.smooth.b)

    def test_block_structure(self):
        problem, _ = gen_lasso(10, 15, seed=2)
        assert problem.num_blocks == 2
        assert np.array_equal(problem.blocks[0].E.toarray(), np.eye(15))
        assert np.array_equal(problem.blocks[1].E.toarray(), -np.eye(15))
        assert np.all(problem.q == 0)


class TestGenExchange:
    def test_known_optimum(self):
        problem, x_star = gen_exchange(4, 7, 5, seed=3)
        assert ag.objective(x_star, problem) == pytest.approx(0.0, abs=1e-20)
        assert np.linalg.norm(ag.constraint_residual(x_star, problem)) < 1e-12

    def test_two_block_negation(self):
        _, x_star = gen_exchange(2, 1, 3, seed=4)
        assert float(x_star[1][0]) == -float(x_star[0][0])

    def test_same_seed_identical(self):
        p1, s1 = gen_exchange(3, 5, 4, seed=11)
        p2, s2 = gen_exchange(3, 5, 4, seed=11)
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)
        for b1, b2 in zip(p1.blocks, p2.blocks):
            assert np.array_equal(b1.objective.smooth.A, b2.objective.smooth.A)


class TestLibsvm:
    def test_single_entry_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 3:0.5\n")
        X, labels, n, d = load_libsvm(path)
        assert (n, d) == (1, 3)
        assert labels[0] == 1.0
        assert X[0, 2] == 0.5

    def test_label_coercion(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0 1:1\n2.5 1:1\n-3 1:1\n")
        _, labels, _, _ = load_libsvm(path)
        assert labels.tolist() == [-1.0, 1.0, -1.0]

    def test_round_trip_value_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        X = sp.random(12, 9, density=0.3, random_state=6, format="csr")
        X.data = rng.standard_normal(X.nnz)
        labels = np.sign(rng.standard_normal(12))
        labels[labels == 0] = 1.0
        path = tmp_path / "rt.txt"
        write_libsvm(path, X, labels)
        X2, labels2, n, d = load_libsvm(path)
        assert n == 12
        assert np.array_equal(labels, labels2)
        assert np.array_equal(X.toarray()[:, :d], X2.toarray())

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:0.5\n-1 abc\n")
        with pytest.raises(ValueError, match="line 2"):
            load_libsvm(path)

    def test_nonincreasing_index_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 3:1 2:1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_libsvm(path)

    @pytest.mark.parametrize("text, match", [
        ("+1 1:1\nnan 1:1\n", r"line 2: label 'nan' is not finite"),
        ("-inf 1:1\n", r"line 1: label '-inf' is not finite"),
        ("+1 1:nan\n", r"line 1: value 'nan' at index 1 is not finite"),
        ("+1 1:1\n-1 1:0.5 2:inf\n", r"line 2: value 'inf' at index 2 is not finite"),
        ("+1 1:1\n+1 0:1 2:1\n", r"line 2: index 0 is below 1 \(indices are 1-based\)"),
    ], ids=["nan-label", "inf-label", "nan-value", "inf-value", "index-zero"])
    def test_non_finite_entries_and_index_zero_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_libsvm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_libsvm(path)

    def test_data_path_run_matches_the_dense_run(self, tmp_path):
        # the file's rows are CSR, so Newton forms its Hessians through the
        # sparse row scaling; the generated rows are dense
        path = tmp_path / "logreg.svm"
        write_libsvm(path, *gen_logreg_data(60, 8, 3))
        summaries = []
        for name, data_path in (("csr", str(path)), ("dense", None)):
            out = tmp_path / name
            config = ExperimentConfig(experiment="logreg", solver="ada", seed=3, n=60,
                                      d=8, partitions=3, data_path=data_path,
                                      max_iters=40, stop_mode="max_iters", out=str(out))
            assert run_experiment(config) == 2
            summaries.append(json.loads((out / "summary.json").read_text()))
        csr, dense = summaries
        assert csr["iterations"] == dense["iterations"] == 40
        for key in ("objective", "kkt_residual"):
            assert abs(csr[key] - dense[key]) <= 1e-9 * abs(dense[key])


class TestPartitionRows:
    def test_five_rows_two_blocks(self):
        A = np.arange(10.0).reshape(5, 2)
        b = np.arange(5.0)
        parts = partition_rows(A, b, 2)
        assert [p[0].shape[0] for p in parts] == [3, 2]

    def test_singletons_and_whole(self):
        A = np.arange(8.0).reshape(4, 2)
        b = np.arange(4.0)
        assert [p[0].shape[0] for p in partition_rows(A, b, 4)] == [1, 1, 1, 1]
        assert partition_rows(A, b, 1)[0][0].shape == (4, 2)

    def test_reassembly_identity(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((11, 3))
        b = rng.standard_normal(11)
        parts = partition_rows(A, b, 4)
        assert np.array_equal(np.vstack([p[0] for p in parts]), A)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), b)

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ValueError):
            partition_rows(np.zeros((3, 2)), np.zeros(3), 4)


class TestLogregConsensus:
    def test_loss_at_origin(self):
        A, labels = gen_logreg_data(40, 6, seed=8)
        parts = partition_rows(A, labels, 4)
        problem = build_logreg_consensus(parts, lam=0.1)
        for i, (A_i, _) in enumerate(parts):
            val = problem.blocks[i].objective.value(np.zeros(6))
            assert val == pytest.approx(A_i.shape[0] * math.log(2.0))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(9)
        A, labels = gen_logreg_data(30, 5, seed=9)
        parts = partition_rows(A, labels, 2)
        problem = build_logreg_consensus(parts, lam=0.1)
        fd_max = 0.0
        for i in range(2):
            fd = np.empty(5)
            x = rng.standard_normal(5) * 0.3
            g = problem.blocks[i].objective.smooth_gradient(x)
            for j in range(5):
                h = 1e-6 * (1.0 + abs(x[j]))
                e = np.zeros(5)
                e[j] = h
                fp = problem.blocks[i].objective.value(x + e)
                fm = problem.blocks[i].objective.value(x - e)
                fd[j] = (fp - fm) / (2 * h)
            fd_max = max(fd_max, float(np.max(np.abs(g - fd)
                                              / np.maximum(np.abs(fd), 1.0))))
        assert fd_max <= 1e-6

    def test_consensus_ratio_formula(self):
        x = [np.array([1.0, 1.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0])]
        z = x[-1]
        expected = (np.linalg.norm(x[0] - z) + np.linalg.norm(x[1] - z)) \
            / (2 * np.linalg.norm(z))
        assert consensus_ratio(x) == pytest.approx(expected)

    def test_constraint_dimension_and_structure(self):
        A, labels = gen_logreg_data(20, 4, seed=10)
        parts = partition_rows(A, labels, 5)
        problem = build_logreg_consensus(parts, lam=0.2)
        assert problem.m == 5 * 4
        assert problem.num_blocks == 6
        # coupling rows: x_i - z = 0 stacked
        x = [np.full(4, float(i + 1)) for i in range(5)] + [np.zeros(4)]
        r = ag.constraint_residual(x, problem)
        for i in range(5):
            assert np.allclose(r[i * 4:(i + 1) * 4], i + 1.0)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            build_logreg_consensus([(np.zeros((0, 3)), np.zeros(0))], lam=0.1)

    def test_consensus_objective_matches_full_model(self):
        A, labels = gen_logreg_data(25, 4, seed=12)
        parts = partition_rows(A, labels, 3)
        problem = build_logreg_consensus(parts, lam=0.3)
        z = np.array([0.2, -0.1, 0.5, 0.0])
        direct = float(np.logaddexp(0.0, -labels * (A @ z)).sum()) \
            + 0.3 * float(np.abs(z).sum())
        assert consensus_objective(problem, z) == pytest.approx(direct)


class TestConfigAndRunner:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "lasso", "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_json(path)

    def test_config_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "exchange", "solver": "ada",
                                    "blocks": 3, "n": 10, "p": 5, "seed": 2,
                                    "rho": 2.0, "c": 2.0, "max_iters": 20}))
        config = ExperimentConfig.from_json(path)
        assert config.experiment == "exchange"
        assert config.blocks == 3

    def test_zero_iterations_writes_header_only(self, tmp_path):
        config = ExperimentConfig(experiment="exchange", solver="ada", blocks=3,
                                  n=8, p=4, max_iters=0, out=str(tmp_path))
        status = run_experiment(config)
        assert status == 2  # non-converged, distinct from error
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines == ["iter,objective,residual,delta_g,x_rel,feas_rel"]

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = ExperimentConfig(experiment="exchange", solver="ada",
                                      blocks=3, n=8, p=4, max_iters=40,
                                      stop_mode="max_iters", out=str(out))
            run_experiment(config)
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_converged_run_writes_artifacts(self, tmp_path):
        config = ExperimentConfig(experiment="exchange", solver="ada", blocks=3,
                                  n=8, p=4, rho=2.0, c=2.0, max_iters=3000,
                                  stop_eps=1e-9, stop_mode="x_change",
                                  out=str(tmp_path))
        status = run_experiment(config)
        assert status == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["monotone_ok"] is True

    def test_full_diagnostics_fills_reference_fields(self, tmp_path):
        config = ExperimentConfig(experiment="exchange", solver="ada", blocks=3,
                                  n=8, p=4, rho=2.0, c=2.0, max_iters=400,
                                  stop_eps=1e-8, stop_mode="x_change",
                                  out=str(tmp_path), full_diagnostics=True)
        status = run_experiment(config)
        assert status == 0
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["fejer_ok"] is True
        assert report["ergodic_max_violation"] <= 1e-8

    def test_iada_trace_has_cert_columns(self, tmp_path):
        config = ExperimentConfig(experiment="exchange", solver="iada", blocks=3,
                                  n=8, p=4, rho=2.0, c=2.0, max_iters=30,
                                  stop_mode="max_iters", gamma=1.5,
                                  out=str(tmp_path))
        run_experiment(config)
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert "cert_1" in header and "inner_iters_total" in header

    def test_baseline_runs(self, tmp_path):
        for solver in ("vsadmm", "proxjadmm", "admm2"):
            out = tmp_path / solver
            config = ExperimentConfig(experiment="lasso", solver=solver, n=20,
                                      d=15, beta=5.0, max_iters=200,
                                      stop_mode="max_iters", out=str(out))
            status = run_experiment(config)
            assert status == 2
            assert (out / "trace.csv").exists()
            assert (out / "summary.json").exists()

    def test_cli_solve_with_flags(self, tmp_path):
        status = main(["solve", "--experiment", "exchange", "--solver", "ada",
                       "--rho", "2.0", "--c", "2.0", "--seed", "2",
                       "--max-iters", "500", "--stop-eps", "1e-8",
                       "--stop-mode", "x_change", "--out", str(tmp_path)])
        assert status in (0, 2)
        assert (tmp_path / "summary.json").exists()

    def test_cli_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "exchange", "solver": "ada",
                                   "blocks": 3, "n": 8, "p": 4, "rho": 2.0,
                                   "c": 2.0, "max_iters": 30,
                                   "stop_mode": "max_iters",
                                   "out": str(tmp_path / "run")}))
        status = main(["solve", "--config", str(cfg)])
        assert status == 2
        assert (tmp_path / "run" / "trace.csv").exists()

    def test_cli_error_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "nope"}))
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        # ``python -m augdecomp`` runs bench.main; a RuntimeWarning, such as
        # runpy's for a module imported by its package before it runs as
        # __main__, is an error here and would exit 1
        src = str(Path(ag.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "augdecomp", "solve",
             "--experiment", "lasso", "--solver", "ada", "--max-iters", "20",
             "--stop-mode", "max_iters", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        assert (tmp_path / "trace.csv").exists()


def test_summary_reports_stop_reason(tmp_path):
    for stop_mode, iters, status, reason in (("max_iters", 30, 2, "max_iters"),
                                             ("x_change", 3000, 0, "converged")):
        out = tmp_path / stop_mode
        config = ExperimentConfig(experiment="exchange", solver="ada", blocks=3,
                                  n=8, p=4, rho=2.0, c=2.0, max_iters=iters,
                                  stop_eps=1e-9, stop_mode=stop_mode, out=str(out))
        assert run_experiment(config) == status
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == reason


def test_summary_counts_exact_fallbacks(tmp_path, monkeypatch):
    # criterion B with a tiny eps0 drives thresholds to rounding level, where
    # quadratic blocks fall back to the exact solve; closed forms never do
    counts = {}
    for solver in ("ada", "iada"):
        if solver == "iada":
            monkeypatch.setattr(bench, "build_block_solvers",
                                lambda problem, params, sched: iterative_solvers(problem, params))
        out = tmp_path / solver
        config = ExperimentConfig(experiment="exchange", solver=solver, seed=1000,
                                  blocks=5, n=100, p=80, rho=10.0, c=10.0,
                                  max_iters=45, stop_mode="max_iters",
                                  criterion="criterion_B", eps0=1e-5, gamma=2.0,
                                  out=str(out))
        assert run_experiment(config) == 2
        counts[solver] = json.loads((out / "summary.json").read_text())["exact_fallbacks"]
    assert counts["ada"] == 0
    assert counts["iada"] > 0


@pytest.mark.parametrize("stop_mode, max_iters, full_diagnostics",
                         [("consensus", 3000, False), ("max_iters", 20, True)])
def test_criterion_b_run_takes_a_criterion_a_reference(tmp_path, stop_mode, max_iters,
                                                       full_diagnostics):
    # the reference runs to 1e-12 x-change; under criterion B its logistic
    # blocks were asked for certificates below rounding, and the run exited 1
    config = ExperimentConfig(experiment="logreg", solver="iada", criterion="criterion_B",
                              n=120, d=6, partitions=3, rho=2.0, c=2.0,
                              max_iters=max_iters, stop_mode=stop_mode,
                              full_diagnostics=full_diagnostics, out=str(tmp_path))
    status = run_experiment(config)
    summary = json.loads((tmp_path / "summary.json").read_text())
    if stop_mode == "consensus":
        assert (status, summary["stop_reason"]) == (0, "custom")
    else:
        assert (status, summary["stop_reason"]) == (2, "max_iters")
        report = json.loads((tmp_path / "rate_report.json").read_text())
        assert report["ergodic_max_violation"] is not None


def test_solver_error_keeps_the_artifacts_of_the_steps_before_it(tmp_path, capsys):
    # gamma = 30 drives the criterion-A threshold below the rounding floor of
    # the gradient at step 3, where a logistic block's Newton solve stalls
    config = ExperimentConfig(experiment="logreg", solver="iada", n=120, d=6,
                              partitions=2, eps0=1e-3, gamma=30.0, max_iters=30,
                              stop_mode="max_iters", out=str(tmp_path))
    assert run_experiment(config) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stop_reason"] == "solver_error" and not summary["converged"]
    assert summary["iterations"] == 2
    assert summary["error"].startswith("block 0: Newton solve stopped after")
    assert summary["error"] in capsys.readouterr().err
    assert summary["hessian_factorizations"] > 0
    assert math.isfinite(summary["objective"])
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 and rows[0].endswith("inner_iters_total")
    assert (tmp_path / "rate_report.json").exists()


def test_summary_counts_hessian_factorizations(tmp_path):
    # only a logistic block's Newton steps factor during a run
    counts = {}
    for experiment, solver in (("logreg", "iada"), ("logreg", "ada"), ("lasso", "iada")):
        out = tmp_path / f"{experiment}-{solver}"
        config = ExperimentConfig(experiment=experiment, solver=solver, n=60, d=12,
                                  partitions=2, max_iters=10, stop_mode="max_iters",
                                  out=str(out))
        assert run_experiment(config) == 2
        counts[experiment, solver] = json.loads(
            (out / "summary.json").read_text())["hessian_factorizations"]
    assert counts["logreg", "iada"] > 0 and counts["logreg", "ada"] > 0
    assert counts["lasso", "iada"] == 0


def test_summary_names_each_block_solver(tmp_path):
    # an iada run says which blocks were solved exactly: least-squares
    # blocks by their factor, logistic ones by Newton steps
    kinds = {}
    for experiment, solver in (("exchange", "iada"), ("logreg", "iada"), ("lasso", "vsadmm")):
        out = tmp_path / f"{experiment}-{solver}"
        assert main(["solve", "--experiment", experiment, "--solver", solver,
                     "--max-iters", "3", "--stop-mode", "max_iters",
                     "--out", str(out)]) == 2
        kinds[experiment] = json.loads((out / "summary.json").read_text())["block_solvers"]
    assert kinds["exchange"] == ["quad"] * 5
    assert kinds["logreg"] == ["newton"] * 4 + ["l1"]
    assert kinds["lasso"] is None


def test_config_rejects_stop_modes_it_cannot_run(tmp_path):
    for experiment, solver in (("logreg", "vsadmm"), ("logreg", "proxjadmm"),
                               ("lasso", "ada"), ("exchange", "iada")):
        with pytest.raises(ValueError, match="consensus"):
            ExperimentConfig(experiment=experiment, solver=solver, stop_mode="consensus")
    for solver in ("ada", "iada"):
        assert ExperimentConfig(experiment="logreg", solver=solver,
                                stop_mode="consensus").stop_mode == "consensus"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "lasso", "stop_mode": "bogus"}))
    with pytest.raises(ValueError, match="bogus"):
        ExperimentConfig.from_json(path)
    # the CLI fails on the config, before it generates or solves anything
    out = tmp_path / "run"
    assert main(["solve", "--experiment", "logreg", "--solver", "vsadmm",
                 "--stop-mode", "consensus", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("pairing", [
    {"experiment": "exchange", "solver": "admm2"},
    {"experiment": "lasso", "solver": "vsadmm", "full_diagnostics": True},
    {"experiment": "lasso", "data_path": "/nonexistent.svm"},
    {"experiment": "lasso", "solver": "proxjadmm", "gamma_damp": 2.0},
])
def test_config_rejects_pairings_the_runner_ignores_before_any_work(tmp_path, pairing):
    # admm2 runs only the two-block lasso, the baselines fill no reference
    # fields, only logreg reads a data file, and the CLI's proxjadmm takes
    # the default proximal weights, which need gamma_damp < 2
    with pytest.raises(ValueError, match="applies to"):
        ExperimentConfig(**pairing)
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**pairing, "out": str(out)}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"experiment": "logreg", "n": 3, "partitions": 5}, "row blocks"),
    ({"experiment": "logreg", "data_path": "missing.svm"}, "No such file"),
])
def test_instance_build_failure_exits_before_any_work(tmp_path, capsys, config, message):
    # the config is valid, but the instance cannot be built: the CLI exits 1
    # before it creates the out directory
    if "data_path" in config:
        config = {**config, "data_path": str(tmp_path / config["data_path"])}
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "out": str(out)}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_criteria_outside_the_schedule_kinds(tmp_path):
    # exact solves are solver="ada"; there is no exact criterion for iada
    with pytest.raises(ValueError, match='solver="ada"'):
        ExperimentConfig(solver="iada", criterion="exact")
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "run"
    cfg.write_text(json.dumps({"solver": "iada", "criterion": "exact", "out": str(out)}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["rho", "c", "stop_eps"])
def test_config_rejects_nan_solver_params_before_any_work(tmp_path, name):
    # the config builds its SolverParams at construction, so the CLI exits 1
    # before it creates the out directory
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(**{name: float("nan")})
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "exchange", name: float("nan"),
                               "out": str(out)}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert not out.exists()


def test_cli_rejects_admm_step_outside_open_interval(tmp_path):
    # with admm_step 0 the iterates stall, and the x-change stop reads that
    # as convergence
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "lasso", "solver": "admm2", "admm_step": 0,
                               "n": 50, "d": 100, "out": str(out)}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("name, value", [("beta", 0.0), ("beta", float("nan")),
                                         ("gamma_damp", -1.0), ("gamma_damp", float("nan")),
                                         ("admm_step", 2.0), ("admm_step", float("nan"))])
def test_config_rejects_bad_baseline_params_before_any_work(tmp_path, name, value):
    # the config and BaselineParams share one check, and NaN fails it
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(solver="vsadmm", **{name: value})
    with pytest.raises(ValueError, match=name):
        ag.BaselineParams(**{name: value})
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "lasso", "solver": "admm2", name: value,
                               "n": 50, "d": 100, "out": str(out)}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("eps0", float("nan")), ("eps0", -1.0),
                                         ("gamma", float("nan")), ("gamma", 0.0)])
def test_config_rejects_bad_schedule_params_before_any_work(tmp_path, name, value):
    # the config and InexactSchedule share one check, and NaN fails it
    with pytest.raises(ValueError, match="eps0 and gamma"):
        ExperimentConfig(solver="iada", **{name: value})
    out = tmp_path / "run"
    flag = {"eps0": "--eps0", "gamma": "--gamma"}[name]
    assert main(["solve", "--experiment", "exchange", "--solver", "iada",
                 flag, str(value), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), 0.0])
def test_config_rejects_bad_l1_weight_before_any_work(tmp_path, value):
    with pytest.raises(ValueError, match="lam"):
        ExperimentConfig(experiment="logreg", lam=value)
    with pytest.raises(ValueError, match="lam"):
        build_logreg_consensus(partition_rows(np.eye(4), np.ones(4), 2), value)
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "logreg", "lam": value, "out": str(out)}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert not out.exists()


def test_every_solve_option_names_a_config_field():
    # main() passes every option it was given to ExperimentConfig by name
    options = set(vars(_build_parser().parse_args(["solve"]))) - {"command", "config"}
    assert len(options) == 11
    assert options <= {f.name for f in fields(ExperimentConfig)}
