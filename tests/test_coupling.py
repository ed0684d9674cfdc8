import math

import numpy as np
import pytest
import scipy.sparse as sp

import augdecomp as ag
from augdecomp import coupling
from augdecomp.bench import gen_logreg_data
from augdecomp.block_solvers import L1ProxBlockSolver, QuadBlockSolver
from augdecomp.coupling import Coupling, e_gram_scale, stacked_norm
from augdecomp.model import BlockSpec, FunctionDescriptor

from cg_solver import spectral_norm
from conftest import iterative_solvers


STRUCTURED = [
    Coupling.identity(6),
    Coupling.identity(6, sign=-1),
    Coupling.copies(5, 4, rows=(2,)),
    Coupling.copies(5, 4, rows=(0, 3), sign=-1),
    Coupling.copies(5, 4, rows=range(4), sign=-1),
    Coupling.copies(5, 3, rows=range(3)),
]


def _scaled_normals(rng, size):
    """Gaussians over six decades, so that any change of summation order shows."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)


@pytest.mark.parametrize("E", STRUCTURED, ids=repr)
class TestStructuredKinds:
    def test_products_match_dense_and_csr(self, E):
        rng = np.random.default_rng(0)
        M = E.toarray()
        assert M.shape == E.shape
        for _ in range(20):
            x = _scaled_normals(rng, E.shape[1])
            r = _scaled_normals(rng, E.shape[0])
            assert np.array_equal(E.apply(x), M @ x)
            assert np.array_equal(E.apply_T(r), M.T @ r)
            assert np.array_equal(E.apply(x), sp.csr_matrix(M) @ x)
            assert np.array_equal(E.apply_T(r), sp.csr_matrix(M).T @ r)

    def test_gram_scale_and_norm_closed_forms(self, E):
        M = E.toarray()
        assert E.gram_scale == e_gram_scale(M)
        assert abs(E.norm - spectral_norm(M)) <= 1e-10 * spectral_norm(M)


def test_kinds_and_validation():
    assert Coupling.identity(3).kind == "identity"
    assert Coupling.copies(3, 2, rows=(1,)).kind == "copies"
    assert BlockSpec(n=3, E=np.eye(3), objective=FunctionDescriptor(
        l1_scale=1.0)).E.kind == "matrix"
    for bad in (dict(n=3, blocks=2, rows=()), dict(n=3, blocks=2, rows=(2,)),
                dict(n=3, blocks=2, rows=(0, 0)), dict(n=0),
                dict(n=3, sign=2)):
        with pytest.raises(ValueError):
            Coupling(**bad)


def test_matmul_takes_vectors_only():
    # no array shims: a matrix operand is refused, the matrix is toarray()
    E = Coupling.copies(3, 2, rows=(1,), sign=-1)
    x = np.arange(3.0)
    assert np.array_equal(E @ x, E.apply(x))
    with pytest.raises(TypeError, match="toarray"):
        E @ np.eye(3)


def test_general_matrix_keeps_its_products():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 3))
    E = Coupling(matrix=M)
    x, r = rng.standard_normal(3), rng.standard_normal(4)
    assert np.array_equal(E.apply(x), M @ x)
    assert np.array_equal(E.apply_T(r), M.T @ r)
    assert E.gram_scale is None
    assert E.norm == pytest.approx(np.linalg.norm(M, 2), rel=4 * np.finfo(float).eps)
    S = sp.random(6, 3, density=0.5, random_state=2, format="csr")
    Es = Coupling(matrix=S)
    assert np.array_equal(Es.apply_T(np.ones(6)), S.T @ np.ones(6))
    assert np.array_equal(Es.toarray(), S.toarray())


def test_sparse_gram_scale_is_not_densified(monkeypatch):
    # E^T E = alpha I is read off the sparse Gram: a signed selection with
    # 20000 columns would densify it to 3.2 GB
    def spy(self, *args, **kwargs):
        raise AssertionError(f"densified a {self.shape[0]}x{self.shape[1]} matrix")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix, Coupling):
        monkeypatch.setattr(cls, "toarray", spy)
    n = 20000
    rng = np.random.default_rng(6)
    rows, signs = rng.permutation(n + 500)[:n], rng.choice([-2.0, 2.0], n)

    def selection(rows, signs):
        return Coupling(matrix=sp.csr_matrix((signs, (rows, np.arange(n))), shape=(n + 500, n)))

    assert selection(rows, signs).gram_scale == 4.0
    scaled = signs.copy()
    scaled[7] *= 1.5  # one diagonal entry of the Gram differs
    assert selection(rows, scaled).gram_scale is None
    shared = rows.copy()
    shared[1] = shared[0]  # an off-diagonal entry of the Gram
    assert selection(shared, signs).gram_scale is None


@pytest.mark.parametrize("eps, scalar", [(0.0, True), (1e-13, True), (1e-11, False)])
def test_sparse_gram_scale_matches_dense(eps, scalar):
    # the same tolerances on a sparse Gram as on a dense one, on and off the
    # diagonal: E = -2 I + eps e_0 e_1^T has G_01 = -2 eps and G_11 = 4 + eps^2
    M = -2.0 * np.eye(5)
    M[0, 1] = eps
    alpha = e_gram_scale(M)
    assert (alpha is not None) == scalar
    assert e_gram_scale(sp.csr_matrix(M)) == alpha
    assert e_gram_scale(sp.csc_array(M)) == alpha


def test_generators_emit_structured_kinds():
    lasso, _ = ag.gen_lasso(10, 15, seed=2)
    assert [(b.E.kind, b.E.sign) for b in lasso.blocks] == [("identity", 1),
                                                           ("identity", -1)]
    exchange, _ = ag.gen_exchange(3, 6, 4, seed=2)
    assert all(b.E.kind == "identity" and b.E.sign == 1 for b in exchange.blocks)
    A, labels = gen_logreg_data(30, 4, seed=3)
    consensus = ag.build_logreg_consensus(ag.partition_rows(A, labels, 3), lam=0.1)
    assert [(b.E.kind, b.E.rows, b.E.sign) for b in consensus.blocks] == [
        ("copies", (0,), 1), ("copies", (1,), 1), ("copies", (2,), 1),
        ("copies", (0, 1, 2), -1)]


def test_stacked_norm_closed_form_matches_power_iteration():
    A, labels = gen_logreg_data(40, 5, seed=4)
    problem = ag.build_logreg_consensus(ag.partition_rows(A, labels, 4), lam=0.1)
    stacked = np.hstack([b.E.toarray() for b in problem.blocks])
    norm = stacked_norm([b.E for b in problem.blocks])
    assert norm == pytest.approx(np.sqrt(5.0), rel=1e-15)
    assert abs(norm - spectral_norm(stacked)) <= 1e-10 * np.sqrt(5.0)


def test_structured_problems_skip_numerical_detection(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numerical structure detection on a structured coupling")

    def no_matrix_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            forbidden()
        return np_norm(x, ord, *args, **kwargs)

    np_norm = np.linalg.norm
    monkeypatch.setattr(coupling, "e_gram_scale", forbidden)
    monkeypatch.setattr(np.linalg, "norm", no_matrix_norm)
    A, labels = gen_logreg_data(30, 4, seed=3)
    problems = [ag.gen_lasso(10, 15, seed=2)[0], ag.gen_exchange(3, 6, 4, seed=2)[0],
                ag.build_logreg_consensus(ag.partition_rows(A, labels, 3), lam=0.1)]
    params = ag.SolverParams(rho=2.0, c=1.0, max_iters=3)
    for problem in problems:
        ag.build_block_solvers(problem, params)
        schedule = ag.InexactSchedule.for_problem(problem)
        ag.build_block_solvers(problem, params, schedule)
        iterative_solvers(problem, params)
        ag.default_prox_weights(problem, ag.BaselineParams())


def test_user_dense_identity_gets_closed_form_solvers():
    structured, _ = ag.gen_lasso(6, 4, seed=0)
    dense = ag.Problem(blocks=tuple(BlockSpec(n=4, E=b.E.toarray(), objective=b.objective)
                                    for b in structured.blocks), q=structured.q)
    assert [b.E.kind for b in dense.blocks] == ["matrix", "matrix"]
    params = ag.SolverParams(rho=2.0, c=1.0)
    dense_solvers = ag.build_block_solvers(dense, params)
    assert [type(s) for s in dense_solvers] == [QuadBlockSolver, L1ProxBlockSolver]
    rng = np.random.default_rng(5)
    t, z = rng.standard_normal(4), rng.standard_normal(4)
    for a, b in zip(dense_solvers, ag.build_block_solvers(structured, params)):
        assert np.array_equal(a.solve(t, z).x, b.solve(t, z).x)


def _consensus(partitions):
    A, labels = gen_logreg_data(40, 5, seed=4)
    return ag.build_logreg_consensus(ag.partition_rows(A, labels, partitions), lam=0.1)


@pytest.mark.parametrize("partitions", range(1, 11))
def test_stacked_norm_is_exact_for_consensus(partitions):
    # [E_1 ... E_N+1] [E_1 ... E_N+1]^T = (I + 1 1^T) kron I_d, whose largest
    # eigenvalue N + 1 is also every row sum: the bound is sqrt(N + 1) to the bit
    problem = _consensus(partitions)
    assert stacked_norm([b.E for b in problem.blocks]) == math.sqrt(partitions + 1)


def _svd_norm(mats):
    stacked = np.hstack([M.toarray() if sp.issparse(M) else M for M in mats])
    return float(np.linalg.svd(stacked, compute_uv=False)[0])


def test_matrix_norms_are_bounded_from_above():
    # Schur's bound is never below the largest singular value, up to the
    # rounding of the products it sums
    rng = np.random.default_rng(8)
    slack = 1.0 - 4 * np.finfo(float).eps
    for trial in range(10):
        m = int(rng.integers(5, 40))
        mats = [rng.standard_normal((m, int(rng.integers(1, 30)))),
                sp.random(m, int(rng.integers(1, 30)), density=0.3,
                          random_state=trial, format="csr"),
                sp.random(m, int(rng.integers(1, 30)), density=0.05,
                          random_state=100 + trial, format="csc")
                * rng.standard_normal()]
        for M in mats:
            assert Coupling(matrix=M).norm >= _svd_norm([M]) * slack
        couplings = [Coupling(matrix=M) for M in mats] + [Coupling.identity(m, sign=-1)]
        assert stacked_norm(couplings) >= _svd_norm(
            mats + [-np.eye(m)]) * slack


def _tv_difference(side):
    """Forward differences of a side x side image, along rows and columns."""
    d1 = sp.diags([-np.ones(side - 1), np.ones(side - 1)], [0, 1],
                  shape=(side - 1, side))
    eye = sp.eye(side)
    return sp.vstack([sp.kron(eye, d1), sp.kron(d1, eye)], format="csr")


def test_tv_stack_is_bounded_without_densifying(monkeypatch):
    # [D, -I] for the 64x64 difference operator: ||[D, -I]||^2 = 1 + 8 sin^2(63 pi/128)
    # and Schur's bound is 1 + 8 (two columns of four nonzeros per row of D)
    D = _tv_difference(64)
    m = D.shape[0]
    exact = math.sqrt(1.0 + 8.0 * math.sin(63 * math.pi / 128) ** 2)

    def spy(self, *args, **kwargs):
        raise AssertionError(f"densified a {self.shape[0]}x{self.shape[1]} matrix")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix,
                sp.csr_array, sp.csc_array, sp.coo_array, sp.dia_array, Coupling):
        monkeypatch.setattr(cls, "toarray", spy)
    for minus_eye in (Coupling.identity(m, sign=-1), Coupling(matrix=-sp.eye(m))):
        norm = stacked_norm([Coupling(matrix=D), minus_eye])
        assert exact <= norm <= 3.0
    assert math.sqrt(8.0) * math.sin(63 * math.pi / 128) <= Coupling(matrix=D).norm \
        <= math.sqrt(8.0)
