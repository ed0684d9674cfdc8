import math

import numpy as np
import pytest
import scipy.sparse as sp

import augdecomp as ag
from augdecomp.bench import gen_logreg_data
from augdecomp.block_solvers import QuadBlockSolver
from augdecomp.coupling import Coupling, stacked_norm
from augdecomp.model import BlockSpec, FunctionDescriptor, SmoothPart

from cg_solver import spectral_norm
from conftest import iterative_solvers
from oracles import e_gram_scale


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


def test_matrix_coupling_has_no_gram_scale(monkeypatch):
    # structure is what the constructor says: a matrix, even a (signed,
    # scaled) identity or selection, has no Gram scale, and building one
    # reads none of its entries
    def spy(self, *args, **kwargs):
        raise AssertionError(f"densified a {self.shape[0]}x{self.shape[1]} matrix")

    assert Coupling(matrix=np.eye(4)).gram_scale is None
    assert Coupling(matrix=-np.eye(3)).gram_scale is None
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix, Coupling):
        monkeypatch.setattr(cls, "toarray", spy)
    n = 20000
    rng = np.random.default_rng(6)
    rows, signs = rng.permutation(n + 500)[:n], rng.choice([-2.0, 2.0], n)
    S = sp.csr_matrix((signs, (rows, np.arange(n))), shape=(n + 500, n))
    assert Coupling(matrix=S).gram_scale is None
    assert Coupling.identity(5, sign=-1).gram_scale == 1.0
    assert Coupling.copies(5, 4, rows=(0, 3), sign=-1).gram_scale == 2.0


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


def test_structured_problems_take_no_matrix_norm(monkeypatch):
    # the Schur bounds of the structured kinds are integers: building the
    # solvers, the schedules and the proximal weights takes no SVD
    def no_matrix_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            raise AssertionError("matrix 2-norm of a structured coupling")
        return np_norm(x, ord, *args, **kwargs)

    np_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", no_matrix_norm)
    A, labels = gen_logreg_data(30, 4, seed=3)
    problems = [ag.gen_lasso(10, 15, seed=2)[0], ag.gen_exchange(3, 6, 4, seed=2)[0],
                ag.build_logreg_consensus(ag.partition_rows(A, labels, 3), lam=0.1)]
    params = ag.SolverParams(rho=2.0, c=1.0, max_iters=3)
    for problem in problems:
        ag.build_block_solvers(problem, params)
        ag.InexactSchedule.for_problem(problem)
        iterative_solvers(problem, params)
        ag.default_prox_weights(problem, ag.BaselineParams())


def _dense_lasso():
    """A small lasso, and the same problem on the dense matrices ``+-I``."""
    structured, _ = ag.gen_lasso(6, 4, seed=0)
    dense = ag.Problem(blocks=tuple(BlockSpec(n=4, E=b.E.toarray(), objective=b.objective)
                                    for b in structured.blocks), q=structured.q)
    assert [b.E.kind for b in dense.blocks] == ["matrix", "matrix"]
    return structured, dense


def test_dense_identity_gets_the_formed_solvers():
    # a dense -I is a matrix: the l1 block's soft threshold refuses it, and
    # the least-squares block on a dense I factors the formed p E^T E + s I,
    # which agrees with the structured block's Woodbury solve
    structured, dense = _dense_lasso()
    params = ag.SolverParams(rho=2.0, c=1.0)
    with pytest.raises(ValueError, match=r"Coupling\.identity"):
        ag.build_block_solvers(dense, params)
    formed = QuadBlockSolver(dense.blocks[0], params.rho / 2.0, 1.0 / params.c)
    assert not isinstance(formed.E.penalized_gram(1.0, 1.0), float)
    reference = ag.build_block_solvers(structured, params)[0]
    rng = np.random.default_rng(5)
    for _ in range(5):
        t, z = rng.standard_normal(4), rng.standard_normal(4)
        x, x_ref = formed.solve(t, z).x, reference.solve(t, z).x
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_admm2_refuses_a_dense_identity():
    # Admm2Lasso reads the coupling's kind and sign and compares no matrix
    # with +-I: dense (I, -I) is not the x - z form
    _, dense = _dense_lasso()
    with pytest.raises(ValueError, match="x - z"):
        ag.Admm2Lasso(dense, ag.BaselineParams())


def test_l1_block_needs_a_scalar_gram():
    # the README's general coupling: a least-squares block on it gets its
    # factor, but the l1 block's soft threshold needs E^T E = alpha I
    M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    ls = BlockSpec(n=3, E=M, objective=FunctionDescriptor(
        smooth=SmoothPart("least_squares", np.ones((4, 3)), np.ones(4))))
    l1 = BlockSpec(n=3, E=M, objective=FunctionDescriptor(l1_scale=0.1))
    params = ag.SolverParams(rho=2.0, c=1.0)
    solvers = ag.build_block_solvers(ag.Problem(blocks=(ls, ls), q=np.zeros(2)), params)
    assert [s.kind for s in solvers] == ["quad", "quad"]
    with pytest.raises(ValueError, match=r"E\^T E = alpha I, which only "
                       r"Coupling\.identity and Coupling\.copies declare"):
        ag.build_block_solvers(ag.Problem(blocks=(ls, l1), q=np.zeros(2)), params)

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
