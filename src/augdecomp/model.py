"""Problem data, iterate state, and the block-sum geometry shared by all solvers.

A problem couples ``K`` variable blocks through a single linear constraint

    minimize    f_1(x_1) + ... + f_K(x_K)
    subject to  E_1 x_1 + ... + E_K x_K = q,

where each ``f_k`` is a smooth loss composed with a matrix or an l1 term and
the blocks ``x_k`` are unconstrained.  The decomposition algorithms work on a
lifted copy of the constraint that lives in the zero-sum subspace ``W`` of
stacked m-vectors and its all-equal orthogonal complement; this module owns
those projections and the weighted norm used by every convergence statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .coupling import Coupling


def vnorm(v: np.ndarray) -> float:
    """Euclidean norm of a float vector: ``np.linalg.norm(v)``'s own
    ``sqrt(v.dot(v))``, the same bits without its wrapper."""
    return math.sqrt(v.dot(v))


def _as_matrix(M):
    """Pass sparse matrices through, promote everything else to a float ndarray."""
    if sp.issparse(M):
        return M.tocsr()
    return np.asarray(M, dtype=float)


@dataclass(frozen=True)
class SmoothPart:
    """Smooth loss ``g(A x)`` of a block objective.

    Supported kinds:

    ``"least_squares"``
        ``g(u) = 0.5 * ||u - b||^2``.
    ``"logistic"``
        ``g(u) = sum_j log(1 + exp(-b_j u_j))`` with labels ``b_j`` in {-1,+1}.
    """

    kind: str
    A: object
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A))
        if self.kind not in ("least_squares", "logistic"):
            raise ValueError(f"unknown smooth kind {self.kind!r}")
        if self.b is None:
            raise ValueError(f"{self.kind} requires a right-hand side / label vector")
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError("b length does not match the rows of A")
        if self.kind == "logistic":
            if not np.all(np.isin(self.b, (-1.0, 1.0))):
                raise ValueError("logistic labels must be +1/-1")
            object.__setattr__(self, "_neg_b", -self.b)

    def _value_at(self, u: np.ndarray) -> float:
        """``g(u)``; ``u`` is left as it is."""
        return self._at(u if self.kind == "least_squares" else u.copy(), gradient=False)[0]

    def _at(self, u: np.ndarray, value: bool = True, gradient: bool = True,
            curvature: bool = False) -> tuple:
        """``(g(u), A^T g'(u), g''(u))`` at ``u = A x``, each entry None
        unless asked for.

        A logistic loss overwrites ``u`` with its margins ``m = -b u``,
        folding the labels in by one multiply with the stored ``-b``, and
        forms ``e = exp(-|m|)`` once, which lies in ``[0, 1]`` and never
        overflows.  The value ``max(m, 0) + log1p(e)``, the sigmoid
        ``where(m >= 0, 1, e) / (1 + e)`` and the curvature ``e / (1 + e)^2``
        are then arithmetic on ``e``, accurate to a few units of roundoff
        wherever they are normal floats, and 0 where the true value
        underflows.
        """
        if self.kind == "least_squares":
            r = u - self.b
            return (0.5 * float(r.dot(r)) if value else None,
                    self.A.T @ r if gradient else None,
                    np.ones_like(u) if curvature else None)
        m = u
        m *= self._neg_b
        e = np.abs(m)
        np.negative(e, out=e)
        np.exp(e, out=e)
        val = grad = h = None
        if value:
            terms = np.maximum(m, 0.0)
            terms += np.log1p(e)
            val = float(terms.sum())
        if gradient or curvature:
            e1 = e + 1.0
        if gradient:
            w = np.where(m >= 0.0, 1.0, e)
            w /= e1
            w *= self._neg_b
            grad = self.A.T @ w
        if curvature:
            h = e / e1
            h /= e1
        return val, grad, h

    def value(self, x: np.ndarray) -> float:
        return self._at(self.A @ x, gradient=False)[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._at(self.A @ x, value=False)[1]

    def value_and_gradient(self, x: np.ndarray, curvature: bool = False):
        """``(value(x), gradient(x))`` from a single product ``A @ x``, with
        the bits of the separate calls: all three share ``_at``.

        With ``curvature`` a third entry holds the weights ``h = g''(A x)``,
        so that the Hessian of the loss is ``A^T diag(h) A``.  A logistic
        loss takes one ``exp`` of its margins for the value, the sigmoid
        and ``h`` together, and no other transcendental call but the
        value's ``log1p``.
        """
        out = self._at(self.A @ x, curvature=curvature)
        return out if curvature else out[:2]


@dataclass(frozen=True)
class FunctionDescriptor:
    """Block objective: the smooth loss ``f_k(x) = g_k(A_k x)`` or the l1
    term ``f_k(x) = l1_scale * ||x||_1``.

    Exactly one part is present: ``smooth`` not None, or ``l1_scale > 0``.
    A loss with an l1 penalty is two blocks, the loss on ``x`` and the l1
    term on a copy ``z`` coupled by ``x - z = 0``, as ``gen_lasso`` builds.
    """

    smooth: Optional[SmoothPart] = None
    l1_scale: float = 0.0

    def __post_init__(self):
        if not self.l1_scale >= 0:  # NaN fails too
            raise ValueError("l1_scale must be nonnegative")
        if self.smooth is None and self.l1_scale == 0.0:
            raise ValueError("block objective has neither a smooth nor an l1 part")
        if self.smooth is not None and self.l1_scale > 0.0:
            raise ValueError("a block objective is a smooth loss or an l1 term, not "
                             "both: put the l1 term on its own block coupled by "
                             "x - z = 0, as gen_lasso does")

    def value(self, x: np.ndarray) -> float:
        if self.smooth is not None:
            return self.smooth.value(x)
        return self.l1_scale * float(np.abs(x).sum())

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the smooth part alone (zero vector if absent)."""
        if self.smooth is None:
            return np.zeros_like(x)
        return self.smooth.gradient(x)


@dataclass(frozen=True)
class BlockSpec:
    """One variable block: dimension, coupling operator and objective.

    ``E`` is a ``Coupling`` (``Coupling.identity`` for ``+-I``,
    ``Coupling.copies`` for stacked copies of the identity) or a dense or
    sparse matrix, which is wrapped as a general ``"matrix"`` coupling with
    no Gram scale, whatever its entries, so an l1 block needs a structured
    one.  The engines use ``E.apply``/``E.apply_T`` and the closed-form
    solvers ``E.gram_scale``; ``E.toarray()`` gives the matrix.  The block
    ranges over the whole space ``R^n``.
    """

    n: int
    E: object
    objective: FunctionDescriptor

    def __post_init__(self):
        if not isinstance(self.E, Coupling):
            object.__setattr__(self, "E", Coupling(matrix=self.E))
        if self.E.shape[1] != self.n:
            raise ValueError(f"E has {self.E.shape[1]} columns, block dimension is {self.n}")


@dataclass(frozen=True)
class Problem:
    """K >= 2 blocks coupled by ``sum_k E_k x_k = q``.

    The offset ``q`` is attached to the last block throughout; the lifted
    constraint for block K reads ``E_K x_K - q - w_K = 0``.
    """

    blocks: tuple
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if len(self.blocks) < 2:
            raise ValueError("need at least two blocks")
        m = self.q.shape[0]
        for k, blk in enumerate(self.blocks):
            if blk.E.shape[0] != m:
                raise ValueError(f"block {k}: E has {blk.E.shape[0]} rows, expected m={m}")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def m(self) -> int:
        return self.q.shape[0]

    def block_dims(self) -> tuple:
        return tuple(blk.n for blk in self.blocks)


@dataclass(frozen=True)
class SolverParams:
    """Proximal coefficients and run limits for the decomposition engines."""

    rho: float
    c: float
    max_iters: int = 1000
    stop_eps: float = 1e-8

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.rho > 0 and self.c > 0):
            raise ValueError("rho and c must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.stop_eps > 0:
            raise ValueError("stop_eps must be positive")


@dataclass(frozen=True)
class IterateState:
    """Full algorithm state ``(w, x, eta, zeta, y)``.

    ``w`` lives in the zero-sum subspace (components sum to zero); the
    all-equal multiplier block ``zeta`` is stored as its single common value
    ``zeta_bar`` so membership in the orthogonal complement is structural.
    States are replaced wholesale each iteration, never mutated.
    """

    w: np.ndarray          # (K, m)
    x: tuple               # K arrays of length n_k
    eta: np.ndarray        # (K, m)
    zeta_bar: np.ndarray   # (m,)
    y: np.ndarray          # (K, m)

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(np.asarray(xk, dtype=float) for xk in self.x))
        if vnorm(self.w.sum(axis=0)) > 1e-12 * (1.0 + vnorm(self.w.ravel(order="K"))):
            raise ValueError("w components do not sum to zero")

    @property
    def num_blocks(self) -> int:
        return self.w.shape[0]


def _unchecked(cls, *values):
    """``cls(*values)`` for a frozen dataclass without its ``__post_init__``
    check, for values the library formed and knows to pass it."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def make_initial_state(problem: Problem) -> IterateState:
    """All-zero starting point, the default for every benchmark run."""
    K, m = problem.num_blocks, problem.m
    return IterateState(
        w=np.zeros((K, m)),
        x=tuple(np.zeros(n) for n in problem.block_dims()),
        eta=np.zeros((K, m)),
        zeta_bar=np.zeros(m),
        y=np.zeros((K, m)),
    )


def saddle_state(problem: Problem, x: Sequence[np.ndarray],
                 y: np.ndarray) -> IterateState:
    """Assemble the full state corresponding to a primal-dual solution.

    For a feasible optimal ``x`` and its constraint multiplier ``y``, the
    lifted variables are ``w_k = E_k x_k - q_k`` (zero-sum by feasibility) and
    all multiplier copies equal ``y``; the result is a fixed point of the
    decomposition step.
    """
    K = problem.num_blocks
    x = tuple(np.asarray(xk, dtype=float) for xk in x)
    y = np.asarray(y, dtype=float)
    w = np.empty((K, problem.m))
    for k, (blk, xk) in enumerate(zip(problem.blocks, x)):
        w[k] = blk.E.apply(xk)
    w[K - 1] -= problem.q
    eta = np.tile(y, (K, 1))
    return IterateState(w=w, x=x, eta=eta, zeta_bar=y.copy(), y=eta.copy())


def _stack(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a K-tuple of equal-length vectors")
    return a


def project_onto_W(v) -> np.ndarray:
    """Project a K-tuple of m-vectors onto the zero-sum subspace.

    Returns ``v_k - mean_j v_j``; the components of the output sum to zero up
    to rounding.
    """
    a = _stack(v)
    return a - a.mean(axis=0)


def state_g_dist_sq(a: IterateState, b: IterateState, rho: float, c: float) -> float:
    """Squared G-distance between two states, with ``d = a - b`` partwise:

        rho ||dw||^2 + ||dx||^2 / c + (||deta||^2 + K ||dzeta_bar||^2) / rho

    ``zeta`` holds K copies of ``zeta_bar``, so its part counts K times.
    This is the metric in which the decomposition iteration is a proximal
    step; all monotonicity and rate statements are phrased in it.
    """
    if not (rho > 0 and c > 0):
        raise ValueError("rho and c must be positive")
    # squares in place; .sum() sums the 2-D parts pairwise, which dot does not
    dw = a.w - b.w
    dw *= dw
    deta = a.eta - b.eta
    deta *= deta
    dz = a.zeta_bar - b.zeta_bar
    dxs = [xa - xb for xa, xb in zip(a.x, b.x)]
    dx_sq = sum(float(dx.dot(dx)) for dx in dxs)
    return (
        rho * float(dw.sum())
        + dx_sq / c
        + (float(deta.sum()) + a.num_blocks * float(dz.dot(dz))) / rho
    )


def constraint_residual(x: Sequence[np.ndarray], problem: Problem) -> np.ndarray:
    """``sum_k E_k x_k - q``."""
    r = -problem.q.copy()
    for blk, xk in zip(problem.blocks, x):
        r += blk.E.apply(np.asarray(xk, dtype=float))
    return r


def objective(x: Sequence[np.ndarray], problem: Problem, values=None) -> float:
    """``sum_k f_k(x_k)``.

    ``values`` may give ``f_k(x_k)`` for some blocks (None for the others),
    as a block solver evaluated it; those are summed in place, in block order.
    """
    if values is None:
        values = (None,) * problem.num_blocks
    return sum(blk.objective.value(np.asarray(xk, dtype=float)) if v is None else v
               for blk, xk, v in zip(problem.blocks, x, values))
