"""Coupling operators ``E_k`` of the constraint ``sum_k E_k x_k = q``.

The couplings of the lasso, exchange and consensus formulations are signed
identities and stacked copies of the identity; their products, Gram scales
and norms have closed forms, so they are represented by their structure
rather than by a matrix.  Any other dense or sparse matrix is kept as given,
and its Gram scale is computed once, on first use.  Norms are bounded from
above in closed form by Schur's test (I. Schur, J. reine angew. Math. 140,
1911), exactly for the structured kinds; see ``stacked_norm``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp


def e_gram_scale(E) -> float | None:
    """Return ``alpha`` when ``E^T E == alpha * I``, else None.

    A scalar Gram matrix is what makes the closed-form block solves
    available; this numerical test serves the general ``"matrix"`` kind,
    whose structure is not known when it is built.  A sparse ``E`` keeps a
    sparse Gram.
    """
    G = E.T @ E
    d = G.diagonal()
    alpha = float(d.mean())
    scale = 1e-12 * max(1.0, alpha)
    if not np.allclose(d, alpha, rtol=1e-12, atol=scale):
        return None
    # the largest entry of G - alpha I, off the diagonal and on it
    off = G - (sp.diags(d) if sp.issparse(G) else np.diag(d))
    if max(abs(off).max(), np.abs(d - alpha).max()) > scale:
        return None
    return alpha


class Coupling:
    """Linear map ``E: R^n -> R^m`` whose structure is fixed at construction.

    Kinds:

    ``"identity"``
        ``E = sign * I_n`` (``m = n``); see ``Coupling.identity``.
    ``"copies"``
        ``m = B * n``: row block ``r`` of ``E`` is ``sign * I_n`` for each
        ``r`` in ``rows`` and zero otherwise; the consensus couplings
        ``x_i -> (0, .., x_i, .., 0)`` and ``z -> -(z, .., z)`` are of this
        kind.  See ``Coupling.copies``.
    ``"matrix"``
        A dense or sparse matrix, kept as given: ``Coupling(matrix=M)``.

    ``apply`` and ``apply_T`` return the same numbers as the products
    ``M @ x`` and ``M.T @ r`` with the CSR form of the represented matrix
    ``M``: exact zero terms add nothing, a negation rounds like the value it
    negates, and a sum of copies accumulates in row-block order.
    ``toarray`` gives ``M`` as a dense array.
    """

    def __init__(self, *, matrix=None, n: int = 0, blocks: int = 1, rows=(0,),
                 sign: int = 1):
        if matrix is not None:
            self._matrix = matrix.tocsr() if sp.issparse(matrix) \
                else np.asarray(matrix, dtype=float)
            if self._matrix.ndim != 2:
                raise ValueError("a coupling matrix must be two-dimensional")
            self.shape = self._matrix.shape
            return
        rows = tuple(sorted(int(r) for r in rows))
        if n < 1 or blocks < 1:
            raise ValueError("n and blocks must be positive")
        if not rows or len(set(rows)) != len(rows) or rows[0] < 0 or rows[-1] >= blocks:
            raise ValueError(f"rows must be distinct row-block indices in [0, {blocks})")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self._matrix = None
        self.n, self.blocks, self.rows, self.sign = int(n), int(blocks), rows, sign
        self.shape = (self.blocks * self.n, self.n)

    @classmethod
    def identity(cls, n: int, sign: int = 1) -> "Coupling":
        """``sign * I_n``."""
        return cls(n=n, sign=sign)

    @classmethod
    def copies(cls, n: int, blocks: int, rows, sign: int = 1) -> "Coupling":
        """``sign * I_n`` in row blocks ``rows`` of ``blocks``, zero elsewhere."""
        return cls(n=n, blocks=blocks, rows=rows, sign=sign)

    @property
    def kind(self) -> str:
        if self._matrix is not None:
            return "matrix"
        return "identity" if self.blocks == 1 else "copies"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``E @ x`` as a new array.  A ``"copies"`` coupling writes
        ``sign * x`` into each of its row blocks by a slice of a zero
        m-vector."""
        if self._matrix is not None:
            return self._matrix @ x
        x = np.asarray(x, dtype=float)
        v = x.copy() if self.sign > 0 else -x
        if self.blocks == 1:
            return v
        out = np.zeros(self.shape[0])
        for i in self.rows:
            out[i * self.n:(i + 1) * self.n] = v
        return out

    def apply_T(self, r: np.ndarray) -> np.ndarray:
        """``E.T @ r`` as a new array."""
        if self._matrix is not None:
            return self._matrix.T @ r
        r = np.asarray(r, dtype=float).reshape(self.blocks, self.n)
        acc = r[self.rows[0]].copy()
        for i in self.rows[1:]:
            acc += r[i]
        return acc if self.sign > 0 else -acc

    @cached_property
    def gram_scale(self) -> float | None:
        """``alpha`` with ``E^T E = alpha I``, or None when there is none."""
        if self._matrix is not None:
            return e_gram_scale(self._matrix)
        return float(len(self.rows))

    @cached_property
    def norm(self) -> float:
        """Upper bound on ``||E||_2``, ``stacked_norm([E])``."""
        return stacked_norm([self])

    def schur_rows(self) -> np.ndarray:
        """Schur certificate: an m-vector ``r`` with ``lambda_max(E E^T) <=
        max_i r[i]``.  The integer ``len(rows)`` on the row blocks of a
        structured kind, ``|E| (|E|^T 1)`` for a sparse matrix, which stays
        sparse, and ``||E||_2^2`` throughout, from one SVD, for a dense one."""
        M = self._matrix
        if M is None:
            r = np.zeros((self.blocks, self.n), dtype=int)
            r[list(self.rows)] = len(self.rows)
            return r.ravel()
        if sp.issparse(M):
            M = abs(M)
            return M @ (M.T @ np.ones(self.shape[0]))
        return np.full(self.shape[0], np.linalg.norm(M, 2) ** 2)

    def penalized_gram(self, penalty: float, prox_weight: float):
        """``C = p E^T E + s I``: the float ``p alpha + s`` when ``E^T E =
        alpha I``, otherwise a dense n-by-n array; a sparse ``"matrix"`` is
        multiplied sparse, and only the n-by-n product is densified."""
        alpha = self.gram_scale
        if alpha is not None:
            return float(penalty * alpha + prox_weight)
        M = self._matrix
        C = penalty * (M.T @ M)
        C = C.toarray() if sp.issparse(C) else C
        C.flat[::C.shape[0] + 1] += prox_weight
        return C

    def toarray(self) -> np.ndarray:
        """The represented matrix as a dense array."""
        if self._matrix is not None:
            M = self._matrix
            return M.toarray() if sp.issparse(M) else M.copy()
        out = np.zeros(self.shape)
        for i in self.rows:
            out[i * self.n:(i + 1) * self.n] = self.sign * np.eye(self.n)
        return out

    def __matmul__(self, x):
        """``E @ x`` for a vector, via ``apply``."""
        if np.ndim(x) != 1:
            raise TypeError("a Coupling multiplies vectors; use toarray() for the matrix")
        return self.apply(x)

    def __repr__(self):
        if self._matrix is not None:
            return f"Coupling(matrix {self.shape[0]}x{self.shape[1]})"
        return (f"Coupling({self.kind}, n={self.n}, blocks={self.blocks}, "
                f"rows={self.rows}, sign={self.sign:+d})")


def stacked_norm(couplings) -> float:
    """Upper bound ``sqrt(max_i sum_k r_k[i])`` on ``||[E_1 ... E_K]||_2``
    from the couplings' ``schur_rows`` ``r_k``: exact for the lasso, exchange
    and consensus stacks (``sqrt(2)``, ``sqrt(K)``, ``sqrt(N + 1)``)."""
    return math.sqrt(sum(E.schur_rows() for E in couplings).max())
