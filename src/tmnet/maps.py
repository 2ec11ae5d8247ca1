"""Polynomial (Taylor) maps of a fixed state dimension and truncation order.

A map of order k sends X to W_0 + W_1 X + W_2 X^[2] + ... + W_k X^[k], where
X^[d] is the reduced Kronecker power over the bases of ``tmnet.basis``.
Evaluation is one product: the blocks stacked side by side into one (dim, N)
matrix, times the state's ``basis.monomials(X, k)``.  This module provides
evaluation, truncated composition, and the coefficient-space symplectic
residual used as a structure-preserving training penalty, with its gradient
in the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import basis

__all__ = [
    "TaylorMap",
    "identity_map",
    "compose",
    "symplectic_residual",
    "symplectic_penalty",
    "symplectic_penalty_gradient",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _freeze_blocks(poly, name: str, noun: str) -> None:
    """Check the dim, order and degree blocks of a polynomial dataclass, then
    store read-only copies of the blocks under name and, side by side, as one
    read-only (dim, N) matrix under "stacked"."""
    if poly.dim < 1:
        raise ValueError(f"dim must be >= 1, got {poly.dim}")
    if poly.order < 1:
        raise ValueError(f"order must be >= 1, got {poly.order}")
    blocks = getattr(poly, name)
    if len(blocks) != poly.order + 1:
        raise ValueError(f"expected {poly.order + 1} {noun} blocks, got {len(blocks)}")
    frozen = []
    for d, b in enumerate(blocks):
        b = np.asarray(b, dtype=float)
        want = (poly.dim, basis.basis_size(poly.dim, d))
        if b.shape != want:
            raise ValueError(f"degree-{d} block has shape {b.shape}, expected {want}")
        if not np.all(np.isfinite(b)):
            raise ValueError(f"degree-{d} block contains non-finite entries")
        frozen.append(_frozen(b))
    stacked = np.hstack(frozen)
    stacked.flags.writeable = False
    object.__setattr__(poly, name, tuple(frozen))
    object.__setattr__(poly, "stacked", stacked)


def _evaluate(stacked: np.ndarray, k: int, X) -> np.ndarray:
    """The polynomial whose stacked blocks are given, at one state X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 1:
        raise ValueError(f"state must be a 1-d vector, got shape {X.shape}")
    return stacked @ basis.monomials(X, k)


@dataclass(frozen=True)
class TaylorMap:
    """Truncated polynomial map X -> W_0 + W_1 X + ... + W_k X^[k].

    weights[d] has shape (dim, basis_size(dim, d)); W_0 is a column; stacked
    is (dim, N), the blocks side by side in the order of basis.monomials.
    Instances are immutable; training code works on copies.
    """

    dim: int
    order: int
    weights: tuple[np.ndarray, ...]
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _freeze_blocks(self, "weights", "weight")

    def apply(self, X) -> np.ndarray:
        """Evaluate the map at a state vector."""
        return _evaluate(self.stacked, self.order, X)

    __call__ = apply

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "basis_ordering": "graded_lex_x1_desc",
            "weights": [w.tolist() for w in self.weights],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaylorMap":
        ordering = data.get("basis_ordering", "graded_lex_x1_desc")
        if ordering != "graded_lex_x1_desc":
            raise ValueError(f"unsupported basis ordering {ordering!r}")
        return cls(
            dim=int(data["dim"]),
            order=int(data["order"]),
            weights=tuple(np.asarray(w, dtype=float) for w in data["weights"]),
        )


def identity_map(n: int, k: int) -> TaylorMap:
    """The identity as an order-k map: W_1 = I, all other blocks zero."""
    weights = [np.zeros((n, basis.basis_size(n, d))) for d in range(k + 1)]
    weights[1] = np.eye(n)
    return TaylorMap(dim=n, order=k, weights=tuple(weights))


def compose(outer: TaylorMap, inner: TaylorMap, k: int | None = None) -> TaylorMap:
    """outer(inner(X)) truncated at order k (default: max of the two orders)."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    if k is None:
        k = max(outer.order, inner.order)
    blocks = basis.substitute(outer.weights, inner.weights, k)
    return TaylorMap(dim=inner.dim, order=k, weights=tuple(blocks))


@lru_cache(maxsize=None)
def _canonical_J(n: int) -> np.ndarray:
    """The canonical antisymmetric form on interleaved (q, p) states.

    States in this package order phase space pairwise, (q1, p1, q2, p2, ...),
    e.g. (phi, phi') or (x, x', y, y'), so J is block-diagonal with 2x2 blocks
    [[0, 1], [-1, 0]].
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"symplectic structure needs even dim >= 2, got {n}")
    J = np.zeros((n, n))
    J[range(0, n, 2), range(1, n, 2)] = 1.0
    J[range(1, n, 2), range(0, n, 2)] = -1.0
    J.flags.writeable = False
    return J


@lru_cache(maxsize=None)
def _jacobian_table(n: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-(e+1) position T[p, i] of monomial p times x_i, and the
    exponent of x_i there: the degree-e coefficients of d(W X^[e+1])/dx_i
    are W[:, T[:, i]] * scale[:, i]."""
    T = basis._mult_table(n, e, 1)
    scale = basis.exponent_matrix(n, e + 1)[T, np.arange(n)].astype(float)
    scale.flags.writeable = False
    return T, scale


def _jacobian_series(weights, n: int, k: int) -> list[np.ndarray]:
    """Jacobian coefficients of the order-k polynomials over n variables whose
    blocks weights lists (leading axes index the polynomials): entry e, for
    e = 0..k-1, has shape (..., rows, n, basis_size(n, e)) and [..., r, i, :]
    holds the degree-e coefficients of d(output r)/dx_i."""
    out = []
    for e in range(k):
        T, scale = _jacobian_table(n, e)
        out.append(np.swapaxes(weights[e + 1][..., T] * scale, -1, -2))
    return out


def _residual(weights, n: int, k: int):
    """J times the Jacobian series of the order-k maps whose blocks weights
    lists (leading axes index the maps), and the coefficients of
    Jac(X)^T J Jac(X) - J as one series product.

    The residual coefficients R[c] have shape (..., dim, dim,
    basis_size(dim, c)).
    """
    J = _canonical_J(n)
    jac = _jacobian_series(weights, n, k)
    Jjac = [(J @ g.reshape(g.shape[:-2] + (-1,))).reshape(g.shape) for g in jac]
    products = basis._series_mul(
        [g[..., None, :] for g in jac], [h[..., None, :, :] for h in Jjac], n, 2 * (k - 1)
    )
    R = [p.sum(axis=-4) for p in products]
    R[0][..., 0] -= J
    return Jjac, R


def _penalty_and_gradient(weights, n: int, k: int, gradient: bool):
    """Symplectic penalty of each order-k map whose blocks weights lists
    (leading axes index the maps) and, when gradient is set, its gradient
    blocks d penalty / dW_d with the same leading axes (else None).

    The penalty is <R, R> with R = Jac^T J Jac - J; both triangles of the
    antisymmetric residual are summed, so each independent constraint
    contributes twice.  Both Jacobian factors contribute the adjoint of the
    series product against J Jac, so the gradient on the Jacobian series is
    that adjoint applied to 2 (R - R^T); each Jacobian coefficient then
    scatters back to the weight it came from.
    """
    Jjac, R = _residual(weights, n, k)
    penalty = sum(np.sum(c * c, axis=(-3, -2, -1)) for c in R)
    if not gradient:
        return penalty, None
    S = [2.0 * (c - np.swapaxes(c, -3, -2)) for c in R]
    djac = basis._series_mul_adjoint(
        [s[..., None, :, :, :] for s in S], [h[..., None, :, :] for h in Jjac], n, k - 1
    )
    grads = [np.zeros_like(weights[0])]
    for e, dg in enumerate(djac):
        _, scale = _jacobian_table(n, e)
        dW = np.swapaxes(dg.sum(axis=-2), -1, -2) * scale
        grads.append(dW.reshape(dW.shape[:-3] + (n, -1)) @ basis._scatter_matrix(n, e, 1))
    return penalty, grads


def symplectic_residual(tm: TaylorMap) -> tuple[np.ndarray, ...]:
    """Polynomial-matrix residual Jac(X)^T J Jac(X) - J in coefficient space.

    Entry d has shape (basis_size(dim, d), dim, dim) for degrees d = 0 to
    2(k-1); every coefficient matrix is antisymmetric.  The residual is
    identically zero iff the map is symplectic at every state; for n=2, k=2
    the degree-0 coefficient's (1,2) entry is
    w1^{11} w1^{22} - w1^{12} w1^{21} - 1 and the six monomial coefficients
    {1, x1, x2, x1^2, x1 x2, x2^2} carry one scalar constraint each.
    """
    _, R = _residual(tm.weights, tm.dim, tm.order)
    return tuple(_frozen(np.moveaxis(c, -1, 0)) for c in R)


def symplectic_penalty(tm: TaylorMap) -> float:
    """Sum of squared residual coefficients; 0 exactly iff symplectic."""
    return float(_penalty_and_gradient(tm.weights, tm.dim, tm.order, False)[0])


def symplectic_penalty_gradient(tm: TaylorMap) -> list[np.ndarray]:
    """d symplectic_penalty / dW_d for every block (W_0 gradient is zero)."""
    return _penalty_and_gradient(tm.weights, tm.dim, tm.order, True)[1]
