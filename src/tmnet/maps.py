"""Polynomial (Taylor) maps of a fixed state dimension and truncation order.

A map of order k sends X to W_0 + W_1 X + W_2 X^[2] + ... + W_k X^[k], where
X^[d] is the reduced Kronecker power over the bases of ``tmnet.basis``.
This module provides evaluation, state and weight derivatives, truncated
composition, and the coefficient-space symplectic residual used as a
structure-preserving training penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import basis

__all__ = [
    "TaylorMap",
    "identity_map",
    "compose",
    "SymplecticResidual",
    "symplectic_residual",
    "symplectic_penalty",
    "symplectic_penalty_gradient",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TaylorMap:
    """Truncated polynomial map X -> W_0 + W_1 X + ... + W_k X^[k].

    weights[d] has shape (dim, basis_size(dim, d)); W_0 is a column.
    Instances are immutable; training code works on copies.
    """

    dim: int
    order: int
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.weights) != self.order + 1:
            raise ValueError(
                f"expected {self.order + 1} weight blocks, got {len(self.weights)}"
            )
        ws = []
        for d, w in enumerate(self.weights):
            w = np.asarray(w, dtype=float)
            want = (self.dim, basis.basis_size(self.dim, d))
            if w.shape != want:
                raise ValueError(f"degree-{d} block has shape {w.shape}, expected {want}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"degree-{d} block contains non-finite entries")
            ws.append(_frozen(w))
        object.__setattr__(self, "weights", tuple(ws))

    def apply(self, X) -> np.ndarray:
        """Evaluate the map at a state vector."""
        X = np.asarray(X, dtype=float)
        out = self.weights[0][:, 0].copy()
        for d in range(1, self.order + 1):
            out += self.weights[d] @ basis.kron_power(X, d)
        return out

    __call__ = apply

    def jacobian(self, X, powers: list[np.ndarray] | None = None) -> np.ndarray:
        """d(apply)/dX at X, shape (dim, dim).

        powers may pass precomputed kron powers [X^[0], X^[1], ...] to reuse.
        """
        X = np.asarray(X, dtype=float)
        J = self.weights[1].copy()
        for d in range(2, self.order + 1):
            lower = powers[d - 1] if powers is not None else None
            J += self.weights[d] @ basis.kron_power_jacobian(X, d, lower_power=lower)
        return J

    def weight_gradients(self, X, upstream, powers: list[np.ndarray] | None = None):
        """Gradient blocks of <upstream, apply(X)> with respect to each W_d."""
        X = np.asarray(X, dtype=float)
        upstream = np.asarray(upstream, dtype=float)
        grads = []
        for d in range(self.order + 1):
            kp = powers[d] if powers is not None else basis.kron_power(X, d)
            grads.append(np.outer(upstream, kp))
        return grads

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


@dataclass(frozen=True)
class SymplecticResidual:
    """Coefficients of Jac(X)^T J Jac(X) - J on monomial bases.

    coefficients[d] has shape (basis_size(dim, d), dim, dim); degrees run from
    0 to 2(k-1).  Every coefficient matrix is antisymmetric, so each scalar
    constraint appears twice (both triangles); the penalty keeps that factor.
    """

    dim: int
    order: int
    coefficients: tuple[np.ndarray, ...]

    def penalty(self) -> float:
        return float(sum(np.sum(c * c) for c in self.coefficients))

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(c)) for c in self.coefficients))


@lru_cache(maxsize=None)
def _jacobian_table(n: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-(e+1) position T[p, i] of monomial p times x_i, and the
    exponent of x_i there: the degree-e coefficients of d(W X^[e+1])/dx_i
    are W[:, T[:, i]] * scale[:, i]."""
    T = basis._mult_table(n, e, 1)
    scale = basis.exponent_matrix(n, e + 1)[T, np.arange(n)].astype(float)
    scale.flags.writeable = False
    return T, scale


def _residual(tm: TaylorMap):
    """J times the Jacobian series of tm, and the coefficients of
    Jac(X)^T J Jac(X) - J as one series product.

    jac[e][r, i] holds the degree-e coefficients of dX'_r/dx_i; the residual
    coefficients R[c] have shape (dim, dim, basis_size(dim, c)).
    """
    n, k = tm.dim, tm.order
    J = _canonical_J(n)
    jac = []
    for e in range(k):
        T, scale = _jacobian_table(n, e)
        jac.append((tm.weights[e + 1][:, T] * scale).transpose(0, 2, 1))
    Jjac = [np.tensordot(J, g, axes=1) for g in jac]
    products = basis._series_mul(
        [g[:, :, None] for g in jac], [h[:, None] for h in Jjac], n, 2 * (k - 1)
    )
    R = [p.sum(axis=0) for p in products]
    R[0][:, :, 0] -= J
    return Jjac, R


def symplectic_residual(tm: TaylorMap) -> SymplecticResidual:
    """Polynomial-matrix residual Jac(X)^T J Jac(X) - J in coefficient space.

    The residual is identically zero iff the map is symplectic at every state;
    for n=2, k=2 the degree-0 coefficient's (1,2) entry is
    w1^{11} w1^{22} - w1^{12} w1^{21} - 1 and the six monomial coefficients
    {1, x1, x2, x1^2, x1 x2, x2^2} carry one scalar constraint each.
    """
    _, R = _residual(tm)
    return SymplecticResidual(
        dim=tm.dim,
        order=tm.order,
        coefficients=tuple(_frozen(np.moveaxis(c, -1, 0)) for c in R),
    )


def symplectic_penalty(tm: TaylorMap) -> float:
    """Sum of squared residual coefficients; 0 exactly iff symplectic.

    Both triangles of the antisymmetric residual are summed, so each
    independent constraint contributes twice.
    """
    _, R = _residual(tm)
    return float(sum(np.sum(c * c) for c in R))


def symplectic_penalty_gradient(tm: TaylorMap) -> list[np.ndarray]:
    """d symplectic_penalty / dW_d for every block (W_0 gradient is zero).

    The penalty is <R, R> with R = Jac^T J Jac - J.  Both Jacobian factors
    contribute the adjoint of the series product against J Jac, so the
    gradient on the Jacobian series is that adjoint applied to 2 (R - R^T);
    each Jacobian coefficient then scatters back to the weight it came from.
    """
    n, k = tm.dim, tm.order
    Jjac, R = _residual(tm)
    S = [2.0 * (c - c.transpose(1, 0, 2)) for c in R]
    djac = basis._series_mul_adjoint(
        [s[None] for s in S], [h[:, None] for h in Jjac], n, k - 1
    )
    grads = [np.zeros_like(tm.weights[0])]
    for e, dg in enumerate(djac):
        _, scale = _jacobian_table(n, e)
        dW = dg.sum(axis=2).transpose(0, 2, 1) * scale
        grads.append(dW.reshape(n, -1) @ basis._scatter_matrix(n, e, 1))
    return grads
