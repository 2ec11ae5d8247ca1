"""Reduced Kronecker-power monomial bases and truncated polynomial algebra.

The degree-d basis over n variables collects every monomial
x1^e1 * ... * xn^en with e1 + ... + en = d exactly once (duplicates of the
full Kronecker power are merged).  Monomials are ordered by decreasing
exponent tuple, i.e. graded lexicographic with x1 heaviest:

    n=2, d=2:  x1^2, x1*x2, x2^2
    n=2, d=3:  x1^3, x1^2*x2, x1*x2^2, x2^3

All higher-level objects (Taylor maps, polynomial ODE right-hand sides)
store one dense coefficient block per degree against these bases, so the
ordering here is a file-format contract as well.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "basis_size",
    "position",
    "kron_power",
    "kron_power_jacobian",
    "lift_linear",
    "compose_power_truncate",
    "map_powers",
    "substitute",
]


def basis_size(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables: C(n+d-1, d)."""
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got d={d}")
    return math.comb(n + d - 1, d)


@lru_cache(maxsize=None)
def exponent_matrix(n: int, d: int) -> np.ndarray:
    """Exponent rows of the degree-d basis, shape (basis_size(n, d), n).

    Rows follow the documented ordering.  Enumerating sorted variable-index
    tuples with itertools.combinations_with_replacement produces exactly the
    decreasing-exponent order, so that is used as the single source of truth.
    """
    basis_size(n, d)  # validate arguments
    rows = np.zeros((basis_size(n, d), n), dtype=np.int64)
    for r, combo in enumerate(itertools.combinations_with_replacement(range(n), d)):
        for i in combo:
            rows[r, i] += 1
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _position_table(n: int, d: int) -> dict[tuple[int, ...], int]:
    rows = exponent_matrix(n, d)
    return {tuple(int(e) for e in row): r for r, row in enumerate(rows)}


def position(n: int, d: int, exponents) -> int:
    """Index of the monomial with the given exponents in the degree-d basis
    over n variables; KeyError if the exponents are not of degree d."""
    return _position_table(n, d)[tuple(exponents)]


def kron_power(X, d: int) -> np.ndarray:
    """Reduced Kronecker power X^[d]: all degree-d monomials of X.

    X is one state of shape (n,) or a batch of shape (..., n); the monomials
    run along the last axis.  X^[0] is the single entry 1; X^[1] is X itself.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        raise ValueError("state must have at least one axis")
    if d == 0:
        return np.ones(X.shape[:-1] + (1,))
    return np.prod(X[..., None, :] ** exponent_matrix(X.shape[-1], d), axis=-1)


@lru_cache(maxsize=None)
def _jacobian_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables for d(X^[d])/dX: coefficient E[j,i] and the index of the
    degree-(d-1) monomial obtained by lowering exponent i of row j (0 where
    E[j,i] = 0); the inverse of the degree-(d-1) times x_i product table."""
    raised = _mult_table(n, d - 1, 1)
    idx = np.zeros((basis_size(n, d), n), dtype=np.int64)
    idx[raised, np.arange(n)] = np.arange(raised.shape[0])[:, None]
    coef = exponent_matrix(n, d).astype(float)
    coef.flags.writeable = False
    idx.flags.writeable = False
    return coef, idx


def kron_power_jacobian(X, d: int, lower_power: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of X^[d] with respect to X, shape (basis_size(n, d), n).

    lower_power may supply a precomputed X^[d-1] to avoid recomputation.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 1:
        raise ValueError(f"state must be a 1-d vector, got shape {X.shape}")
    if d < 1:
        raise ValueError(f"degree must be >= 1 for a jacobian, got d={d}")
    if d == 1:
        return np.eye(X.shape[0])
    coef, idx = _jacobian_tables(X.shape[0], d)
    if lower_power is None:
        lower_power = kron_power(X, d - 1)
    return coef * lower_power[idx]


@lru_cache(maxsize=None)
def _mult_table(n: int, a: int, b: int) -> np.ndarray:
    """Position in the degree-(a+b) basis of each product of a degree-a and a
    degree-b monomial, shape (basis_size(n,a), basis_size(n,b))."""
    Ea = exponent_matrix(n, a)
    Eb = exponent_matrix(n, b)
    target = _position_table(n, a + b)
    table = np.zeros((Ea.shape[0], Eb.shape[0]), dtype=np.int64)
    for i, ra in enumerate(Ea):
        for j, rb in enumerate(Eb):
            table[i, j] = target[tuple(int(e) for e in (ra + rb))]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _scatter_matrix(n: int, a: int, b: int) -> np.ndarray:
    """0/1 matrix T with outer(u, v).ravel() @ T the degree-(a+b) coefficients
    of the product of a degree-a and a degree-b coefficient vector."""
    table = _mult_table(n, a, b).ravel()
    T = np.zeros((table.size, basis_size(n, a + b)))
    T[np.arange(table.size), table] = 1.0
    T.flags.writeable = False
    return T


def _series_mul(u, v, n: int, k: int) -> list[np.ndarray]:
    """Product of two truncated power series in n variables, up to degree k.

    u[a] and v[b] hold degree-a and degree-b coefficients on their last axis;
    leading axes broadcast.  Each degree pair is one matrix product of the
    flattened outer coefficients with a cached 0/1 scatter matrix.
    """
    lead = np.broadcast_shapes(*(x.shape[:-1] for x in (*u, *v)))
    out = [np.zeros(lead + (basis_size(n, c),)) for c in range(k + 1)]
    for a, ua in enumerate(u[: k + 1]):
        for b, vb in enumerate(v[: k + 1 - a]):
            outer = ua[..., :, None] * vb[..., None, :]
            out[a + b] += outer.reshape(outer.shape[:-2] + (-1,)) @ _scatter_matrix(n, a, b)
    return out


def _series_mul_adjoint(g, v, n: int, k: int) -> list[np.ndarray]:
    """Adjoint of _series_mul in its first factor: du[a] = d<g, u*v>/du[a]
    for a = 0..k, where g[c] weights the degree-c coefficients of u*v."""
    return [
        sum(
            (g[a + b][..., _mult_table(n, a, b)] @ vb[..., :, None])[..., 0]
            for b, vb in enumerate(v[: len(g) - a])
        )
        for a in range(k + 1)
    ]


@lru_cache(maxsize=None)
def _prefix_table(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-d monomial in m variables, in basis order: the
    position of its degree-(d-1) prefix and its last (highest) variable."""
    coef, idx = _jacobian_tables(m, d)
    var = np.array([np.flatnonzero(row)[-1] for row in coef])
    return idx[np.arange(len(var)), var], var


def map_powers(blocks, max_degree: int, k: int) -> dict[int, list[np.ndarray]]:
    """Coefficients of M(X)^[d] for d = 0..max_degree, truncated at degree k.

    blocks lists the coefficient matrices of the map M (degree 0 upward,
    m rows over n input variables).  The result maps each power d to a list
    of arrays A_0..A_k with A_j of shape (basis_size(m, d), basis_size(n, j))
    such that M(X)^[d] = sum_j A_j X^[j] up to the discarded degrees.

    Products share prefixes: each row of M(X)^[d] is a row of M(X)^[d-1]
    times one component of M, and all rows of a power form one series product.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if k < 0:
        raise ValueError(f"truncation order must be >= 0, got {k}")
    blocks = list(blocks)
    if len(blocks) < 2:
        raise ValueError("a polynomial map needs blocks for degrees 0 and 1")
    M = [np.array(b, dtype=float) for b in blocks]
    m, n = M[0].shape[0], M[1].shape[1]
    for d, b in enumerate(M):
        if b.shape != (m, basis_size(n, d)):
            raise ValueError(
                f"degree-{d} block has shape {b.shape}, expected {(m, basis_size(n, d))}"
            )
    M = M[: k + 1] + [np.zeros((m, basis_size(n, d))) for d in range(len(M), k + 1)]

    one = [np.ones((1, 1))] + [np.zeros((1, basis_size(n, j))) for j in range(1, k + 1)]
    result = {0: one}
    if max_degree >= 1:
        result[1] = M
    for d in range(2, max_degree + 1):
        parent, var = _prefix_table(m, d)
        result[d] = _series_mul([A[parent] for A in result[d - 1]], [B[var] for B in M], n, k)
    return result


def substitute(outer, inner, k: int) -> list[np.ndarray]:
    """Coefficient blocks of P(M(X)) truncated at degree k.

    outer lists the blocks P_0..P_p of a polynomial over the outputs of the
    map M whose blocks inner lists (both degree 0 upward).
    """
    powers = map_powers(inner, len(outer) - 1, k)
    out = [np.zeros((outer[0].shape[0], A.shape[1])) for A in powers[0]]
    out[0] += outer[0]
    for d in range(1, len(outer)):
        for j in range(k + 1):
            out[j] += outer[d] @ powers[d][j]
    return out


def compose_power_truncate(blocks, d: int, k: int) -> list[np.ndarray]:
    """Expansion of M(X)^[d] over input monomials of degree 0..k.

    Substitutes the polynomial map M given by coefficient blocks into the
    reduced Kronecker power of degree d and discards all terms of degree
    above k.  Returns one array per input degree, the degree-j array having
    shape (basis_size(m, d), basis_size(n, j)).
    """
    if d < 0:
        raise ValueError(f"power must be >= 0, got d={d}")
    return map_powers(blocks, d, k)[d]


def lift_linear(W, d: int) -> np.ndarray:
    """Matrix L with L @ X^[d] == (W @ X)^[d] for every X.

    W may be rectangular (m x n); L is basis_size(m, d) x basis_size(n, d).
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError(f"W must be a matrix, got shape {W.shape}")
    if d == 0:
        return np.ones((1, 1))
    m, n = W.shape
    blocks = [np.zeros((m, 1)), W]
    return compose_power_truncate(blocks, d, d)[d]
