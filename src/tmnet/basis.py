"""Reduced Kronecker-power monomial bases and truncated polynomial algebra.

The degree-d basis over n variables collects every monomial
x1^e1 * ... * xn^en with e1 + ... + en = d exactly once (duplicates of the
full Kronecker power are merged).  Monomials are ordered by decreasing
exponent tuple, i.e. graded lexicographic with x1 heaviest:

    n=2, d=2:  x1^2, x1*x2, x2^2
    n=2, d=3:  x1^3, x1^2*x2, x1*x2^2, x2^3

All higher-level objects (Taylor maps, polynomial ODE right-hand sides)
store one dense coefficient block per degree against these bases, so the
ordering here is a file-format contract as well.  They also keep the blocks
of degrees 0..k side by side in one (n, N) matrix whose columns follow
monomials(X, k), the terms the one point evaluator (maps._chain_function)
adds left to right.

A monomial is the sorted tuple of its variable indices, x1^2 * x2 being
(0, 0, 1); combinations_with_replacement yields them in basis order, and
one cached table (_columns) maps each to its column in the stack of degrees
0..k for every position, product table and term list.  Each is its prefix,
the tuple less its last entry, times its last variable (truncated power
series algebra; Berz 1999), and one emitter, _products, writes these
multiplies as straight-line Python in column order, sorted by (degree,
tuple) with no table, since its variables may be a weight flow's weights.
monomials runs them on the columns of a batch; kron_power forms them with
numpy indexing and is checked against it.
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
    "monomials",
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
def _columns(n: int, k: int) -> dict[tuple[int, ...], int]:
    """The column of each monomial of degrees 0..k in n variables in their
    stack, keyed by its sorted tuple of variable indices; the keys run in
    column order, and x1^d, (0,) * d, is the first column of degree d."""
    basis_size(n, k)  # validate arguments
    degrees = (itertools.combinations_with_replacement(range(n), d) for d in range(k + 1))
    return {mono: s for s, mono in enumerate(itertools.chain.from_iterable(degrees))}


def position(n: int, d: int, exponents) -> int:
    """Index of the monomial with the given exponents in the degree-d basis
    over n variables; KeyError if the exponents are not of degree d."""
    columns, e = _columns(n, d), tuple(exponents)
    mono = tuple(i for i, m in enumerate(e) if 0 <= m <= d for _ in range(int(m)))
    if len(mono) != d or tuple(map(mono.count, range(n))) != e:
        raise KeyError(e)
    return columns[mono] - columns[(0,) * d]


def kron_power(X, d: int) -> np.ndarray:
    """Reduced Kronecker power X^[d]: all degree-d monomials of X.

    X is one state of shape (n,) or a batch of shape (..., n); the monomials
    run along the last axis.  X^[0] is the single entry 1; X^[1] is X itself.
    Degree by degree, each monomial is its prefix times its last variable
    (_prefix_table): the products of monomials(X, d), by a separate path.
    """
    X = np.array(X, dtype=float)
    if X.ndim == 0:
        raise ValueError("state must have at least one axis")
    basis_size(X.shape[-1], d)  # validate arguments
    if d == 0:
        return np.ones(X.shape[:-1] + (1,))
    P = X
    for e in range(2, d + 1):
        parent, var = _prefix_table(X.shape[-1], e)
        P = P[..., parent] * X[..., var]
    return P


def _compiled(source: str, filename: str, name: str, **names):
    """The function `name` that the generated Python source defines,
    compiled under filename (tracebacks show it), with names among its
    globals."""
    namespace = dict(names)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=None)
def _stacked_exponents(n: int, k: int) -> tuple[np.ndarray, tuple[slice, ...]]:
    """Exponent rows of degrees 0..k stacked in one float array, and the
    slice of the stack that holds each degree."""
    E = np.vstack([exponent_matrix(n, d) for d in range(k + 1)]).astype(float)
    E.flags.writeable = False
    ends = itertools.accumulate(basis_size(n, d) for d in range(k + 1))
    return E, tuple(slice(end - basis_size(n, d), end) for d, end in enumerate(ends))


def _products(x: list[str], monos) -> tuple[list[str], dict]:
    """(lines, names): one line m<j> = <prefix> * <last variable> per
    monomial of monos or prefix of one, of degree >= 2, over the variables
    named x, and the name of each monomial (1 is "1.0").  Lines run in
    column order (_columns), which is the order of (degree, tuple), so each
    follows its prefix; sorting by that key builds no table over x, which
    for a weight flow holds every weight.  No **: on floats Python's **
    raises OverflowError where * gives inf."""
    names, formed = {(): "1.0", **{(i,): v for i, v in enumerate(x)}}, set()
    for mono in monos:
        while mono not in names and mono not in formed:
            formed.add(mono)
            mono = mono[:-1]
    lines = []
    for j, mono in enumerate(sorted(formed, key=lambda m: (len(m), m))):
        names[mono] = f"m{j}"
        lines.append(f"{names[mono]} = {names[mono[:-1]]} * {x[mono[-1]]}")
    return lines, names


@lru_cache(maxsize=None)
def _monomial_function(n: int, k: int):
    """f(x0, ..., x{n-1}): the list of the monomials of degrees 0..k in the
    order of monomials, their prefix products (_products) compiled.  The
    arguments are floats, or arrays of one shape (the columns of a batch)."""
    x, columns = [f"x{i}" for i in range(n)], _columns(n, k)
    lines, names = _products(x, columns)
    source = "\n".join([f"def monomials({', '.join(x)}):", *(f"    {line}" for line in lines),
                        f"    return [{', '.join(map(names.get, columns))}]"])
    return _compiled(source, f"<monomials of degree <= {k} in {n} variables>", "monomials")


def monomials(X, k: int) -> np.ndarray:
    """X^[0], X^[1], ..., X^[k] concatenated along the last axis.

    X is one state (n,) or a batch (..., n); the slice of degree d is
    _stacked_exponents(n, k)[1][d] and equals kron_power(X, d) exactly.
    Each monomial is built by prefix products (_monomial_function) on the
    columns of X, so a state gives the same bytes alone and in a batch.
    Overflow gives inf or nan, never an error or a warning.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        raise ValueError("state must have at least one axis")
    with np.errstate(over="ignore", invalid="ignore"):
        columns = _monomial_function(X.shape[-1], k)(*np.moveaxis(X, -1, 0))
    out = np.empty(X.shape[:-1] + (len(columns),))
    for j, column in enumerate(columns):
        out[..., j] = column
    return out


@lru_cache(maxsize=None)
def _scatter_matrix(n: int, a: int, b: int) -> np.ndarray:
    """0/1 matrix T with outer(u, v).ravel() @ T the degree-(a+b) coefficients
    of the product of a degree-a and a degree-b coefficient vector: row
    (p, q) holds its 1 at the position of monomial p times monomial q."""
    columns = _columns(n, a + b)
    bases = [itertools.combinations_with_replacement(range(n), d) for d in (a, b)]
    products = [columns[tuple(sorted(u + v))] for u, v in itertools.product(*bases)]
    T = np.zeros((len(products), basis_size(n, a + b)))
    T[np.arange(len(products)), np.array(products) - columns[(0,) * (a + b)]] = 1.0
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


@lru_cache(maxsize=None)
def _prefix_table(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-d monomial in m variables, in basis order: the
    position of its degree-(d-1) prefix and its last (highest) variable."""
    columns = _columns(m, d)
    monos = list(itertools.combinations_with_replacement(range(m), d))
    first = columns[(0,) * (d - 1)]
    return np.array([columns[u[:-1]] - first for u in monos]), np.array([u[-1] for u in monos])


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
