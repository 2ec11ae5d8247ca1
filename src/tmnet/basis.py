"""Reduced Kronecker-power monomial bases and the truncated series product.

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

The one truncated product, P(M(X)) up to degree k, is a term list over the
weights of M (_flow_terms) and its evaluator (_term_flow): with P an ODE,
the weight flow that derives maps (tmnet.ode); with P a map, composition.
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
def _prefix_table(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-d monomial in m variables, in basis order: the
    position of its degree-(d-1) prefix and its last (highest) variable."""
    columns = _columns(m, d)
    monos = list(itertools.combinations_with_replacement(range(m), d))
    first = columns[(0,) * (d - 1)]
    return np.array([columns[u[:-1]] - first for u in monos]), np.array([u[-1] for u in monos])


@lru_cache(maxsize=None)
def _orderings(n: int, p: int) -> np.ndarray:
    """The most orderings of a pick of each column of degrees 0..p in n
    variables (_flow_terms): the product of its multiplicities' factorials."""
    most = np.array([math.prod(map(math.factorial, map(f.count, set(f)))) for f in _columns(n, p)])
    most.flags.writeable = False
    return most


def _flow_terms(poly, k: int, live=None) -> list:
    """The terms of P(M(X)) truncated at degree k, the order-k weight flow
    dW/dt of the ODE P, as (target, coefficient, factors) with indices into
    the weights w of M: the row-major ravel of the stacked (n, N) matrix,
    entry (i, s) at i * N + s.  poly is the polynomial P with dim, order
    and stacked (an ode.PolynomialODE, or the outer map of maps.compose).

    The flow is a fixed polynomial of degree poly.order in w.  Column f of
    P's stacked matrix is a monomial (_columns) in the map's outputs;
    expanding it picks one map column per factor, a multiset per variable,
    and a pick whose column degrees add up to at most k adds the
    coefficient, times the pick's orderings, times the product of its
    weights, to each output at the column of the merged monomial.  factors
    is the sorted tuple of those weights, unpadded, whose variables (index
    // N) are f.  Terms follow P's columns, the picks in lexicographic order,
    then the outputs; at k = 0 (W_0 = X, N = 1) factors is f and the terms
    are P, term by term.

    With a set of weights `live`, a column picks only among its variable's
    live weights, so only the terms whose factors are all live are built,
    in the same order; a column of P whose coefficient times its most
    orderings (_orderings) overflows keeps every pick, whose terms
    ode._pruned_flow keeps.
    """
    n, columns = poly.dim, _columns(poly.dim, k)
    monos, N = list(columns), len(columns)
    stop = [math.comb(n + b, b) for b in range(k + 2)]  # columns of degree <= b

    def picks(runs, budget, cols):
        # (factors, merged monomial, orderings) of (variable, multiplicity)
        # runs: of a run's m factors, j take columns of degree 1 to
        # budget + 1 - j among cols[variable] and the rest column 0, the
        # monomial 1
        if not runs:
            yield (), (), 1
            return
        (i, m), rest = runs[0], runs[1:]
        for j in range(min(m, budget) + 1):
            if j < m and 0 not in cols[i]:
                continue
            top = stop[budget + 1 - j]
            for tail in itertools.combinations_with_replacement(
                    [s for s in cols[i] if 0 < s < top], j):
                merged = sum((monos[s] for s in tail), ())
                if len(merged) <= budget:
                    pick = (0,) * (m - j) + tail
                    count = math.factorial(m) // math.prod(
                        math.factorial(pick.count(s)) for s in set(pick))
                    for factors, more, c in picks(rest, budget - len(merged), cols):
                        yield tuple(i * N + s for s in pick) + factors, merged + more, count * c

    every = [range(N)] * n
    narrow = every if live is None else [
        [s for s in range(N) if i * N + s in live] for i in range(n)]
    terms = []
    for f, most, P in zip(_columns(n, poly.order), _orderings(n, poly.order).tolist(),
                          poly.stacked.T.tolist()):
        outputs = [(o, c) for o, c in enumerate(P) if c]
        if outputs:
            runs = [(i, f.count(i)) for i in sorted(set(f))]
            cols = every if any(math.isinf(c * most) for _, c in outputs) else narrow
            for factors, merged, count in picks(runs, k, cols):
                t = columns[tuple(sorted(merged))]
                terms += [(o * N + t, c * count, factors) for o, c in outputs]
    return terms


def _term_flow(terms: list, size: int):
    """rhs(w, coef): the sum of terms (target, coefficient, factors)
    indexing w, size floats, at w, such as dW/dt of a weight flow; coef,
    one float per term, replaces the terms' coefficients (by default their
    own).  With terms padded to the most factors by a trailing 1.0 (index
    -1), it is a gather per factor, their product and an in-order scatter."""
    width = max([1] + [len(f) for _, _, f in terms])
    target = np.array([t for t, _, _ in terms], dtype=np.intp)
    own = np.array([c for _, c, _ in terms], dtype=float)
    # one index row per factor: width - 1 whole-row multiplies, in factor order
    F = [f + (-1,) * (width - len(f)) for _, _, f in terms]
    first, *rest = np.array(F, dtype=np.intp).reshape(-1, width).T.copy()
    w_ext = np.ones(size + 1)

    def rhs(w, coef=own):
        w_ext[:size] = w
        prod = w_ext[first]
        for f in rest:
            prod *= w_ext[f]
        return np.bincount(target, coef * prod, minlength=size)

    return rhs
