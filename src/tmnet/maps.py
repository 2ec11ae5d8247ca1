"""Polynomial (Taylor) maps of a fixed state dimension and truncation order.

A map of order k sends X to W_0 + W_1 X + W_2 X^[2] + ... + W_k X^[k], where
X^[d] is the reduced Kronecker power over the bases of ``tmnet.basis``.
Evaluation adds each row's terms left to right over the state's monomials,
w[r, 0] + w[r, 1] m_1 + ..., on Python floats, in one pass generated per
(dim, order) that also runs a network's chain slot by slot and tracking, so
all give the same bytes and none depends on the BLAS.  This module provides
evaluation, truncated composition, and the coefficient-space symplectic
residual used as a structure-preserving training penalty, with its gradient
in the weights; both come from one term list compiled per (dim, order), and
both are numpy products on the BLAS.  Composition is the weight flow's
truncated product (basis._flow_terms).
"""

from __future__ import annotations

import itertools
import math
import numbers
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
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _count(name: str, value, least: int) -> int:
    """value as an int if it is an integer (Python or numpy, not bool) and
    >= least; else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a float if it is a finite real number (Python or numpy, not
    bool); else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def _freeze_blocks(poly, name: str, noun: str) -> None:
    """Check the dim, order and degree blocks of a polynomial dataclass, then
    store read-only copies of the blocks under name and, side by side, as one
    read-only (dim, N) matrix under "stacked"."""
    for key in ("dim", "order"):
        object.__setattr__(poly, key, _count(key, getattr(poly, key), 1))
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


def _to_dict(poly, name: str) -> dict:
    """The JSON form of a polynomial dataclass whose blocks are stored under
    name."""
    return {
        "dim": poly.dim,
        "order": poly.order,
        "basis_ordering": "graded_lex_x1_desc",
        name: [b.tolist() for b in getattr(poly, name)],
    }


def _from_dict(cls, data: dict, name: str):
    """The polynomial dataclass cls from its JSON form (see _to_dict)."""
    if not isinstance(data, dict) or not isinstance(data.get(name), list):
        got = "an object without one" if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"{cls.__name__} must be a JSON object with a '{name}' list, got {got}")
    ordering = data.get("basis_ordering", "graded_lex_x1_desc")
    if ordering != "graded_lex_x1_desc":
        raise ValueError(f"unsupported basis ordering {ordering!r}")
    blocks = tuple(np.asarray(b, dtype=float) for b in data[name])
    return cls(dim=data["dim"], order=data["order"], **{name: blocks})


def _slot_lines(n: int, k: int) -> tuple[list[str], list[str]]:
    """(lines, m): the loop body of one order-k slot over n variables in
    every generated chain.  Where the slot's group h is not the last one's,
    g, it unpacks weights[h], a stacked (n, N) matrix as a flat row-major
    list; it forms the monomials m (in column order) of the state x0, x1,
    ... by basis._products and output r as y<r> = w[r, 0] + w[r, 1] * m1 +
    ..., added left to right (one statement per 64 terms)."""
    x, columns = [f"x{i}" for i in range(n)], basis._columns(n, k)
    lines, names = basis._products(x, columns)
    m = [names[c] for c in columns]
    w = [[f"w{r}_{s}" for s in range(len(m))] for r in range(n)]
    for r, row in enumerate(w):
        terms = [row[0], *(f"{v} * {ms}" for v, ms in zip(row[1:], m[1:]))]
        # one expression of thousands of terms overflows the compiler's
        # recursion limit on some CPython versions
        lines += [f"y{r} = {'' if c == 0 else f'y{r} + '}{' + '.join(terms[c:c + 64])}"
                  for c in range(0, len(terms), 64)]
    unpack = ["if h != g:", "    g = h", f"    {', '.join(itertools.chain(*w))}, = weights[g]"]
    return [f"        {line}" for line in unpack + lines], m


@lru_cache(maxsize=None)
def _chain_function(n: int, k: int):
    """chain(weights, groups, x) -> states: the one point evaluator, the
    slots of _slot_lines run from the state x as compiled Python on floats;
    states lists x and every output.  Every output has a degree-1 term in
    each variable, so once a state is non-finite, every later one is.
    network._training_function runs the same slots."""
    x = [f"x{i}" for i in range(n)]
    source = "\n".join([
        "def chain(weights, groups, x):",
        "    states, g = [x], None",
        "    for h in groups:",
        f"        {', '.join(x)}, = x",
        *_slot_lines(n, k)[0],
        f"        x = [{', '.join(f'y{r}' for r in range(n))}]",
        "        states.append(x)",
        "    return states",
    ])
    return basis._compiled(source, f"<chain of order-{k} slots over {n} variables>", "chain")


def _evaluate(stacked: np.ndarray, k: int, X) -> np.ndarray:
    """The polynomial whose stacked blocks are given, at one state X: one
    slot of _chain_function."""
    X, n = np.asarray(X, dtype=float), len(stacked)
    if X.shape != (n,):
        raise ValueError(f"state must be a 1-d vector of {n} entries, got shape {X.shape}")
    chain = _chain_function(n, k)
    return np.array(chain([stacked.ravel().tolist()], (0,), X.tolist())[1])


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
        return _to_dict(self, "weights")

    @classmethod
    def from_dict(cls, data: dict) -> "TaylorMap":
        return _from_dict(cls, data, "weights")


def identity_map(n: int, k: int) -> TaylorMap:
    """The identity as an order-k map: W_1 = I, all other blocks zero."""
    n, k = _count("dim", n, 1), _count("order", k, 1)
    weights = [np.zeros((n, basis.basis_size(n, d))) for d in range(k + 1)]
    weights[1] = np.eye(n)
    return TaylorMap(dim=n, order=k, weights=tuple(weights))


@lru_cache(maxsize=None)
def _composition(n: int, p: int, k: int):
    """(flow, index, counts): the terms of P(M(X)) cut at order k for an
    order-p map P over n variables (basis._flow_terms), built on the
    all-ones P, so every term is kept with its orderings count as its
    coefficient; flow evaluates them (basis._term_flow), and index is each
    term's entry in P's stacked ravel: its output row and the column of its
    factors' variables."""
    ones = TaylorMap(n, p, tuple(np.ones((n, basis.basis_size(n, d))) for d in range(p + 1)))
    terms, N, columns = basis._flow_terms(ones, k), len(basis._columns(n, k)), basis._columns(n, p)
    index = [t // N * len(columns) + columns[tuple(i // N for i in f)] for t, _, f in terms]
    return basis._term_flow(terms, n * N), np.array(index), np.array([c for _, c, _ in terms])


def compose(outer: TaylorMap, inner: TaylorMap, k: int | None = None) -> TaylorMap:
    """outer(inner(X)) truncated at order k (default: max of the two
    orders): the weight flow's product with outer as the ODE (_composition)
    at inner's weights cut or zero-padded to order k.  A term's coefficient
    is outer's entry times its orderings count, as in that flow, so where
    outer has no zero coefficient the result has the flow's bytes."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    n, k = inner.dim, max(outer.order, inner.order) if k is None else _count("k", k, 1)
    flow, index, counts = _composition(n, outer.order, k)
    W = np.zeros((n, len(basis._columns(n, k))))
    W[:, :inner.stacked.shape[1]] = inner.stacked[:, :W.shape[1]]
    w = flow(W.ravel(), outer.stacked.take(index) * counts).reshape(W.shape)
    return TaylorMap(n, k, tuple(w[:, s] for s in basis._stacked_exponents(n, k)[1]))


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
def _residual_terms(n: int, k: int):
    """Symplectic residuals of order-k maps in n variables as one term list
    over Pi[s, t], the sum over J[i, j] = 1 of w[i, s] w[j, t] (w stacked).

    Entry q * M + c of R = Jac^T J Jac - J (pair q of np.triu_indices(n, 1),
    a < b; monomial c of the M of degrees 0..2(k-1)) sums coef * Pi[s, t]
    over its terms, less 1 at the entries in unit (J[a, b] = 1, c = 0).  As
    Jac[i, a] sums e_s[a] w[i, s] X^(e_s - 1_a) over the columns s, columns
    s and t give coef e_s[a] e_t[b] - e_t[a] e_s[b] at the monomial
    e_s + e_t - 1_a - 1_b, the transposed products w[j, s] w[i, t] folded
    in.  Returns (coef, st, entry, unit, P * M, (i, j)) for the nonzero
    terms, st holding each term's flat index s * N + t into Pi.
    """
    J = _canonical_J(n)
    E, _ = basis._stacked_exponents(n, k)
    E2, _ = basis._stacked_exponents(n, 2 * (k - 1))
    a, b = np.triu_indices(n, 1)
    Ea, Eb = E[:, a].T, E[:, b].T
    q, s, t = np.nonzero(Ea[:, :, None] * Eb[:, None, :] - Eb[:, :, None] * Ea[:, None, :])
    # each monomial by its exponents read as the digits of a number in base 2k
    digits = (2 * k) ** np.arange(n)
    order = np.argsort(E2 @ digits)
    mono = (E @ digits)[s] + (E @ digits)[t] - digits[a[q]] - digits[b[q]]
    entry = q * len(E2) + order[np.searchsorted((E2 @ digits)[order], mono)]
    coef = Ea[q, s] * Eb[q, t] - Eb[q, s] * Ea[q, t]
    unit = np.flatnonzero(J[a, b] > 0) * len(E2)
    return coef, s * len(E) + t, entry, unit, len(a) * len(E2), np.nonzero(J > 0)


# _penalty_plan's cache, one plan per (n, k): that of the largest G asked
# for; the prefix of a plan is the plan of fewer maps, so what it holds
# never changes a result
_PENALTY_PLANS: dict = {}


def _penalty_plan(n: int, k: int, G: int):
    """The term list of _residual_terms laid out for G stacked maps, flat
    over (map, term): coef and 4 coef repeated per map, and the flat indices
    st + N^2 g into the maps' Pi, entry + P M g and unit + P M g into their
    residuals; with P * M and the J pairs (i, j).  The arrays of G maps are
    the prefix of those of more, so one plan per (n, k) is kept, for the
    largest G asked for so far, and a smaller G reads views of its prefix
    (a training run asks for its groups, a full flush of deferred penalties
    and a last partial one)."""
    plan = _PENALTY_PLANS.get((n, k))
    if plan is None or plan[0] < G:
        coef, st, entry, unit, size, pairs = _residual_terms(n, k)
        N = len(basis._stacked_exponents(n, k)[0])
        group = np.arange(G)[:, None]
        flat = (np.tile(coef, G), np.tile(4.0 * coef, G), (st + N * N * group).ravel(),
                (entry + size * group).ravel(), (unit + size * group).ravel())
        for a in flat:
            a.flags.writeable = False
        plan = _PENALTY_PLANS[n, k] = (G, flat, size, pairs)
    largest, flat, size, pairs = plan
    if G < largest:
        flat = tuple(a[:len(a) // largest * G] for a in flat)
    return (*flat, size, pairs)


def _residual_penalty(W: np.ndarray, k: int, gradient: bool):
    """(R, penalty, grads) of each order-k map in the stacked (G, n, N)
    weights W: the residual entries of _residual_terms, shape (G, P * M),
    the penalties 2 sum R^2 (both triangles), shape (G,), and the penalty
    gradient in W's layout if gradient is set (else None).

    One batched product gives every Pi; one flat gather, one product and one
    bincount give R, the indices and coefficients read from the cached
    _penalty_plan of (n, k, G).  The gradient on Pi is one more bincount, of
    4 coef R gathered at the terms' entries, over the terms' st; Pi's factors
    take it to the weights.  bincount adds the terms of an entry in term
    order, so each map's numbers are the same alone and in a stack.
    """
    G, n, N = W.shape
    coef, coef4, st, entry, unit, size, (i, j) = _penalty_plan(n, k, G)
    Wi, Wj = W.take(i, axis=1), W.take(j, axis=1)
    # overflow here means divergence, which training detects from the
    # non-finite penalty or gradient norm
    with np.errstate(over="ignore", invalid="ignore"):
        Pi = np.swapaxes(Wi, 1, 2) @ Wj
        R = np.bincount(entry, coef * Pi.take(st), G * size)
        R[unit] -= 1.0
        R = R.reshape(G, size)
        penalty = 2.0 * np.sum(R * R, axis=1)
        if not gradient:
            return R, penalty, None
        D = np.bincount(st, coef4 * R.take(entry), G * N * N).reshape(G, N, N)
        grads = np.empty_like(W)
        grads[:, i], grads[:, j] = Wj @ np.swapaxes(D, 1, 2), Wi @ D
    return R, penalty, grads


def symplectic_residual(tm: TaylorMap) -> tuple[np.ndarray, ...]:
    """Polynomial-matrix residual Jac(X)^T J Jac(X) - J in coefficient space.

    Entry d has shape (basis_size(dim, d), dim, dim) for degrees d = 0 to
    2(k-1); every coefficient matrix is exactly antisymmetric.  The residual
    is identically zero iff the map is symplectic at every state; for n=2,
    k=2 the degree-0 coefficient's (1,2) entry is
    w1^{11} w1^{22} - w1^{12} w1^{21} - 1 and the six monomial coefficients
    {1, x1, x2, x1^2, x1 x2, x2^2} carry one scalar constraint each.
    """
    E2, sl = basis._stacked_exponents(tm.dim, 2 * (tm.order - 1))
    R = _residual_penalty(tm.stacked[None], tm.order, False)[0].reshape(-1, len(E2))
    a, b = np.triu_indices(tm.dim, 1)
    full = np.zeros((len(E2), tm.dim, tm.dim))
    full[:, a, b], full[:, b, a] = R.T, -R.T
    return tuple(_frozen(full[s]) for s in sl)


def symplectic_penalty(tm: TaylorMap) -> float:
    """Sum of squared residual coefficients; 0 exactly iff symplectic."""
    return float(_residual_penalty(tm.stacked[None], tm.order, False)[1][0])
