"""Polynomial ODEs, the weight-flow derivation of Taylor maps, and the
fixed-step reference integrator used as the numerical oracle.

For dX/dt = P_0 + P_1 X + ... + P_k X^[k], the time-dependent weights of the
flow map X(t) = W_0(t) + W_1(t) X_0 + ... + W_k(t) X_0^[k] satisfy their own
ODE, obtained by substituting the map into the right-hand side and collecting
coefficients per degree (truncating above k).  Solving that system once from
the unified initial condition W_1 = I (all other blocks zero) yields the map
for the chosen time step, independent of any particular trajectory.  That
weight ODE is itself a fixed polynomial of degree `order` in the flattened
weights, so ode_to_map compiles its term list once (_weight_flow) and each
evaluation is one gather, one product and one scatter; basis.substitute
computes the same right-hand side by series products and is its test
reference.

Every integration runs on one fixed-step RK4 loop over a state held as a
list of Python floats; reference_trajectory is its one public entry point.
It evaluates dX/dt of a PolynomialODE term by term, from the nonzero entries
of its stacked (dim, N) coefficient matrix; a callable right-hand side still
receives and returns arrays.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from . import basis
from .maps import TaylorMap, _evaluate, _freeze_blocks, _from_dict, _to_dict, identity_map

__all__ = [
    "PolynomialODE",
    "FlowConfig",
    "FlowDivergenceError",
    "weight_flow_rhs",
    "ode_to_map",
    "reference_trajectory",
]


class FlowDivergenceError(RuntimeError):
    """Raised when an integration or a layer chain produces non-finite
    values; layer is the 1-based step or layer where that happened."""

    def __init__(self, message: str, layer: int | None = None):
        super().__init__(message)
        self.layer = layer


@dataclass(frozen=True)
class PolynomialODE:
    """Polynomial right-hand side dX/dt = P_0 + P_1 X + ... + P_k X^[k].

    coeffs[d] has shape (dim, basis_size(dim, d)); stacked is (dim, N), the
    blocks side by side in the order of basis.monomials.
    """

    dim: int
    order: int
    coeffs: tuple[np.ndarray, ...]
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _freeze_blocks(self, "coeffs", "coefficient")

    def rhs(self, X) -> np.ndarray:
        """Evaluate dX/dt at a state vector."""
        return _evaluate(self.stacked, self.order, X)

    def to_dict(self) -> dict:
        return _to_dict(self, "coeffs")

    @classmethod
    def from_dict(cls, data: dict) -> "PolynomialODE":
        return _from_dict(cls, data, "coeffs")


def _count(name: str, value, least: int) -> int:
    """value as an int if it is an integer (Python or numpy, not bool) and
    >= least; else a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FlowConfig:
    """Integration window for ode_to_map: one step of size dt resolved by a
    fixed number of RK4 substeps."""

    dt: float
    substeps: int = 1000

    def __post_init__(self):
        if not np.isfinite(self.dt):
            raise ValueError("dt must be finite")
        object.__setattr__(self, "substeps", _count("substeps", self.substeps, 1))


def weight_flow_rhs(weights, ode: PolynomialODE) -> list[np.ndarray]:
    """Right-hand side of the weight ODE for the current map coefficients.

    weights is the block list of the map being evolved (same layout as
    TaylorMap.weights, order k >= 1).  Returns dW_d/dt for d = 0..k: the blocks
    of P(M(X)) truncated at degree k, evaluated from the compiled term list of
    _weight_flow (basis.substitute computes the same blocks by series
    products).  For the pendulum system this reproduces W'_1 = P_1 W_1,
    W'_2 = P_1 W_2, W'_3 = P_1 W_3 + P_3 A_3, where A_3 X^[3] = (W_1 X)^[3].
    """
    weights = [np.asarray(w, dtype=float) for w in weights]
    n, k = ode.dim, len(weights) - 1
    shapes = [w.shape for w in weights]
    if k < 1 or shapes != [(n, basis.basis_size(n, d)) for d in range(k + 1)]:
        raise ValueError(f"map blocks of shapes {shapes} are not an order >= 1 map "
                         f"in the ODE dimension {n}")
    return _blocks(_weight_flow(ode, k)(np.concatenate(weights, axis=None)), n, k)


def _blocks(w: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    """The flattened weights w of an order-k map in n variables as its blocks
    of degrees 0..k."""
    ends = itertools.accumulate(n * basis.basis_size(n, d) for d in range(k + 1))
    return [b.reshape(n, -1) for b in np.split(w, list(ends)[:-1])]


def _weight_flow(ode: PolynomialODE, k: int):
    """dW/dt of the order-k weight flow as a function of the flattened weights
    w (the blocks of degrees 0..k, each row-major, one after the other).

    The flow is a fixed polynomial of degree ode.order in w.  Row r of P_d is
    a degree-d monomial in the map's outputs; expanding it picks one map
    column per factor, and a choice whose column degrees add up to at most k
    contributes P_d[o, r] times the product of its weights to output o at the
    column of the summed exponents.  Choices that are the same multiset of
    weights are one term, their count folded into its coefficient, and every
    term is padded to ode.order factors with a trailing 1.0.  An evaluation
    is then one gather, one product and one scatter.
    """
    n, p = ode.dim, ode.order
    E, cols = basis._stacked_exponents(n, k)
    E = E.astype(int)
    deg = E.sum(axis=1).tolist()
    column = {tuple(e): s for s, e in enumerate(E.tolist())}
    size = n * len(deg)
    # flat position of entry (i, s) of the stacked (n, N) weights
    flat = [[n * cols[d].start + i * (cols[d].stop - cols[d].start) + s - cols[d].start
             for s, d in enumerate(deg)] for i in range(n)]

    def choices(factors, first, budget):
        # (variable, column) per factor; a variable's columns never decrease
        if not factors:
            yield ()
            return
        i, rest = factors[0], factors[1:]
        for s in range(first, cols[budget].stop):
            nxt = s if rest and rest[0] == i else 0
            for tail in choices(rest, nxt, budget - deg[s]):
                yield ((i, s),) + tail

    target, coef, F = [], [], []
    for d, P in enumerate(ode.coeffs):
        for r, e in enumerate(basis.exponent_matrix(n, d).tolist()):
            outputs = [(o, c) for o, c in enumerate(P[:, r].tolist()) if c]
            if not outputs:
                continue
            factors = tuple(i for i, m in enumerate(e) for _ in range(m))
            for choice in choices(factors, 0, k):
                # the number of ordered choices with this multiset of columns
                count = math.prod(map(math.factorial, e))
                for m in Counter(choice).values():
                    count //= math.factorial(m)
                t = column[tuple(E[[s for _, s in choice]].sum(axis=0).tolist())]
                gather = [flat[i][s] for i, s in choice] + [size] * (p - d)
                for o, c in outputs:
                    target.append(flat[o][t])
                    coef.append(c * count)
                    F.append(gather)
    target = np.array(target, dtype=np.intp)
    coef = np.array(coef, dtype=float)
    # one row per factor: a product over the leading axis is p - 1 whole-row
    # multiplies, much faster than p-entry products along the last axis
    F = np.array(F, dtype=np.intp).reshape(-1, p).T.copy()
    w_ext = np.ones(size + 1)

    def rhs(w):
        w_ext[:size] = w
        return np.bincount(target, coef * w_ext[F].prod(axis=0), minlength=size)

    return rhs


def ode_to_map(ode: PolynomialODE, cfg: FlowConfig) -> TaylorMap:
    """Integrate the weight flow over one step of cfg.dt from the unified
    initial condition W_1 = I; returns the order-k Taylor map of the flow."""
    n, k = ode.dim, ode.order
    W = np.concatenate(identity_map(n, k).weights, axis=None).tolist()
    # each substep is one RK4 step, so divergence is caught at its substep;
    # only the end state is kept
    h = cfg.dt / cfg.substeps
    try:
        w = deque(_rk4_steps(_on_lists(_weight_flow(ode, k)), W, h, cfg.substeps, 1),
                  maxlen=1)
    except FlowDivergenceError as exc:
        raise FlowDivergenceError(
            f"weight flow diverged at t={exc.layer * h:.6g} of {cfg.dt:.6g} "
            f"(substep {exc.layer}/{cfg.substeps})", exc.layer
        ) from None
    return TaylorMap(dim=n, order=k, weights=tuple(_blocks(np.array(w[0]), n, k)))


def _rk4_steps(rhs, X: list, dt: float, steps: int, substeps: int):
    """Yield the state after each of `steps` steps of dt, each resolved by
    `substeps` RK4 steps; raise FlowDivergenceError at the first step that
    ends non-finite.

    The state is a list of Python floats and rhs maps such a list to one:
    per element these are the same IEEE operations numpy would run, without
    its per-call cost on a handful of entries.
    """
    h = dt / substeps
    half, sixth = 0.5 * h, h / 6.0
    for s in range(steps):
        try:
            # overflow in a callable's numpy code means divergence, which is
            # detected and raised below
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(substeps):
                    k1 = rhs(X)
                    k2 = rhs([x + half * a for x, a in zip(X, k1)])
                    k3 = rhs([x + half * b for x, b in zip(X, k2)])
                    k4 = rhs([x + h * c for x, c in zip(X, k3)])
                    X = [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                         for x, a, b, c, d in zip(X, k1, k2, k3, k4)]
            finite = all(map(math.isfinite, X))
        except OverflowError:
            # Python's ** raises where numpy's returns inf
            finite = False
        if not finite:
            msg = f"trajectory diverged at t={(s + 1) * dt:.6g} (step {s + 1}/{steps})"
            raise FlowDivergenceError(msg, s + 1)
        yield X


def _on_lists(f):
    """The right-hand side f, which takes and returns arrays, on lists of
    floats."""
    return lambda X: np.asarray(f(np.array(X)), dtype=float).tolist()


def _term_rhs(ode: PolynomialODE):
    """dX/dt of ode on a list of floats, from the nonzero columns of its
    stacked matrix only.

    Each monomial multiplies x_i ** e_i over its variables in order (x ** 1
    is x), and each row adds its terms in column order.  These are the
    operations of PolynomialODE.rhs without its zero terms; its BLAS product
    may group or fuse the sums differently, by an ulp or so.
    """
    E, _ = basis._stacked_exponents(ode.dim, ode.order)
    S = ode.stacked
    cols = np.flatnonzero(S.any(axis=0)).tolist()
    factors = [[(i, int(e)) for i, e in enumerate(E[j].tolist()) if e] for j in cols]
    rows = [[(float(S[i, j]), c) for c, j in enumerate(cols) if S[i, j]]
            for i in range(ode.dim)]

    def rhs(X):
        m = []
        for f in factors:
            v = 1.0
            for i, e in f:
                v *= X[i] if e == 1 else X[i] ** e
            m.append(v)
        out = []
        for row in rows:
            acc = 0.0
            for c, j in row:
                acc += c * m[j]
            out.append(acc)
        return out

    return rhs


def reference_trajectory(ode, X0, dt: float, steps: int, substeps: int = 100) -> np.ndarray:
    """Fixed-step RK4, the package's one trajectory integrator.

    Returns the states at t = 0, dt, ..., steps*dt, shape (steps+1, n), each
    dt resolved by exactly `substeps` RK4 steps.  `ode` is a PolynomialODE,
    evaluated term by term (_term_rhs), or any callable X -> dX/dt on arrays.
    """
    X = np.asarray(X0, dtype=float)
    if X.ndim != 1:
        raise ValueError(f"X0 must be a vector, got shape {X.shape}")
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    steps, substeps = _count("steps", steps, 0), _count("substeps", substeps, 1)
    if isinstance(ode, PolynomialODE):
        if X.shape != (ode.dim,):
            raise ValueError(f"X0 has shape {X.shape}, ODE has dim {ode.dim}")
        rhs = _term_rhs(ode)
    else:
        rhs = _on_lists(ode)
    X = X.tolist()
    return np.array([X, *_rk4_steps(rhs, X, dt, steps, substeps)])
