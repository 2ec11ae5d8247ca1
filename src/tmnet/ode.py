"""Polynomial ODEs, the weight-flow derivation of Taylor maps, and the
fixed-step reference integrator used as the numerical oracle.

For dX/dt = P_0 + P_1 X + ... + P_k X^[k], the time-dependent weights of the
flow map X(t) = W_0(t) + W_1(t) X_0 + ... + W_k(t) X_0^[k] satisfy their own
ODE, obtained by substituting the map into the right-hand side and collecting
coefficients per degree (truncating above k).  Solving that system once from
the unified initial condition W_1 = I (all other blocks zero) yields the map
for the chosen time step, independent of any particular trajectory.

Every integration runs on one fixed-step RK4 loop over a state held as a
list of Python floats; reference_trajectory is its one public entry point.
It evaluates dX/dt of a PolynomialODE term by term, from the nonzero entries
of its stacked (dim, N) coefficient matrix; a callable right-hand side still
receives and returns arrays.
"""

from __future__ import annotations

import math
from collections import deque
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
    TaylorMap.weights, order k).  Returns dW_d/dt for d = 0..k: the blocks of
    P(M(X)) truncated at degree k.  For the pendulum system this reproduces
    W'_1 = P_1 W_1, W'_2 = P_1 W_2, W'_3 = P_1 W_3 + P_3 A_3, where
    A_3 X^[3] = (W_1 X)^[3] (map_powers of the linear part, degree 3).
    """
    weights = list(weights)
    k = len(weights) - 1
    if weights[1].shape[0] != ode.dim:
        raise ValueError(
            f"map dimension {weights[1].shape[0]} does not match ODE dimension {ode.dim}"
        )
    return basis.substitute(ode.coeffs, weights, k)


def ode_to_map(ode: PolynomialODE, cfg: FlowConfig) -> TaylorMap:
    """Integrate the weight flow over one step of cfg.dt from the unified
    initial condition W_1 = I; returns the order-k Taylor map of the flow."""
    n, k = ode.dim, ode.order
    W = identity_map(n, k).weights
    ends = np.cumsum([0] + [w.size for w in W]).tolist()

    def blocks(w):
        return [w[a:b].reshape(n, -1) for a, b in zip(ends, ends[1:])]

    def rhs(w):
        return np.concatenate(weight_flow_rhs(blocks(w), ode), axis=None)

    # each substep is one RK4 step, so divergence is caught at its substep;
    # only the end state is kept
    h = cfg.dt / cfg.substeps
    try:
        w = deque(_rk4_steps(_on_lists(rhs), np.concatenate(W, axis=None).tolist(),
                              h, cfg.substeps, 1), maxlen=1)
    except FlowDivergenceError as exc:
        raise FlowDivergenceError(
            f"weight flow diverged at t={exc.layer * h:.6g} of {cfg.dt:.6g} "
            f"(substep {exc.layer}/{cfg.substeps})", exc.layer
        ) from None
    return TaylorMap(dim=n, order=k, weights=tuple(blocks(np.array(w[0]))))


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
