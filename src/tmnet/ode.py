"""Polynomial ODEs, the weight-flow derivation of Taylor maps, and the
fixed-step reference integrator used as the numerical oracle.

For dX/dt = P_0 + P_1 X + ... + P_k X^[k], the time-dependent weights of the
flow map X(t) = W_0(t) + W_1(t) X_0 + ... + W_k(t) X_0^[k] satisfy their own
ODE, obtained by substituting the map into the right-hand side and collecting
coefficients per degree (truncating above k).  Solving that system once from
the unified initial condition W_1 = I (all other blocks zero) yields the map
for the chosen time step, independent of any particular trajectory.

The oracle evaluates dX/dt as one product: the ODE's stacked (dim, N)
coefficient matrix times the state's monomials of degrees 0..k.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import basis
from .maps import TaylorMap, _evaluate, _freeze_blocks, identity_map

__all__ = [
    "PolynomialODE",
    "FlowConfig",
    "FlowDivergenceError",
    "weight_flow_rhs",
    "ode_to_map",
    "reference_trajectory",
    "rk4_solve",
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
        return {
            "dim": self.dim,
            "order": self.order,
            "basis_ordering": "graded_lex_x1_desc",
            "coeffs": [c.tolist() for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolynomialODE":
        ordering = data.get("basis_ordering", "graded_lex_x1_desc")
        if ordering != "graded_lex_x1_desc":
            raise ValueError(f"unsupported basis ordering {ordering!r}")
        return cls(
            dim=int(data["dim"]),
            order=int(data["order"]),
            coeffs=tuple(np.asarray(c, dtype=float) for c in data["coeffs"]),
        )


@dataclass(frozen=True)
class FlowConfig:
    """Integration window for ode_to_map: one step of size dt resolved by a
    fixed number of RK4 substeps."""

    dt: float
    substeps: int = 1000

    def __post_init__(self):
        if not np.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")


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
        w = deque(_rk4_steps(rhs, np.concatenate(W, axis=None), h, cfg.substeps, 1), maxlen=1)
    except FlowDivergenceError as exc:
        raise FlowDivergenceError(
            f"weight flow diverged at t={exc.layer * h:.6g} of {cfg.dt:.6g} "
            f"(substep {exc.layer}/{cfg.substeps})", exc.layer
        ) from None
    return TaylorMap(dim=n, order=k, weights=tuple(blocks(w[0])))


def _rk4_steps(rhs, X, dt: float, steps: int, substeps: int):
    """Yield the state after each of `steps` steps of dt, each resolved by
    `substeps` RK4 steps; raise FlowDivergenceError at the first step that
    ends non-finite."""
    h = dt / substeps
    half, sixth = 0.5 * h, h / 6.0
    for s in range(steps):
        # overflow here means divergence, which is detected and raised below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(substeps):
                k1 = rhs(X)
                k2 = rhs(X + half * k1)
                k3 = rhs(X + half * k2)
                k4 = rhs(X + h * k3)
                X = X + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(X)):
            msg = f"trajectory diverged at t={(s + 1) * dt:.6g} (step {s + 1}/{steps})"
            raise FlowDivergenceError(msg, s + 1)
        yield X


def rk4_solve(rhs, X0, dt: float, steps: int, substeps: int = 100) -> np.ndarray:
    """Fixed-step RK4 on a callable right-hand side.

    Returns states at t = 0, dt, ..., steps*dt (shape (steps+1, n)); each dt
    is resolved by `substeps` internal RK4 steps.
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.ndim != 1:
        raise ValueError(f"X0 must be a vector, got shape {X.shape}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    return np.array([X, *_rk4_steps(rhs, X, dt, steps, substeps)])


def reference_trajectory(ode, X0, dt: float, steps: int, substeps: int = 100) -> np.ndarray:
    """Dense fixed-step RK4 reference, sampled every dt (row 0 is X0).

    `ode` may be a PolynomialODE or any callable X -> dX/dt.  The internal
    substep is dt/substeps with substeps >= 100, keeping it at or below dt/100.
    """
    rhs = ode.rhs if isinstance(ode, PolynomialODE) else ode
    substeps = max(int(substeps), 100)
    return rk4_solve(rhs, X0, dt, steps, substeps=substeps)
