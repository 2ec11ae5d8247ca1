"""Polynomial ODEs, the weight-flow derivation of Taylor maps, and the
fixed-step reference integrator used as the numerical oracle.

For dX/dt = P_0 + P_1 X + ... + P_k X^[k], the time-dependent weights of the
flow map X(t) = W_0(t) + W_1(t) X_0 + ... + W_k(t) X_0^[k] satisfy their own
ODE, obtained by substituting the map into the right-hand side and collecting
coefficients per degree (truncating above k).  Solving that system once from
the unified initial condition W_1 = I (all other blocks zero) yields the map
for the chosen time step, independent of any particular trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis
from .maps import TaylorMap

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
    """Raised when an integration produces non-finite values."""


@dataclass(frozen=True)
class PolynomialODE:
    """Polynomial right-hand side dX/dt = P_0 + P_1 X + ... + P_k X^[k].

    coeffs[d] has shape (dim, basis_size(dim, d)).
    """

    dim: int
    order: int
    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"expected {self.order + 1} coefficient blocks, got {len(self.coeffs)}"
            )
        cs = []
        for d, c in enumerate(self.coeffs):
            c = np.array(c, dtype=float)
            want = (self.dim, basis.basis_size(self.dim, d))
            if c.shape != want:
                raise ValueError(f"degree-{d} block has shape {c.shape}, expected {want}")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"degree-{d} block contains non-finite entries")
            c.flags.writeable = False
            cs.append(c)
        object.__setattr__(self, "coeffs", tuple(cs))

    def rhs(self, X) -> np.ndarray:
        """Evaluate dX/dt at a state."""
        X = np.asarray(X, dtype=float)
        out = self.coeffs[0][:, 0].copy()
        for d in range(1, self.order + 1):
            out += self.coeffs[d] @ basis.kron_power(X, d)
        return out

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
    W'_1 = P_1 W_1, W'_2 = P_1 W_2, W'_3 = P_1 W_3 + P_3 (W_1 X)^[3]-lift.
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
    W = [np.zeros((n, basis.basis_size(n, d))) for d in range(k + 1)]
    W[1] = np.eye(n)
    h = cfg.dt / cfg.substeps
    # Overflow is an expected failure mode here; it is detected and reported
    # below rather than surfaced as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.substeps):
            k1 = weight_flow_rhs(W, ode)
            k2 = weight_flow_rhs([w + 0.5 * h * a for w, a in zip(W, k1)], ode)
            k3 = weight_flow_rhs([w + 0.5 * h * a for w, a in zip(W, k2)], ode)
            k4 = weight_flow_rhs([w + h * a for w, a in zip(W, k3)], ode)
            W = [
                w + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for w, a, b, c, d in zip(W, k1, k2, k3, k4)
            ]
            if not all(np.all(np.isfinite(w)) for w in W):
                t = (step + 1) * h
                raise FlowDivergenceError(
                    f"weight flow diverged at t={t:.6g} of {cfg.dt:.6g} "
                    f"(substep {step + 1}/{cfg.substeps})"
                )
    return TaylorMap(dim=n, order=k, weights=tuple(W))


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
    out = np.empty((steps + 1, X.shape[0]))
    out[0] = X
    h = dt / substeps
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            for _ in range(substeps):
                k1 = rhs(X)
                k2 = rhs(X + 0.5 * h * k1)
                k3 = rhs(X + 0.5 * h * k2)
                k4 = rhs(X + h * k3)
                X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(X)):
                raise FlowDivergenceError(
                    f"trajectory diverged at t={(s + 1) * dt:.6g} (step {s + 1}/{steps})"
                )
            out[s + 1] = X
    return out


def reference_trajectory(ode, X0, dt: float, steps: int, substeps: int = 100) -> np.ndarray:
    """Dense fixed-step RK4 reference, sampled every dt (row 0 is X0).

    `ode` may be a PolynomialODE or any callable X -> dX/dt.  The internal
    substep is dt/substeps with substeps >= 100, keeping it at or below dt/100.
    """
    rhs = ode.rhs if isinstance(ode, PolynomialODE) else ode
    substeps = max(int(substeps), 100)
    return rk4_solve(rhs, X0, dt, steps, substeps=substeps)
