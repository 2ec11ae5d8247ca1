"""Polynomial ODEs, the weight-flow derivation of Taylor maps, and the
fixed-step reference integrator used as the numerical oracle.

For dX/dt = P_0 + P_1 X + ... + P_k X^[k], the time-dependent weights of the
flow map X(t) = W_0(t) + W_1(t) X_0 + ... + W_k(t) X_0^[k] satisfy their own
ODE, obtained by substituting the map into the right-hand side and collecting
coefficients per degree (truncating above k).  Solving that system once from
the unified initial condition W_1 = I (all other blocks zero) yields the map
for the chosen time step, independent of any particular trajectory.  That
weight ODE is itself a fixed polynomial of degree `order` in the weights,
held as the row-major ravel of the stacked (dim, N) matrix that TaylorMap
keeps, so ode_to_map builds its term list once (_flow_terms) and each
evaluation (_weight_flow) is one gather per factor, their product and one
scatter; basis.substitute computes the same right-hand side by series
products and is its test reference.

ode_to_map runs its RK4 substeps on the raveled weights as one float64
array and checks each substep for divergence.  reference_trajectory, the
one public trajectory integrator, runs RK4 on a state held as a list of
Python floats and checks each step.  For a PolynomialODE the substeps of a
step run in one function generated from the order-0 term list, which is
the right-hand side (W_0 = X): the state lives in locals, each RK4 stage is
unrolled term by term, and each monomial is its prefix times its last
variable, with no **.  A callable right-hand side still receives and
returns arrays, through the plain RK4 loop on lists.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import basis
from .maps import (TaylorMap, _count, _evaluate, _freeze_blocks, _from_dict, _real,
                   _to_dict, identity_map)

__all__ = [
    "PolynomialODE",
    "FlowConfig",
    "FlowDivergenceError",
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


@dataclass(frozen=True)
class FlowConfig:
    """Integration window for ode_to_map: one step of size dt resolved by a
    fixed number of RK4 substeps."""

    dt: float
    substeps: int = 1000

    def __post_init__(self):
        _real("dt", self.dt)
        object.__setattr__(self, "substeps", _count("substeps", self.substeps, 1))


def _flow_terms(ode: PolynomialODE, k: int) -> list:
    """The terms of dW/dt, the order-k weight flow, as (target, coefficient,
    factors) with indices into the weights w: the row-major ravel of the
    stacked (n, N) matrix, entry (i, s) at i * N + s.

    The flow is a fixed polynomial of degree ode.order in w.  Row r of P_d is
    a degree-d monomial in the map's outputs; expanding it picks one map
    column per factor, and a choice whose column degrees add up to at most k
    contributes P_d[o, r] times the product of its weights to output o at the
    column of the summed exponents.  Choices that are the same multiset of
    weights are one term, their count folded into its coefficient, and
    factors is the sorted tuple of its weights, unpadded.  Terms follow the
    rows of P_0, ..., P_p, then the outputs; at k = 0 (W_0 = X, N = 1) they
    are the ODE's right-hand side, term by term.
    """
    n = ode.dim
    E, cols = basis._stacked_exponents(n, k)
    E = E.astype(int)
    deg = E.sum(axis=1).tolist()
    column = {tuple(e): s for s, e in enumerate(E.tolist())}
    N = len(deg)

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

    terms = []
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
                gather = tuple(i * N + s for i, s in choice)
                terms += [(o * N + t, c * count, gather) for o, c in outputs]
    return terms


def _weight_flow(ode: PolynomialODE, k: int):
    """dW/dt of the order-k weight flow (_flow_terms), as a float64 array,
    at the raveled weights w.  Each term is padded to ode.order factors with
    a trailing 1.0: an evaluation is one gather per factor, their product in
    factor order and one scatter that adds the terms in order."""
    size = ode.dim * len(basis._stacked_exponents(ode.dim, k)[0])
    terms = _flow_terms(ode, k)
    target = np.array([t for t, _, _ in terms], dtype=np.intp)
    coef = np.array([c for _, c, _ in terms], dtype=float)
    # one index row per factor: order - 1 whole-row multiplies, in factor order
    F = [f + (size,) * (ode.order - len(f)) for _, _, f in terms]
    first, *rest = np.array(F, dtype=np.intp).reshape(-1, ode.order).T.copy()
    w_ext = np.ones(size + 1)

    def rhs(w):
        w_ext[:size] = w
        prod = w_ext[first]
        for f in rest:
            prod *= w_ext[f]
        return np.bincount(target, coef * prod, minlength=size)

    return rhs


def ode_to_map(ode: PolynomialODE, cfg: FlowConfig) -> TaylorMap:
    """Integrate the weight flow over one step of cfg.dt from the unified
    initial condition W_1 = I; returns the order-k Taylor map of the flow."""
    n, k = ode.dim, ode.order
    rhs = _weight_flow(ode, k)
    w = identity_map(n, k).stacked.ravel()
    h = cfg.dt / cfg.substeps
    half, sixth = 0.5 * h, h / 6.0
    # the stages group as in _list_advance; an overflow inside one is
    # divergence, caught at the end of its substep with the last finite w
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, cfg.substeps + 1):
            k1 = rhs(w)
            k2 = rhs(w + half * k1)
            k3 = rhs(w + half * k2)
            k4 = rhs(w + h * k3)
            nxt = w + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(nxt).all():
                raise FlowDivergenceError(
                    f"weight flow diverged at t={s * h:.6g} of {cfg.dt:.6g} "
                    f"(substep {s}/{cfg.substeps}; "
                    f"last finite weight norm {math.hypot(*w.tolist()):.6g})", s)
            w = nxt
    W = w.reshape(n, -1)
    _, sl = basis._stacked_exponents(n, k)
    return TaylorMap(dim=n, order=k, weights=tuple(W[:, s] for s in sl))


def _rk4_steps(advance, X: list, dt: float, steps: int, substeps: int):
    """Yield the state after each of `steps` steps of dt, each resolved by
    `substeps` RK4 steps of advance(X, h, substeps); raise
    FlowDivergenceError at the first step that ends non-finite.  This is
    reference_trajectory's loop, for the generated oracle and for callables.

    The state is a list of Python floats: per element these are the same
    IEEE operations numpy would run, without its per-call cost on a handful
    of entries; like numpy's, they overflow to inf and never raise.
    """
    h = dt / substeps
    for s in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            Y = advance(X, h, substeps)
        if not all(map(math.isfinite, Y)):
            msg = (f"trajectory diverged at t={(s + 1) * dt:.6g} (step {s + 1}/{steps}; "
                   f"last finite state norm {math.hypot(*X):.6g})")
            raise FlowDivergenceError(msg, s + 1)
        X = Y
        yield X


def _list_advance(rhs):
    """advance(X, h, substeps) that runs RK4 on lists of floats with rhs,
    which maps such a list to one: reference_trajectory's loop for a
    callable right-hand side, wrapped by _on_lists."""

    def advance(X, h, substeps):
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(substeps):
            k1 = rhs(X)
            k2 = rhs([x + half * a for x, a in zip(X, k1)])
            k3 = rhs([x + half * b for x, b in zip(X, k2)])
            k4 = rhs([x + h * c for x, c in zip(X, k3)])
            X = [x + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip(X, k1, k2, k3, k4)]
        return X

    return advance


def _on_lists(f):
    """The right-hand side f, which takes and returns arrays, on lists of
    floats; a result that is not one float per state entry is a ValueError."""

    def rhs(X):
        X = np.array(X)
        out = np.asarray(f(X), dtype=float)
        if out.shape != X.shape:
            raise ValueError(f"right-hand side returned shape {out.shape} "
                             f"for a state of shape {X.shape}")
        return out.tolist()

    return rhs


def _term_advance(ode: PolynomialODE):
    """advance(X, h, substeps) for ode: the RK4 loop of _list_advance,
    generated as straight-line Python for this ODE and compiled.

    The state is held in locals x0..x{n-1}, and each stage is unrolled from
    _flow_terms(ode, 0): each distinct monomial is formed once, as its prefix
    times its last variable (the products of basis.monomials, with no **),
    and each output starts at 0.0 and adds c * m per term, in term order, one
    statement per term so that any number of terms compiles.  These are the
    operations of _weight_flow(ode, 0); PolynomialODE.rhs, a BLAS product,
    may group or fuse the sums differently, by an ulp or so.  The source
    holds only generated names and the reprs of the (finite) coefficients.
    """
    n = ode.dim
    terms = _flow_terms(ode, 0)
    x, y = ([f"{v}{i}" for i in range(n)] for v in "xy")

    def stage(out, state):
        # dX/dt at the variables named in state, into out0..out{n-1}
        lines = [f"{out}{i} = 0.0" for i in range(n)]
        names = {(): "1.0", **{(i,): v for i, v in enumerate(state)}}

        def monomial(f):
            if f not in names:
                prefix = monomial(f[:-1])
                names[f] = f"m{len(names)}"
                lines.append(f"{names[f]} = {prefix} * {state[f[-1]]}")
            return names[f]

        for o, c, f in terms:
            lines.append(f"{out}{o} += {c!r} * {monomial(f)}")
        return lines

    def update(step, k):
        return [f"y{i} = x{i} + {step} * {k}{i}" for i in range(n)]

    body = (stage("a", x) + update("half", "a") + stage("b", y) + update("half", "b")
            + stage("c", y) + update("h", "c") + stage("d", y)
            + [f"x{i} = x{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"
               for i in range(n)])
    state = f"[{', '.join(x)}]"
    source = "\n".join([
        "def advance(X, h, substeps):",
        "    half, sixth = 0.5 * h, h / 6.0",
        f"    {state} = X",
        "    for _ in range(substeps):",
        *(f"        {line}" for line in body),
        f"    return {state}",
    ])
    return basis._compiled(source, f"<RK4 substeps of a dim-{n} ODE>", "advance")


def reference_trajectory(ode, X0, dt: float, steps: int, substeps: int = 100) -> np.ndarray:
    """Fixed-step RK4, the package's one trajectory integrator.

    Returns the states at t = 0, dt, ..., steps*dt, shape (steps+1, n), each
    dt resolved by exactly `substeps` RK4 steps.  `ode` is a PolynomialODE,
    integrated by a function generated from its terms (_term_advance), or any
    callable X -> dX/dt on arrays that returns one float per state entry.
    """
    X = np.asarray(X0, dtype=float)
    if X.ndim != 1:
        raise ValueError(f"X0 must be a vector, got shape {X.shape}")
    dt = _real("dt", dt)
    steps, substeps = _count("steps", steps, 0), _count("substeps", substeps, 1)
    if isinstance(ode, PolynomialODE):
        if X.shape != (ode.dim,):
            raise ValueError(f"X0 has shape {X.shape}, ODE has dim {ode.dim}")
        advance = _term_advance(ode)
    else:
        advance = _list_advance(_on_lists(ode))
    X = X.tolist()
    return np.array([X, *_rk4_steps(advance, X, dt, steps, substeps)])
