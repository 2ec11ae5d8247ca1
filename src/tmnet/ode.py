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
keeps, so ode_to_map compiles its term list once (_weight_flow) and each
evaluation is one gather, one product and one scatter; basis.substitute
computes the same right-hand side by series products and is its test
reference.

Every integration runs on one fixed-step RK4 loop over a state held as a
list of Python floats, which checks each step for divergence;
reference_trajectory is its one public entry point.  For a PolynomialODE
the substeps of a step run in one function generated from the ODE: the
state lives in locals and each RK4 stage is unrolled, term by term, from
the nonzero entries of the stacked (dim, N) coefficient matrix.  A callable
right-hand side still receives and returns arrays, through the plain RK4
loop on lists.
"""

from __future__ import annotations

import math
from collections import Counter, deque
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


def _weight_flow(ode: PolynomialODE, k: int):
    """dW/dt of the order-k weight flow, as a list of floats, at the weights w:
    the row-major ravel of the stacked (n, N) matrix, entry (i, s) at i * N + s.

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
    N = len(deg)
    size = n * N

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
                gather = [i * N + s for i, s in choice] + [size] * (p - d)
                for o, c in outputs:
                    target.append(o * N + t)
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
        return np.bincount(target, coef * w_ext[F].prod(axis=0), minlength=size).tolist()

    return rhs


def ode_to_map(ode: PolynomialODE, cfg: FlowConfig) -> TaylorMap:
    """Integrate the weight flow over one step of cfg.dt from the unified
    initial condition W_1 = I; returns the order-k Taylor map of the flow."""
    n, k = ode.dim, ode.order
    # each substep is one RK4 step, so divergence is caught at its substep;
    # only the last finite state is kept
    w = deque([identity_map(n, k).stacked.ravel().tolist()], maxlen=1)
    h = cfg.dt / cfg.substeps
    try:
        w.extend(_rk4_steps(_list_advance(_weight_flow(ode, k)), w[0], h, cfg.substeps, 1))
    except FlowDivergenceError as exc:
        raise FlowDivergenceError(
            f"weight flow diverged at t={exc.layer * h:.6g} of {cfg.dt:.6g} "
            f"(substep {exc.layer}/{cfg.substeps}; "
            f"last finite weight norm {math.hypot(*w[0]):.6g})", exc.layer
        ) from None
    W = np.array(w[0]).reshape(n, -1)
    _, sl = basis._stacked_exponents(n, k)
    return TaylorMap(dim=n, order=k, weights=tuple(W[:, s] for s in sl))


def _rk4_steps(advance, X: list, dt: float, steps: int, substeps: int):
    """Yield the state after each of `steps` steps of dt, each resolved by
    `substeps` RK4 steps of advance(X, h, substeps); raise
    FlowDivergenceError at the first step that ends non-finite.

    The state is a list of Python floats: per element these are the same
    IEEE operations numpy would run, without its per-call cost on a handful
    of entries.
    """
    h = dt / substeps
    for s in range(steps):
        try:
            # overflow in a callable's numpy code means divergence, which is
            # detected and raised below
            with np.errstate(over="ignore", invalid="ignore"):
                Y = advance(X, h, substeps)
            finite = all(map(math.isfinite, Y))
        except OverflowError:
            # Python's ** raises where numpy's returns inf
            finite = False
        if not finite:
            msg = (f"trajectory diverged at t={(s + 1) * dt:.6g} (step {s + 1}/{steps}; "
                   f"last finite state norm {math.hypot(*X):.6g})")
            raise FlowDivergenceError(msg, s + 1)
        X = Y
        yield X


def _list_advance(rhs):
    """advance(X, h, substeps) that runs RK4 on lists of floats with rhs,
    which maps such a list to one."""

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
    the nonzero columns of the stacked matrix: a monomial multiplies
    x_i ** e_i over its variables in order (x ** 1 is x), and each row starts
    at 0.0 and adds its c * m terms in column order, one statement per term
    so that any number of terms compiles.  The stages combine with the
    groupings of _list_advance.  These are the operations of
    PolynomialODE.rhs without its zero terms; its BLAS product may group or
    fuse the sums differently, by an ulp or so.  The source holds only
    generated names, int exponents and the reprs of the (finite)
    coefficients.
    """
    n = ode.dim
    E, _ = basis._stacked_exponents(n, ode.order)
    S = ode.stacked
    cols = np.flatnonzero(S.any(axis=0)).tolist()
    powers = [[(i, int(e)) for i, e in enumerate(E[j].tolist()) if e] for j in cols]
    x = [f"x{i}" for i in range(n)]
    y = [f"y{i}" for i in range(n)]

    def stage(out, state):
        # dX/dt at the variables named in state, into out0..out{n-1}
        lines, monomial = [], {}
        for j, p in zip(cols, powers):
            factors = [state[i] if e == 1 else f"{state[i]} ** {e}" for i, e in p]
            if len(factors) == 1 and factors[0] in state:
                monomial[j] = factors[0]
            else:
                monomial[j] = f"m{j}"
                lines.append(f"m{j} = {' * '.join(factors) or '1.0'}")
        for i in range(n):
            lines.append(f"{out}{i} = 0.0")
            lines += [f"{out}{i} += {float(S[i, j])!r} * {monomial[j]}"
                      for j in cols if S[i, j]]
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
