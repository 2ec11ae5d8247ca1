"""Polynomial ODEs, the weight-flow derivation of Taylor maps, and the
RK4 reference integrator used as the numerical oracle.

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
one public trajectory integrator, runs the substeps of each step in one
generated function that holds the state in locals, and checks each step;
unless given a count, it chooses the substeps per step by step doubling.
Only an RK4 stage depends on the right-hand side.  For a PolynomialODE it
is unrolled from the order-0 term list, which is the right-hand side
(W_0 = X), term by term, each monomial its prefix times its last variable,
with no **.  For a callable it is one call that passes and returns the
state as a list of floats, the callable itself still seeing arrays.
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
    # the stages group as in _term_advance; an overflow inside one is
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


def _on_lists(f):
    """The right-hand side f, which takes and returns arrays, on lists of
    floats: the rhs of a callable's generated substeps (_term_advance).  A
    result that is not one float per state entry is a ValueError."""

    def rhs(X):
        X = np.array(X)
        out = np.asarray(f(X), dtype=float)
        if out.shape != X.shape:
            raise ValueError(f"right-hand side returned shape {out.shape} "
                             f"for a state of shape {X.shape}")
        return out.tolist()

    return rhs


def _term_advance(ode, n: int):
    """advance(X, h, substeps): RK4 substeps of the n-dimensional
    right-hand side ode, generated as straight-line Python and compiled.

    The state is held in locals x0..x{n-1}; a stage combination is one
    statement per variable.  A callable's stage is one call,
    [a0, ..., a{n-1}] = rhs([x0, ..., x{n-1}]) with rhs = _on_lists(ode).  A
    PolynomialODE's stage is unrolled from _flow_terms(ode, 0): each distinct
    monomial is formed once, as its prefix times its last variable (the
    products of basis.monomials, with no **), and each output starts at 0.0
    and adds c * m per term, in term order, one statement per term so that
    any number of terms compiles.  These are the operations of
    _weight_flow(ode, 0); PolynomialODE.rhs, a BLAS product, may group or
    fuse the sums differently, by an ulp or so.  The source holds only
    generated names and the reprs of the (finite) coefficients.
    """
    x, y = ([f"{v}{i}" for i in range(n)] for v in "xy")
    if isinstance(ode, PolynomialODE):
        terms, namespace = _flow_terms(ode, 0), {}

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
    else:
        namespace = {"rhs": _on_lists(ode)}

        def stage(out, state):
            outs = ", ".join(f"{out}{i}" for i in range(n))
            return [f"[{outs}] = rhs([{', '.join(state)}])"]

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
    return basis._compiled(source, f"<RK4 substeps of a dim-{n} ODE>", "advance", **namespace)


# the relative error the default reference_trajectory resolves its steps to
ORACLE_TOL = 1e-9
# the most RK4 substeps per step the default tries before it gives up
_MAX_SUBSTEPS = 2 ** 16


def _run(advance, X: list, dt: float, steps: int, fine: int, coarse: int | None,
         known=()):
    """The states of `steps` steps of `fine` substeps each, and, when coarse
    is set, the step-doubling estimate of their error against a coarse run of
    `coarse` = fine / 2 substeps in lockstep: the largest |fine - coarse| / 15
    / max(1, |fine|) over the entries so far.  known holds the first states
    of that coarse run, if already computed.  The run stops at the first
    step whose estimate exceeds ORACLE_TOL or is NaN (a non-finite coarse
    state), with that step's estimate; a fine step that ends non-finite
    raises FlowDivergenceError."""
    h, H = dt / fine, dt / (coarse or 1)
    out, C, estimate = [X], X, 0.0
    for s in range(steps):
        # numpy in a callable overflows to inf, as the generated products do
        with np.errstate(over="ignore", invalid="ignore"):
            Y = advance(X, h, fine)
            if coarse:
                C = known[s + 1] if s + 1 < len(known) else advance(C, H, coarse)
        if not all(map(math.isfinite, Y)):
            msg = (f"trajectory diverged at t={(s + 1) * dt:.6g} (step {s + 1}/{steps}; "
                   f"last finite state norm {math.hypot(*X):.6g})")
            raise FlowDivergenceError(msg, s + 1)
        X = Y
        out.append(X)
        if coarse:
            e = (max(abs(y - c) / max(1.0, abs(y)) for y, c in zip(Y, C)) / 15.0
                 if all(map(math.isfinite, C)) else math.nan)
            if not e <= ORACLE_TOL:
                return out, e
            estimate = max(estimate, e)
    return out, estimate


def _reference(ode, X0, dt: float, steps: int, substeps: int | None = None):
    """(states, substeps, estimate): reference_trajectory's states, the
    substeps per step that made them and their step-doubling error estimate
    (None for an explicit count).

    With substeps None, a coarse run of N and a fine run of 2N substeps per
    step go in lockstep from N = 1 (_run); a level whose estimate exceeds
    ORACLE_TOL stops there and N doubles, the states its fine run reached
    being the start of the next coarse run.  The fine run of the first
    level that completes is returned: the states of substeps=2N, byte for
    byte.  Beyond _MAX_SUBSTEPS the estimate is a ValueError.
    """
    X = np.asarray(X0, dtype=float)
    if X.ndim != 1:
        raise ValueError(f"X0 must be a vector, got shape {X.shape}")
    dt = _real("dt", dt)
    steps = _count("steps", steps, 0)
    if substeps is not None:
        substeps = _count("substeps", substeps, 1)
    if isinstance(ode, PolynomialODE) and X.shape != (ode.dim,):
        raise ValueError(f"X0 has shape {X.shape}, ODE has dim {ode.dim}")
    advance = _term_advance(ode, len(X))
    if substeps is not None:
        return np.array(_run(advance, X.tolist(), dt, steps, substeps, None)[0]), substeps, None
    fine, states = 2, []
    while True:
        states, estimate = _run(advance, X.tolist(), dt, steps, fine, fine // 2, states)
        if estimate <= ORACLE_TOL:
            return np.array(states), fine, estimate
        if 2 * fine > _MAX_SUBSTEPS:
            raise ValueError(
                f"the reference trajectory's error estimate is {estimate:.3g} at {fine} "
                f"RK4 substeps per step, above ORACLE_TOL {ORACLE_TOL:g}; "
                "pass substeps explicitly")
        fine *= 2


def reference_trajectory(ode, X0, dt: float, steps: int, substeps: int | None = None
                         ) -> np.ndarray:
    """RK4, the package's one trajectory integrator.

    Returns the states at t = 0, dt, ..., steps*dt, shape (steps+1, n), each
    dt resolved by the same number of RK4 steps of one generated function
    (_term_advance).  An explicit `substeps` runs exactly that many.  The
    default, None, chooses the count by step doubling (_reference): the
    smallest 2N, N a power of two, whose run differs from the run of N
    substeps by at most 15 * ORACLE_TOL * max(1, |state|) in every entry
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4); the result is that of
    substeps=2N, byte for byte.  `ode` is a PolynomialODE or any callable X
    -> dX/dt on arrays that returns one float per state entry.  The state is
    a list of Python floats between steps: per element these are the same
    IEEE operations numpy would run, without its per-call cost on a handful
    of entries; like numpy's, they overflow to inf and never raise.  The
    first step that ends non-finite raises FlowDivergenceError (under the
    default, a step of a 2N run; a non-finite N run only doubles N), and a
    default count above 2 ** 16 raises ValueError.
    """
    return _reference(ode, X0, dt, steps, substeps)[0]
