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
array, checked each substep for divergence; _ode_to_maps runs several ODEs
in that one loop, each with its own bytes.  reference_trajectory, the one
public trajectory integrator, runs each step's substeps in one generated
function (_term_advance, compiled once per PolynomialODE) on the state in
locals; unless given a count, it chooses the substeps by step doubling.
"""

from __future__ import annotations

import functools
import itertools
import math
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

    @functools.cached_property
    def _advance(self):
        """The oracle's RK4 substeps (_term_advance), compiled once per ODE."""
        return _term_advance(self, self.dim)

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

    The flow is a fixed polynomial of degree ode.order in w.  Column f of
    the ODE's stacked matrix is a monomial (basis._columns) in the map's
    outputs; expanding it picks one map column per factor, a multiset per
    variable, and a pick whose column degrees add up to at most k adds the
    coefficient, times the pick's orderings, times the product of its
    weights, to each output at the column of the merged monomial.  factors
    is the sorted tuple of those weights, unpadded.  Terms follow the ODE's
    columns, the picks in lexicographic order, then the outputs; at k = 0
    (W_0 = X, N = 1) factors is f and the terms are the ODE's right-hand
    side, term by term.
    """
    n, columns = ode.dim, basis._columns(ode.dim, k)
    monos, N = list(columns), len(columns)
    stop = [math.comb(n + b, b) for b in range(k + 2)]  # columns of degree <= b

    def picks(runs, budget):
        # (factors, merged monomial, orderings) of (variable, multiplicity)
        # runs: of a run's m factors, j take columns of degree 1 to
        # budget + 1 - j and the rest column 0, the monomial 1
        if not runs:
            yield (), (), 1
            return
        (i, m), rest = runs[0], runs[1:]
        for j in range(min(m, budget) + 1):
            for tail in itertools.combinations_with_replacement(range(1, stop[budget + 1 - j]), j):
                merged = sum((monos[s] for s in tail), ())
                if len(merged) <= budget:
                    pick = (0,) * (m - j) + tail
                    count = math.factorial(m) // math.prod(
                        math.factorial(pick.count(s)) for s in set(pick))
                    for factors, more, c in picks(rest, budget - len(merged)):
                        yield tuple(i * N + s for s in pick) + factors, merged + more, count * c

    terms = []
    for f, P in zip(basis._columns(n, ode.order), ode.stacked.T.tolist()):
        outputs = [(o, c) for o, c in enumerate(P) if c]
        if outputs:
            for factors, merged, count in picks([(i, f.count(i)) for i in sorted(set(f))], k):
                t = columns[tuple(sorted(merged))]
                terms += [(o * N + t, c * count, factors) for o, c in outputs]
    return terms


def _weight_flow(ode, k: int | None = None):
    """dW/dt of the order-k weight flow (_flow_terms) at the raveled weights
    w, or of each ODE of a list at its own order, w holding their weights in
    turn.  With terms padded to the largest order by a trailing 1.0 (index
    -1), it is a gather per factor, their product and an in-order scatter."""
    members = [(ode, k)] if isinstance(ode, PolynomialODE) else [(o, o.order) for o in ode]
    width, size, terms = max(o.order for o, _ in members), 0, []
    for o, order in members:
        terms += [(size + t, c, tuple(size + i for i in f)) for t, c, f in _flow_terms(o, order)]
        size += o.dim * len(basis._columns(o.dim, order))
    target = np.array([t for t, _, _ in terms], dtype=np.intp)
    coef = np.array([c for _, c, _ in terms], dtype=float)
    # one index row per factor: width - 1 whole-row multiplies, in factor order
    F = [f + (-1,) * (width - len(f)) for _, _, f in terms]
    first, *rest = np.array(F, dtype=np.intp).reshape(-1, width).T.copy()
    w_ext = np.ones(size + 1)

    def rhs(w):
        w_ext[:size] = w
        prod = w_ext[first]
        for f in rest:
            prod *= w_ext[f]
        return np.bincount(target, coef * prod, minlength=size)

    return rhs


def _ode_to_maps(odes: list, cfg: FlowConfig) -> list:
    """ode_to_map of each ODE in odes by one RK4 loop on all their weights
    (_weight_flow).  Members touch disjoint entries, so each map, and the
    error of the first member to end a substep non-finite, is that of its
    own ode_to_map byte for byte."""
    rhs = _weight_flow(odes)
    w = np.concatenate([identity_map(o.dim, o.order).stacked.ravel() for o in odes])
    cuts = np.cumsum([o.dim * len(basis._columns(o.dim, o.order)) for o in odes])[:-1]
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
                last = next(x for x, y in zip(np.split(w, cuts), np.split(nxt, cuts))
                            if not np.isfinite(y).all())
                raise FlowDivergenceError(
                    f"weight flow diverged at t={s * h:.6g} of {cfg.dt:.6g} "
                    f"(substep {s}/{cfg.substeps}; "
                    f"last finite weight norm {math.hypot(*last.tolist()):.6g})", s)
            w = nxt
    return [TaylorMap(dim=o.dim, order=o.order, weights=tuple(
        x.reshape(o.dim, -1)[:, s] for s in basis._stacked_exponents(o.dim, o.order)[1]))
        for o, x in zip(odes, np.split(w, cuts))]


def ode_to_map(ode: PolynomialODE, cfg: FlowConfig) -> TaylorMap:
    """Integrate the weight flow over one step of cfg.dt from the unified
    initial condition W_1 = I; returns the order-k Taylor map of the flow."""
    return _ode_to_maps([ode], cfg)[0]


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
    PolynomialODE's stage is unrolled from _flow_terms(ode, 0), whose
    factors are the monomials (basis._columns): basis._products forms each
    once, and each output starts at 0.0 and adds c * m per term, in term
    order, one statement per term so that any number of terms compiles.
    These are the operations of _weight_flow(ode, 0); PolynomialODE.rhs, a
    BLAS product, may group or fuse the sums differently, by an ulp or so.
    The source holds only generated names and the reprs of the (finite)
    coefficients.
    """
    x, y = ([f"{v}{i}" for i in range(n)] for v in "xy")
    if isinstance(ode, PolynomialODE):
        terms, namespace = _flow_terms(ode, 0), {}

        def stage(out, state):
            # dX/dt at the variables named in state, into out0..out{n-1}
            lines, names = basis._products(state, [f for _, _, f in terms])
            return ([f"{out}{i} = 0.0" for i in range(n)] + lines
                    + [f"{out}{o} += {c!r} * {names[f]}" for o, c, f in terms])
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
    advance = ode._advance if isinstance(ode, PolynomialODE) else _term_advance(ode, len(X))
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
