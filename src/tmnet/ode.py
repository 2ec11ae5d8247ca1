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
keeps, so ode_to_map builds its term list once (basis._flow_terms) and
each evaluation (_weight_flow) is one gather per factor, their product and
one scatter (basis._term_flow), the truncated product that maps.compose
runs with a map in place of the ODE.

Derivations run only on the weights that can move.  From W_1 = I most
weights of a flow stay exactly 0.0 (an odd field never moves W_0 or W_2,
and a linear one moves no weight of degree 2 or more), and _pruned_flow
finds the others as a least fixed point, building only the terms whose
factors can move.  While the weights are finite, every dropped term adds
an exact +-0.0 to a sum that starts at +0.0, so the pruned terms give the
full flow's maps byte for byte (Berz, Modern Map Methods in Particle Beam
Physics, 1999, keeps DA vectors sparse the same way).

One generated RK4 (_term_advance) serves states and weights: straight-line
Python on locals, unrolled from a term list, that reads the coefficients
from an argument, so a kernel is compiled once per term structure and
kept in one bounded cache (_kernel).  One runner (_run) takes trajectories
and derivations through the levels of step doubling: unless given a
count, it runs levels of N and 2N substeps per step from N = 1 until
max |X_2N - X_N| / 15 / max(1, |X_2N|) is within the caller's tolerance,
the states being those of 2N substeps; an explicit count is one level
with no N run.  Each level is one call of the generated function
(_rk4_source): every step, its fine and coarse runs through one RK4 body,
the finite check and the estimate on floats, so the runner keeps only
the ladder of levels.  The body holds only the float work that can change
a state: each stage output is one sum of its terms, not seeded with 0.0;
stage states are formed only for the entries some term reads; an entry
that no term moves is read at its start, which the level makes free of
-0.0 once, so that the unseeded sums keep every state's bytes (up to the
sign of a zero state when dt <= 0 or an increment underflows, _rk4_source).
reference_trajectory runs the kernel at k = 0 on the state (a Lifted
system's, on the lifted state), to ORACLE_TOL = 1e-9, moving the entries
its terms target.
ode_to_map runs one step of dt on the compact state of the pruned flow,
the weights that move and the ones their terms read, to MAP_TOL = 1e-11
(_derivation): on the kernel if it has at most _KERNEL_STATEMENTS
statements, else on the same level around a numpy loop (_loop_advance).
Both run the same IEEE operations in the same order, so every map, and
every divergence error, has the same bytes either way.  Free fall at dt
0.1 resolves to 4 substeps, the augmented free fall to 64, Lotka-Volterra
and Rayleigh-Plesset at dt 0.01 to 2 and the pendulum at dt 0.1 to 128.
"""

from __future__ import annotations

import collections
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import basis
from .maps import (TaylorMap, _count, _evaluate, _freeze_blocks, _from_dict, _real,
                   _to_dict, identity_map)

__all__ = [
    "PolynomialODE",
    "Lifted",
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
class Lifted:
    """A non-polynomial system as a polynomial ODE on a lifted state: lift
    maps a physical state X to a state of ode.dim entries that starts with
    X and appends functions of it whose derivatives close the system (sin
    and cos of an angle, 1/x), the polynomialization of Kerner (J. Math.
    Phys. 22 (1981) 1366).  The oracle (reference_trajectory) runs ode from
    lift(X0) and returns the physical columns; called at X, it gives the
    physical dX/dt, the leading entries of ode's right-hand side at lift(X).
    """

    ode: PolynomialODE
    lift: Callable

    def __post_init__(self):
        if not isinstance(self.ode, PolynomialODE) or not callable(self.lift):
            raise ValueError("Lifted needs a PolynomialODE and a callable lift, "
                             f"got {type(self.ode).__name__} and {type(self.lift).__name__}")

    def __call__(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _evaluate(self.ode.stacked, self.ode.order, self.lift(X))[:X.size]


@dataclass(frozen=True)
class FlowConfig:
    """Integration window for ode_to_map: one step of size dt, resolved by
    `substeps` RK4 substeps, or, by default (None), by the substeps step
    doubling chooses to resolve the weights to MAP_TOL (ode_to_map)."""

    dt: float
    substeps: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dt", _real("dt", self.dt))
        if self.substeps is not None:
            object.__setattr__(self, "substeps", _count("substeps", self.substeps, 1))


@functools.lru_cache(maxsize=None)
def _start(n: int, k: int) -> np.ndarray:
    """The read-only ravel of identity_map(n, k), W_1 = I: where every
    derivation starts."""
    return identity_map(n, k).stacked.ravel()


def _pruned_flow(ode: PolynomialODE, k: int) -> tuple[list, list, list]:
    """(terms, moving, kept): the terms of basis._flow_terms(ode, k) that
    can move a weight from the start W_1 = I, on the compact state
    derivations run.

    kept is the sorted weights (indices into the ravel) that those terms
    move or read, terms are re-indexed into kept, and moving is the sorted
    positions in kept of the weights they move.  The weights that can move
    are a least fixed point: starting from the nonzero entries of
    identity_map(n, k), the live weights grow by the targets of the terms
    whose factors are all live, or whose coefficient overflowed to inf,
    until they no longer grow; each round builds only those terms
    (basis._flow_terms with live).  Every other term has a factor that stays
    +0.0, so while the weights are finite it adds an exact +-0.0 to a sum
    that starts at +0.0, which under round-to-nearest never changes the
    sum; dropping those terms keeps the bytes of the full flow.  A weight
    outside kept keeps its start, 1.0 or +0.0, and one in kept that no term
    moves is read at its start.
    """
    live = set(np.flatnonzero(_start(ode.dim, k)).tolist())
    while True:
        terms = [term for term in basis._flow_terms(ode, k, live)
                 if live.issuperset(term[2]) or math.isinf(term[1])]
        moved = {t for t, _, _ in terms} - live
        if not moved:
            break
        live |= moved
    kept = sorted({t for t, _, _ in terms}.union(*(f for _, _, f in terms)))
    at = {w: i for i, w in enumerate(kept)}
    return ([(at[t], c, tuple(at[i] for i in f)) for t, c, f in terms],
            sorted({at[t] for t, _, _ in terms}), kept)


def _weight_flow(ode: PolynomialODE, k: int):
    """dW/dt of the full order-k weight flow (basis._flow_terms) at the
    raveled weights w, no term dropped: the reference the derivations keep
    the bytes of."""
    return basis._term_flow(basis._flow_terms(ode, k), ode.dim * len(basis._columns(ode.dim, k)))


def _loop_advance(terms: list, size: int):
    """level(X, h, H, fine, coarse, steps, known, tol): the numpy engine, the
    generated level (_rk4_source) of a state of size floats whose every run
    is one call of the RK4 substeps of the terms (basis._term_flow) on one
    float64 array.  Nothing is checked in a run: an overflow makes entries
    non-finite for good."""
    rhs = basis._term_flow(terms, size)

    def substeps(X, h, count):
        w, half, sixth = np.array(X, dtype=float), 0.5 * h, h / 6.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(count):  # the stages group as in _rk4_source
                k1 = rhs(w)
                k2 = rhs(w + half * k1)
                k3 = rhs(w + half * k2)
                k4 = rhs(w + h * k3)
                w = w + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return w.tolist()

    return functools.partial(_kernel("loop", size), substeps)


# the relative weight error the default FlowConfig resolves a derivation to
MAP_TOL = 1e-11


def _derivation(ode: PolynomialODE, cfg: FlowConfig) -> tuple:
    """(map, substeps, estimate): ode_to_map's map, the substeps that made
    it and their step-doubling estimate (None for an explicit count).

    The derivation is a one-step trajectory of the compact state of the
    pruned flow (_pruned_flow), gathered from the identity start and run by
    the oracle's runner (_run), under the default to MAP_TOL; the end is
    scattered back into the identity's ravel.  The RK4 engine is the generated float kernel
    (_term_advance) if the kernel has at most _KERNEL_STATEMENTS statements
    (_statements), else the numpy loop (_loop_advance); both give the same
    bytes.  A run that ends non-finite is replayed from the start as one
    level of fine steps of one substep each, which stops at its first
    non-finite substep, to raise that substep's error with the norm of the
    full ravel before it.
    """
    terms, _, kept = plan = _pruned_flow(ode, ode.order)
    level = (_term_advance(terms, len(kept))
             if _statements(plan) <= _KERNEL_STATEMENTS else _loop_advance(terms, len(kept)))
    start = _start(ode.dim, ode.order)

    def ravel(X):
        w = start.copy()
        w[kept] = X
        return w

    def diverged(X, _, fine):
        # a non-finite entry stays non-finite (x + anything), so the run
        # that ended non-finite meets its first non-finite substep here
        h = cfg.dt / fine
        states, s, _ = level(X, h, h, 1, 0, fine, [], MAP_TOL)
        norm, s = math.hypot(*ravel(states[s]).tolist()), s + 1
        return FlowDivergenceError(
            f"weight flow diverged at t={s * h:.6g} of {cfg.dt:.6g} (substep {s}/{fine}; "
            f"last finite weight norm {norm:.6g})", s)

    (_, end), substeps, estimate = _run(
        level, start[kept].tolist(), cfg.dt, 1, cfg.substeps, MAP_TOL, diverged,
        lambda e, n: f"the map derivation's error estimate is {e:.3g} at {n} RK4 "
                     f"substeps, above MAP_TOL {MAP_TOL:g}; pass substeps explicitly")
    w = ravel(end).reshape(ode.dim, -1)
    return TaylorMap(dim=ode.dim, order=ode.order, weights=tuple(
        w[:, s] for s in basis._stacked_exponents(ode.dim, ode.order)[1])), substeps, estimate


def ode_to_map(ode: PolynomialODE, cfg: FlowConfig) -> TaylorMap:
    """Integrate the weight flow over one step of cfg.dt from the unified
    initial condition W_1 = I; returns the order-k Taylor map of the flow.

    An explicit cfg.substeps runs exactly that many RK4 substeps.  The
    default, None, chooses the count by step doubling (_derivation, _run):
    the smallest 2N, N a power of two, whose weights differ from those of N
    substeps by at most 15 * MAP_TOL * max(1, |weight|) in every entry
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4); the map is that of
    substeps=2N, byte for byte.  A run that ends non-finite raises
    FlowDivergenceError (under the default, a 2N run), and a default count
    above 2 ** 16 raises ValueError.
    """
    return _derivation(ode, cfg)[0]


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


def _rk4_source(structure, n: int) -> str:
    """The generated definition of level(C, X, h, H, fine, coarse, steps,
    known, tol) -> (states, stop, estimate): one level of the runner (_run)
    on a state of n floats as straight-line Python (_kernel), holding only
    generated names.

    From the state X, a list, each of the `steps` steps runs `fine` RK4
    substeps of h on the fine state x0..x{n-1} and then `coarse` substeps
    of H on the coarse state z0..z{n-1}, which starts at X too; a step
    below len(known) - 1 runs no coarse substep, the coarse state being
    read from known[step + 1].  Both runs go through one RK4 body on the
    locals x: a run swaps the two states' moving entries (below) after it.
    A step whose fine state is non-finite returns (states, step, estimate)
    before appending it to states; with coarse > 0, the step's estimate e
    = max |x - z| / max(1, |x|) / 15 over the moving entries (nan if a
    coarse entry is not finite) returns (states, step, e) if it is NaN or
    above tol, else the largest e so far is the estimate; after the last
    step (states, steps, estimate) is returned, states holding X and every
    fine state as lists.

    With structure None, C is a callable rhs on lists (_on_lists), a stage
    is one call, [a0, ..., a{n-1}] = C([x0, ..., x{n-1}]), and every entry
    moves.  A structure of terms (target, factors) is unrolled on the
    coefficients C, one per term, unpacked once per call into p0, p1, ...:
    basis._products forms each factor once, and each output is one sum
    p<j> * m + ... of its terms in term order (one statement per 64 terms,
    as maps._slot_lines adds a row).  p<j> * m with p<j> a float local is
    the IEEE product with that float's literal, so one kernel serves every
    set of coefficients, inf included.  Only the targets of the terms move,
    getting stage outputs and a final combination, and of those only the
    ones that some term reads get stage states y between stages; the
    others are read at their start.  With structure "loop", C is the numpy
    loop's substeps(X, h, count) (_loop_advance), one call per run, and
    every entry moves.  The oracle unrolls a PolynomialODE's
    basis._flow_terms(ode, 0), whose factors are its monomials
    (basis._columns); a derivation unrolls _pruned_flow's terms on its
    compact state, one ODE per kernel.

    A sum seeded with 0.0, as the numpy loop's scatter is, differs from
    the unseeded one only where the sum is -0.0 (the seed makes it +0.0),
    and that sign reaches a state only through x + h * k with x itself
    -0.0.  So a structure of terms starts its locals from [v + 0.0 for v
    in X], which leaves no -0.0 in any state after X (x + y is -0.0 only
    if both are), while states[0] stays X itself.  From a start without
    -0.0, a derivation's among them, the stages then run the numpy loop's
    IEEE operations on the same terms and give its bytes, which are those
    of the full flow _weight_flow(ode, k), and the stages combine as there;
    from a -0.0 too while h > 0, whose first seeded update x + h * +0.0
    made it +0.0.  With h <= 0, or increments that underflow to -0.0, the
    seeded sums kept a start's -0.0 where its entry did not move; here it
    is +0.0, an equal value.  PolynomialODE.rhs adds the same products in
    column order, zeros too: on finite states the oracle's values.
    """
    unrolled = structure is not None and structure != "loop"
    moving = sorted({t for t, _ in structure}) if unrolled else range(n)

    def stage(out, state):
        # dX/dt at the variables named in state, into out<i> for i in moving
        if structure is None:
            return [f"[{', '.join(f'{out}{i}' for i in range(n))}] = C([{', '.join(state)}])"]
        lines, names = basis._products(state, [f for _, f in structure])
        sums = {i: [] for i in moving}
        for j, (o, f) in enumerate(structure):
            sums[o].append(f"p{j} * {names[f]}")
        for i, products in sums.items():
            # one expression of thousands of terms overflows the compiler's
            # recursion limit on some CPython versions
            lines += [f"{out}{i} = {f'{out}{i} + ' if c else ''}{' + '.join(products[c:c + 64])}"
                      for c in range(0, len(products), 64)]
        return lines

    x, z = [f"x{i}" for i in range(n)], [f"z{i}" for i in range(n)]
    xm, zm = [x[i] for i in moving], [z[i] for i in moving]
    if structure == "loop":
        run = [f"[{', '.join(x)}] = C([{', '.join(x)}], step, count)"]
    else:
        read = {i for _, f in structure for i in f} if unrolled else set(range(n))
        staged = [i for i in moving if i in read]
        y = [f"y{i}" if i in staged else v for i, v in enumerate(x)]

        def update(step, k):
            return [f"y{i} = x{i} + {step} * {k}{i}" for i in staged]

        body = (stage("a", x) + update("half", "a") + stage("b", y) + update("half", "b")
                + stage("c", y) + update("step", "c") + stage("d", y)
                + [f"x{i} = x{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"
                   for i in moving])
        run = ["for _ in range(count):", *(f"    {line}" for line in body or ["pass"])]

    def finite(names):
        return " and ".join(f"isfinite({v})" for v in names) or "True"

    errors = [f"abs({a} - {b}) / max(1.0, abs({a}))" for a, b in zip(xm, zm)]
    error = f"max({', '.join(errors)})" if len(errors) > 1 else "".join(errors) or "0.0"
    return "\n".join([
        "def level(C, X, h, H, fine, coarse, steps, known, tol):",
        *([f"    [{', '.join(f'p{j}' for j in range(len(structure)))}] = C"] if unrolled else []),
        "    both = (fine, h, 0.5 * h, h / 6.0), (coarse, H, 0.5 * H, H / 6.0)",
        "    alone = both[0], (0, H, 0.5 * H, H / 6.0)",
        "    states, estimate, resumed = [X], 0.0, len(known) - 1",
        f"    [{', '.join(x)}] = [{', '.join(z)}] = {'[v + 0.0 for v in X]' if unrolled else 'X'}",
        "    for s in range(steps):",
        "        runs = both",
        "        if s < resumed:",
        f"            [{', '.join(z)}] = known[s + 1]",
        "            runs = alone",
        "        for count, step, half, sixth in runs:",
        *(f"            {line}" for line in run),
        f"            [{', '.join(xm + zm)}] = [{', '.join(zm + xm)}]",
        f"        if not ({finite(xm)}):",
        "            return states, s, estimate",
        f"        states.append([{', '.join(x)}])",
        "        if coarse:",
        f"            e = {error} / 15.0 if {finite(zm)} else nan",
        "            if not e <= tol:",
        "                return states, s, e",
        "            estimate = max(estimate, e)",
        "    return states, steps, estimate",
    ])


# compiled kernels kept at once: a kernel serves every ODE of its term
# structure, and the ones at hand (a ring's element kinds, the members of a
# fit's family, the oracles) are few; the bound caps what a stream of new
# structures holds
@functools.lru_cache(maxsize=64)
def _kernel(structure, n: int):
    """level(C, X, h, H, fine, coarse, steps, known, tol): _rk4_source(
    structure, n) compiled, once per term structure."""
    return basis._compiled(_rk4_source(structure, n),
                           f"<RK4 substeps of a dim-{n} ODE>", "level",
                           isfinite=math.isfinite, nan=math.nan)


def _term_advance(rhs, n: int):
    """level(X, h, H, fine, coarse, steps, known, tol): one level of RK4
    runs of dX/dt = rhs, a term list or a callable, on a state of n floats
    (_rk4_source): the cached kernel (_kernel) of the terms' structure
    bound to their coefficients, moving the entries the terms target, or
    that of a callable bound to it, moving every entry.  It serves the
    oracle's trajectories (X the state) and derivations (X the compact
    state of _pruned_flow), where it gives the numpy loop's bytes."""
    if callable(rhs):
        return functools.partial(_kernel(None, n), _on_lists(rhs))
    return functools.partial(_kernel(tuple((t, f) for t, _, f in rhs), n),
                             [c for _, c, _ in rhs])


def _statements(plan: tuple) -> int:
    """S, the newlines of the level _rk4_source generates for plan (terms,
    moving, kept), one fewer than its lines, counted without generating it:
    an RK4 body of 4 stages of one line per product and per 64 terms of
    each moving weight, 3 updates of one line per moving weight that a term
    reads and the final combination of one line per moving weight (or one
    pass if nothing moves), and 23 lines around it, the unpacking of the
    coefficients among them."""
    terms, moving, kept = plan
    products, _ = basis._products([f"x{i}" for i in range(len(kept))], [f for _, _, f in terms])
    sums = sum(-(-c // 64) for c in collections.Counter(t for t, _, _ in terms).values())
    read = {i for _, _, f in terms for i in f}
    return (4 * (len(products) + sums) + 3 * len(read.intersection(moving)) + len(moving)
            or 1) + 22


# the most statements (_statements) a derivation's kernel may have; larger
# plans run on the numpy loop.  A kernel substep costs 25-60 ns per
# statement of its RK4 body, a line of a sum holding up to 64 terms, and a
# numpy loop substep 15-35 us, so the two cross at about 650 statements on
# random flows of 2 to 4 variables and orders 2 and 3 (2 vCPUs, Python
# 3.11, numpy 2.4; CHANGES.md); the 23 lines around the body run at most
# twice per step.  The built-in flows and ring elements have 32-218
_KERNEL_STATEMENTS = 650


# the relative error the default reference_trajectory resolves its steps to
ORACLE_TOL = 1e-9
# the most RK4 substeps per step the default tries before it gives up
_MAX_SUBSTEPS = 2 ** 16


def _run(level, X: list, dt: float, steps: int, substeps: int | None, tol: float,
         diverged, capped) -> tuple:
    """(states, substeps, estimate): the states of `steps` steps of dt from
    the state X, a list of floats, by the RK4 engine level(X, h, H, fine,
    coarse, steps, known, tol) (_rk4_source), the substeps per step that
    made them and their step-doubling error estimate (None for an explicit
    count): the one runner of trajectories and derivations.

    An explicit count is one level of `substeps` substeps per step and no
    coarse run.  The default, None, runs levels of a fine run of 2N and a
    coarse run of N substeps per step in lockstep from N = 1, the estimate
    being the largest |fine - coarse| / 15 / max(1, |fine|) over the
    entries so far.  A level stops at its first step whose estimate
    exceeds tol or is NaN (a non-finite coarse state) and N doubles, the
    states its fine run reached (known) being the coarse states of the
    next level; the fine run of the first level that completes is
    returned, the states of substeps=2N byte for byte.  Beyond
    _MAX_SUBSTEPS the ValueError capped(estimate, 2N) is raised.  A fine
    step s (from 0) that ends non-finite raises diverged(the state before
    it, s, its substeps).  np.errstate is entered once per level: numpy in
    a callable overflows to inf, as the generated products do.
    """
    fine, known = substeps or 2, []
    while True:
        coarse = 0 if substeps else fine // 2
        with np.errstate(over="ignore", invalid="ignore"):
            states, stop, estimate = level(X, dt / fine, dt / (coarse or 1), fine, coarse,
                                           steps, known, tol)
        if stop == steps:
            return states, fine, estimate if coarse else None
        if len(states) == stop + 1:  # the fine state of step stop is not finite
            raise diverged(states[stop], stop, fine)
        if 2 * fine > _MAX_SUBSTEPS:
            raise ValueError(capped(estimate, fine))
        fine, known = 2 * fine, states


def _lifted_start(system: Lifted, X: np.ndarray) -> np.ndarray:
    """system.lift(X), checked: a finite vector of system.ode.dim floats
    that starts with X byte for byte; else a ValueError naming the lift."""
    name = getattr(system.lift, "__qualname__", repr(system.lift))
    Z = np.asarray(system.lift(X.copy()), dtype=float)
    if Z.shape != (system.ode.dim,):
        problem = f"has shape {Z.shape}, not ({system.ode.dim},) of the lifted ODE"
    elif not np.isfinite(Z).all():
        problem = "is not finite"
    elif Z[:X.size].tobytes() != X.tobytes():
        problem = "does not start with X0"
    else:
        return Z
    raise ValueError(f"lift {name} maps X0 {X.tolist()} to {Z.tolist()}, which {problem}")


def _reference(ode, X0, dt: float, steps: int, substeps: int | None = None):
    """(states, substeps, estimate): reference_trajectory's states, the
    substeps per step that made them and their step-doubling error estimate
    (None for an explicit count), run to ORACLE_TOL by the one runner
    (_run).  A PolynomialODE runs on its terms' cached kernel, a Lifted
    system on its ODE's from the checked lift of X0 (_lifted_start), its
    estimate taken over the lifted state; a callable runs one call per
    stage.  On a kernel an entry with no terms is held at its start (+0.0
    for a -0.0, _rk4_source) and enters neither the finite check nor the
    estimate, to which it added an error of exactly 0."""
    X = np.asarray(X0, dtype=float)
    if X.ndim != 1:
        raise ValueError(f"X0 must be a vector, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"X0 must be finite, got {X.tolist()}")
    dt = _real("dt", dt)
    steps = _count("steps", steps, 0)
    if substeps is not None:
        substeps = _count("substeps", substeps, 1)
    Z = X
    if isinstance(ode, Lifted):
        Z, ode = _lifted_start(ode, X), ode.ode
    if isinstance(ode, PolynomialODE) and Z.shape != (ode.dim,):
        raise ValueError(f"X0 has shape {X.shape}, ODE has dim {ode.dim}")
    rhs = basis._flow_terms(ode, 0) if isinstance(ode, PolynomialODE) else ode
    level = _term_advance(rhs, Z.size)

    def diverged(Y, s, _):
        return FlowDivergenceError(
            f"trajectory diverged at t={(s + 1) * dt:.6g} (step {s + 1}/{steps}; "
            f"last finite state norm {math.hypot(*Y[:X.size]):.6g})", s + 1)

    states, substeps, estimate = _run(
        level, Z.tolist(), dt, steps, substeps, ORACLE_TOL, diverged,
        lambda e, n: f"the reference trajectory's error estimate is {e:.3g} at {n} RK4 "
                     f"substeps per step, above ORACLE_TOL {ORACLE_TOL:g}; "
                     "pass substeps explicitly")
    return np.array([Y[:X.size] for Y in states]), substeps, estimate


def reference_trajectory(ode, X0, dt: float, steps: int, substeps: int | None = None
                         ) -> np.ndarray:
    """RK4, the package's one trajectory integrator.

    Returns the states at t = 0, dt, ..., steps*dt, shape (steps+1, n), each
    dt resolved by the same number of RK4 substeps, every step of a level
    of step doubling in one call of a generated function (_term_advance).
    An explicit `substeps` runs exactly that many.  The
    default, None, chooses the count by step doubling (_run): the
    smallest 2N, N a power of two, whose run differs from the run of N
    substeps by at most 15 * ORACLE_TOL * max(1, |state|) in every entry
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4); the result is that of
    substeps=2N, byte for byte.  `ode` is a PolynomialODE, run on its
    terms' generated kernel; a Lifted, whose ODE runs on its kernel from
    lift(X0), which must be finite, of the ODE's dim and start with X0 byte
    for byte (else a ValueError naming the lift), the states being the
    leading len(X0) columns and the estimate covering the lifted entries;
    or any callable X -> dX/dt on arrays that returns one float per state
    entry, called once per RK4 stage.  The state is
    a list of Python floats between steps: per element these are the same
    IEEE operations numpy would run, without its per-call cost on a handful
    of entries; like numpy's, they overflow to inf and never raise.  The
    first step that ends non-finite raises FlowDivergenceError (under the
    default, a step of a 2N run; a non-finite N run only doubles N), and a
    default count above 2 ** 16 raises ValueError, as does a non-finite X0.
    """
    return _reference(ode, X0, dt, steps, substeps)[0]
