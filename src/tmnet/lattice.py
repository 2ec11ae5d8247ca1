"""Rings of per-element Taylor maps: tracking, tunes, and fine-tuning.

A lattice is an ordered chain of elements on the transverse state
(x, x', y, y'), closed into a ring.  Monitors at element boundaries read the
positions (x, y) only; velocities stay latent.  Supported workflows: one turn
of monitor observations, multi-turn tracking, main-frequency (tune)
estimation from turn series, perturbing a single element's strength, and
per-element fine-tuning of an assumed model from one turn of monitor readings.

Tracking runs block by block: each block is one forward pass of the network
layer chain, the elements repeated for as many turns as fit a fixed slot
budget, and the next block starts from the last state of the one before.
Its states equal element-by-element TaylorMap.apply bit for bit.
"""

from dataclasses import dataclass, replace

import numpy as np

from tmnet import basis, maps, network, ode

STATE = ("x", "xp", "y", "yp")
_FORCE_ROWS = (1, 3)
_POSITIONS = (0, 2)


@dataclass(frozen=True)
class LatticeElement:
    """One ring element: its map, and (when built from an ODE) the generating
    system and integration window, kept so the element can be rebuilt with a
    rescaled strength."""

    label: str
    tm: maps.TaylorMap
    generator: ode.PolynomialODE | None = None
    dt: float | None = None
    substeps: int | None = None

    def __post_init__(self):
        if self.tm.dim != 4:
            raise ValueError(f"lattice elements are 4-dimensional, got dim {self.tm.dim}")
        if (self.generator is None) != (self.dt is None):
            raise ValueError("generator and dt must be given together")
        if self.generator is not None:
            if self.generator.dim != 4:
                raise ValueError("generator dimension must be 4")
            # the window perturb_element re-derives the map over, which a
            # lattice file stores: an explicit count, not FlowConfig's default
            ode.FlowConfig(self.dt, maps._count("substeps", self.substeps, 1))


def element_from_ode(
    label: str, system: ode.PolynomialODE, dt: float, substeps: int = 1000
) -> LatticeElement:
    tm = ode.ode_to_map(system, ode.FlowConfig(dt, substeps=substeps))
    return LatticeElement(label=label, tm=tm, generator=system, dt=dt,
                          substeps=substeps)


def _quad_ode(k: float) -> ode.PolynomialODE:
    P = [np.zeros((4, basis.basis_size(4, d))) for d in range(3)]
    P[1][0, 1] = P[1][2, 3] = 1.0
    P[1][1, 0], P[1][3, 2] = -k, k
    return ode.PolynomialODE(4, 2, tuple(P))


def quad_element(label: str, k: float, dt: float, substeps: int = 1000) -> LatticeElement:
    """Order-2 Hill-type quadrupole: x'' = -k x, y'' = +k y (k > 0 focuses in x)."""
    return element_from_ode(label, _quad_ode(k), dt, substeps)


def _sextupole_ode(k2: float) -> ode.PolynomialODE:
    P = [np.zeros((4, basis.basis_size(4, d))) for d in range(3)]
    P[1][0, 1] = P[1][2, 3] = 1.0
    P[2][1, basis.position(4, 2, (2, 0, 0, 0))] = -0.5 * k2
    P[2][1, basis.position(4, 2, (0, 0, 2, 0))] = 0.5 * k2
    P[2][3, basis.position(4, 2, (1, 0, 1, 0))] = k2
    return ode.PolynomialODE(4, 2, tuple(P))


def sextupole_element(label: str, k2: float, dt: float, substeps: int = 1000) -> LatticeElement:
    """Weak sextupole: x'' = -k2/2 (x^2 - y^2), y'' = +k2 x y."""
    return element_from_ode(label, _sextupole_ode(k2), dt, substeps)


def rotation_element(label: str, qx: float, qy: float) -> LatticeElement:
    """Map-only order-2 element rotating each plane by 2*pi*q."""
    W1 = np.zeros((4, 4))
    for q, sl in ((qx, slice(0, 2)), (qy, slice(2, 4))):
        th = 2.0 * np.pi * q
        W1[sl, sl] = [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]
    ws = [np.zeros((4, basis.basis_size(4, d))) for d in range(3)]
    ws[1] = W1
    tm = maps.TaylorMap(dim=4, order=2, weights=tuple(ws))
    return LatticeElement(label=label, tm=tm)


@dataclass
class Lattice:
    """Element chain with monitor boundaries; ring=True closes the chain."""

    elements: list[LatticeElement]
    monitors: tuple[int, ...]
    ring: bool = True

    def __post_init__(self):
        if not self.elements:
            raise ValueError("lattice needs at least one element")
        order = self.elements[0].tm.order
        for e in self.elements:
            if e.tm.order != order:
                raise ValueError("all elements must share one map order")
        self.monitors = network._check_boundaries("monitors", self.monitors,
                                                  len(self.elements))

    @property
    def order(self) -> int:
        return self.elements[0].tm.order

    @property
    def n_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class TurnSeries:
    """End-of-ring states for turns 1..n, shape (n, 4)."""

    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 4:
            raise ValueError(f"states must have shape (n, 4), got {states.shape}")
        if not np.all(np.isfinite(states)):
            raise ValueError("turn series contains non-finite entries")
        object.__setattr__(self, "states", states)

    @property
    def n_turns(self) -> int:
        return self.states.shape[0]


# the slots one block of tracking chains at most, which bounds its states
# (about 200 KB of float lists in 4-D); a block takes at least one turn
_BLOCK_SLOTS = 1024


def _track(lat: Lattice, X0, n_turns: int, name_turns: bool):
    """Every element-boundary state of n_turns passes through lat, block by
    block: each block is one forward pass of a chain that repeats the
    elements for up to _BLOCK_SLOTS slots, and yields its boundary states,
    shape (turns * n_elements + 1, 4), row 0 being the block's start and
    every n_elements-th row a turn's end.  The next block starts from the
    last.  A divergence names the element index and its label, after the
    turn counted from the start of tracking if name_turns."""
    n = lat.n_elements
    per_block = max(1, _BLOCK_SLOTS // n)
    net = to_network(lat)
    weights, X, chain = network._weight_rows(network._stack(net)), network._start(net, X0), None
    for first in range(0, n_turns, per_block):
        turns = min(per_block, n_turns - first)
        if chain is None or chain.n_layers != turns * n:
            chain = replace(net, layer_groups=net.layer_groups * turns)
        try:
            states = network._forward_states(chain, weights, X)
        except ode.FlowDivergenceError as exc:
            turn, j = divmod(exc.layer - 1, n)
            message = f"tracking diverged in element {j} ({lat.elements[j].label!r})"
            if name_turns:
                message = f"turn {first + turn + 1}: {message}"
            raise ode.FlowDivergenceError(message, j + 1) from None
        yield network._array(states, 4)
        X, states = states[-1], None  # one block's lists alive at a time


def observe_one_turn(lat: Lattice, X0) -> network.ObservationSeries:
    """One turn of monitor data as a training series: positions observed,
    velocities masked out."""
    states = next(_track(lat, X0, 1, False))
    mask = np.zeros((len(lat.monitors), 4), dtype=bool)
    mask[:, list(_POSITIONS)] = True
    return network.ObservationSeries(
        taps=lat.monitors, values=states[list(lat.monitors)], mask=mask
    )


def one_turn_map(lat: Lattice) -> maps.TaylorMap:
    """All elements composed, truncated at the lattice order."""
    tm = lat.elements[0].tm
    for e in lat.elements[1:]:
        tm = maps.compose(e.tm, tm, k=lat.order)
    return tm


def multi_turn(lat: Lattice, X0, n_turns: int) -> TurnSeries:
    """Track n_turns revolutions; turn i+1 starts from turn i's end state.

    The turns run block by block, each block one chained forward pass, so
    memory stays bounded for any n_turns; the states equal element-by-element
    TaylorMap.apply bit for bit."""
    if not lat.ring:
        raise ValueError("multi-turn tracking needs a ring lattice")
    n_turns = maps._count("n_turns", n_turns, 1)
    n = lat.n_elements
    out = np.empty((n_turns, 4))
    done = 0
    for states in _track(lat, X0, n_turns, True):
        ends = states[n::n]
        out[done:done + len(ends)] = ends
        done += len(ends)
    return TurnSeries(states=out)


# --- tune estimation ---------------------------------------------------------


@dataclass(frozen=True)
class TuneEstimate:
    """Dominant normalized frequency per plane, folded into [0, 0.5];
    degenerate flags mark zero-variance (constant) signals."""

    qx: float
    qy: float
    degenerate_x: bool
    degenerate_y: bool


def estimate_tune(signal) -> tuple[float, bool]:
    """Main frequency of one signal in cycles per sample, in [0, 0.5].

    Mean-subtracted, Hann-windowed discrete Fourier magnitude with parabolic
    interpolation around the peak bin.  A constant signal returns (0.0, True).
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {x.shape}")
    N = x.size
    if N < 64:
        raise ValueError(f"tune estimation needs >= 64 samples, got {N}")
    if not np.all(np.isfinite(x)):
        raise ValueError("tune estimation needs finite samples")
    mean = x.mean()
    x = x - mean
    scale = np.max(np.abs(x))
    if scale <= 1e-15 * max(1.0, abs(mean)):
        return 0.0, True
    mags = np.abs(np.fft.rfft(x * np.hanning(N)))
    k = int(np.argmax(mags[1:])) + 1
    if 1 <= k < len(mags) - 1:
        a, b, c = mags[k - 1], mags[k], mags[k + 1]
        denom = a - 2.0 * b + c
        delta = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    q = (k + delta) / N
    q = min(q, 1.0 - q)
    return float(q), False


def estimate_tunes(series: TurnSeries) -> TuneEstimate:
    """Per-plane tunes from a TurnSeries."""
    qx, dx = estimate_tune(series.states[:, 0])
    qy, dy = estimate_tune(series.states[:, 2])
    return TuneEstimate(qx=qx, qy=qy, degenerate_x=dx, degenerate_y=dy)


def linear_tunes(lat: Lattice) -> tuple[float, float]:
    """Tunes of the composed one-turn linear block, acos(trace/2)/2pi per
    plane; raises for unstable (|trace| > 2) motion."""
    W1 = one_turn_map(lat).weights[1]
    out = []
    for name, sl in (("horizontal", slice(0, 2)), ("vertical", slice(2, 4))):
        tr = float(np.trace(W1[sl, sl]))
        if abs(tr) > 2.0:
            raise ValueError(f"{name} motion is unstable: |trace| = {abs(tr):.4f} > 2")
        out.append(float(np.arccos(tr / 2.0) / (2.0 * np.pi)))
    return out[0], out[1]


# --- perturbation and fine-tuning ------------------------------------------------


def perturb_element(lat: Lattice, index: int, factor: float) -> Lattice:
    """Scale one element's strength by `factor` and rebuild its map.

    Elements with a generating ODE have the force rows (x'', y'') of every
    coefficient block scaled and the map re-derived from the rescaled flow;
    map-only elements have the linear focusing entries W_1[x'<-x], W_1[y'<-y]
    scaled directly.
    """
    if maps._count("index", index, 0) >= lat.n_elements:
        raise ValueError(f"element index {index} out of range [0, {lat.n_elements})")
    if maps._real("factor", factor) <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    e = lat.elements[index]
    if e.generator is not None:
        coeffs = [c.copy() for c in e.generator.coeffs]
        for c in coeffs:
            c[list(_FORCE_ROWS)] *= factor
        gen = ode.PolynomialODE(4, e.generator.order, tuple(coeffs))
        new = element_from_ode(e.label, gen, e.dt, e.substeps)
    else:
        ws = [w.copy() for w in e.tm.weights]
        ws[1][1, 0] *= factor
        ws[1][3, 2] *= factor
        new = replace(e, tm=maps.TaylorMap(dim=4, order=e.tm.order, weights=tuple(ws)))
    elements = list(lat.elements)
    elements[index] = new
    return Lattice(elements=elements, monitors=lat.monitors, ring=lat.ring)


def to_network(lat: Lattice) -> network.Network:
    """The lattice as an untied layer chain, one slot per element."""
    return network.Network(group_maps=[e.tm for e in lat.elements],
                           layer_groups=tuple(range(lat.n_elements)))


def fine_tune(
    lat: Lattice,
    X0,
    obs: network.ObservationSeries,
    cfg: network.TrainConfig,
) -> tuple[Lattice, network.LossReport]:
    """Per-element training of the assumed lattice against one turn of
    monitor readings; returns the tuned lattice and the loss history.

    Observation taps must be monitors.  Tuned elements drop their generator
    link: their maps no longer derive from the original flow.
    """
    foreign = sorted(set(obs.taps) - set(lat.monitors))
    if foreign:
        raise ValueError(f"observation taps {foreign} are not monitors {lat.monitors}")
    net = to_network(lat)
    trained, report = network.train_one_shot(net, X0, obs, cfg)
    elements = [
        LatticeElement(label=e.label, tm=tm)
        for e, tm in zip(lat.elements, trained.group_maps)
    ]
    return Lattice(elements=elements, monitors=lat.monitors, ring=lat.ring), report


# --- the desk-scale demonstration ring ---------------------------------------------


def drift_element(label: str, dt: float, substeps: int = 1000) -> LatticeElement:
    return quad_element(label, 0.0, dt, substeps=substeps)


# the desk ring's quadrupole strengths (focusing, defocusing), sextupole strength, element length
_KF, _KD, _K2, _LENGTH = 0.40, 0.45, 0.05, 1.0


def build_fodo_ring(substeps: int = 1000) -> Lattice:
    """Two focusing/drift/defocusing/drift cells plus one weak sextupole
    (nine symplectic elements), monitored at every boundary.

    The ring is stable in both planes with distinct tunes and stays stable
    when any single element's strength is scaled by 0.8.  Each of the four
    distinct elements is derived once (element_from_ode) and reused under
    its labels.
    """
    gens = [_quad_ode(_KF), _quad_ode(-_KD), _quad_ode(0.0), _sextupole_ode(_K2)]
    qf, qd, drift, sx = (element_from_ode(label, g, _LENGTH, substeps)
                         for label, g in zip(("qf", "qd", "o", "sx1"), gens))
    elements = []
    for i in range(2):
        elements += [replace(qf, label=f"qf{i + 1}"), replace(drift, label=f"o{2 * i + 1}"),
                     replace(qd, label=f"qd{i + 1}"), replace(drift, label=f"o{2 * i + 2}")]
    elements.append(sx)
    return Lattice(elements=elements, monitors=tuple(range(1, len(elements) + 1)), ring=True)
