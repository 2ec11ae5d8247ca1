"""Unrolled chains of Taylor-map layers with one-shot fine-tuning.

A network is a sequence of layer slots, each bound to a weight group; slots in
the same group share one TaylorMap.  Selected slot boundaries ("taps") emit
their states as outputs, so a single initial state unrolls into a predicted
time series.  Observations may cover only some taps and some components (for
a physical pendulum, angles are measured while angular velocities stay
latent); the loss is the mean squared error over the observed entries plus a
symplectic penalty summed over the distinct weight groups.  Every layer
evaluation, in the rolled-out chain and the teacher-forced residual alike, is
one product of its map's stacked (dim, N) weights with the state's monomials.
A pass checks its states once, after the last slot; a divergence names the
first non-finite layer and the norm of the last finite state.

Gradients are exact: reverse accumulation through the layer Jacobians, with
per-slot weight gradients summed within each sharing group, plus the analytic
penalty gradient.  Training is deterministic full-batch Adam on the single
observed series, with global gradient-norm clipping.  It runs on one stacked
(groups, dim, N) array W, W[g] being group g's stacked matrix; gradients and
Adam's moments share that layout, and TaylorMaps are built from it only at
checkpoints and at the end.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from tmnet import basis, maps
from tmnet.ode import FlowDivergenceError, _count


class TrainingDivergedError(RuntimeError):
    """Raised when training diverges: a non-finite state, loss or gradient
    norm; carries the epoch."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


def _check_boundaries(name: str, bounds, last: float = math.inf) -> tuple[int, ...]:
    """bounds as a tuple of ints if they are 1-based slot boundaries:
    integers in [1, last], strictly increasing; else a ValueError naming
    the field."""
    bounds = tuple(_count(name, b, 1) for b in bounds)
    if any(b > last for b in bounds):
        raise ValueError(f"{name} must lie in [1, {last}], got {bounds}")
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {bounds}")
    return bounds


@dataclass(frozen=True)
class ObservationSeries:
    """Partial observations of a tapped trajectory.

    values[r] holds the observation at taps[r]; mask[r, c] marks component c
    as observed there.  Unobserved entries carry no value and are stored as
    NaN.
    """

    taps: tuple[int, ...]
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        taps = _check_boundaries("taps", self.taps)
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
        if len(taps) != values.shape[0]:
            raise ValueError(f"{len(taps)} taps for {values.shape[0]} value rows")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("observed entries must be finite")
        values = np.where(mask, values, np.nan)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def observed_count(self) -> int:
        return int(self.mask.sum())


@dataclass
class Network:
    """A chain of Taylor-map layers with weight sharing and output taps.

    layer_groups[j] names the weight group of slot j (0-based slots); all
    slots with the same group index evaluate the identical group_maps entry.
    taps are 1-based boundaries: tap t emits the state after slot t-1.
    """

    dim: int
    order: int
    group_maps: list[maps.TaylorMap]
    layer_groups: tuple[int, ...]
    taps: tuple[int, ...]

    def __post_init__(self):
        self.layer_groups = tuple(int(g) for g in self.layer_groups)
        if not self.layer_groups:
            raise ValueError("network needs at least one layer")
        used = set(self.layer_groups)
        if used != set(range(len(self.group_maps))):
            raise ValueError(
                f"layer groups {sorted(used)} must cover group maps "
                f"0..{len(self.group_maps) - 1} exactly"
            )
        for g, tm in enumerate(self.group_maps):
            if tm.dim != self.dim or tm.order != self.order:
                raise ValueError(
                    f"group {g} map is (dim={tm.dim}, order={tm.order}), "
                    f"network is (dim={self.dim}, order={self.order})"
                )
        self.taps = _check_boundaries("taps", self.taps, len(self.layer_groups))

    @property
    def n_layers(self) -> int:
        return len(self.layer_groups)


def build_shared_chain(tm: maps.TaylorMap, length: int, taps=None) -> Network:
    """A length-layer chain sharing one weight group; taps default to every
    boundary 1..length."""
    length = _count("length", length, 1)
    if taps is None:
        taps = tuple(range(1, length + 1))
    return Network(
        dim=tm.dim,
        order=tm.order,
        group_maps=[tm],
        layer_groups=(0,) * length,
        taps=tuple(taps),
    )


def _stack(net: Network) -> np.ndarray:
    """The group maps' stacked matrices as one (groups, dim, N) array."""
    return np.stack([tm.stacked for tm in net.group_maps])


def _group_maps(net: Network, W) -> list[maps.TaylorMap]:
    """One TaylorMap per group of the stacked weights W, copied out of W."""
    _, sl = basis._stacked_exponents(net.dim, net.order)
    return [maps.TaylorMap(dim=net.dim, order=net.order, weights=tuple(w[:, s] for s in sl))
            for w in W]


def _forward_states(net: Network, W, X0):
    """Every slot boundary state, shape (n_layers + 1, dim), and the
    monomials of degrees 0..order of each slot's input state, shape
    (n_layers, N), both evaluated once per slot with the group weights W."""
    X = np.asarray(X0, dtype=float)
    if X.shape != (net.dim,) or not np.isfinite(X).all():
        raise ValueError(f"X0 must be finite with shape ({net.dim},), got {X.tolist()}")
    states = np.empty((net.n_layers + 1, net.dim))
    powers = np.empty((net.n_layers, W.shape[-1]))
    states[0] = X
    # overflow here means divergence, which is detected and raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for j, g in enumerate(net.layer_groups):
            powers[j] = basis.monomials(states[j], net.order)
            states[j + 1] = W[g] @ powers[j]
        finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite)) + 1
        # hypot does not overflow where the squares of a state near the limit would
        raise FlowDivergenceError(f"network state diverged at layer {j} (last finite "
                                  f"state norm {math.hypot(*states[j - 1]):.6g})", j)
    return states, powers


def forward(net: Network, X0) -> np.ndarray:
    """Tapped states for one initial condition, shape (len(taps), dim)."""
    states, _ = _forward_states(net, _stack(net), X0)
    return states[list(net.taps)]


def predict_trajectory(net: Network, X0, components=None) -> np.ndarray:
    """Forward pass projected onto the requested components (default: all)."""
    out = forward(net, X0)
    if components is None:
        return out
    return out[:, list(components)]


def _check_observations(net: Network, obs: ObservationSeries) -> None:
    tap_set = set(net.taps)
    for t in obs.taps:
        if t not in tap_set:
            raise ValueError(f"observation tap {t} is not a network tap")
    if obs.values.shape[1] != net.dim:
        raise ValueError(
            f"observations have {obs.values.shape[1]} components, network dim is {net.dim}"
        )
    if obs.observed_count == 0:
        raise ValueError("observation series has no observed entries")


def _data_term(net: Network, W, X0, obs: ObservationSeries):
    """Forward pass and masked mean squared error over the observed entries.

    Returns (states, powers, data, seeds) where states and powers come from
    _forward_states and seeds[t] is the data gradient on the state at slot
    boundary t (zero away from the observed entries).
    """
    _check_observations(net, obs)
    states, powers = _forward_states(net, W, X0)
    n_obs = obs.observed_count
    taps = list(obs.taps)
    diff = np.where(obs.mask, states[taps] - obs.values, 0.0)
    seeds = np.zeros_like(states)
    seeds[taps] = 2.0 * diff / n_obs
    data = sum(np.einsum("ij,ij->i", diff, diff).tolist()) / n_obs
    return states, powers, data, seeds


def _with_penalty(data: float, grads, W, n: int, k: int, penalty_rate: float):
    """Add the symplectic penalty of the stacked group weights W to a data term.

    grads is the data gradient, shaped like W, or None when only the loss
    triple (total, data, penalty) is wanted; otherwise returns (grads,
    triple) with penalty_rate times the penalty gradient added in place.
    Odd-dimensional states carry no conjugate-pair structure; their penalty
    is defined as zero.
    """
    penalty = 0.0
    if n % 2 == 0:
        want = grads is not None and penalty_rate != 0.0
        _, per_group, penalty_grads = maps._residual_penalty(W, k, want)
        penalty = sum(per_group.tolist())
        if want:
            grads += penalty_rate * penalty_grads
    triple = (data + penalty_rate * penalty, data, penalty)
    return triple if grads is None else (grads, triple)


def loss(net: Network, X0, obs: ObservationSeries, penalty_rate: float):
    """(total, data, penalty): masked mean squared error over observed
    entries plus penalty_rate times the summed group penalties."""
    W = _stack(net)
    _, _, data, _ = _data_term(net, W, X0, obs)
    return _with_penalty(data, None, W, net.dim, net.order, penalty_rate)


def backward(net: Network, W, X0, obs: ObservationSeries, penalty_rate: float):
    """Analytic loss gradient in the group weights W, plus the loss triple.

    Returns (grads, (total, data, penalty)) where grads has W's shape
    (groups, dim, N); degree d is the column slice [..., sl[d]] with sl from
    basis._stacked_exponents.  Only the adjoint recursion runs slot by slot;
    the slot Jacobians are one batched product over all slots and the weight
    gradients one per degree.
    """
    states, powers, data, seeds = _data_term(net, W, X0, obs)
    n, G = net.dim, W.shape[0]
    _, sl = basis._stacked_exponents(n, net.order)
    slot = np.array(net.layer_groups)
    # overflow here means divergence, which the caller detects from the
    # non-finite gradient norm
    with np.errstate(over="ignore", invalid="ignore"):
        # each group's Jacobian series, then every slot's Jacobian at its
        # input state as one product with the monomials of degrees 0..order-1
        series = np.concatenate(
            maps._jacobian_series([W[..., s] for s in sl], n, net.order), -1)
        M = series.shape[-1]
        jac = (series[slot] @ powers[:, None, :M, None])[..., 0]

        adjoints = np.zeros((net.n_layers, n))
        adj = np.zeros(n)
        for j in range(net.n_layers, 0, -1):
            adj = adj + seeds[j]
            adjoints[j - 1] = adj
            adj = jac[j - 1].T @ adj

        # adjoints of each group's slots, the others zeroed: (G, dim, slots)
        by_group = np.swapaxes((slot == np.arange(G)[:, None])[:, :, None] * adjoints, 1, 2)
        grads = np.concatenate([by_group @ powers[:, s] for s in sl], axis=-1)
    return _with_penalty(data, grads, W, n, net.order, penalty_rate)


@dataclass(frozen=True)
class TrainConfig:
    """Adam settings for one-shot fine-tuning.

    Valid ranges: step_size, clip_norm and epsilon finite and > 0; beta1
    and beta2 in the open interval (0, 1); penalty_rate finite and >= 0;
    epochs an integer >= 0; schedule "constant" or "cosine"; train_degrees
    None (all degrees) or a non-empty set of degrees 0..order.  Anything
    else is a ValueError naming the field, so bad settings never pass for
    divergence.

    penalty_rate multiplies the summed group penalties against a data term
    that is a mean (not a sum) over observed entries, so its scale does not
    depend on trajectory length.  The penalty is evaluated and recorded in
    every epoch, also at rate 0.
    """

    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float = 1.0
    epochs: int = 1000
    penalty_rate: float = 1e-10
    schedule: str = "constant"
    train_degrees: tuple | None = None
    teacher_forcing: bool = False

    def __post_init__(self):
        for name in ("step_size", "clip_norm", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not (math.isfinite(self.penalty_rate) and self.penalty_rate >= 0):
            raise ValueError(f"penalty_rate must be finite and >= 0, got {self.penalty_rate}")
        object.__setattr__(self, "epochs", _count("epochs", self.epochs, 0))
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.train_degrees is not None:
            degrees = tuple(int(d) for d in self.train_degrees)
            if not degrees:
                raise ValueError("train_degrees must name at least one degree")
            if any(d < 0 for d in degrees):
                raise ValueError("train_degrees entries must be >= 0")
            object.__setattr__(self, "train_degrees", degrees)

    def step_at(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch under the configured schedule."""
        if self.schedule == "cosine":
            frac = (epoch - 1) / max(self.epochs, 1)
            return self.step_size * 0.5 * (1.0 + np.cos(np.pi * frac))
        return self.step_size


@dataclass
class LossReport:
    """Per-epoch loss history; checkpoints hold copies of the group maps
    recorded after the requested epochs."""

    total: np.ndarray
    data: np.ndarray
    penalty: np.ndarray
    checkpoints: dict = field(default_factory=dict)


def _pairwise_data(net: Network, X0, obs: ObservationSeries):
    """Consecutive (previous, next) state pairs for teacher forcing, with
    the previous states as their monomials of degrees 0..order, one row per
    pair, computed once for all epochs.

    Requires one shared weight group, a tap at every slot boundary, and a
    fully observed series: each observed state then serves as the input of
    the following step, so the fit is on single-step pairs instead of the
    rolled-out chain.
    """
    if any(g != 0 for g in net.layer_groups) or len(net.group_maps) != 1:
        raise ValueError("teacher forcing needs a single shared weight group")
    if net.taps != tuple(range(1, net.n_layers + 1)):
        raise ValueError("teacher forcing needs a tap at every slot")
    if not obs.mask.all():
        raise ValueError("teacher forcing needs fully observed states")
    X0 = np.asarray(X0, dtype=float)
    prev = np.vstack([X0[None, :], obs.values[:-1]])
    return basis.monomials(prev, net.order), obs.values


def _pairwise_backward(net: Network, W, feats, nxt, penalty_rate: float):
    """Gradients in W of the mean squared one-step residual over state pairs;
    feats holds the monomials of the previous states, one row per pair."""
    residual = feats @ W[0].T - nxt
    data = float(np.mean(residual**2))
    _, sl = basis._stacked_exponents(net.dim, net.order)
    grads = np.concatenate([residual.T @ feats[:, s] for s in sl], axis=-1)[None]
    grads *= 2.0 / residual.size
    return _with_penalty(data, grads, W, net.dim, net.order, penalty_rate)


def _clip_global(grads: np.ndarray, clip_norm: float) -> float:
    """Scale grads in place to a norm of at most clip_norm and return the
    norm before clipping; a non-finite norm, which an overflowing square
    also gives, leaves grads as they are."""
    with np.errstate(over="ignore"):
        norm = float(np.sqrt((grads * grads).sum()))
    if clip_norm < norm < math.inf:
        grads *= clip_norm / norm
    return norm


def train_one_shot(
    net: Network,
    X0,
    obs: ObservationSeries,
    cfg: TrainConfig,
    checkpoint_epochs=(),
):
    """Full-batch Adam on one observed series; returns (trained net, report).

    The input network is not modified.  Losses are recorded at evaluation,
    before each update; a non-finite loss or gradient norm aborts with the
    failing epoch.  With cfg.teacher_forcing the data term is the one-step
    residual over consecutive observed pairs (fully observed shared chains
    only) instead of the rolled-out trajectory error; cfg.train_degrees
    restricts updates to the named weight degrees.
    """
    if cfg.train_degrees is not None and any(d > net.order for d in cfg.train_degrees):
        raise ValueError(f"train_degrees beyond map order {net.order}")
    pairs = _pairwise_data(net, X0, obs) if cfg.teacher_forcing else None
    W = _stack(net)
    m = np.zeros_like(W)
    v = np.zeros_like(W)
    # the columns of W whose degree (row sum of its exponents) is not trained
    E, _ = basis._stacked_exponents(net.dim, net.order)
    frozen = ~np.isin(E.sum(axis=1), cfg.train_degrees or range(net.order + 1))
    wanted = set(int(e) for e in checkpoint_epochs)
    history, checkpoints = [], {}

    for epoch in range(1, cfg.epochs + 1):
        try:
            if pairs is not None:
                grads, losses = _pairwise_backward(net, W, *pairs, cfg.penalty_rate)
            else:
                grads, losses = backward(net, W, X0, obs, cfg.penalty_rate)
        except FlowDivergenceError as exc:
            raise TrainingDivergedError(
                epoch, f"training diverged at epoch {epoch}: {exc}"
            ) from exc
        if not np.isfinite(losses[0]):
            raise TrainingDivergedError(
                epoch, f"training loss became non-finite at epoch {epoch}"
            )
        history.append(losses)

        grads[..., frozen] = 0.0
        if not math.isfinite(_clip_global(grads, cfg.clip_norm)):
            raise TrainingDivergedError(
                epoch, f"gradient norm became non-finite at epoch {epoch}"
            )
        step = cfg.step_at(epoch)
        m = cfg.beta1 * m + (1 - cfg.beta1) * grads
        v = cfg.beta2 * v + (1 - cfg.beta2) * grads * grads
        W -= step * (m / (1.0 - cfg.beta1**epoch)) / (
            np.sqrt(v / (1.0 - cfg.beta2**epoch)) + cfg.epsilon
        )
        if epoch in wanted:
            checkpoints[epoch] = _group_maps(net, W)

    total, data, penalty = np.array(history, dtype=float).reshape(-1, 3).T.copy()
    trained = replace(net, group_maps=_group_maps(net, W))
    return trained, LossReport(total, data, penalty, checkpoints)
