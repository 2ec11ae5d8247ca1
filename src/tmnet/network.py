"""Unrolled chains of Taylor-map layers with one-shot fine-tuning.

A network is a sequence of layer slots, each bound to a weight group; slots in
the same group share one TaylorMap.  Selected slot boundaries ("taps") emit
their states as outputs, so a single initial state unrolls into a predicted
time series.  Observations may cover only some taps and some components (for
a physical pendulum, angles are measured while angular velocities stay
latent); the loss is the mean squared error over the observed entries plus a
symplectic penalty summed over the distinct weight groups.

Gradients are exact: reverse accumulation through the layer Jacobians, with
per-slot weight gradients summed within each sharing group, plus the analytic
penalty gradient.  Training is deterministic full-batch Adam on the single
observed series, with global gradient-norm clipping.
"""

from dataclasses import dataclass, field

import numpy as np

from tmnet import basis, maps
from tmnet.ode import FlowDivergenceError


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite; carries the epoch."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


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
        taps = tuple(int(t) for t in self.taps)
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
        if len(taps) != values.shape[0]:
            raise ValueError(f"{len(taps)} taps for {values.shape[0]} value rows")
        if any(t <= 0 for t in taps):
            raise ValueError("taps are 1-based slot boundaries and must be positive")
        if any(b <= a for a, b in zip(taps, taps[1:])):
            raise ValueError("taps must be strictly increasing")
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
        self.taps = tuple(int(t) for t in self.taps)
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
        L = len(self.layer_groups)
        if any(t < 1 or t > L for t in self.taps):
            raise ValueError(f"taps must lie in [1, {L}]")
        if any(b <= a for a, b in zip(self.taps, self.taps[1:])):
            raise ValueError("taps must be strictly increasing")

    @property
    def n_layers(self) -> int:
        return len(self.layer_groups)

    def replace_group(self, g: int, tm: maps.TaylorMap) -> None:
        if tm.dim != self.dim or tm.order != self.order:
            raise ValueError("replacement map has wrong dimension or order")
        self.group_maps[g] = tm


def build_shared_chain(tm: maps.TaylorMap, length: int, taps=None) -> Network:
    """A length-layer chain sharing one weight group; taps default to every
    boundary 1..length."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if taps is None:
        taps = tuple(range(1, length + 1))
    return Network(
        dim=tm.dim,
        order=tm.order,
        group_maps=[tm],
        layer_groups=(0,) * length,
        taps=tuple(taps),
    )


def _forward_states(net: Network, X0):
    """All slot states plus per-slot kron powers of the input state."""
    X = np.asarray(X0, dtype=float)
    if X.shape != (net.dim,):
        raise ValueError(f"X0 must have shape ({net.dim},), got {X.shape}")
    states = [X]
    powers = []
    # overflow here means divergence, which is detected and raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for j, g in enumerate(net.layer_groups):
            tm = net.group_maps[g]
            kp = [basis.kron_power(states[-1], d) for d in range(net.order + 1)]
            powers.append(kp)
            nxt = sum(tm.weights[d] @ kp[d] for d in range(net.order + 1))
            if not np.all(np.isfinite(nxt)):
                raise FlowDivergenceError(f"network state diverged at layer {j + 1}")
            states.append(nxt)
    return states, powers


def forward(net: Network, X0) -> np.ndarray:
    """Tapped states for one initial condition, shape (len(taps), dim)."""
    states, _ = _forward_states(net, X0)
    return np.array([states[t] for t in net.taps])


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


def _group_penalty(tm: maps.TaylorMap) -> float:
    # odd-dimensional states carry no conjugate-pair structure; their
    # penalty term is defined as zero
    if tm.dim % 2:
        return 0.0
    return maps.symplectic_penalty(tm)


def loss(net: Network, X0, obs: ObservationSeries, penalty_rate: float):
    """(total, data, penalty): masked mean squared error over observed
    entries plus penalty_rate times the summed group penalties."""
    _check_observations(net, obs)
    states, _ = _forward_states(net, X0)
    sq = 0.0
    for r, t in enumerate(obs.taps):
        m = obs.mask[r]
        if m.any():
            diff = states[t][m] - obs.values[r][m]
            sq += float(diff @ diff)
    data = sq / obs.observed_count
    penalty = sum(_group_penalty(tm) for tm in net.group_maps)
    return data + penalty_rate * penalty, data, penalty


def backward(net: Network, X0, obs: ObservationSeries, penalty_rate: float):
    """Analytic loss gradients per weight group, plus the loss triple.

    Returns (grads, (total, data, penalty)) where grads[g][d] has the shape
    of group g's degree-d weight block.
    """
    _check_observations(net, obs)
    states, powers = _forward_states(net, X0)
    n_obs = obs.observed_count
    seed = {}
    for r, t in enumerate(obs.taps):
        m = obs.mask[r]
        if m.any():
            adj = np.zeros(net.dim)
            adj[m] = 2.0 * (states[t][m] - obs.values[r][m]) / n_obs
            seed[t] = seed.get(t, 0.0) + adj

    grads = [
        [np.zeros_like(w) for w in tm.weights] for tm in net.group_maps
    ]
    adj = np.zeros(net.dim)
    for j in range(net.n_layers, 0, -1):
        if j in seed:
            adj = adj + seed[j]
        g = net.layer_groups[j - 1]
        tm = net.group_maps[g]
        kp = powers[j - 1]
        for d, gw in enumerate(tm.weight_gradients(states[j - 1], adj, powers=kp)):
            grads[g][d] += gw
        adj = tm.jacobian(states[j - 1], powers=kp).T @ adj

    penalty = 0.0
    for g, tm in enumerate(net.group_maps):
        penalty += _group_penalty(tm)
        if penalty_rate != 0.0 and tm.dim % 2 == 0:
            for d, gp in enumerate(maps.symplectic_penalty_gradient(tm)):
                grads[g][d] += penalty_rate * gp

    sq = 0.0
    for r, t in enumerate(obs.taps):
        m = obs.mask[r]
        if m.any():
            diff = states[t][m] - obs.values[r][m]
            sq += float(diff @ diff)
    data = sq / n_obs
    return grads, (data + penalty_rate * penalty, data, penalty)


@dataclass(frozen=True)
class TrainConfig:
    """Adam settings for one-shot fine-tuning.

    penalty_rate multiplies the summed group penalties against a data term
    that is a mean (not a sum) over observed entries, so its scale does not
    depend on trajectory length.
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
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.penalty_rate < 0:
            raise ValueError("penalty_rate must be >= 0")
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
    """Consecutive (previous, next) state pairs for teacher forcing.

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
    return prev, obs.values


def _pairwise_backward(tm: maps.TaylorMap, prev, nxt, penalty_rate: float):
    """Gradients of the mean squared one-step residual over state pairs."""
    feats = [basis.kron_power(prev, d) for d in range(tm.order + 1)]
    residual = sum(f @ w.T for f, w in zip(feats, tm.weights)) - nxt
    data = float(np.mean(residual**2))
    grads = [[(2.0 / residual.size) * (residual.T @ f) for f in feats]]
    penalty = _group_penalty(tm)
    if penalty_rate != 0.0 and tm.dim % 2 == 0:
        for d, gp in enumerate(maps.symplectic_penalty_gradient(tm)):
            grads[0][d] += penalty_rate * gp
    return grads, (data + penalty_rate * penalty, data, penalty)


def _clip_global(grads, clip_norm: float) -> None:
    sq = 0.0
    for group in grads:
        for g in group:
            sq += float((g * g).sum())
    norm = np.sqrt(sq)
    if norm > clip_norm:
        scale = clip_norm / norm
        for group in grads:
            for g in group:
                g *= scale


def train_one_shot(
    net: Network,
    X0,
    obs: ObservationSeries,
    cfg: TrainConfig,
    checkpoint_epochs=(),
):
    """Full-batch Adam on one observed series; returns (trained net, report).

    The input network is not modified.  Losses are recorded at evaluation,
    before each update; a non-finite loss aborts with the failing epoch.
    With cfg.teacher_forcing the data term is the one-step residual over
    consecutive observed pairs (fully observed shared chains only) instead
    of the rolled-out trajectory error; cfg.train_degrees restricts updates
    to the named weight degrees.
    """
    trained = Network(
        dim=net.dim,
        order=net.order,
        group_maps=list(net.group_maps),
        layer_groups=net.layer_groups,
        taps=net.taps,
    )
    weights = [[w.copy() for w in tm.weights] for tm in trained.group_maps]
    m = [[np.zeros_like(w) for w in ws] for ws in weights]
    v = [[np.zeros_like(w) for w in ws] for ws in weights]
    total_h, data_h, pen_h = [], [], []
    wanted = set(int(e) for e in checkpoint_epochs)
    report = LossReport(
        total=np.empty(0), data=np.empty(0), penalty=np.empty(0)
    )
    if cfg.train_degrees is not None and any(
        d > net.order for d in cfg.train_degrees
    ):
        raise ValueError(f"train_degrees beyond map order {net.order}")
    pairs = _pairwise_data(trained, X0, obs) if cfg.teacher_forcing else None

    for epoch in range(1, cfg.epochs + 1):
        try:
            if pairs is not None:
                grads, (total, data, penalty) = _pairwise_backward(
                    trained.group_maps[0], *pairs, cfg.penalty_rate
                )
            else:
                grads, (total, data, penalty) = backward(
                    trained, X0, obs, cfg.penalty_rate
                )
        except FlowDivergenceError as exc:
            raise TrainingDivergedError(
                epoch, f"training diverged at epoch {epoch}: {exc}"
            ) from exc
        if not np.isfinite(total):
            raise TrainingDivergedError(
                epoch, f"training loss became non-finite at epoch {epoch}"
            )
        total_h.append(total)
        data_h.append(data)
        pen_h.append(penalty)

        if cfg.train_degrees is not None:
            for group in grads:
                for d in range(len(group)):
                    if d not in cfg.train_degrees:
                        group[d][:] = 0.0
        _clip_global(grads, cfg.clip_norm)
        step = cfg.step_at(epoch)
        bc1 = 1.0 - cfg.beta1**epoch
        bc2 = 1.0 - cfg.beta2**epoch
        for gi, ws in enumerate(weights):
            for d, w in enumerate(ws):
                g = grads[gi][d]
                m[gi][d] = cfg.beta1 * m[gi][d] + (1 - cfg.beta1) * g
                v[gi][d] = cfg.beta2 * v[gi][d] + (1 - cfg.beta2) * g * g
                w -= step * (m[gi][d] / bc1) / (
                    np.sqrt(v[gi][d] / bc2) + cfg.epsilon
                )
            trained.group_maps[gi] = maps.TaylorMap(
                dim=net.dim, order=net.order, weights=tuple(ws)
            )
        if epoch in wanted:
            report.checkpoints[epoch] = [tm for tm in trained.group_maps]

    report.total = np.array(total_h)
    report.data = np.array(data_h)
    report.penalty = np.array(pen_h)
    return trained, report
