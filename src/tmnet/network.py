"""Unrolled chains of Taylor-map layers with one-shot fine-tuning.

A network is a sequence of layer slots, each bound to a weight group; slots in
the same group share one TaylorMap.  Every slot boundary emits its state, so a
single initial state unrolls into a predicted time series.  Observations may
cover only some boundaries ("taps") and some components (for a physical
pendulum, angles are measured while angular velocities stay latent); the loss
is the mean squared error over the observed entries plus a symplectic penalty
summed over the distinct weight groups.

The forward pass is the one point evaluator, maps._chain_function, which
TaylorMap.apply and tracking run too: Python on floats adding each output's
terms left to right, checked once, at the last state (a divergence names the
first non-finite layer).  Under teacher forcing one numpy reduction adds the
same terms in the same order for every pair.

Gradients are exact: reverse accumulation (Griewank & Walther, Evaluating
Derivatives, 2008), plus the analytic penalty gradient.  One generated pass
on Python floats (_reverse_function) gives the masked data term and the
adjoint at every slot, with no Jacobian; the weight gradients of every
degree and group are one product (on the BLAS) of the adjoints with the
monomials.  backward and every training epoch take the data term from this
pass, or from the one-step residual under teacher forcing, and add the
penalty through _with_penalty: one objective.

Training is deterministic full-batch Adam on the single observed series,
with global gradient-norm clipping.  It runs on one stacked (groups, dim, N)
array W, W[g] being group g's stacked matrix; gradients and Adam's moments
share that layout and are updated in place, and TaylorMaps are built from it
only at checkpoints and at the end.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from tmnet import basis, maps
from tmnet.maps import _count, _real
from tmnet.ode import FlowDivergenceError


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
    NaN.  rows[r] is (taps[r], *values[r], *mask[r]) on Python scalars, built
    once for the reverse pass of every epoch; values and mask are read-only
    copies, so rows cannot go stale.
    """

    taps: tuple[int, ...]
    values: np.ndarray
    mask: np.ndarray
    rows: tuple = field(init=False, repr=False, compare=False)

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
        mask = mask.copy()
        values.flags.writeable = mask.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "rows", tuple(
            (t, *v, *m) for t, v, m in zip(taps, values.tolist(), mask.tolist())))

    @property
    def observed_count(self) -> int:
        return int(self.mask.sum())


@dataclass
class Network:
    """A chain of Taylor-map layers with weight sharing.

    layer_groups[j] names the weight group of slot j (0-based slots); all
    slots with the same group index evaluate the identical group_maps entry.
    The group maps share one dimension and order, which the network reports
    as its own.
    """

    group_maps: list[maps.TaylorMap]
    layer_groups: tuple[int, ...]

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
                    f"group 0 map is (dim={self.dim}, order={self.order})"
                )

    @property
    def dim(self) -> int:
        return self.group_maps[0].dim

    @property
    def order(self) -> int:
        return self.group_maps[0].order

    @property
    def n_layers(self) -> int:
        return len(self.layer_groups)


def build_shared_chain(tm: maps.TaylorMap, length: int) -> Network:
    """A length-layer chain sharing one weight group."""
    return Network(group_maps=[tm], layer_groups=(0,) * _count("length", length, 1))


def _stack(net: Network) -> np.ndarray:
    """The group maps' stacked matrices as one (groups, dim, N) array."""
    return np.stack([tm.stacked for tm in net.group_maps])


def _group_maps(net: Network, W) -> list[maps.TaylorMap]:
    """One TaylorMap per group of the stacked weights W, copied out of W."""
    _, sl = basis._stacked_exponents(net.dim, net.order)
    return [maps.TaylorMap(dim=net.dim, order=net.order, weights=tuple(w[:, s] for s in sl))
            for w in W]


def _weight_rows(W) -> list:
    """The stacked group weights W as one flat list of floats per group."""
    return W.reshape(len(W), -1).tolist()


def _array(rows: list, width: int) -> np.ndarray:
    """rows, lists of width floats each, as one (len(rows), width) array."""
    return np.fromiter(itertools.chain.from_iterable(rows), float,
                       len(rows) * width).reshape(-1, width)


def _start(net: Network, X0) -> list:
    """X0 as a list of floats if it is finite with shape (dim,)."""
    X = np.asarray(X0, dtype=float)
    if X.shape != (net.dim,) or not np.isfinite(X).all():
        raise ValueError(f"X0 must be finite with shape ({net.dim},), got {X.tolist()}")
    return X.tolist()


def _forward_states(net: Network, weights, x: list, rows: bool = False):
    """maps._chain_function's states (and rows, if set) of the chain from
    the state x, on _weight_rows' weights.  Only the last state is
    checked; if it is non-finite, the first non-finite layer is named."""
    out = maps._chain_function(net.dim, net.order, rows)(weights, net.layer_groups, x)
    states = out[0] if rows else out
    if not all(map(math.isfinite, states[-1])):
        j = int(np.argmin(np.isfinite(states).all(axis=1)))
        # hypot does not overflow where the squares of a state near the limit would
        raise FlowDivergenceError(f"network state diverged at layer {j} (last finite "
                                  f"state norm {math.hypot(*states[j - 1]):.6g})", j)
    return out


def forward(net: Network, X0) -> np.ndarray:
    """The state after each slot for one initial condition, shape
    (n_layers, dim): row t-1 is the state at boundary (tap) t."""
    return _array(_forward_states(net, _weight_rows(_stack(net)), _start(net, X0))[1:], net.dim)


def predict_trajectory(net: Network, X0, components=None) -> np.ndarray:
    """Forward pass projected onto the requested components (default: all)."""
    out = forward(net, X0)
    return out if components is None else out[:, list(components)]


def _check_observations(net: Network, obs: ObservationSeries) -> None:
    # the series checked its taps on construction; only the chain length is new
    if max(obs.taps, default=0) > net.n_layers:
        raise ValueError(f"observation taps must lie in [1, {net.n_layers}], got {obs.taps}")
    if obs.values.shape[1] != net.dim:
        raise ValueError(
            f"observations have {obs.values.shape[1]} components, network dim is {net.dim}"
        )
    if obs.observed_count == 0:
        raise ValueError("observation series has no observed entries")


def _group_sum(penalties) -> float:
    """The group penalties of one network added left to right, as builtin
    sum() compensates from Python 3.12 on."""
    total = 0.0
    for p in penalties:
        total += p
    return total


def _with_penalty(data: float, grads, W, n: int, k: int, penalty_rate: float):
    """Add the symplectic penalty of the stacked group weights W to a data
    term and its gradient grads, shaped like W.

    Returns (grads, (total, data, penalty)) with penalty_rate times the
    penalty gradient added to grads in place.  Odd-dimensional states carry
    no conjugate-pair structure; their penalty is defined as zero.
    """
    penalty = 0.0
    if n % 2 == 0:
        want = penalty_rate != 0.0
        _, per_group, penalty_grads = maps._residual_penalty(W, k, want)
        penalty = _group_sum(per_group.tolist())
        if want:
            grads += penalty_rate * penalty_grads
    return grads, (data + penalty_rate * penalty, data, penalty)


@lru_cache(maxsize=None)
def _reverse_function(n: int, k: int):
    """f(weights, groups, powers, states, rows, n_obs) -> (data, seeds,
    adjoints): the data term and the reverse pass of a chain of order-k
    slots over n variables, generated as straight-line Python on floats and
    compiled.

    weights[g] is group g's stacked (n, N) matrix, flat and row-major,
    unpacked where the group changes; groups, powers and states list the
    slots' groups and _forward_states' rows; rows and n_obs are the series'
    rows and observed_count.  First, tap by tap, the observed differences d
    give the masked mean squared error and the seeds 2 d / n_obs, one row
    per boundary, zero where nothing is observed.  Then, from the last slot
    to the first, the adjoint a at a slot's output is its seed plus the
    adjoint at the next slot's input, and the adjoint b at its input needs
    no Jacobian: c_s = sum_r a_r w[r, s] for every column s of degree >= 1,
    then b_i = sum_s c_s dm_s/dx_i over the columns whose monomial holds
    x_i (basis._columns).  adjoints lists the output adjoints flat, from the
    last slot to the first.  Every sum is written out and added left to
    right (not with sum(), which compensates from Python 3.12 on).
    """
    table = basis._columns(n, k)
    monos = list(table)
    x, v, o, d, a, sd = ([f"{c}{i}" for i in range(n)] for c in "xvodas")
    m = [f"m{s}" for s in range(len(monos))]
    w = [f"w{r}_{s}" for r in range(n) for s in range(len(monos))]

    def term(s, i):
        # column s's share of b_i: c_s times d m_s / d x_i = (count of i) m_s less one i
        mono, j = monos[s], monos[s].index(i)
        p = table[mono[:j] + mono[j + 1:]]
        t = f"c{s}" if p == 0 else f"c{s} * m{p}"
        return t if mono.count(i) == 1 else f"{mono.count(i)}.0 * {t}"

    columns = range(1, len(monos))
    b = [" + ".join(term(s, i) for s in columns if i in monos[s]) for i in range(n)]
    source = "\n".join([
        "def reverse(weights, groups, powers, states, rows, n_obs):",
        f"    seeds = [{(0.0,) * n}] * len(states)",
        "    data = 0.0",
        f"    for t, {', '.join(v)}, {', '.join(o)} in rows:",
        f"        {', '.join(x)}, = states[t]",
        *(f"        {d[i]} = {x[i]} - {v[i]} if {o[i]} else 0.0" for i in range(n)),
        # one flat chain from data, each square added in turn, not data += row sum
        f"        data = data + {' + '.join(f'{di} * {di}' for di in d)}",
        f"        seeds[t] = {', '.join(f'2.0 * {di} / n_obs' for di in d)},",
        f"    {' = '.join(a)} = 0.0",
        "    adjoints, h = [], None",
        f"    for g, [{', '.join(m)}], [{', '.join(sd)}] in "
        "zip(reversed(groups), reversed(powers), seeds[:0:-1]):",
        "        if g != h:",
        "            h = g",
        f"            {', '.join(w)}, = weights[g]",
        *(f"        {a[i]} += {sd[i]}" for i in range(n)),
        f"        adjoints += {', '.join(a)},",
        *(f"        c{s} = {' + '.join(f'{a[r]} * w{r}_{s}' for r in range(n))}"
          for s in columns),
        f"        {', '.join(a)}, = {', '.join(b)},",
        "    return data / n_obs, seeds, adjoints",
    ])
    return basis._compiled(source, f"<reverse pass of order-{k} slots over {n} variables>",
                           "reverse")


@lru_cache(maxsize=8)
def _group_onehot(layer_groups: tuple[int, ...]) -> np.ndarray:
    """(groups, 1, slots) array, 1.0 where the slot belongs to the group."""
    slot = np.array(layer_groups)
    onehot = (slot == np.arange(slot.max() + 1)[:, None])[:, None, :].astype(float)
    onehot.flags.writeable = False
    return onehot


def _data_gradient(net: Network, W, x0: list, rows, n_obs: int):
    """(data, grads): the masked mean squared error over the observed
    entries of the chain rolled out from x0 and its gradient in W.  One
    _forward_states pass hands its float rows to _reverse_function, whose
    adjoints times the monomials give every weight gradient in one product."""
    weights = _weight_rows(W)
    states, monomials = _forward_states(net, weights, x0, rows=True)
    data, _, adjoints = _reverse_function(net.dim, net.order)(
        weights, net.layer_groups, monomials, states, rows, n_obs)
    powers = _array(monomials, W.shape[-1])
    adjoints = np.array(adjoints).reshape(-1, net.dim)[::-1]
    # overflow here means divergence, which the caller detects from the
    # non-finite gradient norm
    with np.errstate(over="ignore", invalid="ignore"):
        return data, (_group_onehot(net.layer_groups) * adjoints.T) @ powers


def backward(net: Network, W, X0, obs: ObservationSeries, penalty_rate: float):
    """Analytic loss gradient in the group weights W, plus the loss triple.

    Returns (grads, (total, data, penalty)) where grads has W's shape
    (groups, dim, N); degree d is the column slice [..., sl[d]] with sl from
    basis._stacked_exponents.  The data term is _data_gradient's.
    """
    _check_observations(net, obs)
    data, grads = _data_gradient(net, W, _start(net, X0), obs.rows, obs.observed_count)
    return _with_penalty(data, grads, W, net.dim, net.order, penalty_rate)


# Adam's beta1 and epsilon, the defaults of Kingma & Ba (ICLR 2015, arXiv:1412.6980)
ADAM_BETA1, ADAM_EPSILON = 0.9, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Adam settings for one-shot fine-tuning.

    Valid ranges: step_size and clip_norm finite and > 0; beta2 in the open
    interval (0, 1); penalty_rate finite and >= 0; epochs an integer >= 0;
    schedule "constant" or "cosine"; train_degrees None (all degrees) or a
    non-empty collection of degrees 0..order.  Anything else, a wrong type
    included, is a ValueError naming the field, so bad settings never pass
    for divergence.  Adam's beta1 and epsilon are module constants.

    penalty_rate multiplies the summed group penalties against a data term
    that is a mean (not a sum) over observed entries, so its scale does not
    depend on trajectory length.  The penalty is recorded for every epoch,
    also at rate 0; there it steers no step, so train_one_shot evaluates it
    after the epochs, over batches of weight snapshots.
    """

    step_size: float = 1e-3
    beta2: float = 0.999
    clip_norm: float = 1.0
    epochs: int = 1000
    penalty_rate: float = 1e-10
    schedule: str = "constant"
    train_degrees: tuple | None = None
    teacher_forcing: bool = False

    def __post_init__(self):
        for name in ("step_size", "clip_norm"):
            value = _real(name, getattr(self, name))
            if not value > 0:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 < _real("beta2", self.beta2) < 1:
            raise ValueError(f"beta2 must lie in (0, 1), got {self.beta2}")
        if not _real("penalty_rate", self.penalty_rate) >= 0:
            raise ValueError(f"penalty_rate must be finite and >= 0, got {self.penalty_rate}")
        object.__setattr__(self, "epochs", _count("epochs", self.epochs, 0))
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.train_degrees is not None:
            try:
                degrees = tuple(_count("train_degrees entries", d, 0)
                                for d in self.train_degrees)
            except TypeError:
                raise ValueError("train_degrees must be None or a collection of degrees, "
                                 f"got {self.train_degrees!r}") from None
            if not degrees:
                raise ValueError("train_degrees must name at least one degree")
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
    """What teacher forcing reads every epoch, computed once: the monomials
    of the pairs' previous states, one row per pair and as an (N, 1, pairs)
    array, and the next states, (dim, pairs).  Requires one shared weight
    group and a fully observed series with an observation at every slot
    boundary: each observed state then serves as the input of the following
    step, so the fit is on single-step pairs instead of the rolled-out chain.
    """
    if any(g != 0 for g in net.layer_groups) or len(net.group_maps) != 1:
        raise ValueError("teacher forcing needs a single shared weight group")
    if obs.taps != tuple(range(1, net.n_layers + 1)):
        raise ValueError(f"teacher forcing needs observation taps 1..{net.n_layers}")
    if not obs.mask.all():
        raise ValueError("teacher forcing needs fully observed states")
    feats = basis.monomials(np.vstack([_start(net, X0), obs.values[:-1]]), net.order)
    return feats, np.ascontiguousarray(feats.T[:, None, :]), obs.values.T.copy()


def _pairwise_gradient(W, feats, lanes, nxt):
    """(data, grads): the mean squared one-step residual over state pairs
    and its gradient in W, from _pairwise_data's arrays.  Each prediction
    adds its terms left to right, as the chain does: np.add.reduce along
    axis 0 of a C-ordered array does, unless one lane makes it pairwise."""
    terms = np.multiply(lanes, W[0].T[:, :, None], order="C")
    predicted = np.add.reduce(terms, axis=0) if terms[0].size > 1 else sum(terms[1:], terms[0])
    residual = predicted - nxt
    grads = (residual @ feats)[None] * (2.0 / residual.size)
    # np.mean's own reduction
    return float(np.add.reduce(residual * residual, axis=None)) / residual.size, grads


# the residual terms (snapshots x groups x terms per map) that one flush of
# deferred rate-0 penalties evaluates at most, which bounds its temporary
# arrays; a flush takes at least one snapshot
_FLUSH_TERMS = 4096


def _flush_size(n: int, k: int, groups: int) -> int:
    """Weight snapshots per flush of deferred penalties: as many as
    _FLUSH_TERMS residual terms hold, at least one."""
    return max(1, _FLUSH_TERMS // (groups * len(maps._residual_terms(n, k)[0])))


def _non_finite_loss(epoch: int) -> TrainingDivergedError:
    return TrainingDivergedError(epoch, f"training loss became non-finite at epoch {epoch}")


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

    The numbers are those of a loop that calls backward each epoch and
    takes the textbook Adam step, bit for bit.  At penalty_rate 0 the
    penalty steers no step and is only recorded: each epoch copies W into a
    snapshot buffer, and one stacked evaluation per full buffer, and one
    after the last epoch, fills in the penalty and total of those epochs.
    Before any divergence is raised the buffer is evaluated, so a penalty
    that made an earlier total non-finite names the earlier epoch.
    """
    _check_observations(net, obs)
    if cfg.train_degrees is not None and any(d > net.order for d in cfg.train_degrees):
        raise ValueError(f"train_degrees beyond map order {net.order}")
    W = _stack(net)
    # the data term and its gradient at the current W, which Adam updates in place
    if cfg.teacher_forcing:
        gradient = partial(_pairwise_gradient, W, *_pairwise_data(net, X0, obs))
    else:
        gradient = partial(_data_gradient, net, W, _start(net, X0), obs.rows, obs.observed_count)
    # Adam's moments and two scratch buffers of its update
    m, v, t, u = (np.zeros_like(W) for _ in range(4))
    # the columns of W whose degree (row sum of its exponents) is not trained
    E, _ = basis._stacked_exponents(net.dim, net.order)
    frozen = ~np.isin(E.sum(axis=1), cfg.train_degrees or range(net.order + 1))
    wanted = set(int(e) for e in checkpoint_epochs)
    history, checkpoints = [], {}
    deferred = cfg.penalty_rate == 0.0 and net.dim % 2 == 0
    size = _flush_size(net.dim, net.order, len(W)) if deferred else 0
    snapshots, pending = np.empty((size, *W.shape)), 0

    def flush():
        # fill in the penalty and total of the epochs whose W waits in snapshots
        nonlocal pending
        count, pending = pending, 0
        if not count:
            return
        # one stacked residual over every snapshot's groups
        _, per_map, _ = maps._residual_penalty(snapshots[:count].reshape(-1, *W.shape[1:]),
                                               net.order, False)
        for epoch, per_group in enumerate(per_map.reshape(count, -1).tolist(),
                                          len(history) - count + 1):
            row = history[epoch - 1]
            row[2] = _group_sum(per_group)
            row[0] = row[1] + cfg.penalty_rate * row[2]
            if not math.isfinite(row[0]):
                raise _non_finite_loss(epoch) from None

    def diverged(error: TrainingDivergedError) -> TrainingDivergedError:
        flush()  # a deferred penalty may have made an earlier loss non-finite
        return error

    for epoch in range(1, cfg.epochs + 1):
        try:
            data, grads = gradient()
        except FlowDivergenceError as exc:
            raise diverged(TrainingDivergedError(
                epoch, f"training diverged at epoch {epoch}: {exc}")) from exc
        if deferred:
            history.append([data, data, None])
            snapshots[pending] = W
            pending += 1
            if pending == size:
                flush()
        else:
            grads, losses = _with_penalty(data, grads, W, net.dim, net.order, cfg.penalty_rate)
            history.append(losses)
        if not math.isfinite(history[-1][0]):
            raise diverged(_non_finite_loss(epoch))

        grads[..., frozen] = 0.0
        if not math.isfinite(_clip_global(grads, cfg.clip_norm)):
            raise diverged(TrainingDivergedError(
                epoch, f"gradient norm became non-finite at epoch {epoch}"))
        # in place, the IEEE operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g
        # and W -= step (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) in their order
        m *= ADAM_BETA1
        m += np.multiply(grads, 1 - ADAM_BETA1, out=t)
        v *= cfg.beta2
        v += np.multiply(np.multiply(grads, 1 - cfg.beta2, out=t), grads, out=t)
        np.multiply(np.divide(m, 1.0 - ADAM_BETA1**epoch, out=t), cfg.step_at(epoch), out=t)
        np.sqrt(np.divide(v, 1.0 - cfg.beta2**epoch, out=u), out=u)
        u += ADAM_EPSILON
        W -= np.divide(t, u, out=t)
        if epoch in wanted:
            checkpoints[epoch] = _group_maps(net, W)
    flush()

    total, data, penalty = np.array(history, dtype=float).reshape(-1, 3).T.copy()
    trained = replace(net, group_maps=_group_maps(net, W))
    return trained, LossReport(total, data, penalty, checkpoints)
