"""The three paper workflows the benchmark times, with their correctness gates.

Each workload takes a seed, which drives only its measurement-noise draws;
sizes never depend on it.  One call of a workload runs the whole workflow
once: derive the model, synthesize the measurements and dense references,
fit, and predict.  Every gated step is an operation; an operation fails when
it raises, returns a non-finite output or misses its gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from tmnet import cli, io, lattice, maps, network, ode, systems

STAGES = ("derive", "reference", "fit", "predict")

# RK4 substeps of the oracle each derived map's one-step error is taken against
ORACLE_SUBSTEPS = 2000
# The predict stage is short (10-300 ms), so each workload runs it for enough
# passes to cover at least 0.4 s, and predict_s is the median pass.


class Iteration:
    """Stage timings, operations, accuracy figures and digests of one run of
    a workflow."""

    def __init__(self, ops: tuple[str, ...], clock):
        self.clock = clock
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        # the same stages in raw perf_counter seconds, sampler time included
        self.wall_s = dict.fromkeys(STAGES, 0.0)
        self.expected = ops
        self.outcome: dict[str, str | None] = {}
        self.accuracy: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.io_bytes = 0.0

    @contextmanager
    def stage(self, name: str):
        t0, w0 = self.clock(), time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] += self.clock() - t0
            self.wall_s[name] += time.perf_counter() - w0

    def repeat(self, name: str, fn, passes: int):
        """Run fn `passes` times; the stage time is the median pass and the
        result is the last pass's."""
        times, walls = [], []
        for _ in range(passes):
            t0, w0 = self.clock(), time.perf_counter()
            result = fn()
            times.append(self.clock() - t0)
            walls.append(time.perf_counter() - w0)
        self.stage_s[name] = statistics.median(times)
        self.wall_s[name] = statistics.median(walls)
        return result

    def check(self, op: str, ok: bool, detail: str) -> None:
        """Record one operation; detail says what missed when ok is false."""
        self.outcome[op] = None if ok else detail

    def abort(self, exc: BaseException) -> None:
        """Fail every operation not yet recorded, naming the exception."""
        for op in self.expected:
            self.outcome.setdefault(op, f"raised {type(exc).__name__}: {exc}")

    @property
    def failures(self) -> dict[str, str]:
        return {op: why for op, why in self.outcome.items() if why is not None}


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _one_step_error(tm: maps.TaylorMap, system: ode.PolynomialODE, dt: float, X) -> float:
    ref = ode.reference_trajectory(system, X, dt, 1, substeps=ORACLE_SUBSTEPS)[1]
    return float(np.max(np.abs(tm(X) - ref)))


def _chain_mse(tm: maps.TaylorMap, X0, ref: np.ndarray, components=None) -> float:
    pred = network.predict_trajectory(
        network.build_shared_chain(tm, ref.shape[0]), X0, components=components
    )
    return float(np.mean((pred - ref) ** 2))


# --- pendulum_oneshot -----------------------------------------------------------


def pendulum_oneshot(seed: int, it: Iteration, work: Path) -> None:
    """Criterion 07: derive the ideal pendulum map with the default FlowConfig,
    fit it through a 49-slot shared chain to noisy angle-only readings of the
    damped full-sine pendulum, and score it on unseen starting angles."""
    dt, layers, X0 = 0.1, 49, np.array([0.09, 0.0])
    unseen = (0.05, 0.12)
    with it.stage("derive"):
        ideal = systems.pendulum(g=9.8, L=0.3)
        start = ode.ode_to_map(ideal, ode.FlowConfig(dt))
    with it.stage("reference"):
        derive_err = _one_step_error(start, ideal, dt, X0)
        truth = systems.damped_pendulum_rhs(g=9.8, L=0.28, damping=0.1)
        obs = systems.synthesize(
            truth, X0, dt, layers,
            noise=systems.NoiseSpec("gaussian", 0.005, seed=seed),
            mask=np.array([True, False]),
        )
        refs = [
            (np.array([phi0, 0.0]),
             ode.reference_trajectory(truth, np.array([phi0, 0.0]), dt, layers)[1:, :1])
            for phi0 in unseen
        ]
    it.check("derive", _finite(*start.weights, derive_err), "non-finite map")
    it.check("synthesize", _finite(obs.values[obs.mask], *(r for _, r in refs)),
             "non-finite readings")
    with it.stage("fit"):
        net = network.build_shared_chain(start, layers)
        cfg = network.TrainConfig(step_size=1e-3, epochs=1000, penalty_rate=0.0)
        trained, report = network.train_one_shot(net, X0, obs, cfg)
    fit_ratio = float(report.data[-1] / report.data[0])
    it.check("fit", fit_ratio <= 0.1, f"fit_ratio {fit_ratio:.3e} > 0.1")
    tuned = trained.group_maps[0]
    scores = it.repeat("predict", lambda: [
        (Xu[0], _chain_mse(start, Xu, ref, components=(0,)),
         _chain_mse(tuned, Xu, ref, components=(0,)))
        for Xu, ref in refs
    ], passes=50)
    for phi0, before, after in scores:
        it.check(f"unseen_{phi0}", after < before,
                 f"unseen MSE {after:.3e} not below untuned {before:.3e}")
    it.accuracy.update(derive_err=derive_err, fit_ratio=fit_ratio,
                       unseen_mse=float(np.mean([after for _, _, after in scores])))
    it.digests.update(weights=_digest(tuned.weights), series=_digest([obs.values]))


PENDULUM_OPS = ("derive", "synthesize", "fit", "unseen_0.05", "unseen_0.12")


# --- lotka_volterra_tf ------------------------------------------------------------


def lotka_volterra_tf(seed: int, it: Iteration, work: Path) -> None:
    """Criterion 06: teacher-forced fit of an order-3 identity map to a noisy
    465-step full-state series, scored against dense references from two
    unseen starts.  The order-2 map derived from the same ODE (at an explicit
    substep count) is the physics model whose one-step error derive_err
    reports."""
    steps, dt, X0 = 465, 0.01, np.array([0.5, 0.5])
    with it.stage("derive"):
        system = systems.lotka_volterra()
        derived = ode.ode_to_map(system, ode.FlowConfig(dt, substeps=1000))
    with it.stage("reference"):
        derive_err = _one_step_error(derived, system, dt, X0)
        obs = systems.synthesize(
            system, X0, dt, steps, noise=systems.NoiseSpec("gaussian", 1e-4, seed=seed)
        )
        refs = [
            (np.array(Xu), ode.reference_trajectory(system, np.array(Xu), dt, steps)[1:])
            for Xu in ([0.8, 0.8], [0.1, 0.1])
        ]
    it.check("derive", _finite(*derived.weights, derive_err), "non-finite map")
    it.check("synthesize", _finite(obs.values, *(r for _, r in refs)),
             "non-finite series")
    with it.stage("fit"):
        start = maps.identity_map(2, 3)
        net = network.build_shared_chain(start, steps)
        cfg = network.TrainConfig(
            step_size=1e-2, beta2=0.99, epochs=1000, penalty_rate=0.0,
            schedule="cosine", teacher_forcing=True, train_degrees=(1, 2, 3),
        )
        trained, report = network.train_one_shot(net, X0, obs, cfg)
    fit_ratio = float(report.data[-1] / report.data[0])
    it.check("fit", math.isfinite(fit_ratio), "non-finite loss")
    tuned = trained.group_maps[0]
    baseline, mse = it.repeat("predict", lambda: [
        float(np.mean([_chain_mse(tm, Xu, ref) for Xu, ref in refs]))
        for tm in (start, tuned)
    ], passes=10)
    it.check("unseen", mse <= baseline / 10.0,
             f"unseen MSE {mse:.3e} above identity baseline {baseline:.3e} / 10")
    it.accuracy.update(derive_err=derive_err, fit_ratio=fit_ratio, unseen_mse=mse)
    it.digests.update(weights=_digest(tuned.weights), series=_digest([obs.values]))


LOTKA_VOLTERRA_OPS = ("derive", "synthesize", "fit", "unseen")


# --- fodo_ring ------------------------------------------------------------------------


def fodo_ring(seed: int, it: Iteration, work: Path) -> None:
    """The desk-scale ring: build it, weaken element 0 by 20% to make the true
    machine, fine-tune every element from one turn of position readings, then
    track both rings for 512 turns; the tuned ring goes through the lattice
    file and the `tmnet track` / `tmnet tunes` commands."""
    X0, turns = np.array([1e-3, 0.0, 1e-3, 0.0]), 512
    with it.stage("derive"):
        ring = lattice.build_fodo_ring(substeps=200)
        truth = lattice.perturb_element(ring, 0, 0.8)
    with it.stage("reference"):
        distinct = {}
        for e in [truth.elements[0], *ring.elements]:
            key = _digest(e.generator.coeffs)
            distinct.setdefault(key, e)
        # an off-axis test state so truncation error dominates rounding
        Xd = np.array([1e-2, 1e-3, 1e-2, 1e-3])
        derive_err = max(
            _one_step_error(e.tm, e.generator, e.dt, Xd) for e in distinct.values()
        )
        obs = lattice.observe_one_turn(truth, X0)
        rng = np.random.default_rng(seed)
        noise = np.where(obs.mask, 1e-7 * rng.normal(size=obs.values.shape), 0.0)
        values = obs.values + noise
        obs = network.ObservationSeries(taps=obs.taps, values=values, mask=obs.mask)
    it.check("derive", len(distinct) == 5 and _finite(derive_err),
             f"{len(distinct)} distinct elements, derive_err {derive_err}")
    it.check("observe", _finite(obs.values[obs.mask]), "non-finite readings")
    with it.stage("fit"):
        cfg = network.TrainConfig(step_size=3e-4, epochs=400, penalty_rate=1e-6)
        tuned, report = lattice.fine_tune(ring, X0, obs, cfg)
    fit_ratio = float(report.data[-1] / report.data[0])
    it.check("fit", fit_ratio <= 1e-2, f"fit_ratio {fit_ratio:.3e} > 1e-2")
    ring_json, turns_csv, tunes_json = (
        work / "tuned_ring.json", work / "tuned_turns.csv", work / "tuned_tunes.json"
    )
    x0 = ",".join(repr(float(v)) for v in X0)

    def predict():
        linear = lattice.linear_tunes(tuned)
        true_series = lattice.multi_turn(truth, X0, turns)
        true_q = lattice.estimate_tunes(true_series)
        io.save_lattice(tuned, ring_json)
        with redirect_stdout(StringIO()):
            rc_track = cli.main(["track", "--lattice", str(ring_json), "--x0", x0,
                                 "--turns", str(turns), "--out", str(turns_csv)])
            rc_tunes = cli.main(["tunes", "--series", str(turns_csv),
                                 "--out", str(tunes_json)])
        tuned_series = io.read_turn_series(turns_csv)
        tuned_q = json.loads(tunes_json.read_text(encoding="utf-8"))
        return linear, true_series, true_q, rc_track, rc_tunes, tuned_series, tuned_q

    (qx_lin, qy_lin), true_series, true_q, rc_track, rc_tunes, tuned_series, tuned_q = (
        it.repeat("predict", predict, passes=5)
    )
    it.check("linear_tunes", _finite(qx_lin, qy_lin), "non-finite linear tunes")
    it.check("track_true", _finite(true_series.states), "non-finite tracking")
    it.check("cli_track", rc_track == 0 and _finite(tuned_series.states),
             f"tmnet track exit {rc_track}")
    it.check("cli_tunes", rc_tunes == 0 and _finite(tuned_q["qx"], tuned_q["qy"]),
             f"tmnet tunes exit {rc_tunes}")
    position_error = (tuned_series.states - true_series.states)[:, [0, 2]]
    it.accuracy.update(
        derive_err=derive_err,
        fit_ratio=fit_ratio,
        unseen_mse=float(np.mean(position_error**2)),
        tune_err=max(abs(tuned_q["qx"] - true_q.qx), abs(tuned_q["qy"] - true_q.qy)),
    )
    it.digests.update(
        weights=_digest([w for e in tuned.elements for w in e.tm.weights]),
        series=_digest([tuned_series.states]),
    )
    it.io_bytes = float(sum(p.stat().st_size for p in work.iterdir()))


FODO_OPS = ("derive", "observe", "fit", "linear_tunes", "track_true", "cli_track",
            "cli_tunes")

WORKLOADS = {
    "pendulum_oneshot": (pendulum_oneshot, PENDULUM_OPS),
    "lotka_volterra_tf": (lotka_volterra_tf, LOTKA_VOLTERRA_OPS),
    "fodo_ring": (fodo_ring, FODO_OPS),
}


def run_once(workload: str, seed: int, work: Path, clock) -> Iteration:
    """One full workflow timed on `clock`; an exception fails the operations
    it did not reach."""
    fn, ops = WORKLOADS[workload]
    it = Iteration(ops, clock)
    try:
        fn(seed, it, work)
    except Exception as exc:  # a failed operation is a result, not a crash
        it.abort(exc)
    return it
