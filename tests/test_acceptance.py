"""Acceptance gate: every release criterion, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each test is self-contained and checks its stated tolerance and runtime
budget.  Criteria 01-03 check the derived maps against references the tests
compute themselves, independently of `ode_to_map`:

- 01: the Taylor coefficients of the exact free-fall flow (tanh closed form);
- 02: the analytic free-fall velocity, over one drag time constant;
- 03: the closed-form pendulum rotation for W1, and for W3 the
  variation-of-constants integral evaluated by Gauss-Legendre quadrature.
"""

import time
from math import comb

import numpy as np
import pytest

from tmnet import basis, io, lattice, maps, network, ode, systems
from tmnet import cli


def _verdict(num: int, name: str, failures, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:02d} [{status}] {name}{extra}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


# --- 1: free-fall map coefficients -------------------------------------------------


def _free_fall_taylor_coefficients(m, g, k, dt):
    """Taylor coefficients in v of the exact one-step flow of v' = g - mu v**2.

    With mu = k/m, v_T = sqrt(g/mu) and T = tanh(dt sqrt(g mu)), the flow is
    v -> v_T (v + v_T T) / (v_T + v T).  Expanding in v about 0:
      v_T T + (1 - T**2) v - T (1 - T**2) / v_T v**2 + O(v**3).
    """
    mu = k / m
    v_T = np.sqrt(g / mu)
    T = np.tanh(dt * np.sqrt(g * mu))
    return (v_T * T, 1.0 - T**2, -T * (1.0 - T**2) / v_T)


def test_criterion_01_free_fall_coefficients():
    m, g, k, dt = 100.0, 9.8, 0.392, 0.1
    system = systems.free_fall(m=m, g=g, k=k)
    # The 1 s budget is about the code, not the host's momentary load: the
    # fastest of three derivations discounts a transient slowdown.
    elapsed = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        tm = ode.ode_to_map(system, ode.FlowConfig(dt))
        elapsed = min(elapsed, time.perf_counter() - t0)
    got = (tm.weights[0][0, 0], tm.weights[1][0, 0], tm.weights[2][0, 0])
    failures = []
    rels = []
    want = _free_fall_taylor_coefficients(m, g, k, dt)
    for d, (c, w) in enumerate(zip(got, want)):
        rel = abs(c - w) / abs(w)
        rels.append(rel)
        if rel > 1e-6:
            failures.append(f"degree-{d} coefficient {c!r} vs reference {w!r} "
                            f"(rel {rel:.3e} > 1e-6)")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, "free-fall map coefficients at 1e-6", failures,
             f"worst rel {max(rels):.2e}, {elapsed:.2f}s")


# --- 2: map vs Euler accuracy ordering ---------------------------------------------


def test_criterion_02_taylor_beats_euler():
    m, g, k = 100.0, 9.8, 0.392
    system = systems.free_fall(m=m, g=g, k=k)
    # The order-2 Taylor map is expanded about rest, and its fixed point sits
    # about g dt / 2 below the terminal speed, while Euler's fixed point is
    # the terminal speed itself.  So the map is the more accurate one while
    # the body is still accelerating, not on the terminal plateau; past 1.7-1.9
    # drag time constants (depending on dt) Euler's MSE is the lower one.  The horizon is
    # therefore one drag time constant, tau = sqrt(m / (g k)).
    tau = np.sqrt(m / (g * k))
    failures = []
    details = []
    for dt in (0.1, 0.2, 0.4, 0.8):
        steps = int(round(tau / dt))
        taylor = ode.ode_to_map(system, ode.FlowConfig(dt))
        euler = maps.TaylorMap(
            dim=1, order=2,
            weights=(np.array([[g * dt]]), np.array([[1.0]]),
                     np.array([[-k / m * dt]])),
        )
        t = dt * np.arange(1, steps + 1)
        exact = systems.free_fall_analytic(t, m=m, g=g, k=k)
        mse = {}
        for label, tm in (("taylor", taylor), ("euler", euler)):
            chain = network.build_shared_chain(tm, steps)
            pred = network.predict_trajectory(chain, np.array([0.0]))[:, 0]
            mse[label] = float(np.mean((pred - exact) ** 2))
        details.append(f"dt={dt}: {mse['taylor']:.2e} vs {mse['euler']:.2e}")
        if not mse["taylor"] < mse["euler"]:
            failures.append(
                f"dt={dt}: taylor MSE {mse['taylor']:.3e} is not below "
                f"euler MSE {mse['euler']:.3e}"
            )
    _verdict(2, f"order-2 map beats Euler at every dt over tau={tau:.2f}s",
             failures, "; ".join(details))


# --- 3: pendulum initial map -------------------------------------------------------


def _pendulum_reference_blocks(g, L, dt):
    """W1 and W3 of the truncated pendulum phi'' = -w2 (phi - phi**3 / 6).

    W1 is the rotation Phi(dt) of the linear part.  Variation of constants
    gives the cubic part of the flow as
      W3 X0^[3] = int_0^dt Phi(dt - s) P3 (Phi(s) X0)^[3] ds,
    where P3 puts w2 / 6 on phi**3 in the velocity row.  The integrand is a
    trigonometric polynomial in s, so 20-node Gauss-Legendre quadrature is
    exact to rounding.
    """
    w = np.sqrt(g / L)

    def rotation(t):
        return np.array([[np.cos(w * t), np.sin(w * t) / w],
                         [-w * np.sin(w * t), np.cos(w * t)]])

    exponents = [tuple(row) for row in basis.exponent_matrix(2, 3)]
    x, weights = np.polynomial.legendre.leggauss(20)
    W3 = np.zeros((2, len(exponents)))
    for s, q in zip(0.5 * dt * (x + 1.0), 0.5 * dt * weights):
        a, b = rotation(s)[0]
        # phi(s)**3 = (a phi0 + b phi0')**3 expanded on the degree-3 basis
        phi_cubed = np.array([comb(3, i) * a**i * b**j for i, j in exponents])
        W3 += q * np.outer(rotation(dt - s)[:, 1] * (w * w / 6.0), phi_cubed)
    return rotation(dt), W3


def test_criterion_03_pendulum_initial_map():
    g, L, dt = 9.8, 0.3, 0.1
    tm = ode.ode_to_map(systems.pendulum(g=g, L=L), ode.FlowConfig(dt))
    W1_ref, W3_ref = _pendulum_reference_blocks(g, L, dt)
    failures = []
    if not np.all(tm.weights[2] == 0.0):
        failures.append("W2 is not exactly zero")
    for d, ref in ((1, W1_ref), (3, W3_ref)):
        for (i, j), want in np.ndenumerate(ref):
            got = tm.weights[d][i, j]
            rel = abs(got - want) / abs(want)
            if rel > 1e-8:
                failures.append(f"W{d}[{i},{j}] {got:.10g} vs {want:.10g} "
                                f"(rel {rel:.2e} > 1e-8)")
    _verdict(3, "pendulum initial map entries at rel 1e-8", failures,
             f"{len(failures)} entry(ies) out of tolerance" if failures else "")


# --- 4: symplectic penalty correctness ---------------------------------------------


def _pair_constraints(W1, W2):
    """The five published algebraic conditions for a dim-2, order-2 map."""
    w = W1
    a = W2
    return np.array([
        w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0] - 1.0,
        a[0, 0] * a[1, 2] - a[0, 2] * a[1, 0],
        a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1],
        w[0, 0] * a[1, 1] - w[1, 0] * a[0, 1]
        + 2.0 * w[1, 1] * a[0, 0] - 2.0 * w[0, 1] * a[1, 0],
        w[1, 1] * a[0, 1] - w[0, 1] * a[1, 1]
        + 2.0 * w[0, 0] * a[1, 2] - 2.0 * w[1, 0] * a[0, 2],
    ])


def _penalty_of(W1, W2):
    ws = (np.zeros((2, 1)), np.array(W1, dtype=float), np.array(W2, dtype=float))
    return maps.symplectic_penalty(maps.TaylorMap(dim=2, order=2, weights=ws))


def test_criterion_04_symplectic_penalty_zero_set():
    failures = []
    if maps.symplectic_penalty(maps.identity_map(2, 2)) != 0.0:
        failures.append("identity penalty is not exactly 0")

    rng = np.random.default_rng(41)
    worst_rot = 0.0
    for theta in rng.uniform(-np.pi, np.pi, size=200):
        W1 = np.array([[np.cos(theta), np.sin(theta)],
                       [-np.sin(theta), np.cos(theta)]])
        W2 = np.zeros((2, 3))
        worst_rot = max(worst_rot, _penalty_of(W1, W2))
        if _penalty_of(W1, W2) > 1e-12:
            failures.append(f"rotation theta={theta:.3f} penalty > 1e-12")
            break

    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(1000):
        W1 = rng.uniform(-2.0, 2.0, size=(2, 2))
        W2 = rng.uniform(-2.0, 2.0, size=(2, 3))
        penalty_zero = _penalty_of(W1, W2) <= 1e-10
        constraints_zero = float(np.sum(_pair_constraints(W1, W2) ** 2)) <= 1e-10
        if penalty_zero != constraints_zero:
            disagreements += 1
    if disagreements:
        failures.append(f"{disagreements}/1000 samples classified differently")
    _verdict(4, "symplectic penalty zero-set", failures,
             f"rotations <= {worst_rot:.1e}, 1000 samples agree")


# --- 5: gradient suite -------------------------------------------------------------


def _random_net(rng):
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    layers = int(rng.integers(1, 6))
    shared = bool(rng.integers(0, 2))
    def rand_map():
        ws = tuple(
            0.3 * rng.normal(size=(n, basis.basis_size(n, d)))
            for d in range(k + 1)
        )
        return maps.TaylorMap(dim=n, order=k, weights=ws)
    if shared:
        net = network.build_shared_chain(rand_map(), layers)
    else:
        net = network.Network(
            group_maps=[rand_map() for _ in range(layers)],
            layer_groups=tuple(range(layers)),
        )
    X0 = 0.2 * rng.normal(size=n)
    values = network.forward(net, X0) + 0.1 * rng.normal(size=(layers, n))
    mask = rng.random((layers, n)) < 0.7
    if not mask.any():
        mask[0, 0] = True
    obs = network.ObservationSeries(
        taps=tuple(range(1, layers + 1)), values=values, mask=mask
    )
    lam = float(rng.choice([0.0, 1e-6]))
    return net, X0, obs, lam


def test_criterion_05_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    h = 1e-6
    checked = 0
    for case in range(50):
        net, X0, obs, lam = _random_net(rng)
        grads, _ = network.backward(net, network._stack(net), X0, obs, lam)
        _, sl = basis._stacked_exponents(net.dim, net.order)
        n_groups = len(net.group_maps)
        entries = [
            (gi, d, i, p)
            for gi in range(n_groups)
            for d in range(net.order + 1)
            for i in range(net.dim)
            for p in range(basis.basis_size(net.dim, d))
        ]
        if len(entries) > 160:  # keep the suite inside its runtime budget
            idx = rng.choice(len(entries), size=160, replace=False)
            entries = [entries[int(q)] for q in idx]
        for gi, d, i, p in entries:
            def bumped_net(delta):
                gmaps = []
                for gj, tm in enumerate(net.group_maps):
                    ws = [w.copy() for w in tm.weights]
                    if gj == gi:
                        ws[d][i, p] += delta
                    gmaps.append(
                        maps.TaylorMap(dim=net.dim, order=net.order,
                                       weights=tuple(ws))
                    )
                return network.Network(group_maps=gmaps, layer_groups=net.layer_groups)
            fd = (
                network.loss(bumped_net(h), X0, obs, lam)[0]
                - network.loss(bumped_net(-h), X0, obs, lam)[0]
            ) / (2 * h)
            got = grads[gi][:, sl[d]][i, p]
            checked += 1
            if abs(got - fd) > max(1e-5 * abs(fd), 1e-9):
                failures.append(
                    f"case {case}: grad[{gi}][{d}][{i},{p}] {got:.6e} vs FD {fd:.6e}"
                )
        if len(failures) > 5:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(5, "analytic gradients vs central differences", failures,
             f"{checked} entries on 50 nets, {elapsed:.1f}s")


# --- 6: predator-prey one-shot from scratch ----------------------------------------


def _lv_test_mse(tm, references):
    total = 0.0
    for X0, ref in references:
        chain = network.build_shared_chain(tm, ref.shape[0])
        pred = network.predict_trajectory(chain, X0)
        total += float(np.mean((pred - ref) ** 2))
    return total / len(references)


def test_criterion_06_lotka_volterra_one_shot():
    t0 = time.perf_counter()
    system = systems.lotka_volterra()
    steps, dt = 465, 0.01
    obs = systems.synthesize(system, np.array([0.5, 0.5]), dt, steps)
    start = maps.identity_map(2, 3)
    net = network.build_shared_chain(start, steps)
    # full-state observations allow one-step (teacher-forced) fitting, which
    # is convex; training degrees 1..3 keeps the learned flow origin-fixed
    cfg = network.TrainConfig(step_size=1e-2, beta2=0.99, epochs=1000,
                              penalty_rate=0.0, schedule="cosine",
                              teacher_forcing=True, train_degrees=(1, 2, 3))
    trained, report = network.train_one_shot(
        net, np.array([0.5, 0.5]), obs, cfg, checkpoint_epochs=(50, 200, 1000)
    )
    references = [
        (np.array(X0), ode.reference_trajectory(system, X0, dt, steps)[1:])
        for X0 in ([0.8, 0.8], [0.1, 0.1])
    ]
    baseline = _lv_test_mse(start, references)
    mses = [_lv_test_mse(report.checkpoints[e][0], references)
            for e in (50, 200, 1000)]

    failures = []
    for a, b, ea, eb in zip(mses, mses[1:], (50, 200), (200, 1000)):
        if b > a:
            failures.append(f"test MSE rose from {a:.3e} (ep {ea}) to {b:.3e} (ep {eb})")
    if mses[-1] > baseline / 10.0:
        failures.append(
            f"final test MSE {mses[-1]:.3e} not 10x below baseline {baseline:.3e}"
        )
    origin = network.predict_trajectory(
        network.build_shared_chain(report.checkpoints[1000][0], steps),
        np.array([0.0, 0.0]),
    )
    drift = float(np.max(np.abs(origin)))
    if drift > 0.05:
        failures.append(f"origin drifts to {drift:.3f} > 0.05")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 5min")
    _verdict(6, "predator-prey one-shot learning", failures,
             f"MSE {mses[0]:.2e}->{mses[-1]:.2e} vs baseline {baseline:.2e}, "
             f"origin drift {drift:.1e}, {elapsed:.0f}s")


# --- 7: pendulum one-shot fine-tuning ----------------------------------------------


def _angle_mse(tm, layers, X0, reference_angles):
    chain = network.build_shared_chain(tm, layers)
    pred = network.predict_trajectory(chain, X0, components=(0,))[:, 0]
    return float(np.mean((pred - reference_angles) ** 2))


def test_criterion_07_pendulum_one_shot():
    t0 = time.perf_counter()
    layers, dt = 49, 0.1
    start = ode.ode_to_map(systems.pendulum(g=9.8, L=0.3), ode.FlowConfig(dt))
    truth = systems.damped_pendulum_rhs(g=9.8, L=0.28, damping=0.1)
    obs = systems.synthesize(
        truth, np.array([0.09, 0.0]), dt, layers,
        noise=systems.NoiseSpec("gaussian", 0.005, seed=7),
        mask=np.array([True, False]),
    )
    net = network.build_shared_chain(start, layers)
    X0 = np.array([0.09, 0.0])
    # the damped target flow is dissipative, so the symplectic penalty is off
    cfg = network.TrainConfig(step_size=1e-3, epochs=1000, penalty_rate=0.0)
    trained, report = network.train_one_shot(net, X0, obs, cfg)

    failures = []
    pre = report.data[0]
    post = network.loss(trained, X0, obs, 0.0)[1]
    if post > pre / 10.0:
        failures.append(f"training MSE {post:.3e} not 10x below initial {pre:.3e}")
    unseen = []
    for phi0 in (0.05, 0.12):
        Xu = np.array([phi0, 0.0])
        ref = ode.reference_trajectory(truth, Xu, dt, layers)[1:, 0]
        before = _angle_mse(start, layers, Xu, ref)
        after = _angle_mse(trained.group_maps[0], layers, Xu, ref)
        unseen.append(f"phi0={phi0}: {before:.2e}->{after:.2e}")
        if after >= before:
            failures.append(
                f"unseen angle {phi0}: MSE {after:.3e} did not improve on {before:.3e}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 5min")
    _verdict(7, "pendulum one-shot fine-tuning", failures,
             f"train {pre:.2e}->{post:.2e}; {'; '.join(unseen)}; {elapsed:.0f}s")


# --- 9: oracle equivalence ---------------------------------------------------------

# horizons keep the visited states near the |X| <= 0.5 ball; bounds are a
# 2x envelope over the measured truncation residual of each chain
CHAIN_CASES = {
    "free_fall": (0.05, 1, [[-0.5], [-0.25], [-0.1], [0.0]], 1e-8),
    "free_fall_augmented": (0.05, 1,
                            [[-0.5, 0.5], [-0.3, 0.3], [0.0, 0.5],
                             [-0.25, 0.25]], 5e-5),
    "pendulum": (0.1, 100,
                 [[0.06, 0.3], [0.03, 0.15], [0.08, 0.0], [0.0, 0.45]], 3e-6),
    "lotka_volterra": (0.01, 10,
                       [[0.4, 0.4], [0.3, -0.3], [-0.4, 0.2], [0.25, 0.25]],
                       7e-5),
    "rayleigh_plesset": (0.02, 5,
                         [[0.4, -0.3, 0.5, 0.2, -0.4],
                          [0.2, 0.15, -0.25, 0.4, 0.3],
                          [-0.5, 0.4, 0.3, -0.2, 0.1],
                          [0.25, -0.2, 0.15, 0.1, -0.05]], 1.2e-4),
}

# one-step error scaling: halving the state must shrink the error by close
# to 2^(k+1); 0.7 covers the sub-asymptotic remainder at these amplitudes
SCALING_STATES = {
    "free_fall": [-0.5],
    "free_fall_augmented": [-0.2, 0.2],
    "pendulum": [0.06, 0.3],
    "lotka_volterra": [0.5, 0.5],
    "rayleigh_plesset": [0.4, -0.3, 0.5, 0.2, -0.4],
}


def _chain_error(system, dt, steps, X0):
    tm = ode.ode_to_map(system, ode.FlowConfig(dt))
    chain = network.build_shared_chain(tm, steps)
    pred = network.predict_trajectory(chain, np.asarray(X0, dtype=float))
    ref = ode.reference_trajectory(system, X0, dt, steps, substeps=1000)[1:]
    return float(np.max(np.abs(pred - ref)))


def _one_step_error(system, dt, X0):
    tm = ode.ode_to_map(system, ode.FlowConfig(dt))
    ref = ode.reference_trajectory(system, X0, dt, 1, substeps=2000)[-1]
    return float(np.max(np.abs(tm(np.asarray(X0, dtype=float)) - ref)))


def test_criterion_09_oracle_equivalence():
    failures = []
    details = []
    for name, (dt, steps, states, bound) in CHAIN_CASES.items():
        system = systems.SYSTEMS[name]()
        worst = max(_chain_error(system, dt, steps, X0) for X0 in states)
        details.append(f"{name} {worst:.1e}")
        if worst > bound:
            failures.append(f"{name}: chain error {worst:.3e} > bound {bound:.1e}")
        X0 = np.array(SCALING_STATES[name])
        e_full = _one_step_error(system, dt, X0)
        e_half = _one_step_error(system, dt, 0.5 * X0)
        need = 0.7 * 2 ** (system.order + 1)
        if e_full / e_half < need:
            failures.append(
                f"{name}: half-state error ratio {e_full / e_half:.2f} < {need:.1f}"
            )

    # halving dt must shrink the one-step error by at least 2^k
    ff = systems.free_fall(m=100.0, g=9.8, k=0.392)
    r_ff = (_one_step_error(ff, 0.2, np.array([-30.0]))
            / _one_step_error(ff, 0.1, np.array([-30.0])))
    if r_ff < 4.0:
        failures.append(f"free fall dt-halving ratio {r_ff:.3f} < 4")
    pend = systems.pendulum(g=9.8, L=0.3)
    r_p = (_one_step_error(pend, 0.05, np.array([0.2, 0.4]))
           / _one_step_error(pend, 0.025, np.array([0.2, 0.4])))
    if r_p < 8.0:
        failures.append(f"pendulum dt-halving ratio {r_p:.3f} < 8")
    _verdict(9, "map chains track the dense reference", failures,
             f"chain errors: {', '.join(details)}; dt ratios ff {r_ff:.2f}, "
             f"pend {r_p:.2f}")


# --- 10: determinism ---------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    failures = []

    # in-process: identical configs give bit-identical histories and weights
    def run_training():
        start = ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1))
        obs = systems.synthesize(
            systems.damped_pendulum_rhs(), np.array([0.09, 0.0]), 0.1, 49,
            noise=systems.NoiseSpec("gaussian", 0.005, seed=7),
            mask=np.array([True, False]),
        )
        cfg = network.TrainConfig(epochs=120, penalty_rate=1e-6)
        return network.train_one_shot(
            network.build_shared_chain(start, 49), np.array([0.09, 0.0]), obs, cfg
        )
    net1, rep1 = run_training()
    net2, rep2 = run_training()
    for part in ("total", "data", "penalty"):
        if not np.array_equal(getattr(rep1, part), getattr(rep2, part)):
            failures.append(f"loss history '{part}' differs between reruns")
    for w1, w2 in zip(net1.group_maps[0].weights, net2.group_maps[0].weights):
        if w1.tobytes() != w2.tobytes():
            failures.append("trained weights differ between reruns")
            break

    # CLI: identical commands give byte-identical outputs, manifests
    # identical apart from the volatile fields and output paths
    obs_path = tmp_path / "obs.csv"
    io.write_observations(
        systems.synthesize(
            systems.damped_pendulum_rhs(), np.array([0.09, 0.0]), 0.1, 20,
            noise=systems.NoiseSpec("gaussian", 0.005, seed=3),
            mask=np.array([True, False]),
        ),
        obs_path,
    )
    map_path = tmp_path / "start.json"
    rc = cli.main(["derive", "--system", "pendulum", "--param", "L=0.3",
                   "--dt", "0.1", "--out", str(map_path)])
    if rc != 0:
        failures.append(f"cli derive exited {rc}")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag / "tuned.json"
        out.parent.mkdir()
        rc = cli.main([
            "train", "--obs", str(obs_path), "--map", str(map_path),
            "--x0", "0.09,0", "--epochs", "60", "--lr", "1e-3",
            "--seed", "5", "--out", str(out),
        ])
        if rc != 0:
            failures.append(f"cli train run {tag} exited {rc}")
        outs.append(out)
    if not failures:
        for name in ("tuned.json", "tuned.loss.csv"):
            b1 = (outs[0].parent / name).read_bytes()
            b2 = (outs[1].parent / name).read_bytes()
            if b1 != b2:
                failures.append(f"{name} differs between identical runs")
        views = []
        for out in outs:
            view = io.manifest_stable_view(out.parent / "tuned.manifest.json")
            view["parameters"]["out"] = ""
            views.append(view)
        if views[0] != views[1]:
            failures.append("manifest stable views differ")
    _verdict(10, "bit-identical reruns", failures,
             "loss histories, weights, and output files compared")
