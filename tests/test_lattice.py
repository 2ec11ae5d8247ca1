"""Ring lattices: tracking, tunes, perturbation, fine-tuning.

The shared desk ring is built once per module with a reduced substep count;
its linear tunes were frozen from a substeps=1000 build (the integrator error
at 200 substeps is ~1e-12, far below the 1e-5 assertions used here).
"""

import time

import numpy as np
import pytest

from tmnet import lattice, maps, network, ode

# frozen linear tunes of build_fodo_ring() defaults (substeps=1000)
FODO_QX = 0.208097
FODO_QY = 0.307087


@pytest.fixture(scope="module")
def fodo():
    return lattice.build_fodo_ring(substeps=200)


def identity_element(label):
    return lattice.LatticeElement(label=label, tm=maps.identity_map(4, 2))


# --- construction ---------------------------------------------------------


def test_element_rejects_wrong_dim():
    with pytest.raises(ValueError, match="4-dimensional"):
        lattice.LatticeElement(label="bad", tm=maps.identity_map(2, 2))


def test_element_generator_needs_dt():
    quad = lattice.quad_element("q", 0.3, 0.5, substeps=50)
    with pytest.raises(ValueError, match="together"):
        lattice.LatticeElement(label="q", tm=quad.tm, generator=quad.generator)
    for dt in ("x", np.nan, np.inf, True, None):
        with pytest.raises(ValueError, match="dt must be"):
            lattice.LatticeElement(label="q", tm=quad.tm, generator=quad.generator,
                                   dt=dt, substeps=50)


def test_fodo_ring_derives_each_distinct_element_once(monkeypatch):
    calls = []
    derive = ode.ode_to_map

    def counting(system, cfg):
        calls.append(cfg)
        return derive(system, cfg)

    monkeypatch.setattr(ode, "ode_to_map", counting)
    ring = lattice.build_fodo_ring(substeps=20)
    assert len(calls) == 4
    monkeypatch.undo()
    alone = {
        "qf": lambda label: lattice.quad_element(label, 0.40, 1.0, substeps=20),
        "qd": lambda label: lattice.quad_element(label, -0.45, 1.0, substeps=20),
        "o": lambda label: lattice.drift_element(label, 1.0, substeps=20),
        "sx": lambda label: lattice.sextupole_element(label, 0.05, 1.0, substeps=20),
    }
    labels = [e.label for e in ring.elements]
    assert labels == ["qf1", "o1", "qd1", "o2", "qf2", "o3", "qd2", "o4", "sx1"]
    for e in ring.elements:
        want = alone[e.label.rstrip("0123456789")](e.label)
        assert (e.dt, e.substeps) == (want.dt, want.substeps)
        assert e.generator.stacked.tobytes() == want.generator.stacked.tobytes()
        assert e.tm.stacked.tobytes() == want.tm.stacked.tobytes()


def test_lattice_validation():
    with pytest.raises(ValueError, match="at least one"):
        lattice.Lattice(elements=[], monitors=())
    e = identity_element("i1")
    with pytest.raises(ValueError, match=r"\[1, 1\]"):
        lattice.Lattice(elements=[e], monitors=(2,))
    with pytest.raises(ValueError, match="strictly increasing"):
        lattice.Lattice(elements=[e, identity_element("i2")], monitors=(2, 2))
    mixed = [e, lattice.LatticeElement(label="k3", tm=maps.identity_map(4, 3))]
    with pytest.raises(ValueError, match="order"):
        lattice.Lattice(elements=mixed, monitors=(1,))


def test_turn_series_validation():
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        lattice.TurnSeries(states=np.zeros((5, 3)))
    bad = np.zeros((5, 4))
    bad[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        lattice.TurnSeries(states=bad)


# --- readings and tracking ---------------------------------------------------------


def test_identity_ring_readings_constant():
    lat = lattice.Lattice(
        elements=[identity_element(f"i{j}") for j in range(3)], monitors=(1, 2, 3)
    )
    readings = lattice.observe_one_turn(lat, [0.2, 0.5, -0.1, 0.3]).values[:, [0, 2]]
    assert np.allclose(readings, [[0.2, -0.1]] * 3, atol=1e-15)


def test_single_rotation_element_reading():
    lat = lattice.Lattice(
        elements=[lattice.rotation_element("r", 0.25, 0.125)], monitors=(1,)
    )
    reading = lattice.observe_one_turn(lat, [1.0, 0.0, 1.0, 0.0]).values[:, [0, 2]]
    # quarter turn in x: (1,0) -> (0,-1); eighth turn in y
    assert reading[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert reading[0, 1] == pytest.approx(np.cos(0.25 * np.pi), rel=1e-12)


def test_readings_match_sequential_composition(fodo):
    X0 = np.array([1e-3, 0.0, -2e-3, 1e-4])
    X = X0.copy()
    expected = []
    for e in fodo.elements:
        X = e.tm(X)
        expected.append([X[0], X[2]])
    readings = lattice.observe_one_turn(fodo, X0).values[:, [0, 2]]
    assert np.allclose(readings, expected, rtol=0, atol=0)


def test_observe_one_turn_masks_velocities(fodo):
    obs = lattice.observe_one_turn(fodo, [1e-3, 0.0, 1e-3, 0.0])
    assert obs.taps == fodo.monitors
    assert np.all(obs.mask[:, [0, 2]])
    assert not np.any(obs.mask[:, [1, 3]])
    assert np.all(np.isnan(obs.values[:, [1, 3]]))


def test_identity_ring_multi_turn_constant():
    lat = lattice.Lattice(elements=[identity_element("i")], monitors=(1,))
    series = lattice.multi_turn(lat, [0.1, 0.2, 0.3, 0.4], 70)
    assert np.allclose(series.states, [0.1, 0.2, 0.3, 0.4], atol=1e-15)


def test_rotation_ring_traces_circle():
    lat = lattice.Lattice(
        elements=[lattice.rotation_element("r", 0.123, 0.321)], monitors=(1,)
    )
    series = lattice.multi_turn(lat, [0.7, 0.0, 0.0, 0.4], 200)
    rx = series.states[:, 0] ** 2 + series.states[:, 1] ** 2
    ry = series.states[:, 2] ** 2 + series.states[:, 3] ** 2
    assert np.allclose(rx, 0.49, rtol=1e-12)
    assert np.allclose(ry, 0.16, rtol=1e-12)


def test_multi_turn_needs_ring(fodo):
    line = lattice.Lattice(elements=fodo.elements, monitors=fodo.monitors, ring=False)
    with pytest.raises(ValueError, match="ring"):
        lattice.multi_turn(line, [0.0, 0.0, 0.0, 0.0], 10)


def test_multi_turn_divergence_reports_turn_index():
    ws = [np.zeros((4, 1)), np.eye(4), np.zeros((4, 10))]
    mb = maps.TaylorMap(dim=4, order=2, weights=tuple(w.copy() for w in ws))
    w2 = np.zeros((4, 10))
    w2[0, 0] = 4.0  # x <- 4 x^2: blows up from x=3
    blow = maps.TaylorMap(dim=4, order=2, weights=(ws[0], np.eye(4), w2))
    lat = lattice.Lattice(elements=[lattice.LatticeElement(label="b", tm=blow)],
                          monitors=(1,))
    with pytest.raises(
        ode.FlowDivergenceError, match=r"^turn \d+: tracking diverged in element 0 \('b'\)$"
    ) as err:
        lattice.multi_turn(lat, [3.0, 0.0, 0.0, 0.0], 50)
    assert err.value.layer == 1
    # a later element that overflows on the first turn: x <- 1e300 x^2
    w2[0, 0] = 1e300
    huge = maps.TaylorMap(dim=4, order=2, weights=(ws[0], np.eye(4), w2))
    two = lattice.Lattice(
        elements=[lattice.LatticeElement(label="m", tm=mb),
                  lattice.LatticeElement(label="h", tm=huge)],
        monitors=(1, 2),
    )
    with pytest.raises(
        ode.FlowDivergenceError, match=r"^turn 1: tracking diverged in element 1 \('h'\)$"
    ) as err:
        lattice.multi_turn(two, [1e5, 0.0, 0.0, 0.0], 50)
    assert err.value.layer == 2
    with pytest.raises(
        ode.FlowDivergenceError, match=r"^tracking diverged in element 1 \('h'\)$"
    ):
        lattice.observe_one_turn(two, [1e5, 0.0, 0.0, 0.0])


def test_500_turns_under_one_second(fodo):
    start = time.perf_counter()
    series = lattice.multi_turn(fodo, [1e-3, 0.0, 1e-3, 0.0], 500)
    elapsed = time.perf_counter() - start
    assert series.n_turns == 500
    assert elapsed < 1.0


def test_multi_turn_matches_composed_one_turn_map(fodo):
    X0 = np.array([5e-4, 0.0, 5e-4, 0.0])
    turns = 20
    series = lattice.multi_turn(fodo, X0, turns)
    composed = lattice.one_turn_map(fodo)
    X = X0.copy()
    errs = []
    for i in range(turns):
        X = composed(X)
        errs.append(np.max(np.abs(X - series.states[i])))
    # composition truncates cross terms of degree > 2; residual ~ |X0|^3 per turn
    assert max(errs) < turns * 10 * np.linalg.norm(X0) ** 3
    assert max(errs) < 1e-7


# --- tune estimation ---------------------------------------------------------


def test_tune_synthetic_tone():
    i = np.arange(512)
    q, degenerate = lattice.estimate_tune(np.cos(2 * np.pi * 0.31 * i + 0.4))
    assert not degenerate
    assert q == pytest.approx(0.31, abs=1e-3)


def test_tune_folds_into_half_band():
    i = np.arange(512)
    q, _ = lattice.estimate_tune(np.cos(2 * np.pi * 0.81 * i))
    assert q == pytest.approx(0.19, abs=1e-3)


def test_tune_constant_series_degenerate():
    q, degenerate = lattice.estimate_tune(np.full(128, 3.7))
    assert q == 0.0 and degenerate


def test_tune_needs_64_samples():
    with pytest.raises(ValueError, match="64"):
        lattice.estimate_tune(np.zeros(63))
    with pytest.raises(ValueError, match="1-D"):
        lattice.estimate_tune(np.zeros((128, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tune_rejects_non_finite_samples(bad):
    signal = np.sin(0.5 * np.arange(128))
    signal[7] = bad
    with pytest.raises(ValueError, match="finite samples"):
        lattice.estimate_tune(signal)


def test_rotation_ring_tunes():
    lat = lattice.Lattice(
        elements=[lattice.rotation_element("r", 0.28, 0.19)], monitors=(1,)
    )
    series = lattice.multi_turn(lat, [1e-3, 0.0, 1e-3, 0.0], 512)
    est = lattice.estimate_tunes(series)
    assert est.qx == pytest.approx(0.28, abs=1e-3)
    assert est.qy == pytest.approx(0.19, abs=1e-3)
    assert not est.degenerate_x and not est.degenerate_y


def test_fodo_fft_tunes_match_linear_tunes(fodo):
    qx, qy = lattice.linear_tunes(fodo)
    assert qx == pytest.approx(FODO_QX, abs=1e-5)
    assert qy == pytest.approx(FODO_QY, abs=1e-5)
    series = lattice.multi_turn(fodo, [1e-3, 0.0, 1e-3, 0.0], 500)
    est = lattice.estimate_tunes(series)
    assert est.qx == pytest.approx(qx, abs=1e-3)
    assert est.qy == pytest.approx(qy, abs=1e-3)


def test_linear_tunes_unstable_raises():
    lat = lattice.Lattice(
        elements=[lattice.quad_element("q", 5.0, 1.0, substeps=50)], monitors=(1,)
    )
    with pytest.raises(ValueError, match="unstable"):
        lattice.linear_tunes(lat)


# --- perturbation ---------------------------------------------------------


def test_perturb_factor_one_is_identity(fodo):
    same = lattice.perturb_element(fodo, 0, 1.0)
    for a, b in zip(same.elements, fodo.elements):
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a.tm.weights, b.tm.weights))


def test_perturb_shifts_tunes_and_stays_symplectic(fodo):
    pert = lattice.perturb_element(fodo, 0, 0.8)
    qx0, qy0 = lattice.linear_tunes(fodo)
    qx1, qy1 = lattice.linear_tunes(pert)
    assert abs(qx1 - qx0) > 1e-3 and abs(qy1 - qy0) > 1e-3
    assert maps.symplectic_penalty(pert.elements[0].tm) <= 1e-8
    # only the scaled element changed
    for j in range(1, fodo.n_elements):
        assert np.array_equal(pert.elements[j].tm.weights[1],
                              fodo.elements[j].tm.weights[1])


def test_perturb_scales_generator_force_rows(fodo):
    pert = lattice.perturb_element(fodo, 0, 0.8)
    gen0 = fodo.elements[0].generator
    gen1 = pert.elements[0].generator
    assert np.allclose(gen1.coeffs[1][[1, 3]], 0.8 * gen0.coeffs[1][[1, 3]])
    assert np.array_equal(gen1.coeffs[1][[0, 2]], gen0.coeffs[1][[0, 2]])


def test_perturb_map_only_element_scales_focusing_entries():
    rot = lattice.rotation_element("r", 0.3, 0.1)
    lat = lattice.Lattice(elements=[rot], monitors=(1,))
    pert = lattice.perturb_element(lat, 0, 0.5)
    w0 = rot.tm.weights[1]
    w1 = pert.elements[0].tm.weights[1]
    assert w1[1, 0] == pytest.approx(0.5 * w0[1, 0])
    assert w1[3, 2] == pytest.approx(0.5 * w0[3, 2])
    assert w1[0, 1] == w0[0, 1]


def test_perturb_validation(fodo):
    with pytest.raises(ValueError, match="out of range"):
        lattice.perturb_element(fodo, 99, 0.8)
    with pytest.raises(ValueError, match="positive"):
        lattice.perturb_element(fodo, 0, 0.0)


# --- fine-tuning ---------------------------------------------------------


def test_to_network_is_untied_with_monitor_taps(fodo):
    net = lattice.to_network(fodo)
    assert net.layer_groups == tuple(range(fodo.n_elements))
    assert all(tm is e.tm for tm, e in zip(net.group_maps, fodo.elements, strict=True))
    assert net.dim == 4 and net.order == fodo.order
    # the chain emits every element boundary; observe_one_turn reads the monitors
    X0 = np.array([1e-3, 0.0, 1e-3, 0.0])
    obs = lattice.observe_one_turn(fodo, X0)
    assert obs.taps == fodo.monitors
    states = network.forward(net, X0)
    assert states.shape == (fodo.n_elements, 4)
    assert np.array_equal(states[[t - 1 for t in obs.taps]][:, [0, 2]],
                          obs.values[:, [0, 2]])


def test_fine_tune_self_observations_is_fixed_point(fodo):
    X0 = np.array([1e-3, 0.0, 1e-3, 0.0])
    obs = lattice.observe_one_turn(fodo, X0)
    # with the penalty disabled the gradient is exactly zero at a perfect fit
    cfg = network.TrainConfig(step_size=1e-3, epochs=30, penalty_rate=0.0)
    tuned, report = lattice.fine_tune(fodo, X0, obs, cfg)
    assert report.data[-1] == 0.0
    for a, b in zip(tuned.elements, fodo.elements):
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a.tm.weights, b.tm.weights))


def test_fine_tune_self_observations_small_drift_with_penalty():
    # quads and drifts only: layer penalties are at integrator noise level,
    # so Adam's epsilon keeps the per-entry drift far below 1e-6
    elements = [
        lattice.quad_element("qf", 0.4, 1.0, substeps=100),
        lattice.drift_element("o1", 1.0, substeps=100),
        lattice.quad_element("qd", -0.45, 1.0, substeps=100),
        lattice.drift_element("o2", 1.0, substeps=100),
    ]
    lat = lattice.Lattice(elements=elements, monitors=(1, 2, 3, 4))
    X0 = np.array([1e-3, 0.0, 1e-3, 0.0])
    obs = lattice.observe_one_turn(lat, X0)
    cfg = network.TrainConfig(step_size=1e-3, epochs=50, penalty_rate=1e-10)
    tuned, _ = lattice.fine_tune(lat, X0, obs, cfg)
    for a, b in zip(tuned.elements, lat.elements):
        for wa, wb in zip(a.tm.weights, b.tm.weights):
            assert np.max(np.abs(wa - wb)) <= 1e-6


def test_fine_tune_reduces_data_term(fodo):
    truth = lattice.perturb_element(fodo, 0, 0.8)
    X0 = np.array([1e-3, 0.0, 1e-3, 0.0])
    obs = lattice.observe_one_turn(truth, X0)
    cfg = network.TrainConfig(step_size=3e-4, epochs=400, penalty_rate=1e-10)
    tuned, report = lattice.fine_tune(fodo, X0, obs, cfg)
    assert report.data[-1] <= report.data[0] / 100.0
    assert tuned.elements[0].generator is None  # tuned maps drop the ODE link
    assert tuned.monitors == fodo.monitors


def test_fine_tune_foreign_taps_rejected(fodo):
    X0 = np.array([1e-3, 0.0, 1e-3, 0.0])
    obs = lattice.observe_one_turn(fodo, X0)
    shifted = network.ObservationSeries(
        taps=tuple(t + 20 for t in obs.taps), values=obs.values, mask=obs.mask
    )
    cfg = network.TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="are not monitors"):
        lattice.fine_tune(fodo, X0, shifted, cfg)
    # a boundary inside the chain that carries no monitor is foreign too
    sparse = lattice.Lattice(elements=fodo.elements, monitors=(2, 4, 9))
    inside = network.ObservationSeries(taps=(2, 3), values=obs.values[[1, 2]],
                                       mask=obs.mask[[1, 2]])
    with pytest.raises(ValueError, match=r"^observation taps \[3\] are not monitors"):
        lattice.fine_tune(sparse, X0, inside, cfg)


def test_fine_tune_penalty_regularizes(fodo):
    truth = lattice.perturb_element(fodo, 0, 0.8)
    X0 = np.array([1e-3, 0.0, 1e-3, 0.0])
    obs = lattice.observe_one_turn(truth, X0)
    final = {}
    for rate in (0.0, 1e-6):
        cfg = network.TrainConfig(step_size=3e-4, epochs=400, penalty_rate=rate)
        tuned, _ = lattice.fine_tune(fodo, X0, obs, cfg)
        final[rate] = sum(maps.symplectic_penalty(e.tm) for e in tuned.elements)
    assert final[1e-6] < final[0.0]
