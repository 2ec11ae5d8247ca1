"""Tests for the layered network: forward unrolling, masked loss, analytic
backpropagation (finite-difference oracle), and one-shot Adam training."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tmnet import basis, lattice, maps, network, ode, systems

from test_basis import jacobian_series


def _random_map(rng, n, k, scale=0.3):
    weights = tuple(
        scale * rng.normal(size=(n, basis.basis_size(n, d))) for d in range(k + 1)
    )
    return maps.TaylorMap(dim=n, order=k, weights=weights)


def _rotation_map(theta, k=2):
    W1 = np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    )
    ws = [np.zeros((2, basis.basis_size(2, d))) for d in range(k + 1)]
    ws[1] = W1
    return maps.TaylorMap(dim=2, order=k, weights=tuple(ws))


def _full_obs(values):
    values = np.asarray(values, dtype=float)
    return network.ObservationSeries(
        taps=tuple(range(1, values.shape[0] + 1)),
        values=values,
        mask=np.ones_like(values, dtype=bool),
    )


def _states(net, W, X0):
    # (states, powers) of one training forward pass, as arrays
    states, rows = network._forward_states(net, network._weight_rows(W),
                                           np.asarray(X0, dtype=float).tolist(), rows=True)
    return np.array(states), np.array(rows)


def _loss(net, X0, obs, penalty_rate):
    # the objective triple (total, data, penalty), as backward evaluates it
    return network.backward(net, network._stack(net), X0, obs, penalty_rate)[1]


# --- construction and forward -------------------------------------------------


def test_build_shared_chain_defaults_and_validation():
    tm = maps.identity_map(2, 2)
    net = network.build_shared_chain(tm, 5)
    assert net.n_layers == 5
    assert (net.dim, net.order) == (2, 2)
    assert net.layer_groups == (0,) * 5
    with pytest.raises(ValueError):
        network.build_shared_chain(tm, 0)


def test_network_validation():
    tm = maps.identity_map(2, 2)
    with pytest.raises(ValueError, match="at least one layer"):
        network.Network(group_maps=[tm], layer_groups=())
    with pytest.raises(ValueError, match="must cover group maps"):
        network.Network(group_maps=[tm, tm], layer_groups=(0, 0))
    # dimension and order are the group maps', so every map must match the first
    with pytest.raises(ValueError, match=r"^group 1 map is \(dim=3, order=2\), "
                                         r"group 0 map is \(dim=2, order=2\)$"):
        network.Network(group_maps=[tm, maps.identity_map(3, 2)], layer_groups=(0, 1))
    with pytest.raises(ValueError, match="order=1"):
        network.Network(group_maps=[tm, maps.identity_map(2, 1)], layer_groups=(1, 0))
    net = network.Network(group_maps=[maps.identity_map(3, 1)], layer_groups=(0, 0))
    assert (net.dim, net.order, net.n_layers) == (3, 1, 2)


def test_identity_chain_emits_input_everywhere():
    net = network.build_shared_chain(maps.identity_map(3, 2), 7)
    X0 = np.array([0.4, -1.1, 2.0])
    out = network.forward(net, X0)
    assert out.shape == (7, 3)
    for row in out:
        assert np.array_equal(row, X0)


def test_two_shared_layers_compose_the_map():
    tm = _random_map(np.random.default_rng(50), 2, 2)
    net = network.build_shared_chain(tm, 2)
    X0 = np.array([0.2, -0.1])
    assert np.allclose(network.forward(net, X0)[1], tm(tm(X0)), rtol=1e-13)


def test_forward_states_equal_repeated_apply():
    # the generated forward pass is the map applied slot after slot, bit
    # for bit, and each slot's monomials are those of its input state
    tm = _random_map(np.random.default_rng(56), 3, 3, scale=0.2)
    net = network.build_shared_chain(tm, 12)
    X = np.array([0.3, -0.1, 0.2])
    states, powers = _states(net, network._stack(net), X)
    assert states.shape == (13, 3) and powers.shape == (12, 20)
    assert states[0].tobytes() == X.tobytes()
    for j in range(12):
        assert powers[j].tobytes() == basis.monomials(X, 3).tobytes(), j
        X = tm.apply(X)
        assert states[j + 1].tobytes() == X.tobytes(), j
    assert network.forward(net, states[0]).tobytes() == states[1:].tobytes()


def test_forward_rows_as_lists_are_the_buffers_floats():
    # the training pass's float rows are those of a plain pass: the states
    # of the states-only pass that forward and tracking run, and each
    # slot's monomials as basis.monomials forms them
    tm = _random_map(np.random.default_rng(57), 2, 3, scale=0.2)
    net = network.build_shared_chain(tm, 7)
    X = [0.3, -0.1]
    weights = network._weight_rows(network._stack(net))
    state_rows, power_rows = network._forward_states(net, weights, X, rows=True)
    assert state_rows == network._forward_states(net, weights, X)
    assert power_rows == [basis.monomials(np.array(x), 3).tolist() for x in state_rows[:-1]]
    assert np.array(state_rows[1:]).tobytes() == network.forward(net, np.array(X)).tobytes()


def test_data_term_equals_per_tap_loop():
    # the masked residual over all taps at once gives the per-tap loop's
    # error and seeds bit for bit, rows without observed entries included
    rng = np.random.default_rng(57)
    tm = _random_map(rng, 4, 2, scale=0.2)
    net = network.build_shared_chain(tm, 9)
    X0 = np.array([0.3, -0.1, 0.2, 0.05])
    values = rng.normal(size=(5, 4))
    mask = rng.random((5, 4)) < 0.5
    mask[1] = False
    mask[4, 0] = True
    obs = network.ObservationSeries(taps=(2, 3, 5, 8, 9), values=values, mask=mask)
    W = network._stack(net)
    states, powers = _states(net, W, X0)
    data, seeds, _ = network._reverse_function(4, 2)(
        W.reshape(1, -1).tolist(), net.layer_groups, powers.tolist(), states.tolist(),
        obs.rows, obs.observed_count)
    seeds = np.array(seeds)
    n_obs = obs.observed_count
    sq, want = 0.0, np.zeros((10, 4))
    for r, t in enumerate(obs.taps):
        m = obs.mask[r]
        if m.any():
            diff = states[t][m] - obs.values[r][m]
            for di in diff.tolist():
                sq += di * di
            want[t][m] = 2.0 * diff / n_obs
    assert seeds.shape == states.shape
    assert seeds.tobytes() == want.tobytes()
    assert data == sq / n_obs


def test_forward_rejects_wrong_dimension():
    net = network.build_shared_chain(maps.identity_map(2, 2), 3)
    with pytest.raises(ValueError):
        network.forward(net, np.array([1.0, 2.0, 3.0]))
    # a non-finite start is bad input, not a divergence of the chain
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="X0 must be finite"):
            network.forward(net, np.array([bad, 0.0]))


def test_forward_divergence_raises():
    W2 = np.zeros((2, 3))
    W2[0, 0] = W2[1, 2] = 4.0
    tm = maps.TaylorMap(
        dim=2, order=2, weights=(np.zeros((2, 1)), np.eye(2), W2)
    )
    net = network.build_shared_chain(tm, 60)
    X0 = np.array([3.0, 3.0])
    with pytest.raises(ode.FlowDivergenceError) as err:
        network.forward(net, X0)
    layer = err.value.layer
    assert 1 < layer <= 60
    last = network.forward(network.build_shared_chain(tm, layer - 1), X0)[-1]
    assert str(err.value) == (
        f"network state diverged at layer {layer} "
        f"(last finite state norm {math.hypot(*last):.6g})"
    )


def test_divergence_found_after_the_chain_names_the_first_overflowing_layer():
    # x <- 1e100 x: finite up to 2e300 after layer 3, infinite from layer 4;
    # the check runs once after all slots, so the later slots see inf and
    # nan, and still no RuntimeWarning may escape
    tm = maps.TaylorMap(dim=4, order=1, weights=(np.zeros((4, 1)), 1e100 * np.eye(4)))
    X0 = np.array([1.0, -2.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ode.FlowDivergenceError) as err:
            network.forward(network.build_shared_chain(tm, 8), X0)
        before = network.forward(network.build_shared_chain(tm, 3), X0)
    assert err.value.layer == 4
    assert before.tolist() == [[1e100, -2e100, 0.0, 0.0], [1e200, -2e200, 0.0, 0.0],
                               [1e300, -2e300, 0.0, 0.0]]
    # the norm of the last finite state does not overflow with its squares
    assert str(err.value) == (
        f"network state diverged at layer 4 (last finite state norm {math.sqrt(5) * 1e300:.6g})"
    )
    # tracking names the turn and the element: identity, then the blow-up
    ring = lattice.Lattice(
        elements=[lattice.LatticeElement(label="m", tm=maps.identity_map(4, 1)),
                  lattice.LatticeElement(label="h", tm=tm)],
        monitors=(1, 2),
    )
    with pytest.raises(
        ode.FlowDivergenceError, match=r"^turn 4: tracking diverged in element 1 \('h'\)$"
    ) as err:
        lattice.multi_turn(ring, X0, 10)
    assert err.value.layer == 2


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data(), st.integers(1, 6), st.integers(1, 3), st.integers(0, 300))
def test_divergence_names_the_first_layer_where_repeated_apply_overflows(data, n, k, e):
    # maps scaled by 10^e overflow within a few slots: a chain and a ring
    # name the first slot where applying the map slot after slot gives a
    # non-finite state, and a chain reports the norm of the state before it
    coeff = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    scale = 10.0**e

    def scaled(dim):
        return maps.TaylorMap(dim=dim, order=k, weights=tuple(
            scale * b for b in _draw_blocks(data, dim, k, coeff)))

    def first_non_finite(tms, x, slots):
        # (slot, state before it), or None, applying tms in turn
        for j in range(1, slots + 1):
            y = tms[(j - 1) % len(tms)].apply(x)
            if not np.isfinite(y).all():
                return j, x
            x = y
        return None

    tm = scaled(n)
    X0 = data.draw(hnp.arrays(np.float64, (n,), elements=st.floats(-1, 1)))
    net = network.build_shared_chain(tm, 8)
    want = first_non_finite([tm], X0, 8)
    if want is None:
        assert np.isfinite(network.forward(net, X0)).all()
    else:
        with pytest.raises(ode.FlowDivergenceError) as err:
            network.forward(net, X0)
        layer, last = want
        assert err.value.layer == layer
        assert str(err.value) == (f"network state diverged at layer {layer} "
                                  f"(last finite state norm {math.hypot(*last):.6g})")

    elements = [maps.identity_map(4, k), scaled(4)]
    ring = lattice.Lattice(elements=[lattice.LatticeElement(label=f"e{j}", tm=e)
                                     for j, e in enumerate(elements)], monitors=(1,))
    X4 = data.draw(hnp.arrays(np.float64, (4,), elements=st.floats(-1, 1)))
    want = first_non_finite(elements, X4, 8)
    if want is None:
        assert np.isfinite(lattice.multi_turn(ring, X4, 4).states).all()
    else:
        turn, j = divmod(want[0] - 1, 2)
        message = rf"^turn {turn + 1}: tracking diverged in element {j} \('e{j}'\)$"
        with pytest.raises(ode.FlowDivergenceError, match=message) as err:
            lattice.multi_turn(ring, X4, 4)
        assert err.value.layer == j + 1


def test_pendulum_chain_oscillates_without_amplitude_drift():
    # ideal (undamped) model: unrolling 49 steps keeps the oscillation
    # amplitude constant to well under 2%
    tm = ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1))
    net = network.build_shared_chain(tm, 49)
    out = network.forward(net, np.array([0.09, 0.0]))
    om = np.sqrt(9.8 / 0.3)
    energy = out[:, 0] ** 2 + (out[:, 1] / om) ** 2
    assert np.all(energy / 0.09**2 > 0.98)
    assert np.all(energy / 0.09**2 < 1.02)
    # the angle really oscillates: both signs visited repeatedly
    assert (out[:, 0] > 0.05).sum() > 5
    assert (out[:, 0] < -0.05).sum() > 5


def test_forward_matches_dense_integration_for_small_states():
    sys = systems.pendulum()
    tm = ode.ode_to_map(sys, ode.FlowConfig(0.1))
    net = network.build_shared_chain(tm, 10)
    X0 = np.array([0.3, 0.0])
    ref = ode.reference_trajectory(sys, X0, 0.1, 10)
    assert np.max(np.abs(network.forward(net, X0) - ref[1:])) < 2e-4


def test_predict_trajectory_projects_components():
    tm = ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1))
    net = network.build_shared_chain(tm, 5)
    X0 = np.array([0.09, 0.0])
    full = network.forward(net, X0)
    angles = network.predict_trajectory(net, X0, components=[0])
    assert angles.shape == (5, 1)
    assert np.array_equal(angles[:, 0], full[:, 0])
    assert np.array_equal(network.predict_trajectory(net, X0), full)


# --- observations and loss ------------------------------------------------------


def test_observation_series_validation():
    with pytest.raises(ValueError):
        network.ObservationSeries(taps=(1, 1), values=np.zeros((2, 2)),
                                  mask=np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        network.ObservationSeries(taps=(0,), values=np.zeros((1, 2)),
                                  mask=np.ones((1, 2), dtype=bool))
    with pytest.raises(ValueError):
        network.ObservationSeries(taps=(1,), values=np.array([[np.nan, 0.0]]),
                                  mask=np.ones((1, 2), dtype=bool))
    obs = network.ObservationSeries(
        taps=(1, 3),
        values=np.array([[1.0, 7.0], [2.0, 9.0]]),
        mask=np.array([[True, False], [True, False]]),
    )
    assert obs.observed_count == 2
    assert np.isnan(obs.values[0, 1])


def test_observation_series_arrays_are_read_only_copies():
    # rows is built once, so values and mask must not change under it
    values = np.array([[1.0, 7.0], [2.0, 9.0]])
    mask = np.array([[True, False], [True, True]])
    obs = network.ObservationSeries(taps=(1, 3), values=values, mask=mask)
    with pytest.raises(ValueError, match="read-only"):
        obs.mask[0, 1] = True
    with pytest.raises(ValueError, match="read-only"):
        obs.values[1, 0] = 5.0
    # the caller's arrays stay writable and are not shared
    mask[1] = False
    values[0, 0] = 3.0
    assert obs.observed_count == 3
    assert obs.values[0, 0] == 1.0 and obs.mask[1].all()
    assert obs.rows[1] == (3, 2.0, 9.0, True, True)


def _observe_at(taps):
    # a series knows no last slot; the network it is fitted to does
    obs = network.ObservationSeries(taps=taps, values=np.zeros((len(taps), 2)),
                                    mask=np.ones((len(taps), 2), dtype=bool))
    chain = network.build_shared_chain(maps.identity_map(2, 1), 3)
    _loss(chain, np.zeros(2), obs, 0.0)


def _chain_trained_at(taps):
    # training checks the taps against its chain before the first epoch, so
    # also when there is none
    obs = network.ObservationSeries(taps=taps, values=np.zeros((len(taps), 2)),
                                    mask=np.ones((len(taps), 2), dtype=bool))
    chain = network.build_shared_chain(maps.identity_map(2, 1), 3)
    network.train_one_shot(chain, np.zeros(2), obs, network.TrainConfig(epochs=0))


def _ring_monitored_at(monitors):
    elements = [lattice.rotation_element(f"r{j}", 0.1, 0.2) for j in range(3)]
    lattice.Lattice(elements=elements, monitors=monitors)


@pytest.mark.parametrize("bounds", [(0,), (2, 2), (3, 1), (4,), (1.7,)])
@pytest.mark.parametrize("make, field", [
    (_observe_at, "tap"), (_chain_trained_at, "taps"), (_ring_monitored_at, "monitors"),
], ids=["ObservationSeries", "Network", "Lattice"])
def test_slot_boundaries_follow_one_rule(make, field, bounds):
    # three slots: boundaries are integers in [1, 3] and strictly increase
    with pytest.raises(ValueError, match=f"^(observation )?{field}"):
        make(bounds)
    make((1, 3))


def test_loss_zero_for_perfect_predictions():
    tm = _random_map(np.random.default_rng(51), 2, 2)
    net = network.build_shared_chain(tm, 4)
    X0 = np.array([0.1, 0.2])
    obs = _full_obs(network.forward(net, X0))
    total, data, _ = _loss(net, X0, obs, penalty_rate=0.0)
    assert total == 0.0 and data == 0.0


def test_loss_is_masked_mean_with_hand_computed_value():
    net = network.build_shared_chain(maps.identity_map(2, 2), 3)
    X0 = np.array([1.0, -1.0])
    obs = network.ObservationSeries(
        taps=(1, 3),
        values=np.array([[1.5, 0.0], [0.0, -0.5]]),
        mask=np.array([[True, False], [True, True]]),
    )
    total, data, penalty = _loss(net, X0, obs, penalty_rate=0.0)
    # residuals: (1.0-1.5), (1.0-0.0), (-1.0-(-0.5)) -> mean of squares
    want = (0.25 + 1.0 + 0.25) / 3
    assert data == pytest.approx(want, rel=1e-13)
    assert total == data
    assert penalty == 0.0


def test_loss_penalty_sums_distinct_groups_once():
    rng = np.random.default_rng(52)
    a = _random_map(rng, 2, 2)
    b = _random_map(rng, 2, 2)
    net = network.Network(group_maps=[a, b], layer_groups=(0, 1, 0, 1))
    X0 = np.array([0.05, 0.05])
    obs = network.ObservationSeries(
        taps=(4,), values=np.zeros((1, 2)), mask=np.ones((1, 2), dtype=bool)
    )
    lam = 0.37
    total, data, penalty = _loss(net, X0, obs, penalty_rate=lam)
    want = maps.symplectic_penalty(a) + maps.symplectic_penalty(b)
    assert penalty == pytest.approx(want, rel=1e-13)
    assert total == pytest.approx(data + lam * want, rel=1e-13)


def test_group_penalties_add_left_to_right_on_every_python():
    # penalties of about 1, 1e-16 and 1e-16: each small one is below half an
    # ulp of the first, so adding left to right keeps the first, while a
    # compensated sum (builtin sum() from Python 3.12 on) rounds up one ulp
    scales = (math.sqrt(1.75), 1.0 + 3.5e-9, 1.0 + 3.5e-9)
    group_maps = [maps.TaylorMap(dim=2, order=1, weights=(np.zeros((2, 1)), s * np.eye(2)))
                  for s in scales]
    per_group = [maps.symplectic_penalty(tm) for tm in group_maps]
    assert per_group[0] == pytest.approx(1.125) and per_group[1] == pytest.approx(1e-16, rel=0.1)
    plain = per_group[0] + per_group[1] + per_group[2]
    assert plain != math.fsum(per_group)
    net = network.Network(group_maps=group_maps, layer_groups=(0, 1, 2))
    X0 = np.array([0.1, -0.2])
    obs = _full_obs(network.forward(net, X0) + 0.01)
    assert _loss(net, X0, obs, 1.0)[2] == plain
    # inside the epoch at rate 1, from the flushed snapshots at rate 0
    for rate in (1.0, 0.0):
        _, report = network.train_one_shot(net, X0, obs, network.TrainConfig(
            epochs=1, penalty_rate=rate))
        assert report.penalty[0] == plain
        assert report.total[0] == report.data[0] + rate * plain


def test_loss_rejects_foreign_taps_and_empty_observations():
    net = network.build_shared_chain(maps.identity_map(2, 2), 3)
    X0 = np.zeros(2)
    with pytest.raises(ValueError, match=r"^observation taps must lie in \[1, 3\]"):
        _loss(net, X0, _full_obs(np.zeros((4, 2))), 0.0)
    empty = network.ObservationSeries(
        taps=(1,), values=np.zeros((1, 2)), mask=np.zeros((1, 2), dtype=bool)
    )
    with pytest.raises(ValueError, match="no observed"):
        _loss(net, X0, empty, 0.0)


# --- gradients --------------------------------------------------------------------


def test_backward_zero_gradient_at_perfect_fit():
    tm = _random_map(np.random.default_rng(53), 2, 2)
    net = network.build_shared_chain(tm, 3)
    X0 = np.array([0.1, -0.2])
    obs = _full_obs(network.forward(net, X0))
    grads, (total, data, penalty) = network.backward(net, network._stack(net), X0, obs, 0.0)
    assert total == 0.0
    assert grads.shape == (1, 2, 6) and np.all(grads == 0.0)


def test_backward_single_layer_hand_derived():
    # scalar quadratic layer, one observed tap:
    # L = (w0 + w1 v + w2 v^2 - y)^2, dL/dw_d = 2 r v^d
    w0, w1, w2, v, y = 0.3, 1.1, -0.4, 0.7, 0.9
    tm = maps.TaylorMap(
        dim=1, order=2,
        weights=(np.array([[w0]]), np.array([[w1]]), np.array([[w2]])),
    )
    net = network.build_shared_chain(tm, 1)
    obs = _full_obs(np.array([[y]]))
    grads, (total, data, _) = network.backward(
        net, network._stack(net), np.array([v]), obs, 0.0
    )
    r = w0 + w1 * v + w2 * v**2 - y
    assert data == pytest.approx(r * r, rel=1e-13)
    _, sl = basis._stacked_exponents(1, 2)
    for d in range(3):
        assert grads[0][:, sl[d]][0, 0] == pytest.approx(2 * r * v**d, rel=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(54)
    tm = _random_map(rng, 2, 2, scale=0.25)
    net = network.build_shared_chain(tm, 3)
    X0 = np.array([0.3, -0.2])
    values = network.forward(net, X0) + 0.1 * rng.normal(size=(3, 2))
    mask = np.array([[True, False], [False, True], [True, True]])
    obs = network.ObservationSeries(taps=(1, 2, 3), values=values, mask=mask)
    lam = 1e-3
    grads, _ = network.backward(net, network._stack(net), X0, obs, lam)
    _, sl = basis._stacked_exponents(2, 2)
    h = 1e-6
    for d in range(3):
        for i in range(2):
            for p in range(basis.basis_size(2, d)):
                bumped = [w.copy() for w in tm.weights]
                bumped[d][i, p] += h
                up = network.build_shared_chain(
                    maps.TaylorMap(dim=2, order=2, weights=tuple(bumped)), 3
                )
                bumped[d][i, p] -= 2 * h
                dn = network.build_shared_chain(
                    maps.TaylorMap(dim=2, order=2, weights=tuple(bumped)), 3
                )
                fd = (
                    _loss(up, X0, obs, lam)[0]
                    - _loss(dn, X0, obs, lam)[0]
                ) / (2 * h)
                assert grads[0][:, sl[d]][i, p] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_shared_gradient_equals_sum_of_untied_slots():
    rng = np.random.default_rng(55)
    tm = _random_map(rng, 2, 2, scale=0.25)
    shared = network.build_shared_chain(tm, 4)
    untied = network.Network(group_maps=[tm, tm, tm, tm], layer_groups=(0, 1, 2, 3))
    X0 = np.array([0.2, 0.1])
    values = network.forward(shared, X0) + 0.05 * rng.normal(size=(4, 2))
    obs = _full_obs(values)
    g_shared, _ = network.backward(shared, network._stack(shared), X0, obs, 0.0)
    g_untied, _ = network.backward(untied, network._stack(untied), X0, obs, 0.0)
    _, sl = basis._stacked_exponents(2, 2)
    for d in range(3):
        summed = sum(g_untied[g][:, sl[d]] for g in range(4))
        assert np.allclose(g_shared[0][:, sl[d]], summed, rtol=1e-10, atol=1e-12)


def _numpy_backward(net, W, X0, obs, penalty_rate):
    """backward as the numpy loop it replaced: the masked residual at the
    taps, each slot's Jacobian from the Jacobian series at its input
    monomials, the adjoint recursion as jac.T @ adj from the last slot to
    the first, and one weight-gradient product per degree."""
    states, powers = _states(net, W, X0)
    n, k = net.dim, net.order
    taps = list(obs.taps)
    diff = np.where(obs.mask, states[taps] - obs.values, 0.0)
    seeds = np.zeros_like(states)
    seeds[taps] = 2.0 * diff / obs.observed_count
    data = 0.0
    for di in diff.ravel().tolist():
        data += di * di
    data /= obs.observed_count
    _, sl = basis._stacked_exponents(n, k)
    series = np.concatenate(jacobian_series([W[..., s] for s in sl], n, k), -1)
    adjoints = np.zeros((net.n_layers, n))
    adj = np.zeros(n)
    for j in range(net.n_layers, 0, -1):
        adj = adj + seeds[j]
        adjoints[j - 1] = adj
        jac = series[net.layer_groups[j - 1]] @ powers[j - 1, :series.shape[-1]]
        adj = jac.T @ adj
    onehot = np.array(net.layer_groups) == np.arange(len(W))[:, None]
    grads = np.concatenate([(onehot[:, None, :] * adjoints.T) @ powers[:, s] for s in sl], -1)
    return network._with_penalty(data, grads, W, n, k, penalty_rate)


def _adjoint_case(n, k, layer_groups):
    rng = np.random.default_rng(60 + n)
    groups = max(layer_groups) + 1
    net = network.Network(group_maps=[_random_map(rng, n, k, scale=0.2) for _ in range(groups)],
                          layer_groups=layer_groups)
    X0 = 0.3 * rng.normal(size=n)
    values = network.forward(net, X0) + 0.05 * rng.normal(size=(7, n))
    mask = rng.random((7, n)) < 0.6
    mask[0] = True
    obs = network.ObservationSeries(taps=tuple(range(1, 8)), values=values, mask=mask)
    return net, network._stack(net), X0, obs


def _exact_gradient(net, W, X0, obs):
    """The data gradient in W in exact rational arithmetic on the float
    forward states, rounded to floats once at the end."""
    states, _ = _states(net, W, X0)
    E = basis._stacked_exponents(net.dim, net.order)[0].astype(int).tolist()

    def monomial(x, e):
        return math.prod((xi ** ei for xi, ei in zip(x, e)), start=Fraction(1))

    S = [[Fraction(v) for v in row] for row in states.tolist()]
    seeds = [[Fraction(0)] * net.dim for _ in S]
    for t, v, m in zip(obs.taps, obs.values.tolist(), obs.mask.tolist()):
        seeds[t] = [2 * (S[t][i] - Fraction(v[i])) / obs.observed_count if m[i] else 0
                    for i in range(net.dim)]
    grads = [[[Fraction(0)] * len(E) for _ in range(net.dim)] for _ in W]
    a = [Fraction(0)] * net.dim
    for j in range(net.n_layers, 0, -1):
        g, x = net.layer_groups[j - 1], S[j - 1]
        a = [ai + si for ai, si in zip(a, seeds[j])]
        for r, row in enumerate(grads[g]):
            for s, e in enumerate(E):
                row[s] += a[r] * monomial(x, e)
        c = [sum((a[r] * Fraction(W[g, r, s]) for r in range(net.dim)), Fraction(0))
             for s in range(len(E))]
        a = [sum((e[i] * c[s] * monomial(x, [ej - (q == i) for q, ej in enumerate(e)])
                  for s, e in enumerate(E) if e[i]), Fraction(0)) for i in range(net.dim)]
    return np.array([[[float(v) for v in row] for row in g] for g in grads])


# The generated pass and the numpy loop add the adjoint's terms in different
# orders, so their adjoints differ in the last bits.  In these two cases a
# gradient entry that cancels to a small share of its terms keeps that
# rounding and misses rtol 1e-13 at atol 0 (by up to 4.2e-10 relative);
# test_float_adjoints_round_like_exact_arithmetic holds both paths within
# rounding of the exact gradient there.
_ORDER_MISMATCH = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="summation order: a cancelled entry differs in its last bits")
_ADJOINT_CASES = [
    pytest.param(groups, n, k, id=f"{name}-{n}" if k == 2 else f"{name}-{n}-k{k}",
                 marks=_ORDER_MISMATCH if (name, n, k) in [("shared", 5, 3), ("untied", 6, 3)]
                 else ())
    for name, groups in [("shared", (0,) * 7), ("untied", (0, 1, 0, 2, 1, 2, 0))]
    for k in (2, 1, 3) for n in (1, 3, 4, 5, 6)]


@pytest.mark.parametrize("layer_groups, n, k", _ADJOINT_CASES)
def test_float_adjoints_match_the_numpy_loop(n, k, layer_groups):
    # every dimension up to 6 at orders 1-3, (6, 3) the largest generated pass
    net, W, X0, obs = _adjoint_case(n, k, layer_groups)
    got, losses = network.backward(net, W, X0, obs, 1e-3)
    want, want_losses = _numpy_backward(net, W, X0, obs, 1e-3)
    assert losses == want_losses
    assert np.abs(want).max() > 0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("layer_groups, n, k",
                         [pytest.param(*case.values, id=case.id) for case in _ADJOINT_CASES])
def test_float_adjoints_round_like_exact_arithmetic(n, k, layer_groups):
    # both passes lie within a few roundings of the largest entry of the
    # exact gradient in every case, so the mismatches above are ones of
    # order, not of error; unlike the comparison above, this check does not
    # depend on how the BLAS sums
    net, W, X0, obs = _adjoint_case(n, k, layer_groups)
    exact = _exact_gradient(net, W, X0, obs)
    bound = 4 * np.finfo(float).eps * np.abs(exact).max()
    for grads in (network.backward(net, W, X0, obs, 0.0)[0],
                  _numpy_backward(net, W, X0, obs, 0.0)[0]):
        assert np.abs(grads - exact).max() <= bound


def test_backward_matches_central_differences_on_untied_network():
    # groups shared by some slots and not others, partial taps and mask,
    # and a penalty gradient, at n=4 and k=3
    rng = np.random.default_rng(57)
    n, k = 4, 3
    group_maps = [_random_map(rng, n, k, scale=0.15) for _ in range(3)]
    layer_groups = (0, 1, 0, 2, 1)
    taps = (2, 4, 5)

    def make(gmaps):
        return network.Network(group_maps=gmaps, layer_groups=layer_groups)

    net = make(group_maps)
    X0 = np.array([0.3, -0.2, 0.1, 0.25])
    values = network.forward(net, X0)[[t - 1 for t in taps]] + 0.05 * rng.normal(size=(3, n))
    mask = np.array([[True, False, True, False], [True, True, False, True],
                     [False, True, True, True]])
    obs = network.ObservationSeries(taps=taps, values=values, mask=mask)
    lam = 1e-3
    grads, _ = network.backward(net, network._stack(net), X0, obs, lam)
    _, sl = basis._stacked_exponents(n, k)
    h = 1e-6
    for g in range(3):
        for d in range(k + 1):
            for i in range(n):
                for p in range(basis.basis_size(n, d)):
                    fd = []
                    for step in (h, -h):
                        bumped = [w.copy() for w in group_maps[g].weights]
                        bumped[d][i, p] += step
                        gmaps = list(group_maps)
                        gmaps[g] = maps.TaylorMap(dim=n, order=k, weights=tuple(bumped))
                        fd.append(_loss(make(gmaps), X0, obs, lam)[0])
                    assert grads[g][:, sl[d]][i, p] == pytest.approx(
                        (fd[0] - fd[1]) / (2 * h), rel=1e-5, abs=1e-9), (g, d, i, p)


# --- training ---------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        network.TrainConfig(step_size=0.0)
    with pytest.raises(ValueError):
        network.TrainConfig(beta2=1.0)
    with pytest.raises(ValueError):
        network.TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        network.TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        network.TrainConfig(penalty_rate=-1e-9)
    # non-finite and non-numeric settings, each named
    for name in ("step_size", "clip_norm", "penalty_rate", "beta2"):
        for value in (np.nan, np.inf, -np.inf, "x", None, True):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                network.TrainConfig(**{name: value})
    with pytest.raises(ValueError, match="^train_degrees must be None or a collection"):
        network.TrainConfig(train_degrees=1)
    # Adam's beta1 and epsilon are constants, not settings
    for name in ("beta1", "epsilon"):
        with pytest.raises(TypeError):
            network.TrainConfig(**{name: 0.5})


def test_zero_epochs_leaves_network_unchanged():
    tm = _random_map(np.random.default_rng(56), 2, 2)
    net = network.build_shared_chain(tm, 3)
    obs = _full_obs(np.zeros((3, 2)))
    trained, report = network.train_one_shot(
        net, np.array([0.1, 0.1]), obs, network.TrainConfig(epochs=0)
    )
    for a, b in zip(trained.group_maps[0].weights, tm.weights):
        assert np.array_equal(a, b)
    assert report.total.size == 0


def test_training_does_not_mutate_input_network():
    tm = _random_map(np.random.default_rng(57), 1, 2)
    net = network.build_shared_chain(tm, 2)
    obs = _full_obs(np.array([[0.5], [0.4]]))
    network.train_one_shot(
        net, np.array([0.3]), obs, network.TrainConfig(epochs=20, penalty_rate=0.0)
    )
    for a, b in zip(net.group_maps[0].weights, tm.weights):
        assert np.array_equal(a, b)


def test_training_is_deterministic():
    tm = ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1))
    net = network.build_shared_chain(tm, 20)
    obs = systems.synthesize(
        systems.damped_pendulum_rhs(), np.array([0.09, 0.0]), 0.1, 20,
        mask=np.array([True, False]),
    )
    cfg = network.TrainConfig(epochs=30, penalty_rate=0.0)
    _, r1 = network.train_one_shot(net, np.array([0.09, 0.0]), obs, cfg)
    _, r2 = network.train_one_shot(net, np.array([0.09, 0.0]), obs, cfg)
    assert np.array_equal(r1.total, r2.total)
    assert np.array_equal(r1.data, r2.data)
    assert np.array_equal(r1.penalty, r2.penalty)


def test_one_shot_fine_tuning_reduces_training_loss():
    # ideal pendulum model tuned on one damped oscillation, angles only
    tm = ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1))
    net = network.build_shared_chain(tm, 49)
    obs = systems.synthesize(
        systems.damped_pendulum_rhs(), np.array([0.09, 0.0]), 0.1, 49,
        mask=np.array([True, False]),
    )
    cfg = network.TrainConfig(epochs=200, penalty_rate=0.0)
    trained, report = network.train_one_shot(net, np.array([0.09, 0.0]), obs, cfg)
    assert report.total.shape == (200,)
    assert report.total[-1] <= 0.1 * report.total[0]
    # rate is zero, so total and data coincide
    assert np.allclose(report.total, report.data, rtol=1e-12)
    post = _loss(trained, np.array([0.09, 0.0]), obs, 0.0)[0]
    assert post <= 0.1 * report.total[0]


def test_loss_report_parts_sum_with_nonzero_rate():
    tm = _random_map(np.random.default_rng(58), 2, 2, scale=0.2)
    net = network.build_shared_chain(tm, 3)
    obs = _full_obs(0.1 * np.ones((3, 2)))
    cfg = network.TrainConfig(epochs=25, penalty_rate=1e-4)
    _, report = network.train_one_shot(net, np.array([0.05, 0.05]), obs, cfg)
    assert np.allclose(
        report.total, report.data + 1e-4 * report.penalty, rtol=1e-10, atol=1e-18
    )


def test_penalty_stays_bounded_when_fitting_symplectic_data():
    # observations from an exact rotation; start from a perturbed copy and
    # check the regularizer keeps the penalty within 10x its initial value
    rot = _rotation_map(0.3)
    X0 = np.array([0.2, 0.1])
    obs = _full_obs(network.forward(network.build_shared_chain(rot, 8), X0))
    rng = np.random.default_rng(59)
    perturbed = maps.TaylorMap(
        dim=2, order=2,
        weights=tuple(w + 0.01 * rng.normal(size=w.shape) for w in rot.weights),
    )
    net = network.build_shared_chain(perturbed, 8)
    cfg = network.TrainConfig(epochs=200, penalty_rate=1e-4)
    _, report = network.train_one_shot(net, X0, obs, cfg)
    assert report.penalty.max() <= 10.0 * report.penalty[0]
    assert report.data[-1] < report.data[0]


def test_training_checkpoints_capture_snapshots():
    tm = _random_map(np.random.default_rng(60), 1, 2)
    net = network.build_shared_chain(tm, 2)
    obs = _full_obs(np.array([[0.5], [0.4]]))
    cfg = network.TrainConfig(epochs=40, penalty_rate=0.0)
    trained, report = network.train_one_shot(
        net, np.array([0.3]), obs, cfg, checkpoint_epochs=(10, 40)
    )
    assert set(report.checkpoints) == {10, 40}
    mid = report.checkpoints[10][0]
    assert not np.array_equal(mid.weights[0], trained.group_maps[0].weights[0])
    for a, b in zip(report.checkpoints[40][0].weights, trained.group_maps[0].weights):
        assert np.array_equal(a, b)


def _per_block_adam(net, X0, obs, cfg, checkpoint_epochs):
    """One-shot training as a loop over groups and degree blocks that
    rebuilds every TaylorMap each epoch: the reference for the stacked loop.
    The clipping norm is summed over the gradient in the stacked order."""
    _, sl = basis._stacked_exponents(net.dim, net.order)
    beta1, epsilon = network.ADAM_BETA1, network.ADAM_EPSILON
    group_maps = list(net.group_maps)
    weights = [[w.copy() for w in tm.weights] for tm in group_maps]
    m = [[np.zeros_like(w) for w in ws] for ws in weights]
    v = [[np.zeros_like(w) for w in ws] for ws in weights]
    history, checkpoints, clipped = [], {}, 0
    for epoch in range(1, cfg.epochs + 1):
        current = network.Network(group_maps=group_maps, layer_groups=net.layer_groups)
        stacked, losses = network.backward(
            current, network._stack(current), X0, obs, cfg.penalty_rate
        )
        history.append(losses)
        grads = [[g[:, s].copy() for s in sl] for g in stacked]
        for group in grads:
            for d in range(len(group)):
                if cfg.train_degrees is not None and d not in cfg.train_degrees:
                    group[d][:] = 0.0
        flat = np.stack([np.hstack(group) for group in grads])
        norm = np.sqrt((flat * flat).sum())
        if norm > cfg.clip_norm:
            clipped += 1
            for group in grads:
                for g in group:
                    g *= cfg.clip_norm / norm
        step = cfg.step_at(epoch)
        bc1 = 1.0 - beta1**epoch
        bc2 = 1.0 - cfg.beta2**epoch
        for gi, ws in enumerate(weights):
            for d, w in enumerate(ws):
                g = grads[gi][d]
                m[gi][d] = beta1 * m[gi][d] + (1 - beta1) * g
                v[gi][d] = cfg.beta2 * v[gi][d] + (1 - cfg.beta2) * g * g
                w -= step * (m[gi][d] / bc1) / (np.sqrt(v[gi][d] / bc2) + epsilon)
            group_maps[gi] = maps.TaylorMap(dim=net.dim, order=net.order, weights=tuple(ws))
        if epoch in checkpoint_epochs:
            checkpoints[epoch] = list(group_maps)
    return group_maps, np.array(history), checkpoints, clipped


def test_adam_in_place_keeps_the_bytes_of_the_textbook_expression():
    # 50 epochs whose Adam step updates W, its moments and two scratch
    # buffers in place end on the weights of backward and the textbook
    # expressions on fresh arrays, with clipping that fires and a penalty
    net, X0, obs = _untied_case()
    cfg = network.TrainConfig(step_size=1e-2, clip_norm=0.065, epochs=50, penalty_rate=1e-2,
                              schedule="cosine")
    trained, _ = network.train_one_shot(net, X0, obs, cfg)
    beta1, epsilon = network.ADAM_BETA1, network.ADAM_EPSILON
    W = network._stack(net)
    m, v, clipped = np.zeros_like(W), np.zeros_like(W), 0
    for epoch in range(1, cfg.epochs + 1):
        grads, _ = network.backward(net, W, X0, obs, cfg.penalty_rate)
        clipped += network._clip_global(grads, cfg.clip_norm) > cfg.clip_norm
        step = cfg.step_at(epoch)
        m = beta1 * m + (1 - beta1) * grads
        v = cfg.beta2 * v + (1 - cfg.beta2) * grads * grads
        W = W - step * (m / (1.0 - beta1**epoch)) / (np.sqrt(v / (1.0 - cfg.beta2**epoch))
                                                    + epsilon)
    assert 0 < clipped < cfg.epochs
    assert network._stack(trained).tobytes() == W.tobytes()


def _untied_case():
    # three untied groups over five slots, partial taps and mask
    rng = np.random.default_rng(61)
    n, k = 2, 3
    net = network.Network(group_maps=[_random_map(rng, n, k, scale=0.15) for _ in range(3)],
                          layer_groups=(0, 1, 0, 2, 1))
    X0 = np.array([0.3, -0.2])
    values = network.forward(net, X0)[[1, 3, 4]] + 0.05 * rng.normal(size=(3, n))
    mask = np.array([[True, False], [True, True], [False, True]])
    return net, X0, network.ObservationSeries(taps=(2, 4, 5), values=values, mask=mask)


def _shared_case():
    # one near-rotation map shared by 49 slots, angles read at every other
    # boundary, as in the one-shot pendulum fit
    rng = np.random.default_rng(62)
    tm = maps.TaylorMap(dim=2, order=3, weights=tuple(
        w + 0.02 * rng.normal(size=w.shape) for w in _rotation_map(0.2, k=3).weights))
    net = network.build_shared_chain(tm, 49)
    X0 = np.array([0.3, 0.0])
    taps = tuple(range(2, 50, 2))
    values = network.forward(net, X0)[[t - 1 for t in taps]]
    values += 0.01 * rng.normal(size=values.shape)
    mask = np.tile([True, False], (len(taps), 1))
    return net, X0, network.ObservationSeries(taps=taps, values=values, mask=mask)


# each clip_norm lies inside the range of that case's gradient norms
@pytest.mark.parametrize(("case", "penalty_rate", "clip_norm", "train_degrees"), [
    pytest.param(_untied_case, 1e-2, 0.065, (1, 3), id="rate-1e-2"),
    pytest.param(_untied_case, 0.0, 0.01, (1, 3), id="rate-0"),
    pytest.param(_untied_case, 1e-3, 0.005, (1, 2), id="untied-rate-1e-3"),
    pytest.param(_shared_case, 0.0, 0.02, None, id="shared-49-rate-0")])
def test_stacked_training_equals_per_block_loop(case, penalty_rate, clip_norm, train_degrees):
    # untied groups shared by several slots or one group over a long chain,
    # partial taps and mask, frozen degrees, clipping that fires, a penalty
    # and checkpoints: the stacked loop, whose buffers and slot views are
    # bound once per run, reproduces the per-block one bit for bit.  At rate
    # 0 the stacked loop records the penalty from two full flushes of weight
    # snapshots and a partial one; the reference evaluates it inside every
    # epoch
    net, X0, obs = case()
    epochs = 2 * network._flush_size(net.dim, net.order, len(net.group_maps)) + 5
    cfg = network.TrainConfig(step_size=1e-2, clip_norm=clip_norm, epochs=epochs,
                              penalty_rate=penalty_rate, schedule="cosine",
                              train_degrees=train_degrees)
    wanted = (3, 8, epochs)
    trained, report = network.train_one_shot(net, X0, obs, cfg, checkpoint_epochs=wanted)
    want_maps, want_history, want_checkpoints, clipped = _per_block_adam(
        net, X0, obs, cfg, wanted
    )
    assert 0 < clipped < cfg.epochs
    assert np.all(want_history[:, 2] > 0.0)
    for got, want in zip((report.total, report.data, report.penalty), want_history.T):
        assert got.tobytes() == want.tobytes()
    assert set(report.checkpoints) == set(want_checkpoints)
    for epoch, tms in [(None, trained.group_maps), *report.checkpoints.items()]:
        wants = want_maps if epoch is None else want_checkpoints[epoch]
        for tm, want in zip(tms, wants, strict=True):
            assert tm.stacked.tobytes() == want.stacked.tobytes(), epoch
            for a, b in zip(tm.weights, want.weights):
                assert a.tobytes() == b.tobytes(), epoch
    # checkpoints are copies: the weights trained on after epoch 3 left it as it was
    for early, final in zip(report.checkpoints[3], trained.group_maps, strict=True):
        assert early.stacked.tobytes() != final.stacked.tobytes()


def test_training_divergence_reports_epoch():
    # a quartic-feedback layer from a large state explodes in the forward
    # pass of the very first epoch
    W2 = np.zeros((2, 3))
    W2[0, 0] = W2[1, 2] = 4.0
    tm = maps.TaylorMap(dim=2, order=2, weights=(np.zeros((2, 1)), np.eye(2), W2))
    net = network.build_shared_chain(tm, 60)
    obs = _full_obs(np.zeros((60, 2)))
    with pytest.raises(network.TrainingDivergedError) as err:
        network.train_one_shot(
            net, np.array([3.0, 3.0]), obs, network.TrainConfig(epochs=5)
        )
    assert err.value.epoch == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x0", [1e101, 1e102])
def test_non_finite_gradient_norm_is_divergence(x0):
    # from 1e101 the degree-2 gradient (2e304) is finite but its square is
    # not, which clipping would turn into a zero step; from 1e102 the
    # gradient itself overflows.  Both end training at epoch 1, without a
    # numpy overflow warning on the way.
    tm = maps.TaylorMap(dim=1, order=2, weights=(
        np.zeros((1, 1)), np.ones((1, 1)), np.full((1, 1), 1e-100)))
    net = network.build_shared_chain(tm, 1)
    cfg = network.TrainConfig(epochs=3, penalty_rate=0.0)
    with pytest.raises(network.TrainingDivergedError, match="gradient norm") as err:
        network.train_one_shot(net, np.array([x0]), _full_obs(np.zeros((1, 1))), cfg)
    assert err.value.epoch == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("penalty_rate", [0.0, 1.0])
def test_overflowing_penalty_is_divergence(penalty_rate):
    # from a tiny state the data term and its gradient stay finite, while
    # W_1's determinant, 1e320, overflows the penalty: the loss of epoch 1
    # is non-finite, inside the epoch at rate 1 and in the flush after the
    # last epoch at rate 0, without a numpy overflow warning on the way
    tm = maps.TaylorMap(dim=2, order=1, weights=(np.zeros((2, 1)), np.diag([1e160, 1e160])))
    net = network.build_shared_chain(tm, 1)
    cfg = network.TrainConfig(epochs=3, penalty_rate=penalty_rate)
    with pytest.raises(network.TrainingDivergedError, match="loss became non-finite") as err:
        network.train_one_shot(net, np.array([1e-200, 0.0]), _full_obs(np.zeros((1, 2))), cfg)
    assert err.value.epoch == 1


def test_clip_global_rescales_only_above_ceiling():
    g1 = np.array([[[3.0, 0.0, 0.0, 4.0]]])
    assert network._clip_global(g1, 10.0) == 5.0
    assert g1[0, 0, 0] == 3.0 and g1[0, 0, 3] == 4.0
    assert network._clip_global(g1, 1.0) == 5.0
    assert np.sqrt((g1 * g1).sum()) == pytest.approx(1.0, rel=1e-12)
    assert g1[0, 0, 0] == pytest.approx(0.6, rel=1e-12)


def test_schedule_step_at_frozen_values():
    cfg = network.TrainConfig(step_size=1.0, epochs=4, schedule="cosine")
    got = [cfg.step_at(e) for e in (1, 2, 3, 4)]
    assert got == pytest.approx(
        [1.0, 0.8535533905932737, 0.5, 0.14644660940672624], rel=1e-12
    )
    flat = network.TrainConfig(step_size=0.25, epochs=4)
    assert [flat.step_at(e) for e in (1, 4)] == [0.25, 0.25]
    with pytest.raises(ValueError, match="schedule"):
        network.TrainConfig(schedule="linear")


def test_train_degrees_freezes_excluded_blocks():
    rng = np.random.default_rng(11)
    tm = _random_map(rng, 2, 2, scale=0.1)
    net = network.build_shared_chain(tm, 3)
    obs = _full_obs(0.1 * rng.normal(size=(3, 2)))
    cfg = network.TrainConfig(epochs=20, penalty_rate=0.0, train_degrees=(1,))
    trained, _ = network.train_one_shot(net, np.array([0.2, -0.1]), obs, cfg)
    out = trained.group_maps[0]
    assert np.array_equal(out.weights[0], tm.weights[0])
    assert np.array_equal(out.weights[2], tm.weights[2])
    assert not np.array_equal(out.weights[1], tm.weights[1])


def test_train_degrees_validation():
    with pytest.raises(ValueError, match="at least one degree"):
        network.TrainConfig(train_degrees=())
    with pytest.raises(ValueError, match=">= 0"):
        network.TrainConfig(train_degrees=(-1,))
    for bad in (1.7, True, "1"):
        with pytest.raises(ValueError, match="^train_degrees entries must be an integer"):
            network.TrainConfig(train_degrees=(bad,))
    assert network.TrainConfig(train_degrees=(np.int64(2), 1)).train_degrees == (2, 1)
    net = network.build_shared_chain(maps.identity_map(2, 2), 2)
    obs = _full_obs(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="beyond map order"):
        network.train_one_shot(
            net, np.zeros(2), obs,
            network.TrainConfig(epochs=1, train_degrees=(3,)),
        )


def test_teacher_forcing_equals_rollout_on_single_layer():
    # with one layer the only pair is (X0, observation), so both modes see
    # the same residual and must produce bit-identical training runs
    rng = np.random.default_rng(5)
    tm = _random_map(rng, 2, 2, scale=0.2)
    obs = _full_obs(np.array([[0.3, -0.2]]))
    X0 = np.array([0.25, 0.1])
    runs = []
    for forcing in (False, True):
        cfg = network.TrainConfig(epochs=30, penalty_rate=1e-6,
                                  teacher_forcing=forcing)
        net = network.build_shared_chain(tm, 1)
        trained, report = network.train_one_shot(net, X0, obs, cfg)
        runs.append((trained, report))
    assert np.array_equal(runs[0][1].total, runs[1][1].total)
    for a, b in zip(runs[0][0].group_maps[0].weights,
                    runs[1][0].group_maps[0].weights):
        assert a.tobytes() == b.tobytes()


def test_teacher_forcing_fits_linear_pairs():
    # convex one-step regression onto rotation data reaches the exact map
    target = _rotation_map(0.1, k=1)
    X0 = np.array([0.4, 0.0])
    states, x = [], X0
    for _ in range(30):
        x = target(x)
        states.append(x)
    obs = _full_obs(np.array(states))
    net = network.build_shared_chain(maps.identity_map(2, 1), 30)
    cfg = network.TrainConfig(step_size=0.05, beta2=0.99, epochs=400,
                              penalty_rate=0.0, schedule="cosine",
                              teacher_forcing=True)
    trained, report = network.train_one_shot(net, X0, obs, cfg)
    assert report.data[-1] < 1e-12
    assert trained.group_maps[0].weights[1] == pytest.approx(
        target.weights[1], abs=1e-5
    )


def test_teacher_forcing_validation():
    tm = maps.identity_map(2, 1)
    values = np.zeros((2, 2))
    partial = network.ObservationSeries(
        taps=(1, 2), values=values, mask=np.array([[True, False]] * 2)
    )
    cfg = network.TrainConfig(epochs=1, teacher_forcing=True)
    with pytest.raises(ValueError, match="fully observed"):
        network.train_one_shot(
            network.build_shared_chain(tm, 2), np.zeros(2), partial, cfg
        )
    # observations must sit at every slot: a gap would pair tap 1 with tap
    # 3 as one step, and a tap beyond the chain has no slot to fit
    with pytest.raises(ValueError, match=r"^teacher forcing needs observation taps 1\.\.3$"):
        network.train_one_shot(
            network.build_shared_chain(tm, 3), np.zeros(2),
            network.ObservationSeries(taps=(1, 3), values=values,
                                      mask=np.ones_like(values, bool)),
            cfg,
        )
    with pytest.raises(ValueError, match=r"^observation taps must lie in \[1, 3\]"):
        network.train_one_shot(
            network.build_shared_chain(tm, 3), np.zeros(2), _full_obs(np.zeros((4, 2))), cfg
        )
    untied = network.Network(group_maps=[tm, maps.identity_map(2, 1)], layer_groups=(0, 1))
    with pytest.raises(ValueError, match="single shared weight group"):
        network.train_one_shot(untied, np.zeros(2), _full_obs(values), cfg)
    # a bad start is bad input, as in the rolled-out mode, not a divergence
    for bad in ([0.1, 0.2, 0.3], [np.nan, 0.0]):
        with pytest.raises(ValueError, match=r"^X0 must be finite with shape \(2,\)"):
            network.train_one_shot(network.build_shared_chain(tm, 2), np.array(bad),
                                   _full_obs(values), cfg)


# --- the one evaluator ------------------------------------------------------------


def _per_degree_value(blocks, x):
    out = blocks[0][:, 0].copy()
    for d in range(1, len(blocks)):
        out += blocks[d] @ basis.kron_power(x, d)
    return out


def _left_to_right(C, k, x):
    """The polynomial whose stacked matrix is C at the state x (a list), in
    pure Python: each monomial of basis order (combinations with
    replacement) the product of its variables left to right, and each row
    w[r, 0] + w[r, 1] m_1 + ... added left to right."""
    monomials = [1.0]
    for d in range(1, k + 1):
        for mono in itertools.combinations_with_replacement(range(len(x)), d):
            m = x[mono[0]]
            for i in mono[1:]:
                m = m * x[i]
            monomials.append(m)
    out = []
    for row in C.tolist():
        total = row[0]
        for w, m in zip(row[1:], monomials[1:]):
            total = total + w * m
        out.append(total)
    return out


def _draw_blocks(data, n, k, elements):
    return tuple(data.draw(hnp.arrays(np.float64, (n, basis.basis_size(n, d)), elements=elements))
                 for d in range(k + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data(), st.integers(1, 6), st.integers(1, 4))
def test_every_point_evaluation_adds_left_to_right(data, n, k):
    # forward, the training pass's rows, apply, rhs, tracking and the
    # teacher-forced residual all give the bytes of one pure-Python sum
    # added left to right; the weight gradient of the residual is one product
    coeff = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    blocks = _draw_blocks(data, n, k, coeff)
    X0 = data.draw(hnp.arrays(np.float64, (n,), elements=st.floats(-1, 1)))
    tm = maps.TaylorMap(dim=n, order=k, weights=blocks)
    system = ode.PolynomialODE(n, k, blocks)
    C = np.hstack(blocks)
    assert tm.stacked.tobytes() == C.tobytes()
    assert system.stacked.tobytes() == C.tobytes()

    def near_per_degree(got, x):
        # the left-to-right sum only regroups the per-degree sum: both lie
        # within a few ulps of the sum of absolute terms
        scale = np.abs(C) @ np.abs(basis.monomials(x, k))
        err = np.abs(got - _per_degree_value(blocks, x))
        assert np.all(err <= 4 * np.finfo(float).eps * scale)

    # coefficients of at most 1.5 keep three slots from |x| <= 1 finite
    want = [X0.tolist()]
    for _ in range(3):
        want.append(_left_to_right(C, k, want[-1]))
    want = np.array(want)
    net = network.build_shared_chain(tm, 3)
    states, powers = _states(net, network._stack(net), X0)
    assert states.tobytes() == want.tobytes()
    assert powers.tobytes() == basis.monomials(want[:-1], k).tobytes()
    assert network.forward(net, X0).tobytes() == want[1:].tobytes()
    for x, nxt in zip(want[:-1], want[1:]):
        assert tm.apply(x).tobytes() == nxt.tobytes()
        assert system.rhs(x).tobytes() == nxt.tobytes()
        near_per_degree(nxt, x)

    # tracking: two 4-D elements in two groups, two turns of four slots
    blocks4 = blocks if n == 4 else _draw_blocks(data, 4, k, coeff)
    pair = [maps.TaylorMap(dim=4, order=k, weights=b)
            for b in (blocks4, tuple(-b for b in blocks4))]
    ring = lattice.Lattice(elements=[lattice.LatticeElement(label=f"e{j}", tm=e)
                                     for j, e in enumerate(pair)], monitors=(1,))
    X4 = data.draw(hnp.arrays(np.float64, (4,), elements=st.floats(-1, 1)))
    ends, x = [], X4.tolist()
    for _ in range(2):
        for e in pair:
            x = _left_to_right(e.stacked, k, x)
        ends.append(x)
    assert lattice.multi_turn(ring, X4, 2).states.tobytes() == np.array(ends).tobytes()

    # teacher forcing on the chain: the same sums over all pairs, and the
    # data term and weight gradient from the residual laid out (dim, pairs)
    feats, lanes, targets = network._pairwise_data(net, X0, _full_obs(want[1:]))
    assert feats.tobytes() == basis.monomials(want[:-1], k).tobytes()
    assert targets.tobytes() == want[1:].T.tobytes()
    residual = want[1:].T - targets
    assert not residual.any()
    data_term, grads = network._pairwise_gradient(network._stack(net), feats, lanes, targets)
    assert data_term == float(np.mean(residual**2)) == 0.0
    # observations off the chain: each pair predicts from its observed
    # previous state
    observed = 0.5 * want[1:] + 0.25
    feats, lanes, targets = network._pairwise_data(net, X0, _full_obs(observed))
    previous = [X0.tolist(), *observed[:-1].tolist()]
    residual = np.array([_left_to_right(C, k, x) for x in previous]).T - targets
    assert residual.flags.c_contiguous  # np.mean adds in memory order
    data_term, grads = network._pairwise_gradient(network._stack(net), feats, lanes, targets)
    assert data_term == float(np.mean(residual**2))
    assert grads[0].tobytes() == ((2.0 / residual.size) * (residual @ feats)).tobytes()
