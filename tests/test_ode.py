"""Tests for polynomial ODEs, the weight flow, and the RK4 integrator.

Oracles: closed-form solutions (quadratic-drag fall, harmonic oscillator),
the matrix exponential for linear systems, and dense RK4 references for
truncation-order checks.  The expected constants below were frozen from runs
at 4x the default substep count; the integration itself is converged far past
the tolerances used.
"""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from tmnet import basis, lattice, maps, network, ode, systems

from test_basis import substitute


def _free_fall() -> ode.PolynomialODE:
    # v' = 9.8 - 0.00392 v^2 (terminal speed 50)
    return ode.PolynomialODE(
        1, 2, (np.array([[9.8]]), np.array([[0.0]]), np.array([[-0.00392]]))
    )


def _pendulum() -> ode.PolynomialODE:
    # x1' = x2, x2' = -(g/L)(x1 - x1^3/6) with g=9.8, L=0.3
    w2 = 9.8 / 0.3
    P3 = np.zeros((2, 4))
    P3[1, 0] = w2 / 6.0
    return ode.PolynomialODE(
        2,
        3,
        (np.zeros((2, 1)), np.array([[0.0, 1.0], [-w2, 0.0]]), np.zeros((2, 3)), P3),
    )


# --- PolynomialODE ------------------------------------------------------------


def test_rhs_matches_direct_evaluation():
    rng = np.random.default_rng(30)
    coeffs = tuple(rng.normal(size=(2, basis.basis_size(2, d))) for d in range(3))
    sys = ode.PolynomialODE(2, 2, coeffs)
    for _ in range(5):
        X = rng.normal(size=2)
        want = sum(P @ basis.kron_power(X, d) for d, P in enumerate(coeffs))
        assert np.allclose(sys.rhs(X), want, rtol=1e-13)


def test_point_evaluation_rejects_batches():
    # a batch of exactly N states would otherwise multiply through to a
    # wrong (dim, N) result instead of failing on the shapes
    system = _pendulum()
    tm = maps.identity_map(2, 3)
    N = system.stacked.shape[1]
    for rows in (2, N):
        for evaluate in (system.rhs, tm.apply):
            with pytest.raises(ValueError, match="1-d vector"):
                evaluate(np.zeros((rows, 2)))


def test_point_evaluation_names_both_lengths_of_a_wrong_state():
    system = _pendulum()
    tm = maps.identity_map(2, 3)
    for evaluate in (system.rhs, tm.apply):
        for bad in ([0.1], [0.1, 0.2, 0.3]):
            with pytest.raises(ValueError, match=rf"^state must be a 1-d vector of 2 "
                                                 rf"entries, got shape \({len(bad)},\)$"):
                evaluate(np.array(bad))


def test_ode_serialization_roundtrip():
    sys = _pendulum()
    back = ode.PolynomialODE.from_dict(sys.to_dict())
    assert back.dim == sys.dim and back.order == sys.order
    for a, b in zip(back.coeffs, sys.coeffs):
        assert np.array_equal(a, b)


def test_flow_config_validation():
    # the default, None, chooses the count by step doubling
    assert ode.FlowConfig(0.1).substeps is None
    assert ode.FlowConfig(0.1, substeps=1000).substeps == 1000
    with pytest.raises(ValueError):
        ode.FlowConfig(np.inf)
    with pytest.raises(ValueError):
        ode.FlowConfig(0.1, substeps=0)
    for dt in ("x", None, True):
        with pytest.raises(ValueError, match="^dt must be a finite number"):
            ode.FlowConfig(dt)


# --- weight flow ---------------------------------------------------------------


def test_linear_flow_matches_matrix_exponential():
    # 1000 substeps: the default resolves the weights to MAP_TOL only
    rng = np.random.default_rng(31)
    A = rng.normal(size=(3, 3)) * 0.8
    sys = ode.PolynomialODE(3, 1, (np.zeros((3, 1)), A))
    tm = ode.ode_to_map(sys, ode.FlowConfig(0.7, substeps=1000))
    assert np.allclose(tm.weights[1], expm(0.7 * A), rtol=1e-12, atol=1e-13)
    assert np.all(tm.weights[0] == 0.0)


def test_linear_flow_keeps_higher_blocks_zero():
    rng = np.random.default_rng(32)
    A = rng.normal(size=(3, 3)) * 0.8
    sys = ode.PolynomialODE(3, 2, (np.zeros((3, 1)), A, np.zeros((3, 6))))
    tm = ode.ode_to_map(sys, ode.FlowConfig(0.7))
    assert np.all(tm.weights[2] == 0.0)


def test_free_fall_weights_match_closed_form():
    # v(t) = 50 tanh(theta + gt/50) gives, per step of dt:
    #   W_0 = 50 T, W_1 = 1 - T^2, W_2 = -T (1 - T^2) / 50, T = tanh(g dt / 50)
    # at 1000 substeps: the default resolves the weights to MAP_TOL only
    dt = 0.1
    T = np.tanh(9.8 * dt / 50.0)
    tm = ode.ode_to_map(_free_fall(), ode.FlowConfig(dt, substeps=1000))
    assert tm.weights[0][0, 0] == pytest.approx(50.0 * T, rel=1e-12)
    assert tm.weights[1][0, 0] == pytest.approx(1.0 - T**2, rel=1e-12)
    assert tm.weights[2][0, 0] == pytest.approx(-T * (1.0 - T**2) / 50.0, rel=1e-12)


def test_free_fall_map_settles_within_one_percent_of_terminal_speed():
    # the quadratic truncation is built around v=0, so its fixed point sits
    # slightly below the true terminal speed; with dt=0.1 it lands at 49.52
    tm = ode.ode_to_map(_free_fall(), ode.FlowConfig(0.1))
    v = np.array([0.0])
    for _ in range(2000):
        v = tm(v)
    assert tm(v)[0] == pytest.approx(v[0], abs=1e-10)
    assert abs(v[0] - 50.0) / 50.0 < 0.01
    assert v[0] == pytest.approx(49.5218805166, abs=1e-6)


def test_pendulum_linear_block_is_rotation():
    dt = 0.1
    om = np.sqrt(9.8 / 0.3)
    tm = ode.ode_to_map(_pendulum(), ode.FlowConfig(dt))
    want = np.array(
        [
            [np.cos(om * dt), np.sin(om * dt) / om],
            [-om * np.sin(om * dt), np.cos(om * dt)],
        ]
    )
    assert np.allclose(tm.weights[1], want, rtol=1e-12)
    # odd vector field: even-degree blocks stay identically zero
    assert np.all(tm.weights[0] == 0.0)
    assert np.all(tm.weights[2] == 0.0)


def test_pendulum_cubic_weights_frozen():
    tm = ode.ode_to_map(_pendulum(), ode.FlowConfig(0.1))
    want = np.array(
        [
            [
                2.4450273152743143e-02,
                2.3894391174658406e-03,
                1.2066157538155860e-04,
                2.4988611750763272e-06,
            ],
            [
                4.3722786163408001e-01,
                6.5467596533302058e-02,
                4.5339898397739054e-03,
                1.2066157538154746e-04,
            ],
        ]
    )
    assert np.allclose(tm.weights[3], want, rtol=1e-9)


def test_pendulum_map_penalty_is_truncation_limited():
    # the flow is Hamiltonian, but truncating at order 3 leaves a genuine
    # degree-4 residual (the would-be cancelling order-5 weights are dropped);
    # the penalty sits well below the 1e-3 working bound yet clearly above
    # integrator accuracy
    tm = ode.ode_to_map(_pendulum(), ode.FlowConfig(0.1))
    p = maps.symplectic_penalty(tm)
    assert 1e-7 < p < 1e-3


def test_linear_hamiltonian_flow_penalty_at_integrator_floor():
    # for linear Hamiltonian systems nothing is truncated, so the map is
    # symplectic to rounding even when carried at cubic order
    P1 = np.array([[0.0, 1.0], [-1.3, 0.0]])
    sys = ode.PolynomialODE(
        2, 3, (np.zeros((2, 1)), P1, np.zeros((2, 3)), np.zeros((2, 4)))
    )
    tm = ode.ode_to_map(sys, ode.FlowConfig(0.5))
    assert maps.symplectic_penalty(tm) <= 1e-12


def test_one_step_error_scales_with_fifth_power_of_amplitude():
    # truncation at order 3 of an odd field leaves a leading degree-5 error,
    # so doubling the amplitude should multiply the error by about 32
    sys = _pendulum()
    tm = ode.ode_to_map(sys, ode.FlowConfig(0.1))
    errs = []
    for amp in (0.1, 0.2):
        X0 = np.array([amp, 0.0])
        ref = ode.reference_trajectory(sys, X0, 0.1, 1, substeps=1000)[1]
        errs.append(np.max(np.abs(tm(X0) - ref)))
    assert errs[0] < 2e-7
    assert 24.0 < errs[1] / errs[0] < 40.0


def test_derived_map_is_the_end_state_of_a_textbook_weight_flow():
    system = systems.lotka_volterra()
    flow = ode._weight_flow(system, 2)
    W = maps.identity_map(2, 2).stacked.ravel()
    end = _textbook_rk4(lambda w: np.array(flow(w)), W, 0.01, 1, 50)[-1]
    tm = ode.ode_to_map(system, ode.FlowConfig(0.01, substeps=50))
    assert tm.stacked.ravel().tobytes() == end.tobytes()


def test_weight_flow_divergence_raises_with_location():
    # each substep of h = 0.02 multiplies W_1 by RK4's amplification at
    # h * 50 = 1, so the last finite weight norm is that factor ** 707
    stiff = ode.PolynomialODE(1, 1, (np.zeros((1, 1)), np.array([[50.0]])))
    assert f"{(1 + 1 + 1 / 2 + 1 / 6 + 1 / 24) ** 707:.6g}" == "8.32521e+305"
    with pytest.raises(
        ode.FlowDivergenceError,
        match=r"^weight flow diverged at t=14\.16 of 20 "
              r"\(substep 708/1000; last finite weight norm 8\.32521e\+305\)$",
    ) as err:
        ode.ode_to_map(stiff, ode.FlowConfig(20.0, substeps=1000))
    assert err.value.layer == 708


def test_stage_overflow_with_a_constant_term_raises_at_its_substep():
    # x' = 1 + x^2: W_0 = tan t passes its pole at pi/2, and RK4's stages
    # square the blown-up W_0 past the float range within one substep; the
    # overflow is divergence, reported without any floating-point warning
    pole = ode.PolynomialODE(1, 2, (np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ode.FlowDivergenceError,
            match=r"^weight flow diverged at t=1\.8 of 3 "
                  r"\(substep 18/30; last finite weight norm 1\.00634e\+32\)$",
        ) as err:
            ode.ode_to_map(pole, ode.FlowConfig(3.0, substeps=30))
    assert err.value.layer == 18


@pytest.mark.parametrize("index", range(9), ids=[
    "free_fall", "free_fall_augmented", "lotka_volterra", "pendulum",
    "rayleigh_plesset", "qf", "drift", "qd", "sextupole"])
def test_derived_map_is_byte_equal_to_a_textbook_weight_flow(index):
    # every built-in system and ring element at 20 substeps: the derivation
    # runs exactly the textbook RK4 operations on the compiled flow
    system, dt = _flow_systems()[index]
    n, k = system.dim, system.order
    flow = ode._weight_flow(system, k)
    W = maps.identity_map(n, k).stacked.ravel()
    end = _textbook_rk4(lambda w: np.array(flow(w)), W, dt, 1, 20)[-1]
    tm = ode.ode_to_map(system, ode.FlowConfig(dt, substeps=20))
    assert tm.stacked.ravel().tobytes() == end.tobytes()


def _both_derivations(system, cfg):
    # the derivation on the numpy loop and on the compiled float kernel,
    # whatever the size rule would pick (a cap below every plan, then above
    # every plan, each on plans built under it): the end weights' bytes, or
    # the divergence error's message and substep
    def run(cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ode, "_KERNEL_STATEMENTS", cap)
            ode._structure_plan.cache_clear()
            try:
                return ode.ode_to_map(system, cfg).stacked.tobytes()
            except ode.FlowDivergenceError as err:
                return str(err), err.layer
            finally:
                ode._structure_plan.cache_clear()

    return run(-1), run(math.inf)


def _linear(A):
    A = np.atleast_2d(A)
    return ode.PolynomialODE(len(A), 1, (np.zeros((len(A), 1)), A))


def _both_derivation_cases():
    # (system, cfg, the substep it diverges at or None)
    ring = lattice.build_fodo_ring(substeps=2)
    dts = {"lotka_volterra": 0.01, "rayleigh_plesset": 0.01}
    # x' = 1e308 x^2: its k = 2 flow doubles the coefficient past the float
    # range, so the kernel's source holds inf and the first substep is nan
    huge = ode.PolynomialODE(1, 2, (np.zeros((1, 1)), np.zeros((1, 1)), np.array([[1e308]])))
    return ([(make(), ode.FlowConfig(dts.get(name, 0.1), substeps=50), None)
             for name, make in systems.SYSTEMS.items()]
            + [(ring.elements[j].generator, ode.FlowConfig(1.0, substeps=50), None)
               for j in (0, 1, 2, 8)]  # qf, drift, qd, sextupole
            + [(_linear(50.0), ode.FlowConfig(20.0, substeps=1000), 708),
               (huge, ode.FlowConfig(0.1, substeps=5), 1)])


@pytest.mark.parametrize("index", range(11), ids=[
    *systems.SYSTEMS, "qf", "drift", "qd", "sextupole", "stiff", "overflowing-coefficient"])
def test_the_float_kernel_derives_the_numpy_loops_bytes(index):
    # every built-in system and ring element, and two that diverge: x' = 50 x
    # at 1000 substeps of dt 20 ends substep 708 non-finite (see above), and
    # the overflowing coefficient ends substep 1 so
    system, cfg, diverges_at = _both_derivation_cases()[index]
    loop, kernel = _both_derivations(system, cfg)
    assert kernel == loop
    if diverges_at is None:
        assert isinstance(loop, bytes)
    else:
        assert loop[1] == diverges_at


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.data(), st.integers(1, 5), st.integers(1, 3))
def test_the_float_kernel_derives_random_odes_with_the_numpy_loops_bytes(data, n, order):
    # a fifth of the coefficients nonzero, all-zero ODEs (no terms)
    # included, in 1 to 5 variables
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    density = data.draw(st.sampled_from([0.0, 0.2]))

    def block(d):
        shape = (n, basis.basis_size(n, d))
        return rng.uniform(-1.0, 1.0, shape) * (rng.random(shape) < density)

    system = ode.PolynomialODE(n, order, tuple(block(d) for d in range(order + 1)))
    loop, kernel = _both_derivations(system, ode.FlowConfig(0.05, substeps=4))
    assert kernel == loop


def _engine_runs(monkeypatch):
    # (engine, state size, fine substeps per step, the step it stopped at)
    # of every level from here on: the oracle's (_term_advance), and a
    # derivation's on its plan's compiled kernel ("kernel") or on the numpy
    # loop (_loop_advance)
    runs = []

    def recorded(name, level):
        def run(*args):
            states, stop, estimate = level(*args)
            X, _, _, fine = args[-8:-4]  # a kernel's coefficients come first
            runs.append((name, len(X), fine, stop))
            return states, stop, estimate

        return run

    for name in ("_term_advance", "_loop_advance"):
        def recording(rhs, size, name=name, make=getattr(ode, name)):
            return recorded(name, make(rhs, size))

        monkeypatch.setattr(ode, name, recording)
    plan = ode._plan

    def recording_plan(system, k):
        *head, kernel = plan(system, k)
        return (*head, kernel and recorded("kernel", kernel))

    monkeypatch.setattr(ode, "_plan", recording_plan)
    return runs


def test_the_engine_is_chosen_by_the_plans_size_alone(monkeypatch):
    # every built-in system and ring element, at a few substeps and under
    # the default (S 32 to 218), runs on the float kernel; a dense flow of
    # 1058 statements, above the cap, runs on the numpy loop with the
    # textbook loop's bytes
    runs = _engine_runs(monkeypatch)
    for system, dt in _flow_systems():
        for substeps in (2, None):
            ode.ode_to_map(system, ode.FlowConfig(dt, substeps))
    ring = lattice.build_fodo_ring(substeps=200)
    for j in (0, 1, 2, 8):
        lattice.perturb_element(ring, j, 0.8)
    assert {name for name, *_ in runs} == {"kernel"}
    dense = ode.PolynomialODE(2, 3, tuple(np.full((2, basis.basis_size(2, d)), 0.1)
                                          for d in range(4)))
    structure, kept, *_, kernel = ode._plan(dense, 3)
    assert kernel is None
    assert ode._rk4_source(structure, len(kept)).count("\n") == 1058 > ode._KERNEL_STATEMENTS
    runs.clear()
    cfg = ode.FlowConfig(0.1, substeps=4)
    assert ode.ode_to_map(dense, cfg).stacked.tobytes() == _textbook_end(dense, cfg)
    assert runs == [("_loop_advance", 20, 4, 1)]


def test_a_family_compiles_one_kernel_per_term_structure(monkeypatch):
    # the pendulum at two (g, L), and the ring's qf and qd rescaled by
    # perturb_element, differ only in their coefficients: one compile for
    # the pendulum's structure and one for the quadrupoles', and every map
    # has the bytes of the textbook loop on its full flow
    ring = lattice.build_fodo_ring(substeps=20)
    ode._kernel.cache_clear()
    ode._structure_plan.cache_clear()
    names, compiled = [], basis._compiled

    def counting(source, name, *args, **kwargs):
        names.append(name)
        return compiled(source, name, *args, **kwargs)

    monkeypatch.setattr(basis, "_compiled", counting)
    counts = []
    for g, L in ((9.8, 0.3), (3.7, 0.5)):
        system = systems.pendulum(g, L)
        tm, substeps, _ = ode._derivation(system, ode.FlowConfig(0.1))
        counts.append(substeps)
        assert tm.stacked.tobytes() == _textbook_end(system, ode.FlowConfig(0.1, substeps))
    assert counts == [128, 64] and names == ["<RK4 substeps of a dim-12 ODE>"]
    for j in (0, 2):
        e = lattice.perturb_element(ring, j, 0.8).elements[j]
        assert e.tm.stacked.tobytes() == _textbook_end(e.generator,
                                                       ode.FlowConfig(e.dt, e.substeps))
    assert names == ["<RK4 substeps of a dim-12 ODE>", "<RK4 substeps of a dim-8 ODE>"]


def test_a_float32_dt_derives_the_float64_dts_bytes():
    # FlowConfig stores dt as a Python float, so a numpy float32 dt runs
    # the kernel in float64, as float(dt) does, and the default resolves
    # the pendulum to its 128 substeps
    dt = np.float32(0.1)
    assert type(ode.FlowConfig(dt).dt) is float
    for substeps in (128, None):
        (tm, count, estimate), (tm64, count64, estimate64) = (
            ode._derivation(systems.pendulum(), ode.FlowConfig(d, substeps))
            for d in (dt, float(dt)))
        assert tm.stacked.tobytes() == tm64.stacked.tobytes()
        assert (count, estimate) == (count64, estimate64)
    assert count == 128


def test_a_derivation_builds_its_terms_once(monkeypatch):
    # the pruned plan goes to every run, and it is built at most once per
    # key: the pendulum builds its plan once for runs at 10, 150 and 1000
    # substeps and every level of the default; the ring builds one for qf,
    # the drift and the sextupole each, qd reusing qf's, and so does qf
    # scaled by 0.8; a new pattern, Lotka-Volterra's, builds one
    ode._structure_plan.cache_clear()
    calls, pruned_flow = [], ode._pruned_flow

    def counting(system, k):
        calls.append(k)
        return pruned_flow(system, k)

    monkeypatch.setattr(ode, "_pruned_flow", counting)
    for substeps in (10, 150, 1000, None):
        ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1, substeps=substeps))
    assert calls == [3]
    ring = lattice.build_fodo_ring(substeps=20)
    assert calls == [3, 2, 2, 2]
    lattice.perturb_element(ring, 0, 0.8)
    lattice.perturb_element(ring, 2, 0.8)
    ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1, substeps=10))
    assert calls == [3, 2, 2, 2]
    ode.ode_to_map(systems.lotka_volterra(), ode.FlowConfig(0.01))
    assert calls == [3, 2, 2, 2, 2]


def test_the_plan_cache_keeps_at_most_its_bound():
    # a stream of more distinct nonzero patterns than the bound keeps
    # exactly the bound; the first pattern, evicted, is built again and
    # derives the same bytes, those of the textbook loop on its full flow
    bound = ode._structure_plan.cache_info().maxsize
    assert bound == ode._kernel.cache_info().maxsize == 64

    def system(bits):
        # x' = Ax + B x^[2], 0.5 at the entries of the set bits of 12
        stacked = 0.5 * np.array([bits >> i & 1 for i in range(12)], dtype=float).reshape(2, 6)
        return ode.PolynomialODE(2, 2, (stacked[:, :1], stacked[:, 1:3], stacked[:, 3:]))

    cfg = ode.FlowConfig(0.1, substeps=4)
    first = ode.ode_to_map(system(1), cfg).stacked.tobytes()
    for bits in range(2, bound + 8):
        ode.ode_to_map(system(bits), cfg)
    assert ode._structure_plan.cache_info().currsize == bound
    misses = ode._structure_plan.cache_info().misses
    assert ode.ode_to_map(system(1), cfg).stacked.tobytes() == first == _textbook_end(
        system(1), cfg)
    assert ode._structure_plan.cache_info().misses == misses + 1


def test_pruning_builds_only_the_terms_of_live_weights(monkeypatch):
    # Rayleigh-Plesset's full flow has 2009 terms, of which 25 are kept;
    # the four rounds of the fixed point build 9, 22, 25 and 25
    rp = systems.rayleigh_plesset()
    assert len(basis._flow_terms(rp, rp.order)) == 2009
    built, flow_terms = [], basis._flow_terms

    def counting(system, k, live=None):
        built.append(len(terms := flow_terms(system, k, live)))
        return terms

    monkeypatch.setattr(basis, "_flow_terms", counting)
    terms, _ = ode._pruned_flow(rp, rp.order)
    assert len(terms) == 25 and built == [9, 22, 25, 25]


def _textbook_end(system, cfg):
    # the textbook RK4 loop on the full weight flow, one substep at a time
    # (the same operations as cfg.substeps in one run): the end weights'
    # bytes, or the loop's divergence error, message and substep
    flow = ode._weight_flow(system, system.order)
    W = maps.identity_map(system.dim, system.order).stacked.ravel()
    with np.errstate(all="ignore"):
        states = _textbook_rk4(lambda w: np.array(flow(w)), W, cfg.dt / cfg.substeps,
                               cfg.substeps, 1)
    finite = np.isfinite(states).all(axis=1)
    if finite.all():
        return states[-1].tobytes()
    s = int(np.argmin(finite))
    return (f"weight flow diverged at t={s * (cfg.dt / cfg.substeps):.6g} of {cfg.dt:.6g} "
            f"(substep {s}/{cfg.substeps}; "
            f"last finite weight norm {math.hypot(*states[s - 1].tolist()):.6g})"), s


@pytest.mark.parametrize("index, count, size, read", [
    (0, 0, 3, 0), (1, 11, 9, 2), (2, 2, 10, 0), (3, 8, 12, 0), (4, 256, 23, 2), (5, 52, 8, 0),
    (6, 54, 4, 2), (7, 52, 8, 0), (8, 34, 26, 4)], ids=[
    "free_fall", "free_fall_augmented", "lotka_volterra", "pendulum",
    "rayleigh_plesset", "qf", "drift", "qd", "sextupole"])
def test_the_pruned_weights_are_the_full_flows_zeros(index, count, size, read):
    # the count weights the plan neither moves nor starts nonzero are
    # exactly the textbook run's 0.0 entries, and each comes back +0.0;
    # the kernel unpacks its coefficients, then unpacks (as the fine and
    # the coarse state) and keeps as each step's state exactly the size
    # weights that the kept terms move or read, in ravel order, of which
    # they only read `read`; the plan cached for the system's key has these
    # terms and kept weights, and the compiled kernel of this source, which
    # is within the size rule's cap
    system, dt = _flow_systems()[index]
    n, k = system.dim, system.order
    terms, kept = ode._pruned_flow(system, k)
    moving = sorted({t for t, _, _ in terms})
    start = maps.identity_map(n, k).stacked.ravel()
    pruned = sorted(set(range(start.size)) - {kept[i] for i in moving}
                    - set(np.flatnonzero(start).tolist()))
    cfg = ode.FlowConfig(dt, substeps=20)
    end = np.frombuffer(_textbook_end(system, cfg))
    assert len(pruned) == count
    assert pruned == np.flatnonzero(end == 0.0).tolist()
    for weights in (end, ode.ode_to_map(system, cfg).stacked.ravel()):
        assert not np.signbit(weights[pruned]).any()
    assert kept == sorted(kept) and {i for t, _, f in terms for i in (t, *f)} == set(range(size))
    assert (len(kept), len(kept) - len(moving)) == (size, read)
    source = ode._rk4_source(tuple((t, f) for t, _, f in terms), len(kept))
    state, coarse = (f"[{', '.join(f'{v}{i}' for i in range(size))}]" for v in "xz")
    lines = source.splitlines()
    assert lines[1] == f"    [{', '.join(f'p{j}' for j in range(len(terms)))}] = C"
    assert lines[5] == f"    {state} = {coarse} = [v + 0.0 for v in X]"
    assert [line for line in lines if "states.append" in line] == [
        f"        states.append({state})"]
    structure, plan_kept, _, _, kernel = ode._plan(system, k)
    assert structure == tuple((t, f) for t, _, f in terms) and plan_kept.tolist() == kept
    assert kernel.__code__.co_filename == f"<RK4 substeps of a dim-{size} ODE>"
    assert source.count("\n") <= ode._KERNEL_STATEMENTS


def test_the_rings_elements_run_on_46_of_their_240_weights(monkeypatch):
    # qf 8, qd 8, drift 4 and sextupole 26 entries, one run of each
    # element, for the four elements' 60 weights each
    runs = _engine_runs(monkeypatch)
    lattice.build_fodo_ring(substeps=10)
    assert runs == [("kernel", size, 10, 1) for size in (8, 8, 4, 26)]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.1, 0.2]), st.booleans(), st.sampled_from([1.0, 1e30, 1e150]),
       st.sampled_from([0.05, -0.05]))
@example(n=3, order=2, seed=0, density=0.0, constant=False, scale=1.0, dt=0.05)
@example(n=2, order=3, seed=1, density=0.2, constant=True, scale=1e150, dt=-0.05)
@example(n=5, order=3, seed=2, density=0.2, constant=True, scale=1.0, dt=-0.05)
def test_derived_maps_keep_the_bytes_of_the_full_flow(n, order, seed, density, constant,
                                                      scale, dt):
    # sparse ODEs, all-zero ones (density 0) included, with one nonzero
    # entry of P_0 or none, coefficients up to scale (1e150 overflows the
    # flow) and either sign of dt: ode_to_map and both paths called
    # directly end with the textbook loop's bytes on the full flow, or
    # raise its divergence error
    rng = np.random.default_rng(seed)

    def block(d):
        shape = (n, basis.basis_size(n, d))
        if d == 0:
            return np.eye(n, 1, -int(rng.integers(n))) * rng.uniform(0.5, 1.0) * constant
        return rng.uniform(-scale, scale, shape) * (rng.random(shape) < density)

    system = ode.PolynomialODE(n, order, tuple(block(d) for d in range(order + 1)))
    cfg = ode.FlowConfig(dt, substeps=4)
    want = _textbook_end(system, cfg)
    try:
        got = ode.ode_to_map(system, cfg).stacked.tobytes()
    except ode.FlowDivergenceError as err:
        got = str(err), err.layer
    assert got == want
    assert _both_derivations(system, cfg) == (want, want)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.3, 0.6]), st.sampled_from([1.0, 1e3, 1e300, 1e308]))
def test_a_cached_plan_derives_each_ode_of_its_key_as_a_fresh_plan(n, order, seed, density,
                                                                   scale):
    # three sparse ODEs of one nonzero pattern, with -0.0 among their zeros
    # and coefficients up to scale (1e300 overflows the flow, 1e308 a term's
    # coefficient too, which keys the plan by value), then one of
    # another pattern and the first again, each at 4 substeps and under the
    # default: the plan of each holds its own pruned flow's terms, each
    # coefficient its entry times its count, and the derivation on the
    # cached plan ends with the bytes, count and estimate of one on a fresh
    # plan, or raises its error; an explicit count, or the default's
    # resolved one, ends with the textbook loop's bytes on the full flow
    rng = np.random.default_rng(seed)
    shapes = [(n, basis.basis_size(n, d)) for d in range(order + 1)]

    def member(masks):
        return ode.PolynomialODE(n, order, tuple(scale * rng.uniform(-1.0, 1.0, m.shape) * m
                                                 for m in masks))

    masks, other = ([rng.random(shape) < density for shape in shapes] for _ in range(2))
    first = member(masks)
    sequence = [first, member(masks), member(masks), member(other), first]

    def outcome(system, cfg):
        try:
            tm, count, estimate = ode._derivation(system, cfg)
            return tm.stacked.tobytes(), count, estimate
        except (ode.FlowDivergenceError, ValueError) as err:
            return type(err), str(err), getattr(err, "layer", None)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ode, "_MAX_SUBSTEPS", 64)
        for system in sequence:
            terms, kept = ode._pruned_flow(system, order)
            structure, plan_kept, index, counts, *_ = ode._plan(system, order)
            assert structure == tuple((t, f) for t, _, f in terms) and plan_kept.tolist() == kept
            assert np.array([c * count for c, count in zip(system.stacked.take(index).tolist(),
                                                           counts)]).tobytes() == np.array(
                [c for _, c, _ in terms]).tobytes()
            for cfg in (ode.FlowConfig(0.05, 4), ode.FlowConfig(0.05)):
                got = outcome(system, cfg)
                with pytest.MonkeyPatch.context() as fresh:
                    fresh.setattr(ode, "_structure_plan", ode._structure_plan.__wrapped__)
                    assert outcome(system, cfg) == got
                if isinstance(got[0], bytes):
                    assert got[0] == _textbook_end(system, ode.FlowConfig(0.05, got[1]))
                elif cfg.substeps:
                    assert got[1:] == _textbook_end(system, cfg)


def test_an_overflowing_coefficient_keys_its_own_plan():
    # x' = x^8 and x' = 2.5e307 x^8 at k = 8 have one nonzero pattern, but
    # the second's coefficient overflows with its orderings, so its column
    # keeps every pick: derived after the first, it still diverges at
    # substep 1 as its full flow does, on a plan of its own, where a key of
    # the pattern alone would reuse the first's one-term finite plan
    def system(c):
        return ode.PolynomialODE(1, 8, tuple(np.full((1, 1), c * (d == 8)) for d in range(9)))

    unit, huge = system(1.0), system(2.5e307)
    cfg = ode.FlowConfig(0.1, substeps=5)
    assert ode.ode_to_map(unit, cfg).stacked.tobytes() == _textbook_end(unit, cfg)
    want = _textbook_end(huge, cfg)
    assert want[1] == 1
    with pytest.raises(ode.FlowDivergenceError) as err:
        ode.ode_to_map(huge, cfg)
    assert (str(err.value), err.value.layer) == want
    assert len(ode._plan(huge, 8)[0]) > len(ode._plan(unit, 8)[0]) == 1


def test_a_coefficient_that_overflows_keeps_its_term():
    # x' = 2.5e307 x^8 at k = 8: the 8 orderings of W_0 W_1^7 take its
    # coefficient to inf while every stage sum stays finite, so its target
    # is inf * 0.0 = nan at substep 1 only if the term is kept
    system = ode.PolynomialODE(1, 8, tuple(np.full((1, 1), 2.5e307 * (d == 8))
                                           for d in range(9)))
    cfg = ode.FlowConfig(0.1, substeps=5)
    want = _textbook_end(system, cfg)
    assert want[1] == 1
    assert _both_derivations(system, cfg) == (want, want)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3))
def test_compiled_weight_flow_matches_substitution(data, n, order, k):
    # dense ODE and map, W_0 != 0: every factor choice of every term is live
    coeff = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    nonzero = coeff.filter(lambda c: abs(c) > 0.1)

    def blocks(count):
        return [data.draw(hnp.arrays(np.float64, (n, basis.basis_size(n, d)),
                                     elements=nonzero if d == 0 else coeff))
                for d in range(count + 1)]

    system = ode.PolynomialODE(n, order, tuple(blocks(order)))
    W = blocks(k)
    got = np.reshape(ode._weight_flow(system, k)(np.hstack(W).ravel()), (n, -1))
    want = np.hstack(substitute(system.coeffs, W, k))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want)))


def _choice_terms(system, k):
    # the weight flow's terms by one map column per factor: a variable's
    # repeated factors take non-decreasing columns, choices whose column
    # degrees exceed k are cut, the orderings of a choice are counted from
    # its multiplicities, and the summed exponent rows give the target
    n = system.dim
    E, cols = basis._stacked_exponents(n, k)
    E = E.astype(int)
    deg = E.sum(axis=1).tolist()
    column = {tuple(e): s for s, e in enumerate(E.tolist())}
    N = len(deg)

    def choices(factors, first, budget):
        if not factors:
            yield ()
            return
        i, rest = factors[0], factors[1:]
        for s in range(first, cols[budget].stop):
            nxt = s if rest and rest[0] == i else 0
            for tail in choices(rest, nxt, budget - deg[s]):
                yield ((i, s),) + tail

    terms = []
    for d, P in enumerate(system.coeffs):
        for r, e in enumerate(basis.exponent_matrix(n, d).tolist()):
            outputs = [(o, c) for o, c in enumerate(P[:, r].tolist()) if c]
            if not outputs:
                continue
            factors = tuple(i for i, m in enumerate(e) for _ in range(m))
            for choice in choices(factors, 0, k):
                count = math.prod(map(math.factorial, e))
                for m in Counter(choice).values():
                    count //= math.factorial(m)
                t = column[tuple(E[[s for _, s in choice]].sum(axis=0).tolist())]
                gather = tuple(i * N + s for i, s in choice)
                terms += [(o * N + t, c * count, gather) for o, c in outputs]
    return terms


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(0, 3))
def test_flow_terms_equal_the_choice_enumeration(data, n, order, k):
    # dense ODEs, zeros allowed: the multiset picks give the choices' terms
    # in their order, with the same coefficients and gathers
    coeff = st.sampled_from([0.0, -1.25, 0.5, 3.0])
    system = ode.PolynomialODE(n, order, tuple(
        data.draw(hnp.arrays(np.float64, (n, basis.basis_size(n, d)), elements=coeff))
        for d in range(order + 1)))
    got, want = basis._flow_terms(system, k), _choice_terms(system, k)
    assert got == want


def _flow_systems():
    ring = lattice.build_fodo_ring(substeps=10)
    return [(systems.free_fall(), 0.1), (systems.free_fall_augmented(), 0.1),
            (systems.lotka_volterra(), 0.01), (systems.pendulum(), 0.1),
            (systems.rayleigh_plesset(), 0.01)] + [
        (ring.elements[j].generator, ring.elements[j].dt)
        for j in (0, 1, 2, 8)  # qf, drift, qd, sextupole
    ]


@pytest.mark.parametrize("index", range(9), ids=[
    "free_fall", "free_fall_augmented", "lotka_volterra", "pendulum",
    "rayleigh_plesset", "qf", "drift", "qd", "sextupole"])
def test_derived_map_matches_rk4_on_the_substituted_flow(index):
    system, dt = _flow_systems()[index]
    n, k = system.dim, system.order
    W = maps.identity_map(n, k).weights
    ends = np.cumsum([w.size for w in W])[:-1]

    def rhs(w):
        blocks = [b.reshape(n, -1) for b in np.split(w, ends)]
        return np.concatenate(substitute(system.coeffs, blocks, k), axis=None)

    want = _textbook_rk4(rhs, np.concatenate(W, axis=None), dt, 1, 100)[-1]
    tm = ode.ode_to_map(system, ode.FlowConfig(dt, substeps=100))
    got = np.concatenate(tm.weights, axis=None)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- the step-doubling default of derivations ----------------------------------------

# (system, dt, the substeps the default resolves it to) for every built-in
# system at the step the workloads and checks derive it with
_DERIVE_DEFAULTS = {
    "free_fall": (systems.free_fall(), 0.1, 4),
    "free_fall_augmented": (systems.free_fall_augmented(), 0.1, 64),
    "lotka_volterra": (systems.lotka_volterra(), 0.01, 2),
    "pendulum": (systems.pendulum(), 0.1, 128),
    "rayleigh_plesset": (systems.rayleigh_plesset(), 0.01, 2),
}


def _default_estimate(system, dt, substeps):
    # the estimate of the level whose fine run has `substeps`
    fine, coarse = (ode.ode_to_map(system, ode.FlowConfig(dt, substeps=n)).stacked
                    for n in (substeps, substeps // 2))
    return float(np.max(np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine)))) / 15.0


@pytest.mark.parametrize("name", list(_DERIVE_DEFAULTS))
def test_default_derivation_is_a_fixed_count_within_2x_of_its_estimate(name):
    # the error, measured as the estimate is, against 4096 substeps; the map
    # is that of the chosen count, byte for byte
    system, dt, chosen = _DERIVE_DEFAULTS[name]
    tm, substeps, estimate = ode._derivation(system, ode.FlowConfig(dt))
    ref = ode.ode_to_map(system, ode.FlowConfig(dt, substeps=4096)).stacked
    error = np.max(np.abs(tm.stacked - ref) / np.maximum(1.0, np.abs(ref)))
    assert substeps == chosen and estimate <= ode.MAP_TOL
    assert estimate == _default_estimate(system, dt, substeps)
    assert 0.5 * error <= estimate <= 2.0 * error, (estimate, error)
    fixed = ode.ode_to_map(system, ode.FlowConfig(dt, substeps=substeps))
    assert tm.stacked.tobytes() == fixed.stacked.tobytes()
    assert ode.ode_to_map(system, ode.FlowConfig(dt)).stacked.tobytes() == fixed.stacked.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.2, 0.5, 1.0]), st.sampled_from([0.1, -0.1, 0.5]))
def test_the_default_stops_at_the_first_level_within_map_tol(n, order, seed, density, dt):
    # small random ODEs, P_0 included: the default's map is that of
    # substeps=2N, byte for byte, its estimate within MAP_TOL and the
    # estimate of the level before it (N substeps against N / 2) above it
    rng = np.random.default_rng(seed)
    system = ode.PolynomialODE(n, order, tuple(
        rng.uniform(-1.0, 1.0, (n, basis.basis_size(n, d)))
        * (rng.random((n, basis.basis_size(n, d))) < density) for d in range(order + 1)))
    tm, substeps, estimate = ode._derivation(system, ode.FlowConfig(dt))
    assert estimate <= ode.MAP_TOL and estimate == _default_estimate(system, dt, substeps)
    fixed = ode.ode_to_map(system, ode.FlowConfig(dt, substeps=substeps))
    assert tm.stacked.tobytes() == fixed.stacked.tobytes()
    if substeps > 2:
        assert not _default_estimate(system, dt, substeps // 2) <= ode.MAP_TOL


def test_default_divergence_is_the_error_of_its_fine_run():
    # x' = 50 x over dt 20 stays finite at 64 substeps and overflows at
    # 128: the default raises that run's divergence, long before the cap on
    # its count
    message = (r"^weight flow diverged at t=19\.6875 of 20 \(substep 126/128; "
               r"last finite weight norm 5\.28993e\+304\)$")
    for cfg in (ode.FlowConfig(20.0), ode.FlowConfig(20.0, substeps=128)):
        with pytest.raises(ode.FlowDivergenceError, match=message) as err:
            ode.ode_to_map(_linear(50.0), cfg)
        assert err.value.layer == 126


def test_a_non_finite_coarse_run_only_doubles(monkeypatch):
    # Lotka-Volterra at dt 0.01 stops at 2 substeps unless its 1-substep
    # run, here made NaN, leaves the first level's estimate undefined: then
    # it stops at 4, with the bytes of 4 substeps.  The plan's kernel runs
    # the flow's terms as a callable, whose stages 9-12 are that run's one
    # substep, after the fine run's 2 x 4
    plan = ode._plan

    def nan_at_one_substep(system, k):
        *head, _ = plan(system, k)
        structure, size, calls = head[0], len(head[1]), []

        def kernel(C, *args):
            flow = basis._term_flow([(t, c, f) for (t, f), c in zip(structure, C)], size)

            def rhs(w):
                calls.append(None)
                return np.full(size, math.nan) if 9 <= len(calls) <= 12 else flow(w)

            return ode._term_advance(rhs, size)(*args)

        return (*head, kernel)

    lv = systems.lotka_volterra()
    monkeypatch.setattr(ode, "_plan", nan_at_one_substep)
    tm, substeps, estimate = ode._derivation(lv, ode.FlowConfig(0.01))
    monkeypatch.undo()
    assert substeps == 4 and estimate == _default_estimate(lv, 0.01, 4)
    assert tm.stacked.tobytes() == ode.ode_to_map(lv, ode.FlowConfig(0.01, 4)).stacked.tobytes()


def test_a_diverging_run_is_located_by_replaying_single_substeps(monkeypatch):
    # x' = 50 x at 1000 substeps of dt 20 ends substep 708 non-finite: the
    # run of 1000 substeps ends its one step non-finite, and only then is it
    # replayed from its start as steps of one substep each, which stop at
    # that substep (step 707 from 0)
    runs = _engine_runs(monkeypatch)
    with pytest.raises(ode.FlowDivergenceError, match=r"\(substep 708/1000;"):
        ode.ode_to_map(_linear(50.0), ode.FlowConfig(20.0, substeps=1000))
    assert [(fine, stop) for _, _, fine, stop in runs] == [(1000, 0), (1, 707)]


def test_default_derivation_above_the_substep_cap_asks_for_an_explicit_count(monkeypatch):
    # the pendulum needs 128 substeps at dt 0.1
    monkeypatch.setattr(ode, "_MAX_SUBSTEPS", 64)
    with pytest.raises(ValueError, match=r"^the map derivation's error estimate is \S+ "
                                         r"at 64 RK4 substeps, above MAP_TOL 1e-11; "
                                         r"pass substeps explicitly$"):
        ode.ode_to_map(systems.pendulum(), ode.FlowConfig(0.1))
    assert ode._derivation(systems.pendulum(), ode.FlowConfig(0.1, 64))[1:] == (64, None)


# --- trajectory integration -----------------------------------------------------


def _textbook_rk4(rhs, X0, dt, steps, substeps):
    X, h = np.asarray(X0, dtype=float), dt / substeps
    out = [X]
    for _ in range(steps):
        for _ in range(substeps):
            k1 = rhs(X)
            k2 = rhs(X + 0.5 * h * k1)
            k3 = rhs(X + 0.5 * h * k2)
            k4 = rhs(X + h * k3)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(X)
    return np.array(out)


def _numpy_pendulum(g=9.8, L=0.28, damping=0.1):
    # the damped full-sine pendulum as a plain numpy callable on (phi, omega)
    return lambda X: np.array([X[1], -(g / L) * np.sin(X[0]) - damping * X[1]])


def test_rk4_matches_textbook_loop_byte_for_byte():
    # pins the stage combination's grouping: any regrouping changes bytes;
    # the 10-substep case pins that exactly the substeps asked for run.  The
    # lifted pendulum's loop runs its ODE from the lift of X0, projected to
    # (phi, omega); the plain callable pins the one-call-per-stage path
    lifted = systems.damped_pendulum_rhs()
    cases = (
        (_numpy_pendulum(), [0.4, -0.3], 100),
        (systems.lotka_volterra().rhs, [0.8, 0.8], 100),
        (systems.free_fall().rhs, [-30.0], 100),
        (systems.rayleigh_plesset().rhs, [2.0, 0.1, 0.5, 0.0, 1.0], 100),
    )
    for rhs, X0, substeps in cases:
        got = ode.reference_trajectory(rhs, np.array(X0), 0.01, 30, substeps=substeps)
        assert got.tobytes() == _textbook_rk4(rhs, X0, 0.01, 30, substeps).tobytes()
    for substeps in (100, 10):
        X0 = np.array([0.4, -0.3])
        got = ode.reference_trajectory(lifted, X0, 0.01, 30, substeps=substeps)
        want = _textbook_rk4(lifted.ode.rhs, lifted.lift(X0), 0.01, 30, substeps)[:, :2]
        assert got.tobytes() == want.tobytes()


# the largest |phi| or |omega| difference over 49 steps of dt 0.1 between the
# lifted damped pendulum and its plain numpy callable, both under the default
# (measured 1.5e-13 to 2.1e-12 from phi0 <= 0.12 and 1.4e-10 from 1.0, against
# an oracle error of 4.0e-10 to 9.5e-10 each), and the largest drift of
# s**2 + c**2 from 1 on the lifted run (measured 6.6e-12)
_LIFT_TOL = {0.05: 1e-11, 0.09: 1e-11, 0.12: 1e-11, 1.0: 1e-9}
_CIRCLE_TOL = 1e-10


@pytest.mark.parametrize("phi0", sorted(_LIFT_TOL))
def test_the_lifted_pendulum_follows_its_numpy_callable(phi0):
    lifted, X0 = systems.damped_pendulum_rhs(g=9.8, L=0.28, damping=0.1), [phi0, 0.0]
    got, substeps, estimate = ode._reference(lifted, X0, 0.1, 49)
    want, want_substeps, _ = ode._reference(_numpy_pendulum(), X0, 0.1, 49)
    assert got.shape == (50, 2) and substeps == want_substeps == (128 if phi0 == 1.0 else 64)
    assert estimate <= ode.ORACLE_TOL
    assert np.abs(got - want).max() <= _LIFT_TOL[phi0]
    lifted_states = ode.reference_trajectory(lifted.ode, lifted.lift(np.array(X0)), 0.1, 49)
    assert lifted_states[:, :2].tobytes() == got.tobytes()
    assert np.abs(lifted_states[:, 2] ** 2 + lifted_states[:, 3] ** 2 - 1.0).max() <= _CIRCLE_TOL


def test_a_bad_lift_is_named():
    lifted = systems.damped_pendulum_rhs()

    def wrong_length(X):
        return np.array([X[0], X[1], np.sin(X[0])])

    def non_finite(X):
        return np.array([X[0], X[1], np.nan, 1.0])

    def moved(X):
        return np.array([np.nextafter(X[0], 1.0), X[1], np.sin(X[0]), np.cos(X[0])])

    def signed_zero(X):
        return np.array([X[0], -X[1], np.sin(X[0]), np.cos(X[0])])

    for lift, problem in ((wrong_length, r"has shape \(3,\), not \(4,\) of the lifted ODE"),
                          (non_finite, "is not finite"),
                          (moved, "does not start with X0"),
                          (signed_zero, "does not start with X0")):
        bad = ode.Lifted(lifted.ode, lift)
        with pytest.raises(ValueError, match=rf"^lift {lift.__qualname__} maps X0 .* which "
                                             rf"{problem}$"):
            ode.reference_trajectory(bad, [0.1, 0.0], 0.1, 3)
    with pytest.raises(ValueError, match="Lifted needs a PolynomialODE and a callable lift"):
        ode.Lifted(lifted.ode, None)
    with pytest.raises(ValueError, match="Lifted needs a PolynomialODE and a callable lift"):
        ode.Lifted(lambda X: X, lifted.lift)


def test_rk4_matches_harmonic_oscillator():
    rhs = lambda X: np.array([X[1], -X[0]])
    got = ode.reference_trajectory(rhs, np.array([1.0, 0.0]), 0.5, 20)
    t = 0.5 * np.arange(21)
    assert np.allclose(got[:, 0], np.cos(t), atol=1e-10)
    assert np.allclose(got[:, 1], -np.sin(t), atol=1e-10)


def test_rk4_output_shape_and_initial_row():
    X0 = np.array([2.0, -1.0])
    out = ode.reference_trajectory(lambda X: -X, X0, 0.1, 5)
    assert out.shape == (6, 2)
    assert np.array_equal(out[0], X0)
    assert ode.reference_trajectory(lambda X: -X, X0, 0.1, 0).shape == (1, 2)


def test_rk4_converges_at_fourth_order():
    rhs = lambda X: np.array([X[1], -X[0]])
    X0 = np.array([1.0, 0.0])
    exact = np.array([np.cos(1.0), -np.sin(1.0)])
    errs = [
        np.max(np.abs(ode.reference_trajectory(rhs, X0, 1.0, 1, substeps=s)[1] - exact))
        for s in (4, 8, 16)
    ]
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_rk4_divergence_raises():
    # an explicit count: the default doubles to 2 ** 16 substeps before the
    # overflow shows (test_default_divergence_names_its_step covers it)
    with pytest.raises(ode.FlowDivergenceError, match="diverged"):
        ode.reference_trajectory(lambda X: 50.0 * X, np.array([1.0]), 5.0, 10, substeps=100)


@pytest.mark.parametrize("rhs, shape", [
    (lambda X: np.concatenate([X, X]), "(4,)"),
    (lambda X: X[:1], "(1,)"),
    (lambda X: 0.5, "()"),
], ids=["longer", "shorter", "scalar"])
def test_callable_result_must_be_one_float_per_state_entry(rhs, shape):
    # a longer result was cut short by zip and gave a wrong trajectory
    with pytest.raises(ValueError, match=rf"^right-hand side returned shape "
                                         rf"{re.escape(shape)} for a state of shape \(2,\)$"):
        ode.reference_trajectory(rhs, np.array([1.0, 2.0]), 0.1, 3)


def test_rk4_input_validation():
    with pytest.raises(ValueError):
        ode.reference_trajectory(lambda X: -X, np.zeros((2, 2)), 0.1, 3)
    with pytest.raises(ValueError):
        ode.reference_trajectory(lambda X: -X, np.zeros(2), 0.1, -1)
    for substeps in (0, -2):
        with pytest.raises(ValueError, match="substeps"):
            ode.reference_trajectory(lambda X: -X, np.zeros(2), 0.1, 3, substeps=substeps)
    for dt in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^dt must be finite"):
            ode.reference_trajectory(lambda X: -X, np.zeros(2), dt, 3)
    for dt in ("x", None, True):
        with pytest.raises(ValueError, match="^dt must be a finite number"):
            ode.reference_trajectory(lambda X: -X, np.zeros(2), dt, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_start_is_refused_before_any_run(bad):
    # a NaN or inf entry is refused before the right-hand side is called,
    # at either count, at steps 0 and 3, and through synthesize
    calls = []

    def rhs(X):
        calls.append(None)
        return -X

    message = rf"^X0 must be finite, got \[0\.5, {bad}\]$"
    for steps in (0, 3):
        for substeps in (None, 4):
            for system in (systems.lotka_volterra(), rhs):
                with pytest.raises(ValueError, match=message):
                    ode.reference_trajectory(system, np.array([0.5, bad]), 0.1, steps, substeps)
        with pytest.raises(ValueError, match=message):
            systems.synthesize(systems.lotka_volterra(), [0.5, bad], 0.1, steps)
    assert calls == []


_STILL = ode.PolynomialODE(4, 1, (np.zeros((4, 1)), np.zeros((4, 4))))
_RING = lattice.Lattice(elements=[lattice.rotation_element("r", 0.1, 0.2)], monitors=(1,))
# JSON forms of order-2 polynomials in 2 variables
_MAP = maps.identity_map(2, 2).to_dict()
_ODE = ode.PolynomialODE(2, 2, (np.zeros((2, 1)), np.eye(2), np.zeros((2, 3)))).to_dict()


def _oracle_substeps(v):
    return ode.reference_trajectory(lambda X: -X, np.ones(1), 0.1, 2, v)


def _flow_substeps(v):
    return ode.FlowConfig(0.1, substeps=v)


@pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), "3", None])
@pytest.mark.parametrize("name, make", [
    ("substeps", _flow_substeps),
    ("epochs", lambda v: network.TrainConfig(epochs=v)),
    ("steps", lambda v: ode.reference_trajectory(lambda X: -X, np.ones(1), 0.1, v)),
    ("substeps", _oracle_substeps),
    ("length", lambda v: network.build_shared_chain(maps.identity_map(2, 1), v)),
    ("n_turns", lambda v: lattice.multi_turn(_RING, np.zeros(4), v)),
    ("substeps", lambda v: lattice.LatticeElement("s", maps.identity_map(4, 1), _STILL,
                                                  1.0, v)),
    ("dim", lambda v: maps.TaylorMap.from_dict({**_MAP, "dim": v})),
    ("order", lambda v: maps.TaylorMap.from_dict({**_MAP, "order": v})),
    ("dim", lambda v: ode.PolynomialODE.from_dict({**_ODE, "dim": v})),
    ("order", lambda v: ode.PolynomialODE.from_dict({**_ODE, "order": v})),
], ids=["FlowConfig", "TrainConfig", "steps", "substeps", "length", "n_turns",
        "LatticeElement", "map_dim", "map_order", "ode_dim", "ode_order"])
def test_counts_must_be_integers(name, make, value):
    if value is None and make in (_oracle_substeps, _flow_substeps):
        # their default: the count is chosen by step doubling (a lattice
        # element keeps the count its file stores)
        make(value)
        return
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        make(value)
    for count in (2, np.int64(2)):
        make(count)


def test_reference_trajectory_accepts_ode_or_callable():
    sys = _free_fall()
    a = ode.reference_trajectory(sys, np.array([0.0]), 0.5, 4)
    b = ode.reference_trajectory(sys.rhs, np.array([0.0]), 0.5, 4)
    assert np.array_equal(a, b)
    # closed form: v(t) = 50 tanh(g t / 50)
    t = 0.5 * np.arange(5)
    assert np.allclose(a[:, 0], 50.0 * np.tanh(9.8 * t / 50.0), atol=1e-10)


# --- the generated oracle ----------------------------------------------------------


def _term_rhs(system):
    # dX/dt on a list of floats from the nonzero columns of the stacked
    # matrix: each monomial multiplies its variables left to right, x_i
    # repeated e_i times (the prefix products of the generated oracle, where
    # x ** 3 and x * x * x can differ by an ulp); each row starts at 0.0 and
    # adds its terms in column order
    E, _ = basis._stacked_exponents(system.dim, system.order)
    S = system.stacked
    cols = np.flatnonzero(S.any(axis=0)).tolist()
    factors = [[i for i, e in enumerate(E[j].tolist()) for _ in range(int(e))] for j in cols]
    rows = [[(float(S[i, j]), c) for c, j in enumerate(cols) if S[i, j]]
            for i in range(system.dim)]

    def rhs(X):
        m = []
        for f in factors:
            v = 1.0
            for i in f:
                v *= X[i]
            m.append(v)
        out = []
        for row in rows:
            acc = 0.0
            for c, j in row:
                acc += c * m[j]
            out.append(acc)
        return out

    return rhs


def _textbook_on_terms(system, X0, dt, steps, substeps):
    terms = _term_rhs(system)
    return _textbook_rk4(lambda X: np.array(terms(X.tolist())), X0, dt, steps, substeps)


def test_reference_trajectory_keeps_the_bytes_of_a_textbook_loop_on_rhs():
    # the generated substeps against the textbook loop on the term-by-term
    # evaluator and on the order-0 weight flow, the term list they are
    # generated from, on the trajectories the benchmark and the acceptance
    # checks integrate; every state is also checked against the stacked
    # product PolynomialODE.rhs
    ring = lattice.build_fodo_ring(substeps=10)
    # x' = y^3, y' = 0, where 0.3 ** 3 and 0.3 * 0.3 * 0.3 differ by an ulp
    cube = ode.PolynomialODE(2, 3, (np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((2, 3)),
                                    np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])))
    cases = [
        (cube, [0.0, 0.3], 0.1, 1, 1),
        (systems.lotka_volterra(), [0.5, 0.5], 0.01, 40, 100),
        (systems.lotka_volterra(), [0.8, 0.8], 0.01, 40, 100),
        (systems.pendulum(), [0.09, 0.0], 0.1, 1, 2000),
        (systems.pendulum(), [0.2, 0.4], 0.05, 10, 100),
        (systems.free_fall(), [-30.0], 0.1, 2, 1000),
        (systems.free_fall(), [0.0], 0.5, 4, 100),
        (systems.free_fall_augmented(), [0.0, 0.00392], 0.1, 20, 100),
    ] + [
        (ring.elements[j].generator, [1e-3, 2e-4, -1e-3, 1e-4], 1.0, 5, 100)
        for j in (0, 1, 2, 8)  # qf, drift, qd, sextupole
    ]
    for system, X0, dt, steps, substeps in cases:
        got = ode.reference_trajectory(system, np.array(X0), dt, steps, substeps)
        want = _textbook_on_terms(system, X0, dt, steps, substeps)
        assert got.tobytes() == want.tobytes(), (system, X0)
        flow = _textbook_rk4(ode._weight_flow(system, 0), X0, dt, steps, substeps)
        assert got.tobytes() == flow.tobytes(), (system, X0)
        _near_stacked_product(system, got)
    # the cube case tells products from **: a textbook loop on y ** 3 differs
    power = _textbook_rk4(lambda X: np.array([X[1] ** 3, 0.0]), [0.0, 0.3], 0.1, 1, 1)
    assert power.tobytes() != _textbook_on_terms(cube, [0.0, 0.3], 0.1, 1, 1).tobytes()


def _near_stacked_product(system, states):
    # both evaluators lie within a few ulps of the sum of absolute terms
    terms = _term_rhs(system)
    for x in states:
        scale = np.abs(system.stacked) @ np.abs(basis.monomials(x, system.order))
        err = np.abs(np.array(terms(x.tolist())) - system.rhs(x))
        assert np.all(err <= 4 * np.finfo(float).eps * scale), x


def test_rayleigh_plesset_oracle_is_near_the_stacked_product():
    system = systems.rayleigh_plesset()
    traj = ode.reference_trajectory(system, np.array([2.0, 0.1, 0.5, 0.0, 1.0]), 0.01, 200)
    _near_stacked_product(system, traj)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data(), st.integers(1, 5), st.integers(1, 3))
def test_term_list_evaluator_is_near_the_stacked_product(data, n, k):
    # dense ODEs: the generated substeps keep the bytes of the textbook loop
    # on the term-by-term evaluator and on the order-0 weight flow, and stay
    # near the stacked product
    coeff = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    blocks = tuple(
        data.draw(hnp.arrays(np.float64, (n, basis.basis_size(n, d)), elements=coeff))
        for d in range(k + 1)
    )
    system = ode.PolynomialODE(n, k, blocks)
    X0 = data.draw(hnp.arrays(np.float64, (n,), elements=st.floats(-1, 1)))
    got = ode.reference_trajectory(system, X0, 0.001, 5, substeps=100)
    assert got.tobytes() == _textbook_on_terms(system, X0, 0.001, 5, 100).tobytes()
    flow = _textbook_rk4(ode._weight_flow(system, 0), X0, 0.001, 5, 100)
    assert got.tobytes() == flow.tobytes()
    _near_stacked_product(system, got)


def test_generated_oracle_compiles_rows_of_more_than_5000_terms():
    # a one-expression sum this long overflows the compiler's recursion
    # limit on some CPython versions; statements of 64 terms do not
    n, k = 2, 100
    rng = np.random.default_rng(5)
    blocks = tuple(rng.uniform(-1.0, 1.0, size=(n, basis.basis_size(n, d))) / (d + 1) ** 2
                   for d in range(k + 1))
    system = ode.PolynomialODE(n, k, blocks)
    assert np.count_nonzero(system.stacked, axis=1).min() > 5000
    X0 = [0.3, -0.2]
    got = ode.reference_trajectory(system, np.array(X0), 0.01, 2, 3)
    assert got.tobytes() == _textbook_on_terms(system, X0, 0.01, 2, 3).tobytes()
    assert np.all(np.isfinite(got))
    # the point evaluator adds such a row in statements of 64 terms, to the
    # oracle's values
    assert system.rhs(np.array(X0)).tolist() == _term_rhs(system)(X0)


def test_overflowing_power_is_divergence_at_its_step():
    # nothing raises OverflowError: v^2 = 1e400 and phi^3 = 1e360 overflow to
    # inf, in the generated products as in numpy, and the state ends non-finite
    for system, X0, norm in ((systems.free_fall(), [-1e200], r"1e\+200"),
                             (systems.pendulum(), [1e120, 0.0], r"1e\+120")):
        message = rf"^trajectory diverged at t=0\.1 \(step 1/3; last finite state norm {norm}\)$"
        for rhs in (system, system.rhs):
            with pytest.raises(ode.FlowDivergenceError, match=message) as err:
                ode.reference_trajectory(rhs, np.array(X0), 0.1, 3)
            assert err.value.layer == 1


def test_reference_trajectory_rejects_a_state_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="dim 2"):
        ode.reference_trajectory(systems.lotka_volterra(), np.zeros(3), 0.1, 2)


def test_a_polynomial_odes_oracle_compiles_once_per_structure(monkeypatch):
    # three calls on one ODE, default and explicit counts, compile its
    # substeps once; an equal but separate ODE, and one of the same terms
    # with other coefficients, compile nothing and keep the bytes that a
    # compile of their own gives
    runs = [([0.5, 0.5], 0.01, 20, None), ([0.3, 0.7], 0.1, 5, 50), ([0.5, 0.5], 0.01, 20, 2)]
    lv = systems.lotka_volterra()
    other = ode.PolynomialODE(2, 2, tuple(3.0 * c for c in lv.coeffs))

    def trajectories(system):
        return [ode.reference_trajectory(system, *run).tobytes() for run in runs]

    ode._kernel.cache_clear()
    want_other = trajectories(other)
    ode._kernel.cache_clear()
    want = trajectories(lv)
    ode._kernel.cache_clear()
    names, compiled = [], basis._compiled

    def counting(source, name, *args, **kwargs):
        names.append(name)
        return compiled(source, name, *args, **kwargs)

    monkeypatch.setattr(basis, "_compiled", counting)
    assert trajectories(lv) == want
    assert names == ["<RK4 substeps of a dim-2 ODE>"]
    assert trajectories(systems.lotka_volterra()) == want
    assert trajectories(other) == want_other
    assert names == ["<RK4 substeps of a dim-2 ODE>"]


# --- the step-doubling default -------------------------------------------------------

# (system, X0, dt, steps, the substeps per step the default chooses) for
# every built-in system and the lifted damped pendulum: the starts and
# steps the workloads and checks use, with fewer steps where a 2000-substep
# reference would be slow
_DOUBLING_CASES = {
    "free_fall": (systems.free_fall(), [0.0], 0.5, 30, 8),
    "free_fall_augmented": (systems.free_fall_augmented(), [0.0, 0.00392], 0.1, 20, 2),
    "lotka_volterra": (systems.lotka_volterra(), [0.5, 0.5], 0.01, 100, 2),
    "pendulum": (systems.pendulum(), [0.2, 0.4], 0.05, 40, 32),
    "rayleigh_plesset": (systems.rayleigh_plesset(), [2.0, 0.1, 0.5, 0.0, 1.0], 0.01, 50, 2),
    "damped_pendulum_rhs": (systems.damped_pendulum_rhs(g=9.8, L=0.28, damping=0.1),
                            [0.12, 0.0], 0.1, 10, 64),
}


@pytest.mark.parametrize("name", [*systems.SYSTEMS, "damped_pendulum_rhs"])
def test_step_doubling_default_is_a_fixed_run_within_2x_of_its_estimate(name):
    # the error, measured as the estimate is, against 2000 substeps per step;
    # the states are those of the chosen count, byte for byte
    system, X0, dt, steps, chosen = _DOUBLING_CASES[name]
    got, substeps, estimate = ode._reference(system, X0, dt, steps)
    ref = ode.reference_trajectory(system, X0, dt, steps, substeps=2000)
    error = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
    assert substeps == chosen and estimate <= ode.ORACLE_TOL
    assert 0.5 * error <= estimate <= 2.0 * error, (estimate, error)
    fixed = ode.reference_trajectory(system, X0, dt, steps, substeps)
    assert got.tobytes() == fixed.tobytes()
    assert ode.reference_trajectory(system, X0, dt, steps).tobytes() == got.tobytes()


def test_default_divergence_names_its_step():
    # x' = x from 1e299 passes the estimate on every step (relative to |x|)
    # until the fine run overflows: from 1e299 e^19 = 1.78e307, the stage sum
    # a + 2b + 2c + d, about 6x, passes the largest float within step 20
    with pytest.raises(ode.FlowDivergenceError,
                       match=r"^trajectory diverged at t=20 \(step 20/30; "
                             r"last finite state norm 1\.78482e\+307\)$") as err:
        ode.reference_trajectory(lambda X: X, np.array([1e299]), 1.0, 30)
    assert err.value.layer == 20


def test_a_non_finite_coarse_run_stops_only_its_level():
    # dX/dt = 0 passes at N = 1 unless its coarse run is NaN: calls 9-12 are
    # the coarse substep of step 1 there, after the fine run's 2 x 4 stages.
    # One NaN entry after a finite one is enough
    for bad in ([np.nan, np.nan], [0.0, np.nan]):
        calls = []

        def rhs(X):
            calls.append(None)
            return np.array(bad) if 9 <= len(calls) <= 12 else np.zeros_like(X)

        got, substeps, estimate = ode._reference(rhs, [0.5, -1.0], 0.1, 3)
        assert (substeps, estimate) == (4, 0.0)
        assert np.array_equal(got, np.tile([0.5, -1.0], (4, 1)))


def test_an_empty_state_resolves_to_2_substeps():
    # an all-zero ODE moves no weight, so its derivation runs an empty
    # compact state, as a trajectory from an empty X0 does: the default
    # resolves both to 2 substeps at estimate 0.0, and its trajectory has
    # the shape an explicit count gives
    zero = ode.PolynomialODE(2, 2, tuple(np.zeros((2, basis.basis_size(2, d)))
                                         for d in range(3)))
    assert ode._pruned_flow(zero, 2) == ([], [])
    tm, substeps, estimate = ode._derivation(zero, ode.FlowConfig(0.1))
    assert (substeps, estimate) == (2, 0.0)
    assert tm.stacked.tobytes() == maps.identity_map(2, 2).stacked.tobytes()
    states, substeps, estimate = ode._reference(lambda X: -X, [], 0.1, 3)
    assert (states.shape, substeps, estimate) == ((4, 0), 2, 0.0)
    assert ode.reference_trajectory(lambda X: -X, [], 0.1, 3, substeps=4).shape == (4, 0)


def test_default_above_the_substep_cap_asks_for_an_explicit_count(monkeypatch):
    # the damped pendulum needs 64 substeps per step at dt 0.1
    monkeypatch.setattr(ode, "_MAX_SUBSTEPS", 16)
    system, X0, dt, steps, _ = _DOUBLING_CASES["damped_pendulum_rhs"]
    with pytest.raises(ValueError, match=r"^the reference trajectory's error estimate is "
                                         r"\S+ at 16 RK4 substeps per step, above "
                                         r"ORACLE_TOL 1e-09; pass substeps explicitly$"):
        ode.reference_trajectory(system, np.array(X0), dt, steps)
    assert ode.reference_trajectory(system, np.array(X0), dt, steps, 16).shape == (11, 2)


def _per_step_run(level, X, dt, steps, substeps, tol, diverged, capped):
    # the runner as it was before a level became one generated pass, kept
    # as the reference: the same ladder, stepping the fine and the coarse
    # run in Python with one engine call per run and step (a level of one
    # step and no coarse run, read as NaN where it ends non-finite)
    def advance(X, h, substeps):
        states, stop, _ = level(X, h, h, substeps, 0, 1, [], tol)
        return states[-1] if stop else [math.nan] * len(X)

    fine, known = substeps or 2, []
    while True:
        coarse = None if substeps else fine // 2
        h, H = dt / fine, dt / (coarse or 1)
        out, C, estimate = [X], X, 0.0
        for s in range(steps):
            with np.errstate(over="ignore", invalid="ignore"):
                Y = advance(out[s], h, fine)
                if coarse:
                    C = known[s + 1] if s + 1 < len(known) else advance(C, H, coarse)
            if not all(map(math.isfinite, Y)):
                raise diverged(out[s], s, fine)
            out.append(Y)
            if coarse:
                e = (max(abs(y - c) / max(1.0, abs(y)) for y, c in zip(Y, C)) / 15.0
                     if all(map(math.isfinite, C)) else math.nan) if Y else 0.0
                if not e <= tol:
                    break
                estimate = max(estimate, e)
        else:
            return out, fine, estimate if coarse else None
        if 2 * fine > ode._MAX_SUBSTEPS:
            raise ValueError(capped(e, fine))
        fine, known = 2 * fine, out


def _random_ode(n, order, seed, density, scale):
    # an ODE with a share density of its coefficients nonzero, uniform in
    # +-scale, and a start in [-1, 1]^n
    rng = np.random.default_rng(seed)
    shapes = [(n, basis.basis_size(n, d)) for d in range(order + 1)]
    system = ode.PolynomialODE(n, order, tuple(
        rng.uniform(-scale, scale, shape) * (rng.random(shape) < density) for shape in shapes))
    return system, rng.uniform(-1.0, 1.0, n).tolist()


def _both_runners(f):
    # f() under the generated levels, then under the per-step runner, a cap
    # of 64 substeps on both: each its result, or its error's type, message
    # and layer
    def run(runner):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ode, "_run", runner)
            patch.setattr(ode, "_MAX_SUBSTEPS", 64)
            try:
                return f()
            except (ode.FlowDivergenceError, ValueError) as err:
                return type(err), str(err), getattr(err, "layer", None)

    return run(ode._run), run(_per_step_run)


def _runs_of(system, X0, steps, substeps, dt=0.05):
    # (trajectory, derivation), each its bytes, substeps and estimate
    def trajectory():
        states, count, estimate = ode._reference(system, X0, dt, steps, substeps)
        return states.tobytes(), count, estimate

    def derivation():
        tm, count, estimate = ode._derivation(system, ode.FlowConfig(dt, substeps))
        return tm.stacked.tobytes(), count, estimate

    return trajectory, derivation


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([1.0, 5.0, 1e3]),
       st.sampled_from([None, 1, 3]), st.integers(0, 8))
# the all-zero ODE, whose derivation runs the empty state
@example(n=3, order=2, seed=0, density=0.0, scale=1.0, substeps=None, steps=4)
# level 1 breaks at step 6, so level 2 reads its coarse states from known
@example(n=2, order=1, seed=0, density=1.0, scale=1.0, substeps=None, steps=8)
# the default's estimate passes the cap of 64 substeps
@example(n=2, order=2, seed=0, density=1.0, scale=5.0, substeps=None, steps=8)
def test_each_level_runs_as_the_per_step_runner_did(n, order, seed, density, scale,
                                                    substeps, steps):
    # random ODEs, coefficients up to 1e3 (which diverge), at counts None,
    # 1 and 3: trajectories and derivations end with the per-step runner's
    # states, substeps and estimate, or raise its error
    system, X0 = _random_ode(n, order, seed, density, scale)
    for f in _runs_of(system, X0, steps, substeps):
        new, old = _both_runners(f)
        assert new == old


def test_a_level_that_breaks_after_step_0_resumes_from_its_fine_states(monkeypatch):
    # the second example above: the first level (2 substeps against 1) stops
    # at step 6, the second reads the coarse states of steps 0-6 from the
    # first level's fine states and runs its coarse run from step 7 on,
    # and both runners agree
    system, X0 = _random_ode(2, 1, 0, 1.0, 1.0)
    runs = _engine_runs(monkeypatch)
    trajectory, _ = _runs_of(system, X0, 8, None)
    new, old = _both_runners(trajectory)
    assert [(fine, stop) for _, _, fine, stop in runs[:2]] == [(2, 6), (4, 8)]
    assert new == old
    states, count, estimate = new
    assert count == 4 and estimate <= ode.ORACLE_TOL
    assert ode.reference_trajectory(system, X0, 0.05, 8, 4).tobytes() == states


# --- the generated level's float work ---------------------------------------------


def _seeded_source(structure, n, moving):
    # the level as it was generated before its sums lost the 0.0 seed,
    # kept as the reference: each output starts at 0.0 and adds one
    # p<j> * m per term, every entry in moving gets the stage states, and
    # the locals start from X itself
    def stage(out, state):
        # dX/dt at the variables named in state, into out<i> for i in moving
        if structure is None:
            return [f"[{', '.join(f'{out}{i}' for i in range(n))}] = C([{', '.join(state)}])"]
        lines, names = basis._products(state, [f for _, f in structure])
        return ([f"{out}{i} = 0.0" for i in moving] + lines
                + [f"{out}{o} += p{j} * {names[f]}" for j, (o, f) in enumerate(structure)])

    x, z = [f"x{i}" for i in range(n)], [f"z{i}" for i in range(n)]
    y = [f"y{i}" if i in moving else v for i, v in enumerate(x)]
    xm, zm = [x[i] for i in moving], [z[i] for i in moving]

    def update(step, k):
        return [f"y{i} = x{i} + {step} * {k}{i}" for i in moving]

    if structure == "loop":
        run = [f"[{', '.join(x)}] = C([{', '.join(x)}], step, count)"]
    else:
        body = (stage("a", x) + update("half", "a") + stage("b", y) + update("half", "b")
                + stage("c", y) + update("step", "c") + stage("d", y)
                + [f"x{i} = x{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"
                   for i in moving])
        run = ["for _ in range(count):", *(f"    {line}" for line in body or ["pass"])]

    def finite(names):
        return " and ".join(f"isfinite({v})" for v in names) or "True"

    errors = [f"abs({a} - {b}) / max(1.0, abs({a}))" for a, b in zip(xm, zm)]
    error = f"max({', '.join(errors)})" if len(errors) > 1 else "".join(errors) or "0.0"
    coefficients = structure and structure != "loop"
    return "\n".join([
        "def level(C, X, h, H, fine, coarse, steps, known, tol):",
        *([f"    {''.join(f'p{j}, ' for j in range(len(structure)))}= C"] if coefficients else []),
        "    both = (fine, h, 0.5 * h, h / 6.0), (coarse, H, 0.5 * H, H / 6.0)",
        "    alone = both[0], (0, H, 0.5 * H, H / 6.0)",
        "    states, estimate, resumed = [X], 0.0, len(known) - 1",
        f"    [{', '.join(x)}] = [{', '.join(z)}] = X",
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


def _both_emitters(f, oracle):
    # f() on the levels of ode._rk4_source, then on those of the seeded
    # emitter, moving what it moved: the targets of a derivation's terms,
    # every entry of the oracle's state, of a callable's and of the numpy
    # loop's; a cap of 64 substeps on both: each its result, or its error's
    # type, message and layer
    def seeded(structure, n):
        every = oracle or structure in (None, "loop")
        return _seeded_source(structure, n,
                              range(n) if every else sorted({t for t, _ in structure}))

    def run(emitter):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ode, "_rk4_source", emitter)
            patch.setattr(ode, "_MAX_SUBSTEPS", 64)
            ode._kernel.cache_clear()
            ode._structure_plan.cache_clear()
            try:
                return f()
            except (ode.FlowDivergenceError, ValueError) as err:
                return type(err), str(err), getattr(err, "layer", None)
            finally:
                ode._kernel.cache_clear()
                ode._structure_plan.cache_clear()

    return run(ode._rk4_source), run(seeded)


def _assert_no_negative_zero_after_the_start(result, n):
    # every state after X is free of -0.0, once the level has started
    if isinstance(result[0], bytes):
        states = np.frombuffer(result[0]).reshape(-1, n)[1:]
        assert not np.signbit(states[states == 0.0]).any()


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([1.0, 1e3, 1e300]),
       st.sampled_from([None, 1, 3]), st.integers(0, 6), st.integers(0, 3 ** 4 - 1))
# a drift x' = y from a start of -0.0 and +0.0: y has no terms, x is read by none
@example(n=2, order=1, seed=3, density=0.3, scale=1.0, substeps=None, steps=4, zeros=7)
def test_each_level_keeps_the_seeded_emitters_bytes(n, order, seed, density, scale,
                                                    substeps, steps, zeros):
    # random ODEs, all-zero ones, rows without terms and entries no term
    # reads included, coefficients up to 1e300 (which overflow to inf and
    # NaN), from starts whose entries are kept, -0.0 or +0.0 (the digits of
    # zeros in base 3), at counts None, 1 and 3: trajectories and
    # derivations end with the seeded emitter's states, substeps and
    # estimate, or raise its error.  With dt < 0 the seeded emitter kept a
    # start's -0.0 where the entry stayed zero; ode._rk4_source's levels
    # hold +0.0 there, every other byte being the same
    system, X0 = _random_ode(n, order, seed, density, scale)
    X0 = [(x, -0.0, 0.0)[zeros // 3 ** i % 3] for i, x in enumerate(X0)]
    for dt in (0.05, -0.05):
        trajectory, derivation = _runs_of(system, X0, steps, substeps, dt)
        new, old = _both_emitters(derivation, oracle=False)
        assert new == old
        new, old = _both_emitters(trajectory, oracle=True)
        _assert_no_negative_zero_after_the_start(new, n)
        if dt < 0 and isinstance(new[0], bytes):
            new, old = (((np.frombuffer(r[0]) + 0.0).tobytes(), *r[1:]) for r in (new, old))
        assert new == old


def _seeded_cases():
    # (system, X0, dt, steps) of the oracle: the built-ins at the starts
    # and steps of the default's checks, the lifted damped pendulum, the
    # ring's elements and the all-zero ODE from starts holding -0.0
    ring = lattice.build_fodo_ring(substeps=10)
    zero = ode.PolynomialODE(2, 2, tuple(np.zeros((2, basis.basis_size(2, d)))
                                         for d in range(3)))
    return ([case[:4] for case in _DOUBLING_CASES.values()]
            + [(ring.elements[j].generator, [1e-3, -0.0, 1e-3, -0.0], 1.0, 5)
               for j in (0, 1, 2, 8)]  # qf, drift, qd, sextupole
            + [(zero, [-0.0, 0.5], 0.1, 3),
               (_DOUBLING_CASES["pendulum"][0], [0.2, -0.0], 0.05, 6)])


@pytest.mark.parametrize("index", range(12), ids=[
    *_DOUBLING_CASES, "qf", "drift", "qd", "sextupole", "all-zero", "pendulum-from--0.0"])
def test_the_oracle_keeps_the_seeded_emitters_bytes(index):
    # trajectories at counts None, 1 and 3 and, for a polynomial ODE, its
    # derivation at the default: the seeded emitter's bytes; a start's -0.0
    # stays in the first state alone
    system, X0, dt, steps = _seeded_cases()[index]
    n = len(X0)
    for substeps in (None, 1, 3):
        trajectory, derivation = _runs_of(system, X0, steps, substeps, dt)
        new, old = _both_emitters(trajectory, oracle=True)
        assert new == old
        _assert_no_negative_zero_after_the_start(new, n)
        assert np.frombuffer(new[0])[:n].tobytes() == np.array(X0).tobytes()
    if isinstance(system, ode.PolynomialODE):
        new, old = _both_emitters(derivation, oracle=False)
        assert new == old


def test_a_drift_holds_its_momenta_at_their_normalised_start():
    # x' = px, y' = py: px and py have no terms, so the level moves only
    # x and y, and x and y are read by no term, so no stage state is formed
    # for them; from (1e-3, -0.0, 1e-3, -0.0) every later state holds +0.0
    # momenta
    drift = lattice.build_fodo_ring(substeps=10).elements[1].generator
    terms = basis._flow_terms(drift, 0)
    assert sorted({t for t, _, _ in terms}) == [0, 2]
    assert {i for _, _, f in terms for i in f} == {1, 3}
    source = ode._rk4_source(tuple((t, f) for t, _, f in terms), 4)
    assert "y0" not in source and "y2" not in source and " += " not in source
    states = ode.reference_trajectory(drift, [1e-3, -0.0, 1e-3, -0.0], 1.0, 3, 2)
    assert np.signbit(states[0]).tolist() == [False, True, False, True]
    assert not np.signbit(states[1:]).any()
    assert states[-1].tolist() == [1e-3, 0.0, 1e-3, 0.0]
