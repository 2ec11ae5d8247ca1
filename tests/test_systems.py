"""Tests for the built-in example systems and observation synthesis.

Every constructor is checked against a hand-coded closed-form right-hand
side at random states, and the analytic references against dense RK4.
"""

import numpy as np
import pytest

from tmnet import basis, ode, systems


# --- free fall -----------------------------------------------------------------


def test_free_fall_coefficients():
    sys = systems.free_fall(100.0, 9.8, 0.392)
    assert sys.dim == 1 and sys.order == 2
    assert sys.coeffs[0][0, 0] == 9.8
    assert sys.coeffs[1][0, 0] == 0.0
    assert sys.coeffs[2][0, 0] == pytest.approx(-0.00392, rel=1e-15)
    # forward-Euler step at dt=0.1: 0.98 + v - 0.000392 v^2
    v = 17.3
    assert v + 0.1 * sys.rhs([v])[0] == pytest.approx(
        0.98 + v - 0.000392 * v**2, rel=1e-13
    )


def test_free_fall_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        systems.free_fall(m=0.0)
    with pytest.raises(ValueError):
        systems.free_fall(m=-3.0)


def test_free_fall_without_drag_is_uniform_acceleration():
    sys = systems.free_fall(k=0.0)
    traj = ode.reference_trajectory(sys, np.array([0.0]), 0.5, 10)
    t = 0.5 * np.arange(11)
    assert np.allclose(traj[:, 0], 9.8 * t, atol=1e-10)


def test_terminal_velocity_is_fifty_for_default_parameters():
    assert np.sqrt(100.0 * 9.8 / 0.392) == pytest.approx(50.0, rel=1e-14)
    # the rhs vanishes there
    assert systems.free_fall().rhs([50.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_free_fall_analytic_against_rk4():
    t = 0.5 * np.arange(31)
    v = systems.free_fall_analytic(t)
    assert v[0] == 0.0
    assert systems.free_fall_analytic(1e6) == pytest.approx(50.0, rel=1e-12)
    traj = ode.reference_trajectory(systems.free_fall(), np.array([0.0]), 0.5, 30)
    assert np.allclose(v, traj[:, 0], atol=1e-6)


def test_free_fall_analytic_domain():
    with pytest.raises(ValueError):
        systems.free_fall_analytic(1.0, k=0.0)
    with pytest.raises(ValueError):
        systems.free_fall_analytic(-0.5)
    with pytest.raises(ValueError):
        systems.free_fall_analytic(1.0, m=-1.0)


# --- augmented free fall ----------------------------------------------------------


def test_augmented_rhs_and_mu_row():
    sys = systems.free_fall_augmented()
    assert sys.dim == 2 and sys.order == 3
    rng = np.random.default_rng(40)
    for _ in range(100):
        v, mu = rng.normal() * 30, rng.uniform(0, 0.01)
        got = sys.rhs([v, mu])
        assert got[0] == pytest.approx(9.8 - mu * v**2, rel=1e-12, abs=1e-12)
        assert got[1] == 0.0
    # mu = 0 removes the drag entirely
    assert sys.rhs([25.0, 0.0])[0] == pytest.approx(9.8, rel=1e-14)


def test_augmented_map_keeps_mu_invariant():
    tm = ode.ode_to_map(systems.free_fall_augmented(), ode.FlowConfig(0.5))
    X = np.array([0.0, 0.00392])
    for _ in range(30):
        X = tm(X)
        assert X[1] == pytest.approx(0.00392, abs=1e-9)


def test_augmented_map_generalizes_across_masses():
    # one map, four masses: accurate to 1% through the early transient
    # (t <= 4 for every mass; the lightest saturates soonest) and within 6%
    # of terminal speed over the whole 15 s horizon (the order-3 truncation
    # cannot track tanh saturation near v_t; measured worst case is 5.4% at
    # m=80)
    tm = ode.ode_to_map(systems.free_fall_augmented(), ode.FlowConfig(0.5))
    for m in (100.0, 80.0, 90.0, 120.0):
        vt = np.sqrt(m * 9.8 / 0.392)
        X = np.array([0.0, 0.392 / m])
        for i in range(1, 31):
            X = tm(X)
            t = 0.5 * i
            exact = float(systems.free_fall_analytic(t, m=m))
            rel = abs(X[0] - exact) / vt
            assert rel < 0.06, f"m={m} t={t}: {rel:.4f}"
            if t <= 4.0:
                assert rel < 0.01, f"m={m} t={t}: {rel:.4f}"


# --- Lotka-Volterra ----------------------------------------------------------------


def test_lotka_volterra_coefficients_and_samples():
    sys = systems.lotka_volterra()
    assert sys.dim == 2 and sys.order == 2
    assert np.array_equal(sys.coeffs[1], [[0.0, 1.0], [-2.0, 0.0]])
    assert np.allclose(sys.rhs([0.0, 0.0]), [0.0, 0.0])
    assert np.allclose(sys.rhs([1.0, 1.0]), [2.0, -3.0])
    rng = np.random.default_rng(41)
    for _ in range(100):
        x, y = rng.normal(size=2)
        assert np.allclose(sys.rhs([x, y]), [y + x * y, -2 * x - x * y], atol=1e-12)


def test_lotka_volterra_training_orbit_is_bounded():
    traj = ode.reference_trajectory(
        systems.lotka_volterra(), np.array([0.5, 0.5]), 0.01, 465
    )
    assert traj.shape == (466, 2)
    assert np.all(np.isfinite(traj))
    assert np.max(np.abs(traj)) < 3.0


# --- pendulum ------------------------------------------------------------------------


def test_pendulum_coefficients():
    sys = systems.pendulum(9.8, 0.3)
    assert np.allclose(sys.coeffs[1], [[0.0, 1.0], [-9.8 / 0.3, 0.0]], rtol=1e-14)
    cube = basis.position(2, 3, (3, 0))
    P3 = sys.coeffs[3]
    assert P3[1, cube] == pytest.approx(9.8 / 0.3 / 6.0, rel=1e-14)
    assert np.count_nonzero(P3) == 1
    with pytest.raises(ValueError):
        systems.pendulum(L=0.0)


def test_pendulum_small_angle_matches_cosine():
    g, L, phi0 = 9.8, 0.3, 0.01
    om = np.sqrt(g / L)
    period = 2 * np.pi / om
    steps = 40
    traj = ode.reference_trajectory(
        systems.pendulum(g, L), np.array([phi0, 0.0]), period / steps, steps
    )
    t = period / steps * np.arange(steps + 1)
    assert np.max(np.abs(traj[:, 0] - phi0 * np.cos(om * t))) < 0.01 * phi0


def test_pendulum_truncation_within_taylor_remainder():
    sys = systems.pendulum(9.8, 0.3)
    w2 = 9.8 / 0.3
    rng = np.random.default_rng(42)
    for _ in range(100):
        phi = rng.uniform(-0.3, 0.3)
        truncated = sys.rhs([phi, 0.0])[1]
        assert abs(truncated + w2 * np.sin(phi)) <= w2 * abs(phi) ** 5 / 120 + 1e-15


def test_damped_pendulum_rhs_closed_form_and_decay():
    # called, the lifted system adds the same two products as the closed form
    rhs = systems.damped_pendulum_rhs(9.8, 0.28, 0.1)
    rng = np.random.default_rng(43)
    for _ in range(100):
        p, q = rng.normal(size=2)
        assert np.array_equal(rhs(np.array([p, q])), [q, -(9.8 / 0.28) * np.sin(p) - 0.1 * q])
    traj = ode.reference_trajectory(rhs, np.array([0.09, 0.0]), 0.1, 49)
    energy = traj[:, 1] ** 2 / 2 + (9.8 / 0.28) * (1 - np.cos(traj[:, 0]))
    assert energy[-1] < 0.7 * energy[0]
    # the lifted ODE on (phi, omega, sin phi, cos phi), term by term
    lifted = rhs.ode
    assert (lifted.dim, lifted.order) == (4, 2)
    for phi, om, s, c in rng.normal(size=(20, 4)):
        assert np.allclose(lifted.rhs([phi, om, s, c]),
                           [om, -(9.8 / 0.28) * s - 0.1 * om, c * om, -s * om], atol=1e-12)
    assert rhs.lift(np.array([0.3, -0.2])).tolist() == [0.3, -0.2, np.sin(0.3), np.cos(0.3)]


# --- Rayleigh-Plesset --------------------------------------------------------------


def test_rayleigh_plesset_rows():
    sys = systems.rayleigh_plesset(
        rho=1.0, sigma=0.1, mu=0.05, omega=2.0, pB=1.2, p0=1.0, pa=0.3
    )
    assert sys.dim == 5 and sys.order == 3
    yz2 = basis.position(5, 3, (0, 1, 2, 0, 0))
    assert sys.coeffs[3][2, yz2] == -1.0
    assert np.count_nonzero(sys.coeffs[3][2]) == 1
    assert np.count_nonzero([np.count_nonzero(c[2]) for c in sys.coeffs]) == 1
    rng = np.random.default_rng(44)
    for _ in range(100):
        x, y, z, s, c = rng.normal(size=5)
        want = [
            y,
            -1.5 * y**2 * z + 0.2 * z + (0.3 * z * s - 0.2 * z**2 - 0.2 * y * z**2),
            -y * z**2,
            2.0 * c,
            -2.0 * s,
        ]
        assert np.allclose(sys.rhs([x, y, z, s, c]), want, atol=1e-12)
    with pytest.raises(ValueError):
        systems.rayleigh_plesset(rho=0.0)


def test_rayleigh_plesset_reciprocal_and_harmonic_invariants():
    sys = systems.rayleigh_plesset()
    X0 = np.array([2.0, 0.1, 0.5, 0.0, 1.0])
    traj = ode.reference_trajectory(sys, X0, 0.01, 200)
    assert np.max(np.abs(traj[:, 0] * traj[:, 2] - 1.0)) < 1e-5
    assert np.max(np.abs(traj[:, 3] ** 2 + traj[:, 4] ** 2 - 1.0)) < 1e-6


# --- synthesis ------------------------------------------------------------------------


def test_synthesize_without_noise_matches_reference():
    sys = systems.pendulum()
    X0 = np.array([0.09, 0.0])
    obs = systems.synthesize(sys, X0, 0.1, 20)
    ref = ode.reference_trajectory(sys, X0, 0.1, 20)
    assert obs.taps == tuple(range(1, 21))
    assert np.allclose(obs.values, ref[1:], atol=1e-14)
    assert obs.mask.all()


def test_synthesize_is_reproducible_and_noisy():
    sys = systems.free_fall()
    spec = systems.NoiseSpec(kind="gaussian", sigma=0.05, seed=9)
    a = systems.synthesize(sys, np.array([0.0]), 0.1, 15, noise=spec)
    b = systems.synthesize(sys, np.array([0.0]), 0.1, 15, noise=spec)
    clean = systems.synthesize(sys, np.array([0.0]), 0.1, 15)
    assert np.array_equal(a.values, b.values)
    resid = a.values - clean.values
    assert 0.0 < np.abs(resid).max() < 0.05 * 6


def test_synthesize_angle_only_mask():
    obs = systems.synthesize(
        systems.pendulum(), np.array([0.09, 0.0]), 0.1, 10,
        mask=np.array([True, False]),
    )
    assert obs.mask[:, 0].all()
    assert not obs.mask[:, 1].any()
    assert np.all(np.isnan(obs.values[:, 1]))
    with pytest.raises(ValueError):
        systems.synthesize(
            systems.pendulum(), np.array([0.09, 0.0]), 0.1, 10,
            mask=np.ones((3, 3), dtype=bool),
        )


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        systems.NoiseSpec(kind="poisson")
    with pytest.raises(ValueError):
        systems.NoiseSpec(kind="gaussian", sigma=-0.1)
    for sigma in (np.nan, np.inf, [0.1, np.nan]):
        with pytest.raises(ValueError, match="sigma must be finite"):
            systems.NoiseSpec(kind="gaussian", sigma=sigma)
    with pytest.raises(ValueError, match=r"^sigma must be a scalar or 1-D, got shape \(1, 2\)$"):
        systems.NoiseSpec(kind="gaussian", sigma=[[0.1, 0.2]])
    for seed in (-1, 1.5, "3", True, None):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            systems.NoiseSpec(kind="gaussian", sigma=0.1, seed=seed)
    assert systems.NoiseSpec(kind="gaussian", sigma=0.1, seed=np.int64(4)).seed == 4


def test_synthesize_names_a_sigma_of_the_wrong_length():
    X0 = np.array([0.09, 0.0])
    spec = systems.NoiseSpec(kind="gaussian", sigma=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match=r"^sigma has 3 entries for a state of 2$"):
        systems.synthesize(systems.pendulum(), X0, 0.1, 5, noise=spec)
    per_entry = systems.NoiseSpec(kind="gaussian", sigma=[0.1, 0.0], seed=2)
    obs = systems.synthesize(systems.pendulum(), X0, 0.1, 5, noise=per_entry)
    clean = systems.synthesize(systems.pendulum(), X0, 0.1, 5)
    assert np.array_equal(obs.values[:, 1], clean.values[:, 1])
    assert not np.array_equal(obs.values[:, 0], clean.values[:, 0])


# (constructor, parameter, the name its error gives): every physical
# parameter is a finite real number, and a length, mass or density positive
_PARAMETERS = [
    (systems.free_fall, "m", "mass m"), (systems.free_fall, "g", "g"),
    (systems.free_fall, "k", "k"), (systems.free_fall_augmented, "g", "g"),
    (systems.pendulum, "g", "g"), (systems.pendulum, "L", "length L"),
    (systems.damped_pendulum_rhs, "g", "g"), (systems.damped_pendulum_rhs, "L", "length L"),
    (systems.damped_pendulum_rhs, "damping", "damping"),
    *((systems.rayleigh_plesset, name, "density rho" if name == "rho" else name)
      for name in ("rho", "sigma", "mu", "omega", "pB", "p0", "pa")),
]


@pytest.mark.parametrize("make, parameter, name", _PARAMETERS,
                         ids=[f"{m.__name__}-{p}" for m, p, _ in _PARAMETERS])
def test_constructors_name_a_bad_physical_parameter(make, parameter, name):
    for value in (np.nan, np.inf, -np.inf, "x", True, None):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number|"
                                             rf"^{name} must be finite"):
            make(**{parameter: value})
    if name.split()[0] in ("mass", "length", "density"):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=rf"^{name} must be positive, got "):
                make(**{parameter: value})


def test_free_fall_analytic_names_a_bad_parameter():
    for parameter, name in (("m", "mass m"), ("g", "g"), ("k", "k")):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            systems.free_fall_analytic(1.0, **{parameter: np.nan})


def test_registry_builds_named_systems():
    assert set(systems.SYSTEMS) == {
        "free_fall",
        "free_fall_augmented",
        "lotka_volterra",
        "pendulum",
        "rayleigh_plesset",
    }
    sys = systems.SYSTEMS["pendulum"](L=0.28)
    assert sys.coeffs[1][1, 0] == pytest.approx(-9.8 / 0.28, rel=1e-14)
