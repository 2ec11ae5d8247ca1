"""Built-in example systems: polynomial ODE constructors, analytic
references, and noisy observation synthesis.

Each constructor returns a PolynomialODE whose right-hand side matches the
stated closed form, or, for the full-sine damped pendulum, an ode.Lifted of
one on a lifted state; the registry at the bottom makes the polynomial ones
addressable by name (e.g. from the command line).  Every physical parameter
is checked to be a finite real number, and a mass, length or density
positive; anything else is a ValueError naming the parameter.
"""

from dataclasses import dataclass

import numpy as np

from tmnet import basis
from tmnet.maps import _count, _real
from tmnet.network import ObservationSeries
from tmnet.ode import Lifted, PolynomialODE, reference_trajectory


def _positive(name: str, value) -> float:
    """value as a float if it is a finite real number > 0; else a ValueError
    naming the parameter."""
    value = _real(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def free_fall(m: float = 100.0, g: float = 9.8, k: float = 0.392) -> PolynomialODE:
    """Falling body with quadratic air drag: v' = g - (k/m) v**2."""
    m, g, k = _positive("mass m", m), _real("g", g), _real("k", k)
    return PolynomialODE(
        1, 2, (np.array([[g]]), np.zeros((1, 1)), np.array([[-k / m]]))
    )


def free_fall_analytic(t, m: float = 100.0, g: float = 9.8, k: float = 0.392):
    """Closed-form drop-from-rest velocity sqrt(mg/k) * tanh(t sqrt(kg/m)).

    Only valid with drag; for k = 0 the velocity is simply g*t.
    """
    if _real("k", k) <= 0:
        raise ValueError("free_fall_analytic needs k > 0; use v = g*t without drag")
    m, g = _positive("mass m", m), _real("g", g)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    return np.sqrt(m * g / k) * np.tanh(t * np.sqrt(k * g / m))


def free_fall_augmented(g: float = 9.8) -> PolynomialODE:
    """Drag-parameterized fall on the state (v, mu), mu = k/m:
    v' = g - mu v**2 (a cubic monomial), mu' = 0.

    Maps derived from this system carry mu unchanged, so one map covers a
    family of masses: evaluate it at (v0, k/m) for the mass of interest.
    """
    P0 = np.array([[_real("g", g)], [0.0]])
    P3 = np.zeros((2, basis.basis_size(2, 3)))
    P3[0, basis.position(2, 3, (2, 1))] = -1.0
    return PolynomialODE(2, 3, (P0, np.zeros((2, 2)), np.zeros((2, 3)), P3))


def lotka_volterra() -> PolynomialODE:
    """Predator-prey interaction x' = y + x y, y' = -2x - x y."""
    P1 = np.array([[0.0, 1.0], [-2.0, 0.0]])
    P2 = np.zeros((2, 3))
    xy = basis.position(2, 2, (1, 1))
    P2[0, xy] = 1.0
    P2[1, xy] = -1.0
    return PolynomialODE(2, 2, (np.zeros((2, 1)), P1, P2))


def pendulum(g: float = 9.8, L: float = 0.3) -> PolynomialODE:
    """Mathematical pendulum with sin truncated at third order:
    phi'' = -(g/L)(phi - phi**3 / 6), on the state (phi, phi')."""
    w2 = _real("g", g) / _positive("length L", L)
    P1 = np.array([[0.0, 1.0], [-w2, 0.0]])
    P3 = np.zeros((2, basis.basis_size(2, 3)))
    P3[1, basis.position(2, 3, (3, 0))] = w2 / 6.0
    return PolynomialODE(2, 3, (np.zeros((2, 1)), P1, np.zeros((2, 3)), P3))


def _angle_lift(X) -> np.ndarray:
    """(phi, omega) -> (phi, omega, sin phi, cos phi)."""
    return np.array([X[0], X[1], np.sin(X[0]), np.cos(X[0])])


def damped_pendulum_rhs(g: float = 9.8, L: float = 0.28, damping: float = 0.1) -> Lifted:
    """Full-sine damped pendulum phi'' = -(g/L) sin(phi) - damping * phi'.

    Not polynomial on (phi, omega); used as the "real hardware" stand-in when
    synthesizing measured series that a truncated ideal model is then tuned
    against.  It is quadratic on the lifted state (phi, omega, s, c) with
    s = sin phi and c = cos phi:
        phi' = omega
        omega' = -(g/L) s - damping * omega
        s' = c omega
        c' = -s omega
    so it is returned as an ode.Lifted of that PolynomialODE and the lift
    (phi, omega) -> (phi, omega, sin phi, cos phi).  The oracle
    (reference_trajectory, synthesize) runs it on the generated term kernel
    from the lift of X0, and s**2 + c**2 stays 1 to within its error
    estimate; called at a state (phi, omega), it returns the physical
    dX/dt.
    """
    w2 = _real("g", g) / _positive("length L", L)
    damping = _real("damping", damping)
    n = 4
    phi, omega, s, c = range(n)
    P = [np.zeros((n, basis.basis_size(n, d))) for d in range(3)]
    P[1][phi, omega] = 1.0
    P[1][omega, s] = -w2
    P[1][omega, omega] = -damping
    P[2][s, basis.position(n, 2, (0, 1, 0, 1))] = 1.0
    P[2][c, basis.position(n, 2, (0, 1, 1, 0))] = -1.0
    return Lifted(PolynomialODE(n, 2, tuple(P)), _angle_lift)


def rayleigh_plesset(
    rho: float = 1.0,
    sigma: float = 0.1,
    mu: float = 0.05,
    omega: float = 2.0,
    pB: float = 1.2,
    p0: float = 1.0,
    pa: float = 0.3,
) -> PolynomialODE:
    """Cavitation-bubble dynamics in polynomial form on (x, y, z, s, c).

    x is the bubble radius, y its velocity, z = 1/x carried as a state, and
    (s, c) = (sin wt, cos wt) carry the acoustic drive:
        x' = y
        y' = -1.5 y^2 z + z (pB - p0)/rho + (z s pa - 2 sigma z^2 - 4 mu y z^2)/rho
        z' = -y z^2
        s' = omega c
        c' = -omega s
    The default constants are order-one placeholders, not fluid data.
    """
    rho = _positive("density rho", rho)
    sigma, mu, omega, pB, p0, pa = map(_real, ("sigma", "mu", "omega", "pB", "p0", "pa"),
                                       (sigma, mu, omega, pB, p0, pa))
    n = 5
    x, y, z, s, c = range(n)
    P = [np.zeros((n, basis.basis_size(n, d))) for d in range(4)]

    def mono(d, **powers):
        e = [0] * n
        for name, p in powers.items():
            e["xyzsc".index(name)] = p
        return basis.position(n, d, e)

    P[1][x, y] = 1.0
    P[3][y, mono(3, y=2, z=1)] = -1.5
    P[1][y, z] = (pB - p0) / rho
    P[2][y, mono(2, z=1, s=1)] = pa / rho
    P[2][y, mono(2, z=2)] = -2.0 * sigma / rho
    P[3][y, mono(3, y=1, z=2)] = -4.0 * mu / rho
    P[3][z, mono(3, y=1, z=2)] = -1.0
    P[1][s, c] = omega
    P[1][c, s] = -omega
    return PolynomialODE(n, 3, tuple(P))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive observation noise: kind 'none' or 'gaussian' with a scalar
    or per-component standard deviation."""

    kind: str = "none"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim > 1:
            raise ValueError(f"sigma must be a scalar or 1-D, got shape {sigma.shape}")
        if not (np.isfinite(sigma).all() and (sigma >= 0).all()):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))


def synthesize(
    ode,
    X0,
    dt: float,
    steps: int,
    noise: NoiseSpec = NoiseSpec(),
    mask=None,
) -> ObservationSeries:
    """Observation series from a dense reference trajectory of the system.

    Samples at taps 1..steps (the initial state is the network input, not an
    observation).  mask selects observed components per sample: None observes
    everything; a length-n boolean row applies to every tap; a (steps, n)
    array gives full control.  Gaussian noise is added to observed entries.
    """
    traj = reference_trajectory(ode, X0, dt, steps)[1:]
    n = traj.shape[1]
    if mask is None:
        mask = np.ones((steps, n), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape == (n,):
            mask = np.broadcast_to(mask, (steps, n)).copy()
        elif mask.shape != (steps, n):
            raise ValueError(f"mask shape {mask.shape} fits neither ({n},) nor ({steps}, {n})")
    values = traj.copy()
    if noise.kind == "gaussian":
        sigma = np.asarray(noise.sigma, dtype=float)
        if sigma.ndim and sigma.shape != (n,):
            raise ValueError(f"sigma has {sigma.size} entries for a state of {n}")
        rng = np.random.default_rng(noise.seed)
        values = values + rng.normal(size=values.shape) * noise.sigma
    return ObservationSeries(taps=tuple(range(1, steps + 1)), values=values, mask=mask)


SYSTEMS = {
    "free_fall": free_fall,
    "free_fall_augmented": free_fall_augmented,
    "lotka_volterra": lotka_volterra,
    "pendulum": pendulum,
    "rayleigh_plesset": rayleigh_plesset,
}
