"""Tests for Taylor maps, composition, and the symplectic penalty.

The symplectic residual for planar (n=2) maps has a closed form: the
Jacobian is 2x2, so Jac^T J Jac - J = (det(Jac) - 1) J, and the residual
coefficients must match a hand-expanded determinant.  That expansion is the
oracle here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmnet import basis, maps, network

# deterministic property runs that leave no example database behind
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)


def _random_map(rng, n: int, k: int, scale: float = 0.4) -> maps.TaylorMap:
    weights = tuple(
        scale * rng.normal(size=(n, basis.basis_size(n, d))) for d in range(k + 1)
    )
    return maps.TaylorMap(dim=n, order=k, weights=weights)


# --- evaluation ----------------------------------------------------------------


def test_apply_matches_hand_evaluated_polynomial():
    # x1' = 1 + 2 x1 - x2 + 3 x1^2 + 0.5 x1 x2
    # x2' = -1 + x2 + 2 x2^2
    W0 = np.array([[1.0], [-1.0]])
    W1 = np.array([[2.0, -1.0], [0.0, 1.0]])
    W2 = np.array([[3.0, 0.5, 0.0], [0.0, 0.0, 2.0]])
    tm = maps.TaylorMap(dim=2, order=2, weights=(W0, W1, W2))
    x1, x2 = 0.3, -0.7
    want = [
        1 + 2 * x1 - x2 + 3 * x1**2 + 0.5 * x1 * x2,
        -1 + x2 + 2 * x2**2,
    ]
    assert np.allclose(tm(np.array([x1, x2])), want, rtol=1e-14)
    assert np.allclose(tm.apply(np.array([x1, x2])), want, rtol=1e-14)


def test_identity_map_fixes_random_points():
    rng = np.random.default_rng(10)
    for n, k in [(1, 2), (2, 3), (4, 2)]:
        ident = maps.identity_map(n, k)
        for _ in range(5):
            X = rng.normal(size=n)
            assert np.array_equal(ident(X), X)


def test_weights_are_frozen():
    tm = maps.identity_map(2, 2)
    with pytest.raises(ValueError):
        tm.weights[1][0, 0] = 5.0


def test_validation_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        maps.TaylorMap(dim=2, order=1, weights=(np.zeros((2, 1)), np.zeros((2, 3))))
    with pytest.raises(ValueError):
        maps.TaylorMap(dim=2, order=0, weights=(np.array([[np.nan], [0.0]]),))
    with pytest.raises(ValueError):
        maps.TaylorMap(dim=2, order=1, weights=(np.zeros((2, 1)),))


# --- composition --------------------------------------------------------------


def test_compose_linear_maps_is_matrix_product():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    fa = maps.TaylorMap(dim=3, order=1, weights=(np.zeros((3, 1)), A))
    fb = maps.TaylorMap(dim=3, order=1, weights=(np.zeros((3, 1)), B))
    comp = maps.compose(fa, fb)
    assert np.allclose(comp.weights[1], A @ B, rtol=1e-13)
    assert np.all(comp.weights[0] == 0.0)


def test_compose_without_truncation_matches_pointwise():
    # quadratic o quadratic is exactly quartic, so k=4 loses nothing
    rng = np.random.default_rng(14)
    outer = _random_map(rng, 2, 2, scale=0.3)
    inner = _random_map(rng, 2, 2, scale=0.3)
    comp = maps.compose(outer, inner, k=4)
    for _ in range(6):
        X = rng.normal(size=2)
        assert np.allclose(comp(X), outer(inner(X)), rtol=1e-10, atol=1e-12)


def test_compose_truncation_drops_only_high_degrees():
    rng = np.random.default_rng(15)
    outer = _random_map(rng, 2, 2, scale=0.3)
    inner = _random_map(rng, 2, 2, scale=0.3)
    full = maps.compose(outer, inner, k=4)
    trunc = maps.compose(outer, inner, k=2)
    assert trunc.order == 2
    for d in range(3):
        assert np.array_equal(trunc.weights[d], full.weights[d])


def test_compose_with_identity_is_identity_operation():
    rng = np.random.default_rng(16)
    tm = _random_map(rng, 2, 3)
    ident = maps.identity_map(2, 3)
    left = maps.compose(ident, tm)
    right = maps.compose(tm, ident)
    for d in range(4):
        assert np.allclose(left.weights[d], tm.weights[d], rtol=1e-12, atol=1e-14)
        assert np.allclose(right.weights[d], tm.weights[d], rtol=1e-12, atol=1e-14)


def test_serialization_roundtrip_and_ordering_tag():
    tm = _random_map(np.random.default_rng(17), 3, 2)
    data = tm.to_dict()
    assert data["basis_ordering"] == "graded_lex_x1_desc"
    back = maps.TaylorMap.from_dict(data)
    assert back.dim == tm.dim and back.order == tm.order
    for a, b in zip(back.weights, tm.weights):
        assert np.array_equal(a, b)
    data["basis_ordering"] = "colex"
    with pytest.raises(ValueError):
        maps.TaylorMap.from_dict(data)


# --- symplectic structure and penalty ----------------------------------------


def test_structure_matrix_is_pairwise_interleaved():
    assert maps._canonical_J(2).tolist() == [[0, 1], [-1, 0]]
    J4 = maps._canonical_J(4)
    assert J4.tolist() == [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]
    assert np.array_equal(J4 @ J4, -np.eye(4))
    assert np.array_equal(J4.T, -J4)
    with pytest.raises(ValueError):
        maps._canonical_J(3)
    with pytest.raises(ValueError):
        maps.symplectic_penalty(maps.identity_map(3, 2))


def test_penalty_zero_for_identity():
    for n, k in [(2, 1), (2, 3), (4, 2)]:
        assert maps.symplectic_penalty(maps.identity_map(n, k)) == 0.0


def test_penalty_vanishes_for_linear_symplectic_maps():
    # per-plane rotations and reciprocal scalings preserve the form exactly
    rng = np.random.default_rng(18)
    for _ in range(5):
        blocks = []
        for _ in range(2):
            th = rng.uniform(0, 2 * np.pi)
            s = np.exp(rng.uniform(-1, 1))
            R = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
            S = np.array([[s, 0.0], [0.0, 1.0 / s]])
            blocks.append(R @ S)
        W1 = np.zeros((4, 4))
        W1[:2, :2] = blocks[0]
        W1[2:, 2:] = blocks[1]
        tm = maps.TaylorMap(dim=4, order=1, weights=(np.zeros((4, 1)), W1))
        assert maps.symplectic_penalty(tm) <= 1e-25


def test_penalty_frozen_value_for_uniform_doubling():
    # W_1 = 2I on a plane: residual is 3J, squared over both off-diagonal
    # slots gives 2 * 3^2 = 18
    tm = maps.TaylorMap(dim=2, order=1, weights=(np.zeros((2, 1)), 2.0 * np.eye(2)))
    assert maps.symplectic_penalty(tm) == pytest.approx(18.0, rel=1e-13)


def test_residual_matches_determinant_expansion():
    # planar quadratic map: residual = (det(Jac) - 1) J, expand by hand
    rng = np.random.default_rng(19)
    for _ in range(8):
        W0 = rng.normal(size=(2, 1))
        W1 = rng.normal(size=(2, 2))
        W2 = rng.normal(size=(2, 3))
        tm = maps.TaylorMap(dim=2, order=2, weights=(W0, W1, W2))
        (a11, a12), (a21, a22) = W1
        (b11, b12, b13), (b21, b22, b23) = W2
        det_coeffs = {
            0: {(0, 0): a11 * a22 - a12 * a21},
            1: {
                (1, 0): a11 * b22 + 2 * a22 * b11 - 2 * a12 * b21 - a21 * b12,
                (0, 1): 2 * a11 * b23 + a22 * b12 - a12 * b22 - 2 * a21 * b13,
            },
            2: {
                (2, 0): 2 * (b11 * b22 - b12 * b21),
                (1, 1): 4 * (b11 * b23 - b13 * b21),
                (0, 2): 2 * (b12 * b23 - b13 * b22),
            },
        }
        res = maps.symplectic_residual(tm)
        for d, table in det_coeffs.items():
            for e, want in table.items():
                if d == 0:
                    want -= 1.0
                R = res[d][basis.position(2, d, e)]
                assert R[0, 1] == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert R[1, 0] == pytest.approx(-want, rel=1e-12, abs=1e-12)
                assert abs(R[0, 0]) < 1e-12 and abs(R[1, 1]) < 1e-12


def test_penalty_catches_pure_quadratic_determinant_defect():
    # this map satisfies det(Jac) = 1 - 4 x1^2: the defect lives entirely in
    # the x1^2 coefficient, so a penalty missing that monomial would be zero
    W2 = np.array([[1.0, 0.0, 0.0], [0.7, -2.0, 0.0]])
    tm = maps.TaylorMap(dim=2, order=2, weights=(np.zeros((2, 1)), np.eye(2), W2))
    assert maps.symplectic_penalty(tm) == pytest.approx(32.0, rel=1e-12)


def test_thin_kick_is_exactly_symplectic():
    # x' = x, p' = p + c x^2 has unit-determinant Jacobian for every x
    for c in (0.3, -1.7, 12.0):
        W2 = np.zeros((2, 3))
        W2[1, 0] = c
        tm = maps.TaylorMap(dim=2, order=2, weights=(np.zeros((2, 1)), np.eye(2), W2))
        assert maps.symplectic_penalty(tm) <= 1e-28


def test_residual_covers_degrees_up_to_twice_order_minus_one():
    tm = _random_map(np.random.default_rng(20), 2, 3)
    res = maps.symplectic_residual(tm)
    assert len(res) == 5
    for d, block in enumerate(res):
        assert block.shape == (basis.basis_size(2, d), 2, 2)
        assert np.array_equal(block, -np.swapaxes(block, 1, 2))
    assert max(np.max(np.abs(c)) for c in res) > 0.0
    # the penalty is the sum of squares of these coefficients
    assert maps.symplectic_penalty(tm) == pytest.approx(
        sum(float(np.sum(c * c)) for c in res), rel=1e-13
    )


def test_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-6
    for n, k in [(2, 3), (4, 2)]:
        tm = _random_map(rng, n, k)
        grads = maps._residual_penalty(tm.stacked[None], k, True)[2][0]
        _, sl = basis._stacked_exponents(n, k)
        for d in range(k + 1):
            # spot-check a few entries per block to keep runtime low
            flat = [(i, p) for i in range(n) for p in range(basis.basis_size(n, d))]
            for i, p in flat[:: max(1, len(flat) // 6)]:
                bumped = [w.copy() for w in tm.weights]
                bumped[d][i, p] += h
                up = maps.symplectic_penalty(
                    maps.TaylorMap(dim=n, order=k, weights=tuple(bumped))
                )
                bumped[d][i, p] -= 2 * h
                dn = maps.symplectic_penalty(
                    maps.TaylorMap(dim=n, order=k, weights=tuple(bumped))
                )
                fd = (up - dn) / (2 * h)
                assert grads[:, sl[d]][i, p] == pytest.approx(fd, rel=2e-5, abs=1e-7)


# --- properties of composition and the symplectic penalty ---------------------


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_compose_matches_pointwise_without_truncation_property(n, p, q, seed):
    # an order-p map of an order-q map is exactly of order p*q
    rng = np.random.default_rng(seed)
    outer = _random_map(rng, n, p, scale=0.5)
    inner = _random_map(rng, n, q, scale=0.5)
    comp = maps.compose(outer, inner, k=p * q)
    for X in rng.uniform(-1.0, 1.0, size=(4, n)):
        assert np.allclose(comp(X), outer(inner(X)), rtol=1e-10, atol=1e-12)


def _plane_rotations_and_scalings(angles, logs, k):
    """Order-k map whose linear part rotates and scales each (q, p) plane."""
    n = 2 * len(angles)
    W1 = np.zeros((n, n))
    for i, (th, ls) in enumerate(zip(angles, logs)):
        R = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        W1[2 * i:2 * i + 2, 2 * i:2 * i + 2] = R @ np.diag([np.exp(ls), np.exp(-ls)])
    weights = [np.zeros((n, basis.basis_size(n, d))) for d in range(k + 1)]
    weights[1] = W1
    return maps.TaylorMap(dim=n, order=k, weights=tuple(weights))


def _thin_kick(potential, n, k):
    """The map p += grad V(q), q unchanged, for a polynomial potential V of
    degree k+1 in the positions; potential maps position exponents to
    coefficients."""
    weights = [np.zeros((n, basis.basis_size(n, d))) for d in range(k + 1)]
    weights[1] += np.eye(n)
    for exps, c in potential.items():
        for i, e in enumerate(exps):
            if e == 0:
                continue
            state = [0] * n
            for j, f in enumerate(exps):
                state[2 * j] = f - (j == i)
            d = sum(exps) - 1
            weights[d][2 * i + 1, basis.position(n, d, state)] += c * e
    return maps.TaylorMap(dim=n, order=k, weights=tuple(weights))


_angle = st.floats(0.0, 2 * np.pi)
_log_scale = st.floats(-1.0, 1.0)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_penalty_vanishes_on_products_of_rotations_and_scalings(planes, k, data):
    factors = [
        _plane_rotations_and_scalings(
            data.draw(st.lists(_angle, min_size=planes, max_size=planes)),
            data.draw(st.lists(_log_scale, min_size=planes, max_size=planes)),
            k,
        )
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    product = factors[0]
    for f in factors[1:]:
        product = maps.compose(f, product)
    assert maps.symplectic_penalty(product) <= 1e-25


@PROPERTY
@given(st.integers(1, 3), st.integers(2, 3), st.data())
def test_penalty_vanishes_on_thin_kicks(planes, k, data):
    n = 2 * planes
    potential = {
        tuple(int(e) for e in exps): data.draw(st.floats(-2.0, 2.0))
        for d in range(2, k + 2)
        for exps in basis.exponent_matrix(planes, d)
    }
    kick = _thin_kick(potential, n, k)
    turn = _plane_rotations_and_scalings(
        data.draw(st.lists(_angle, min_size=planes, max_size=planes)),
        data.draw(st.lists(_log_scale, min_size=planes, max_size=planes)),
        k,
    )
    # a linear factor on either side adds no degree, so nothing is truncated
    for tm in (kick, maps.compose(turn, kick), maps.compose(kick, turn)):
        assert maps.symplectic_penalty(tm) <= 1e-25


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (4, 2), (4, 3), (6, 2), (6, 3)])
@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(seed=st.integers(0, 2**32 - 1))
def test_penalty_gradient_matches_central_differences(n, k, seed):
    rng = np.random.default_rng(seed)
    tm = _random_map(rng, n, k)
    stacked = maps._residual_penalty(tm.stacked[None], k, True)[2][0]
    grads = [stacked[:, s] for s in basis._stacked_exponents(n, k)[1]]
    assert np.all(grads[0] == 0.0)
    h = 1e-6

    def penalty_at(d, step):
        bumped = [w.copy() for w in tm.weights]
        bumped[d] += step
        return maps.symplectic_penalty(maps.TaylorMap(dim=n, order=k, weights=tuple(bumped)))

    for d in range(1, k + 1):
        # one random direction through the whole block, and two coordinates
        V = rng.normal(size=tm.weights[d].shape)
        fd = (penalty_at(d, h * V) - penalty_at(d, -h * V)) / (2 * h)
        assert np.sum(grads[d] * V) == pytest.approx(fd, rel=1e-6, abs=1e-7)
        for _ in range(2):
            E = np.zeros_like(V)
            E[rng.integers(n), rng.integers(V.shape[1])] = 1.0
            fd = (penalty_at(d, h * E) - penalty_at(d, -h * E)) / (2 * h)
            assert np.sum(grads[d] * E) == pytest.approx(fd, rel=2e-5, abs=1e-7)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_penalty_and_gradient_equal_per_map_values(n, k):
    # G maps through one stacked residual give each map's own numbers
    # exactly; G is as many as one flush of deferred training penalties
    # stacks, at least 3
    rng = np.random.default_rng(100 * n + k)
    G = max(3, network._flush_size(n, k, 1))
    tms = [_random_map(rng, n, k) for _ in range(G)]
    W = np.stack([tm.stacked for tm in tms])
    R, penalty, grads = maps._residual_penalty(W, k, gradient=True)
    assert penalty.shape == (G,) and grads.shape == W.shape
    for g, tm in enumerate(tms):
        assert penalty[g] == maps.symplectic_penalty(tm)
        want = maps._residual_penalty(tm.stacked[None], k, True)[2][0]
        assert grads[g].tobytes() == want.tobytes(), g
    alone, again, none = maps._residual_penalty(W, k, gradient=False)
    assert none is None and again.tobytes() == penalty.tobytes()
    assert alone.tobytes() == R.tobytes()


def _penalty_term_by_term(W, k):
    """_residual_penalty written out from _residual_terms: Pi from W[:, i]
    and W[:, j], then, map by map and in term order, coef Pi[s, t] added
    into the residual entry and 4 coef R[entry] into the gradient on Pi."""
    G, n, N = W.shape
    coef, st, entry, unit, size, (i, j) = maps._residual_terms(n, k)
    terms = list(zip(coef.tolist(), st.tolist(), entry.tolist()))
    Wi, Wj = W[:, i], W[:, j]
    Pis = (np.swapaxes(Wi, 1, 2) @ Wj).reshape(G, N * N).tolist()
    rows, flat = [], []
    for Pi in Pis:
        r = [0.0] * size
        for c, s, e in terms:
            r[e] += c * Pi[s]
        for u in unit.tolist():
            r[u] -= 1.0
        d = [0.0] * (N * N)
        for c, s, e in terms:
            d[s] += 4.0 * c * r[e]
        rows.append(r)
        flat.append(d)
    R, D = np.array(rows), np.array(flat).reshape(G, N, N)
    grads = np.empty_like(W)
    grads[:, i] = Wj @ np.swapaxes(D, 1, 2)
    grads[:, j] = Wi @ D
    return R, 2.0 * np.sum(R * R, axis=1), grads


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_penalty_gathers_add_in_term_order(n, k):
    # the cached flat gathers and bincounts give the term-by-term sums byte
    # for byte, for one map, a few, a full flush of deferred training
    # penalties and a partial one
    rng = np.random.default_rng(200 + 10 * n + k)
    full = network._flush_size(n, k, 1)
    for G in sorted({1, 3, full, max(1, full // 2)}):
        W = np.stack([_random_map(rng, n, k).stacked for _ in range(G)])
        got = maps._residual_penalty(W, k, gradient=True)
        for a, b in zip(got, _penalty_term_by_term(W, k), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), G


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
@settings(derandomize=True, database=None, deadline=None, max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_residual_matches_central_difference_jacobians(n, k, seed):
    # at random states, the residual blocks summed against the monomials are
    # Jac^T J Jac - J with Jac from central differences of apply; for these
    # polynomials of degree <= 3 the differences are exact up to h^2 times
    # the third derivatives plus rounding of order eps / h, and the worst
    # error over 20 seeds per (n, k) is 1.7e-10 of the residual's scale
    rng = np.random.default_rng(seed)
    tm = _random_map(rng, n, k)
    res = maps.symplectic_residual(tm)
    J = maps._canonical_J(n)
    h = 1e-5
    for X in rng.uniform(-1.0, 1.0, size=(3, n)):
        jac = np.column_stack(
            [(tm.apply(X + h * e) - tm.apply(X - h * e)) / (2 * h) for e in np.eye(n)]
        )
        want = jac.T @ J @ jac - J
        got = sum(np.tensordot(basis.kron_power(X, d), block, axes=1)
                  for d, block in enumerate(res))
        assert np.allclose(got, want, rtol=0, atol=1e-8 * max(1.0, np.max(np.abs(want))))
