"""Tests for the monomial basis and reduced Kronecker power machinery.

The expansion routines are checked against two independent oracles: the full
(unreduced) Kronecker product, and a symbolic dict-of-exponents polynomial
algebra written from scratch in this file.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tmnet import basis

# deterministic property runs that leave no example database behind
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


# --- independent symbolic oracle -------------------------------------------
#
# A polynomial component is a dict {exponent tuple: coefficient}.  Nothing
# here touches the packed-matrix code paths under test.


def _sym_mul(u: dict, v: dict, k: int) -> dict:
    out: dict = {}
    for ea, ca in u.items():
        for eb, cb in v.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            if sum(e) <= k:
                out[e] = out.get(e, 0.0) + ca * cb
    return out


def _sym_components(blocks, n: int, k: int) -> list[dict]:
    comps = [dict() for _ in range(n)]
    for d, W in enumerate(blocks):
        for pos, row in enumerate(basis.exponent_matrix(n, d)):
            e = tuple(int(x) for x in row)
            for i in range(n):
                c = float(W[i, pos])
                if c != 0.0:
                    comps[i][e] = comps[i].get(e, 0.0) + c
    return comps


def _sym_power_blocks(blocks, d: int, k: int) -> list[np.ndarray]:
    """Degree-d reduced power of a polynomial map, via symbolic products."""
    n = blocks[1].shape[0]
    comps = _sym_components(blocks, n, k)
    rows = []
    if d == 0:
        polys = [{tuple([0] * n): 1.0}]
    else:
        polys = []
        for combo in itertools.combinations_with_replacement(range(n), d):
            p = {tuple([0] * n): 1.0}
            for i in combo:
                p = _sym_mul(p, comps[i], k)
            polys.append(p)
    out = [np.zeros((len(polys), basis.basis_size(n, j))) for j in range(k + 1)]
    for r, p in enumerate(polys):
        for e, c in p.items():
            out[sum(e)][r, basis.position(n, sum(e), e)] = c
    return out


# --- basis enumeration ------------------------------------------------------


def test_basis_size_matches_combinatorics():
    for n in range(1, 5):
        for d in range(0, 5):
            assert basis.basis_size(n, d) == math.comb(n + d - 1, d)
            assert basis.basis_size(n, d) == len(
                list(itertools.combinations_with_replacement(range(n), d))
            )


def test_monomial_ordering_is_graded_lex_with_x1_heaviest():
    assert basis.exponent_matrix(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]
    assert basis.exponent_matrix(2, 3).tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]
    assert basis.exponent_matrix(3, 2).tolist() == [
        [2, 0, 0],
        [1, 1, 0],
        [1, 0, 1],
        [0, 2, 0],
        [0, 1, 1],
        [0, 0, 2],
    ]
    # degree 0: the single constant monomial
    assert basis.exponent_matrix(3, 0).tolist() == [[0, 0, 0]]


def test_exponent_matrix_rows_sum_to_degree_and_are_frozen():
    E = basis.exponent_matrix(4, 3)
    assert E.shape == (basis.basis_size(4, 3), 4)
    assert np.all(E.sum(axis=1) == 3)
    with pytest.raises(ValueError):
        E[0, 0] = 99


def test_position_inverts_enumeration():
    for pos, row in enumerate(basis.exponent_matrix(3, 3)):
        assert sum(row) == 3
        assert basis.position(3, 3, tuple(row)) == pos
    assert basis.position(3, 3, (1.0, 0.0, 2.0)) == basis.position(3, 3, (1, 0, 2))
    for exponents in ((3, 3, 3), (4, -1, 0), (2.5, 0.5, 0), (2, 1), (1, 1, 1, 0)):
        with pytest.raises(KeyError):
            basis.position(3, 3, exponents)


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 5))
def test_monomial_table_agrees_with_exponents_positions_and_prefixes(n, k):
    # the one table: each monomial of degree <= k as its sorted tuple of
    # variable indices, keyed to its column in the stack of degrees 0..k
    columns = basis._columns(n, k)
    _, sl = basis._stacked_exponents(n, k)
    assert list(columns.values()) == list(range(sl[k].stop))
    for mono, s in columns.items():
        d = len(mono)
        r = s - sl[d].start
        assert list(mono) == sorted(mono) and 0 <= r < basis.basis_size(n, d)
        exponents = basis.exponent_matrix(n, d)[r]
        assert np.bincount(mono, minlength=n).tolist() == exponents.tolist()
        assert basis.position(n, d, exponents) == r
        if d >= 2:
            # the prefix entry is the monomial without its last variable
            parent, var = basis._prefix_table(n, d)
            assert parent[r] == columns[mono[:-1]] - sl[d - 1].start
            assert var[r] == mono[-1]


# --- reduced Kronecker powers ----------------------------------------------


def test_kron_power_matches_full_kronecker_product():
    rng = np.random.default_rng(0)
    for n, d in [(2, 2), (2, 3), (3, 2), (4, 3)]:
        for _ in range(5):
            X = rng.normal(size=n)
            full = X.copy()
            for _ in range(d - 1):
                full = np.kron(full, X)
            reduced = basis.kron_power(X, d)
            # every index tuple of the full product lands on the reduced
            # entry for its sorted multiset
            for flat, idx in enumerate(itertools.product(range(n), repeat=d)):
                e = [0] * n
                for i in idx:
                    e[i] += 1
                assert full[flat] == pytest.approx(
                    reduced[basis.position(n, d, e)], rel=1e-12, abs=1e-14
                )


def test_kron_power_degree_zero_and_one():
    X = np.array([2.0, -3.0, 5.0])
    assert basis.kron_power(X, 0).tolist() == [1.0]
    assert basis.kron_power(X, 1).tolist() == X.tolist()


def jacobian_table(n: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-(e+1) position T[p, i] of monomial p times x_i, and the
    exponent of x_i there: the degree-e coefficients of d(W X^[e+1])/dx_i
    are W[:, T[:, i]] * scale[:, i]."""
    unit = np.eye(n, dtype=int)
    T = np.array([[basis.position(n, e + 1, row + unit[i]) for i in range(n)]
                  for row in basis.exponent_matrix(n, e)])
    scale = basis.exponent_matrix(n, e + 1)[T, np.arange(n)].astype(float)
    return T, scale


def jacobian_series(weights, n: int, k: int) -> list[np.ndarray]:
    """Jacobian coefficients of the order-k polynomials over n variables whose
    blocks weights lists (leading axes index the polynomials): entry e, for
    e = 0..k-1, has shape (..., rows, n, basis_size(n, e)) and [..., r, i, :]
    holds the degree-e coefficients of d(output r)/dx_i.  The reference
    reverse pass of the network tests builds its slot Jacobians from it."""
    out = []
    for e in range(k):
        T, scale = jacobian_table(n, e)
        out.append(np.swapaxes(weights[e + 1][..., T] * scale, -1, -2))
    return out


def test_jacobian_tables_match_finite_differences():
    # d(X^[d])/dX from the Jacobian table: the Jacobian series of the
    # polynomial whose degree-d block is the identity, times the monomials
    # of X
    rng = np.random.default_rng(1)
    h = 1e-6
    for n, d in [(2, 2), (3, 3), (4, 2)]:
        X = rng.normal(size=n)
        N = basis.basis_size(n, d)
        blocks = [np.zeros((N, basis.basis_size(n, e))) for e in range(d)] + [np.eye(N)]
        series = np.concatenate(jacobian_series(blocks, n, d), axis=-1)
        J = series @ basis.monomials(X, d - 1)
        assert J.shape == (N, n)
        for j in range(n):
            dX = np.zeros(n)
            dX[j] = h
            fd = (basis.kron_power(X + dX, d) - basis.kron_power(X - dX, d)) / (2 * h)
            assert np.allclose(J[:, j], fd, rtol=1e-6, atol=1e-8)


# --- powers of a polynomial map ---------------------------------------------
#
# Truncated power-series products on the BLAS, checked here against the
# symbolic oracle: substitute is the independent reference for the one term
# list that derives maps and composes them (basis._flow_terms), in the ODE
# and map tests.


@functools.lru_cache(maxsize=None)
def _scatter_matrix(n: int, a: int, b: int) -> np.ndarray:
    """0/1 matrix T with outer(u, v).ravel() @ T the degree-(a+b) coefficients
    of the product of a degree-a and a degree-b coefficient vector: row
    (p, q) holds its 1 at the position of monomial p times monomial q."""
    columns = basis._columns(n, a + b)
    bases = [itertools.combinations_with_replacement(range(n), d) for d in (a, b)]
    products = [columns[tuple(sorted(u + v))] for u, v in itertools.product(*bases)]
    T = np.zeros((len(products), basis.basis_size(n, a + b)))
    T[np.arange(len(products)), np.array(products) - columns[(0,) * (a + b)]] = 1.0
    T.flags.writeable = False
    return T


def _series_mul(u, v, n: int, k: int) -> list[np.ndarray]:
    """Product of two truncated power series in n variables, up to degree k.

    u[a] and v[b] hold degree-a and degree-b coefficients on their last axis;
    leading axes broadcast.  Each degree pair is one matrix product of the
    flattened outer coefficients with a cached 0/1 scatter matrix.
    """
    lead = np.broadcast_shapes(*(x.shape[:-1] for x in (*u, *v)))
    out = [np.zeros(lead + (basis.basis_size(n, c),)) for c in range(k + 1)]
    for a, ua in enumerate(u[: k + 1]):
        for b, vb in enumerate(v[: k + 1 - a]):
            outer = ua[..., :, None] * vb[..., None, :]
            out[a + b] += outer.reshape(outer.shape[:-2] + (-1,)) @ _scatter_matrix(n, a, b)
    return out


def map_powers(blocks, max_degree: int, k: int) -> dict[int, list[np.ndarray]]:
    """Coefficients of M(X)^[d] for d = 0..max_degree, truncated at degree k.

    blocks lists the coefficient matrices of the map M (degree 0 upward,
    m rows over n input variables).  The result maps each power d to a list
    of arrays A_0..A_k with A_j of shape (basis_size(m, d), basis_size(n, j))
    such that M(X)^[d] = sum_j A_j X^[j] up to the discarded degrees.

    Products share prefixes: each row of M(X)^[d] is a row of M(X)^[d-1]
    times one component of M, and all rows of a power form one series product.
    """
    M = [np.array(b, dtype=float) for b in blocks]
    m, n = M[0].shape[0], M[1].shape[1]
    M = M[: k + 1] + [np.zeros((m, basis.basis_size(n, d))) for d in range(len(M), k + 1)]
    one = [np.ones((1, 1))] + [np.zeros((1, basis.basis_size(n, j))) for j in range(1, k + 1)]
    result = {0: one}
    if max_degree >= 1:
        result[1] = M
    for d in range(2, max_degree + 1):
        parent, var = basis._prefix_table(m, d)
        result[d] = _series_mul([A[parent] for A in result[d - 1]], [B[var] for B in M], n, k)
    return result


def substitute(outer, inner, k: int) -> list[np.ndarray]:
    """Coefficient blocks of P(M(X)) truncated at degree k.

    outer lists the blocks P_0..P_p of a polynomial over the outputs of the
    map M whose blocks inner lists (both degree 0 upward).
    """
    powers = map_powers(inner, len(outer) - 1, k)
    out = [np.zeros((outer[0].shape[0], A.shape[1])) for A in powers[0]]
    out[0] += outer[0]
    for d in range(1, len(outer)):
        for j in range(k + 1):
            out[j] += outer[d] @ powers[d][j]
    return out


def _random_blocks(rng, n: int, k: int, scale: float = 0.5):
    return [scale * rng.normal(size=(n, basis.basis_size(n, d))) for d in range(k + 1)]


def test_map_powers_match_symbolic_expansion():
    rng = np.random.default_rng(2)
    for n, k in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        blocks = _random_blocks(rng, n, k)
        got = map_powers(blocks, max_degree=k, k=k)
        for d in range(k + 1):
            want = _sym_power_blocks(blocks, d, k)
            assert len(got[d]) == k + 1
            for j in range(k + 1):
                assert np.allclose(got[d][j], want[j], rtol=1e-10, atol=1e-12), (
                    f"n={n} k={k} power degree {d} block {j}"
                )


def test_map_powers_degree_zero_is_constant_one():
    blocks = _random_blocks(np.random.default_rng(3), 2, 2)
    got = map_powers(blocks, max_degree=2, k=2)
    assert got[0][0].tolist() == [[1.0]]
    assert np.all(got[0][1] == 0.0)
    assert np.all(got[0][2] == 0.0)


def test_map_powers_evaluate_consistently():
    # evaluating the packed power blocks at a point must equal the plain
    # kron power of the evaluated map
    rng = np.random.default_rng(4)
    blocks = _random_blocks(rng, 2, 3, scale=0.3)
    powers = map_powers(blocks, max_degree=3, k=3)
    for _ in range(5):
        X = rng.normal(size=2) * 0.3
        MX = sum(W @ basis.kron_power(X, d) for d, W in enumerate(blocks))
        for d in range(4):
            val = sum(
                A @ basis.kron_power(X, j) for j, A in enumerate(powers[d])
            )
            # truncation at k=3 drops monomials the full power contains
            trunc = np.zeros_like(val)
            comps = _sym_power_blocks(blocks, d, 3)
            for j, A in enumerate(comps):
                trunc += A @ basis.kron_power(X, j)
            assert np.allclose(val, trunc, rtol=1e-10, atol=1e-12)
        assert np.allclose(
            sum(A @ basis.kron_power(X, j) for j, A in enumerate(powers[1])), MX
        )


def _linear_power(W, d):
    """A with A @ X^[d] == (W @ X)^[d]: power d of the linear map W."""
    return map_powers([np.zeros((W.shape[0], 1)), W], d, d)[d][d]


def test_map_powers_of_linear_block_commute_with_kron_power():
    rng = np.random.default_rng(5)
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        W = rng.normal(size=(n, n))
        L = _linear_power(W, d)
        for _ in range(4):
            X = rng.normal(size=n)
            assert np.allclose(
                L @ basis.kron_power(X, d), basis.kron_power(W @ X, d), rtol=1e-11
            )


def test_map_powers_of_rectangular_linear_block():
    rng = np.random.default_rng(6)
    W = rng.normal(size=(3, 2))
    L = _linear_power(W, 2)
    assert L.shape == (basis.basis_size(3, 2), basis.basis_size(2, 2))
    X = rng.normal(size=2)
    assert np.allclose(L @ basis.kron_power(X, 2), basis.kron_power(W @ X, 2))


# --- properties of the truncated-series kernel --------------------------------


@st.composite
def _coefficient_blocks(draw, n, k, m=None):
    """Coefficient blocks of degrees 0..k over n variables, m rows each."""
    coeff = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    return [
        draw(hnp.arrays(np.float64, (n if m is None else m, basis.basis_size(n, d)),
                        elements=coeff))
        for d in range(k + 1)
    ]


@PROPERTY
@given(st.data(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 4))
def test_map_powers_match_symbolic_oracle_property(data, n, k, max_degree):
    blocks = data.draw(_coefficient_blocks(n, k))
    got = map_powers(blocks, max_degree=max_degree, k=k)
    assert sorted(got) == list(range(max_degree + 1))
    for d in range(max_degree + 1):
        want = _sym_power_blocks(blocks, d, k)
        for j in range(k + 1):
            assert np.allclose(got[d][j], want[j], rtol=1e-10, atol=1e-12), (d, j)


@PROPERTY
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
        elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    ),
    st.integers(0, 3),
)
def test_kron_power_of_a_batch_is_the_power_of_each_state(X, d):
    batch = basis.kron_power(X, d)
    n = X.shape[-1]
    assert batch.shape == X.shape[:-1] + (basis.basis_size(n, d),)
    for idx in np.ndindex(X.shape[:-1]):
        assert np.array_equal(batch[idx], basis.kron_power(X[idx], d))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_monomials_overflow_to_inf_or_nan_without_a_warning(k):
    # one multiply per monomial: overflow gives inf (and inf times 0 nan),
    # the same bytes for a state alone and in a batch, and never an error
    X = np.array([[1e200, -3e200, 0.0], [2e200, 1e-200, -1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = basis.monomials(X, k)
        singles = [basis.monomials(x, k) for x in X]
    assert np.isinf(batch).any()
    assert np.isnan(batch).any() == (k >= 3)
    for row, single in zip(batch, singles):
        assert row.tobytes() == single.tobytes()


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(0, 4), st.integers(0, 3))
def test_monomials_and_evaluate_match_per_degree_powers(data, n, k, batch):
    # one state when batch is 0, else a batch of that many states
    shape = (n,) if batch == 0 else (batch, n)
    X = data.draw(hnp.arrays(np.float64, shape,
                             elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False)))
    _, sl = basis._stacked_exponents(n, k)
    p = basis.monomials(X, k)
    assert p.shape == X.shape[:-1] + (sum(basis.basis_size(n, d) for d in range(k + 1)),)
    for d in range(k + 1):
        assert p[..., sl[d]].tobytes() == basis.kron_power(X, d).tobytes()
    # a polynomial is evaluated as its stacked blocks times the monomials
    C = np.hstack(data.draw(_coefficient_blocks(n, k, m=2)))
    for x in X.reshape(-1, n):
        want = C @ np.concatenate([basis.kron_power(x, d) for d in range(k + 1)])
        assert (C @ basis.monomials(x, k)).tobytes() == want.tobytes()
