"""Unit tests for the tensor-product plumbing and the sin-algebra basis."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toplax import specfun as sf
from toplax import tensor as tn

import reference as rf


def random_matrix(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def unit(i, j, n):
    out = np.zeros((n, n), dtype=complex)
    out[i, j] = 1.0
    return out


def test_kron_identity():
    assert np.array_equal(rf.kron(tn.eye(2), tn.eye(2)), tn.eye(4))


def test_kron_elementary_placement():
    # e_00 (x) e_11 sits at row 0*2+1, col 0*2+1
    got = rf.kron(unit(0, 0, 2), unit(1, 1, 2))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.array_equal(got, expect)


def test_kron_three_factors():
    A, B, C = np.eye(2), unit(0, 1, 2), np.eye(2)
    assert np.array_equal(rf.kron(A, B, C),
                          np.kron(A, np.kron(B, C)))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    A, B, C, D = (random_matrix(rng, 2) for _ in range(4))
    lhs = rf.kron(A, B) @ rf.kron(C, D)
    rhs = rf.kron(A @ C, B @ D)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_permutation_explicit():
    expect = np.array([[1, 0, 0, 0],
                       [0, 0, 1, 0],
                       [0, 1, 0, 0],
                       [0, 0, 0, 1]], dtype=complex)
    assert np.array_equal(tn.permutation_P(2), expect)


def test_permutation_squares_to_identity():
    for N in (1, 2, 3, 4):
        P = tn.permutation_P(N)
        assert np.array_equal(P @ P, tn.eye(N * N))


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_permutation_swaps_factors(seed, N):
    rng = np.random.default_rng(seed)
    A, B = random_matrix(rng, N), random_matrix(rng, N)
    P = tn.permutation_P(N)
    assert np.max(np.abs(P @ rf.kron(A, B) @ P - rf.kron(B, A))) < 1e-13


def test_partial_traces_of_permutation():
    for N in (2, 3):
        P = tn.permutation_P(N)
        assert np.array_equal(tn.partial_trace_1(P), tn.eye(N))
        assert np.array_equal(tn.partial_trace_2(P), tn.eye(N))


def test_partial_traces_factorized():
    rng = np.random.default_rng(7)
    A, B = random_matrix(rng, 3), random_matrix(rng, 3)
    K = rf.kron(A, B)
    assert np.max(np.abs(tn.partial_trace_2(K) - A * np.trace(B))) < 1e-13
    assert np.max(np.abs(tn.partial_trace_1(K) - B * np.trace(A))) < 1e-13
    assert abs(np.trace(tn.partial_trace_1(K)) - np.trace(K)) < 1e-13


def test_op_contract_against_quadruple_loop():
    rng = np.random.default_rng(11)
    N = 3
    T = random_matrix(rng, N * N)
    S = random_matrix(rng, N)
    expect = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for l in range(N):
                    expect[i, j] += T[i * N + k, j * N + l] * S[l, k]
    assert np.max(np.abs(tn.op_contract(T, S) - expect)) < 1e-13
    expect1 = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for l in range(N):
                    expect1[k, l] += T[i * N + k, j * N + l] * S[j, i]
    assert np.max(np.abs(tn.op_contract_1(T, S) - expect1)) < 1e-13


def test_op_contract_matches_partial_trace_form():
    rng = np.random.default_rng(13)
    N = 2
    T = random_matrix(rng, N * N)
    S = random_matrix(rng, N)
    via_trace = tn.partial_trace_2(T @ rf.kron(tn.eye(N), S))
    assert np.max(np.abs(tn.op_contract(T, S) - via_trace)) < 1e-13


def test_sin_basis_identity_element():
    for N in (2, 3, 4):
        T0 = tn.sin_basis_T_int(0, 0, N)
        assert np.max(np.abs(T0 - np.eye(N))) < 1e-14


def test_sin_basis_trace_pairing():
    # tr(T_a T_b) = N when a + b = 0 with integer-negated labels
    for N in (2, 3, 4):
        for a1 in range(N):
            for a2 in range(N):
                Ta = tn.sin_basis_T_int(a1, a2, N)
                Tb = tn.sin_basis_T_int(-a1, -a2, N)
                assert abs(np.trace(Ta @ Tb) - N) < 1e-12
                for b1 in range(N):
                    for b2 in range(N):
                        if (b1 + a1) % N == 0 and (b2 + a2) % N == 0:
                            continue
                        prod = np.trace(Ta @ tn.sin_basis_T_int(b1, b2, N))
                        assert abs(prod) < 1e-12


def test_sin_basis_products():
    N = 3
    for a in sf.all_sectors(N):
        for b in sf.all_sectors(N):
            lhs = tn.sin_basis_T_int(a.a1, a.a2, N) \
                @ tn.sin_basis_T_int(b.a1, b.a2, N)
            c = rf.add(a, b)
            rhs = rf.kappa(a, b) * tn.sin_basis_T_int(c.a1, c.a2, N)
            # the canonical representative of a+b can differ from the
            # integer sum by a sign; compare projectively then fix phase
            lhs_int = tn.sin_basis_T_int(a.a1 + b.a1, a.a2 + b.a2, N)
            assert np.max(np.abs(lhs - rf.kappa(a, b) * lhs_int)) < 1e-12
            ratio = lhs[np.abs(rhs) > 0.5] / rhs[np.abs(rhs) > 0.5]
            assert np.max(np.abs(np.abs(ratio) - 1.0)) < 1e-12


def test_kappa_diagonal_is_one():
    for a in sf.all_sectors(3):
        assert abs(rf.kappa(a, a) - 1.0) < 1e-15


def test_right_multiplication_by_P_swaps_columns():
    # T P has entries T_{ijkl} -> T_{ilkj} in the four-index picture
    rng = np.random.default_rng(17)
    N = 3
    T = random_matrix(rng, N * N)
    TP4 = tn.as_four_index(T @ tn.permutation_P(N), N)
    T4 = tn.as_four_index(T, N)
    assert np.max(np.abs(TP4 - T4.transpose(0, 1, 3, 2))) < 1e-13


def test_commutator_and_norm():
    rng = np.random.default_rng(19)
    A, B = random_matrix(rng, 3), random_matrix(rng, 3)
    assert np.max(np.abs(rf.commutator(A, A))) < 1e-15
    assert abs(np.trace(rf.commutator(A, B))) < 1e-13
    loop = sum(abs(A[i, j]) ** 2 for i in range(3) for j in range(3))
    assert abs(tn.frobenius_norm(A) - np.sqrt(loop)) < 1e-12


def placed(N, k, ops):
    """The kron product with ops[s] on site s and the identity elsewhere."""
    return rf.kron(*(ops.get(s, tn.eye(N)) for s in range(k)))


def swap_matrix(N, k, s, t):
    """The permutation of sites s and t on Mat(N)^{x k}, entry by entry."""
    P = np.zeros((N ** k, N ** k), dtype=complex)
    for row in itertools.product(range(N), repeat=k):
        col = list(row)
        col[s], col[t] = row[t], row[s]
        P[np.ravel_multi_index(row, (N,) * k),
          np.ravel_multi_index(col, (N,) * k)] = 1.0
    return P


def test_site_product_against_kron():
    rng = np.random.default_rng(29)
    N = 2
    A, B, C, D = (random_matrix(rng, N) for _ in range(4))
    # a two-site operator that is not a single product
    T = rf.kron(A, B) + rf.kron(C, D)
    for k in (2, 3, 4):
        for s, t in itertools.permutations(range(k), 2):
            want = placed(N, k, {s: A, t: B}) + placed(N, k, {s: C, t: D})
            got = tn.site_product(N, k, (T, s, t))
            assert np.max(np.abs(got - want)) < 1e-14, (k, s, t)
            P = swap_matrix(N, k, s, t)
            assert np.array_equal(tn.site_product(N, k, (None, s, t)), P)
            got = tn.site_product(N, k, (None, s, t), (T, s, t),
                                  (None, s, t))
            assert np.max(np.abs(got - P @ want @ P)) < 1e-14, (k, s, t)
    # a product of two operators sharing one site
    U = random_matrix(rng, N * N)
    got = tn.site_product(N, 3, (T, 2, 0), (U, 0, 1))
    want = (placed(N, 3, {2: A, 0: B}) + placed(N, 3, {2: C, 0: D})) \
        @ np.kron(U, tn.eye(N))
    assert np.max(np.abs(got - want)) < 1e-13
    # each run of sites no factor names is one identity leg
    got = tn.site_product(N, 5, (T, 0, 4))
    want = placed(N, 5, {0: A, 4: B}) + placed(N, 5, {0: C, 4: D})
    assert np.max(np.abs(got - want)) < 1e-14
    got = tn.site_product(N, 5, (T, 3, 1), (None, 1, 3))
    want = placed(N, 5, {3: A, 1: B}) + placed(N, 5, {3: C, 1: D})
    assert np.max(np.abs(got - want @ swap_matrix(N, 5, 1, 3))) < 1e-14


def test_site_product_of_stacks():
    rng = np.random.default_rng(31)
    N = 3
    S = np.array([random_matrix(rng, N * N) for _ in range(4)])
    V = np.array([random_matrix(rng, N * N) for _ in range(4)])
    T = random_matrix(rng, N * N)
    # a stack holds bitwise the products of its matrices one at a time
    got = tn.site_product(N, 3, (S, 0, 2), (V, 2, 1), (None, 0, 2))
    one = [tn.site_product(N, 3, (s, 0, 2), (v, 2, 1), (None, 0, 2))
           for s, v in zip(S, V)]
    assert got.shape == (4, N ** 3, N ** 3)
    assert np.array_equal(got, np.array(one))
    # a matrix broadcasts against a stack
    got = tn.site_product(N, 3, (T, 1, 2), (S, 0, 1))
    for g, s in zip(got, S):
        want = np.kron(tn.eye(N), T) @ np.kron(s, tn.eye(N))
        assert np.max(np.abs(g - want)) < 1e-13


@pytest.mark.parametrize("k", [2, 3, 5])
def test_site_product_against_einsum_oracle(k):
    # up to two operators, stacks or single matrices on ordered or reversed
    # site pairs, with swaps before, between and after them and in runs,
    # against the einsum form, to 1e-15 relative
    rng = np.random.default_rng(41 + k)
    seen = set()
    for kinds in ("T", "S", "SS", "TT", "STS", "TST", "SSTT", "TSST", "TTSS",
                  "STTS", "SSTSS", "TSTSS") * 12:
        N = int(rng.integers(1, 4))
        factors = []
        for kind in kinds:
            s, t = map(int, rng.choice(k, 2, replace=False))
            T = None
            if kind == "T":
                stacked = rng.random() < 0.6
                shape = (3,) * stacked + (N * N, N * N)
                T = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
                seen.update({("stack", stacked), ("reversed", s > t)})
            factors.append((T, s, t))
        want = rf.site_product(N, k, *factors)
        got = tn.site_product(N, k, *factors)
        assert got.shape == want.shape, kinds
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), \
            (kinds, N)
        # into a buffer's leading entries, the same values
        out = np.full(want.size + 3, np.nan, dtype=complex)
        legs = tn.site_legs(N, k, *factors, out=out)
        assert np.shares_memory(legs, out) and np.isnan(out[-3:]).all()
        assert np.array_equal(legs.reshape(want.shape), got), kinds
    assert seen == {("stack", True), ("stack", False), ("reversed", True),
                    ("reversed", False)}


def test_site_product_takes_two_operators_at_most():
    T = tn.eye(4)
    with pytest.raises(ValueError, match="at most two operators"):
        tn.site_product(2, 3, (T, 0, 1), (T, 1, 2), (None, 0, 1), (T, 0, 2))


def test_block_grid_is_a_view():
    rng = np.random.default_rng(23)
    M, N = 3, 2
    A = random_matrix(rng, M * N)
    grid = tn.block_grid(A, M, N)
    assert np.array_equal(grid[1, 2], A[2:4, 4:6])
    assert np.shares_memory(grid, A)
    assert np.array_equal(grid.swapaxes(1, 2).reshape(M * N, M * N), A)


def test_sin_basis_stack_is_each_label():
    # the stack from shared powers of Q and L holds each label's element
    # from its own matrix powers, bit for bit, negative labels included
    for N in range(1, 8):
        labels = list(itertools.product(range(-N, 2 * N), repeat=2))
        a1, a2 = zip(*labels)
        stack = tn.sin_basis(a1, a2, N)
        for (b1, b2), T in zip(labels, stack):
            want = rf.sin_basis_T(b1, b2, N).view(np.uint64)
            assert np.array_equal(T.view(np.uint64), want), (N, b1, b2)
            assert np.array_equal(
                tn.sin_basis_T_int(b1, b2, N).view(np.uint64), want)
