"""Unit tests for the tensor-product plumbing and the sin-algebra basis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toplax import specfun as sf
from toplax import tensor as tn


def random_matrix(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def unit(i, j, n):
    out = np.zeros((n, n), dtype=complex)
    out[i, j] = 1.0
    return out


def test_kron_identity():
    assert np.array_equal(tn.kron(tn.eye(2), tn.eye(2)), tn.eye(4))


def test_kron_elementary_placement():
    # e_00 (x) e_11 sits at row 0*2+1, col 0*2+1
    got = tn.kron(unit(0, 0, 2), unit(1, 1, 2))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.array_equal(got, expect)


def test_kron_three_factors():
    A, B, C = np.eye(2), unit(0, 1, 2), np.eye(2)
    assert np.array_equal(tn.kron(A, B, C),
                          np.kron(A, np.kron(B, C)))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    A, B, C, D = (random_matrix(rng, 2) for _ in range(4))
    lhs = tn.kron(A, B) @ tn.kron(C, D)
    rhs = tn.kron(A @ C, B @ D)
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
    assert np.max(np.abs(P @ tn.kron(A, B) @ P - tn.kron(B, A))) < 1e-13


def test_partial_traces_of_permutation():
    for N in (2, 3):
        P = tn.permutation_P(N)
        assert np.array_equal(tn.partial_trace_1(P), tn.eye(N))
        assert np.array_equal(tn.partial_trace_2(P), tn.eye(N))


def test_partial_traces_factorized():
    rng = np.random.default_rng(7)
    A, B = random_matrix(rng, 3), random_matrix(rng, 3)
    K = tn.kron(A, B)
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
    via_trace = tn.partial_trace_2(T @ tn.kron(tn.eye(N), S))
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
            c = a + b
            rhs = tn.kappa(a, b) * tn.sin_basis_T_int(c.a1, c.a2, N)
            # the canonical representative of a+b can differ from the
            # integer sum by a sign; compare projectively then fix phase
            lhs_int = tn.sin_basis_T_int(a.a1 + b.a1, a.a2 + b.a2, N)
            assert np.max(np.abs(lhs - tn.kappa(a, b) * lhs_int)) < 1e-12
            ratio = lhs[np.abs(rhs) > 0.5] / rhs[np.abs(rhs) > 0.5]
            assert np.max(np.abs(np.abs(ratio) - 1.0)) < 1e-12


def test_kappa_diagonal_is_one():
    for a in sf.all_sectors(3):
        assert abs(tn.kappa(a, a) - 1.0) < 1e-15


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
    assert np.max(np.abs(tn.commutator(A, A))) < 1e-15
    assert abs(np.trace(tn.commutator(A, B))) < 1e-13
    loop = sum(abs(A[i, j]) ** 2 for i in range(3) for j in range(3))
    assert abs(tn.frobenius_norm(A) - np.sqrt(loop)) < 1e-12


def test_block_grid_is_a_view():
    rng = np.random.default_rng(23)
    M, N = 3, 2
    A = random_matrix(rng, M * N)
    grid = tn.block_grid(A, M, N)
    assert np.array_equal(grid[1, 2], A[2:4, 4:6])
    assert np.shares_memory(grid, A)
    assert np.array_equal(grid.swapaxes(1, 2).reshape(M * N, M * N), A)
