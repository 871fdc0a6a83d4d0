"""Dense complex matrices and two-site tensor operators on Mat(N) x Mat(N).

Flattening convention, fixed once for the whole package: the elementary
operator e_ij (x) e_kl has its single nonzero entry at row i*N + k,
column j*N + l (0-based).  This is exactly numpy's kron ordering, and the
same rule applied recursively flattens longer tensor products with the
leftmost factor outermost.
"""

import cmath

import numpy as np

from .errors import ScaleExceeded

# the largest complex array a command may allocate, checked before it does
MAX_ARRAY_BYTES = 2 ** 28
# the largest array of one chunk of a stacked check: check-lax,
# check-exchange and a monitor row stack their spectral points in chunks
# whose largest array fits this, so that a check of many points keeps the
# peak memory of a few
STACK_BYTES = 224 << 10


def check_scale(entries, what):
    """Raise ScaleExceeded if a complex array with this many entries would
    exceed MAX_ARRAY_BYTES."""
    if entries * 16 > MAX_ARRAY_BYTES:
        raise ScaleExceeded(
            f"{what} has {entries} complex entries, over the "
            f"{MAX_ARRAY_BYTES >> 20} MiB array budget")


def stack_chunk(entries):
    """Samples per chunk of a stacked check whose largest array holds this
    many complex entries per sample: max(1, STACK_BYTES // (16 entries))."""
    return max(1, STACK_BYTES // (16 * entries))


def kron(*mats):
    """Kronecker product of one or more matrices, leftmost factor outermost."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def eye(n):
    return np.eye(n, dtype=complex)


def permutation_P(N):
    """The factor-swap operator sum_ij e_ij (x) e_ji on Mat(N) x Mat(N)."""
    P = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N):
        for j in range(N):
            P[i * N + j, j * N + i] = 1.0
    return P


def as_four_index(T, N):
    """View an N^2 x N^2 operator as T[i, k, j, l] acting on e_jl -> e_ik."""
    return np.asarray(T, dtype=complex).reshape(N, N, N, N)


def partial_trace_1(T):
    """Contract the first tensor factor: sum_i T_{(i,k),(i,l)}, of a matrix
    or of each matrix of a stack."""
    T = np.asarray(T, dtype=complex)
    N = int(round(np.sqrt(T.shape[-1])))
    return np.einsum("...ikil->...kl", T.reshape(T.shape[:-2] + (N,) * 4))


def partial_trace_2(T):
    """Contract the second tensor factor: sum_k T_{(i,k),(j,k)}, of a matrix
    or of each matrix of a stack."""
    T = np.asarray(T, dtype=complex)
    N = int(round(np.sqrt(T.shape[-1])))
    return np.einsum("...ikjk->...ij", T.reshape(T.shape[:-2] + (N,) * 4))


def op_contract(T, S):
    """tr_2(T * (1 (x) S)) as an N x N matrix: sum_kl T_{ikjl} S_{lk}."""
    T = np.asarray(T, dtype=complex)
    N = int(round(np.sqrt(T.shape[0])))
    return np.einsum("ikjl,lk->ij", as_four_index(T, N),
                     np.asarray(S, dtype=complex))


def op_contract_1(T, S):
    """tr_1(T * (S (x) 1)) as an N x N matrix: sum_ij T_{ikjl} S_{ji}."""
    T = np.asarray(T, dtype=complex)
    N = int(round(np.sqrt(T.shape[0])))
    return np.einsum("ikjl,ji->kl", as_four_index(T, N),
                     np.asarray(S, dtype=complex))


def sin_basis_T_int(a1, a2, N):
    """Finite Heisenberg element T_a = exp(pi*i*a1*a2/N) Q^a1 L^a2 for
    arbitrary integer labels.

    Q = diag(exp(2*pi*i*k/N), k=1..N); L is the cyclic shift with
    L[k, l] = 1 iff l = k+1 mod N; Q^N = L^N = 1.  The label enters the
    phase unreduced: shifting a coordinate by N flips the sign when the
    other coordinate is odd, so T_{-a} means the integer-negated label,
    not its mod-N representative.
    """
    Q = np.diag([cmath.exp(2j * cmath.pi * (k + 1) / N) for k in range(N)])
    Lam = np.zeros((N, N), dtype=complex)
    for k in range(N):
        Lam[k, (k + 1) % N] = 1.0
    phase = cmath.exp(1j * cmath.pi * a1 * a2 / N)
    return phase * np.linalg.matrix_power(Q, a1 % N) @ \
        np.linalg.matrix_power(Lam, a2 % N)


def kappa(a, b):
    """Structure phase in T_a T_b = kappa(a, b) T_{a+b}, for sector labels
    a, b (specfun.SectorIndex)."""
    if a.N != b.N:
        raise ValueError("mismatched N")
    return cmath.exp(1j * cmath.pi * (b.a1 * a.a2 - b.a2 * a.a1) / a.N)


def commutator(A, B):
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return A @ B - B @ A


def frobenius_norm(A):
    return float(np.linalg.norm(np.asarray(A, dtype=complex)))


def stack_norms(X):
    """The Frobenius norm of each X[k] of a complex stack, bit for bit
    frobenius_norm of a C-contiguous X[k]: the BLAS dot products of its
    real and of its imaginary part, one pair per sample, so that a
    sample's norm does not depend on the stack it sits in."""
    X = np.ascontiguousarray(X).reshape(len(X), 1, -1)
    re, im = X.real, X.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))
                   .reshape(-1))


def block_grid(A, M, N):
    """(M, M, N, N) view of an NM x NM matrix: entry [i, j] is block (i, j).

    The view shares memory with A; grid.swapaxes(1, 2).reshape(M*N, M*N)
    is A again.
    """
    return A.reshape(M, N, M, N).swapaxes(1, 2)
