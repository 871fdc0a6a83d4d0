"""Dense complex matrices and two-site tensor operators on Mat(N) x Mat(N).

Flattening convention, fixed once for the whole package: the elementary
operator e_ij (x) e_kl has its single nonzero entry at row i*N + k,
column j*N + l (0-based).  This is exactly numpy's kron ordering, and the
same rule applied recursively flattens longer tensor products with the
leftmost factor outermost.  site_product multiplies two-site operators on
any sites of Mat(N)^{x k} by contracting their legs, with no dense embedding.
"""

import cmath
import math

import numpy as np

from .errors import ScaleExceeded

# the largest complex array a command may allocate, checked before it does
MAX_ARRAY_BYTES = 2 ** 28
# the byte budgets of a chunk of a stacked path (chunks): check-lax,
# check-exchange and a monitor row hold the largest array of a chunk of
# spectral points to STACK_BYTES, so that a check of many points keeps the
# peak memory of a few; the certification suites hold what a chunk of
# samples holds at once to CERTIFY_BYTES
STACK_BYTES = 224 << 10
CERTIFY_BYTES = 16 << 20
# the subscript letters np.einsum accepts
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def check_scale(entries, what):
    """Raise ScaleExceeded if a complex array with this many entries would
    exceed MAX_ARRAY_BYTES."""
    if entries * 16 > MAX_ARRAY_BYTES:
        raise ScaleExceeded(
            f"{what} has {entries} complex entries, over the "
            f"{MAX_ARRAY_BYTES >> 20} MiB array budget")


def chunks(n, entries, budget):
    """The row slices of a stack of n rows, each holding this many complex
    entries, in chunks of max(1, budget // (16 entries)) rows."""
    size = max(1, budget // (16 * entries))
    return [slice(start, start + size) for start in range(0, n, size)]


def rows_product(A, B):
    """A @ B for a stack of rows A (..., k) and a k x n matrix B, each row
    rounded as in any longer stack: numpy sends a single row to the
    matrix-vector BLAS call, which rounds unlike the matrix-matrix call,
    so one row is doubled."""
    rows = A.reshape(-1, A.shape[-1])
    out = (rows if len(rows) != 1 else rows.repeat(2, 0)) @ B
    return out[:len(rows)].reshape(A.shape[:-1] + B.shape[-1:])


def eye(n):
    return np.eye(n, dtype=complex)


def permutation_P(N):
    """The factor-swap operator sum_ij e_ij (x) e_ji on Mat(N) x Mat(N)."""
    return eye(N * N).reshape((N,) * 4).swapaxes(2, 3).reshape(N * N, N * N)


def as_four_index(T, N=None):
    """View an N^2 x N^2 operator, or each of a stack, as T[..., i, k, j, l]
    acting on e_jl -> e_ik."""
    T = np.asarray(T, dtype=complex)
    return T.reshape(T.shape[:-2] + (N or math.isqrt(T.shape[-1]),) * 4)


def partial_trace_1(T):
    """Contract the first tensor factor: sum_i T_{(i,k),(i,l)}, of a matrix
    or of each matrix of a stack."""
    return np.einsum("...ikil->...kl", as_four_index(T))


def partial_trace_2(T):
    """Contract the second tensor factor: sum_k T_{(i,k),(j,k)}, of a matrix
    or of each matrix of a stack."""
    return np.einsum("...ikjk->...ij", as_four_index(T))


def matvec4(X, S):
    """sum_lk X[..., a, b, l, k] S[..., l, k] as the (..., N, N) stack of
    [a, b]: one batched product of each (a, b) x (l, k) matrix with the
    vector of S, each summed as it would be alone, whatever its stack."""
    n = X.shape[-1]
    out = np.reshape(X, X.shape[:-4] + (n * n, n * n)) \
        @ np.reshape(S, np.shape(S)[:-2] + (n * n, 1))
    return out.reshape(out.shape[:-2] + (n, n))


def op_contract(T, S):
    """tr_2(T * (1 (x) S)) as an N x N matrix, sum_kl T_{ikjl} S_{lk}, or
    the stack of them for stacks T and S (matvec4 over (l, k))."""
    return matvec4(as_four_index(T).swapaxes(-3, -2).swapaxes(-2, -1), S)


def op_contract_1(T, S):
    """tr_1(T * (S (x) 1)) as an N x N matrix, sum_ij T_{ikjl} S_{ji}, or
    the stack of them for stacks T and S (matvec4 over (j, i))."""
    return matvec4(as_four_index(T).swapaxes(-4, -1).swapaxes(-4, -3), S)


def sin_basis_T_int(a1, a2, N):
    """Finite Heisenberg element T_a = exp(pi*i*a1*a2/N) Q^a1 L^a2 for
    arbitrary integer labels.

    Q = diag(exp(2*pi*i*k/N), k=1..N); L is the cyclic shift with
    L[k, l] = 1 iff l = k+1 mod N; Q^N = L^N = 1.  The label enters the
    phase unreduced: shifting a coordinate by N flips the sign when the
    other coordinate is odd, so T_{-a} means the integer-negated label,
    not its mod-N representative.
    """
    return sin_basis([a1], [a2], N)[0]


def sin_basis(a1, a2, N):
    """The (k, N, N) stack of T_a (sin_basis_T_int) over the integer labels
    a = (a1[i], a2[i]): the powers of Q and L are formed once per exponent,
    and each element is (phase * Q^a1) @ L^a2 in that order."""
    Q = np.diag([cmath.exp(2j * cmath.pi * (k + 1) / N) for k in range(N)])
    Lam = np.roll(eye(N), 1, axis=1)
    Qp, Lp = (np.array([np.linalg.matrix_power(X, e) for e in range(N)])
              for X in (Q, Lam))
    a1, a2 = np.asarray(a1, dtype=int), np.asarray(a2, dtype=int)
    phase = np.array([cmath.exp(1j * cmath.pi * x * y / N)
                      for x, y in zip(a1.tolist(), a2.tolist())],
                     dtype=complex)
    return (phase[:, None, None] * Qp[a1 % N]) @ Lp[a2 % N]


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


def site_product(N, k, *factors):
    """The left-to-right product of operators on Mat(N)^{x k}, as an
    (..., N^k, N^k) matrix or stack, from one np.einsum over their legs.

    A factor (T, s, t) is the two-site (..., N^2, N^2) matrix or stack T
    with its first tensor factor on site s and its second on site t, so
    (T, 1, 0) is T_21; (None, s, t) swaps the sites s and t, which only
    relabels legs.  Each run of sites that no factor names is one identity
    leg, so the einsum's letters and axes do not grow with k.
    """
    named = {int(site) for _, *sites in factors for site in sites}
    sizes, leg = [], {}
    for site in range(k):
        if site in named or site - 1 in named or not sizes:
            leg[site] = len(sizes)
            sizes.append(N)
        else:
            sizes[-1] *= N
    letters = iter(_LETTERS)
    rows = [next(letters) for _ in sizes]
    cols, specs, operands = list(rows), [], []
    for T, s, t in factors:
        a, b = leg[int(s)], leg[int(t)]
        if T is None:
            cols[a], cols[b] = cols[b], cols[a]
            continue
        new = next(letters) + next(letters)
        specs.append("..." + cols[a] + cols[b] + new)
        operands.append(np.reshape(T, np.shape(T)[:-2] + (N,) * 4))
        cols[a], cols[b] = new
    # a row leg that reaches the columns untouched, or only swapped, is
    # joined to its column by an identity
    for i, c in enumerate(cols):
        if c in rows:
            cols[i] = next(letters)
            specs.append(c + cols[i])
            operands.append(eye(sizes[rows.index(c)]))
    out = np.einsum(",".join(specs) + "->..." + "".join(rows + cols),
                    *operands)
    return out.reshape(out.shape[:-2 * len(sizes)] + (N ** k,) * 2)


def block_grid(A, M, N):
    """(M, M, N, N) view of an NM x NM matrix: entry [i, j] is block (i, j).

    The view shares memory with A; grid.swapaxes(1, 2).reshape(M*N, M*N)
    is A again.
    """
    return A.reshape(M, N, M, N).swapaxes(1, 2)
