"""Dense complex matrices and two-site tensor operators on Mat(N) x Mat(N).

Flattening convention, fixed once for the whole package: the elementary
operator e_ij (x) e_kl has its single nonzero entry at row i*N + k,
column j*N + l (0-based).  This is exactly numpy's kron ordering, and the
same rule applied recursively flattens longer tensor products with the
leftmost factor outermost.  embed places one two-site operator on two
sites of Mat(N)^{x k}; legs_product multiplies two of them on Mat(N)^{x 3}
as one batched matrix product over their legs, with no dense embedding, as
legs_plan resolves once per pattern, and diagonal_plan gives the support of
one of them times the identity there.
"""

import cmath
import functools
import math

import numpy as np

from .errors import ScaleExceeded

# the largest complex array a command may allocate, checked before it does
MAX_ARRAY_BYTES = 2 ** 28
# the byte budgets of a chunk of a stacked path (chunks): check-lax,
# check-exchange and the monitor rows of a trajectory hold the largest
# array of a chunk of spectral points to STACK_BYTES, so that a check of
# many points keeps the peak memory of a few; the certification suites
# hold what a chunk of samples holds at once to CERTIFY_BYTES
STACK_BYTES = 224 << 10
CERTIFY_BYTES = 16 << 20


def check_scale(entries, what):
    """Raise ScaleExceeded if a complex array with this many entries would
    exceed MAX_ARRAY_BYTES."""
    if entries * 16 > MAX_ARRAY_BYTES:
        raise ScaleExceeded(
            f"{what} has {entries} complex entries, over the "
            f"{MAX_ARRAY_BYTES >> 20} MiB array budget")


def chunk_rows(entries, budget):
    """The rows of a chunk of a stack whose rows each hold this many
    complex entries: max(1, budget // (16 entries))."""
    return max(1, budget // (16 * entries))


def chunks(n, entries, budget):
    """The row slices of a stack of n rows, each holding this many complex
    entries, in chunks of chunk_rows(entries, budget) rows."""
    size = chunk_rows(entries, budget)
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


def sin_basis(a1, a2, N):
    """The (k, N, N) stack of the finite Heisenberg elements T_a =
    exp(pi*i*a1*a2/N) Q^a1 L^a2 over the integer labels a = (a1[i], a2[i]).

    Q = diag(exp(2*pi*i*k/N), k=1..N); L is the cyclic shift with
    L[k, l] = 1 iff l = k+1 mod N; Q^N = L^N = 1.  The label enters the
    phase unreduced: shifting a coordinate by N flips the sign when the
    other coordinate is odd, so T_{-a} means the integer-negated label,
    not its mod-N representative.  The powers of Q and L are formed once
    per exponent, and each element is (phase * Q^a1) @ L^a2 in that order.
    """
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
    return norms_reader(np.ascontiguousarray(X))()


def norms_reader(X):
    """stack_norms of what the C-contiguous stack X holds at each call: a
    buffer refilled many times forms its views once."""
    X = X.reshape(len(X), 1, -1)
    re, im = X.real, X.imag
    ret, imt = re.swapaxes(1, 2), im.swapaxes(1, 2)
    return lambda: np.sqrt((re @ ret + im @ imt).reshape(-1))


def embed(T, s, t, N, k):
    """The two-site (..., N^2, N^2) matrix or stack T with its first tensor
    factor on site s and its second on site t of Mat(N)^{x k}, as an (...,
    N^k, N^k) matrix or stack, so embed(T, 1, 0, N, 2) is T_21 = P T P: one
    outer product with the identity on the other sites, as three legs (the
    sites before, between and after s and t), and one transpose into site
    order, so that each entry is an entry of T times 1 or 0."""
    lo, hi = sorted((s, t))
    sizes = (N ** lo, N ** (hi - lo - 1), N ** (k - 1 - hi))
    T = np.reshape(T, np.shape(T)[:-2] + (N,) * 4 + (1,) * 6)
    X = T * eye(math.prod(sizes)).reshape(sizes * 2)
    b, (i, j) = X.ndim - 10, (0, 1) if s < t else (1, 0)
    # after the batch axes: T's [i_s, i_t, j_s, j_t], then the identity's
    # three row legs and its three column legs
    order = (4, i, 5, j, 6, 7, 2 + i, 8, 2 + j, 9)
    return X.transpose(*range(b), *(b + a for a in order)).reshape(
        X.shape[:b] + (N ** k,) * 2)


def _wires(factors):
    """The walk of the swaps of factors (X, s, t) over the wires of
    Mat(N)^{x 3}, X None for a swap: X P Y = X (P Y P) P, so an operator
    acts on the wires the swaps before it have moved to its sites, and the
    swaps end as one column permutation.  Returns the final wires and
    ((wire of s, wire of t), X) of each operator."""
    wire, ops = [0, 1, 2], []
    for X, s, t in factors:
        if X is None:
            wire[s], wire[t] = wire[t], wire[s]
        else:
            ops.append(((wire[s], wire[t]), X))
    return wire, ops


@functools.lru_cache(maxsize=256)
def legs_plan(N, pattern):
    """The plan of a product on Mat(N)^{x 3} of factors (b, s, t), each a
    two-site operator with b batch axes on the sites s and t or (None, s,
    t), a swap of them, and two operators that name every site: one batched
    matrix product over the legs they share (legs_product), e.g. (R_12
    R_23)[abc, def] = sum_g R_12[ab, dg] R_23[gc, ef] as (n, N^3, N) @ (n,
    N, N^3), each one's axis order (None for its own) and matrix shape, then
    the axis order of the product's legs."""
    wire, ops = _wires(pattern)
    if len(ops) != 2 or len({*ops[0][0], *ops[1][0]}) != 3:
        raise ValueError("a product of legs has two operators that name "
                         "every site of Mat(N)^{x 3}")
    (xs, bx), (ys, by) = ops
    # the axes of the product, ("r", leg) a row, ("c", leg) a column; X's
    # columns on the legs Y names are summed with Y's rows there
    X = [("r", i) for i in xs] + [("s" if i in ys else "c", i) for i in xs]
    Y = [("s" if i in xs else "r", i) for i in ys] + [("c", i) for i in ys]
    inner = [a for a in X if a[0] == "s"]
    left, right = ([a for a in U if a[0] != "s"] for U in (X, Y))
    axes, b = left + right, max(bx, by)
    final = [axes.index(("r", i)) for i in range(3)] \
        + [axes.index(("c", w)) for w in wire]
    xo, yo = ((*range(c), *(c + U.index(a) for a in legs)) for c, U, legs
              in ((bx, X, left + inner), (by, Y, inner + right)))
    return (None if xo == tuple(sorted(xo)) else xo,
            (N ** len(left), N ** len(inner)),
            None if yo == tuple(sorted(yo)) else yo,
            (N ** len(inner), N ** len(right)),
            (*range(b), *(b + a for a in final)))


@functools.lru_cache(maxsize=256)
def diagonal_plan(pattern):
    """The einsum subscripts of the writable view of legs laid out as by
    legs_product on which T (x) 1 can be nonzero, one operator T and swaps
    (a legs_plan pattern, _wires): T's legs [..., i_s, i_t, j_s, j_t], then
    the other site's row leg, over which np.add(view, T, out=view) spreads
    T with the bits of adding the dense T (x) 1 and no N^6 stack."""
    wire, [(sites, _)] = _wires(pattern)
    rows, cols = "abc", "def"
    col = [cols[q] if q in sites else rows[q] for q in range(3)]
    rest = "".join(rows[q] for q in range(3) if q not in sites)
    return (f"...{rows}{''.join(col[w] for w in wire)}->..."
            f"{rows[sites[0]]}{rows[sites[1]]}{cols[sites[0]]}"
            f"{cols[sites[1]]}{rest}")


def legs_product(N, plan, X, Y, out=None):
    """The product of the operators X and Y of a legs_plan, its row and
    column legs apart: a view of one batched matrix product, written into
    out if given (an array of the product's batch and matrix shape)."""
    xo, xshape, yo, yshape, final = plan
    xb, yb = X.shape[:-2], Y.shape[:-2]
    if xo is not None:
        X = X.reshape(xb + (N,) * 4).transpose(xo)
    if yo is not None:
        Y = Y.reshape(yb + (N,) * 4).transpose(yo)
    legs = np.matmul(X.reshape(xb + xshape), Y.reshape(yb + yshape), out=out)
    return legs.reshape(legs.shape[:-2] + (N,) * 6).transpose(final)


def as_block_grid(A, M, N):
    """(M, M, N, N) view of an NM x NM matrix, or of each of a stack:
    entry [..., i, j] is block (i, j).

    The view shares memory with A; grid.swapaxes(1, 2).reshape(M*N, M*N)
    is A again.
    """
    return A.reshape(A.shape[:-2] + (M, N, M, N)).swapaxes(-3, -2)
