"""Dense complex matrices and two-site tensor operators on Mat(N) x Mat(N).

Flattening convention, fixed once for the whole package: the elementary
operator e_ij (x) e_kl has its single nonzero entry at row i*N + k,
column j*N + l (0-based).  This is exactly numpy's kron ordering, and the
same rule applied recursively flattens longer tensor products with the
leftmost factor outermost.  site_product multiplies two-site operators on
any sites of Mat(N)^{x k} as batched matrix products over their legs, with
no dense embedding.
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
    X = np.ascontiguousarray(X).reshape(len(X), 1, -1)
    re, im = X.real, X.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))
                   .reshape(-1))


@functools.lru_cache(maxsize=256)
def _plan(N, k, pattern):
    """The steps of site_legs for factors of this pattern, one (s, t, b)
    per factor: its sites, and its number of batch axes or None for a swap.

    Returns (ops, embed, final).  For two operators, ops holds each one's
    axis order and matrix shape for one batched product over the legs they
    share, e.g. (R_12 R_23)[abc, def] = sum_g R_12[ab, dg] R_23[gc, ef] as
    (n, N^3, N) @ (n, N, N^3), and the leg shape of that product.  embed is
    None if two operators name every leg, else the batch axes, the identity
    on the other legs as a row and its leg shape, for one outer product.
    final is the axis order of the result."""
    named = {site for s, t, _ in pattern for site in (s, t)}
    sizes, leg = [], {}
    for site in range(k):
        # a named site is one leg, and so is each run of the other sites
        if site in named or site - 1 in named or not sizes:
            leg[site] = len(sizes)
            sizes.append(N)
        else:
            sizes[-1] *= N
    # X P Y = X (P Y P) P: an operator acts on the wires the swaps before it
    # have moved to its sites, and the swaps end as one column permutation
    wire, ops = list(range(len(sizes))), []
    for s, t, batch in pattern:
        if batch is None:
            wire[leg[s]], wire[leg[t]] = wire[leg[t]], wire[leg[s]]
        else:
            ops.append(([wire[leg[s]], wire[leg[t]]], batch))
    if len(ops) > 2:
        raise ValueError("site_product multiplies at most two operators, "
                         f"not {len(ops)}")
    b, two = max((batch for _, batch in ops), default=0), len(ops) == 2
    # the axes of the operators' product, ("r", leg) a row, ("c", leg) a
    # column; X's columns on the legs Y names are summed with Y's rows there
    axes = [(rc, i) for rc in "rc" for i in ops[0][0]] if ops else []
    if two:
        (xs, bx), (ys, by) = ops
        X = [("r", i) for i in xs] + [("s" if i in ys else "c", i) for i in xs]
        Y = [("s" if i in xs else "r", i) for i in ys] + [("c", i) for i in ys]
        inner = [a for a in X if a[0] == "s"]
        left, right = ([a for a in U if a[0] != "s"] for U in (X, Y))
        ops = ((*range(bx), *(bx + X.index(a) for a in left + inner)),
               (N ** len(left), N ** len(inner)),
               (*range(by), *(by + Y.index(a) for a in inner + right)),
               (N ** len(inner), N ** len(right)), (N,) * len(left + right))
        axes = left + right
    rest = [i for i in range(len(sizes)) if ("r", i) not in axes]
    ident = eye(math.prod(sizes[i] for i in rest)).reshape(1, -1)
    ident.flags.writeable = False
    embed = None if two and not rest else (
        b, ident, tuple(sizes[i] for i in rest) * 2)
    axes += [(rc, i) for rc in "rc" for i in rest]
    final = [axes.index(("r", i)) for i in range(len(sizes))] \
        + [axes.index(("c", w)) for w in wire]
    return ops, embed, tuple(range(b)) + tuple(b + a for a in final)


def _matmul(A, B, out):
    """A @ B, into the leading entries of the flat array out unless None."""
    if out is not None:
        shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) \
            + (A.shape[-2], B.shape[-1])
        out = out[:math.prod(shape)].reshape(shape)
    return np.matmul(A, B, out=out)


def site_legs(N, k, *factors, out=None):
    """site_product with its row and column legs apart, over the legs of
    Mat(N)^{x k} (_plan): a transposed view of one matrix product, which
    fills the leading entries of the flat complex array out if given."""
    ops, embed, final = _plan(N, k, tuple(
        (int(s), int(t), None if T is None else np.ndim(T) - 2)
        for T, s, t in factors))
    Ts = [np.reshape(T, np.shape(T)[:-2] + (N,) * 4)
          for T, *_ in factors if T is not None]
    legs = Ts[0] if Ts else np.ones(())
    if len(Ts) == 2:
        X, Y = Ts[0].transpose(ops[0]), Ts[1].transpose(ops[2])
        legs = _matmul(X.reshape(X.shape[:-4] + ops[1]),
                       Y.reshape(Y.shape[:-4] + ops[3]),
                       None if embed else out)
        legs = legs.reshape(legs.shape[:-2] + ops[4])
    if embed:
        b, ident, shape = embed
        legs = _matmul(legs.reshape(legs.shape[:b] + (-1, 1)), ident,
                       out).reshape(legs.shape + shape)
    return legs.transpose(final)


def identity_diagonal(N, k, legs, *factors):
    """The entries of legs, (..., N^k legs, N^k legs) laid out as site_legs
    lays out a product on Mat(N)^{x k}, on which the product of factors,
    one operator T and swaps, can be nonzero: T (x) 1 with its columns
    permuted by the swaps (_plan's wires).  The view has T's legs [..., i_s,
    i_t, j_s, j_t] then one leg per other site, whose column leg is its row
    leg: a writable einsum view (a subscript repeated on one operand), so
    that np.add(view, T, out=view), T broadcast over the last k - 2 axes,
    adds the product into legs with no N^{2k} stack and the bits of adding
    site_legs' stack."""
    wire = list(range(k))
    for T, s, t in factors:
        if T is None:
            wire[s], wire[t] = wire[t], wire[s]
        else:
            sites = (wire[s], wire[t])
    rows, cols = "abcdefghijklm"[:k], "nopqrstuvwxyz"[:k]
    col = [cols[q] if q in sites else rows[q] for q in range(k)]
    rest = "".join(rows[q] for q in range(k) if q not in sites)
    return np.einsum(f"...{rows}{''.join(col[w] for w in wire)}->..."
                     f"{rows[sites[0]]}{rows[sites[1]]}{cols[sites[0]]}"
                     f"{cols[sites[1]]}{rest}", legs)


def site_product(N, k, *factors):
    """The left-to-right product of operators on Mat(N)^{x k}, as an
    (..., N^k, N^k) matrix or stack.

    A factor (T, s, t) is the two-site (..., N^2, N^2) matrix or stack T
    with its first tensor factor on site s and its second on site t, so
    (T, 1, 0) is T_21; (None, s, t) swaps the sites s and t, which only
    relabels legs.  Two operators at most are one batched matrix product
    over the legs they share, times the identity on the other sites.
    """
    out = site_legs(N, k, *factors)
    batch = np.broadcast_shapes(*(np.shape(T)[:-2] for T, *_ in factors
                                  if T is not None))
    return out.reshape(batch + (N ** k,) * 2)


def as_block_grid(A, M, N):
    """(M, M, N, N) view of an NM x NM matrix, or of each of a stack:
    entry [..., i, j] is block (i, j).

    The view shares memory with A; grid.swapaxes(1, 2).reshape(M*N, M*N)
    is A again.
    """
    return A.reshape(A.shape[:-2] + (M, N, M, N)).swapaxes(-3, -2)
