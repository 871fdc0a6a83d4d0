"""Phase space and Lax structure for systems of interacting integrable tops.

The configuration is M particles on the line (positions q_i, momenta p_i)
carrying a gl(NM) spin matrix S arranged as an M x M grid of N x N blocks
S^{ij}.  An R-matrix family supplies all couplings: the Lax pair L(z), M(z),
the Hamiltonian, the equations of motion, the classical dynamical r-matrix
and the reductions (spin Calogero-Moser at N=1, a single top at M=1, the
R-matrix-valued Lax pair of the spinless model).

A PhaseState is one read-only complex phase vector: q, p, then the entries
of the NM x NM spin matrix row by row.  Its q, p and spin matrix are views
of that vector, and PhaseState.split and from_vector alone know the layout;
eom_rhs returns its flow as a vector in the same layout.

Two independent evaluation paths are kept deliberately separate: eom_rhs
implements the printed equations of motion, while bracket_flow derives the
same flow from the Hamiltonian through the linear Poisson-Lie structure
{S^{ij}_{ab}, S^{kl}_{cd}} = S^{kj}_{cb} d^{il} d_{ad} - S^{il}_{ad} d^{kj} d_{bc}
and {p_i, q_j} = d_{ij}.  Their agreement is part of the certification.

Every kernel table is one family call over an array of pair differences:
F^0 and F^0' of the pairs i < j from one r(q, (1, 2)) call per state
(PhaseState.f0_table), and R^z and F^z of a stack of spectral points
against all ordered pairs from one R(z, q, (0, 1)) call (_pair_tables).
The Lax and exchange checks evaluate their points as stacks, in
tensor.chunks whose largest array fits STACK_BYTES; each sample keeps its
own norm and residual.  The layout of a table is written once, in cached
gather plans (_gather_plan).
"""

import cmath
import functools
import json
import math

import numpy as np

from . import specfun as sf
from . import tensor as tn
from .errors import ConstraintViolation, DegenerateDraw, ScaleExceeded
from .rmatrix import FAMILY_KEYS, make_family
from .tensor import (as_block_grid, check_scale, frobenius_norm, matvec4,
                     op_contract, op_contract_1, site_product, stack_norms)


# --- spin configurations ---------------------------------------------------

class SpinConfig:
    """M x M grid of N x N complex blocks.

    The spin is held as one read-only NM x NM matrix ``matrix`` (the
    S = sum E_ij (x) S^{ij} of assemble()).  ``blocks`` may be given as rows
    of blocks or as an (M, M, N, N) array and is kept as the (M, M, N, N)
    view of that matrix, so blocks[i][j] is S^{ij}; wrap holds a read-only
    matrix as it is.  A spin is read-only: setting an attribute raises
    AttributeError.
    """

    def __init__(self, M, N, blocks):
        grid = np.asarray(blocks, dtype=complex).reshape(M, M, N, N)
        S = grid.swapaxes(1, 2).reshape(M * N, M * N).copy()
        S.flags.writeable = False
        self._hold(S, M, N)

    def _hold(self, S, M, N):
        vars(self).update(M=M, N=N, matrix=S, blocks=as_block_grid(S, M, N))

    def __setattr__(self, name, value):
        raise AttributeError(f"a SpinConfig is read-only: cannot set {name!r}")

    @classmethod
    def wrap(cls, S, M, N):
        """The spin whose matrix is the read-only NM x NM complex array S
        itself, with no copy."""
        if S.flags.writeable:
            raise ValueError("a wrapped spin matrix must be read-only")
        spin = object.__new__(cls)
        spin._hold(S, M, N)
        return spin

    def assemble(self):
        """The NM x NM matrix S = sum E_ij (x) S^{ij} (read-only)."""
        return self.matrix

    def traces(self):
        """tr S^ii of every site, from one einsum on first use (read-only)."""
        if "_traces" not in vars(self):
            vars(self)["_traces"] = tr = np.einsum("iikk->i", self.blocks)
            tr.flags.writeable = False
        return self._traces


def spin_from_matrix(S, M, N):
    """The SpinConfig of a copy of the NM x NM matrix S."""
    S = np.array(S, dtype=complex).reshape(M * N, M * N)
    S.flags.writeable = False
    return SpinConfig.wrap(S, M, N)


def spin_rank1(M, N, nu, seed):
    """Random rank-1 spin matrix S^{ij}_{ab} = xi^i_a eta^j_b with
    tr(S^{ii}) = nu exactly (xi^i rescaled by nu / (xi^i . eta^i))."""
    if nu == 0:
        raise ValueError("nu must be nonzero")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        xi = [rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
              for _ in range(M)]
        eta = [rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
               for _ in range(M)]
        dots = [xi[i] @ eta[i] for i in range(M)]
        if all(abs(d) >= 1e-8 for d in dots):
            break
    else:
        raise DegenerateDraw("xi.eta too small after 10 redraws")
    xi = [x * (nu / d) for x, d in zip(xi, dots)]
    blocks = [[np.outer(xi[i], eta[j]) for j in range(M)] for i in range(M)]
    return SpinConfig(M, N, blocks)


def spin_general(M, N, nu, seed):
    """Random full-rank spin matrix with diagonal blocks shifted so that
    tr(S^{ii}) = nu exactly."""
    # one draw, block by block in row-major order, each block's real part
    # and then its imaginary part
    u = np.random.default_rng(seed).uniform(-1, 1, (M, M, 2, N, N))
    blocks = u[:, :, 0] + 1j * u[:, :, 1]
    sites = np.arange(M)
    diagonal = blocks[sites, sites]
    shift = (nu - np.trace(diagonal, axis1=1, axis2=2)) / N
    blocks[sites, sites] = diagonal + shift[:, None, None] * np.eye(N)
    return SpinConfig(M, N, blocks)


# --- phase states ----------------------------------------------------------

class PhaseState:
    """A point (q, p, S) of phase space, held as its phase vector: q, then
    p, then the entries of the NM x NM spin matrix row by row, as one
    read-only complex array ``vector``, of which q, p and spin.matrix are
    views.  split and from_vector own the layout."""

    def __init__(self, q, p, spin, family):
        q, p = (np.asarray(a, dtype=complex).reshape(-1) for a in (q, p))
        if len(q) != spin.M or len(p) != spin.M:
            raise ValueError(f"q and p must hold M = {spin.M} values each")
        self._hold(np.concatenate([q, p, spin.matrix.reshape(-1)]),
                   spin.M, spin.N, family)

    def _hold(self, vec, M, N, family):
        """Make vec, which no one else holds, this state's phase vector."""
        vec.flags.writeable = False
        q, p, S = self.split(vec, M, N)
        # the instance dict directly, as the state is read-only
        vars(self).update(vector=vec, q=q, p=p, family=family,
                          spin=SpinConfig.wrap(S, M, N))

    def __setattr__(self, name, value):
        raise AttributeError(f"a PhaseState is read-only: cannot set {name!r}")

    @staticmethod
    def split(vec, M, N):
        """The views (q, p, S) of a phase vector of M sites of gl(N): of a
        state, or of a flow (dq, dp, dS); S is the NM x NM matrix."""
        return vec[:M], vec[M:2 * M], vec[2 * M:].reshape(M * N, M * N)

    @property
    def M(self):
        return self.spin.M

    @property
    def N(self):
        return self.spin.N

    def qdiff(self, i, j):
        """q_i - q_j, for sites or index arrays i, j."""
        return self.q[i] - self.q[j]

    @functools.cached_property
    def f0_table(self):
        """(i, j, F^0, F^0') over the pairs i < j, from one family call on
        first read; kept, as q is read-only."""
        i, j = sf._pairs(self.M)
        return (i, j) + self.family.r(self.qdiff(i, j), (1, 2))

    def from_vector(self, vec):
        """The state of this family at the phase vector vec, which is copied
        once."""
        state = object.__new__(PhaseState)
        state._hold(np.array(vec, dtype=complex), self.M, self.N, self.family)
        return state


def random_positions(family, M, rng, margin=0.05):
    """Draw M positions with all pairwise differences pole-avoiding."""
    for _ in range(2000):
        q = [sf.sample_point(rng, family.flavor, eps=margin)
             for _ in range(M)]
        diff = np.subtract.outer(q, q)[~np.eye(M, dtype=bool)]
        if np.all(family.pole_distance(diff) > margin):
            return tuple(q)
    raise DegenerateDraw("failed to draw pole-avoiding positions")


def random_state(family, M, nu, seed, spin_mode="general", q=None, p=None):
    """Random constrained phase state for the given family.

    One generator seeded by seed draws the spin's seed, then the positions
    and then the momenta; given positions q or momenta p skip their draw.
    """
    rng = np.random.default_rng(seed)
    if spin_mode == "rank1":
        spin = spin_rank1(M, family.N, nu, rng.integers(2 ** 63))
    elif spin_mode == "general":
        spin = spin_general(M, family.N, nu, rng.integers(2 ** 63))
    else:
        raise ValueError(f"unknown spin_mode {spin_mode!r}")
    if q is None:
        q = random_positions(family, M, rng)
    if p is None:
        p = rng.uniform(-1, 1, M) + 1j * rng.uniform(-1, 1, M)
    return PhaseState(q, p, spin, family)


def _require_constraints(state):
    tr = state.spin.traces()
    if abs(tr - tr[0]).max() > 1e-8:
        raise ConstraintViolation(
            "tr(S^ii) must equal a common constant on all sites")


# --- contraction helpers ---------------------------------------------------

@functools.lru_cache(maxsize=16)
def _ordered_pairs(M):
    """The site pairs i != j in row-major order, as two read-only index
    arrays."""
    i, j = np.nonzero(~np.eye(M, dtype=bool))
    i.flags.writeable = j.flags.writeable = False
    return i, j


@functools.lru_cache(maxsize=16)
def _block_positions(M, N):
    """The flat positions of the blocks of an NM x NM matrix, (M^2, N, N):
    S^{ii} of each site, then S^{ij} of each pair i < j, then S^{ji}, as
    one read-only int array."""
    i, j = sf._pairs(M)
    sites = np.arange(M)
    grid = as_block_grid(np.arange((M * N) ** 2).reshape(M * N, M * N), M, N)
    pos = grid[np.concatenate([sites, i, j]), np.concatenate([sites, j, i])]
    pos.flags.writeable = False
    return pos


def _block_stacks(spin):
    """(S^{ii}, S^{ij}, S^{ji}) over the sites and the pairs i < j, as
    three contiguous stacks from one gather."""
    M = spin.M
    X = spin.matrix.take(_block_positions(M, spin.N))
    return X[:M], X[M:(M * M + M) // 2], X[(M * M + M) // 2:]


def _swap_rows(F):
    """P F for a stack F of N^2 x N^2 matrices: F with the two factors of
    its row index swapped, the same values as the product with P."""
    n = F.shape[-1]
    N = math.isqrt(n)
    return F.reshape(-1, N, N, n).swapaxes(1, 2).reshape(-1, n, n)


def _pair_traces(W, A, B):
    """tr(W[p] (A[p] (x) B[p])) for every p, from stacks W of N^2 x N^2
    and A, B of N x N matrices: each product and trace as for one pair."""
    n = W.shape[-1]
    AB = A[:, :, None, :, None] * B[:, None, :, None, :]
    return (W @ AB.reshape(-1, n, n)).trace(axis1=1, axis2=2)


def hamiltonian(state):
    """H = sum p^2/2 + top terms + the pair potentials
    U_ij = tr_12(P_12 F^0_12(q_ij) S^ij_1 S^ji_2), with F^0 for every pair
    i < j from the state's f0_table."""
    fam, p = state.family, state.p
    Sd, A, B = _block_stacks(state.spin)
    # the top terms tr(S^ii J(S^ii)) / 2 of every site, with the inverse
    # inertia tensor J(S) = tr_2(m_12(0) S_2) from one m0 read
    tops = (Sd @ op_contract(fam.m0(), Sd)).trace(axis1=1, axis2=2)
    U = _pair_traces(_swap_rows(state.f0_table[2]), A, B)
    # p_i^2 from the parts of p_i, each product and the difference rounded
    # on its own as in a product of two numbers (numpy's product of complex
    # arrays may fuse a multiply and an add, which rounds otherwise)
    squares = np.empty_like(p)
    squares.real = p.real * p.real - p.imag * p.imag
    squares.imag = 2.0 * (p.real * p.imag)
    # running sums: the kinetic term (sum p_i^2) / 2, then the top terms
    # site by site, then the pair terms in the order i < j
    kinetic = 0.5 * np.add.accumulate(squares)[-1]
    terms = np.concatenate([[kinetic], 0.5 * tops, U])
    return complex(np.add.accumulate(terms)[-1])


# --- per-pair kernel tables ------------------------------------------------

def _gather_plan(shape, fill, writes):
    """Read-only positions in a flat source of T pair tables of the shape
    (T, M, M, N, N, N, N), as (T, M^2, N^2, N^2): per pair (i, j) the
    (a, b) x (l, k) matrix of a source matrix's entries [(a, k), (l, b)],
    at the positions X[..., a, k, l, b] of each (t, i, j, X) of writes and
    fill elsewhere."""
    plan = np.full(shape, fill)
    tables = plan.swapaxes(-3, -1)
    for t, i, j, X in writes:
        tables[t, i, j] = X
    M, N = shape[1], shape[3]
    plan = plan.reshape(shape[0], M * M, N * N, N * N)
    plan.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=16)
def _pair_plan(M, N):
    """A _pair_tables gather from [ordered pairs' stack, diagonal]."""
    i, j = _ordered_pairs(M)
    sites = np.arange(M)
    X = np.arange((len(i) + 1) * N ** 4).reshape(-1, N, N, N, N)
    return _gather_plan((1, M, M) + (N,) * 4, 0, [(0, i, j, X[:-1]),
                                                  (0, sites, sites, X[-1])])[0]


def _pair_tables(state, z):
    """Kernel tables (R, F) at the spectral point z, (M, M, N, N, N, N), or
    a stack of them, z.shape + (M, M, N, N, N, N), at an array z:
    R[..., i, j, a, k, l, b] = R^z(q_ij)_{(a,k),(l,b)} and F the same of
    F^z(q_ij), from one R(z, q, (0, 1)) call over all ordered pairs, and on
    the diagonal their q -> 0 coefficients r(z) P and m(z) P, from one
    Rz_coefficients call.  Each is one gather (_pair_plan) into memory in
    the order [..., i, j, a, b, l, k], per block the (a, b) x (l, k) matrix
    that _contract multiplies in place, seen through swapaxes(-3, -1)."""
    fam = state.family
    M, N = state.M, state.N
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    i, j = _ordered_pairs(M)
    # an array of spectral points takes one more axis, for the pairs
    off = list(fam.R(z[..., None] if shape else z, state.qdiff(i, j), (0, 1)))
    tables = []
    for diagonal in fam.Rz_coefficients(z):
        # each family stack is dropped once copied, so that the two tables
        # and the two stacks are never held at once
        source = np.concatenate([off.pop(0).reshape(shape + (-1,)),
                                 diagonal.reshape(shape + (-1,))], axis=-1)
        tables.append(np.take(source, _pair_plan(M, N), axis=-1).reshape(
            shape + (M, M) + (N,) * 4).swapaxes(-3, -1))
    return tuple(tables)


def _contract(T, S):
    """The NM x NM matrix with blocks tr_2(S^{ij}_2 T[i, j] P_12), entry
    [i, a, j, b] = sum_kl T[i, j, a, k, l, b] S^{ij}_{lk}, or the stack of
    them for a stack of tables T laid out as by _pair_tables (matvec4)."""
    M, N = T.shape[-6], T.shape[-4]
    out = matvec4(T.swapaxes(-3, -1), as_block_grid(S, M, N))
    return out.swapaxes(-3, -2).reshape(T.shape[:-6] + (M * N, M * N))


def _plus_diagonal(A, d):
    """A, or each matrix of a stack A, plus d_i 1 on its diagonal blocks, in
    place."""
    n = A.shape[-1]
    k = np.arange(n)
    A[..., k, k] += np.repeat(d, n // len(d))
    return A


# --- Lax pair --------------------------------------------------------------

def _lax_L(state, R):
    """L(z) from the R table of z, or the stack of L from a stack of
    tables."""
    return _plus_diagonal(_contract(R, state.spin.matrix), state.p)


# --- equations of motion (printed form) ------------------------------------

@functools.lru_cache(maxsize=16)
def _eom_plan(M, N):
    """The gather of eom_rhs's F^0 and F^0' tables from [F^0, F^0', -F^0',
    m(0), 0] of the pairs i < j (each flattened): the pairs i < j, their
    mirrors j, i (F^0(-q) = P F^0(q) P and F^0'(-q) = -P F^0'(q) P, P
    swapping the two tensor factors), m(0) P on the diagonal of the F^0
    table, which gives K^{ii} = J(S^{ii}), and 0 elsewhere."""
    i, j = sf._pairs(M)
    size = len(i) * N ** 4
    X = np.arange(2 * size).reshape(2, -1, N, N, N, N)
    # the mirror pairs read the factors swapped, F^0' from -F^0'
    mirror = (X + np.array([0, size]).reshape(2, 1, 1, 1, 1, 1)).transpose(
        0, 1, 3, 2, 5, 4)
    sites = np.arange(M)
    m0 = (3 * size + np.arange(N ** 4)).reshape((N,) * 4).swapaxes(-2, -1)
    return _gather_plan((2, M, M) + (N,) * 4, 3 * size + N ** 4, [
        (slice(None), i, j, X), (slice(None), j, i, mirror),
        (0, sites, sites, m0)])


def eom_rhs(state):
    """Right-hand side of the flow, as one phase vector (dq, dp, dS in the
    layout of PhaseState.split).

    The printed equations are together dS = S K - K S on NM x NM matrices,
    with K^{ij} = tr_2(F^0_12(q_ij) P_12 S^{ij}_2) for i != j and
    K^{ii} = J(S^{ii}) = tr_2(m_12(0) S^{ii}_2).
    dp_i = -sum_k tr_12(P F^0'(q_ik) S^{ik}_1 S^{ki}_2) is the trace of the
    block (i, i) of K' S, K' being K with F^0' for F^0 and 0 on the
    diagonal; dq = p.

    F^0 and F^0' are the state's f0_table (whose pole guard covers q_ji,
    the pole set being symmetric); K and K' are one gather (_eom_plan) and
    one batched product with the spin's blocks, as _contract forms them.
    """
    spin = state.spin
    M, N = spin.M, spin.N
    _require_constraints(state)
    _, _, F0, dF0 = state.f0_table
    source = np.concatenate((F0, dF0, -dF0, state.family.m0(), [0]),
                            axis=None)
    S = spin.matrix
    KK = source[_eom_plan(M, N)] @ spin.blocks.reshape(M * M, N * N, 1)
    K, Kd = KK.reshape(2, M, M, N, N).swapaxes(2, 3).reshape(2, M * N, M * N)
    out = np.empty_like(state.vector)
    dq, dp, dS = PhaseState.split(out, M, N)
    dq[...] = state.p
    np.matmul(S, K, out=dS)
    dS -= K @ S
    np.negative(np.einsum("iaia->i", (Kd @ S).reshape(M, N, M, N)), out=dp)
    return out


# --- Poisson-bracket oracle ------------------------------------------------

def _ham_spin_gradient(state, blocks, W):
    """Entrywise gradient G of H with respect to the big spin matrix,
    computed analytically from the bilinear contraction forms; blocks are
    the stacks of _block_stacks and W[p] is P F^0(q_ij) for the pair
    i[p] < j[p]."""
    fam, M, N = state.family, state.M, state.N
    m0 = fam.m0()
    Sd, A, B = blocks
    # the blocks G^{ii}, G^{ij} and G^{ji} of every site and pair i < j, each
    # transposed, put in place by one scatter
    tops = 0.5 * (op_contract(m0, Sd) + op_contract_1(m0, Sd))
    terms = np.concatenate([tops, op_contract(W, B), op_contract_1(W, A)])
    G = np.empty((M * N, M * N), dtype=complex)
    G.reshape(-1)[_block_positions(M, N).swapaxes(1, 2)] = terms
    return G


def _ham_q_gradient(M, blocks, Wd):
    """dH/dq_s, analytic through Wd[p] = P d/dq F^0(q_ij) for the pair
    i[p] < j[p]: pair p adds g_p to site i[p] and -g_p to site j[p]."""
    i, j = sf._pairs(M)
    g = _pair_traces(Wd, blocks[1], blocks[2])
    signed = np.zeros((M, M), dtype=complex)
    signed[i, j] = g
    signed[j, i] = -g
    # each site adds up its pairs in the order of the other site, which is
    # the order of the pairs i < j: a running sum along its row
    return np.add.accumulate(signed, axis=1)[:, -1]


def bracket_flow(state):
    """Hamiltonian flow {H, .} through the linear Poisson-Lie brackets.

    Returns the full derivative (dq, dp, dS) as a brute-force oracle for
    eom_rhs: dq = p, dp = -dH/dq, and the spin flow dS = [S, G^T] with G
    the entrywise spin gradient of H.  F^0 and its q-derivative are the
    state's f0_table.  dq (the state's read-only p) and dp are length-M
    arrays; dS is the (M, M, N, N) block view of the NM x NM derivative.
    """
    _, _, F0, dF0 = state.f0_table
    _require_constraints(state)
    S, blocks = state.spin.matrix, _block_stacks(state.spin)
    Gt = _ham_spin_gradient(state, blocks, _swap_rows(F0)).T
    dS = S @ Gt - Gt @ S
    dp = -_ham_q_gradient(state.M, blocks, _swap_rows(dF0))
    return state.p, dp, as_block_grid(dS, state.M, state.N)


def _flow_L(R, Mz, flow):
    """{H, L(z)} by the chain rule from the bracket-side flow and a stack of
    R tables: the spin flow through R, the momenta on the diagonal, and the
    positions through dL^{ij}/dq_i = tr_2(S^ij_2 F^z_12(q_ij) P_12), which
    is the off-diagonal block M^{ij}(z) of the stack Mz."""
    dq, dp, dS = flow
    M, N = R.shape[-6], R.shape[-4]
    out = _contract(R, dS.swapaxes(1, 2).reshape(M * N, M * N))
    weight = (dq[:, None] - dq[None, :])[:, None, :, None]
    out += (weight * Mz.reshape(-1, M, N, M, N)).reshape(out.shape)
    return _plus_diagonal(out, dp)


def _lax_stack(state, zs, flow):
    """(L, residuals) of lax_check at an array zs of points, from one stack
    of pair tables."""
    R, F = _pair_tables(state, zs)
    Mz = _contract(F, state.spin.matrix)
    # each table is dropped once read, so that the stack holds one at a time
    del F
    L = _lax_L(state, R)
    lhs = _flow_L(R, Mz, flow)
    del R
    rhs = L @ Mz - Mz @ L
    scale = np.maximum(np.maximum(stack_norms(lhs), stack_norms(rhs)), 1.0)
    return L, stack_norms(lhs - rhs) / scale


def lax_check(state, zs):
    """(L(z), relative residual of {H, L(z)} = [L(z), M(z)]) at every z of
    the sequence zs, as a stack of L and an array of residuals, from one
    bracket_flow.

    The points go in tensor.chunks of M^2 N^4 entries (one table) within
    STACK_BYTES: L, M and {H, L} of a chunk are contractions over one stack
    of pair tables (_lax_stack), and each point gets its own norms."""
    flow = bracket_flow(state)
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    M, N = state.M, state.N
    Ls = np.empty((len(zs), M * N, M * N), dtype=complex)
    residuals = np.empty(len(zs))
    for chunk in tn.chunks(len(zs), M * M * N ** 4, tn.STACK_BYTES):
        Ls[chunk], residuals[chunk] = _lax_stack(state, zs[chunk], flow)
    return Ls, residuals


# --- classical exchange relation ------------------------------------------

# Both sides of the exchange relation vanish off the entries
# [i, k, a, c, j, l, b, d] (primed factors first) with l = i or k = j, so
# each side of a pair (z, w) is held as one (2, M, M, M, N, N, N, N) stack
# of two planes: plane 0 is l = i, indexed [i, k, j, a, c, b, d], and
# plane 1 is k = j, indexed [k, i, l, a, c, b, d].  Their overlap l = i,
# k = j is kept in plane 1 (_fold_overlap), so that every entry is held
# once.  A stack of pairs puts one more axis, for the pairs, in front.

# a diagonal of a plane stack is taken as a writable einsum view, which
# numpy returns for a subscript repeated on one operand: no copy, unlike
# indexing with index arrays


def _fold_overlap(X):
    """Add the overlap of plane 0 (l = i, k = j) into plane 1 and zero it
    there, in place, for a stack X of plane pairs: plane 1 [k, i, i] takes
    plane 0 [i, k, k]."""
    overlap = np.einsum("nikk...->nki...", X[:, 0])
    np.einsum("nkii...->nki...", X[:, 1])[...] += overlap
    overlap[...] = 0
    return X


def _q_derivatives(state, F):
    """D[..., i, a, j, b] = tr_2(S^ij_2 F_12(q_ij) P_12)_{ab} off the
    diagonal blocks and 0 on them, from a stack of F tables: the
    q-derivatives dL^{ij} / dq_i = -dL^{ij} / dq_j of L."""
    M, N = state.M, state.N
    D = _contract(F, state.spin.matrix).reshape(F.shape[:-6] + (M, N, M, N))
    np.einsum("...iaib->...iab", D)[...] = 0
    return D


def _exchange_lhs(state, R, D):
    """{L_{1'1}(z), L_{2'2}(w)} by the Poisson-bracket oracle on the support
    planes, one plane pair per pair (z, w), from the R tables R[:, 0] of z
    and R[:, 1] of w and the q-derivatives D[:, 0] of L(z) and D[:, 1] of
    L(w) (_q_derivatives)."""
    M, N = state.M, state.N
    S4 = state.spin.matrix.reshape(M, N, M, N)
    # gradients dL^{ij}_{ab}(z) / dS^{ij}_{xy} = A[i, j, a, y, b, x] (B at w)
    A, B = R[:, 0].swapaxes(-2, -1), R[:, 1].swapaxes(-2, -1)
    D1, D2 = D[:, 0], D[:, 1]
    n = len(A)
    out = np.empty((n, 2, M, M, M, N, N, N, N), dtype=complex)
    P0, P1 = out[:, 0], out[:, 1]
    # spin sector, {S^ij_xy, S^kl_vw} = S^kj_vy d^il d_xw - S^il_xw d^kj d_yv:
    # the w table with the spin first, then the z table, each a batched
    # matrix product, so that every sample sums as it would alone
    # A[n, i, j, a, y, b, x] as [n, i, j, (a, b), (x, y)]
    Az = A.transpose(0, 1, 2, 3, 5, 6, 4).reshape(n, M, M, N * N, N * N)
    # plane 0: B S at [n, k, (i, c, x, d), (j, y)], summed over v, then
    # with A over (x, y) at [n, i, j, (a, b), (k, c, d)]
    BS = B.reshape(n, M, M * N ** 3, N) @ S4.reshape(M, N, M * N)
    # rebound once transposed, so that one copy is held at a time
    BS = BS.reshape(n, M, M, N, N, N, M, N).transpose(0, 2, 6, 4, 7, 1, 3, 5) \
        .reshape(n, M, M, N * N, M * N * N)
    P0[...] = (Az @ BS).reshape(n, M, M, N, N, M, N, N).transpose(
        0, 1, 5, 2, 3, 6, 4, 7)
    # plane 1: B (-S) at [n, j, l, (c, d, y), (i, x)], summed over w, then
    # with A over (x, y) at [n, i, j, (a, b), (l, c, d)]
    BS = B.transpose(0, 1, 2, 3, 5, 6, 4).reshape(n, M, M, N ** 3, N) \
        @ -S4.transpose(2, 3, 0, 1).reshape(M, N, M * N)
    BS = BS.reshape(n, M, M, N, N, N, M, N).transpose(0, 6, 1, 7, 5, 2, 3, 4) \
        .reshape(n, M, M, N * N, M * N * N)
    P1[...] = (Az @ BS).reshape(n, M, M, N, N, M, N, N).transpose(
        0, 2, 1, 5, 3, 6, 4, 7)
    # canonical sector, {p_i, q_k} = d_ik: p_i on L^{ii}(z) meets q_i in
    # L^{il}(w) (i = j = k) and L^{ki}(w) (l = i = j), and p_k on L^{kk}(w)
    # meets q_k in L^{kj}(z) (k = l = i) and L^{ik}(z) (j = k = l); each is
    # a q-derivative times a unit factor, added on that factor's diagonal
    np.einsum("nkklacad->nklacd", P1)[...] += \
        D2.transpose(0, 1, 3, 2, 4)[:, :, :, None]
    np.einsum("nikiacad->nikacd", P0)[...] -= \
        D2.transpose(0, 3, 1, 2, 4)[:, :, :, None]
    np.einsum("niijacbc->nijacb", P0)[...] -= \
        D1.transpose(0, 1, 3, 2, 4)[:, :, :, :, None]
    np.einsum("nkikacbc->nkiacb", P1)[...] += \
        D1.transpose(0, 3, 1, 2, 4)[:, :, :, :, None]
    return _fold_overlap(out)


def _trace_weight(state):
    """tr S^ii - tr S^jj at [i, j], broadcast against a pair table."""
    tr = state.spin.traces()
    return (tr[:, None] - tr[None, :])[:, :, None, None, None, None]


def _dr_overlap(state, F):
    """The overlap blocks of dr = sum_k tr(S^kk) d_{q_k} r(z, w), from the F
    table of z - w (or a stack of them): W[..., k, i] is its plane-1 entry
    [k, i, i], and dr is zero elsewhere."""
    return (_trace_weight(state) * F).swapaxes(-6, -5).swapaxes(-2, -1)


def _exchange_rhs(state, R, buf):
    """The commutator terms of the exchange relation's r-matrix side at a
    stack of pairs, from the R tables stacked at [pair, (z, w, z - w,
    w - z)]: yields -c1, then c2, on the support planes, each written into
    buf (so c1 is read before c2 is asked for); the residual is
    {L_{1'1}(z), L_{2'2}(w)} - c1 + c2 + dr, with dr on the overlap
    (_dr_overlap).

    c1 = [L_{1'1}(z), r(z, w)], c2 = [L_{2'2}(w), r_{2'1'21}(w, z)] and
    dr = sum_k tr(S^kk) d_{q_k} r(z, w).  r(z, w) is nonzero only on the
    blocks E_ij x E_ji, where it is G[i, j] = R^{z-w}(q_ij) P (r(z - w) on
    i = j), and so is r_{2'1'21}(w, z), there H[i, j], its w - z table with
    both factor pairs swapped: dr lies on the overlap, and each product with
    L(z) x 1 or 1 x L(w) lands on one plane (_site_products)."""
    M, N = state.M, state.N
    n = len(R)
    Lz, Lw = (_lax_L(state, R[:, k]).reshape(n, M, N, M, N) for k in (0, 1))
    # the memory of the z - w and w - z tables: G[n, i, j, a, k, b, l] is
    # X[n, i, j, a, b, l, k] and H[n, i, j, a, k, b, l] Y[n, j, i, k, l, b, a]
    X, Y = R[:, 2].swapaxes(-3, -1), R[:, 3].swapaxes(-3, -1)
    P0, P1 = buf[:, 0], buf[:, 1]
    # plane 0 of c1 at k: sum_y Lz[n, k, y, j, b] G[n, s, k, a, c, y, d]
    _site_products(P0, 2, Lz.transpose(0, 1, 3, 4, 2),
                   X.transpose(0, 2, 4, 1, 3, 6, 5), (0, 2, 5, 1, 3, 4, 6))
    # plane 1 of c1 at l: -sum_y Lz[n, i, a, l, y] G[n, l, s, y, c, b, d]
    _site_products(P1, 3, -Lz.transpose(0, 3, 1, 2, 4),
                   X.transpose(0, 1, 3, 2, 4, 5, 6), (0, 2, 3, 1, 5, 6, 4))
    yield _fold_overlap(buf)
    # plane 0 of c2 at j: sum_y Lw[n, k, c, j, y] H[n, s, j, a, y, b, d]
    _site_products(P0, 3, Lw.transpose(0, 3, 1, 2, 4),
                   Y.transpose(0, 1, 3, 2, 4, 5, 6), (0, 2, 4, 1, 6, 5, 3))
    # plane 1 of c2 at i: -sum_y Lw[n, i, y, l, d] H[n, i, s, a, c, b, y]
    _site_products(P1, 2, -Lw.transpose(0, 1, 3, 4, 2),
                   Y.transpose(0, 2, 4, 1, 3, 5, 6), (0, 2, 6, 1, 4, 5, 3))
    yield _fold_overlap(buf)


def _site_products(plane, axis, A, B, axes):
    """Write sum_y A[:, t, ..., y] B[:, t, y, ...] into the slice t of a plane
    stack on axis, for every site t, axes listing the slice's axes in the
    order of the product's: one batched matrix product per site, so that no
    temporary outgrows a slice of the plane."""
    n, M = A.shape[:2]
    A, B = A.reshape(n, M, -1, A.shape[-1]), B.reshape(n, M, B.shape[2], -1)
    for t in range(M):
        dest = plane[(slice(None),) * axis + (t,)].transpose(axes)
        dest[...] = (A[:, t] @ B[:, t]).reshape(dest.shape)


def _exchange_residuals(state, points):
    """exchange_residual at the pairs of points[k] = (z, w, z - w, w - z),
    from one stack of their pair tables."""
    R, F = _pair_tables(state, points)
    # the F tables enter through dL/dq at z and w and the dr blocks alone,
    # which are formed first, so that F is dropped before the planes
    D, W = _q_derivatives(state, F[:, :2]), _dr_overlap(state, F[:, 2])
    del F
    lhs = _exchange_lhs(state, R, D)
    scale = np.maximum(np.maximum(stack_norms(lhs), stack_norms(W)), 1.0)
    # the residual forms in place on the bracket side: dr on the overlap,
    # then the commutator terms in turn
    np.einsum("nkii...->nki...", lhs[:, 1])[...] += W
    for term in _exchange_rhs(state, R, np.empty_like(lhs)):
        scale = np.maximum(scale, stack_norms(term))
        lhs += term
    return np.abs(lhs).reshape(len(lhs), -1).max(axis=1) / scale


def exchange_residual(state, z, w):
    """Max relative residual of the classical exchange relation
    {L_{1'1}(z), L_{2'2}(w)} = [L_{1'1}(z), r] - [L_{2'2}(w), r_{2'1'21}]
    - sum_k tr(S^kk) d_{q_k} r on its two support planes, at the pair
    (z, w) of numbers (a float), or at each pair of the broadcast of two
    arrays z, w (an array of that shape).

    The pairs go in tensor.chunks of 2 M^3 N^4 entries, those of one pair's
    support planes, within STACK_BYTES; a chunk reads the pair tables of
    its z, w, z - w and w - z from one stack: one R(z, q, (0, 1)) and one
    Rz_coefficients call."""
    M, N = state.M, state.N
    entries = 2 * M ** 3 * N ** 4
    check_scale(entries, f"the exchange relation at N = {N}, M = {M}")
    _require_constraints(state)
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex),
                               np.asarray(w, dtype=complex))
    points = np.stack([z, w, z - w, w - z], axis=-1).reshape(-1, 4)
    out = np.empty(len(points))
    for chunk in tn.chunks(len(points), entries, tn.STACK_BYTES):
        out[chunk] = _exchange_residuals(state, points[chunk])
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


# --- R-matrix-valued Calogero-Moser Lax pair -------------------------------

def _cm_rmx(q, p, nu, family, z):
    """(L, Mbar, F, G) of the R-matrix-valued Calogero-Moser Lax pair:
    F[k] is F^z(q_ij) at the sites (i, j) = (i[k], j[k]) of the ordered
    pairs (_ordered_pairs), from the R(z, q, (0, 1)) call that gives L, and
    G[k] is F^0(q_kl) at the sites of the pair k < l, from one r(q, 1) call;
    both are embedded in Mat(N)^{x M}.  F^0(q_lk) at the sites (l, k) is
    G[k] too, since F^0(-q) = P F^0(q) P."""
    q = np.array(q, dtype=complex)
    p = np.array(p, dtype=complex)
    M = len(q)
    N = family.N
    if N ** M > 256:
        raise ScaleExceeded(f"chain dimension N^M = {N ** M} exceeds 256")
    i, j = _ordered_pairs(M)
    R, F = family.R(z, q[i] - q[j], (0, 1))
    k, l = sf._pairs(M)
    G = _site_pair_stack(family.r(q[k] - q[l], 1), k, l, N, M)
    R, F = (_site_pair_stack(T, i, j, N, M) for T in (R, F))
    L = _cm_blocks(p[:, None, None] * np.eye(N ** M), i, j, nu * R)
    # the diagonal of Mbar is -nu sum_{b != a} F^0(q_ab) at the sites (a, b)
    D = np.array([-G[(k == a) | (l == a)].sum(axis=0) for a in range(M)])
    Mbar = _cm_blocks(nu * D, i, j, nu * F)
    return L, Mbar, F, G


def _site_pair_stack(T, a, b, N, M):
    """Each T[k] at the chain sites (a[k], b[k]) of Mat(N)^{x M}."""
    out = [site_product(N, M, (t, s, u)) for t, s, u in zip(T, a, b)]
    return np.array(out).reshape(-1, N ** M, N ** M)


def _cm_blocks(diagonal, i, j, off):
    """The block matrix with these diagonal blocks and the blocks off[k] at
    (i[k], j[k])."""
    M, dim = len(diagonal), diagonal.shape[-1]
    out = np.zeros((M, dim, M, dim), dtype=complex)
    sites = np.arange(M)
    out[sites, :, sites, :] = diagonal
    out[i, :, j, :] = off
    return out.reshape(M * dim, M * dim)


def cm_rmx_residual(q, p, nu, family, z):
    """Relative residual of {H^CM, L} + [nu F0, L] = [L, Mbar], where H^CM
    is the spinless Calogero-Moser Hamiltonian and the bracket uses only
    the canonical (p, q) structure."""
    L, Mbar, F, G = _cm_rmx(q, p, nu, family, z)
    q = np.array(q, dtype=complex)
    p = np.array(p, dtype=complex)
    M = len(q)
    i, j = _ordered_pairs(M)
    F0big = np.kron(np.eye(M), G.sum(axis=0))

    # {H, L}: dL/dq_m weighted by p_m, minus dH/dq_m times dL/dp_m, with
    # dH/dq_a = -nu^2 sum_{b != a} E2'(q_a - q_b)
    e2p = sf.eisenstein_E2_prime(family.flavor, q[i] - q[j])
    dH = -nu * nu * np.array([e2p[i == a].sum() for a in range(M)])
    flow = _cm_blocks(-dH[:, None, None] * np.eye(family.N ** M), i, j,
                      (nu * (p[i] - p[j]))[:, None, None] * F)

    c0 = nu * (F0big @ L - L @ F0big)
    rhs = L @ Mbar - Mbar @ L
    scale = max(frobenius_norm(flow), frobenius_norm(c0),
                frobenius_norm(rhs), 1.0)
    return frobenius_norm(flow + c0 - rhs) / scale


# --- model configuration ---------------------------------------------------

def _as_complex(value, field):
    try:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise TypeError
        z = complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {field!r} must be a [re, im] pair") from None
    if not cmath.isfinite(z):
        raise ValueError(f"field {field!r} must be finite")
    return z


def _as_int(cfg, field, default):
    value = cfg.get(field, default)
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {field!r} must be an integer") from None


def _complex_list(cfg, field, M, what):
    values = cfg[field]
    if not (isinstance(values, (list, tuple)) and len(values) == M):
        raise ValueError(f"field {field!r} must list M {what}")
    return tuple(_as_complex(v, field) for v in values)


def load_model_config(cfg):
    """Build (family, PhaseState, nu) from the model configuration mapping.

    Schema: {family, N, M, tau?, C?, nu, spin_mode, seed, q0?, p0?}; complex
    values as [re, im] pairs.  Raises ValueError naming the offending field.
    """
    if isinstance(cfg, str):
        with open(cfg) as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("the model configuration must be a JSON object")
    kind = cfg.get("family")
    if kind not in FAMILY_KEYS:
        raise ValueError(f"field 'family' must be one of {FAMILY_KEYS}")
    N = _as_int(cfg, "N", 2)
    M = _as_int(cfg, "M", 2)
    if N < 1 or M < 1:
        raise ValueError("fields 'N' and 'M' must be positive integers")
    tau = _as_complex(cfg["tau"], "tau") if "tau" in cfg else None
    C = _as_complex(cfg["C"], "C") if "C" in cfg else None
    nu_raw = cfg.get("nu")
    if nu_raw is None:
        raise ValueError("field 'nu' is required")
    if isinstance(nu_raw, (list, tuple)) and nu_raw \
            and isinstance(nu_raw[0], (list, tuple)):
        values = [_as_complex(v, "nu") for v in nu_raw]
        if any(abs(v - values[0]) > 0 for v in values[1:]):
            raise ValueError(
                "field 'nu': per-site traces must be equal; the Lax pair "
                "requires the constraint tr(S^ii) = nu on every site")
        nu = values[0]
    else:
        nu = _as_complex(nu_raw, "nu")
    spin_mode = cfg.get("spin_mode", "general")
    if spin_mode not in ("rank1", "general"):
        raise ValueError("field 'spin_mode' must be 'rank1' or 'general'")
    seed = _as_int(cfg, "seed", 0)
    if seed < 0:
        raise ValueError("field 'seed' must be a non-negative integer")

    family = make_family(kind, N=N, tau=tau, C=C)
    check_scale(M * M * family.N ** 4,
                f"a pair table at N = {family.N}, M = {M}")
    q = _complex_list(cfg, "q0", M, "positions") if "q0" in cfg else None
    p = _complex_list(cfg, "p0", M, "momenta") if "p0" in cfg else None
    state = random_state(family, M, nu, seed, spin_mode, q, p)
    return family, state, nu
