"""Phase space and Lax structure for systems of interacting integrable tops.

The configuration is M particles on the line (positions q_i, momenta p_i)
carrying a gl(NM) spin matrix S arranged as an M x M grid of N x N blocks
S^{ij}.  An R-matrix family supplies all couplings: the Lax pair L(z), M(z),
the Hamiltonian, the equations of motion, the classical dynamical r-matrix
and the reductions (spin Calogero-Moser at N=1, a single top at M=1, the
R-matrix-valued Lax pair of the spinless model).

Two independent evaluation paths are kept deliberately separate: eom_rhs
implements the printed equations of motion, while bracket_flow derives the
same flow from the Hamiltonian through the linear Poisson-Lie structure
{S^{ij}_{ab}, S^{kl}_{cd}} = S^{kj}_{cb} d^{il} d_{ad} - S^{il}_{ad} d^{kj} d_{bc}
and {p_i, q_j} = d_{ij}.  Their agreement is part of the certification.

eom_rhs writes the spin flow as one commutator dS = [S, K] of NM x NM
matrices.  Pairs couple only through F^0(q_ij) and its q-derivative, each
evaluated once per pair i < j; the skew-symmetry r_12(z) = -r_21(-z) gives
the mirror pair, F^0(-q) = P F^0(q) P and F^0'(-q) = -P F^0'(q) P.

The Lax side reads one kernel table per spectral point z (_pair_tables):
L(z), M(z), {H, L(z)}, the exchange oracle and the dynamical r-matrix are
contractions over R^z(q_ij) and F^z(q_ij), with r(z) P and m(z) P on the
diagonal.

Every table is one family call over an array of pair differences: eom_rhs,
bracket_flow and hamiltonian take F^0 and F^0' of all pairs i < j from one
F0_with_derivative call, and a pair table takes R^z and F^z of all ordered
pairs from one R_with_F call.

The exchange check reads the tables of z, w, z - w and w - z as one stack
from one R_with_F and one Rz_coefficients call.  Its r-matrix side is
block-sparse: r(z, w) and r_{2'1'21}(w, z) are nonzero only on the blocks
E_ij x E_ji, so each commutator with L(z) x 1 or 1 x L(w) is a pair of
scatter-adds of small contractions, with no dense matrix product.
"""

import cmath
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import specfun as sf
from .errors import ConstraintViolation, DegenerateDraw, ScaleExceeded
from .rmatrix import FAMILY_KEYS, make_family
from .tensor import (as_four_index, block_grid, check_scale, commutator,
                     frobenius_norm, kron, op_contract, op_contract_1,
                     permutation_P)


# --- spin configurations ---------------------------------------------------

@dataclass(frozen=True)
class SpinConfig:
    """M x M grid of N x N complex blocks, with optional rank-1 generators.

    The spin is held as one read-only NM x NM matrix ``matrix`` (the
    S = sum E_ij (x) S^{ij} of assemble()).  ``blocks`` may be given as rows
    of blocks or as an (M, M, N, N) array and is kept as the (M, M, N, N)
    view of that matrix, so blocks[i][j] is S^{ij}.
    """

    M: int
    N: int
    blocks: object
    xi: tuple = None       # rank-1 generators, one N-vector per site
    eta: tuple = None
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M, N = self.M, self.N
        grid = np.asarray(self.blocks, dtype=complex).reshape(M, M, N, N)
        S = grid.swapaxes(1, 2).reshape(M * N, M * N).copy()
        S.flags.writeable = False
        object.__setattr__(self, "matrix", S)
        object.__setattr__(self, "blocks", block_grid(S, M, N))

    def block(self, i, j):
        return self.blocks[i, j]

    def assemble(self):
        """The NM x NM matrix S = sum E_ij (x) S^{ij} (read-only)."""
        return self.matrix

    def traces(self):
        return np.einsum("iikk->i", self.blocks)

    def on_constraints(self, nu, tol=1e-12):
        return bool(np.all(np.abs(self.traces() - nu) < tol))

    def is_rank1(self):
        return self.xi is not None

    def replace_blocks(self, blocks):
        """New spin with these blocks; the rank-1 generators are dropped,
        since they need not generate the new blocks."""
        return SpinConfig(self.M, self.N, blocks)


def spin_from_matrix(S, M, N):
    """Block-decompose an NM x NM matrix into a SpinConfig."""
    return SpinConfig(M, N, block_grid(np.asarray(S, dtype=complex), M, N))


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
    return SpinConfig(M, N, blocks, tuple(np.asarray(x) for x in xi),
                      tuple(np.asarray(e) for e in eta))


def spin_general(M, N, nu, seed):
    """Random full-rank spin matrix with diagonal blocks shifted so that
    tr(S^{ii}) = nu exactly."""
    rng = np.random.default_rng(seed)
    blocks = [[rng.uniform(-1, 1, (N, N)) + 1j * rng.uniform(-1, 1, (N, N))
               for _ in range(M)] for _ in range(M)]
    for i in range(M):
        blocks[i][i] = blocks[i][i] + \
            ((nu - np.trace(blocks[i][i])) / N) * np.eye(N)
    return SpinConfig(M, N, blocks)


# --- phase states ----------------------------------------------------------

@dataclass(frozen=True)
class PhaseState:
    q: tuple
    p: tuple
    spin: SpinConfig
    family: object

    @property
    def M(self):
        return self.spin.M

    @property
    def N(self):
        return self.spin.N

    def qdiff(self, i, j):
        return self.q[i] - self.q[j]

    def replace(self, q=None, p=None, spin=None):
        return PhaseState(tuple(q) if q is not None else self.q,
                          tuple(p) if p is not None else self.p,
                          spin if spin is not None else self.spin,
                          self.family)


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
        p = tuple(rng.uniform(-1, 1, M) + 1j * rng.uniform(-1, 1, M))
    return PhaseState(tuple(q), tuple(p), spin, family)


def _require_constraints(state, nu=None, tol=1e-8):
    tr = state.spin.traces()
    if nu is None:
        nu = tr[0]
    if np.max(np.abs(tr - nu)) > tol:
        raise ConstraintViolation(
            "tr(S^ii) must equal a common constant on all sites")
    return nu


# --- contraction helpers ---------------------------------------------------

@functools.lru_cache(maxsize=16)
def _pairs(M):
    """The site pairs i < j in row-major order, as two read-only index
    arrays."""
    return _index_arrays([(i, j) for i in range(M) for j in range(i + 1, M)])


@functools.lru_cache(maxsize=16)
def _ordered_pairs(M):
    """The site pairs i != j in row-major order, as two read-only index
    arrays."""
    return _index_arrays([(i, j) for i in range(M) for j in range(M)
                          if i != j])


def _index_arrays(pairs):
    out = tuple(np.array([p[k] for p in pairs], dtype=np.intp)
                for k in (0, 1))
    for a in out:
        a.flags.writeable = False
    return out


def _qdiffs(state, i, j):
    """q_i - q_j for index arrays i, j."""
    q = np.array(state.q, dtype=complex)
    return q[i] - q[j]


def _pair_traces(W, A, B):
    """tr(W[p] (A[p] (x) B[p])) for every p, from stacks W of N^2 x N^2
    and A, B of N x N matrices: each product and trace as for one pair."""
    n = W.shape[-1]
    AB = A[:, :, None, :, None] * B[:, None, :, None, :]
    return np.trace(W @ AB.reshape(-1, n, n), axis1=1, axis2=2)


def inertia_J(family, S):
    """Inverse inertia tensor J(S) = tr_2(m_12(0) S_2)."""
    return op_contract(family.m0(), np.asarray(S, dtype=complex))


def top_H(family, S):
    """Single-top Hamiltonian tr(S J(S)) / 2."""
    S = np.asarray(S, dtype=complex)
    return 0.5 * complex(np.trace(S @ inertia_J(family, S)))


def potential_U(family, Sij, Sji, q):
    """Interaction potential tr_12(F^0_21(q) P_12 S^ij_1 S^ji_2) =
    tr_12(P_12 F^0_12(q) S^ij_1 S^ji_2)."""
    W = permutation_P(family.N) @ family.F0(q)
    return complex(_pair_traces(W[None], np.asarray(Sij)[None],
                                np.asarray(Sji)[None])[0])


def potential_V(family, Sii, Sjj, q):
    """Tops potential tr_12(F^0_12(q) S^ii_1 S^jj_2); equals potential_U
    for rank-1 spin."""
    return complex(np.trace(family.F0(q) @ kron(Sii, Sjj)))


def _f0_table(state):
    """(i, j, F^0, F^0') over the pairs i < j, from one family call."""
    i, j = _pairs(state.M)
    return (i, j) + tuple(state.family.F0_with_derivative(
        _qdiffs(state, i, j)))


def hamiltonian(state):
    """H = sum p^2/2 + top terms + the pair potentials potential_U, with
    F^0 for every pair i < j from one family call."""
    return _hamiltonian(state, _f0_table(state))


def _hamiltonian(state, table):
    """hamiltonian(state) from the F^0 table _f0_table(state)."""
    fam, spin = state.family, state.spin
    M = spin.M
    total = 0.5 * sum(p * p for p in state.p)
    for i in range(M):
        total += top_H(fam, spin.block(i, i))
    i, j, F0, _ = table
    U = _pair_traces(permutation_P(spin.N) @ F0, spin.blocks[i, j],
                     spin.blocks[j, i])
    # added pair by pair, in the order i < j
    return complex(sum(U.tolist(), total))


# --- per-pair kernel tables ------------------------------------------------

# block (i, j) of the contraction of a pair table T with a spin S:
# tr_2(S^{ij}_2 T[i, j] P_12), entry [i, a, j, b] = sum_kl
# T[i, j]_{(a,k),(l,b)} S^{ij}_{lk}, with S in its (M, N, M, N) layout
_PAIR = "ijaklb,iljk->iajb"


def _pair_tables(state, z):
    """Kernel tables (R, F) at the spectral point z, (M, M, N, N, N, N), or
    a stack of them, z.shape + (M, M, N, N, N, N), at an array z.

    R[..., i, j] = R^z(q_ij) and F[..., i, j] = F^z(q_ij) in four-index
    form, from one R_with_F call over all ordered pairs (at an array z,
    over the broadcast of z[..., None] against them).  The diagonal holds
    their q -> 0 coefficients r(z) P and m(z) P, from one Rz_coefficients
    call, so a contraction with the spin gives tr_2(S^{ii}_2 r_12(z)) and
    tr_2(S^{ii}_2 m_12(z)) there.  Both are views of T P in memory: that
    layout fixes the summation order of every contraction to that of
    tr_2(S_2 T P) block by block.
    """
    fam = state.family
    M, N = state.M, state.N
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    R, F = (np.empty(shape + (M, M, N, N, N, N), dtype=complex)
            .swapaxes(-2, -1) for _ in range(2))
    sites = np.arange(M)
    R0, R1 = fam.Rz_coefficients(z)
    R[..., sites, sites, :, :, :, :] = R0.reshape(shape + (1, N, N, N, N))
    F[..., sites, sites, :, :, :, :] = R1.reshape(shape + (1, N, N, N, N))
    i, j = _ordered_pairs(M)
    # an array of spectral points takes one more axis, for the pairs
    Rs, Fs = fam.R_with_F(z[..., None] if shape else z,
                          _qdiffs(state, i, j))
    R[..., i, j, :, :, :, :] = Rs.reshape(shape + (-1, N, N, N, N))
    F[..., i, j, :, :, :, :] = Fs.reshape(shape + (-1, N, N, N, N))
    return R, F


def _contract(T, S):
    """The NM x NM matrix with blocks tr_2(S^{ij}_2 T[i, j] P_12)."""
    M, N = T.shape[0], T.shape[2]
    return np.einsum(_PAIR, T, S.reshape(M, N, M, N)).reshape(M * N, M * N)


def _plus_diagonal(A, d):
    """A plus d_i 1 on its diagonal blocks, in place."""
    A[np.diag_indices(len(A))] += np.repeat(d, len(A) // len(d))
    return A


# --- Lax pair --------------------------------------------------------------

def build_L(state, z):
    """Lax matrix: L^{ij} = d_ij (p_i 1 + tr_2(S^ii_2 r_12(z))) +
    (1 - d_ij) tr_2(S^ij_2 R^z_12(q_ij) P_12)."""
    return _lax_L(state, _pair_tables(state, z)[0])


def _lax_L(state, R):
    """L(z) from the R table of z."""
    return _plus_diagonal(_contract(R, state.spin.matrix), state.p)


def build_M(state, z):
    """Accompanying matrix: M^{ij} = d_ij tr_2(S^ii_2 m_12(z)) +
    (1 - d_ij) tr_2(S^ij_2 F^z_12(q_ij) P_12)."""
    return _contract(_pair_tables(state, z)[1], state.spin.matrix)


# --- equations of motion (printed form) ------------------------------------

def eom_rhs(state, diagonal_form="general"):
    """Right-hand side of the flow: (dq, dp, dS) with dS[i][j] = dS^{ij}.

    The printed off-diagonal equations and the "general" diagonal ones
    are together dS = S K - K S on NM x NM matrices, with
    K^{ij} = tr_2(F^0_12(q_ij) P_12 S^{ij}_2) for i != j and
    K^{ii} = J(S^{ii}) = tr_2(m_12(0) S^{ii}_2).  "commutator" replaces
    the diagonal blocks by the interacting-tops form
    [S^{ii}, J(S^{ii}) + sum_{k!=i} tr_2(F^0_12(q_ik) S^{kk}_2)], valid for
    rank-1 spin.  dp_i = -sum_k tr_12(P F^0'(q_ik) S^{ik}_1 S^{ki}_2).

    F^0 and F^0' come from one family call over the pairs i < j (whose
    pole guard covers q_ji, the pole set being symmetric); the pair j, i
    follows from F^0(-q) = P F^0(q) P and F^0'(-q) = -P F^0'(q) P.  dq and
    dp are length-M arrays; dS is the (M, M, N, N) block view of the NM x NM
    derivative.
    """
    if diagonal_form not in ("general", "commutator"):
        raise ValueError(f"unknown diagonal_form {diagonal_form!r}")
    fam, spin = state.family, state.spin
    M, N = spin.M, spin.N
    _require_constraints(state)
    # pair tables [i, j, a, c, b, d] = F^0(q_ij)_{(a,c),(b,d)}, zero on i = j;
    # conjugation by P swaps the two tensor factors
    F = np.zeros((M, M, N, N, N, N), dtype=complex)
    D = np.zeros_like(F)
    i, j = _pairs(M)
    F0, dF0 = fam.F0_with_derivative(_qdiffs(state, i, j))
    F[i, j] = F0.reshape(-1, N, N, N, N)
    D[i, j] = dF0.reshape(-1, N, N, N, N)
    F = F + F.transpose(1, 0, 3, 2, 5, 4)
    D = D - D.transpose(1, 0, 3, 2, 5, 4)

    S = spin.matrix
    S4 = S.reshape(M, N, M, N)
    sites = np.arange(M)
    # K^{ij}_{ab} = sum_kl F^0(q_ij)_{(a,k),(l,b)} S^{ij}_{lk}
    K = np.einsum(_PAIR, F, S4)
    J = np.einsum("akbl,ilik->iab", as_four_index(fam.m0(), N), S4)
    K[sites, :, sites, :] += J
    K = K.reshape(M * N, M * N)
    dS = S @ K - K @ S

    if diagonal_form == "commutator":
        Sd = spin.blocks[sites, sites]
        V = J + np.einsum("ikacbd,kdc->iab", F, Sd)
        block_grid(dS, M, N)[sites, sites] = Sd @ V - V @ Sd

    # tr_12(P F^0'_12 (A (x) B)) = sum F^0'_{(c,a),(b,d)} A_{ba} B_{dc}
    dp = -np.einsum("ikcabd,ibka,kdic->i", D, S4, S4)
    return np.array(state.p, dtype=complex), dp, block_grid(dS, M, N)



# --- Poisson-bracket oracle ------------------------------------------------

def _ham_spin_gradient(state, i, j, W):
    """Entrywise gradient G of H with respect to the big spin matrix,
    computed analytically from the bilinear contraction forms; W[p] is
    P F^0(q_ij) for the pair i[p] < j[p]."""
    fam, spin = state.family, state.spin
    M, N = spin.M, spin.N
    m0 = fam.m0()
    G = np.zeros((M * N, M * N), dtype=complex)
    grad = block_grid(G, M, N)
    for k in range(M):
        Skk = spin.block(k, k)
        grad[k, k] += 0.5 * (op_contract(m0, Skk).T
                             + op_contract_1(m0, Skk).T)
    # op_contract and op_contract_1 of every pair at once
    W4 = W.reshape(-1, N, N, N, N)
    grad[i, j] += np.einsum("pikjl,plk->pij", W4,
                            spin.blocks[j, i]).swapaxes(1, 2)
    grad[j, i] += np.einsum("pikjl,pji->pkl", W4,
                            spin.blocks[i, j]).swapaxes(1, 2)
    return G


def _ham_q_gradient(state, i, j, Wd):
    """dH/dq_s, analytic through Wd[p] = P d/dq F^0(q_ij) for the pair
    i[p] < j[p]: pair p adds g_p to site i[p] and -g_p to site j[p]."""
    spin = state.spin
    M = spin.M
    g = _pair_traces(Wd, spin.blocks[i, j], spin.blocks[j, i])
    signed = np.zeros((M, M), dtype=complex)
    signed[i, j] = g
    signed[j, i] = -g
    # each site adds up its pairs in the order of the other site, which is
    # the order of the pairs i < j: the rounding of a pair-by-pair sum
    out = np.zeros(M, dtype=complex)
    for t in range(M):
        out += signed[:, t]
    return out


def bracket_flow(state):
    """Hamiltonian flow {H, .} through the linear Poisson-Lie brackets.

    Returns the full derivative (dq, dp, dS) as a brute-force oracle for
    eom_rhs: dq = p, dp = -dH/dq, and the spin flow dS = [S, G^T] with G
    the entrywise spin gradient of H.  F^0 and its q-derivative come from
    one family call over the pairs i < j.  dq and dp are length-M arrays;
    dS is the (M, M, N, N) block view of the NM x NM derivative.
    """
    return _bracket_flow(state, _f0_table(state))


def _bracket_flow(state, table):
    """bracket_flow(state) from the F^0 table _f0_table(state)."""
    _require_constraints(state)
    spin = state.spin
    M, N = spin.M, spin.N
    i, j, F0, dF0 = table
    P = permutation_P(N)
    Gt = _ham_spin_gradient(state, i, j, P @ F0).T
    S = spin.matrix
    dS = S @ Gt - Gt @ S
    dp = -_ham_q_gradient(state, i, j, P @ dF0)
    return np.array(state.p, dtype=complex), dp, block_grid(dS, M, N)


def _flow_L(R, Mz, flow):
    """{H, L(z)} by the chain rule from the bracket-side flow and the R table
    of z: the spin flow through R, the momenta on the diagonal, and the
    positions through dL^{ij}/dq_i = tr_2(S^ij_2 F^z_12(q_ij) P_12), which
    is the off-diagonal block M^{ij}(z) of Mz."""
    dq, dp, dS = flow
    M, N = R.shape[0], R.shape[2]
    out = _contract(R, dS.swapaxes(1, 2).reshape(M * N, M * N))
    weight = (dq[:, None] - dq[None, :])[:, None, :, None]
    out += (weight * Mz.reshape(M, N, M, N)).reshape(M * N, M * N)
    return _plus_diagonal(out, dp)


def _lax_check(state, z, flow):
    """(L(z), relative residual of {H, L(z)} = [L(z), M(z)]), with L, M and
    {H, L} all read from one pair table at z; flow = bracket_flow(state)."""
    R, F = _pair_tables(state, z)
    L = _lax_L(state, R)
    Mz = _contract(F, state.spin.matrix)
    lhs = _flow_L(R, Mz, flow)
    rhs = commutator(L, Mz)
    scale = max(frobenius_norm(lhs), frobenius_norm(rhs), 1.0)
    return L, frobenius_norm(lhs - rhs) / scale


def lax_residuals(state, zs):
    """Relative residuals of {H, L(z)} = [L(z), M(z)] at each z in zs,
    sharing one bracket flow."""
    flow = bracket_flow(state)
    return [_lax_check(state, z, flow)[1] for z in zs]


def lax_residual(state, z):
    """Relative residual of {H, L(z)} = [L(z), M(z)]."""
    return lax_residuals(state, (z,))[0]


# --- classical exchange relation ------------------------------------------

# the spin-sector terms contract the w table with the spin first, then the
# z table as a batched matrix product (ten times faster at N = M = 3 than
# one three-operand einsum, numpy 2.4)
_B_THEN_A = ["einsum_path", (1, 2), (0, 1)]


def _exchange_lhs(state, tables_z, tables_w):
    """{L_{1'1}(z), L_{2'2}(w)} entrywise by the Poisson-bracket oracle,
    in the primed-first flattening Mat(M) x Mat(M) x Mat(N) x Mat(N), from
    the pair tables (R, F) of z and of w."""
    M, N = state.M, state.N
    S = state.spin.matrix
    S4 = S.reshape(M, N, M, N)
    # gradients dL^{ij}_{ab}(z) / dS^{ij}_{xy} = A[i, j, a, y, b, x] (B at w)
    # and q-derivatives D[i, a, j, b] = tr_2(S^ij_2 F_12(q_ij) P_12)_{ab},
    # whose diagonal blocks carry zero weight below
    A, B = tables_z[0].swapaxes(4, 5), tables_w[0].swapaxes(4, 5)
    D1 = _contract(tables_z[1], S).reshape(M, N, M, N)
    D2 = _contract(tables_w[1], S).reshape(M, N, M, N)
    eM, eN = np.eye(M), np.eye(N)
    X = eM[:, :, None] - eM[:, None, :]     # X[i, k, l] = d_ik - d_il
    s = np.arange(M)
    out = np.zeros((M, M, N, N) * 2, dtype=complex)   # [i, k, a, c, j, l, b, d]
    # spin sector, {S^ij_xy, S^kl_vw} = S^kj_vy d^il d_xw - S^il_xw d^kj d_yv;
    # an index array on two axes puts the shared site first
    out[s, :, :, :, :, s] += np.einsum("ijaybx,kicxdv,kvjy->ikacjbd",
                                       A, B, S4, optimize=_B_THEN_A)
    out[:, s, :, :, s] -= np.einsum("ijaybx,jlcwdy,ixlw->jiaclbd",
                                    A, B, S4, optimize=_B_THEN_A)
    # canonical sector, {p_i, q_k} = d_ik, through p_i on L^ii
    out[s, :, :, :, s] += np.einsum("ikl,ab,kcld->ikaclbd", X, eN, D2)
    out[:, s, :, :, :, s] -= np.einsum("kij,iajb,cd->kiacjbd", X, D1, eN)
    dim = (M * N) ** 2
    return out.reshape(dim, dim)


def _exchange_blocks(T):
    """sum_ij E_ij x E_ji x T[i, j] P_12 on Mat(M)^2 x Mat(N)^2, primed
    factors first, for a pair table T."""
    M, N = T.shape[0], T.shape[2]
    out = np.zeros((M, M, N, N) * 2, dtype=complex)
    i, j = np.indices((M, M))
    out[i, j, :, :, j, i] = T.swapaxes(4, 5)
    dim = (M * N) ** 2
    return out.reshape(dim, dim)


def _r_big_and_q_derivative(state, z, w):
    """classical_r_big and _r_big_q_derivative_sum from one pair table at
    z - w: the q-derivative places (tr S^ii - tr S^jj) F^{z-w}(q_ij) P."""
    R, F = _pair_tables(state, z - w)
    return _exchange_blocks(R), _exchange_blocks(_trace_weight(state) * F)


def _trace_weight(state):
    """tr S^ii - tr S^jj at [i, j], broadcast against a pair table."""
    tr = state.spin.traces()
    return (tr[:, None] - tr[None, :])[:, :, None, None, None, None]


def classical_r_big(state, z, w):
    """The dynamical r-matrix on Mat(M)^2 x Mat(N)^2, primed factors first:
    sum_i E_ii x E_ii x r_12(z-w) + sum_{i!=j} E_ij x E_ji x R^{z-w}(q_ij) P.

    A dense reference: exchange_residual reads its blocks directly."""
    return _r_big_and_q_derivative(state, z, w)[0]


def _r_big_q_derivative_sum(state, z, w):
    """sum_k tr(S^kk) d/dq_k of the dynamical r-matrix (dense reference)."""
    return _r_big_and_q_derivative(state, z, w)[1]


def _exchange_rhs(state, R, F):
    """(c1, c2, dr) of the exchange relation, each (MN)^2 x (MN)^2 with the
    primed factors first: c1 = [L_{1'1}(z), r(z, w)], c2 = [L_{2'2}(w),
    r_{2'1'21}(w, z)] and dr = sum_k tr(S^kk) d_{q_k} r(z, w), from the
    pair tables R, F stacked at [z, w, z - w, w - z].

    r(z, w) is nonzero only on the blocks E_ij x E_ji, where it is
    G[i, j] = R^{z-w}(q_ij) P (r(z - w) on i = j), and so is
    r_{2'1'21}(w, z), there H[i, j], its w - z table with both factor
    pairs swapped.  A product with L_{1'1} = L(z) x 1 or L_{2'2} = 1 x L(w)
    therefore lands on the entries [i, k, a, c, j, l, b, d] with k = j or
    l = i, and each commutator is two scatter-adds of small contractions.
    """
    M, N = state.M, state.N
    Lz, Lw = (_lax_L(state, T).reshape(M, N, M, N) for T in R[:2])
    G = R[2].swapaxes(4, 5)
    H = R[3].swapaxes(4, 5).transpose(1, 0, 3, 2, 5, 4)
    s = np.arange(M)
    c1, c2 = (np.zeros((M, M, N, N) * 2, dtype=complex) for _ in range(2))
    c1[:, s, :, :, s] += np.einsum("ialy,lsycbd->siaclbd", Lz, G)
    c1[s, :, :, :, :, s] -= np.einsum("skacyd,kyjb->skacjbd", G, Lz)
    c2[s, :, :, :, :, s] += np.einsum("kcjy,sjaybd->skacjbd", Lw, H)
    c2[:, s, :, :, s] -= np.einsum("isacby,iyld->siaclbd", H, Lw)
    dim = (M * N) ** 2
    return (c1.reshape(dim, dim), c2.reshape(dim, dim),
            _exchange_blocks(_trace_weight(state) * F[2]))


def exchange_residual(state, z, w):
    """Max relative residual of the classical exchange relation
    {L_{1'1}(z), L_{2'2}(w)} = [L_{1'1}(z), r] - [L_{2'2}(w), r_{2'1'21}]
    - sum_k tr(S^kk) d_{q_k} r, with the pair tables of z, w, z - w and
    w - z from one stack: one R_with_F and one Rz_coefficients call."""
    spin = state.spin
    M, N = spin.M, spin.N
    check_scale((M * N) ** 4, f"the exchange relation at N = {N}, M = {M}")
    _require_constraints(state)
    R, F = _pair_tables(state, np.array([z, w, z - w, w - z]))
    lhs = _exchange_lhs(state, (R[0], F[0]), (R[1], F[1]))
    c1, c2, dr = _exchange_rhs(state, R, F)
    rhs = c1 - c2 - dr
    scale = max(frobenius_norm(lhs), frobenius_norm(c1), frobenius_norm(c2),
                frobenius_norm(dr), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# --- R-matrix-valued Calogero-Moser Lax pair -------------------------------

def _site_pair_embed(T, a, b, N, M):
    """Embed a two-site operator at chain sites (a, b) of Mat(N)^{x M}."""
    rest = M - 2
    big = np.kron(np.asarray(T, dtype=complex), np.eye(N ** rest))
    big = big.reshape((N,) * (2 * M))
    order = [a, b] + [s for s in range(M) if s not in (a, b)]
    perm = [0] * M
    for pos, s in enumerate(order):
        perm[s] = pos
    axes = [perm[s] for s in range(M)] + [M + perm[s] for s in range(M)]
    return big.transpose(axes).reshape(N ** M, N ** M)


def _cm_rmx(q, p, nu, family, z):
    """(L, Mbar, F, G) of the R-matrix-valued Calogero-Moser Lax pair:
    F[k] is F^z(q_ij) at the sites (i, j) = (i[k], j[k]) of the ordered
    pairs (_ordered_pairs), from the R_with_F call that gives L, and G[k] is
    F^0(q_kl) at the sites of the pair k < l, from one F0 call; both are
    embedded in Mat(N)^{x M}.  F^0(q_lk) at the sites (l, k) is G[k] too,
    since F^0(-q) = P F^0(q) P."""
    q = np.array(q, dtype=complex)
    p = np.array(p, dtype=complex)
    M = len(q)
    N = family.N
    if N ** M > 256:
        raise ScaleExceeded(f"chain dimension N^M = {N ** M} exceeds 256")
    i, j = _ordered_pairs(M)
    R, F = family.R_with_F(z, q[i] - q[j])
    k, l = _pairs(M)
    G = _site_pair_stack(family.F0(q[k] - q[l]), k, l, N, M)
    R, F = (_site_pair_stack(T, i, j, N, M) for T in (R, F))
    L = _cm_blocks(p[:, None, None] * np.eye(N ** M), i, j, nu * R)
    # the diagonal of Mbar is -nu sum_{b != a} F^0(q_ab) at the sites (a, b)
    D = np.array([-G[(k == a) | (l == a)].sum(axis=0) for a in range(M)])
    Mbar = _cm_blocks(nu * D, i, j, nu * F)
    return L, Mbar, F, G


def _site_pair_stack(T, a, b, N, M):
    """_site_pair_embed of each T[k] at the sites (a[k], b[k])."""
    out = [_site_pair_embed(t, s, u, N, M) for t, s, u in zip(T, a, b)]
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


def cm_rmx_lax(q, p, nu, family, z):
    """R-matrix-valued Lax pair of the spinless Calogero-Moser model on
    Mat(M) x Mat(N)^{x M}: returns (L, Mbar) with
    L_ab = d_ab p_a 1 + nu (1 - d_ab) R^z_ab(q_a - q_b) and
    Mbar = M - nu 1_M x F0_total."""
    return _cm_rmx(q, p, nu, family, z)[:2]


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
