"""Unit tests for the phase space, Hamiltonian, Lax pair and reductions."""

import cmath
import itertools
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from toplax import model as md
from toplax import rmatrix as rm
from toplax import specfun as sf
from toplax import tensor as tn
from toplax.errors import ConstraintViolation, ScaleExceeded, ToplaxError

import reference as rf


def test_spin_rank1_structure():
    spin = md.spin_rank1(3, 2, 0.8 + 0.1j, seed=4)
    assert rf.on_constraints(spin, 0.8 + 0.1j)
    S = spin.assemble()
    svals = np.linalg.svd(S, compute_uv=False)
    assert svals[0] > 1e-3
    assert svals[1] < 1e-12 * svals[0]


def test_spin_rank1_rejects_zero_level():
    with pytest.raises(ValueError):
        md.spin_rank1(2, 2, 0.0, seed=0)


def test_spin_general_constraints():
    spin = md.spin_general(3, 2, 1.5, seed=5)
    assert rf.on_constraints(spin, 1.5)
    S = spin.assemble()
    svals = np.linalg.svd(S, compute_uv=False)
    assert svals[-1] > 1e-6  # generically full rank


@pytest.mark.parametrize("M, N", [(1, 1), (2, 3), (3, 2), (4, 5), (8, 2)])
def test_spin_general_is_the_blockwise_draw(M, N):
    # one draw of every block gives the bits of the block-by-block loop
    for nu in (1.0, 1.5 - 0.3j):
        for seed in (0, 7):
            got = md.spin_general(M, N, nu, seed).matrix
            want = rf.spin_general(M, N, nu, seed).matrix
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_spin_roundtrip():
    spin = md.spin_general(2, 3, 1.0, seed=6)
    again = md.spin_from_matrix(spin.assemble(), 2, 3)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(spin.blocks[i, j], again.blocks[i, j])


def test_spin_is_read_only():
    # a plain class: M, N, matrix and blocks are set once, the matrix
    # read-only and blocks its (M, M, N, N) view
    spin = md.SpinConfig(2, 3, np.arange(36).reshape(2, 2, 3, 3))
    assert (spin.M, spin.N) == (2, 3)
    assert spin.blocks[1, 0][2, 1] == 25 and spin.matrix[5, 1] == 25
    assert np.shares_memory(spin.blocks, spin.matrix)
    assert not spin.matrix.flags.writeable
    for name in ("M", "matrix", "blocks"):
        with pytest.raises(AttributeError):
            setattr(spin, name, None)
    with pytest.raises(AttributeError):
        md.SpinConfig.wrap(spin.matrix, 2, 3).N = 2


def test_random_state_is_constrained():
    fam = rm.make_family("bb", N=2, tau=1j)
    st = md.random_state(fam, 3, 0.7, seed=1)
    assert rf.on_constraints(st.spin, 0.7)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert fam.pole_distance(st.q[i] - st.q[j]) > 0.05


def test_phase_state_is_array_native():
    # q and p are read-only complex arrays however the state is made, and
    # the phase vector is q, then p, then the spin matrix row by row
    fam = rm.make_family("xxx", N=2)
    st = md.random_state(fam, 3, 1.0, seed=8)
    made = (st, md.PhaseState((0.1, 0.2j, 0.3), [1, 2, 3], st.spin, fam),
            rf.replace(st, q=(0.5, 0.6, 0.7)), st.from_vector(st.vector))
    for s in made:
        for a in (s.q, s.p):
            assert isinstance(a, np.ndarray)
            assert a.dtype == complex and a.shape == (3,)
            with pytest.raises(ValueError):
                a[0] = 0
    vec = st.vector.copy()
    assert np.array_equal(vec, np.concatenate(
        [st.q, st.p, st.spin.matrix.ravel()]))
    again = st.from_vector(vec)
    vec[:] = 0   # the state keeps no view of its input
    assert np.array_equal(again.q, st.q) and np.array_equal(again.p, st.p)
    assert np.array_equal(again.spin.matrix, st.spin.matrix)
    assert again.family is fam
    # a flow (dq, dp, dS) packs in the same layout, which is the flat flow
    dq, dp, dS = rf.eom_flow(st)
    flat = rf.pack(dq, dp, dS)
    assert np.array_equal(flat[:6], np.concatenate([dq, dp]))
    assert np.array_equal(flat[6:].reshape(6, 6),
                          np.block([[b for b in row] for row in dS]))
    assert np.array_equal(md.eom_rhs(st), flat)
    with pytest.raises(ValueError):
        md.PhaseState((0.1, 0.2), (0.3, 0.4), st.spin, fam)


@pytest.mark.parametrize("key", ["xxx", "bb"])
def test_state_is_one_read_only_vector(key):
    # q, p and the spin matrix are read-only views of the state's one phase
    # vector, which the public constructor builds with the same bits, and
    # the state cannot be rebound
    fam = rm.make_family(key, N=2, tau=1j)
    st = md.random_state(fam, 4, 1.0, seed=21)
    vec = st.vector
    assert vec.shape == (2 * 4 + 64,) and not vec.flags.writeable
    for part in (st.q, st.p, st.spin.matrix, st.spin.blocks):
        assert not part.flags.writeable and np.shares_memory(part, vec)
    built = md.PhaseState(tuple(st.q), tuple(st.p), st.spin, fam)
    assert np.array_equal(built.vector.view(np.uint64), vec.view(np.uint64))
    assert st.vector is vec
    with pytest.raises(AttributeError):
        st.q = st.p
    # from_vector copies its input, whether writable or not
    source = np.array(vec)
    again = st.from_vector(source)
    source[:] = np.nan
    assert np.array_equal(again.vector.view(np.uint64),
                          vec.view(np.uint64))
    assert not np.shares_memory(st.from_vector(vec).vector, vec)
    # a wrapped spin holds its matrix as it is; it must be read-only
    S = np.array(st.spin.matrix)
    with pytest.raises(ValueError):
        md.SpinConfig.wrap(S, 4, 2)
    S.flags.writeable = False
    assert md.SpinConfig.wrap(S, 4, 2).matrix is S


def test_constraint_check_raises():
    fam = rm.make_family("xxx", N=2)
    st = md.random_state(fam, 2, 1.0, seed=2)
    blocks = [[st.spin.blocks[i, j] for j in range(2)] for i in range(2)]
    blocks[1][1] = blocks[1][1] + 0.5 * np.eye(2)
    bad = rf.replace(st, spin=md.SpinConfig(2, 2, blocks))
    with pytest.raises(ConstraintViolation):
        md.eom_rhs(bad)
    with pytest.raises(ConstraintViolation):
        md.bracket_flow(bad)


def test_hamiltonian_two_particle_value():
    # N=1 rational, S_12 = S_21 = 1, S_ii = 0, q = (0, 2), p = 0:
    # H reduces to the single pair potential -1/4
    fam = rm.make_family("xxx", N=1)
    blocks = [[np.zeros((1, 1), dtype=complex) for _ in range(2)]
              for _ in range(2)]
    blocks[0][1][0, 0] = 1.0
    blocks[1][0][0, 0] = 1.0
    spin = md.SpinConfig(2, 1, blocks=tuple(tuple(r) for r in blocks))
    st = md.PhaseState((0.0, 2.0), (0.0, 0.0), spin, fam)
    assert abs(md.hamiltonian(st) + 0.25) < 1e-15


def test_hamiltonian_kinetic_term():
    fam = rm.make_family("xxx", N=1)
    blocks = ((np.zeros((1, 1), dtype=complex),),)
    spin = md.SpinConfig(1, 1, blocks=blocks)
    st = md.PhaseState((0.3,), (2.0 + 1.0j,), spin, fam)
    assert abs(md.hamiltonian(st) - 0.5 * (2.0 + 1.0j) ** 2) < 1e-14


def test_U_equals_V_for_rank1():
    for key, kwargs in (("xxx", {}), ("11v", {}), ("bb", {"tau": 1j})):
        fam = rm.make_family(key, N=2, **kwargs)
        st = md.random_state(fam, 2, 1.0, seed=7, spin_mode="rank1")
        q = st.q[0] - st.q[1]
        U = rf.potential_U(fam, st.spin.blocks[0, 1], st.spin.blocks[1, 0], q)
        V = rf.potential_V(fam, st.spin.blocks[0, 0], st.spin.blocks[1, 1], q)
        assert abs(U - V) < 1e-12 * max(abs(U), 1.0), key


def test_lax_N1_entrywise():
    # scalar reduction: L_ij = d_ij (p_i + S_ii E1(z))
    #                        + (1 - d_ij) S_ij phi(z, q_i - q_j)
    for key, kwargs in (("xxx", {}), ("bb", {"tau": 0.8j})):
        fam = rm.make_family(key, N=1, **kwargs)
        fl = fam.flavor
        st = md.random_state(fam, 3, 0.7 + 0.2j, seed=8)
        z = 0.63 - 0.12j
        L = rf.build_L(st, z)
        for i in range(3):
            for j in range(3):
                s = st.spin.blocks[i, j][0, 0]
                if i == j:
                    expect = st.p[i] + s * sf.eisenstein_E1(fl, z)
                else:
                    expect = s * sf.kronecker_phi(fl, z, st.q[i] - st.q[j])
                assert abs(L[i, j] - expect) < 1e-12, key


def test_lax_M_matrix_N1_offdiagonal():
    # the accompanying matrix reduces off-diagonally to S_ij f(z, q_ij)
    fam = rm.make_family("bb", N=1, tau=0.8j)
    st = md.random_state(fam, 2, 0.5 + 0.1j, seed=11)
    z = 0.33 + 0.21j
    Mm = rf.build_M(st, z)
    for i in range(2):
        for j in range(2):
            if i != j:
                expect = st.spin.blocks[i, j][0, 0] * sf.phi_derivative_f(
                    fam.flavor, z, st.q[i] - st.q[j])
                assert abs(Mm[i, j] - expect) < 1e-12


def test_lax_M1_sector_form():
    # single top: L = p 1 + (1/N) sum_a tr(S T_-a) phi_a(z, w_a) T_a,
    # with the a = 0 coefficient E1(z)
    fam = rm.make_family("bb", N=2, tau=1j)
    fl = fam.flavor
    N = 2
    st = md.random_state(fam, 1, 1.0, seed=5)
    z = 0.27 + 0.41j
    S = st.spin.blocks[0, 0]
    acc = st.p[0] * np.eye(N, dtype=complex)
    for a1 in range(N):
        for a2 in range(N):
            Sa = np.trace(S @ tn.sin_basis([-a1], [-a2], N)[0]) / N
            if a1 == 0 and a2 == 0:
                coef = sf.eisenstein_E1(fl, z)
            else:
                om = (a1 + a2 * fl.tau) / N
                coef = cmath.exp(2j * cmath.pi * a2 * z / N) \
                    * sf.kronecker_phi(fl, z, om)
            acc += Sa * coef * tn.sin_basis([a1], [a2], N)[0]
    L = rf.build_L(st, z)
    assert np.max(np.abs(L - acc)) < 1e-12


def test_elliptic_potential_sector_form():
    # U = -sum_a S^ij_a S^ji_-a E2(w_a + q/N) with S_a = tr(S T_-a)/N
    fam = rm.make_family("bb", N=2, tau=1j)
    fl = fam.flavor
    N = 2
    rng = np.random.default_rng(3)
    Sij = rng.uniform(-1, 1, (N, N)) + 1j * rng.uniform(-1, 1, (N, N))
    Sji = rng.uniform(-1, 1, (N, N)) + 1j * rng.uniform(-1, 1, (N, N))
    for q in (0.31 + 0.22j, 0.12 + 0.45j):
        U = rf.potential_U(fam, Sij, Sji, q)
        total = 0j
        for a1 in range(N):
            for a2 in range(N):
                Sa = np.trace(Sij @ tn.sin_basis([-a1], [-a2], N)[0]) / N
                Sma = np.trace(Sji @ tn.sin_basis([a1], [a2], N)[0]) / N
                om = (a1 + a2 * fl.tau) / N
                total += Sa * Sma * sf.eisenstein_E2(fl, om + q / N)
        assert abs(U + total) < 1e-8 * max(abs(U), 1.0)


def test_lax_blocks_match_per_pair_kernels():
    # the table contractions against the blockwise definitions, written as a
    # loop over family calls: the sums run in the same order, so the values
    # are equal, not merely close
    for key, kwargs in (("xxx", {}), ("11v", {}), ("7v", {"C": 0.7 + 0.2j}),
                        ("bb", {"tau": 0.3 + 0.9j})):
        fam = rm.make_family(key, N=2, **kwargs)
        st = md.random_state(fam, 3, 1.0, seed=13)
        z = 0.31 + 0.22j
        P = tn.permutation_P(2)
        L = tn.as_block_grid(rf.build_L(st, z), 3, 2)
        Mz = tn.as_block_grid(rf.build_M(st, z), 3, 2)
        for i in range(3):
            for j in range(3):
                S = st.spin.blocks[i, j]
                if i == j:
                    wantL = st.p[i] * np.eye(2) + tn.op_contract(fam.r(z), S)
                    wantM = tn.op_contract(fam.m(z), S)
                else:
                    R, F = fam.R(z, st.q[i] - st.q[j], (0, 1))
                    wantL = tn.op_contract(R @ P, S)
                    wantM = tn.op_contract(F @ P, S)
                assert np.array_equal(L[i, j], wantL), (key, i, j)
                assert np.array_equal(Mz[i, j], wantM), (key, i, j)


_FAMILY_ARGS = {"xxx": {}, "11v": {}, "xxz": {}, "7v": {"C": 0.7 + 0.2j},
                "bb": {"tau": 0.3 + 0.9j}}


def _agrees(got, want, N, bitwise=True):
    # bit for bit at N <= 2, else within 1e-15 of the largest entry
    if N <= 2 and bitwise:
        return np.array_equal(got, want)
    return np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("key, N", [
    (key, N) for key in rm.FAMILY_KEYS
    for N in ((1, 2, 3, 4) if key in ("xxx", "bb") else (2,))])
def test_matrix_products_match_einsum_oracles(key, N):
    # the pair contraction and the four exchange plane products against
    # their einsum forms; a one-point stack against its point, and a
    # stack's first table or pair against it alone, bit for bit.  11v's
    # tables put two nonzero products in one sum, which BLAS may round
    # unlike einsum's running sum
    exact = key != "11v"
    fam = rm.make_family(key, N=N, **_FAMILY_ARGS[key])
    w = 0.17 + 0.52j
    zs = np.array([0.31 + 0.42j, 0.55 + 0.23j, 0.12 + 0.71j])
    for M in (1, 2, 3, 4):
        st = md.random_state(fam, M, 1.0, seed=M)
        S = st.spin.matrix
        for T, T1, Ts in zip(md._pair_tables(st.family, st.q, zs[0]),
                             md._pair_tables(st.family, st.q, zs[:1]),
                             md._pair_tables(st.family, st.q, zs)):
            got, stack = md._contract(T, S), md._contract(Ts, S)
            assert _agrees(got, rf.contract(T, S), N, exact), (key, M)
            assert _agrees(stack, rf.contract(Ts, S), N, exact), (key, M)
            assert np.array_equal(md._contract(T1, S)[0], got)
            assert np.array_equal(stack[0], md._contract(Ts[0], S))
        R = md._pair_tables(st.family, st.q,
                            [[z, w, z - w, w - z] for z in zs])[0]
        products = rf.exchange_products(st, R)
        buf = np.empty((3, 2) + (M,) * 3 + (N,) * 4, dtype=complex)
        one = np.empty_like(buf[:1])
        terms = zip(md._exchange_rhs(st, R, buf),
                    md._exchange_rhs(st, R[:1], one))
        for k, (got, alone) in enumerate(terms):
            want = md._fold_overlap(np.stack(products[2 * k:2 * k + 2], 1))
            assert _agrees(got, want, N, exact), (key, M, k)
            assert np.array_equal(alone, got[:1])


@pytest.mark.parametrize("key, N", [
    (key, N) for key in rm.FAMILY_KEYS
    for N in ((1, 2, 3, 4) if key in ("xxx", "bb") else (2,))])
def test_planned_eom_matches_einsum_terms(key, N):
    # the tables gathered through _eom_plan against the einsums over the
    # scattered pair tables of rf.eom_terms, M = 1 holding no pair.  11v's
    # tables put two nonzero products in one sum, which BLAS may round
    # unlike einsum's running sum
    exact = key != "11v"
    fam = rm.make_family(key, N=N, **_FAMILY_ARGS[key])
    for M in (1, 2, 3, 8):
        st = md.random_state(fam, M, 1.0, seed=M)
        S = st.spin.matrix
        K, dp, size = rf.eom_terms(st)
        dq, got_dp, dS = rf.eom_flow(st)
        assert np.array_equal(dq, st.p)
        assert _agrees(dS.swapaxes(1, 2).reshape(S.shape), S @ K - K @ S, N,
                       exact), (key, M)
        assert np.all(np.abs(got_dp - dp) <= 1e-15 * size), (key, M)


def test_eom_matches_bracket_flow():
    for key, kwargs in (("xxx", {}), ("11v", {}), ("bb", {"tau": 1j})):
        fam = rm.make_family(key, N=2, **kwargs)
        st = md.random_state(fam, 3, 1.0, seed=13)
        dq1, dp1, dS1 = rf.eom_flow(st)
        dq2, dp2, dS2 = md.bracket_flow(st)
        assert np.max(np.abs(np.array(dq1) - np.array(dq2))) < 1e-12
        assert np.max(np.abs(np.array(dp1) - np.array(dp2))) < 1e-10, key
        for i in range(3):
            for j in range(3):
                diff = np.max(np.abs(dS1[i][j] - dS2[i][j]))
                assert diff < 1e-10, f"{key} block {i}{j}: {diff:.3e}"


def test_rank1_diagonal_forms_agree():
    # for rank-1 spin the general diagonal blocks of the flow equal the
    # interacting-tops commutator form
    for key in ("xxx", "11v"):
        fam = rm.make_family(key, N=2)
        st = md.random_state(fam, 3, 1.0, seed=17, spin_mode="rank1")
        _, _, dS = rf.eom_flow(st)
        want = rf.eom_commutator_diagonal(st)
        for i in range(3):
            diff = np.max(np.abs(dS[i][i] - want[i]))
            assert diff < 1e-10, f"{key} site {i}: {diff:.3e}"


def test_hamiltonian_gradient_by_finite_difference():
    fam = rm.make_family("11v")
    st = md.random_state(fam, 2, 1.0, seed=23)
    h = 1e-6
    # dH/dq_0 against a central difference in q_0
    up = rf.replace(st, q=(st.q[0] + h, st.q[1]))
    dn = rf.replace(st, q=(st.q[0] - h, st.q[1]))
    diff = (md.hamiltonian(up) - md.hamiltonian(dn)) / (2 * h)
    assert abs(md.bracket_flow(st)[1][0] + diff) < 1e-6


def test_lax_residual_small():
    for key, kwargs in (("xxx", {}), ("7v", {"C": 0.7 + 0.2j}),
                        ("bb", {"tau": 1j})):
        fam = rm.make_family(key, N=2, **kwargs)
        st = md.random_state(fam, 2, 1.0, seed=29)
        rng = np.random.default_rng(31)
        for _ in range(3):
            z = sf.sample_point(rng, fam.flavor)
            assert md.lax_check(st, [z])[0] < 1e-11, key


def test_exchange_residual_small():
    for key in ("xxx", "11v"):
        fam = rm.make_family(key, N=2)
        st = md.random_state(fam, 2, 1.0, seed=37)
        assert md.exchange_residual(st, 0.41 + 0.13j, 0.17 - 0.22j) < 1e-12


def test_exchange_N1_derivative_term():
    # at N = 1 the q-derivative term of the exchange relation carries
    # S_ii - S_jj and vanishes identically on the constraint surface
    fam = rm.make_family("xxx", N=1)
    st = md.random_state(fam, 3, 0.8, seed=41)
    dr = rf.r_big_q_derivative_sum(st, 0.3, 0.1 + 0.2j)
    assert np.max(np.abs(dr)) < 1e-13
    assert md.exchange_residual(st, 0.3, 0.1 + 0.2j) < 1e-12


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_stacked_checks_match_single_points(key):
    # a stack of spectral points gives each point's L bit for bit, and its
    # Lax and exchange residuals within 1e-15 of the point checked alone
    fam = rm.make_family(key, N=2, tau=0.3 + 0.9j, C=0.7 + 0.2j)
    st = md.random_state(fam, 3, 1.0, seed=61)
    rng = np.random.default_rng(67)
    zs = np.array([sf.sample_point(rng, fam.flavor) for _ in range(12)])
    # the twelve points are one chunk of the grid of one state
    (_, _, Ls, chunk), = md.lax_chunks([st], [md.bracket_flow(st)], zs)
    residuals = md.lax_check(st, zs)
    assert Ls.shape[:2] == chunk.shape == (1, 12)
    assert np.array_equal(chunk[0], residuals)
    for z, L, residual in zip(zs, Ls[0], residuals):
        assert np.array_equal(L, rf.build_L(st, z))
        assert abs(residual - md.lax_check(st, [z])[0]) <= 1e-15
    z, w = zs[:6], zs[6:]
    stacked = md.exchange_residual(st, z, w)
    assert stacked.shape == (6,)
    for k in range(6):
        one = md.exchange_residual(st, z[k], w[k])
        assert type(one) is float and abs(stacked[k] - one) <= 1e-15


def test_exchange_scale_guard():
    # the largest arrays of the residual are its two support planes,
    # 2 M^3 N^4 entries each: at M = 1 that is twice one dense (MN)^4 block,
    # so N = 54 is over the budget; the check comes before the state is read
    for M, N in ((1, 54), (16, 8)):
        with pytest.raises(ScaleExceeded, match=f"N = {N}, M = {M}"):
            md.exchange_residual(SimpleNamespace(M=M, N=N), 0.3, 0.1)


def test_site_pair_embed():
    rng = np.random.default_rng(43)
    N, M = 2, 3
    A = rng.uniform(-1, 1, (N, N)) + 1j * rng.uniform(-1, 1, (N, N))
    B = rng.uniform(-1, 1, (N, N)) + 1j * rng.uniform(-1, 1, (N, N))
    T = rf.kron(A, B)
    got = tn.site_product(N, M, (T, 0, 2))
    expect = rf.kron(A, tn.eye(N), B)
    assert np.max(np.abs(got - expect)) < 1e-13
    got = tn.site_product(N, M, (T, 2, 0))
    expect = rf.kron(B, tn.eye(N), A)
    assert np.max(np.abs(got - expect)) < 1e-13


def test_cm_rmx_residual_small():
    rng = np.random.default_rng(47)
    for key in ("xxx", "11v"):
        fam = rm.make_family(key, N=2)
        q = md.random_positions(fam, 2, rng)
        p = tuple(rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        z = sf.sample_point(rng, fam.flavor)
        assert md.cm_rmx_residual(q, p, 1.0, fam, z) < 1e-12, key


def test_cm_rmx_N1_is_scalar_krichever():
    # N = 1: L_ab = d_ab p_a + nu (1 - d_ab) phi(z, q_a - q_b)
    fam = rm.make_family("xxx", N=1)
    rng = np.random.default_rng(53)
    q = md.random_positions(fam, 3, rng)
    p = tuple(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    z = 0.29 + 0.33j
    nu = 1.0
    L, _ = rf.cm_rmx_lax(q, p, nu, fam, z)
    for a in range(3):
        for b in range(3):
            if a == b:
                expect = p[a]
            else:
                expect = nu * sf.kronecker_phi(fam.flavor, z, q[a] - q[b])
            assert abs(L[a, b] - expect) < 1e-13
    assert md.cm_rmx_residual(q, p, nu, fam, z) < 1e-13


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_cm_rmx_one_family_call_per_table(family_calls, monkeypatch, key):
    # the Lax pair and the residual share one R call at the orders (0, 1)
    # over the ordered pairs and one r call at order 1 over the pairs
    # i < j; dH/dq is one E2' call over the ordered pairs
    fam = rm.make_family(key, N=2, tau=1j, C=0.7 + 0.2j)
    M = 3
    rng = np.random.default_rng(59)
    q = md.random_positions(fam, M, rng)
    p = tuple(rng.uniform(-1, 1, M) + 1j * rng.uniform(-1, 1, M))
    e2p = []
    kernel = sf.eisenstein_E2_prime
    monkeypatch.setattr(sf, "eisenstein_E2_prime",
                        lambda fl, z: e2p.append(z) or kernel(fl, z))
    assert md.cm_rmx_residual(q, p, 0.7, fam, 0.29 + 0.33j) < 1e-13
    assert Counter((name, d) for name, _, d in family_calls) == {
        ("R", (0, 1)): 1, ("r", 1): 1}
    (qs,), = [args[1:] for name, args, _ in family_calls if name == "R"]
    ordered = [q[i] - q[j] for i in range(M) for j in range(M) if i != j]
    assert np.array_equal(qs, ordered)
    (qs,), = [args for name, args, _ in family_calls if name == "r"]
    assert np.array_equal(qs, [q[0] - q[1], q[0] - q[2], q[1] - q[2]])
    assert len(e2p) == 1 and np.array_equal(e2p[0], ordered)


def test_cm_rmx_scale_guard():
    fam = rm.make_family("bb", N=2, tau=1j)
    with pytest.raises(ScaleExceeded):
        rf.cm_rmx_lax([0.1 * a for a in range(1, 10)], [0.0] * 9,
                      1.0, fam, 0.3 + 0.2j)


def test_load_model_config():
    cfg = {"family": "xxx", "N": 2, "M": 2, "nu": [1.0, 0.0],
           "spin_mode": "rank1", "seed": 3}
    fam, st, nu = md.load_model_config(cfg)
    assert nu == 1.0
    svals = np.linalg.svd(st.spin.assemble(), compute_uv=False)
    assert svals[0] > 1e-3
    assert svals[1] < 1e-12 * svals[0]
    assert rf.on_constraints(st.spin, 1.0)
    # the same seed must reproduce the same state
    _, st2, _ = md.load_model_config(cfg)
    assert np.array_equal(st2.q, st.q) and np.array_equal(st2.p, st.p)


def _draw_before_sharing(family, M, nu, seed, spin_mode, q0=None, p0=None):
    """The draw sequence of a state, written out: one generator draws the
    spin's seed, then the positions (unless given), then the momenta."""
    rng = np.random.default_rng(seed)
    make_spin = md.spin_rank1 if spin_mode == "rank1" else md.spin_general
    spin = make_spin(M, family.N, nu, rng.integers(2 ** 63))
    q = q0 if q0 is not None else md.random_positions(family, M, rng)
    p = p0 if p0 is not None else tuple(
        rng.uniform(-1, 1, M) + 1j * rng.uniform(-1, 1, M))
    return tuple(q), tuple(p), spin.matrix


def test_config_and_random_state_draw_identically():
    q0 = ((0.1, 0.0), (0.5, 0.2), (0.3, 0.7))
    p0 = ((0.2, -0.1), (0.0, 0.4), (-0.3, 0.0))
    for kind, extra in (("xxx", {}), ("bb", {"tau": [0.1, 1.1]})):
        for spin_mode in ("rank1", "general"):
            for seed in (0, 7, 123):
                cfg = {"family": kind, "N": 2, "M": 3, "nu": [0.8, 0.1],
                       "spin_mode": spin_mode, "seed": seed, **extra}
                fam, st, nu = md.load_model_config(cfg)
                states = [st, md.random_state(fam, 3, nu, seed, spin_mode)]
                want = _draw_before_sharing(fam, 3, nu, seed, spin_mode)
                for s in states:
                    assert np.array_equal(s.q, want[0])
                    assert np.array_equal(s.p, want[1])
                    assert np.array_equal(s.spin.matrix, want[2])
                # a given q0 or p0 skips its draw and keeps the others
                q = tuple(complex(*v) for v in q0)
                p = tuple(complex(*v) for v in p0)
                for over, kw in (({"q0": q0}, {"q0": q}),
                                 ({"p0": p0}, {"p0": p})):
                    _, s, _ = md.load_model_config({**cfg, **over})
                    want = _draw_before_sharing(fam, 3, nu, seed, spin_mode,
                                                **kw)
                    assert np.array_equal(s.q, want[0])
                    assert np.array_equal(s.p, want[1])
                    assert np.array_equal(s.spin.matrix, want[2])


def test_lax_residuals_share_one_bracket_flow(monkeypatch):
    calls = []
    flow = md.bracket_flow

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(md, "bracket_flow", counted)
    for key in ("xxx", "bb"):
        fam = rm.make_family(key, N=2, tau=1j)
        st = md.random_state(fam, 3, 1.0, seed=31)
        zs = [0.31 + 0.22j, 0.52 + 0.41j, 0.17 + 0.63j]
        want = [md.lax_check(st, [z])[0] for z in zs]
        del calls[:]
        assert md.lax_check(st, zs).tolist() == want
        assert len(calls) == 1


@pytest.mark.parametrize("key", ["xxx", "bb"])
def test_lax_residual_one_table_per_point(family_calls, monkeypatch, key):
    # L, M and {H, L} of a chunk of points share one stack of pair tables:
    # one R call at the orders (0, 1) over the chunk's points against all
    # ordered pairs and one Rz_coefficients call for its diagonals; the
    # bracket flow adds one r call at the orders (1, 2) over the pairs
    # i < j and one m0
    fam = rm.make_family(key, N=2, tau=1j)
    M = 3
    st = md.random_state(fam, M, 1.0, seed=31)
    zs = [0.31 + 0.22j, 0.52 + 0.41j, 0.17 + 0.63j, 0.44 + 0.12j,
          0.61 + 0.35j]
    q = np.array(st.q)
    ordered = [q[i] - q[j] for i in range(M) for j in range(M) if i != j]
    # the default budget takes all five points at once; two tables' worth
    # takes them in chunks of two
    pairs_of_two = [zs[:2], zs[2:4], zs[4:]]
    for budget, chunks in ((tn.STACK_BYTES, [zs]),
                           (2 * 16 * M * M * 2 ** 4, pairs_of_two)):
        monkeypatch.setattr(tn, "STACK_BYTES", budget)
        # a fresh state each time, whose F0 table is not yet read
        st = md.random_state(fam, M, 1.0, seed=31)
        del family_calls[:]
        md.lax_check(st, zs)
        assert Counter((name, d) for name, _, d in family_calls) == {
            ("R", (0, 1)): len(chunks), ("Rz_coefficients", None): len(chunks),
            ("r", (1, 2)): 1, ("m0", None): 1}
        tables = [args for name, args, _ in family_calls if name == "R"]
        assert [z.ravel().tolist() for z, _ in tables] == chunks
        for _, qs in tables:
            assert np.array_equal(qs, ordered)
        diagonals = [args[0] for name, args, _ in family_calls
                     if name == "Rz_coefficients"]
        assert [z.tolist() for z in diagonals] == chunks
        flows = [args for name, args, _ in family_calls if name == "r"]
        for (qs,) in flows:
            assert np.array_equal(qs, [q[0] - q[1], q[0] - q[2], q[1] - q[2]])


@pytest.mark.parametrize("key", ["xxx", "bb"])
def test_exchange_residual_one_table_per_argument(family_calls, monkeypatch,
                                                  key):
    # the pair tables of z, w, z - w and w - z of a chunk of pairs are one
    # stack: one R call at the orders (0, 1) over the chunk's spectral
    # points against all ordered pairs, and one Rz_coefficients call for
    # their diagonals
    fam = rm.make_family(key, N=2, tau=1j)
    M = 3
    st = md.random_state(fam, M, 1.0, seed=37)
    zs = np.array([0.41 + 0.13j, 0.21 + 0.33j, 0.62 + 0.71j, 0.35 + 0.48j])
    ws = np.array([0.17 + 0.52j, 0.73 + 0.24j, 0.11 + 0.15j, 0.56 + 0.83j])
    points = np.stack([zs, ws, zs - ws, ws - zs], axis=-1)
    q = np.array(st.q)
    ordered = [q[i] - q[j] for i in range(M) for j in range(M) if i != j]
    # the default budget takes all four pairs at once; three pairs' support
    # planes take them in chunks of three
    for budget, chunks in ((tn.STACK_BYTES, [points]),
                           (3 * 16 * 2 * M ** 3 * 2 ** 4,
                            [points[:3], points[3:]])):
        monkeypatch.setattr(tn, "STACK_BYTES", budget)
        del family_calls[:]
        md.exchange_residual(st, zs, ws)
        assert Counter((name, d) for name, _, d in family_calls) == {
            ("R", (0, 1)): len(chunks), ("Rz_coefficients", None): len(chunks)}
        tables = [args for name, args, _ in family_calls if name == "R"]
        diagonals = [args[0] for name, args, _ in family_calls
                     if name == "Rz_coefficients"]
        for (spectral, qs), diagonal, chunk in zip(tables, diagonals, chunks):
            assert np.array_equal(spectral, chunk[..., None])
            assert np.array_equal(qs, ordered)
            assert np.array_equal(diagonal, chunk)


def _support_planes(X, M, N):
    """A dense (MN)^2 x (MN)^2 array, primed factors first, on the two
    support planes of the exchange relation (l = i, and k = j, which holds
    the overlap), and the largest |X| off them."""
    X = X.reshape((M, M, N, N) * 2)     # [i, k, a, c, j, l, b, d]
    s = np.arange(M)
    planes = np.stack([X[s, :, :, :, :, s], X[:, s, :, :, s]]).transpose(
        0, 1, 2, 5, 3, 4, 6, 7)
    planes[0][:, s, s] = 0
    off = X.copy()
    off[s, :, :, :, :, s] = 0
    off[:, s, :, :, s] = 0
    return planes, np.max(np.abs(off))


def _off_constraint_state(fam, M, seed):
    # a spin off the constraint surface, so that the q-derivative term of
    # the exchange relation does not vanish
    N = fam.N
    rng = np.random.default_rng(seed)
    spin = md.SpinConfig(M, N, rng.uniform(-1, 1, (M, M, N, N))
                         + 1j * rng.uniform(-1, 1, (M, M, N, N)))
    return rf.replace(md.random_state(fam, M, 1.0, seed=seed), spin=spin)


@pytest.mark.parametrize("key, N", [
    ("xxx", 2), ("11v", 2), ("xxz", 2), ("7v", 2), ("bb", 2), ("bb", 3)])
def test_exchange_rhs_matches_dense_commutators(key, N):
    # the support planes of the r-matrix side against the dense
    # (MN)^2 x (MN)^2 commutators of the dynamical r-matrix, which vanish
    # off the support
    fam = rm.make_family(key, N=N, tau=0.3 + 0.9j, C=0.7 + 0.2j)
    z, w = 0.41 + 0.13j, 0.17 + 0.52j
    for M in (1, 2, 3, 4):
        st = _off_constraint_state(fam, M, 47)
        dim = (M * N) ** 2
        eM, eN = np.eye(M), np.eye(N)
        Lz, Lw = (rf.build_L(st, v).reshape(M, N, M, N) for v in (z, w))
        L1 = np.einsum("iajb,kl,cd->ikacjlbd", Lz, eM, eN).reshape(dim, dim)
        L2 = np.einsum("ij,ab,kcld->ikacjlbd", eM, eN, Lw).reshape(dim, dim)
        r = rf.classical_r_big(st, z, w)
        # r_{2'1'21}(w, z): both factor pairs of r(w, z) swapped
        rt = rf.classical_r_big(st, w, z).reshape((M, M, N, N) * 2) \
            .transpose(1, 0, 3, 2, 5, 4, 7, 6).reshape(dim, dim)
        # -c1, c2 and dr, the terms as they enter the residual
        want = (r @ L1 - L1 @ r, L2 @ rt - rt @ L2,
                rf.r_big_q_derivative_sum(st, z, w))
        R, F = md._pair_tables(st.family, st.q,
                               np.array([[z, w, z - w, w - z]]))
        buf = np.empty((1, 2, M, M, M, N, N, N, N), dtype=complex)
        # the commutator terms come in turn in one buffer, so each is
        # checked before the next is asked for
        got = itertools.chain(md._exchange_rhs(st, R, buf),
                              [md._dr_overlap(st, F[:, 2])])
        # the trace weight tr S^ii - tr S^jj is zero at M = 1
        assert np.max(np.abs(want[2])) > (0.1 if M > 1 else -1)
        s = np.arange(M)
        for k, (g, v) in enumerate(zip(got, want)):
            planes, off = _support_planes(v, M, N)
            bound = 1e-13 * max(np.max(np.abs(v)), 1.0)
            assert off <= bound
            if k == 2:
                # dr: the overlap blocks W, zero elsewhere on the planes
                overlap = planes[1][:, s, s].copy()
                planes[1][:, s, s] = 0
                assert np.max(np.abs(planes)) <= bound
                planes = overlap
            assert g.shape == (1,) + planes.shape
            assert np.max(np.abs(g[0] - planes)) <= bound, (key, N, M)


def _bracket_oracle(st, z, w):
    """{L_{1'1}(z), L_{2'2}(w)} as a dense (MN)^2 x (MN)^2 array, primed
    factors first, from build_L alone.

    L is linear in S and p: its spin gradient is L on the unit spins at
    p = 0, contracted with the gl(NM) Lie-Poisson tensor
    {S_ab, S_cd} = S_cb d_ad - S_ad d_cb, and its p_m-derivative is L on
    the zero spin at p = e_m.  The canonical part, {p_m, q_m} = 1, takes
    the q_m-derivative from the contour oracle on a circle of 1/8 of the
    nearest pair pole distance."""
    M, N = st.M, st.N
    n = M * N
    q, e = np.array(st.q), np.eye(M)

    def L_at(v, spin=st.spin, p=st.p, q=q):
        return rf.build_L(rf.replace(st, q=q, p=p, spin=spin), v)

    units = np.eye(n * n).reshape(n * n, n, n)
    grads = [np.array([L_at(v, md.spin_from_matrix(E, M, N), np.zeros(M))
                       for E in units]) for v in (z, w)]
    S, eye = st.spin.matrix, np.eye(n)
    poisson = np.einsum("cb,ad->abcd", S, eye) \
        - np.einsum("ad,cb->abcd", S, eye)
    out = np.einsum("pIJ,pq,qKL->IJKL", grads[0],
                    poisson.reshape(n * n, n * n), grads[1])
    zero = md.spin_from_matrix(np.zeros((n, n)), M, N)
    pairs = np.subtract.outer(q, q)[~np.eye(M, dtype=bool)]
    radius = min(st.family.pole_distance(pairs), default=1.0) / 8
    for m in range(M):
        dp = [L_at(v, zero, e[m]) for v in (z, w)]
        dq = [sf.laurent_coefficients(
            lambda hs: np.array([L_at(v, q=q + h * e[m]) for h in hs]),
            0.0, radius, (1,))[0] for v in (z, w)]
        out += np.einsum("IJ,KL->IJKL", dp[0], dq[1]) \
            - np.einsum("IJ,KL->IJKL", dq[0], dp[1])
    # [i, a, j, b, k, c, l, d] -> [i, k, a, c, j, l, b, d]
    return out.reshape((M, N) * 4).transpose(0, 4, 1, 5, 2, 6, 3, 7) \
        .reshape(n * n, n * n)


@pytest.mark.parametrize("key, N", [("xxx", 2), ("bb", 2), ("bb", 3)])
def test_exchange_lhs_matches_bracket_oracle(key, N):
    # the Poisson-bracket side on its support planes against the bracket
    # of two Lax matrices built from build_L alone, which vanishes off the
    # support
    fam = rm.make_family(key, N=N, tau=0.3 + 0.9j)
    z, w = 0.41 + 0.13j, 0.17 + 0.52j
    for M in (1, 2, 3):
        st = _off_constraint_state(fam, M, 53)
        want = _bracket_oracle(st, z, w)
        planes, off = _support_planes(want, M, N)
        R, F = md._pair_tables(st.family, st.q, [[z, w]])
        got = md._exchange_lhs(st, R, md._q_derivatives(st, F))[0]
        scale = np.max(np.abs(want))
        assert got.shape == planes.shape
        assert off <= 1e-13 * scale
        assert np.max(np.abs(got - planes)) <= 1e-13 * scale, (key, N, M)


@pytest.mark.parametrize("key", ["xxx", "bb"])
def test_flow_and_energy_one_family_call(family_calls, key):
    # eom_rhs, bracket_flow and hamiltonian each take F0 and F0' of every
    # pair from one r call at the orders (1, 2), besides one m0 read for
    # the single-top terms of every site
    fam = rm.make_family(key, N=2, tau=1j)
    M = 4
    for run in (md.eom_rhs, md.bracket_flow, md.hamiltonian):
        # a fresh state for each, whose F0 table is not yet read
        st = md.random_state(fam, M, 1.0, seed=3)
        del family_calls[:]
        run(st)
        assert Counter((name, d) for name, _, d in family_calls) == {
            ("r", (1, 2)): 1, ("m0", None): 1}, run.__name__


@pytest.mark.parametrize("key", ["xxx", "bb"])
def test_state_reads_its_f0_table_once(family_calls, key):
    # H, both flows and the Lax check at one point share the state's F0
    # table: one r call at the orders (1, 2) among them all; a state made
    # from a phase vector has read none yet
    fam = rm.make_family(key, N=2, tau=1j)
    st = md.random_state(fam, 3, 1.0, seed=5)
    del family_calls[:]
    md.hamiltonian(st)
    md.eom_rhs(st)
    md.bracket_flow(st)
    md.lax_check(st, [0.31 + 0.22j, 0.52 + 0.41j])
    assert sum((name, d) == ("r", (1, 2))
               for name, _, d in family_calls) == 1
    assert "f0_table" in vars(st)
    assert "f0_table" not in vars(st.from_vector(st.vector))


@pytest.mark.parametrize("key, N, kwargs", [
    ("xxx", 2, {}), ("xxx", 3, {}), ("11v", 2, {}), ("xxz", 2, {}),
    ("7v", 2, {"C": 0.7 + 0.2j}), ("bb", 2, {"tau": 0.3 + 0.9j}),
    ("bb", 3, {"tau": 1j})])
def test_stacked_f0_tables_keep_each_states_bits(family_calls, key, N,
                                                 kwargs):
    # one r call over the pairs of three sets of positions gives each the
    # bits of its own call, which is PhaseState.f0_table's; a state made
    # from a phase vector with a table keeps it and makes none
    fam = rm.make_family(key, N=N, **kwargs)
    for M in (1, 2, 5):
        states = [md.random_state(fam, M, 1.0, seed=seed)
                  for seed in (M, M + 1, M + 2)]
        del family_calls[:]
        tables = md.f0_tables(fam, np.array([st.q for st in states]))
        assert [name for name, _, _ in family_calls] == ["r"]
        for st, table in zip(states, tables):
            assert len(table) == 4
            for got, want in zip(table, st.f0_table):
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        del family_calls[:]
        kept = states[0].from_vector(states[0].vector, tables[0])
        assert kept.f0_table is tables[0] and family_calls == []


def test_bb_bracket_flow_series_count(theta_calls):
    fam = rm.make_family("bb", N=2, tau=1j)
    md.bracket_flow(md.random_state(fam, 4, 1.0, seed=3))
    # the same point as a fresh state, whose F0 table is not yet read
    st = md.random_state(fam, 4, 1.0, seed=3)
    del theta_calls[:]
    md.bracket_flow(st)
    # one F0/F0' table for all 6 pairs, from one series over 6 + 18
    # arguments (the omega_a are the family's constants)
    assert [(len(args), upto) for args, upto in theta_calls] == [(24, 3)]


def _per_pair_reference(state):
    """(H, dS, dp) written pair by pair with one family call per pair, as
    the pair potential and the bracket-flow gradients read on paper."""
    fam, spin = state.family, state.spin
    M, N = spin.M, spin.N
    P = tn.permutation_P(N)
    m0 = fam.m0()
    H = 0.5 * sum(p * p for p in state.p)
    for i in range(M):
        H += rf.top_H(fam, spin.blocks[i, i])
    G = np.zeros((M * N, M * N), dtype=complex)
    grad = tn.as_block_grid(G, M, N)
    dH = np.zeros(M, dtype=complex)
    for i in range(M):
        Sii = spin.blocks[i, i]
        grad[i, i] += 0.5 * (tn.op_contract(m0, Sii).T
                             + tn.op_contract_1(m0, Sii).T)
    for i in range(M):
        for j in range(i + 1, M):
            F0, dF0 = fam.r(state.q[i] - state.q[j], (1, 2))
            # tr_12(F^0_21 P_12 ...) with F^0_21 = P F^0 P
            W, Wd = P @ F0 @ P @ P, P @ dF0 @ P @ P
            pair = rf.kron(spin.blocks[i, j], spin.blocks[j, i])
            H += complex(np.trace(W @ pair))
            grad[i, j] += tn.op_contract(W, spin.blocks[j, i]).T
            grad[j, i] += tn.op_contract_1(W, spin.blocks[i, j]).T
            g = complex(np.trace(Wd @ pair))
            dH[i] += g
            dH[j] -= g
    S, Gt = spin.matrix, G.T
    return complex(H), S @ Gt - Gt @ S, -dH


@pytest.mark.parametrize("key, kwargs", [
    ("xxx", {}), ("11v", {}), ("xxz", {}), ("7v", {"C": 0.7 + 0.2j}),
    ("bb", {"tau": 0.3 + 0.9j})])
def test_pair_stacks_match_per_pair_loop(key, kwargs):
    # one family call over all pairs against one call per pair: the same
    # values in the same summation order, so equal, not merely close (the
    # elliptic family sums its series per batch, so there only close)
    fam = rm.make_family(key, N=2, **kwargs)
    for seed, M in ((41, 3), (43, 5)):
        st = md.random_state(fam, M, 1.0, seed=seed)
        H, dS, dp = _per_pair_reference(st)
        got = (md.hamiltonian(st), md.bracket_flow(st)[2]
               .swapaxes(1, 2).reshape(dS.shape), md.bracket_flow(st)[1])
        for g, want in zip(got, (H, dS, dp)):
            if key == "bb":
                assert np.max(np.abs(g - want)) \
                    <= 1e-13 * max(np.max(np.abs(want)), 1.0)
            else:
                assert np.array_equal(g, want), key


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_sums_match_loop_sums(key):
    # H and dH/dq as whole-array running sums add their terms in the order
    # of the loops of rf.hamiltonian and rf.ham_q_gradient: the same bits
    fam = rm.make_family(key, N=2, **_FAMILY_ARGS[key])
    for M in (1, 2, 3, 8):
        for seed in (M, M + 10):
            st = md.random_state(fam, M, 1.0 + 0.5j, seed=seed,
                                 spin_mode=("general", "rank1")[seed > 10])
            H = np.array([md.hamiltonian(st), rf.hamiltonian(st)])
            bits = H.view(np.uint64).reshape(2, 2)
            assert np.array_equal(bits[0], bits[1]), (key, M, seed)
            dp = md.bracket_flow(st)[1]
            assert np.array_equal(dp.view(np.uint64),
                                  (-rf.ham_q_gradient(st)).view(np.uint64))


def test_bracket_flow_arrays():
    fam = rm.make_family("xxx", N=2)
    st = md.random_state(fam, 3, 1.0, seed=19)
    dq, dp, dS = md.bracket_flow(st)
    assert dq.shape == dp.shape == (3,)
    assert dS.shape == (3, 3, 2, 2)
    # dS is the block view of one NM x NM matrix
    big = dS.swapaxes(1, 2).reshape(6, 6)
    assert np.shares_memory(big, dS)
    assert np.array_equal(np.block([[b for b in row] for row in dS]), big)


def test_load_model_config_errors():
    with pytest.raises(ValueError):
        md.load_model_config({"family": "bad", "nu": [1.0, 0.0]})
    with pytest.raises(ValueError):
        md.load_model_config({"family": "xxx"})  # nu missing
    with pytest.raises(ValueError):
        md.load_model_config({"family": "xxx", "nu": [[1, 0], [2, 0]]})
    with pytest.raises(ValueError):
        md.load_model_config({"family": "xxx", "nu": [1.0, 0.0],
                              "spin_mode": "sideways"})
    with pytest.raises(ValueError):
        md.load_model_config({"family": "xxx", "nu": [1.0, 0.0],
                              "M": 2, "q0": [[0.1, 0.0]]})


def test_load_model_config_equal_per_site_nu():
    cfg = {"family": "xxx", "nu": [[1.0, 0.0], [1.0, 0.0]], "seed": 1}
    _, _, nu = md.load_model_config(cfg)
    assert nu == 1.0


# The config fuzz perturbs valid configurations: up to three fields are
# replaced by arbitrary JSON values or deleted.  Numbers stay small so that no
# draw asks for a large model (N and M size every array the loader
# allocates); NaN, infinities and huge integers are in, as the JSON reader
# accepts them.
_json_scalars = (hs.none() | hs.booleans() | hs.integers(-3, 6)
                 | hs.floats(-8, 8) | hs.text(max_size=3)
                 | hs.sampled_from([float("nan"), float("inf"),
                                    -float("inf"), 1e300, 2 ** 70, 2.5]))
_json_values = hs.recursive(
    _json_scalars,
    lambda kids: hs.lists(kids, max_size=4)
    | hs.dictionaries(hs.text(max_size=3), kids, max_size=3),
    max_leaves=8)
_pair = hs.tuples(hs.floats(-1, 1), hs.floats(0.5, 1.5)).map(list)
_valid = hs.fixed_dictionaries(
    {"family": hs.sampled_from(rm.FAMILY_KEYS), "N": hs.integers(1, 3),
     "M": hs.integers(1, 3), "tau": _pair, "C": _pair, "nu": _pair,
     "spin_mode": hs.sampled_from(["rank1", "general"]),
     "seed": hs.integers(0, 2 ** 64)},
    optional={"q0": hs.lists(_pair, min_size=1, max_size=3),
              "p0": hs.lists(_pair, min_size=1, max_size=3)})
_nasty = hs.sampled_from([
    float("nan"), float("inf"), -1, 0, 2.5, True, "x", [], {}, [[0, 1]],
    [[0.1, 0.0], [0.1, 0.0], [0.1, 0.0]]]) | hs.sampled_from([
        [float("nan"), 0.0], [0.0, float("inf")], [2 ** 1100, 0]])
_edits = hs.dictionaries(
    hs.sampled_from(["family", "N", "M", "tau", "C", "nu", "spin_mode",
                     "seed", "q0", "p0"]),
    hs.none() | _nasty | _json_values | hs.lists(_json_values, max_size=3),
    min_size=1, max_size=3)


def _edited(cfg, edits):
    out = dict(cfg)
    for key, value in edits.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = value
    return out


# a string config is a file path, so top-level strings are left out
_configs = (hs.builds(_edited, _valid, _edits)
            | _json_values.filter(lambda v: not isinstance(v, str)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_configs)
def test_load_model_config_fuzz(cfg):
    # every input either loads or raises a package or value error (exit 2)
    try:
        family, state, nu = md.load_model_config(cfg)
    except (ValueError, ToplaxError):
        return
    assert np.isfinite(nu)
    assert np.all(np.isfinite(state.q)) and np.all(np.isfinite(state.p))
    assert rf.on_constraints(state.spin, nu, tol=1e-8 * max(abs(nu), 1.0))
