"""Unit tests for the R-matrix families and their classical data."""

import cmath
import functools
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from toplax import rmatrix as rm
from toplax import specfun as sf
from toplax import tensor as tn
from toplax.errors import Overflow, PoleProximity

import reference as rf


def richardson_dq(f, q, h=1e-3):
    d1 = (f(q + h) - f(q - h)) / (2 * h)
    d2 = (f(q + h / 2) - f(q - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def test_make_family_keys():
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, N=2, tau=1j, C=0.7 + 0.2j)
        assert fam.N == 2
    with pytest.raises(ValueError):
        rm.make_family("nope")
    # 11v, xxz and 7v are defined at N = 2 only
    for key in ("11v", "xxz", "7v"):
        for N in (1, 3):
            with pytest.raises(ValueError, match="N = 2 only"):
                rm.make_family(key, N=N, C=0.7 + 0.2j)


def test_yang_explicit():
    fam = rm.make_family("xxx", N=2)
    got = fam.R(1.0, 2.0)
    expect = tn.eye(4) + tn.permutation_P(2) / 2.0
    assert np.max(np.abs(got - expect)) < 1e-15
    assert np.max(np.abs(fam.m(0.3))) < 1e-15


def test_eleven_vertex_R_entries():
    fam = rm.make_family("11v")
    R = fam.R(1.0, 1.0)
    assert abs(R[0, 0] - 2.0) < 1e-13
    assert abs(R[3, 0] + 6.0) < 1e-13  # -h^3 - 2zh^2 - 2hz^2 - z^3 at h=z=1


def test_eleven_vertex_r_entries():
    r = rm.make_family("11v").r(2.0)
    assert abs(r[0, 0] - 0.5) < 1e-13
    assert abs(r[1, 0] + 2.0) < 1e-13
    assert abs(r[3, 0] + 8.0) < 1e-13
    assert abs(r[3, 1] - 2.0) < 1e-13


def test_eleven_vertex_F0_entries():
    F0 = rm.make_family("11v").r(1.0, 1)
    assert abs(F0[0, 0] + 1.0) < 1e-13
    assert abs(F0[3, 0] + 3.0) < 1e-13
    assert abs(F0[3, 1] - 1.0) < 1e-13


def test_seven_vertex_corner_entries():
    C = 0.7 + 0.2j
    fam = rm.make_family("7v", C=C)
    z = 0.4 + 0.1j
    assert abs(fam.r(z)[3, 0] - C * np.sinh(z)) < 1e-13
    F0P = fam.r(z, 1) @ tn.permutation_P(2)
    assert abs(F0P[1, 1] + np.cosh(z) / np.sinh(z) ** 2) < 1e-12


def test_seven_vertex_C0_is_xxz():
    fam7 = rm.make_family("7v", C=0.0)
    famx = rm.make_family("xxz")
    for h, z in ((0.3, 0.7), (0.2 + 0.1j, 0.5 - 0.2j)):
        assert np.max(np.abs(fam7.R(h, z) - famx.R(h, z))) < 1e-13
        assert np.max(np.abs(fam7.r(z) - famx.r(z))) < 1e-13
        assert np.max(np.abs(fam7.m(z) - famx.m(z))) < 1e-13


def test_eleven_vertex_scaled_limit_is_yang():
    # eps^-1 R^{eps h}(eps z) -> Yang as eps -> 0
    fam = rm.make_family("11v")
    yang = rm.make_family("xxx", N=2)
    h, z = 0.7, 0.4
    err = {}
    for eps in (1e-3, 1e-4):
        scaled = eps * fam.R(eps * h, eps * z)
        err[eps] = float(np.max(np.abs(scaled - yang.R(h, z))))
    assert err[1e-4] < 1e-3
    assert err[1e-4] < 0.2 * err[1e-3]  # linear (or faster) decay in eps


def test_F0_matches_difference_of_r():
    rng = np.random.default_rng(0)
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        for _ in range(20):
            q = rm._draw(rng, fam, margin=0.1)
            diff = richardson_dq(fam.r, q)
            assert np.max(np.abs(fam.r(q, 1) - diff)) < 1e-7 * max(
                1.0, float(np.max(np.abs(diff)))), key


def test_F_matches_difference_of_R():
    rng = np.random.default_rng(1)
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        z = rm._draw(rng, fam, margin=0.1)
        q = rm._draw(rng, fam, margin=0.1)
        diff = richardson_dq(lambda u: fam.R(z, u), q)
        scale = max(1.0, float(np.max(np.abs(diff))))
        assert np.max(np.abs(fam.R(z, q, 1) - diff)) < 1e-6 * scale, key


def test_m_matches_hbar_expansion():
    # R^h(z) - h^-1 1 - r(z) - h m(z) = O(h^2), via two h levels
    rng = np.random.default_rng(2)
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        z = rm._draw(rng, fam, margin=0.1)

        def tail(h):
            return fam.R(h, z) - tn.eye(fam.N ** 2) / h - fam.r(z) \
                - h * fam.m(z)

        t1 = float(np.max(np.abs(tail(1e-3))))
        t2 = float(np.max(np.abs(tail(5e-4))))
        assert t1 < 1e-4, key
        assert t2 < 0.35 * t1 + 1e-12, key


def test_skew_symmetry_of_classical_data():
    P = tn.permutation_P(2)
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        z = 0.31 + 0.17j
        assert np.max(np.abs(fam.r(z) + P @ fam.r(-z) @ P)) < 1e-12, key
        assert np.max(np.abs(fam.m(z) - P @ fam.m(-z) @ P)) < 1e-12, key


MIRROR_FAMILIES = [rm.make_family(key, tau=1j, C=0.7 + 0.2j)
                   for key in rm.FAMILY_KEYS] + [
    rm.make_family("bb", N=3, tau=0.3 + 0.8j)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hs.floats(-1.5, 1.5), hs.floats(-1.5, 1.5))
def test_F0_mirror_identities(a, b):
    # eom_rhs evaluates each pair once and takes the mirror pair from
    # F0(-q) = P F0(q) P and F0'(-q) = -P F0'(q) P (skew-symmetry of r);
    # it reads both orders from one r(q, (1, 2)) stack over its pairs,
    # which holds the matrices of the per-element calls
    q = complex(a, b)
    norm = np.linalg.norm
    for fam in MIRROR_FAMILIES:
        if fam.pole_distance(q) <= 0.1:
            continue
        P = tn.permutation_P(fam.N)
        stack = fam.r(np.array([q, -q]), (1, 2))
        for d, sign in ((0, 1.0), (1, -1.0)):
            lhs = fam.r(-q, 1 + d)
            rhs = sign * P @ fam.r(q, 1 + d) @ P
            assert norm(lhs - rhs) < 1e-12 * max(norm(lhs), norm(rhs)), \
                f"{fam.kind} d={d} q={q}"
            for k, v in enumerate((q, -q)):
                one = fam.r(v, 1 + d)
                assert norm(stack[d][k] - one) <= 1e-13 * norm(one), \
                    f"{fam.kind} d={d} q={v}"


def _sector_basis(a, N):
    T, Tm = tn.sin_basis([a[0], -a[0]], [a[1], -a[1]], N)
    return rf.kron(T, Tm)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_bb_tensor_basis_is_each_sector_kron(N):
    # the stacked basis from one broadcast product of T_a and T_{-a} holds
    # T_a (x) T_{-a} of every sector, bit for bit
    fam = rm.make_family("bb", N=N, tau=1j)
    want = [_sector_basis(a, N).reshape(-1) for a, _ in rf.sectors(1j, N)]
    assert np.array_equal(fam._TT, want)


def _sector_dz(fl, a, N, z, w, order):
    """order-th z-derivative of phi_a(z, w) from the scalar kernels."""
    p = cmath.exp(2j * cmath.pi * a[1] * z / N) * sf.kronecker_phi(fl, z, w)
    d = (2j * cmath.pi * a[1] / N + sf.eisenstein_E1(fl, z + w)
         - sf.eisenstein_E1(fl, z))
    if order == 0:
        return p
    if order == 1:
        return p * d
    return p * (d * d + sf.eisenstein_E2(fl, z) - sf.eisenstein_E2(fl, z + w))


def _scalar_R(fam, hbar, z, dz):
    N, out = fam.N, 0.0
    for a, w in rf.sectors(fam.tau, N):
        out = out + _sector_dz(fam.flavor, a, N, z, w + hbar / N, dz) \
            * _sector_basis(a, N)
    return out / N


def _scalar_r(fam, z, d):
    fl = fam.flavor
    scal = (sf.eisenstein_E1(fl, z), -sf.eisenstein_E2(fl, z),
            -sf.eisenstein_E2_prime(fl, z))[d]
    N = fam.N
    out = scal * tn.eye(N ** 2)
    for a, w in rf.sectors(fam.tau, N)[1:]:
        out = out + _sector_dz(fl, a, N, z, w, d) * _sector_basis(a, N)
    return out / N


def _scalar_m(fam, z):
    fl = fam.flavor
    e1 = sf.eisenstein_E1(fl, z)
    N = fam.N
    out = (e1 * e1 - sf.weierstrass_p(fl, z)) / 2.0 * tn.eye(N ** 2)
    for a, _ in rf.sectors(fam.tau, N)[1:]:
        out = out + rf.sector_f(fl, a, N, z, 0.0) * _sector_basis(a, N)
    return out / N ** 2


def _sector_args_clear(fam, z, hbar, margin=0.05):
    for _, w in rf.sectors(fam.tau, fam.N):
        for x in (z, w + hbar / fam.N, z + w + hbar / fam.N, z + w):
            if fam.pole_distance(x) < margin:
                return False
    return True


def test_bb_matrices_match_scalar_kernels():
    # the sector table against the per-sector composition of phi, E1, E2
    # and E2' (one theta series per kernel call)
    rng = np.random.default_rng(11)

    def close(got, want):
        scale = np.linalg.norm(want)
        assert np.linalg.norm(got - want) <= 1e-13 * scale

    for N, tau in ((2, 1j), (2, 0.3 + 0.8j), (3, 0.1 + 1.1j)):
        fam = rm.make_family("bb", N=N, tau=tau)
        done = 0
        while done < 10:
            z, hbar = sf.sample_tuple(rng, fam.flavor, 2, 0.05)
            if not _sector_args_clear(fam, z, hbar):
                continue
            done += 1
            for d in (0, 1, 2):
                close(fam.r(z, d), _scalar_r(fam, z, d))
                close(fam.R(hbar, z, d), _scalar_R(fam, hbar, z, d))
            close(fam.m(z), _scalar_m(fam, z))
            F0, dF0 = fam.r(z, (1, 2))
            close(F0, _scalar_r(fam, z, 1))
            close(dF0, _scalar_r(fam, z, 2))
            R, F = fam.R(hbar, z, (0, 1))
            close(R, _scalar_R(fam, hbar, z, 0))
            close(F, _scalar_R(fam, hbar, z, 1))


def test_joint_orders_match_single_orders():
    # a tuple of orders gives the stacks of the single orders: exactly on
    # the closed forms, to rounding on bb, whose joint series goes to the
    # highest order
    rng = np.random.default_rng(12)
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        for _ in range(5):
            q, hbar = sf.sample_tuple(rng, fam.flavor, 2, 0.05)
            pairs = ((fam.r(q, (1, 2)), (fam.r(q, 1), fam.r(q, 2))),
                     (fam.R(hbar, q, (0, 1)), (fam.R(hbar, q),
                                              fam.R(hbar, q, 1))),
                     (fam.r(q, (2, 0, 1)), (fam.r(q, 2), fam.r(q),
                                            fam.r(q, 1))))
            for got, want in pairs:
                for g, w in zip(got, want):
                    if key == "bb":
                        err = np.linalg.norm(g - w)
                        assert err <= 1e-13 * np.linalg.norm(w)
                    else:
                        assert np.array_equal(g, w), key


def _omegas(fam, u=0.0):
    return [w + u for _, w in rf.sectors(fam.tau, fam.N)]


def test_bb_one_series_per_distinct_argument(theta_calls):
    # a modulus no other test uses, so the first call fills its caches
    N = 2
    fam = rm.make_family("bb", N=N, tau=0.41 + 0.87j)
    fam.r(0.31 + 0.22j, (1, 2))
    del theta_calls[:]
    # F0 and F0' of a whole array of z share one series (order 3, for
    # -E2') over each z alone: its sector weights give every z + omega_a
    zs = np.array([0.27 - 0.18j, 0.13 + 0.41j, -0.2 + 0.3j])
    fam.r(zs, (1, 2))
    assert theta_calls == [(tuple(zs), 3)]
    for dz in (0, 1, 2):
        del theta_calls[:]
        # z, hbar/N and z + hbar/N, to order dz + 1: the weights give
        # omega_a + hbar/N and z + omega_a + hbar/N of every sector
        hbar, z = 0.13 + 0.05j, 0.31 + 0.22j
        fam.R(hbar, z, dz)
        u = np.complex128(hbar) / N
        assert theta_calls == [((z, u, z + u), dz + 1)]
    # spectral points (2, 1) against three pair differences: each pair
    # difference enters once, not once per spectral point, each hbar/N
    # once, not once per pair, and no argument once per sector
    del theta_calls[:]
    hbars, qs = [0.13 + 0.05j, 0.2 - 0.1j], [0.31 + 0.22j, -0.1 + 0.4j, 0.5j]
    fam.R(np.reshape(hbars, (2, 1)), qs, (0, 1))
    us = [np.complex128(h) / N for h in hbars]
    want = qs + us + [q + u for u in us for q in qs]
    assert theta_calls == [(tuple(want), 2)]
    assert len(set(want)) == len(want)


def test_bb_eom_series_count(theta_calls):
    from toplax import model as md
    fam = rm.make_family("bb", N=2, tau=1j)
    md.eom_rhs(md.random_state(fam, 4, 1.0, seed=3))
    # the same point as a fresh state, whose F0 table is not yet read
    state = md.random_state(fam, 4, 1.0, seed=3)
    del theta_calls[:]
    md.eom_rhs(state)
    # one F0/F0' table for all 6 pairs, from one series over the 6 pair
    # differences (the sector weights give each q_ij + omega_a)
    assert [(len(args), upto) for args, upto in theta_calls] == [(6, 3)]


def test_bb_pole_guard_covers_each_argument_once(theta_calls):
    # the guard reads the cell reduction of the one series a matrix takes,
    # whose batch lists z, u and z + u once each, and reduces every w =
    # omega_a + u; r and m take the omega_a from the family's constants,
    # one series at 0 on first use
    N = 2
    fam = rm.make_family("bb", N=N, tau=1j)
    sf.kappa_const(fam.flavor)   # fills the modulus caches
    del theta_calls[:]
    z, hbar = 0.31 + 0.22j, 0.13 + 0.05j
    fam.r(z, 1)
    assert [args for args, _ in theta_calls] == [(0j,), (z,)]
    del theta_calls[:]
    fam.R(hbar, z)
    u = np.complex128(hbar) / N
    assert [args for args, _ in theta_calls] == [(z, u, z + u)]
    # the guard names the nearest of z and every omega_a + u, with its
    # distance: w of the sector (1, 1) 1e-9 from the pole 1 + tau, then z
    # nearer still
    omega = dict(rf.sectors(fam.tau, N))[1, 1]
    u = 1 + fam.tau - omega + 1e-9
    for z, near, distance in ((0.31 + 0.22j, omega + u, 1e-9),
                              (2e-10j, 2e-10j, 2e-10)):
        with pytest.raises(PoleProximity) as info:
            fam.R(N * u, z)
        got = info.value
        assert got.argument == near
        assert got.distance == pytest.approx(distance, rel=1e-6)


def test_bb_pole_guards_raise():
    # the guard fires at the true poles only: z on the lattice, and
    # omega_a + hbar/N on it (hbar on the lattice); where z + omega_a +
    # hbar/N is on it, phi_a vanishes and r, R and m are finite
    N = 2
    fam = rm.make_family("bb", N=N, tau=1j)
    hbar = 0.23 + 0.11j
    for bad in (1e-9, 1 + fam.tau + 1e-9j):
        with pytest.raises(PoleProximity):
            fam.r(bad)
        with pytest.raises(PoleProximity):
            fam.m(np.array([0.3 + 0.2j, bad]))
        # one bad element fails the whole array
        with pytest.raises(PoleProximity):
            fam.R(hbar, np.array([0.3 + 0.2j, bad]), (0, 1))
        with pytest.raises(PoleProximity):
            fam.R(bad, 0.3 + 0.2j)
    for _, w in rf.sectors(fam.tau, N)[1:]:
        # z + omega_a 1e-9 from the lattice point 1 + tau, and omega_a +
        # hbar/N + q on it: finite, an array holding the matrices of its
        # elements (mpmath checks the values below)
        q, qh = 1 + fam.tau - w + 1e-9, 1 + fam.tau - w - hbar / N
        pairs = ((fam.r(np.array([0.3 + 0.2j, q]), (0, 1, 2)),
                  fam.r(q, (0, 1, 2))),
                 (fam.R(hbar, np.array([0.3 + 0.2j, qh]), (0, 1, 2)),
                  fam.R(hbar, qh, (0, 1, 2))),
                 ([fam.m(np.array([0.3 + 0.2j, q]))], [fam.m(q)]))
        for stacks, ones in pairs:
            for stack, one in zip(stacks, ones):
                assert np.all(np.isfinite(stack))
                assert np.linalg.norm(stack[1] - one) \
                    <= 1e-13 * np.linalg.norm(one)


def _mp_bb(fam, q, hbar=None):
    """bb matrices at q from the mpmath sector functions and the kron
    basis: (r, r', r'', m), with r = (E1(q) 1 + sum_{a != 0} phi_a(q,
    omega_a) T_a (x) T_-a) / N and m = ((E1^2 - wp)(q) / 2 + sum_{a != 0}
    f_a(q, omega_a) T_a (x) T_-a) / N^2; or for a number hbar (R, R', R''),
    with R = sum_a phi_a(q, omega_a + hbar/N) T_a (x) T_-a / N."""
    N = fam.N
    if hbar is None:
        t = rf.mp_theta(complex(q), fam.tau, 3)
        kap = rf.mp_theta(0j, fam.tau, 3)
        e1 = t[1] / t[0]
        # E1, E1', E1'' and (E1^2 - wp)/2 = (theta''/theta - kappa/3)/2
        scal = [complex(v) for v in (
            e1, t[2] / t[0] - e1 ** 2,
            t[3] / t[0] - 3 * t[2] * t[1] / t[0] ** 2 + 2 * e1 ** 3,
            (t[2] / t[0] - kap[3] / (3 * kap[1])) / 2)]
        out = [v * tn.eye(N * N) for v in scal]
        sectors, shift = rf.sectors(fam.tau, N)[1:], 0.0
    else:
        out, sectors, shift = [0.0] * 3, rf.sectors(fam.tau, N), hbar / N
    for a, w in sectors:
        values = rf.mp_sector(a, N, q, w + shift, fam.tau)
        for k in range(len(out)):
            out[k] = out[k] + values[k] * _sector_basis(a, N)
    return [v / N ** (2 if k == 3 else 1) for k, v in enumerate(out)]


# the errors against mpmath at tau = 8i, where the derivative stacks miss
# 1e-13 (r'' and R'' worst): the kernel is held to these, not looser
MPMATH_ERROR = {(2, 8j): 3.6e-10, (3, 8j): 2.3e-11, (4, 8j): 6.6e-12}


@pytest.mark.parametrize("N, tau", [(N, tau) for N in (2, 3, 4) for tau in
                                    (1j, 0.3 + 0.8j, 0.1 + 0.3j, 8j)])
def test_bb_kernels_match_mpmath(N, tau):
    # r and its first two derivatives, m and r_and_m (the u = 0 table on
    # the family's omega constants) and R with its derivatives (u != 0)
    # against the mpmath sector sums, to 1e-13 relative (MPMATH_ERROR at
    # 8i), at arguments off the cell and on either side of it, whose z and
    # z + omega_a reduce with tau shifts n != 0, one by one and as one
    # stack
    pytest.importorskip("mpmath")
    bound = MPMATH_ERROR.get((N, tau), 1e-13)
    fam = rm.make_family("bb", N=N, tau=tau)
    hbar = 0.13 + 0.05j
    qs = np.array([0.23 + 0.71j, -0.31 - 0.64j, 0.4 + 1.3j, 0.17 + 0.38j,
                   -0.2 + 2.4j]) * fam.tau.imag
    assert np.any(np.abs(np.rint(qs.imag / fam.tau.imag)) >= 1)

    def close(got, want):
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    stacks = [*fam.r(qs, (0, 1, 2)), fam.m(qs), *fam.r_and_m(qs),
              *fam.R(hbar, qs, (0, 1, 2))]
    for k, q in enumerate(qs.tolist()):
        r, dr, ddr, m = _mp_bb(fam, q)
        want = [r, dr, ddr, m, r, m, *_mp_bb(fam, q, hbar)]
        got = [*fam.r(q, (0, 1, 2)), fam.m(q), *fam.r_and_m(q),
               *fam.R(hbar, q, (0, 1, 2))]
        for g, s, w in zip(got, stacks, want):
            close(g, w)
            close(s[k], w)


def test_bb_omega_constants_belong_to_their_family():
    # the omega constants are summed once per family and shared read-only;
    # families at another tau or N hold their own, of their own size
    fams = [rm.make_family("bb", N=N, tau=tau)
            for N, tau in ((2, 1j), (2, 0.3 + 0.8j), (3, 1j))]
    held = [fam.omega_constants for fam in fams]
    for fam, consts in zip(fams, held):
        assert fam.omega_constants is consts
        assert consts.shape == (5, fam.N ** 2)
        assert not consts.flags.writeable
        with pytest.raises(ValueError):
            consts[0, 0] = 1.0
    for k, a in enumerate(held):
        for b in held[k + 1:]:
            assert not np.shares_memory(a, b)
            assert a.shape != b.shape or not np.array_equal(a, b)
    # the same modulus and N again: an equal array, not the same one
    again = rm.make_family("bb", N=2, tau=1j).omega_constants
    assert again is not held[0] and np.array_equal(again, held[0])


@pytest.mark.parametrize("N, tau, sectors", [
    (2, 1j, [(0, 1), (1, 0), (1, 1)]), (3, 0.3 + 0.8j, [(1, 2), (2, 1)])])
def test_bb_matrices_at_the_zeros_of_phi(N, tau, sectors):
    # at q = -omega_a + lattice + delta, phi_a(q, omega_a) has its zero
    # (delta = 0) or is near it, and at q - hbar/N so has phi_a(q, omega_a
    # + hbar/N): r, its derivatives, m and R with its derivatives match
    # the mpmath sector sums to 1e-12
    pytest.importorskip("mpmath")
    fam = rm.make_family("bb", N=N, tau=tau)
    hbar = 0.23 + 0.11j
    for a1, a2 in sectors:
        w = dict(rf.sectors(fam.tau, N))[a1, a2]
        for delta in (0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-3j):
            q = 1 + fam.tau - w + delta
            got = [*fam.r(q, (0, 1, 2)), fam.m(q),
                   *fam.R(hbar, q - hbar / N, (0, 1, 2))]
            want = _mp_bb(fam, q) + _mp_bb(fam, q - hbar / N, hbar)
            for k, (g, v) in enumerate(zip(got, want)):
                assert np.linalg.norm(g - v) <= 1e-12 * np.linalg.norm(v), \
                    ((a1, a2), delta, k)


def test_bb_N1_number_and_array_give_the_same_bits():
    # at N = 1 r and m have no sector, so their theta series has one
    # argument for a number: it is summed as in a stack, and a number and
    # the same number inside an array give the same bits
    fam = rm.make_family("bb", N=1, tau=0.3 + 0.9j)
    zs = np.array([0.31 + 0.42j, 0.1 - 0.2j, 0.7 + 0.3j])
    for k, z in enumerate(zs.tolist()):
        for d in (0, 1, 2):
            assert np.array_equal(fam.r(zs, d)[k], fam.r(z, d))
        assert np.array_equal(fam.m(zs)[k], fam.m(z))
        assert np.array_equal(fam.R(0.2 + 0.1j, zs)[k], fam.R(0.2 + 0.1j, z))


def test_bb_far_off_the_cell():
    # ten periods up, where theta itself is about exp(314), r is finite and
    # keeps its skew-symmetry r(z) = -P r(-z) P
    fam = rm.make_family("bb", N=2, tau=1j)
    P = tn.permutation_P(2)
    for z in (0.3 + 10j, 0.3 - 10j):
        r = fam.r(z)
        assert np.all(np.isfinite(r))
        assert np.linalg.norm(r + P @ fam.r(-z) @ P) \
            <= 1e-12 * np.linalg.norm(r)


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_array_argument_stacks_scalar_matrices(key):
    # an array of z gives one matrix per element; the rational and
    # trigonometric closed forms are evaluated per element as for a number
    fam = rm.make_family(key, N=2, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    rng = np.random.default_rng(21)
    hbar = rm._draw(rng, fam, margin=0.1)
    zs = np.array([rm._draw(rng, fam, margin=0.1) for _ in range(5)])
    stacks = {"r": [fam.r(zs, d) for d in (0, 1, 2)],
              "R": [fam.R(hbar, zs, d) for d in (0, 1, 2)],
              "F0": list(fam.r(zs, (1, 2))),
              "RF": list(fam.R(hbar, zs, (0, 1)))}
    singles = {"r": [[fam.r(z, d) for z in zs] for d in (0, 1, 2)],
               "R": [[fam.R(hbar, z, d) for z in zs] for d in (0, 1, 2)],
               "F0": list(zip(*(fam.r(z, (1, 2)) for z in zs))),
               "RF": list(zip(*(fam.R(hbar, z, (0, 1)) for z in zs)))}
    for name, got in stacks.items():
        for g, w in zip(got, singles[name]):
            w = np.array(w)
            assert g.shape == (5, 4, 4), name
            if key == "bb":
                assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
            else:
                assert np.array_equal(g, w), (key, name)
    # no pairs (a single site) gives empty stacks
    for stack in fam.r(np.zeros(0, dtype=complex), (1, 2)):
        assert stack.shape == (0, 4, 4)


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_hbar_array_stacks_scalar_matrices(key):
    # hbar broadcasts against z, one matrix per element; m takes arrays
    # too; the rational and trigonometric closed forms are evaluated
    # per element as for numbers
    fam = rm.make_family(key, N=2, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    rng = np.random.default_rng(23)
    hs, zs = (np.array([rm._draw(rng, fam, margin=0.1) for _ in range(6)])
              .reshape(2, 3) for _ in range(2))

    def same(got, want):
        want = np.array(want)
        assert got.shape == want.shape
        if key == "bb":
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        else:
            assert np.array_equal(got, want)

    def each(fn, *arrays):
        out = [fn(*v) for v in zip(*(a.ravel() for a in arrays))]
        return np.array(out).reshape(arrays[0].shape + np.shape(out[0]))

    empty = np.zeros(0, dtype=complex)
    for dz in (0, 1, 2):
        same(fam.R(hs, zs, dz), each(lambda h, z: fam.R(h, z, dz), hs, zs))
        same(fam.R(hs[1, 2], zs, dz),
             each(lambda z: fam.R(hs[1, 2], z, dz), zs))
        assert fam.R(empty, empty, dz).shape == (0, 4, 4)
        assert fam.R(hs[0, 0], empty, dz).shape == (0, 4, 4)
    same(fam.m(zs), each(fam.m, zs))
    assert fam.m(empty).shape == (0, 4, 4)


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_spectral_array_against_pairs(key):
    # a (k, 1) array of spectral points against P pair differences gives
    # (k, P) stacks of R^z and F^z (F's spectral point broadcasts too), and
    # Rz_coefficients over the k points a (k,) stack: one call per point
    # gives the same matrices
    fam = rm.make_family(key, N=2, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    rng = np.random.default_rng(25)
    zs, qs = (np.array([rm._draw(rng, fam, margin=0.1) for _ in range(n)])
              for n in (3, 4))
    got = fam.R(zs[:, None], qs, (0, 1)) + fam.Rz_coefficients(zs)
    want = zip(*(fam.R(z, qs, (0, 1)) + fam.Rz_coefficients(z) for z in zs))
    for g, w in zip(got, want):
        w = np.array(w)
        assert g.shape == w.shape
        if key == "bb":
            assert np.linalg.norm(g - w) <= 1e-14 * np.linalg.norm(w)
        else:
            assert np.array_equal(g, w)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("key, N", [("xxx", 3), ("11v", 2), ("xxz", 2),
                                    ("7v", 2), ("bb", 2), ("bb", 3)])
def test_stacked_rows_keep_their_bits(key, N):
    # certify evaluates each kernel and order once over a (k, n) stack of
    # argument rows; each row holds the bits of its own (n,) call, with
    # hbar given per row or broadcast against every row
    fam = rm.make_family(key, N=N, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    rng = np.random.default_rng(29)
    hs, zs = (np.array([rm._draw(rng, fam, margin=0.1) for _ in range(12)])
              .reshape(4, 3) for _ in range(2))
    for d in (0, 1, 2):
        for h, stack in ((hs, fam.R(hs, zs, d)), (hs[0], fam.R(hs[0], zs, d))):
            for row, z in enumerate(zs):
                want = fam.R(h if np.ndim(h) == 1 else h[row], z, d)
                assert np.array_equal(_bits(stack[row]), _bits(want)), d
        stack = fam.r(zs, d)
        for row, z in enumerate(zs):
            assert np.array_equal(_bits(stack[row]), _bits(fam.r(z, d))), d
    stack = fam.m(zs)
    for row, z in enumerate(zs):
        assert np.array_equal(_bits(stack[row]), _bits(fam.m(z)))


@pytest.mark.parametrize("key, N", [("xxx", 3), ("11v", 2), ("xxz", 2),
                                    ("7v", 2), ("bb", 3)])
def test_long_stacks_keep_the_bits_of_short_ones(key, N):
    # 2000 rows, where bb's sector tables pass the 256 KiB from which numpy
    # reuses a temporary operand in place, give each row the bits it has in
    # a stack of 5 and, over the first 33 stacks of each size, in a stack
    # of 1 to 33 (numpy's vector loops and their remainders), so no report
    # depends on the chunk its sample sits in
    fam = rm.make_family(key, N=N, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    rng = np.random.default_rng(31)
    hs, zs = (np.array([rm._draw(rng, fam, margin=0.1) for _ in range(2000)])
              for _ in range(2))
    kernels = {"m": lambda h, z: (fam.m(z),),
               "Rz_coefficients": lambda h, z: fam.Rz_coefficients(z)}
    for d in (0, 1, 2):
        kernels[f"R{d}"] = lambda h, z, d=d: fam.R(h, z, (d,))
        kernels[f"r{d}"] = lambda h, z, d=d: fam.r(z, (d,))
    for name, kernel in kernels.items():
        stacks = kernel(hs, zs)
        for size, rows in [(5, 2000)] + [(n, 33 * n) for n in range(1, 34)]:
            parts = [kernel(hs[k:k + size], zs[k:k + size])
                     for k in range(0, rows, size)]
            for stack, short in zip(stacks, zip(*parts)):
                assert np.array_equal(_bits(stack[:rows]),
                                      _bits(np.concatenate(short))), \
                    (name, size)


N2_FAMILIES = [rm.make_family(key, C=0.7 + 0.2j)
               for key in ("xxx", "11v", "xxz", "7v")]
_far = hs.builds(complex, hs.floats(-1e300, 1e300), hs.floats(-4.0, 4.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_far, _far)
def test_n2_closed_forms_are_finite_or_overflow(z, h):
    # off the poles, R, r and m of xxx, 11v, xxz and 7v at N = 2 and real
    # parts up to 1e300 are finite matrices or raise Overflow, with no
    # warning: xxz's coth and csch stay finite at every finite z, 7v's
    # corner C sinh z, 11v's polynomials and xxx's powers of z overflow
    for fam in N2_FAMILIES:
        if min(fam.pole_distance(z), fam.pole_distance(h)) <= sf.POLE_EPS:
            continue
        kernels = [lambda: fam.R(h, z, (0, 1, 2)),
                   lambda: fam.R(np.array([h, z]), z, (0, 1, 2)),
                   lambda: fam.r(np.array([z, h]), (0, 1, 2)),
                   lambda: (fam.m(z),)]
        for kernel in kernels:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    stacks = kernel()
                except Overflow:
                    assert fam.kind != "xxz", (z, h)
                    continue
            assert all(np.isfinite(s).all() for s in stacks), (fam.kind, z, h)


def test_m0_cached_read_only():
    # r0 and m0 come from one evaluation on first use, then are shared
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        r0, m0 = fam.r0(), fam.m0()
        assert fam.m0() is m0 and fam.r0() is r0, key
        for got, want in zip((r0, m0), fam._r0_and_m0()):
            assert np.array_equal(got, want), key
            with pytest.raises(ValueError):
                got[0, 0] = 1.0


def test_r0_structure():
    # r0 is P-symmetric under right multiplication and skew under swap
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        P = tn.permutation_P(fam.N)
        r0 = fam.r0()
        assert np.max(np.abs(r0 - r0 @ P)) < 1e-10, key
        assert np.max(np.abs(r0 + P @ r0 @ P)) < 1e-10, key


def test_r1_is_m0_P():
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        P = tn.permutation_P(fam.N)
        measured = sf.laurent_coefficients(
            fam.r, 0.0, sf.LAURENT_RADIUS * sf.shortest_period(fam.flavor),
            (1,))[0]
        assert np.max(np.abs(measured - fam.m0() @ P)) < 1e-12, key
        assert np.max(np.abs(fam.r1() - fam.m0() @ P)) < 1e-12, key


def test_fourier_symmetry_spot_check():
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        P = tn.permutation_P(fam.N)
        h, z = 0.23 + 0.11j, 0.41 - 0.07j
        lhs = fam.R(h, z) @ P
        rhs = fam.R(z, h)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(
            1.0, float(np.max(np.abs(rhs)))), key


def test_Rz_expansion_accessors():
    # R^z(q) = q^-1 P + Rz0 + q Rz1 + O(q^2)
    fam = rm.make_family("bb", N=2, tau=1j)
    P = tn.permutation_P(2)
    z = 0.37 + 0.21j
    q = 1e-4
    Rz0, Rz1 = fam.Rz_coefficients(z)
    approx = P / q + Rz0 + q * Rz1
    assert np.max(np.abs(fam.R(z, q) - approx)) < 1e-5


def test_pole_guard_on_evaluation():
    fam = rm.make_family("xxx", N=2)
    with pytest.raises(PoleProximity):
        fam.R(1e-9, 0.5)
    with pytest.raises(PoleProximity):
        fam.r(0.0)
    # a joint call on a closed form fails if one element of its array is
    # inside the guard, whichever orders it asks for
    for key in ("xxx", "11v", "xxz", "7v"):
        fam = rm.make_family(key, N=2, C=0.7 + 0.2j)
        bad = np.array([0.3 + 0.2j, 1e-9, 0.5 - 0.1j])
        with pytest.raises(PoleProximity):
            fam.r(bad, (1, 2))
        with pytest.raises(PoleProximity):
            fam.R(0.4 + 0.1j, bad, (0, 1))
        with pytest.raises(PoleProximity):
            fam.R(bad, 0.4 + 0.1j, (1, 2))


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_bad_derivative_orders_raise(key):
    # an order is 0, 1 or 2, and a tuple of them is not empty
    fam = rm.make_family(key, N=2, tau=1j, C=0.7 + 0.2j)
    for orders in (3, -1, (), (0, 3)):
        with pytest.raises(ValueError, match="derivative orders"):
            fam.R(0.4 + 0.1j, 0.3 + 0.2j, orders)
        with pytest.raises(ValueError, match="derivative orders"):
            fam.r(0.3 + 0.2j, orders)


def test_embedding_helpers():
    rng = np.random.default_rng(5)
    N = 2
    T = rng.uniform(-1, 1, (N * N, N * N)) + 1j * rng.uniform(
        -1, 1, (N * N, N * N))
    I = tn.eye(N)
    T12 = tn.site_product(N, 3, (T, 0, 1))
    assert np.max(np.abs(T12 - rf.kron(T, I))) < 1e-15
    assert np.max(np.abs(tn.site_product(N, 3, (T, 1, 2))
                         - rf.kron(I, T))) < 1e-15
    # 13-embedding: conjugate the 12-embedding by the (2,3) site swap
    P23 = tn.site_product(N, 3, (None, 1, 2))
    assert np.max(np.abs(tn.site_product(N, 3, (T, 0, 2))
                         - P23 @ T12 @ P23)) < 1e-13


def test_certify_yang_all_pass():
    report = rm.certify(rm.make_family("xxx", N=2), 10, seed=0, tol=1e-8)
    assert report["family"] == "xxx"
    for name, entry in report["properties"].items():
        assert entry["pass"], f"{name}: {entry['max_residual']:.3e}"
        assert entry["max_residual"] < 1e-10, name


def test_certify_deformed_families():
    for key, kwargs in (("11v", {}), ("7v", {"C": 0.7 + 0.2j}),
                        ("xxz", {})):
        fam = rm.make_family(key, **kwargs)
        report = rm.certify(fam, 5, seed=1, tol=1e-8)
        for name, entry in report["properties"].items():
            assert entry["pass"], f"{key}/{name}: " \
                f"{entry['max_residual']:.3e}"


def test_certify_elliptic_smoke():
    fam = rm.make_family("bb", N=2, tau=1j)
    report = rm.certify(fam, 3, seed=2, tol=1e-7)
    for name, entry in report["properties"].items():
        assert entry["pass"], f"{name}: {entry['max_residual']:.3e}"
    assert len(report["measured_phi_tilde"]) > 0


def _perturbed(fam, args, scale, kernel="R"):
    """A family whose kernel R, r or m is multiplied by 1 + scale at the
    arguments args (each of a stack's elements is checked; the argument of
    R(hbar, z) is z)."""
    base = getattr(type(fam), kernel)

    def method(self, *call):
        out = base(self, *call)
        z = call[1] if kernel == "R" else call[0]

        def scaled(stack):
            # a copy: a family may return a read-only view
            stack = stack.copy()
            hit = np.isin(np.broadcast_to(z, np.shape(stack)[:-2]), args)
            stack[hit] *= 1.0 + scale
            return stack

        return tuple(map(scaled, out)) if isinstance(out, tuple) \
            else scaled(out)

    Perturbed = type("Perturbed", (type(fam),), {kernel: method})
    obj = Perturbed.__new__(Perturbed)
    obj.__dict__.update(fam.__dict__)
    return obj


def _certify_draws(fam, n, seed):
    """The sample rows (hb, et, z, w, x, y) that certify draws."""
    rng = np.random.default_rng(seed)
    return [sf.sample_tuple(
        rng, fam.flavor, 4, 0.05,
        extra=[(1, -1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0)])
        + sf.sample_tuple(rng, fam.flavor, 2, 0.05, extra=[(1, 1)])
        for _ in range(n)]


def test_certify_one_family_call_per_kernel(family_calls):
    # every kernel is one call over the whole sample stack, so the count of
    # calls does not depend on the number of samples
    fam = rm.make_family("bb", N=2, tau=0.3 + 0.8j)
    counts = []
    for samples in (3, 12):
        del family_calls[:]
        rm.certify(fam, samples, seed=4, tol=1e-8)
        counts.append(len(family_calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("key", rm.FAMILY_KEYS)
def test_certify_stack_one_call_per_kernel_and_order(family_calls,
                                                     monkeypatch, key):
    # a chunk evaluates R at the orders 0, 1 and 2, r at 0 and 1, m and the
    # Weierstrass function once each, over every argument they are read at
    fam = rm.make_family(key, N=2, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    wp_calls = []
    weierstrass_p = sf.weierstrass_p

    def counted(*args):
        wp_calls.append(1)
        return weierstrass_p(*args)

    monkeypatch.setattr(sf, "weierstrass_p", counted)
    samples = np.array(_certify_draws(fam, 5, 0))
    rm._certify_stack(fam, *samples.T)
    kernels = Counter((name, d) for name, _, d in family_calls
                      if name in ("R", "r", "m"))
    assert kernels == {("R", 0): 1, ("R", 1): 1, ("R", 2): 1, ("r", 0): 1,
                       ("r", 1): 1, ("m", None): 1}
    assert len(wp_calls) == 1


def test_certify_bb_sums_ten_sector_tables(monkeypatch, theta_calls):
    # bb N = 3 at 6 samples, one chunk: 7 tables in the chunk (R at orders
    # 0, 1 and 2 and the Weierstrass function from sector_table, r at 0 and
    # 1 and m from regular_table), one for the hbar circle of R(hbar, z) and
    # one for r and m at z with r on the circle about 0; r0 with m0 reads
    # the family's omega constants.  Each table sums one series over its
    # arguments alone: z, u and z + u for sector_table, z for
    # regular_table, never an argument per sector
    fam = rm.make_family("bb", N=3, tau=0.1 + 1.1j)
    sf.kappa_const(fam.flavor)   # fills the modulus caches
    del theta_calls[:]
    calls = []

    def counted(name, table, flavor, *args, **kw):
        before = len(theta_calls)
        out = table(flavor, *args, **kw)
        (series, _), = theta_calls[before:]
        if name == "sector_table":
            z, u = map(np.asarray, args[1:3])
            want = z.size + u.size + np.broadcast(z, u).size
        else:
            want = np.size(args[1])
        assert len(series) == want
        calls.append(name)
        return out

    for name in ("sector_table", "regular_table"):
        monkeypatch.setattr(sf, name, functools.partial(
            counted, name, getattr(sf, name)))
    rm.certify(fam, 6, seed=0, tol=1e-8)
    assert len(calls) <= 10
    # 435 arguments in all, where one series per sector argument took 2946
    assert sum(len(args) for args, _ in theta_calls) <= 435


@pytest.mark.parametrize("key, N, n", [("bb", 1, 200), ("bb", 2, 60),
                                       ("xxx", 3, 20)])
def test_certify_peak_within_its_sample_count(key, N, n):
    # a chunk of n samples holds at most _sample_entries(N) complex entries
    # per sample at once, N = 1 (where the theta series outweigh the
    # three-site stacks) included; these read 0.40, 0.38 and 0.20 of it
    fam = rm.make_family(key, N=N, tau=0.3 + 0.8j)
    entries = rm._sample_entries(N)
    assert len(tn.chunks(n, entries, tn.CERTIFY_BYTES)) == 1
    rm.certify(fam, 2, seed=0, tol=1e-8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rm.certify(fam, n, seed=0, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * entries * n


def test_certify_finds_a_single_sample_defect():
    # R perturbed by 1e-7 relative at one sample's z of 12 fails aybe: the
    # residual is a max over per-sample norms, not one norm of the stack
    fam = rm.make_family("xxx", N=2)
    draws = _certify_draws(fam, 12, 0)
    # z of sample 7 is the argument of R(hbar, z) in the lhs of aybe
    bad = _perturbed(fam, [draws[7][2]], 1e-7)
    report = rm.certify(bad, 12, seed=0, tol=1e-8)
    assert report["properties"]["aybe"]["pass"] is False
    assert rm.certify(fam, 12, seed=0, tol=1e-8)["properties"]["aybe"]["pass"]


@pytest.mark.parametrize("identity, kernel, argument", [
    # R^z(x + y) enters mixed_rf's b-terms only
    ("mixed_rf", "R", lambda hb, et, z, w, x, y: x + y),
    # F^0(x) enters one term of the y -> 0 limit, F^0(y) one of x -> 0
    ("mixed_rf_limit_y", "r", lambda hb, et, z, w, x, y: x),
    ("mixed_rf_limit_x", "r", lambda hb, et, z, w, x, y: y),
    # R^z(-q) enters the lhs only
    ("q_product", "R", lambda hb, et, z, w, x, y: -x),
    # r(z + w) enters two of the three products
    ("half_cybe", "r", lambda hb, et, z, w, x, y: z + w),
    # m(z) enters two of the three m-terms
    ("half_cybe_limit", "m", lambda hb, et, z, w, x, y: z),
])
def test_certify_finds_a_single_sample_defect_in_each_identity(
        identity, kernel, argument):
    # one kernel off by 1e-7 relative at one argument of sample 7 of 12
    # fails the three-site identity it enters, and only the defect does
    fam = rm.make_family("bb", N=2, tau=1j)
    draws = _certify_draws(fam, 12, 0)
    bad = _perturbed(fam, [argument(*draws[7])], 1e-7, kernel)
    report = rm.certify(bad, 12, seed=0, tol=1e-8)
    assert report["properties"][identity]["pass"] is False
    report = rm.certify(fam, 12, seed=0, tol=1e-8)
    assert report["properties"][identity]["pass"] is True


# the 11 terms of one operator (and swaps) in the identities, T the
# operator: half_cybe's three m terms, half_cybe_limit's F^0(z) term and
# three m terms (m(0) of no sample), each limit's R'' term and q_product's
# two F^0 terms
LONE_TERMS = [
    ("mz", [("T", 0, 1)]), ("mw", [("T", 1, 2)]), ("mzw", [("T", 0, 2)]),
    ("F0z P12", [("T", 0, 2), (None, 1, 2)]), ("mz", [("T", 0, 1)]),
    ("m0", [("T", 1, 2)]), ("mz", [("T", 0, 2)]),
    ("P12 Rzx2", [(None, 1, 2), ("T", 0, 2)]),
    ("Rzy2 P01", [("T", 0, 2), (None, 0, 1)]),
    ("F0z P02", [("T", 0, 2), (None, 0, 2)]),
    ("F0q P02", [("T", 2, 1), (None, 0, 2)]),
]


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (1,), (5,)])
@pytest.mark.parametrize("name, pattern", LONE_TERMS)
def test_lone_terms_match_the_dense_product(name, pattern, batch, N):
    # a lone term added on the identity leg's diagonal (as _site_rel adds
    # it) gives the residual of adding its dense N^6 stack (site_legs, the
    # outer product with the identity) bit for bit, and alone in _site_rel
    # its norm sqrt(N) ||T|| is that stack's norm to 1e-15
    rng = np.random.default_rng(N)

    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    T = draw((() if name == "m0" else batch) + (N * N, N * N))
    term = [(None if X is None else T, s, t) for X, s, t in pattern]
    dense = tn.site_legs(N, 3, *term)
    start = draw(batch + (N,) * 6)
    for op in (np.add, np.subtract):
        got = start.copy()
        view = tn.identity_diagonal(N, 3, got, *term)
        op(view, T.reshape(T.shape[:-2] + (N,) * 4 + (1,)), out=view)
        want = op(start, dense)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    rel = rm._site_rel(N, "", term)
    assert rel.shape == T.shape[:-2]
    assert np.all(np.abs(rel - 1.0) <= 1e-15)


@pytest.mark.parametrize("key", ["xxx", "bb"])
def test_certify_at_N_4(key):
    # every identity holds at N = 4, where the three-site stacks are
    # 64 x 64 per sample
    fam = rm.make_family(key, N=4, tau=0.3 + 0.8j)
    report = rm.certify(fam, 2, seed=0, tol=1e-8)
    for name, entry in report["properties"].items():
        assert entry["pass"], f"{name}: {entry['max_residual']:.3e}"


@pytest.mark.parametrize("key", ["bb", "7v"])
def test_classical_expansion_finds_a_perturbed_m(key):
    # m(z) off by 1e-9 relative is a wrong hbar-coefficient of R(hbar, z)
    fam = rm.make_family(key, N=2, tau=1j, C=0.7 + 0.2j)

    class Perturbed(type(fam)):
        def m(self, z):
            return super().m(z) * (1.0 + 1e-9)

        def r_and_m(self, z):
            # m is perturbed wherever it is formed: bb's joint r and m
            # table would bypass the m above
            return self.r(z), self.m(z)

    bad = Perturbed.__new__(Perturbed)
    bad.__dict__.update(fam.__dict__)
    for family, passed in ((fam, True), (bad, False)):
        report = rm.certify(family, 3, seed=0, tol=1e-10)
        assert report["properties"]["classical_expansion"]["pass"] is passed


@pytest.mark.parametrize("key, N", [("xxx", 2), ("xxx", 3), ("11v", 2),
                                    ("xxz", 2), ("7v", 2), ("bb", 2),
                                    ("bb", 3), ("bb", 5)])
def test_certify_chunks_give_the_same_report(monkeypatch, key, N):
    # one sample per stack and 37 per stack give the report of the default
    # stacks, byte for byte: of one stack of 5 samples, and on bb of 200 at
    # N = 3 and 60 at N = 5 (31 and 3 at a time); every kernel matrix is
    # evaluated per element, with the bits of that element in a stack of
    # any size, and a bb sector sum over one row is taken as a
    # matrix-matrix product too
    fam = rm.make_family(key, N=N, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    for n in {("bb", 3): (5, 200), ("bb", 5): (60,)}.get((key, N), (5,)):
        monkeypatch.undo()
        whole = rm.certify(fam, n, seed=6, tol=1e-8)
        for size in (1, 37):
            monkeypatch.setattr(tn, "CERTIFY_BYTES",
                                size * 16 * rm._sample_entries(N))
            assert rm.certify(fam, n, seed=6, tol=1e-8) == whole, (n, size)
