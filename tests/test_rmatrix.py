"""Unit tests for the R-matrix families and their classical data."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from toplax import rmatrix as rm
from toplax import specfun as sf
from toplax import tensor as tn
from toplax.errors import PoleProximity


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
    F0 = rm.make_family("11v").F0(1.0)
    assert abs(F0[0, 0] + 1.0) < 1e-13
    assert abs(F0[3, 0] + 3.0) < 1e-13
    assert abs(F0[3, 1] - 1.0) < 1e-13


def test_seven_vertex_corner_entries():
    C = 0.7 + 0.2j
    fam = rm.make_family("7v", C=C)
    z = 0.4 + 0.1j
    assert abs(fam.r(z)[3, 0] - C * np.sinh(z)) < 1e-13
    F0P = fam.F0(z) @ tn.permutation_P(2)
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
            assert np.max(np.abs(fam.F0(q) - diff)) < 1e-7 * max(
                1.0, float(np.max(np.abs(diff)))), key


def test_F_matches_difference_of_R():
    rng = np.random.default_rng(1)
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        z = rm._draw(rng, fam, margin=0.1)
        q = rm._draw(rng, fam, margin=0.1)
        diff = richardson_dq(lambda u: fam.R(z, u), q)
        scale = max(1.0, float(np.max(np.abs(diff))))
        assert np.max(np.abs(fam.F(z, q) - diff)) < 1e-6 * scale, key


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
    # it reads both orders from one F0_with_derivative stack over its pairs,
    # which holds the matrices of the per-element calls
    q = complex(a, b)
    norm = np.linalg.norm
    for fam in MIRROR_FAMILIES:
        # on bb the sector table also guards q + omega_a (and -q + omega_a,
        # which is -(q + omega_-a)) against the lattice
        omegas = fam._omegas if fam.kind == "bb" else []
        if not np.all(fam.pole_distance(q + np.append(omegas, 0.0)) > 0.1):
            continue
        P = tn.permutation_P(fam.N)
        stack = fam.F0_with_derivative(np.array([q, -q]))
        for d, sign in ((0, 1.0), (1, -1.0)):
            lhs = fam.F0(-q, d=d)
            rhs = sign * P @ fam.F0(q, d=d) @ P
            assert norm(lhs - rhs) < 1e-12 * max(norm(lhs), norm(rhs)), \
                f"{fam.label()} d={d} q={q}"
            for k, v in enumerate((q, -q)):
                one = fam.F0(v, d=d)
                assert norm(stack[d][k] - one) <= 1e-13 * norm(one), \
                    f"{fam.label()} d={d} q={v}"


def _sector_basis(a):
    N = a.N
    return tn.kron(tn.sin_basis_T_int(a.a1, a.a2, N),
                   tn.sin_basis_T_int(-a.a1, -a.a2, N))


def _sector_dz(fl, a, z, w, order):
    """order-th z-derivative of phi_a(z, w) from the scalar kernels."""
    p = cmath.exp(2j * cmath.pi * a.a2 * z / a.N) * sf.kronecker_phi(fl, z, w)
    d = (2j * cmath.pi * a.a2 / a.N + sf.eisenstein_E1(fl, z + w)
         - sf.eisenstein_E1(fl, z))
    if order == 0:
        return p
    if order == 1:
        return p * d
    return p * (d * d + sf.eisenstein_E2(fl, z) - sf.eisenstein_E2(fl, z + w))


def _scalar_R(fam, hbar, z, dz):
    out = 0.0
    for a in sf.all_sectors(fam.N):
        w = a.omega(fam.tau) + hbar / fam.N
        out = out + _sector_dz(fam.flavor, a, z, w, dz) * _sector_basis(a)
    return out / fam.N


def _scalar_r(fam, z, d):
    fl = fam.flavor
    scal = (sf.eisenstein_E1(fl, z), -sf.eisenstein_E2(fl, z),
            -sf.eisenstein_E2_prime(fl, z))[d]
    out = scal * tn.eye(fam.N ** 2)
    for a in sf.all_sectors(fam.N)[1:]:
        out = out + _sector_dz(fl, a, z, a.omega(fam.tau), d) \
            * _sector_basis(a)
    return out / fam.N


def _scalar_m(fam, z):
    fl = fam.flavor
    e1 = sf.eisenstein_E1(fl, z)
    out = (e1 * e1 - sf.weierstrass_p(fl, z)) / 2.0 * tn.eye(fam.N ** 2)
    for a in sf.all_sectors(fam.N)[1:]:
        out = out + sf.sector_f(fl, a, z, 0.0) * _sector_basis(a)
    return out / fam.N ** 2


def _sector_args_clear(fam, z, hbar, margin=0.05):
    for a in sf.all_sectors(fam.N):
        w = a.omega(fam.tau)
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
            F0, dF0 = fam.F0_with_derivative(z)
            close(F0, _scalar_r(fam, z, 1))
            close(dF0, _scalar_r(fam, z, 2))
            R, F = fam.R_with_F(hbar, z)
            close(R, _scalar_R(fam, hbar, z, 0))
            close(F, _scalar_R(fam, hbar, z, 1))


def test_joint_orders_match_single_orders():
    # families without a shared evaluation return exactly the single orders
    rng = np.random.default_rng(12)
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        for _ in range(5):
            q, hbar = sf.sample_tuple(rng, fam.flavor, 2, 0.05)
            pairs = ((fam.F0_with_derivative(q), (fam.F0(q), fam.F0(q, d=1))),
                     (fam.R_with_F(hbar, q), (fam.R(hbar, q), fam.F(hbar, q))))
            for got, want in pairs:
                for g, w in zip(got, want):
                    if key == "bb":
                        err = np.linalg.norm(g - w)
                        assert err <= 1e-13 * np.linalg.norm(w)
                    else:
                        assert np.array_equal(g, w), key


def _omegas(fam, u=0.0):
    return [a.omega(fam.tau) + u for a in sf.all_sectors(fam.N)]


def test_bb_one_series_per_distinct_argument(theta_calls):
    # a modulus no other test uses, so the first call fills its caches
    N = 2
    fam = rm.make_family("bb", N=N, tau=0.41 + 0.87j)
    fam.F0_with_derivative(0.31 + 0.22j)
    del theta_calls[:]
    # F0 and F0' of a whole array of z share one series (order 3, for
    # -E2') over each z, each omega_a (a != 0) and each z + omega_a
    zs = np.array([0.27 - 0.18j, 0.13 + 0.41j, -0.2 + 0.3j])
    fam.F0_with_derivative(zs)
    ws = _omegas(fam)[1:]
    want = list(zs) + ws + [z + w for z in zs for w in ws]
    assert theta_calls == [(tuple(want), 3)]
    for dz in (0, 1, 2):
        del theta_calls[:]
        # z, then omega_a + hbar/N and z + omega_a + hbar/N, to order dz + 1
        hbar, z = 0.13 + 0.05j, 0.31 + 0.22j
        fam.R(hbar, z, dz)
        ws = _omegas(fam, hbar / N)
        assert theta_calls == [(tuple([z] + ws + [z + w for w in ws]),
                                dz + 1)]
    for args, _ in theta_calls:
        assert len(set(args)) == len(args)
    # spectral points (2, 1) against three pair differences: each
    # omega_a + hbar/N enters once per spectral point, not once per pair
    del theta_calls[:]
    hbars, qs = [0.13 + 0.05j, 0.2 - 0.1j], [0.31 + 0.22j, -0.1 + 0.4j, 0.5j]
    fam.R_with_F(np.reshape(hbars, (2, 1)), qs)
    ws = [_omegas(fam, np.complex128(h) / N) for h in hbars]
    want = qs * 2 + ws[0] + ws[1] + [q + w for row in ws for q in qs
                                     for w in row]
    assert theta_calls == [(tuple(want), 2)]


def test_bb_eom_series_count(theta_calls):
    from toplax import model as md
    fam = rm.make_family("bb", N=2, tau=1j)
    state = md.random_state(fam, 4, 1.0, seed=3)
    md.eom_rhs(state)
    del theta_calls[:]
    md.eom_rhs(state)
    # one F0/F0' table for all 6 pairs, from one series over 6 + 3 + 18
    # arguments
    assert [(len(args), upto) for args, upto in theta_calls] == [(27, 3)]


def test_bb_pole_guard_covers_each_argument_once(theta_calls):
    # the guard reads the cell reduction of the one series a matrix takes,
    # whose batch lists z, every w and every z + w once each
    fam = rm.make_family("bb", N=2, tau=1j)
    z, hbar = 0.31 + 0.22j, 0.13 + 0.05j
    fam.r(z, 1)
    ws = _omegas(fam)[1:]
    assert [args for args, _ in theta_calls] == [
        tuple([z] + ws + [z + w for w in ws])]
    del theta_calls[:]
    fam.R(hbar, z)
    ws = _omegas(fam, hbar / 2)
    assert [args for args, _ in theta_calls] == [
        tuple([z] + ws + [z + w for w in ws])]


def test_bb_pole_guards_raise():
    N = 2
    fam = rm.make_family("bb", N=N, tau=1j)
    for a in sf.all_sectors(N)[1:]:
        w = a.omega(fam.tau)
        # z + omega_{-a} sits 1e-9 from a lattice point
        with pytest.raises(PoleProximity):
            fam.r(w + 1e-9)
        with pytest.raises(PoleProximity):
            fam.F0_with_derivative(w + 1e-9)
        # one bad element fails the whole array
        with pytest.raises(PoleProximity):
            fam.F0_with_derivative(np.array([0.3 + 0.2j, w + 1e-9]))
        # omega_a + hbar/N + q on the lattice point 1 + tau
        hbar = 0.23 + 0.11j
        q = 1 + fam.tau - w - hbar / N
        with pytest.raises(PoleProximity):
            fam.R(hbar, q)
        with pytest.raises(PoleProximity):
            fam.R_with_F(hbar, q)
        with pytest.raises(PoleProximity):
            fam.R_with_F(hbar, np.array([q, 0.3 + 0.2j]))


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
              "F0": list(fam.F0_with_derivative(zs)),
              "RF": list(fam.R_with_F(hbar, zs))}
    singles = {"r": [[fam.r(z, d) for z in zs] for d in (0, 1, 2)],
               "R": [[fam.R(hbar, z, d) for z in zs] for d in (0, 1, 2)],
               "F0": list(zip(*(fam.F0_with_derivative(z) for z in zs))),
               "RF": list(zip(*(fam.R_with_F(hbar, z) for z in zs)))}
    for name, got in stacks.items():
        for g, w in zip(got, singles[name]):
            w = np.array(w)
            assert g.shape == (5, 4, 4), name
            if key == "bb":
                assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
            else:
                assert np.array_equal(g, w), (key, name)
    # no pairs (a single site) gives empty stacks
    for stack in fam.F0_with_derivative(np.zeros(0, dtype=complex)):
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
    got = fam.R_with_F(zs[:, None], qs) + fam.Rz_coefficients(zs)
    want = zip(*(fam.R_with_F(z, qs) + fam.Rz_coefficients(z) for z in zs))
    for g, w in zip(got, want):
        w = np.array(w)
        assert g.shape == w.shape
        if key == "bb":
            assert np.linalg.norm(g - w) <= 1e-14 * np.linalg.norm(w)
        else:
            assert np.array_equal(g, w)


def test_m0_cached_read_only():
    for key in rm.FAMILY_KEYS:
        fam = rm.make_family(key, tau=1j, C=0.7 + 0.2j)
        m0 = fam.m0()
        assert fam.m0() is m0, key
        assert np.array_equal(m0, fam._m_at_zero()), key
        with pytest.raises(ValueError):
            m0[0, 0] = 1.0


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
        measured = rm.measure_r1(fam)
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


def test_embedding_helpers():
    rng = np.random.default_rng(5)
    N = 2
    T = rng.uniform(-1, 1, (N * N, N * N)) + 1j * rng.uniform(
        -1, 1, (N * N, N * N))
    I = tn.eye(N)
    assert np.max(np.abs(rm.embed12(T, N) - tn.kron(T, I))) < 1e-15
    assert np.max(np.abs(rm.embed23(T, N) - tn.kron(I, T))) < 1e-15
    # 13-embedding: conjugate the 12-embedding by the (2,3) site swap
    P23 = rm.perm23(N)
    assert np.max(np.abs(rm.embed13(T, N)
                         - P23 @ rm.embed12(T, N) @ P23)) < 1e-13


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


def _perturbed(fam, args, scale):
    """A family whose R is multiplied by 1 + scale at the arguments args
    (each of a stack's elements is checked)."""

    class Perturbed(type(fam)):
        def R(self, hbar, z, dz=0):
            out = super().R(hbar, z, dz)
            hit = np.isin(np.broadcast_to(z, np.shape(out)[:-2]), args)
            out[hit] *= 1.0 + scale
            return out

    obj = Perturbed.__new__(Perturbed)
    obj.__dict__.update(fam.__dict__)
    return obj


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


def test_certify_finds_a_single_sample_defect():
    # R perturbed by 1e-7 relative at one sample's z of 12 fails aybe: the
    # residual is a max over per-sample norms, not one norm of the stack
    fam = rm.make_family("xxx", N=2)
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(12):
        draws.append(sf.sample_tuple(
            rng, fam.flavor, 4, 0.05,
            extra=[(1, -1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0)]))
        sf.sample_tuple(rng, fam.flavor, 2, 0.05, extra=[(1, 1)])
    # z of sample 7 is the argument of R(hbar, z) in the lhs of aybe
    bad = _perturbed(fam, [draws[7][2]], 1e-7)
    report = rm.certify(bad, 12, seed=0, tol=1e-8)
    assert report["properties"]["aybe"]["pass"] is False
    assert rm.certify(fam, 12, seed=0, tol=1e-8)["properties"]["aybe"]["pass"]


@pytest.mark.parametrize("key", ["bb", "7v"])
def test_classical_expansion_finds_a_perturbed_m(key):
    # m(z) off by 1e-9 relative is a wrong hbar-coefficient of R(hbar, z)
    fam = rm.make_family(key, N=2, tau=1j, C=0.7 + 0.2j)

    class Perturbed(type(fam)):
        def m(self, z):
            return super().m(z) * (1.0 + 1e-9)

    bad = Perturbed.__new__(Perturbed)
    bad.__dict__.update(fam.__dict__)
    for family, passed in ((fam, True), (bad, False)):
        report = rm.certify(family, 3, seed=0, tol=1e-10)
        assert report["properties"]["classical_expansion"]["pass"] is passed


@pytest.mark.parametrize("key, N", [("xxx", 2), ("xxx", 3), ("11v", 2),
                                    ("xxz", 2), ("7v", 2), ("bb", 2),
                                    ("bb", 3)])
def test_certify_chunks_give_the_same_report(monkeypatch, key, N):
    # one sample per stack gives the report of one stack of all samples,
    # byte for byte: every kernel matrix is evaluated per element, and a bb
    # sector sum over one row is taken as a matrix-matrix product too
    fam = rm.make_family(key, N=N, tau=0.3 + 0.8j, C=0.7 + 0.2j)
    whole = rm.certify(fam, 5, seed=6, tol=1e-8)
    monkeypatch.setattr(rm, "_chunk_size", lambda N: 1)
    assert rm.certify(fam, 5, seed=6, tol=1e-8) == whole
