"""Unit tests for the scalar special functions."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from toplax import specfun as sf
from toplax import tensor as tn
from toplax.errors import (BadModulus, DegenerateDraw, PoleProximity,
                           ThetaOverflow)

import reference as rf


def brute_theta(z, tau, terms=400):
    """Direct theta summation on an independent code path."""
    total = 0j
    for k in range(-terms, terms + 1):
        kk = k + 0.5
        total += cmath.exp(1j * cmath.pi * tau * kk * kk
                           + 2j * cmath.pi * (z + 0.5) * kk)
    return total


def test_theta_vanishes_at_origin():
    assert abs(sf.theta(0.0, 1j)) < 1e-15


def test_theta_is_odd():
    z = 0.3 + 0.1j
    assert abs(sf.theta(-z, 1j) + sf.theta(z, 1j)) < 1e-14


def test_theta_against_brute_force():
    for z in (0.25, 0.1 + 0.3j, -0.4 + 0.05j):
        for tau in (1j, 0.3 + 0.8j):
            a = sf.theta(z, tau)
            b = brute_theta(z, tau)
            assert abs(a - b) < 1e-13 * max(abs(b), 1.0)


def test_theta_derivative_against_difference():
    tau = 1j
    z = 0.21 + 0.13j
    h = 1e-5
    d1 = (sf.theta(z + h, tau) - sf.theta(z - h, tau)) / (2 * h)
    d2 = (sf.theta(z + h / 2, tau) - sf.theta(z - h / 2, tau)) / h
    richardson = (4 * d2 - d1) / 3
    assert abs(sf.theta(z, tau, deriv=1) - richardson) < 1e-9


def _term_magnitude_sum(z, tau, deriv):
    """Sum over half-integers h of |theta's term| * |2*pi*h|^deriv: the
    scale of the series' round-off."""
    total = 0.0
    for n in range(1000):
        h = n + 0.5
        lin = 2 * math.pi * h * z.imag
        term = (math.exp(-math.pi * tau.imag * h * h)
                * (math.exp(lin) + math.exp(-lin))
                * (2 * math.pi * h) ** deriv)
        total += term
        if n > 2 and term < 1e-20 * total:
            return total
    raise AssertionError("magnitude sum did not converge")


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.1 + 0.07j])
def test_theta_derivs_against_mpmath(tau):
    # theta^(d)(z | tau) = -pi^d * jtheta(1, pi*z, exp(i*pi*tau), d), with
    # every order from one pass within 256 ulps of the term-magnitude sum
    mpmath = pytest.importorskip("mpmath")
    for z in (0.21 + 0.13j, -0.37 + 0.05j, 0.44 - 0.29j, 0.1 + 0.02j):
        values = sf.theta_derivs(z, tau, 3)
        assert len(values) == 4
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            refs = [complex(-mpmath.pi ** d * mpmath.jtheta(
                1, mpmath.pi * mpmath.mpc(z), q, derivative=d))
                for d in range(4)]
        for d in range(4):
            ulp = sys.float_info.epsilon * _term_magnitude_sum(z, tau, d)
            assert abs(values[d] - refs[d]) < 256 * ulp
            assert sf.theta(z, tau, deriv=d) == \
                sf.theta_derivs(z, tau, d)[d]


def test_one_series_per_theta_argument(theta_calls):
    # E1, E2 and E2' take all their orders from one one-row series; phi
    # takes its three arguments from one series (to order 1, for f), and
    # theta'(0) in phi is summed once per modulus (a modulus no other test
    # uses)
    fl = sf.Flavor.elliptic(0.37 + 0.91j)
    eta, z = 0.2 + 0.1j, 0.3 - 0.2j
    sf.kronecker_phi(fl, eta, z)
    sf.kronecker_phi(fl, 0.25 + 0.1j, z)
    assert [upto for _, upto in theta_calls] == [1, 3, 1]
    assert theta_calls[0][0] == (eta, z, eta + z)
    del theta_calls[:]
    sf.eisenstein_E1(fl, 0.2 + 0.1j)
    sf.eisenstein_E2(fl, 0.2 + 0.1j)
    sf.eisenstein_E2_prime(fl, 0.2 + 0.1j)
    sf.kappa_const(fl)
    assert theta_calls == [((0.2 + 0.1j,), 1), ((0.2 + 0.1j,), 2),
                           ((0.2 + 0.1j,), 3)]


KERNELS_ONE = (sf.eisenstein_E1, sf.eisenstein_E2, sf.eisenstein_E2_prime,
               sf.weierstrass_p)
KERNELS_TWO = (sf.kronecker_phi, sf.phi_derivative_f)


@pytest.mark.parametrize("flavor, tol", [
    (sf.Flavor.rational(), 1e-15), (sf.Flavor.trigonometric(), 1e-15),
    (sf.Flavor.elliptic(1j), 1e-13), (sf.Flavor.elliptic(0.3 + 0.8j), 1e-13)])
def test_kernels_take_arrays(flavor, tol):
    # each kernel on a (2, 3) array, and a number against it, equals its
    # calls on the elements; a number in gives a number out, and an empty
    # array an empty one
    rng = np.random.default_rng(41)
    xs, ys = (np.array(sf.sample_tuple(rng, flavor, 6, 0.05)).reshape(2, 3)
              for _ in range(2))
    x0 = sf.sample_tuple(rng, flavor, 1, 0.05)[0]

    def close(got, want):
        want = np.array(want).reshape(got.shape)
        assert got.shape == (2, 3)
        assert np.all(np.abs(got - want) <= tol * np.abs(want))

    empty = np.zeros(0, dtype=complex)
    for kernel in KERNELS_ONE:
        assert type(kernel(flavor, x0)) is complex
        close(kernel(flavor, xs), [kernel(flavor, x) for x in xs.ravel()])
        assert kernel(flavor, empty).shape == (0,)
    for kernel in KERNELS_TWO:
        assert type(kernel(flavor, x0, ys[0, 0])) is complex
        assert kernel(flavor, x0, empty).shape == (0,)
        close(kernel(flavor, xs, ys),
              [kernel(flavor, x, y) for x, y in zip(xs.ravel(), ys.ravel())])
        close(kernel(flavor, x0, ys), [kernel(flavor, x0, y)
                                       for y in ys.ravel()])
        close(kernel(flavor, xs, x0), [kernel(flavor, x, x0)
                                       for x in xs.ravel()])


def test_kernel_arrays_one_series(theta_calls):
    # every elliptic kernel sums one series over its whole array; phi and f
    # take one series over z, q and z + q, a number q entering once
    fl = sf.Flavor.elliptic(0.3 + 0.8j)
    zs = np.array([[0.21 + 0.13j, 0.43 - 0.11j, 0.37 + 0.29j],
                   [0.42 + 0.26j, 0.86 - 0.22j, 0.74 + 0.58j]])
    sf.kappa_const(fl)
    sf.kronecker_phi(fl, 0.1 + 0.1j, 0.1 + 0.2j)   # fills the modulus caches
    del theta_calls[:]
    for kernel in KERNELS_ONE:
        kernel(fl, zs)
    sf.kronecker_phi(fl, zs, 0.1 + 0.2j)
    sf.phi_derivative_f(fl, zs, 0.1 + 0.2j)
    assert [len(args) for args, _ in theta_calls] == [6] * 4 + [13] * 2


def test_expansion_and_sector_oracles_series_counts(theta_calls):
    # each circle of the expansion oracle is one kernel call on the 16
    # points of every sample's circle, and each sector identity one
    # expression over all samples and sectors: the count of series does
    # not depend on the number of samples
    fl = sf.Flavor.elliptic(1j)
    sf.kappa_const(fl)
    z, u = np.array([[0.31 + 0.42j, 0.27 + 0.66j],
                     [0.52 + 0.13j, 0.18 + 0.71j],
                     [0.66 + 0.35j, 0.41 + 0.24j]]).T
    counts = []
    for n in (1, 3):
        del theta_calls[:]
        sf._expansion_residuals(fl, z[:n], u[:n])
        counts.append(len(theta_calls))
    assert counts[0] == counts[1] <= 12
    rng = np.random.default_rng(5)
    draws = np.array([sf._sector_draw(rng, fl, 3) for _ in range(3)])
    counts = []
    for n in (1, 3):
        del theta_calls[:]
        sf._sector_residuals(fl, 3, draws[:n])
        counts.append(len(theta_calls))
    assert counts[0] == counts[1] <= 10


def test_bad_modulus_rejected():
    with pytest.raises(BadModulus):
        sf.theta(0.25, 0.01j)
    with pytest.raises(BadModulus):
        sf.Flavor.elliptic(0.5 + 0.01j)
    # far from the real axis, and a NaN modulus, fail the same comparison
    for tau in (453j, complex(0.0, 1e300), complex(0.0, math.nan)):
        with pytest.raises(BadModulus):
            sf.Flavor.elliptic(tau)
        with pytest.raises(BadModulus):
            sf.theta(0.25, tau)


def test_theta_overflow_is_package_error():
    # |theta(z)| grows like exp(pi (Im z)^2 / Im tau): at Im z = 20 on
    # tau = i it is about exp(1257), past the floating-point range
    with pytest.raises(ThetaOverflow):
        sf.theta(0.3 + 20j, 1j)
    with pytest.raises(ThetaOverflow):
        sf.theta_derivs(0.3 - 25j, 1j, 2)


def _mpmath_kernels(mpmath, z, w, tau):
    """(E1(z), E2(z), phi(z, w), wp(z)) from jtheta at 40 digits, whose
    exponent range holds theta far off the real axis."""
    with mpmath.workdps(40):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))

        def th(x, d=0):
            # theta^(d)(x) = -pi^d jtheta(1, pi x, q, d)
            return -mpmath.pi ** d * mpmath.jtheta(
                1, mpmath.pi * mpmath.mpc(x), q, derivative=d)

        t0, t1, t2 = th(z), th(z, 1), th(z, 2)
        e1 = t1 / t0
        e2 = e1 * e1 - t2 / t0
        phi = th(0, 1) * th(z + w) / (th(z) * th(w))
        wp = e2 + th(0, 3) / (3 * th(0, 1))
        return complex(e1), complex(e2), complex(phi), complex(wp)


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, 0.1 + 0.07j])
def test_kernels_match_mpmath_in_the_cell(tau):
    # E1, E2, phi and wp at 20 random off-lattice points of the cell, against
    # jtheta derivative ratios rather than the package's identity suite
    mpmath = pytest.importorskip("mpmath")
    fl = sf.Flavor.elliptic(tau)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        z, w = (complex(rng.random() + rng.random() * tau) for _ in "zw")
        if min(sf.pole_distance(fl, v) for v in (z, w, z + w)) < 1e-2:
            continue
        got = (sf.eisenstein_E1(fl, z), sf.eisenstein_E2(fl, z),
               sf.kronecker_phi(fl, z, w), sf.weierstrass_p(fl, z))
        for g, want in zip(got, _mpmath_kernels(mpmath, z, w, tau)):
            assert abs(g - want) <= 1e-12 * max(abs(want), 1.0)
        checked += 1


@pytest.mark.parametrize("z", [0.3 + 10j, 0.3 - 10j, -0.41 + 9.73j])
@pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
def test_kernels_off_the_cell_match_mpmath(z, tau):
    # E1, E2 and phi stay finite where theta alone is huge or tiny: the
    # quasi-periodic factors are combined before anything is exponentiated
    mpmath = pytest.importorskip("mpmath")
    fl = sf.Flavor.elliptic(tau)
    w = 0.17 + 0.23j
    got = (sf.eisenstein_E1(fl, z), sf.eisenstein_E2(fl, z),
           sf.kronecker_phi(fl, z, w), sf.weierstrass_p(fl, z))
    for g, want in zip(got, _mpmath_kernels(mpmath, z, w, tau)):
        assert cmath.isfinite(g)
        assert abs(g - want) <= 1e-12 * max(abs(want), 1.0)


_shifts = hs.integers(-6, 6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hs.floats(-0.5, 0.5), hs.floats(-0.5, 0.5), _shifts, _shifts,
       hs.sampled_from([1j, 0.3 + 0.8j, 0.1 + 0.07j]))
def test_quasi_periodicity(x, y, m, n, tau):
    # theta(z + 1) = -theta(z) and theta(z + tau) =
    # -exp(-pi i tau - 2 pi i z) theta(z) (DLMF 20.2(iii)), so E1 shifts by
    # -2 pi i per tau and phi(z + tau, w) = exp(-2 pi i w) phi(z, w)
    z = x + y * tau
    w = 0.21 - 0.13j
    fl = sf.Flavor.elliptic(tau)
    assume(min(sf.pole_distance(fl, z), sf.pole_distance(fl, z + w)) > 1e-3)
    t = sf.theta(z, tau)
    tol = 1e-12 * max(abs(t), 1e-300)
    assert abs(sf.theta(z + 1, tau) + t) <= tol
    assert abs(sf.theta(z + tau, tau)
               + cmath.exp(-1j * cmath.pi * tau - 2j * cmath.pi * z) * t) \
        <= 1e-12 * abs(sf.theta(z + tau, tau))
    # far shifts, where theta itself stays representable (n <= 6)
    shift = m + n * tau
    e1 = sf.eisenstein_E1(fl, z)
    assert abs(sf.eisenstein_E1(fl, z + shift)
               - (e1 - 2j * cmath.pi * n)) <= 1e-10 * max(abs(e1), 1.0)
    p = sf.kronecker_phi(fl, z, w)
    want = cmath.exp(-2j * cmath.pi * n * w) * p
    assert abs(sf.kronecker_phi(fl, z + shift, w) - want) \
        <= 1e-10 * max(abs(want), 1.0)


def test_flavor_validation():
    with pytest.raises(ValueError):
        sf.Flavor("weird")
    with pytest.raises(ValueError):
        sf.Flavor(sf.RATIONAL, tau=1j)


def test_phi_rational_value():
    fl = sf.Flavor.rational()
    assert abs(sf.kronecker_phi(fl, 2.0, 3.0) - 5.0 / 6.0) < 1e-15


def test_phi_symmetry_all_flavors():
    for fl in (sf.Flavor.rational(), sf.Flavor.trigonometric(),
               sf.Flavor.elliptic(1j)):
        eta, z = 0.3 + 0.1j, 0.6
        a = sf.kronecker_phi(fl, eta, z)
        b = sf.kronecker_phi(fl, z, eta)
        assert abs(a - b) < 1e-12 * abs(a)


def test_phi_elliptic_against_theta_ratio():
    # independent re-evaluation through the brute-force series
    tau = 1j
    fl = sf.Flavor.elliptic(tau)
    eta, z = 0.2, 0.3
    tp0 = (brute_theta(1e-6, tau) - brute_theta(-1e-6, tau)) / 2e-6
    ratio = tp0 * brute_theta(eta + z, tau) / (
        brute_theta(eta, tau) * brute_theta(z, tau))
    assert abs(sf.kronecker_phi(fl, eta, z) - ratio) < 1e-9


def test_pole_guard():
    fl = sf.Flavor.rational()
    with pytest.raises(PoleProximity):
        sf.kronecker_phi(fl, 1e-9, 0.5)
    # eta + z on a pole of E1 is a zero of phi, not a pole
    assert sf.kronecker_phi(fl, 0.5, -0.5) == 0
    with pytest.raises(PoleProximity):
        sf.eisenstein_E1(sf.Flavor.trigonometric(), 1j * cmath.pi)


def _pole_distance_reference(flavor, z):
    """Distance to the pole set in Python complex arithmetic, one number at
    a time: elliptic, a brute-force scan over a box of lattice points
    m + n*tau around z that holds every point within reach of z, reach
    being the distance within which row floor(Im z / Im tau) has one."""
    if flavor.kind == sf.RATIONAL:
        return abs(z)
    if flavor.kind == sf.TRIGONOMETRIC:
        return abs(complex(z.real, z.imag - round(z.imag / cmath.pi)
                           * cmath.pi))
    tau = flavor.tau
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    reach = math.hypot(0.5, tau.imag)
    rows = math.ceil(reach / tau.imag) + 1
    cols = math.ceil(rows * abs(tau.real) + reach) + 1
    return min(abs(z - (m + n * tau))
               for n in range(math.floor(b) - rows, math.floor(b) + rows + 1)
               for m in range(math.floor(a) - cols, math.floor(a) + cols + 1))


@pytest.mark.parametrize("flavor", [
    sf.Flavor.rational(), sf.Flavor.trigonometric(), sf.Flavor.elliptic(1j),
    sf.Flavor.elliptic(0.3 + 0.8j), sf.Flavor.elliptic(0.1 + 0.07j)])
def test_pole_distance_takes_arrays(flavor):
    # an array gives bit for bit the distances of its elements, and a number
    # a float: points off the cell (|Im z| up to 12 Im tau) and, for the
    # trigonometric flavor, next to Im z = (k + 1/2) pi, halfway between
    # two poles
    rng = np.random.default_rng(8)
    height = 12 * (flavor.tau.imag if flavor.kind == sf.ELLIPTIC else 1.0)
    far = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-height, height, 200)
    k = np.arange(-4, 5)
    halfway = rng.uniform(-1, 1, 9) + 1j * (
        (k + 0.5) * np.pi + rng.uniform(-1e-12, 1e-12, 9))
    zs = np.concatenate([far, halfway]).reshape(11, 19)
    got = sf.pole_distance(flavor, zs)
    assert got.shape == zs.shape
    want = [_pole_distance_reference(flavor, complex(z)) for z in zs.ravel()]
    assert got.ravel().tolist() == want
    one = sf.pole_distance(flavor, complex(zs[3, 4]))
    assert type(one) is float and one == got[3, 4]


@pytest.mark.parametrize("flavor", [
    sf.Flavor.rational(), sf.Flavor.trigonometric(), sf.Flavor.elliptic(1j),
    sf.Flavor.elliptic(0.1 + 0.07j)])
def test_pole_distance_of_a_number_without_numpy(flavor, monkeypatch):
    # a Python number takes the plain-Python path, bit for bit the array
    # path's distance: 10^4 points off the cell, on and next to poles, on
    # the rows and columns where floor and rint meet a tie, and halfway
    # between two trigonometric poles
    rng = np.random.default_rng(12)
    tau = flavor.tau if flavor.kind == sf.ELLIPTIC else 1j * np.pi
    m, n = rng.integers(-4, 5, (2, 1500))
    poles = (m + n * tau) if flavor.kind != sf.RATIONAL else np.zeros(1500)
    height = 12 * tau.imag
    zs = np.concatenate([
        rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-height, height, 4000),
        poles,
        poles + rng.uniform(-1e-6, 1e-6, 1500) * np.exp(
            2j * np.pi * rng.random(1500)),
        (m + 0.5) + n * tau,
        rng.uniform(-3, 3, 1500) + (n + 0.5) * tau])
    assert len(zs) == 10 ** 4
    want = sf.pole_distance(flavor, zs)
    with monkeypatch.context() as patch:
        # the number path never reaches numpy
        patch.setattr(sf, "np", None)
        got = [sf.pole_distance(flavor, z) for z in zs.tolist()]
    assert all(type(d) is float for d in got)
    assert np.array_equal(np.array(got).view(np.uint64),
                          want.view(np.uint64))


@pytest.mark.parametrize("flavor, pole", [
    (sf.Flavor.rational(), 0.0), (sf.Flavor.trigonometric(), 1j * cmath.pi),
    (sf.Flavor.elliptic(0.3 + 0.8j), 1.3 + 0.8j)])
def test_check_pole_names_the_first_offending_element(flavor, pole):
    # two elements sit inside the guard; the first in ravel order is named,
    # with its own distance, though the later one is closer
    zs = np.full((2, 3), pole + 0.4 + 0.1j)
    zs[0, 2] = pole + 3e-7
    zs[1, 1] = pole - 1e-7j
    with pytest.raises(PoleProximity) as err:
        sf.check_pole(flavor, 0.37 + 0.21j, zs)
    assert err.value.argument == zs[0, 2]
    assert err.value.distance == sf.pole_distance(flavor, zs[0, 2])
    sf.check_pole(flavor, zs[1, 0], zs[:, :1])


def test_eisenstein_rational_values():
    fl = sf.Flavor.rational()
    assert abs(sf.eisenstein_E2(fl, 2.0) - 0.25) < 1e-15
    assert abs(sf.weierstrass_p(fl, 2.0) - 0.25) < 1e-15


def test_e1_is_odd():
    for fl in (sf.Flavor.rational(), sf.Flavor.trigonometric(),
               sf.Flavor.elliptic(1j)):
        assert abs(sf.eisenstein_E1(fl, -0.4)
                   + sf.eisenstein_E1(fl, 0.4)) < 1e-12


def test_e2_is_minus_derivative_of_e1():
    h = 1e-5
    for fl in (sf.Flavor.rational(), sf.Flavor.trigonometric(),
               sf.Flavor.elliptic(1j)):
        z = 0.37 + 0.11j
        d1 = (sf.eisenstein_E1(fl, z + h) - sf.eisenstein_E1(fl, z - h)) \
            / (2 * h)
        d2 = (sf.eisenstein_E1(fl, z + h / 2)
              - sf.eisenstein_E1(fl, z - h / 2)) / h
        richardson = (4 * d2 - d1) / 3
        assert abs(sf.eisenstein_E2(fl, z) + richardson) < 1e-9


def test_wp_elliptic_against_finite_difference():
    fl = sf.Flavor.elliptic(1j)
    z = 0.3
    h = 1e-5
    d1 = (sf.eisenstein_E1(fl, z + h) - sf.eisenstein_E1(fl, z - h)) / (2 * h)
    d2 = (sf.eisenstein_E1(fl, z + h / 2)
          - sf.eisenstein_E1(fl, z - h / 2)) / h
    richardson = (4 * d2 - d1) / 3
    expect = -richardson + sf.kappa_const(fl) / 3.0
    assert abs(sf.weierstrass_p(fl, z) - expect) < 1e-9


def test_f_limit_at_zero_rational():
    # lim_{z->0} f(z, u) = -E2(u); at u=2 the limit is -1/4
    # for the rational flavor f(z, 2) = -1/4 identically, so any small z
    # probes the limit directly
    fl = sf.Flavor.rational()
    for eps in (1e-4, 1e-5):
        assert abs(sf.phi_derivative_f(fl, eps, 2.0) + 0.25) < 1e-10


def test_f_matches_difference_quotient():
    h = 1e-4
    for fl in (sf.Flavor.rational(), sf.Flavor.trigonometric()):
        z, q = 0.3, 0.7
        if fl.kind == sf.TRIGONOMETRIC:
            z, q = 0.5, 0.5
        diff = (sf.kronecker_phi(fl, z, q + h)
                - sf.kronecker_phi(fl, z, q - h)) / (2 * h)
        assert abs(sf.phi_derivative_f(fl, z, q) - diff) < 1e-6


def test_phi_dz_orders():
    # the zero sector's table holds phi(z, u) and its z-derivatives
    fl = sf.Flavor.elliptic(1j)
    zero = [sf.SectorIndex(0, 0, 1)]

    def phi_dz(z, u, order):
        return sf.sector_table(fl, zero, z, u, 2)[1][order][0]

    z, u = 0.23 + 0.08j, 0.41
    h = 1e-5
    assert abs(phi_dz(z, u, 0) - sf.kronecker_phi(fl, z, u)) < 1e-14
    d = (phi_dz(z + h, u, 0) - phi_dz(z - h, u, 0)) / (2 * h)
    assert abs(phi_dz(z, u, 1) - d) < 1e-7
    d2a = (phi_dz(z + h, u, 1) - phi_dz(z - h, u, 1)) / (2 * h)
    d2b = (phi_dz(z + h / 2, u, 1) - phi_dz(z - h / 2, u, 1)) / h
    richardson = (4 * d2b - d2a) / 3
    assert abs(phi_dz(z, u, 2) - richardson) < 1e-7


def test_sector_phi_reduces_at_zero_sector():
    fl = sf.Flavor.elliptic(1j)
    a = sf.SectorIndex(0, 0, 2)
    z, u = 0.2, 0.1
    assert abs(rf.sector_phi(fl, a, z, u)
               - sf.kronecker_phi(fl, z, u)) < 1e-14


def test_sector_phi_real_shift():
    # a = (1, 0): unit exponential factor, shifted second argument
    fl = sf.Flavor.elliptic(1j)
    a = sf.SectorIndex(1, 0, 2)
    got = rf.sector_phi(fl, a, 0.2, 0.1)
    assert abs(got - sf.kronecker_phi(fl, 0.2, 0.6)) < 1e-14


def test_sector_phi_tau_shift():
    # a = (0, 1): explicit component-wise re-evaluation
    tau = 1j
    fl = sf.Flavor.elliptic(tau)
    a = sf.SectorIndex(0, 1, 2)
    z, u = 0.3, 0.15
    expect = cmath.exp(2j * cmath.pi * z / 2) \
        * sf.kronecker_phi(fl, z, tau / 2 + u)
    assert abs(rf.sector_phi(fl, a, z, u) - expect) < 1e-14


def test_sector_f_prefactor():
    fl = sf.Flavor.elliptic(1j)
    a = sf.SectorIndex(1, 1, 3)
    z, u = 0.21, 0.17
    pref = cmath.exp(2j * cmath.pi * a.a2 * z / 3)
    expect = pref * sf.phi_derivative_f(fl, z, a.omega(fl.tau) + u)
    assert abs(rf.sector_f(fl, a, z, u) - expect) < 1e-14


def test_sector_table_array_u(theta_calls):
    # an array u pairs each z with its own u: the table equals the tables
    # of the number u at each element, against the per-sector kernels too
    fl = sf.Flavor.elliptic(0.2 + 0.9j)
    sectors = [sf.SectorIndex(a1, a2, 3) for a1 in range(3)
               for a2 in range(3)]
    zs = np.array([[0.21 + 0.13j, 0.43 - 0.11j], [0.37 + 0.29j, -0.18 + 0.2j]])
    us = np.array([[0.05 + 0.02j, -0.07 + 0.03j], [0.11 - 0.04j, 0.02j]])
    sf.sector_table(fl, sectors, zs, us, 2)   # fills the modulus caches
    del theta_calls[:]
    _, phi, f = sf.sector_table(fl, sectors, zs, us, 2)
    # one series over each z, each omega_a + u and each z + omega_a + u
    (args, upto), = theta_calls
    assert upto == 3 and len(args) == 4 + 2 * 4 * len(sectors)
    assert f.shape == zs.shape + (len(sectors),)
    for idx in np.ndindex(zs.shape):
        _, want, want_f = sf.sector_table(fl, sectors, zs[idx], us[idx], 2)
        for d in range(3):
            assert phi[d].shape == zs.shape + (len(sectors),)
            err = np.abs(phi[d][idx] - want[d])
            assert np.all(err <= 1e-13 * np.abs(want[d])), (idx, d)
        assert np.all(np.abs(f[idx] - want_f) <= 1e-13 * np.abs(want_f))
        for i, a in enumerate(sectors):
            expect = rf.sector_phi(fl, a, zs[idx], us[idx])
            assert abs(phi[0][idx][i] - expect) <= 1e-13 * abs(expect)
            expect = rf.sector_f(fl, a, zs[idx], us[idx])
            assert abs(f[idx][i] - expect) <= 1e-13 * abs(expect)
    # a number z broadcasts against the array u
    _, phi, _ = sf.sector_table(fl, sectors, zs[0, 0], us, 1)
    assert phi[1].shape == us.shape + (len(sectors),)
    _, want, _ = sf.sector_table(fl, sectors, zs[0, 0], us[1, 0], 1)
    assert np.all(np.abs(phi[1][1, 0] - want[1]) <= 1e-13 * np.abs(want[1]))


# distances from a zero of phi_a: on it, then off it along 1 and along i
ZERO_OFFSETS = (0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-3j)


@pytest.mark.parametrize("N, tau", [(2, 1j), (3, 0.3 + 0.8j)])
def test_sector_table_at_the_zeros_of_phi(N, tau):
    # z + w on the lattice is a zero of phi_a (DLMF 20.2(iv)), not a pole:
    # there and near it, at w = omega_a and w = omega_a + u, the table
    # matches mpmath's quotient rule to 1e-12, scaled by |phi_a'|, which
    # is the size of phi_a's rounding near its zero
    pytest.importorskip("mpmath")
    fl = sf.Flavor.elliptic(tau)
    for a in sf.all_sectors(N)[1:]:
        for u, lattice in ((0.0, 0.0), (0.13 + 0.05j, 1 + tau)):
            w = a.omega(tau) + u
            zs = np.array([lattice - w + d for d in ZERO_OFFSETS])
            _, phi, f = sf.sector_table(fl, [a], zs, u, 2)
            for k, z in enumerate(zs):
                want = rf.mp_sector(a, z, w, tau)
                got = (phi[0][k, 0], phi[1][k, 0], phi[2][k, 0], f[k, 0])
                for g, v in zip(got, want):
                    assert abs(g - v) <= 1e-12 * max(abs(v), abs(want[1])), \
                        (a, u, ZERO_OFFSETS[k])


def test_sector_functions_need_elliptic():
    a = sf.SectorIndex(0, 1, 2)
    with pytest.raises(ValueError):
        rf.sector_phi(sf.Flavor.rational(), a, 0.2, 0.1)


def test_sector_index_validation():
    with pytest.raises(ValueError):
        sf.SectorIndex(2, 0, 2)
    a = sf.SectorIndex(1, 1, 3)
    b = rf.neg(a)
    assert (b.a1, b.a2) == (2, 2)
    assert rf.is_zero(rf.add(a, b))


def test_identity_report_rational():
    report = sf.scalar_identity_report(sf.Flavor.rational(), 100, seed=0)
    for name, value in report["identities"].items():
        assert value < 1e-10, f"{name}: {value:.3e}"


def test_identity_report_trigonometric():
    report = sf.scalar_identity_report(sf.Flavor.trigonometric(), 50, seed=1)
    for name, value in report["identities"].items():
        assert value < 1e-10, f"{name}: {value:.3e}"


def test_identity_report_elliptic_with_sectors():
    fl = sf.Flavor.elliptic(1j)
    report = sf.scalar_identity_report(fl, 10, seed=2)
    for name, value in report["identities"].items():
        assert value < 1e-8, f"{name}: {value:.3e}"


@pytest.mark.parametrize("flavor", [sf.Flavor.rational(),
                                    sf.Flavor.trigonometric()])
def test_f_oracle_finds_a_perturbed_closed_form(monkeypatch, flavor):
    # f off by 1e-9 relative fails f_closed_form at 1e-10 on the samples of
    # certify-functions --seed 0
    f = sf.phi_derivative_f
    monkeypatch.setattr(sf, "phi_derivative_f",
                        lambda fl, z, q: f(fl, z, q) * (1.0 + 1e-9))
    report = sf.scalar_identity_report(flavor, 100, seed=0)
    assert not report["identities"]["f_closed_form"] < 1e-10


def test_f_at_zero_resolves_the_kernel(monkeypatch):
    # at tau = i the residues of f(., u) at x = +-tau reach 2 pi e^(2 pi)
    # for u near the top of the cell; f's circle shrinks with them, so the
    # trapezoid rule's truncation (1.1e-12 on a circle of fixed radius at
    # seed 0) falls under the kernels' rounding, and f off by 1e-12
    # relative shows
    fl = sf.Flavor.elliptic(1j)
    report = sf.scalar_identity_report(fl, 100, seed=0, sector_sizes=())
    assert report["identities"]["f_at_zero"] < 1e-13
    f = sf.phi_derivative_f
    for defect, floor in ((1e-12, 5e-13), (1e-6, 1e-8)):
        monkeypatch.setattr(sf, "phi_derivative_f",
                            lambda fl, z, q, d=defect: f(fl, z, q) * (1 + d))
        report = sf.scalar_identity_report(fl, 100, seed=0, sector_sizes=())
        assert report["identities"]["f_at_zero"] > floor, defect


@pytest.mark.parametrize("flavor, tol", [
    (sf.Flavor.rational(), 0.0), (sf.Flavor.trigonometric(), 0.0),
    (sf.Flavor.elliptic(0.3 + 0.8j), 1e-15)])
def test_identity_report_chunks_give_the_same_report(monkeypatch, flavor,
                                                     tol):
    # stacks of 7 samples give the report of one stack of all 30: the
    # closed forms are elementwise, so bit for bit on the rational and
    # trigonometric flavors
    whole = sf.scalar_identity_report(flavor, 30, seed=3)
    chunks = tn.chunks
    monkeypatch.setattr(tn, "chunks", lambda n, entries, budget:
                        chunks(n, entries, 7 * 16 * entries))
    chunked = sf.scalar_identity_report(flavor, 30, seed=3)
    assert chunked["identities"].keys() == whole["identities"].keys()
    for name, value in whole["identities"].items():
        assert abs(chunked["identities"][name] - value) <= tol, name


def test_identity_report_series_count_does_not_grow(theta_calls):
    # every identity is one kernel call over the whole stack of samples,
    # so 100 samples take as many theta series as 10
    fl = sf.Flavor.elliptic(1j)
    sf.scalar_identity_report(fl, 1, seed=0)   # fills the modulus caches
    counts = []
    for samples in (10, 100):
        del theta_calls[:]
        sf.scalar_identity_report(fl, samples, seed=0)
        counts.append(len(theta_calls))
    assert counts[0] == counts[1]


def test_identity_report_rejects_empty():
    with pytest.raises(ValueError):
        sf.scalar_identity_report(sf.Flavor.rational(), 0, seed=0)


def test_sample_point_avoids_poles():
    rng = np.random.default_rng(0)
    fl = sf.Flavor.elliptic(0.3 + 0.8j)
    for _ in range(50):
        z = sf.sample_point(rng, fl)
        assert sf.pole_distance(fl, z) > 1e-2


def test_sector_draw_gives_up(monkeypatch):
    # every point passes alone but the combined check of a sample never
    # does: the draw raises after its redraw limit (the guard stops a draw
    # with no limit)
    fl = sf.Flavor.elliptic(1j)
    distance = sf.pole_distance
    checks = []

    def combined_fails(flavor, z):
        if np.ndim(z) == 0:
            return distance(flavor, z)
        checks.append(1)
        if len(checks) > 5000:
            raise RuntimeError("the sector draw has no redraw limit")
        return np.zeros(np.shape(z))

    monkeypatch.setattr(sf, "pole_distance", combined_fails)
    with pytest.raises(DegenerateDraw):
        sf._sector_draw(np.random.default_rng(0), fl, 2)
    assert len(checks) == 1000
