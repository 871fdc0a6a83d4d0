"""Scalar special functions in three flavors and their identity residuals.

The rational, trigonometric and elliptic flavors share one interface: the
two-variable kernel function phi, the Eisenstein functions E1 and E2, the
Weierstrass function, and the q-derivative f of phi.  The elliptic flavor is
built on an odd theta series, summed for a whole batch of cell-reduced
arguments and all derivative orders at once (theta_sum).  The Z_N x Z_N
sector tables read theta at x + omega_a, omega_a = (a1 + a2 tau)/N, from
one series per reduced argument x: the shift only reweights the Fourier
modes exp(2 pi i h x) (DLMF 20.2), so one weight table per (tau, N,
order) (_theta_weights, its K bound widened to the shifted strip) gives
all N^2 sectors at once.
"""

import cmath
import functools
import math
import sys

import numpy as np

from . import tensor as tn
from .errors import BadModulus, DegenerateDraw, PoleProximity, ThetaOverflow

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"
ELLIPTIC = "elliptic"

MIN_IM_TAU = 0.05
# the cell-reduction factors exp(c_{x+y} - c_x - c_y) of phi reach
# exp(4 pi Im tau) at a sum of two cell points against a cell point, finite
# in double precision only below this bound (56.48)
MAX_IM_TAU = math.log(sys.float_info.max) / (4 * math.pi)
# the identity suite's worst residual grows with |Re tau| (20 samples, seeds
# 0-2): 7.8e-9 at 1e5, 1.6e-8 at 3e5, against its default tol 1e-8
MAX_RE_TAU = 1e5
POLE_EPS = 1e-6
# relative truncation error of the theta series (see _theta_weights)
THETA_TOL = 1e-16

TWO_PI_I = 2j * cmath.pi
PI_I = 1j * cmath.pi


def _check_modulus(tau):
    # one comparison each, so that a NaN part fails it too
    if not MIN_IM_TAU <= tau.imag <= MAX_IM_TAU:
        raise BadModulus(f"Im(tau) = {tau.imag:.4g} outside "
                         f"[{MIN_IM_TAU}, {MAX_IM_TAU:.2f}]")
    if not abs(tau.real) <= MAX_RE_TAU:
        raise BadModulus(f"Re(tau) = {tau.real:.4g} outside "
                         f"[-{MAX_RE_TAU:g}, {MAX_RE_TAU:g}]")


class Flavor:
    """Which degeneration of the elliptic function family to evaluate.

    For the elliptic flavor, ``tau`` is the modulus, with Im tau in
    [MIN_IM_TAU, MAX_IM_TAU].  A flavor is read-only: setting an attribute
    raises AttributeError.
    """

    def __init__(self, kind, tau=None):
        if kind not in (RATIONAL, TRIGONOMETRIC, ELLIPTIC):
            raise ValueError(f"unknown flavor kind {kind!r}")
        if kind == ELLIPTIC:
            if tau is None:
                raise BadModulus("elliptic flavor requires a modulus")
            tau = complex(tau)
            _check_modulus(tau)
        elif tau is not None:
            raise ValueError("tau is only meaningful for the elliptic flavor")
        vars(self).update(kind=kind, tau=tau)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Flavor is read-only: cannot set {name!r}")

    @classmethod
    def rational(cls):
        return cls(RATIONAL)

    @classmethod
    def trigonometric(cls):
        return cls(TRIGONOMETRIC)

    @classmethod
    def elliptic(cls, tau):
        return cls(ELLIPTIC, complex(tau))


@functools.lru_cache(maxsize=16)
def sector_rows(tau, N):
    """The read-only (4, N^2) complex rows a1, a2, omega_a = (a1 + a2*tau)/N
    and 2*pi*i*a2/N over the sectors a = (a1, a2) in Z_N x Z_N, row-major
    (the zero sector first).  Each element is Python complex arithmetic:
    numpy's complex division multiplies by 1/N, which can change the last
    bit."""
    rows = np.ascontiguousarray(np.array([
        (a1, a2, (a1 + a2 * tau) / N, TWO_PI_I * (a2 / N))
        for a1 in range(N) for a2 in range(N)]).T)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=64)
def _theta_weights(tau, N, upto):
    """(g, W): g = 2*pi*i*h over h = k + 1/2, k < K, and W[h, a (upto + 1)
    + d] = exp(pi*i*(tau*h^2 + h) + 2*pi*i*h*omega_a) (2*pi*i*h)^d over
    those h and then their negatives (exp(pi*i*h) exactly +-i), the sectors
    a of sector_rows(tau, N) and d <= upto: the sector factor exp(2*pi*i*h
    omega_a) turns the series at x0 into the one at x0 + omega_a, and for
    N = 1 W is the plain series' table.  For |Im x0| <= Im tau / 2 and
    0 <= Im omega_a <= s Im tau, s = (N - 1) / N, a term is at most
    exp(-pi Im tau (h^2 - b h)), b = 1 + 2 s, while the term-magnitude sum
    of order d is at least 2 pi^d exp(-pi Im tau / 4); K is the first k
    whose bound, weighted by (2 pi h)^upto, is below THETA_TOL / 2 of that,
    and later terms shrink by a ratio below 1/2, so the tail stays below
    THETA_TOL times the term-magnitude sum.  The weights are one exp each,
    so that exp(2*pi*h Im omega_a) does not overflow alone."""
    b = 1.0 + 2.0 * (N - 1) / N
    k = 0
    while True:
        h = k + 0.5
        bound = math.exp(-math.pi * tau.imag * (h * h - b * h - 0.25))
        if bound * (2 * h) ** upto < THETA_TOL / 2:
            break
        k += 1
    hs = [n + 0.5 for n in range(k)] + [-n - 0.5 for n in range(k)]
    omega = sector_rows(tau, N)[2].tolist()
    W = [[cmath.exp(PI_I * tau * h * h + TWO_PI_I * h * w)
          * (TWO_PI_I * h) ** d * (1j if (h + 0.5) % 2 else -1j)
          for w in omega for d in range(upto + 1)] for h in hs]
    return TWO_PI_I * np.array(hs[:k])[:, None], np.array(W)


def _cell(z, tau):
    """(z0, m, n, n*tau): z = z0 + m + n*tau, n = round(Im z / Im tau),
    m = round(Re(z - n*tau)), over a complex array z."""
    n = np.rint(z.imag / tau.imag)
    nt = n * tau
    z0 = z - nt
    m = np.rint(z0.real)
    z0 -= m
    return z0, m, n, nt


def theta_sum(zs, tau, upto=0, N=1):
    """The odd theta series, sum over half-integers h of exp(pi*i*tau*h^2
    + 2*pi*i*(z + 1/2)*h), and its first upto z-derivatives at z + omega_a
    for every z of the tuple zs and every sector a of sector_rows(tau, N)
    (omega_0 = 0 alone for N = 1).  Each z is reduced to the cell, z = z0 +
    m + n*tau (_cell): theta(z0 + omega_a + m + n*tau) = exp(c - 2*pi*i*n
    omega_a) theta(z0 + omega_a), c = pi*i*(m + n) - pi*i*tau*n^2 -
    2*pi*i*n*z0 (DLMF 20.2(iii)), and the terms at x0 = z0 + omega_a are
    fixed by tau and N (_theta_weights): t = exp(2*pi*i*z0 h) @ W, one exp
    over h > 0 (those at -h are reciprocals) and one product for all N^2
    sectors, so each argument is summed once however many sectors read it.
    Returns (t, c, K, n, z0): t[i, a (upto + 1) + d], the d-th derivative
    of theta at z0[i] + omega_a, the log factor c[i], the term pairs K per
    argument and the tau shift n[i].  zs is a tuple, and K is returned, for
    perfbench's tracer, which hashes the arguments and reads the count; no
    cache holds it."""
    z0, m, n, nt = _cell(np.array(zs, dtype=complex), tau)
    c = PI_I * (m + n - n * (nt + 2.0 * z0))
    g, W = _theta_weights(tau, N, upto)
    K = len(g)
    # a column per argument, one twice, as in tensor.rows_product
    L = len(z0)
    E = np.empty((2 * K, L + (L == 1)), dtype=complex)
    np.exp(g * z0, out=E[:K, :L])
    E[:K, L:] = E[:K, :1]
    np.reciprocal(E[:K], out=E[K:])
    return (E.T @ W)[:L], c, K, n, z0


def theta(z, tau, deriv=0):
    """The deriv-th z-derivative of the odd theta function at z on modulus
    tau: theta^(d)(z) = exp(c) sum_k binom(d, k) s^(d-k) t[k], s = -2*pi*i*n
    being the derivative of theta_sum's log factor c.  Raises ThetaOverflow
    where theta or a lower derivative is not representable in floating
    point."""
    tau = complex(tau)
    _check_modulus(tau)
    if deriv < 0:
        raise ValueError("derivative order must be >= 0")
    z = complex(z)
    t, c, _, n, _ = theta_sum((z,), tau, deriv)
    s, t = -TWO_PI_I * float(n[0]), t[0].tolist()
    try:
        scale = cmath.exp(c[0])
        values = [scale * sum(math.comb(d, k) * s ** (d - k) * t[k]
                              for k in range(d + 1)) for d in range(deriv + 1)]
    except OverflowError:
        values = [math.inf]
    if not all(map(cmath.isfinite, values)):
        raise ThetaOverflow(
            f"theta at z = {z} is not representable in floating point "
            f"(|Im z| / Im tau = {abs(z.imag) / tau.imag:.3g})")
    return values[deriv]


@functools.lru_cache(maxsize=64)
def _theta_at_zero(tau):
    """(theta'(0), kappa = theta'''(0) / theta'(0)), summed once per tau."""
    t = theta_sum((0j,), tau, 3)[0][0]
    return complex(t[1]), complex(t[3] / t[1])


def pole_distance(flavor, z):
    """Distance from z, a number (giving a float) or an array, to the
    flavor's pole set; hypot rounds as Python's abs does, so an array holds
    the bits of its elements.  A finite Python number takes the same steps
    in plain Python (_number_pole_distance), with the same bits."""
    if isinstance(z, (int, float, complex)) and cmath.isfinite(z):
        return _number_pole_distance(flavor, complex(z))
    z = np.asarray(z, dtype=complex)
    if flavor.kind == TRIGONOMETRIC:
        # poles at i*pi*Z
        z = z.real + 1j * (z.imag - np.rint(z.imag / np.pi) * np.pi)
    elif flavor.kind == ELLIPTIC:
        # poles at m + n*tau: row floor(Im z / Im tau) holds a point within
        # hypot(1/2, Im tau) of z, so the nearest lies in a row within K of
        # it; each row n, on a last axis, offers its nearest point m
        tau = flavor.tau
        K = math.ceil(math.hypot(0.5, tau.imag) / tau.imag)
        n = np.floor(z.imag / tau.imag)[..., None] + np.arange(-K, K + 2)
        z = z[..., None]
        m = np.rint((z - n * tau).real)
        z = z - (m + n * tau)
    d = np.hypot(z.real, z.imag)
    d = d.min(-1) if flavor.kind == ELLIPTIC else d
    return float(d) if d.ndim == 0 else d


def _number_pole_distance(flavor, z):
    """pole_distance of a finite complex number, step by step as the array
    path: round is np.rint (half to even) and abs is hypot."""
    if flavor.kind == TRIGONOMETRIC:
        return abs(complex(z.real, z.imag - round(z.imag / math.pi) * math.pi))
    if flavor.kind != ELLIPTIC:
        return abs(z)
    tau = flavor.tau
    K = math.ceil(math.hypot(0.5, tau.imag) / tau.imag)
    row = math.floor(z.imag / tau.imag)
    nearest = math.inf
    for n in range(row - K, row + K + 2):
        nt = float(n) * tau
        nearest = min(nearest, abs(z - (round((z - nt).real) + nt)))
    return nearest


def check_pole(flavor, *args):
    """Raise PoleProximity if any argument, a number or an array of them,
    sits within POLE_EPS of a pole, naming the first such element (ravel
    order); else return the pole distances of each argument, raveled.  The
    test is one reduction, fmin's, which passes over a NaN distance as the
    elementwise test does."""
    out = []
    for z in args:
        d = np.ravel(pole_distance(flavor, z))
        if np.fmin.reduce(d, initial=math.inf) <= POLE_EPS:
            v = complex(np.ravel(z)[(d <= POLE_EPS).argmax()])
            raise PoleProximity(v, pole_distance(flavor, v))
        out.append(d)
    return out


def shortest_period(flavor):
    """Distance from 0 to the nearest other pole: 1 (rational: none, capped),
    pi, or the shortest of 1 and n*tau - round(n Re tau), n Im tau <= 1."""
    if flavor.kind != ELLIPTIC:
        return 1.0 if flavor.kind == RATIONAL else math.pi
    tau = flavor.tau
    return min([1.0] + [abs(n * tau - round(n * tau.real))
                        for n in range(1, math.ceil(1 / tau.imag) + 1)])


# the points of a laurent_coefficients circle, and its radius over the
# distance from its center to the nearest other pole of the function
LAURENT_POINTS = 16
LAURENT_RADIUS = 1 / 8


def laurent_coefficients(g, center, radius, orders):
    """Coefficients c_j, j in orders, of g(center + h) = sum_j c_j h^j.

    center and radius are numbers, or arrays (one circle per element of
    their broadcast) for a g with a number per point.  g is called once, on
    the LAURENT_POINTS points center + radius*exp(i*theta_k) of each circle
    on a last axis, and returns a number or an array per point.  c_j =
    mean_k(g_k exp(-i*j*theta_k)) / radius^j is the trapezoidal rule, off by
    (radius / d)^n relative for d the distance to the nearest other
    singularity (Trefethen & Weideman, SIAM Rev. 56, 2014): 8^-16 here."""
    n = LAURENT_POINTS
    angles = 2.0 * math.pi * np.arange(n) / n
    points = np.expand_dims(center, -1) \
        + np.expand_dims(radius, -1) * np.exp(1j * angles)
    values = np.moveaxis(np.asarray(g(points), dtype=complex),
                         points.ndim - 1, 0)
    # a stack of one circle of numbers is doubled, column-major as a longer
    # one: numpy sends one column to a dot product, not a matrix-vector call
    cols = values.reshape(n, -1)
    if cols.shape[1] == 1 and points.ndim > 1:
        cols = np.asfortranarray(cols.repeat(2, 1))
    return [np.tensordot(np.exp(-1j * j * angles), cols, axes=1)[
        :values[0].size].reshape(values.shape[1:]) / (n * radius ** j)
        for j in orders]


def kappa_const(flavor):
    """The third-log-derivative constant theta'''(0)/theta'(0) per flavor.

    Controls the z^1 coefficient of E1 near 0; equals 0 (rational),
    1 (trigonometric, from sinh), and the theta ratio (elliptic).
    """
    if flavor.kind == RATIONAL:
        return 0.0 + 0.0j
    if flavor.kind == TRIGONOMETRIC:
        return 1.0 + 0.0j
    return _theta_at_zero(flavor.tau)[1]


def _log_derivs(t, s):
    """E1, E1' = -E2 and E1'' = -E2' (orders 1 .. len(t) - 1, at most 3)
    as the rows of one array, from the series rows t[d] at the reduced
    arguments and the z-derivatives s of their log factors."""
    out = t[1:] / t[:1]
    g = out[0]
    if len(out) > 1:
        gg = g * g
        out[1] -= gg
    if len(out) > 2:
        # E1'' = t3/t0 - 3 E1 t2/t0 + 2 E1^3 = t3/t0 - E1 (3 E1' + E1^2)
        gg += 3.0 * out[1]
        out[2] -= g * gg
    out[:1] += s    # last, as g is a view of it
    return out


def _log_theta(flavor, z, upto):
    """[E1, -E2, -E2'][:upto] at a number or an array z, as arrays of its
    shape: the z-derivatives of log theta, log sinh or log by flavor."""
    z = np.asarray(z, dtype=complex)
    if flavor.kind == ELLIPTIC:
        t, _, s, z0 = _series(tuple(z.ravel().tolist()), flavor.tau, upto,
                              z.shape)
        _pole_guard(z.ravel(), z0)
        return _log_derivs(t[:, 0], s[:, 0])
    check_pole(flavor, z)
    if flavor.kind == RATIONAL:
        # np.power, unlike ** on an array, rounds as a single element does
        return [1.0 / z, -1.0 / np.power(z, 2), 2.0 / np.power(z, 3)][:upto]
    coth, csch = coth_csch(z)
    return [coth, -csch * csch, 2.0 * coth * csch * csch][:upto]


def coth_csch(z):
    """(coth z, csch z) over a complex array z, finite at every finite z
    off the poles i pi Z: with s = +-1 the sign bit of Re z, |e^(-s z)| <=
    1, and d = -expm1(-2 s z) (its digits kept near 0) and g = 2 s / d give
    coth z = s (2/d - 1) = g - s and csch z = 2 s e^(-s z) / d = g e^(-s z)."""
    s = np.copysign(1.0, z.real)
    sz = s * z
    g = (-2.0 * s) / np.expm1(-2.0 * sz)
    return g - s, np.exp(-sz) * g


def _number(v):
    """v, or the complex number it holds where it has no axes: each kernel
    takes numbers or arrays, and gives a number for numbers."""
    return complex(v) if np.ndim(v) == 0 else v


def eisenstein_E1(flavor, z):
    return _number(_log_theta(flavor, z, 1)[0])


def eisenstein_E2(flavor, z):
    """Second Eisenstein function, -d/dz E1(z)."""
    return _number(-_log_theta(flavor, z, 2)[1])


def eisenstein_E2_prime(flavor, z):
    """d/dz E2(z), needed for derivative kernels in the dynamics."""
    return _number(-_log_theta(flavor, z, 3)[2])


def weierstrass_p(flavor, z):
    """Weierstrass function: E2 plus the flavor's additive constant."""
    e2 = -_log_theta(flavor, z, 2)[1]
    if flavor.kind == ELLIPTIC:
        e2 = e2 + kappa_const(flavor) / 3.0
    return _number(e2)


def kronecker_phi(flavor, eta, z):
    """Two-variable kernel function phi(eta, z); symmetric in its arguments,
    which broadcast against each other: E1(eta) + E1(z), or on the
    elliptic flavor the sector_table of N = 1, whose one sector is phi."""
    if flavor.kind == ELLIPTIC:
        return _number(sector_table(flavor, 1, eta, z, 0)[0][..., 0])
    eta, z = np.broadcast_arrays(np.asarray(eta, dtype=complex),
                                 np.asarray(z, dtype=complex))
    e1 = _log_theta(flavor, np.stack([eta, z]), 1)[0]
    return _number(e1[0] + e1[1])


def phi_derivative_f(flavor, z, q):
    """f(z, q) = d/dq phi(z, q), z and q broadcast: -E2(q), or on the
    elliptic flavor the f row of the sector_table of N = 1."""
    if flavor.kind == ELLIPTIC:
        return _number(sector_table(flavor, 1, z, q, 0, f=True)[1][..., 0])
    return _number(_log_theta(flavor, np.broadcast_arrays(z, q)[1], 2)[1])


def _pole_guard(args, z0):
    """PoleProximity at the nearest of args whose z0 is within POLE_EPS."""
    d = list(map(abs, z0.tolist()))
    nearest = min(d, default=math.inf)
    if nearest <= POLE_EPS:
        raise PoleProximity(complex(args[d.index(nearest)]), nearest)


def _series(args, tau, upto, shape, N=1):
    """theta_sum's rows t[d] at each argument x plus omega_a and their log
    factors c - 2*pi*i*n*omega_a, with the axes (rows or 1, N^2 sectors) +
    shape, the z-derivatives -2*pi*i*n of those (axes (1, 1) + shape: one
    per argument, whatever its sector) and the reduced arguments over
    args."""
    t, c, _, n, z0 = theta_sum(args, tau, upto, N)
    s = -TWO_PI_I * n
    c = c + np.multiply.outer(sector_rows(tau, N)[2], s)
    t = t.reshape(len(args), N * N, upto + 1).transpose(2, 1, 0)
    return (np.ascontiguousarray(t).reshape((upto + 1, N * N) + shape),
            c.reshape((1, N * N) + shape), s.reshape((1, 1) + shape), z0)


def _phi_rows(z, tz, cz, log_z, t, czw, s, twist, lw, e1w, lo, upto):
    """The rows phi_a^(lo) .. phi_a^(upto), lo <= 1, then f_a unless e1w is
    None (sector_table), from z, its rows tz, log factor cz and log_z; the
    rows t, log factors czw and their z-derivatives s at z + w; and per w
    2*pi*i*a2/N, lw = log(theta'(0)/theta(w0)) - c_w and E1(w).  With G =
    phi / theta(z + w), a = 2*pi*i*a2/N - E1(z) and b = a + s on the
    reduced rows: phi = G t0, phi' = G (t1 + b t0), phi'' = G (t2 + 2 b t1
    + (b^2 - E1'(z)) t0), f = G (t1 + (s - E1(w)) t0).  Each array has the
    axes (rows or 1, sectors or 1) + shape, and no complex product writes
    into an operand: numpy rounds such one-element products otherwise."""
    f = e1w is not None
    rows = np.empty((upto + 1 - lo + f,) + t.shape[1:], dtype=complex)
    if lo == 0:
        rows[0] = t[0]
    if upto:
        b = twist - log_z[:1] + s
        # the rows of the orders 1 .. upto
        d = rows[1 - lo:upto + 1 - lo]
        np.multiply(b, t[:upto], out=d)
        d += t[1:upto + 1]
        if upto == 2:
            d[1:] += np.multiply(b, d[:1]) - np.multiply(log_z[1:2], t[:1])
    if f:
        np.multiply(s - e1w, t[:1], out=rows[-1:])
        rows[-1] += t[1]
    # the log factors of the cell reduction combined before exponentiating
    return np.multiply(rows, np.exp(z * twist + czw - cz + lw) / tz[:1])


def sector_table(flavor, N, z, u, upto, f=False):
    """The rows phi^(0) .. phi^(upto), upto <= 2, then f if f, of phi_a(z,
    w) = exp(2*pi*i*a2*z/N) theta'(0) theta(z + w) / (theta(z) theta(w)),
    w = omega_a + u, over every z of a number or an array (u broadcasts
    against z) and the N^2 sectors a of sector_rows (the last axis), from
    one theta series over each z, u and z + u, whose sector weights give
    theta at w and z + w of every sector (theta_sum): phi^(k)[..., a] is
    the k-th z-derivative of phi_a and f[..., a] = exp(2*pi*i*a2*z/N) f(z,
    w).  Nothing divides by theta(z + w), whose zeros (DLMF 20.2(iv)) are
    zeros of phi_a (see _phi_rows); the guard names the nearest of z and
    the w within POLE_EPS of a pole."""
    if flavor.kind != ELLIPTIC:
        raise ValueError("sector functions require the elliptic flavor")
    if not 0 <= upto <= 2:
        raise ValueError("order must be 0, 1 or 2")
    tau = flavor.tau
    z, u = np.asarray(z, dtype=complex), np.asarray(u, dtype=complex)
    shape = np.broadcast_shapes(z.shape, u.shape)
    # z and u with the axes of the broadcast
    z, u = (v.reshape((1,) * (len(shape) - v.ndim) + v.shape) for v in (z, u))
    _, _, omega, twist = sector_rows(tau, N)
    args = np.concatenate([z.ravel(), u.ravel(), (z + u).ravel()])
    t, c, s, z0 = _series(tuple(args.tolist()), tau, upto + 1, args.shape, N)
    P, W = z.size, z.size + u.size
    # the w = omega_a + u reduced as a series over them would be
    ws = (omega.reshape((-1,) + (1,) * u.ndim) + u).ravel()
    _pole_guard(np.concatenate([z.ravel(), ws]),
                np.concatenate([z0[:P], _cell(ws, tau)[0]]))
    # the zero sector of z, and every sector of u and z + u
    (tz, cz, sz), (tw, cw, sw), (tzw, czw, szw) = (
        (t[:, :k, lo:hi].reshape((len(t), k) + group),
         c[:, :k, lo:hi].reshape((1, k) + group),
         s[..., lo:hi].reshape((1, 1) + group))
        for lo, hi, k, group in ((0, P, 1, z.shape), (P, W, N * N, u.shape),
                                 (W, len(args), N * N, shape)))
    y = _phi_rows(z[None, None], tz, cz, _log_derivs(tz, sz), tzw, czw, szw,
                  twist.reshape((1, -1) + (1,) * len(shape)),
                  np.log(_theta_at_zero(tau)[0] / tw[:1]) - cw,
                  _log_derivs(tw[:2], sw) if f else None, 0, upto)
    # the sector axis last, in memory too, as callers take products of it
    return np.ascontiguousarray(y.transpose((0,) + tuple(range(2, y.ndim))
                                            + (1,)))


def omega_constants(flavor, N):
    """Read-only rows over the N^2 sectors a of omega_a, 2*pi*i*a2/N,
    log(theta'(0)/theta(omega_a)), E1(omega_a) and E1'(omega_a), from one
    theta series at the single point 0, whose sector weights give theta at
    every omega_a with no cell reduction (theta_sum): the constants of
    regular_table, kept by a family.  The zero sector's column is 0, its
    log weight -inf."""
    out = np.zeros((5, N * N), dtype=complex)
    out[:2] = sector_rows(flavor.tau, N)[2:]
    out[2, 0] = -math.inf
    t = _series((0j,), flavor.tau, 2, (), N)[0]
    out[2, 1:] = np.log(_theta_at_zero(flavor.tau)[0] / t[0, 1:])
    out[3:, 1:] = _log_derivs(t[:, 1:], 0.0)
    out.flags.writeable = False
    return out


def regular_table(flavor, constants, z, orders, f=False):
    """The rows phi_a^(d)(z, omega_a), d in the tuple orders, then f_a if
    f, over a complex array z and all N^2 sectors a (the last axis), from
    one theta series over z, whose sector weights give theta at every z +
    omega_a (theta_sum).  The zero sector holds the regular part at u = 0
    of phi_0(z, u) = 1/u + E1(z) + u (E1^2 - wp)(z) / 2 + O(u^2): E1 and
    its derivatives, and (E1^2 - wp) / 2 as f."""
    lo, upto = min(min(orders), 1), max(orders)
    # the sector axis in front of z's, the zero sector (omega = 0) first
    w = constants.reshape((5, 1, -1) + (1,) * z.ndim)
    t, c, s, z0 = _series(tuple(z.ravel().tolist()), flavor.tau,
                          max(upto, f) + 1, z.shape,
                          math.isqrt(constants.shape[1]))
    _pole_guard(z.ravel(), z0)
    log_z = _log_derivs(t[:, :1], s)
    y = _phi_rows(z[None, None], t[:, :1], c[:, :1], log_z, t, c, s, w[1],
                  w[2], w[3] if f else None, lo, upto)
    y[:upto + 1 - lo, :1] = log_z[lo:upto + 1]
    if f:
        y[-1:, :1] = (log_z[:1] * log_z[:1] + log_z[1:2]
                      - kappa_const(flavor) / 3.0) / 2.0
    if orders != tuple(range(lo, upto + 1)):
        y = y[[d - lo for d in orders] + [-1] * f]
    return np.ascontiguousarray(y.transpose((0,) + tuple(range(2, y.ndim))
                                            + (1,)))


def sample_point(rng, flavor, eps=1e-2):
    """One complex argument for identity sampling, uniform in the unit box
    centered at 0.5 + 0.25i (rational, trigonometric) or in the cell spanned
    by 1 and tau (elliptic), redrawn until it clears the margin eps (coarser
    than the pole guard, so that sums and differences stay well-conditioned).
    """
    for _ in range(1000):
        if flavor.kind == ELLIPTIC:
            z = rng.random() + rng.random() * flavor.tau
        else:
            z = complex(rng.random(), rng.random() - 0.25)
        if pole_distance(flavor, z) > eps:
            return z
    raise DegenerateDraw("sampling failed to clear the pole margin")


@functools.lru_cache(maxsize=16)
def _pairs(count):
    """The pairs i < j of count points in row-major order, as two read-only
    index arrays."""
    i, j = np.triu_indices(count, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def sample_tuple(rng, flavor, count, eps=1e-2, extra=()):
    """Draw count points such that they, their pairwise sums and differences
    and their combinations with each coefficient row of extra clear eps."""
    for _ in range(1000):
        pts = [sample_point(rng, flavor, eps) for _ in range(count)]
        p = np.array(pts)
        i, j = _pairs(count)
        combos = np.concatenate([p, p[i] + p[j], p[i] - p[j],
                                 np.reshape(extra, (-1, count)) @ p])
        if np.all(pole_distance(flavor, combos) > eps):
            return pts
    raise DegenerateDraw("sampling failed to clear the pole margin")


# --- certification engine ---------------------------------------------------
# Each suite (the one below, rmatrix.certify) draws its samples first, as
# rows, then evaluates each identity once over stacks of them.

def _rel(residual, *terms):
    """|residual| over the largest |term|, elementwise, or |residual| itself
    where every term vanishes (a term 1.0 floors the scale); np.maximum
    keeps a NaN."""
    scale = functools.reduce(np.maximum, map(np.abs, terms))
    return np.abs(residual) / np.where(scale == 0.0, 1.0, scale)


def expansion_residual(g, center, radius, closed, norm=np.abs):
    """Per circle, the largest _rel over norm, floored at 1, of g's
    laurent_coefficients at center against closed = {order: closed form}."""
    got = laurent_coefficients(g, center, radius, closed)
    return functools.reduce(np.maximum, [
        _rel(norm(v - c), norm(v), norm(c), 1.0)
        for v, c in zip(got, closed.values())])


def max_residuals(samples, entries, evaluate):
    """{name: largest residual} over the rows of samples, each holding this
    many complex entries at once: evaluate maps one tensor.chunks stack of
    rows (within CERTIFY_BYTES) at a time to {name: one residual per row}.
    np.maximum keeps a NaN, which then fails its tolerance."""
    worst = {}
    for chunk in tn.chunks(len(samples), entries, tn.CERTIFY_BYTES):
        for name, values in evaluate(samples[chunk]).items():
            worst[name] = np.maximum(worst.get(name, 0.0), np.max(values))
    return {name: float(value) for name, value in worst.items()}


def _expansion_residuals(flavor, z, u):
    """Closed forms against expansion coefficients: phi(x, u) = 1/x + E1(u)
    + x*(E1(u)^2 - E2(u) - kappa/3)/2 + O(x^2) at x = 0; f(0, u) = -E2(u),
    the removable value of f(x, u) there; and f(z, u), the linear
    coefficient of phi(z, .) at u.  Each circle is one kernel call over the
    arrays z and u."""
    # phi(x, u) and f(x, u) are singular in x only on the lattice, and
    # phi(z, v) in v only where v is on it; one circle at 0 per sample
    origin = np.zeros(u.shape)
    near_0 = LAURENT_RADIUS * shortest_period(flavor)
    near_f = near_0
    if flavor.kind == ELLIPTIC:
        # the trapezoid rule's truncation, |residue| (radius /
        # distance)^LAURENT_POINTS, grows with f(., u)'s residues at
        # x = +-tau, of size 2 pi e^(2 pi |Im u|): f's circle shrinks by that
        # size's LAURENT_POINTS-th root, to no less than 2 POLE_EPS
        near_f = np.maximum(near_0 * (2.0 * math.pi * np.exp(
            2.0 * math.pi * np.abs(u.imag))) ** (-1.0 / LAURENT_POINTS),
            2.0 * POLE_EPS)
    kap = kappa_const(flavor)
    e1u, e2u = eisenstein_E1(flavor, u), eisenstein_E2(flavor, u)
    return {   # z[..., None] and u[..., None] against the circle axis
        "phi_local_expansion": expansion_residual(
            lambda x: kronecker_phi(flavor, x, u[..., None]), origin, near_0,
            {-1: 1.0, 0: e1u, 1: (e1u * e1u - e2u - kap / 3.0) / 2.0}),
        "f_at_zero": expansion_residual(
            lambda x: phi_derivative_f(flavor, x, u[..., None]), origin,
            near_f, {0: -e2u}),
        "f_closed_form": expansion_residual(
            lambda v: kronecker_phi(flavor, z[..., None], v), u,
            LAURENT_RADIUS * pole_distance(flavor, u),
            {1: phi_derivative_f(flavor, z, u)}),
    }


def _core_residuals(flavor, samples):
    """The Fay identity, its degenerations and the expansion oracles over a
    stack of samples (eta, z, w, u): one call per kernel."""
    eta, z, w, u = samples.T
    # phi at every argument pair below, then f, wp, E2 and E1
    (p_ez, p_ze, p_zu, p_wu, p_zwu, p_w2u, p_wzu, p_z2u, p_zw, p_zew, p_emz,
     p_su) = kronecker_phi(
        flavor, np.stack([eta, z, z, w, z - w, w, w - z, z, z, z, eta, z + w]),
        np.stack([z, eta, u, u, u, u + u, u, u + u, w, eta + w, -z, u]))
    f_zw, f_ze, f_su = phi_derivative_f(flavor, np.stack([z, z, z + w]),
                                        np.stack([w, eta, u]))
    wp_eta, wp_w, wp_z = weierstrass_p(flavor, np.stack([eta, w, z]))
    e2_eta, e2_z = eisenstein_E2(flavor, np.stack([eta, z]))
    e1_z, e1_w = eisenstein_E1(flavor, np.stack([z, w]))
    # phi(z,q)phi(w,u) = phi(z-w,q)phi(w,q+u) + phi(w-z,u)phi(z,q+u), q = u
    t1, t2, t3 = p_zu * p_wu, p_zwu * p_w2u, p_wzu * p_z2u
    # phi(z,x)f(z,y) - phi(z,y)f(z,x) = phi(z,x+y)(wp(x) - wp(y)), x = eta
    lhs, rhs = p_ze * f_zw - p_zw * f_ze, p_zew * (wp_eta - wp_w)
    # phi(eta,z)phi(eta,-z) = wp(eta) - wp(z) = E2(eta) - E2(z)
    prod, wdiff, ediff = p_ez * p_emz, wp_eta - wp_z, e2_eta - e2_z
    # phi(z,u)phi(w,u) = phi(z+w,u)(E1(z) + E1(w)) - f(z+w,u)
    sum_rhs = p_su * (e1_z + e1_w) - f_su
    return {
        "symmetry": _rel(p_ez - p_ze, p_ez),
        "fay": _rel(t1 - t2 - t3, t1, t2, t3),
        "wp_difference": _rel(lhs - rhs, lhs, rhs),
        "unitarity": np.maximum(_rel(prod - wdiff, prod, wdiff),
                                _rel(prod - ediff, prod, ediff)),
        "e1_sum_product": _rel(t1 - sum_rhs, t1, sum_rhs),
        **_expansion_residuals(flavor, z, u),
    }


def _sector_draw(rng, flavor, N):
    """One sample (q, hb, z) of the lattice-sum identities: they, N*q, q/N
    and their shifts by each omega_a keep off the lattice."""
    om = sector_rows(flavor.tau, N)[2]
    for _ in range(1000):
        q = sample_point(rng, flavor)
        hb = sample_point(rng, flavor)
        z = sample_point(rng, flavor)
        pts = np.concatenate([[q, hb, z, N * hb, N * q, q / N], om + q,
                              N * q + om, om[1:] + z / N, N * hb + om + z / N,
                              om + hb])
        if np.all(pole_distance(flavor, pts) > 1e-2):
            return q, hb, z
    raise DegenerateDraw("sampling failed to clear the pole margin")


def _sector_residuals(flavor, N, samples):
    """The four lattice-sum identities for Z_N x Z_N sectors over a stack
    of samples (q, hb, z), each one expression over all samples and sectors
    (gamma indexes rows of the phase, alpha columns)."""
    a1, a2, om, _ = sector_rows(flavor.tau, N)
    a1, a2 = a1.real, a2.real
    q, hb, z = samples.T
    # kappa^2(alpha, gamma) = exp(2*pi*i*(g1*a2 - g2*a1)/N)
    phase = np.exp(TWO_PI_I * (np.outer(a1, a2) - np.outer(a2, a1)) / N)
    out = {}
    # Fourier sum:
    # (1/N) sum_a kappa^2 phi_a(N*hb, w_a + z/N) = phi_g(z, w_g + hb)
    (phi,) = sector_table(flavor, N, np.stack([N * hb, z], -1),
                          np.stack([z / N, hb], -1), 0)
    total = tn.rows_product(phi[:, 0], phase.T) / N
    out["fourier_sum"] = _rel(total - phi[:, 1], total, phi[:, 1]).max(-1)

    # residuals of the lattice sums are scaled by the largest summand, since
    # the sums themselves suffer heavy cancellation near the cell boundary.
    # E2 = -E1' at every w_a + q and w_a + q/N is one series over q and q/N
    x = np.stack([q, q / N])
    ws = (om + x[..., None]).ravel()
    _pole_guard(ws, _cell(ws, flavor.tau)[0])
    t, _, s, _ = _series(tuple(x.ravel().tolist()), flavor.tau, 2, x.shape, N)
    # the sector axis last in memory, as the sums below run over it
    e2_shift, e2_frac = np.ascontiguousarray(
        np.moveaxis(-_log_derivs(t, s)[1], 0, -1))
    # at x = N*q and x = q, -E2(x) and, for a != 0, the first z-derivative
    # phi_a(x, w_a)(E1(x + w_a) - E1(x) + 2*pi*i*a2/N) of phi_a(x, w_a)
    d1 = regular_table(flavor, omega_constants(flavor, N),
                       np.stack([N * q, q]), (1,))[0]
    (e2_Nq, e2_q), dphi = -d1[..., 0], d1[..., 1:]

    # lattice sum: sum_a E2(w_a + q) = N^2 E2(N*q)
    rhs = N * N * e2_Nq
    out["e2_lattice_sum"] = _rel(e2_shift.sum(-1) - rhs, rhs,
                                 np.max(np.abs(e2_shift), -1))

    # twisted sum, gamma != 0:
    # sum_a kappa^2 E2(w_a + q) = -N^2 phi_g(N*q, w_g)(E1(N*q+w_g)-E1(N*q)+c_g)
    terms = phase[1:] * e2_shift[:, None]
    rhs = -N * N * dphi[0]
    out["e2_twisted_sum"] = np.max(
        _rel(terms.sum(-1) - rhs, rhs, np.max(np.abs(terms), -1)), -1)

    # converse: -E2(q) + sum_{a!=0} kappa^2 phi_a(q, w_a)(E1(q+w_a)-E1(q)+c_a)
    #           = -E2(w_g + q/N)
    terms = phase[:, 1:] * dphi[1][:, None]
    total = terms.sum(-1) - e2_q[:, None]
    out["e2_converse_sum"] = np.max(_rel(total + e2_frac, e2_frac,
                                         e2_q[:, None],
                                         np.max(np.abs(terms), -1)), -1)
    return out


def scalar_identity_report(flavor, n_samples, seed, sector_sizes=(2, 3)):
    """Max relative residuals of the scalar identity suite over random
    draws: {"flavor", "samples", "seed", "identities": {name: max_residual}}.
    The sector identities (lattice sums over Z_N x Z_N) are elliptic only,
    for each N in sector_sizes.  All samples are drawn first; a sample holds
    its largest theta series at once, 2K terms per argument (K as at
    MIN_IM_TAU): 3 arguments per expansion-circle point (CERTIFY_BYTES holds
    642 samples), and sector_table's 6 per sector sample, z, u and z + u of
    two pairs, with 2 N^2 sector values each (4161 samples at N = 2, 3360
    at N = 3)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    samples = np.array([sample_tuple(rng, flavor, 4)
                        for _ in range(n_samples)])
    terms = len(_theta_weights(complex(0, MIN_IM_TAU), 1, 2)[1])
    worst = max_residuals(samples, terms * 3 * LAURENT_POINTS,
                          functools.partial(_core_residuals, flavor))
    # E1(x) = 1/x + x*kappa/3 + O(x^3) at x = 0, on one circle of no sample
    worst["e1_local_expansion"] = float(expansion_residual(
        lambda x: eisenstein_E1(flavor, x), 0.0,
        LAURENT_RADIUS * shortest_period(flavor),
        {-1: 1.0, 0: 0.0, 1: kappa_const(flavor) / 3.0}))
    for N in sector_sizes if flavor.kind == ELLIPTIC else ():
        draws = np.array([_sector_draw(rng, flavor, N)
                          for _ in range(n_samples)])
        res = max_residuals(draws, 6 * (terms + 2 * N * N),
                            functools.partial(_sector_residuals, flavor, N))
        worst.update((f"{key}_N{N}", value) for key, value in res.items())
    return {
        "flavor": flavor.kind,
        "tau": None if flavor.tau is None else [flavor.tau.real,
                                                flavor.tau.imag],
        "samples": int(n_samples),
        "seed": int(seed),
        "identities": worst,
    }
