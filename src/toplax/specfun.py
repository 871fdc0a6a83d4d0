"""Scalar special functions in three flavors and their identity residuals.

The rational, trigonometric and elliptic flavors share one interface: the
two-variable kernel function phi, the Eisenstein functions E1 and E2, the
Weierstrass function, and the q-derivative f of phi.  The elliptic flavor is
built on an odd theta series, summed for a whole batch of cell-reduced
arguments and all derivative orders at once (theta_sum).
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadModulus, DegenerateDraw, PoleProximity, ThetaOverflow

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"
ELLIPTIC = "elliptic"

MIN_IM_TAU = 0.05
POLE_EPS = 1e-6

TWO_PI_I = 2j * cmath.pi
PI_I = 1j * cmath.pi


@dataclass(frozen=True)
class Flavor:
    """Which degeneration of the elliptic function family to evaluate.

    For the elliptic flavor, ``tau`` is the modulus (Im tau >= 0.05) and
    ``trunc_tol`` controls theta-series truncation.
    """

    kind: str
    tau: complex = None
    trunc_tol: float = 1e-16

    def __post_init__(self):
        if self.kind not in (RATIONAL, TRIGONOMETRIC, ELLIPTIC):
            raise ValueError(f"unknown flavor kind {self.kind!r}")
        if not 0.0 < self.trunc_tol <= 1e-8:
            raise ValueError("trunc_tol must lie in (0, 1e-8]")
        if self.kind == ELLIPTIC:
            if self.tau is None:
                raise BadModulus("elliptic flavor requires a modulus")
            object.__setattr__(self, "tau", complex(self.tau))
            if self.tau.imag < MIN_IM_TAU:
                raise BadModulus(
                    f"Im(tau) = {self.tau.imag:.4f} below {MIN_IM_TAU}")
        elif self.tau is not None:
            raise ValueError("tau is only meaningful for the elliptic flavor")

    @classmethod
    def rational(cls):
        return cls(RATIONAL)

    @classmethod
    def trigonometric(cls):
        return cls(TRIGONOMETRIC)

    @classmethod
    def elliptic(cls, tau, trunc_tol=1e-16):
        return cls(ELLIPTIC, complex(tau), trunc_tol)


@dataclass(frozen=True)
class SectorIndex:
    """Discrete label a = (a1, a2) in Z_N x Z_N for the sector functions."""

    a1: int
    a2: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if not (0 <= self.a1 < self.N and 0 <= self.a2 < self.N):
            raise ValueError("components must lie in [0, N)")

    def omega(self, tau):
        """Lattice fraction (a1 + a2*tau)/N attached to this sector."""
        return (self.a1 + self.a2 * tau) / self.N

    def __neg__(self):
        return SectorIndex((-self.a1) % self.N, (-self.a2) % self.N, self.N)

    def __add__(self, other):
        if self.N != other.N:
            raise ValueError("mismatched N")
        return SectorIndex((self.a1 + other.a1) % self.N,
                           (self.a2 + other.a2) % self.N, self.N)

    def is_zero(self):
        return self.a1 == 0 and self.a2 == 0


def all_sectors(N):
    """All N^2 sector labels in row-major (a1, a2) order."""
    return [SectorIndex(a1, a2, N) for a1 in range(N) for a2 in range(N)]


@functools.lru_cache(maxsize=64)
def _theta_weights(tau, tol, upto):
    """(h, W) for the reduced series: the half-integers h = +-(k + 1/2) for
    k < K, and W[h, d] = exp(pi*i*tau*h^2) (2*pi*i*h)^d for d <= upto.

    For |Im z0| <= Im tau / 2 a term is at most exp(-pi Im tau (h^2 - h))
    in modulus, while the term-magnitude sum of order d is at least
    2 pi^d exp(-pi Im tau / 4), from the pair h = +-1/2.  K is the first k
    whose term bound, weighted by (2 pi h)^upto, is below tol / 2 of that
    floor; later terms shrink by a ratio below 1/2 each, so the whole tail
    stays below tol times the term-magnitude sum.
    """
    k = 0
    while True:
        h = k + 0.5
        bound = math.exp(-math.pi * tau.imag * (h * h - h - 0.25))
        if bound * (2 * h) ** upto < tol / 2:
            break
        k += 1
    hs = [n + 0.5 for n in range(k)]
    hs += [-h for h in hs]
    W = [[cmath.exp(PI_I * tau * h * h) * (TWO_PI_I * h) ** d
          for d in range(upto + 1)] for h in hs]
    return np.array(hs), np.array(W)


def theta_sum(zs, tau, upto=0, tol=1e-16):
    """Sum the odd theta series and its first ``upto`` z-derivatives at
    every argument of the tuple zs, in one pass.

    theta(z) is the sum over half-integers h of exp(pi*i*tau*h^2 +
    2*pi*i*(z + 1/2)*h).  Each argument is reduced to the cell,
    z = z0 + m + n*tau with n = round(Im z / Im tau) and
    m = round(Re(z - n*tau)), so |Re z0| <= 1/2 and |Im z0| <= Im tau / 2;
    there theta(z) = exp(c) theta(z0) with c = pi*i*(m + n) - pi*i*tau*n^2
    - 2*pi*i*n*z0 (DLMF 20.2(iii)).  The reduced series needs a number of
    terms fixed by tau and tol alone (see _theta_weights), so all orders at
    all arguments take one exp and one matrix product:
    t = exp(2*pi*i*(z0 + 1/2) h) @ W.

    Returns (t, c, K, n, z0): t[i, d] is the d-th derivative of theta at the
    reduced argument z0[i], c[i] the log factor, K the number of term pairs
    summed per argument and n[i] the tau-shift count.  The log-derivatives
    of theta at zs[i] are those at z0[i], except that the first one shifts
    by -2*pi*i*n[i].  zs is a tuple, so that a call is hashable.
    """
    z = np.array(zs, dtype=complex)
    n = np.rint(z.imag / tau.imag)
    m = np.rint((z - n * tau).real)
    z0 = z - n * tau - m
    c = PI_I * (m + n) - PI_I * tau * n * n - TWO_PI_I * n * z0
    h, W = _theta_weights(tau, tol, upto)
    t = np.exp((TWO_PI_I * (z0 + 0.5))[:, None] * h) @ W
    return t, c, len(h) // 2, n, z0


def theta_derivs(z, tau, upto, trunc_tol=1e-16):
    """[theta, theta', ..., theta^(upto)] at z on modulus tau, in one pass.

    With s = -2*pi*i*n, the derivative of the log factor of theta_sum,
    theta^(d)(z) = exp(c) sum_k binom(d, k) s^(d-k) theta^(k)(z0).  Raises
    ThetaOverflow where theta itself is not representable in floating point.
    """
    tau = complex(tau)
    if tau.imag < MIN_IM_TAU:
        raise BadModulus(f"Im(tau) = {tau.imag:.4f} below {MIN_IM_TAU}")
    if upto < 0:
        raise ValueError("derivative order must be >= 0")
    z = complex(z)
    t, c, _, n, _ = theta_sum((z,), tau, upto, trunc_tol)
    s = -TWO_PI_I * n[0]
    try:
        scale = cmath.exp(c[0])
        values = [complex(scale * sum(math.comb(d, k) * s ** (d - k)
                                      * t[0, k] for k in range(d + 1)))
                  for d in range(upto + 1)]
    except OverflowError:
        values = [math.inf]
    if not all(map(cmath.isfinite, values)):
        raise ThetaOverflow(
            f"theta at z = {z} is not representable in floating point "
            f"(|Im z| / Im tau = {abs(z.imag) / tau.imag:.3g})")
    return values


def theta(z, tau, deriv=0, trunc_tol=1e-16):
    """Odd theta function (or its deriv-th derivative) at z on modulus tau."""
    return theta_derivs(z, tau, deriv, trunc_tol)[deriv]


@functools.lru_cache(maxsize=64)
def _theta_at_zero(tau, trunc_tol):
    """(theta'(0), kappa = theta'''(0) / theta'(0)) on modulus tau.

    Both depend on the modulus only, so they are summed once per
    (tau, trunc_tol) rather than on every kronecker_phi or kappa_const call.
    """
    t = theta_sum((0j,), tau, 3, trunc_tol)[0][0]
    return complex(t[1]), complex(t[3] / t[1])


def _theta_rows(flavor, args, upto):
    """theta_sum over the tuple args on the flavor's modulus, with the pole
    guard read from the same cell reduction; returns (t, c, n).

    A lattice point within Im tau / 2 of z is the m + n*tau of the
    reduction, so |z0| is the pole distance of z wherever either is below
    Im tau / 2, which exceeds POLE_EPS for every allowed modulus.
    """
    t, c, _, n, z0 = theta_sum(args, flavor.tau, upto, flavor.trunc_tol)
    d = list(map(abs, z0.tolist()))
    nearest = min(d, default=math.inf)
    if nearest <= POLE_EPS:
        raise PoleProximity(complex(args[d.index(nearest)]), nearest)
    return t, c, n


# (m, n) of the four lattice points around z, less its coordinates' floor
_CORNERS = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])


def pole_distance(flavor, z):
    """Distance from z, a number (giving a float) or an array, to the
    flavor's pole set; hypot rounds as Python's abs does, so an array holds
    the bits of its elements."""
    z = np.asarray(z, dtype=complex)
    if flavor.kind == TRIGONOMETRIC:
        # poles at i*pi*Z
        z = z.real + 1j * (z.imag - np.rint(z.imag / np.pi) * np.pi)
    elif flavor.kind == ELLIPTIC:
        # poles at m + n*tau: invert the lattice coordinates, take the four
        # neighbors on a last axis
        tau = flavor.tau
        b = z.imag / tau.imag
        m = np.floor(z.real - b * tau.real)[..., None] + _CORNERS[0]
        n = np.floor(b)[..., None] + _CORNERS[1]
        z = z[..., None] - (m + n * tau)
    d = np.hypot(z.real, z.imag)
    d = d.min(-1) if flavor.kind == ELLIPTIC else d
    return float(d) if d.ndim == 0 else d


def check_pole(flavor, *args, eps=POLE_EPS):
    """Raise PoleProximity if any argument, a number or an array of them,
    sits within eps of a pole, naming the first such element (ravel
    order)."""
    for z in args:
        near = np.ravel(pole_distance(flavor, z)) <= eps
        if near.any():
            v = complex(np.ravel(z)[near.argmax()])
            raise PoleProximity(v, pole_distance(flavor, v))


def shortest_period(flavor):
    """Distance from 0 to the nearest other pole: 1 (rational: none, capped),
    pi, or the shortest of 1 and n*tau - round(n Re tau), n Im tau <= 1."""
    if flavor.kind != ELLIPTIC:
        return 1.0 if flavor.kind == RATIONAL else math.pi
    tau = flavor.tau
    return min([1.0] + [abs(n * tau - round(n * tau.real))
                        for n in range(1, math.ceil(1 / tau.imag) + 1)])


# the points of a laurent_coefficients circle, and its radius over the
# distance from its center to the nearest other point the pole guard rejects
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
    return [np.tensordot(np.exp(-1j * j * angles), values, axes=1)
            / (n * radius ** j) for j in orders]


def kappa_const(flavor):
    """The third-log-derivative constant theta'''(0)/theta'(0) per flavor.

    Controls the z^1 coefficient of E1 near 0; equals 0 (rational),
    1 (trigonometric, from sinh), and the theta ratio (elliptic).
    """
    if flavor.kind == RATIONAL:
        return 0.0 + 0.0j
    if flavor.kind == TRIGONOMETRIC:
        return 1.0 + 0.0j
    return _theta_at_zero(flavor.tau, flavor.trunc_tol)[1]


def _log_derivs(t):
    """z-derivatives of log theta of orders 1 .. len(t) - 1 (at most 3)
    from [theta, theta', ...] at the same arguments (numbers or arrays):
    E1, -E2 and -E2' there, up to E1's shift by the cell reduction."""
    g = t[1] / t[0]
    out = [g]
    if len(t) > 2:
        r2 = t[2] / t[0]
        gp = r2 - g * g
        out.append(gp)
        if len(t) > 3:
            out.append(t[3] / t[0] - r2 * g - 2.0 * g * gp)
    return out


def _log_theta(flavor, z, upto):
    """[E1, -E2, -E2'][:upto] at a number or an array z, as arrays of its
    shape: the z-derivatives of log theta (elliptic: one series over all of
    z, whose cell reduction is the pole guard), of log sinh (trigonometric)
    or of log (rational)."""
    z = np.asarray(z, dtype=complex)
    if flavor.kind == ELLIPTIC:
        t, _, n = _theta_rows(flavor, tuple(z.ravel().tolist()), upto)
        out = _log_derivs(t.T)
        out[0] = out[0] - TWO_PI_I * n
        return [v.reshape(z.shape) for v in out]
    check_pole(flavor, z)
    ch, sh = (1.0, z) if flavor.kind == RATIONAL else (np.cosh(z), np.sinh(z))
    # np.power, unlike ** on an array, rounds as on a single element, so a
    # stack holds bitwise the values of its elements
    return [ch / sh, -1.0 / np.power(sh, 2),
            2.0 * ch / np.power(sh, 3)][:upto]


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
    which broadcast against each other."""
    eta, z = np.broadcast_arrays(np.asarray(eta, dtype=complex),
                                 np.asarray(z, dtype=complex))
    if flavor.kind != ELLIPTIC:
        # phi = E1(eta) + E1(z), guarded at eta + z too
        e1 = _log_theta(flavor, np.stack([eta, z]), 1)[0]
        check_pole(flavor, eta + z)
        return _number(e1[0] + e1[1])
    # phi = theta'(0) theta(eta + z) / (theta(eta) theta(z)), with the log
    # factors of the cell reduction combined before exponentiating
    args = np.stack([eta, z, eta + z])
    t, c, _ = _theta_rows(flavor, tuple(args.ravel().tolist()), 0)
    t, c = (v.reshape((3,) + eta.shape) for v in (t[:, 0], c))
    return _number(_theta_at_zero(flavor.tau, flavor.trunc_tol)[0]
                   * np.exp(c[2] - c[0] - c[1]) * t[2] / (t[0] * t[1]))


def phi_derivative_f(flavor, z, q):
    """f(z, q) = d/dq phi(z, q), via the closed form phi*(E1(z+q) - E1(q));
    z and q broadcast."""
    z, q = np.broadcast_arrays(np.asarray(z, dtype=complex),
                               np.asarray(q, dtype=complex))
    # an array p: numpy multiplies as for a stack, Python's complex does not
    p = np.asarray(kronecker_phi(flavor, z, q))
    e1 = eisenstein_E1(flavor, np.stack([z + q, q]))
    return _number(p * (e1[0] - e1[1]))


def sector_phi(flavor, a, z, u):
    """phi_a(z, omega_a + u) = exp(2*pi*i*a2*z/N) * phi(z, omega_a + u)."""
    if flavor.kind != ELLIPTIC:
        raise ValueError("sector functions require the elliptic flavor")
    z = complex(z)
    arg = a.omega(flavor.tau) + complex(u)
    return cmath.exp(TWO_PI_I * a.a2 * z / a.N) * kronecker_phi(flavor, z, arg)


def sector_f(flavor, a, z, u):
    """f_a(z, omega_a + u) = exp(2*pi*i*a2*z/N) * f(z, omega_a + u)."""
    if flavor.kind != ELLIPTIC:
        raise ValueError("sector functions require the elliptic flavor")
    z = complex(z)
    arg = a.omega(flavor.tau) + complex(u)
    return (cmath.exp(TWO_PI_I * a.a2 * z / a.N)
            * phi_derivative_f(flavor, z, arg))


def sector_table(flavor, sectors, z, u, upto):
    """z-derivatives of phi_a(z, omega_a + u) for every a in sectors and
    every z of a number or an array of them, from one theta series.

    u is a number, or an array that broadcasts against z: each element of
    the broadcast shape pairs one z with one u.  phi_a(z, w) =
    exp(2*pi*i*a2*z/N) * phi(z, w), and phi(z, w) = theta'(0) theta(z + w)
    / (theta(z) theta(w)).  One theta_sum call (to order upto + 1) covers
    every z, every w = omega_a + u (once per sector and element of u,
    however often the broadcast repeats it) and
    every z + w, and its cell reduction is the pole guard of all of them.

    Returns (log_z, phi, f), arrays with the broadcast shape in front:
    log_z[k] is the (k + 1)-th z-derivative of log theta at z (E1, -E2,
    -E2') for k <= upto + 1; phi[k][..., i] is the k-th z-derivative of
    phi_a for a = sectors[i] and k <= upto (at most 2); for the number
    u = 0 and upto >= 1, f[..., i] = exp(2*pi*i*a2*z/N) f(z, omega_a), the
    q-derivative of phi(z, q) at omega_a, and f is None otherwise.
    """
    if flavor.kind != ELLIPTIC:
        raise ValueError("sector functions require the elliptic flavor")
    if not 0 <= upto <= 2:
        raise ValueError("order must be 0, 1 or 2")
    z = np.asarray(z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    # ws below has one row per element of u; row picks the row of each
    # element of the broadcast
    row = slice(None)
    if u.ndim:
        z, ub = np.broadcast_arrays(z, u)
        if ub.shape != u.shape:
            # a u repeated along the broadcast enters the series once
            row = np.broadcast_to(np.arange(u.size).reshape(u.shape),
                                  z.shape).reshape(-1)
    shape, zs, us = z.shape, z.reshape(-1), u.reshape(-1).tolist()
    # ws[k, i] = omega_a + u for a = sectors[i], one row per element of u
    omegas = [a.omega(flavor.tau) for a in sectors]
    ws = np.array([[w + v for w in omegas] for v in us],
                  dtype=complex).reshape(len(us), len(omegas))
    twist = TWO_PI_I * np.array([a.a2 / a.N for a in sectors])
    P, (U, S) = len(zs), ws.shape
    args = np.concatenate([zs, ws.reshape(-1),
                           (zs[:, None] + ws[row]).reshape(-1)])
    t, c, n = _theta_rows(flavor, tuple(args.tolist()), upto + 1)
    # order-major views of the three argument groups
    W = P + U * S
    tz = t[:P].T
    tw = t[P:W].reshape(U, S, upto + 2).transpose(2, 0, 1)
    tzw = t[W:].reshape(P, S, upto + 2).transpose(2, 0, 1)
    cz, cw, czw = c[:P, None], c[P:W].reshape(U, S), c[W:].reshape(P, S)
    log_z = _log_derivs(tz)
    log_z[0] = log_z[0] - TWO_PI_I * n[:P]
    p = _theta_at_zero(flavor.tau, flavor.trunc_tol)[0] \
        * np.exp(zs[:, None] * twist + czw - cz - cw[row]) \
        * tzw[0] / (tz[0][:, None] * tw[0][row])
    phi = [p]
    f = None
    if upto:
        log_zw = _log_derivs(tzw[:upto + 1])
        e1_zw = log_zw[0] - TWO_PI_I * n[W:].reshape(P, S)
        d = twist + (e1_zw - log_z[0][:, None])
        phi.append(p * d)
        if upto == 2:
            phi.append(p * (d * d + (log_zw[1] - log_z[1][:, None])))
        if u.ndim == 0 and us[0] == 0:
            e1_w = _log_derivs(tw)[0] - TWO_PI_I * n[P:W].reshape(U, S)
            f = (p * (e1_zw - e1_w)).reshape(shape + (S,))
    log_z = [v.reshape(shape) for v in log_z]
    phi = [v.reshape(shape + (S,)) for v in phi]
    return log_z, phi, f


def sample_point(rng, flavor, eps=1e-2):
    """Draw one pole-avoiding complex argument for identity sampling.

    Rational/trigonometric: uniform in the unit box centered at 0.5 + 0.25i.
    Elliptic: uniform in the fundamental cell spanned by 1 and tau.
    Redraws until the point clears the margin eps (coarser than the pole
    guard, so that differences and sums of samples stay well-conditioned).
    """
    for _ in range(1000):
        if flavor.kind == ELLIPTIC:
            z = rng.random() + rng.random() * flavor.tau
        else:
            z = complex(rng.random(), rng.random() - 0.25)
        if pole_distance(flavor, z) > eps:
            return z
    raise DegenerateDraw("sampling failed to clear the pole margin")


def sample_tuple(rng, flavor, count, eps=1e-2, extra=()):
    """Draw count points such that they, their pairwise sums and differences
    and their combinations with each coefficient row of extra clear eps."""
    for _ in range(1000):
        pts = [sample_point(rng, flavor, eps) for _ in range(count)]
        p = np.array(pts)
        i, j = np.triu_indices(count, 1)
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


def max_residuals(samples, chunk, evaluate):
    """{name: largest residual} over the rows of samples: evaluate maps a
    stack of at most chunk rows to {name: one residual per row}, one stack
    at a time.  np.maximum keeps a NaN, which then fails its tolerance."""
    worst = {}
    for start in range(0, len(samples), chunk):
        for name, values in evaluate(samples[start:start + chunk]).items():
            worst[name] = np.maximum(worst.get(name, 0.0), np.max(values))
    return {name: float(value) for name, value in worst.items()}


def _chunk_size(flavor, batch):
    """Samples per stack if one sample's largest theta series has batch
    arguments, each summed as 2K complex terms at once (K as at MIN_IM_TAU,
    the most any modulus needs): the stack's series fit the array budget."""
    from .tensor import MAX_ARRAY_BYTES   # tensor imports this module
    h = _theta_weights(complex(0, MIN_IM_TAU), flavor.trunc_tol, 2)[0]
    return max(1, MAX_ARRAY_BYTES // (16 * len(h) * batch))


def _expansion_residuals(flavor, z, u):
    """Closed forms against expansion coefficients: phi(x, u) = 1/x + E1(u)
    + x*(E1(u)^2 - E2(u) - kappa/3)/2 + O(x^2) and E1(x) = 1/x + x*kappa/3
    + O(x^3) at x = 0; f(0, u) = -E2(u), the removable value of f(x, u)
    there; and f(z, u), the linear coefficient of phi(z, .) at u.  Each
    circle is one kernel call over the arrays z and u."""
    period = shortest_period(flavor)
    # phi(x, u) and f(x, u) are guarded at x + u on the lattice too
    d_u = pole_distance(flavor, u)
    near_u = LAURENT_RADIUS * np.minimum(period, d_u)
    kap = kappa_const(flavor)
    e1u, e2u = eisenstein_E1(flavor, u), eisenstein_E2(flavor, u)
    return {   # z[..., None] and u[..., None] against the circle axis
        "phi_local_expansion": expansion_residual(
            lambda x: kronecker_phi(flavor, x, u[..., None]), 0.0, near_u,
            {-1: 1.0, 0: e1u, 1: (e1u * e1u - e2u - kap / 3.0) / 2.0}),
        "e1_local_expansion": expansion_residual(
            lambda x: eisenstein_E1(flavor, x), 0.0, LAURENT_RADIUS * period,
            {-1: 1.0, 0: 0.0, 1: kap / 3.0}),
        "f_at_zero": expansion_residual(
            lambda x: phi_derivative_f(flavor, x, u[..., None]), 0.0, near_u,
            {0: -e2u}),
        "f_closed_form": expansion_residual(
            lambda v: kronecker_phi(flavor, z[..., None], v), u,
            LAURENT_RADIUS * np.minimum(d_u, pole_distance(flavor, z + u)),
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
    om = np.array([a.omega(flavor.tau) for a in all_sectors(N)])
    while True:
        q = sample_point(rng, flavor)
        hb = sample_point(rng, flavor)
        z = sample_point(rng, flavor)
        pts = np.concatenate([[q, hb, z, N * hb, N * q, q / N], om + q,
                              N * q + om, om[1:] + z / N, N * hb + om + z / N,
                              om + hb])
        if np.all(pole_distance(flavor, pts) > 1e-2):
            return q, hb, z


def _sector_residuals(flavor, N, samples):
    """The four lattice-sum identities for Z_N x Z_N sectors over a stack
    of samples (q, hb, z), each one expression over all samples and sectors
    (gamma indexes rows of the phase, alpha columns)."""
    sectors = all_sectors(N)
    om = np.array([a.omega(flavor.tau) for a in sectors])
    q, hb, z = samples.T
    a1, a2 = np.array([(a.a1, a.a2) for a in sectors]).T
    # kappa^2(alpha, gamma) = exp(2*pi*i*(g1*a2 - g2*a1)/N)
    phase = np.exp(TWO_PI_I * (np.outer(a1, a2) - np.outer(a2, a1)) / N)
    out = {}
    # Fourier sum:
    # (1/N) sum_a kappa^2 phi_a(N*hb, w_a + z/N) = phi_g(z, w_g + hb)
    _, (phi,), _ = sector_table(flavor, sectors, np.stack([N * hb, z], -1),
                                np.stack([z / N, hb], -1), 0)
    total = phi[:, 0] @ phase.T / N
    out["fourier_sum"] = _rel(total - phi[:, 1], total, phi[:, 1]).max(-1)

    # residuals of the lattice sums are scaled by the largest summand, since
    # the sums themselves suffer heavy cancellation near the cell boundary
    e2_shift, e2_frac = eisenstein_E2(
        flavor, np.stack([om + q[:, None], om + (q / N)[:, None]]))
    # at x = N*q and x = q, -E2(x) and, for a != 0, the first z-derivative
    # phi_a(x, w_a)(E1(x + w_a) - E1(x) + 2*pi*i*a2/N) of phi_a(x, w_a)
    log_x, (_, dphi), _ = sector_table(flavor, sectors[1:],
                                       np.stack([N * q, q]), 0.0, 1)
    e2_Nq, e2_q = -log_x[1]

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
    """Max relative residuals of the scalar identity suite over random draws.

    Returns {"flavor", "samples", "seed", "identities": {name: max_residual}}.
    Sector identities are evaluated for the elliptic flavor only, for each
    N in sector_sizes (they are lattice sums over Z_N x Z_N).  All samples
    are drawn first; a stack's size follows from one sample's largest theta
    series: 3 arguments per expansion-circle point, 2 + 4 N^2 per sector.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    samples = np.array([sample_tuple(rng, flavor, 4)
                        for _ in range(n_samples)])
    worst = max_residuals(samples, _chunk_size(flavor, 3 * LAURENT_POINTS),
                          functools.partial(_core_residuals, flavor))
    for N in sector_sizes if flavor.kind == ELLIPTIC else ():
        draws = np.array([_sector_draw(rng, flavor, N)
                          for _ in range(n_samples)])
        res = max_residuals(draws, _chunk_size(flavor, 2 + 4 * N * N),
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
