"""Quantum R-matrix families with classical-expansion data and certification.

Each family exposes the quantum matrix R(hbar, z) on Mat(N) x Mat(N), its
z-derivatives, the classical coefficients r(z), m(z) from the hbar-expansion
R = 1/hbar + r + hbar*m + O(hbar^2), and the small-z expansion coefficients.
The certify() routine measures the residual of every identity the Lax
construction relies on.
"""

import cmath

import numpy as np

from . import specfun as sf
from .errors import DegenerateDraw
from .tensor import (all_sectors, check_scale, eye, kron, permutation_P,
                     sin_basis_T_int, partial_trace_1, partial_trace_2,
                     frobenius_norm)


class RMatrixFamily:
    """Base interface: N, scalar flavor, quantum R and classical data.

    R, r and everything built on them take the argument z (for R^z(q), q)
    as a number or as an array of pair differences; an array of shape s
    gives a stack of shape s + (N^2, N^2), one matrix per element.
    """

    kind = None

    def __init__(self, N, flavor):
        self.N = int(N)
        check_scale(self.N ** 4, f"an N^2 x N^2 matrix at N = {self.N}")
        self.flavor = flavor
        self._P = permutation_P(self.N)
        self._I = eye(self.N * self.N)
        self._m0 = None

    # quantum matrix; dz = derivative order in the argument z (0, 1 or 2)
    def R(self, hbar, z, dz=0):
        raise NotImplementedError

    # classical r-matrix; d = derivative order in z (0, 1 or 2)
    def r(self, z, d=0):
        raise NotImplementedError

    def m(self, z):
        raise NotImplementedError

    def m0(self):
        """m(0), evaluated on first use and then shared read-only."""
        if self._m0 is None:
            m0 = np.array(self._m_at_zero(), dtype=complex)
            m0.flags.writeable = False
            self._m0 = m0
        return self._m0

    def _m_at_zero(self):
        return self.m(0.0)

    def r0(self):
        """Constant coefficient of r(z) = P/z + r0 + z*r1 + O(z^2)."""
        raise NotImplementedError

    def r1(self):
        """Linear coefficient of r(z) near 0, equal to m(0) P."""
        return self.m0() @ self._P

    def Rz0(self, z):
        """Constant q-coefficient of R^z(q) near q=0, equal to r(z) P."""
        return self.r(z) @ self._P

    def Rz1(self, z):
        """Linear q-coefficient of R^z(q) near q=0, equal to m(z) P."""
        return self.m(z) @ self._P

    def F(self, spectral, q, dq=0):
        """F^z(q) = d/dq R^z(q) and its further q-derivative."""
        return self.R(spectral, q, dz=1 + dq)

    def F0(self, q, d=0):
        """F^0(q) = d/dq r(q) and its further q-derivative."""
        return self.r(q, d=1 + d)

    def F0_with_derivative(self, q):
        """(F^0(q), d/dq F^0(q)) = (r'(q), r''(q)); families that share work
        across the two orders evaluate them together."""
        return self.r(q, d=1), self.r(q, d=2)

    def R_with_F(self, spectral, q):
        """(R^z(q), F^z(q)) at z = spectral; families that share work
        across the two orders evaluate them together."""
        return self.R(spectral, q), self.F(spectral, q)

    def pole_distance(self, z):
        return sf.pole_distance(self.flavor, z)

    def wp(self, z):
        return sf.weierstrass_p(self.flavor, z)

    def params(self):
        return {}

    def label(self):
        return self.kind


class YangXXX(RMatrixFamily):
    """Rational R-matrix 1/hbar + P/z for any N (N=1 is the scalar kernel)."""

    kind = "xxx"

    def __init__(self, N=2):
        super().__init__(N, sf.Flavor.rational())

    def R(self, hbar, z, dz=0):
        hbar = complex(hbar)
        z = np.asarray(z, dtype=complex)
        sf.check_pole(self.flavor, hbar, z)
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")
        if dz == 0:
            return self._I / hbar + self._r(z, 0)
        return self._r(z, dz)

    def r(self, z, d=0):
        z = np.asarray(z, dtype=complex)
        sf.check_pole(self.flavor, z)
        if d not in (0, 1, 2):
            raise ValueError("d must be 0, 1 or 2")
        return self._r(z, d)

    def F0_with_derivative(self, q):
        q = np.asarray(q, dtype=complex)
        sf.check_pole(self.flavor, q)
        return self._r(q, 1), self._r(q, 2)

    def R_with_F(self, spectral, q):
        R = self.R(spectral, q)
        return R, self._r(np.asarray(q, dtype=complex), 1)

    def _r(self, z, d):
        """d-th z-derivative of r(z) = P/z, also that of R^hbar(z) for
        d >= 1.  np.power rounds as the scalar z ** 2 and z ** 3 do, so a
        stack holds bitwise the matrices of its elements; numpy's z ** 2 on
        an array squares in vector loops that can differ in the last bit."""
        if d == 0:
            return self._P / z[..., None, None]
        if d == 1:
            return -self._P / np.power(z, 2)[..., None, None]
        return 2.0 * self._P / np.power(z, 3)[..., None, None]

    def m(self, z):
        return np.zeros((self.N * self.N, self.N * self.N), dtype=complex)

    def r0(self):
        return np.zeros((self.N * self.N, self.N * self.N), dtype=complex)


def _n2_stack(z, layout, values):
    """4 x 4 matrices over the array z, with the entries at the positions
    layout[k] equal to values(v)[k] at each element v of z.

    The closed forms of the N = 2 families are evaluated per element in
    Python complex arithmetic, so a stack holds bitwise the matrices of its
    elements; numpy's vector loops round complex division and products
    differently in the last bits.
    """
    rows = [values(v) for v in z.reshape(-1).tolist()]
    table = np.array(rows, dtype=complex).reshape(z.shape + (len(layout),))
    out = np.zeros(z.shape + (4, 4), dtype=complex)
    for k, cells in enumerate(layout):
        for a, b in cells:
            out[..., a, b] = table[..., k]
    return out


class SevenVertex(RMatrixFamily):
    """Trigonometric deformation of the XXZ matrix with corner constant C."""

    kind = "7v"
    # the diagonal pairs, the swap pair and the corner
    _LAYOUT = (((0, 0), (3, 3)), ((1, 1), (2, 2)), ((1, 2), (2, 1)),
               ((3, 0),))

    def __init__(self, C):
        super().__init__(2, sf.Flavor.trigonometric())
        self.C = complex(C)

    def params(self):
        return {"C": [self.C.real, self.C.imag]}

    def R(self, hbar, z, dz=0):
        hbar = complex(hbar)
        z = np.asarray(z, dtype=complex)
        sf.check_pole(self.flavor, hbar, z)
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")
        C = self.C
        shh = cmath.sinh(hbar)
        coth_h = cmath.cosh(hbar) / shh

        def values(z):
            sh, ch = cmath.sinh(z), cmath.cosh(z)
            if dz == 0:
                return (ch / sh + coth_h, 1.0 / shh, 1.0 / sh,
                        C * cmath.sinh(z + hbar))
            if dz == 1:
                return (-1.0 / sh ** 2, 0.0, -ch / sh ** 2,
                        C * cmath.cosh(z + hbar))
            return (2.0 * ch / sh ** 3, 0.0,
                    (2.0 * ch * ch - sh * sh) / sh ** 3,
                    C * cmath.sinh(z + hbar))

        return _n2_stack(z, self._LAYOUT, values)

    def r(self, z, d=0):
        z = np.asarray(z, dtype=complex)
        sf.check_pole(self.flavor, z)
        if d not in (0, 1, 2):
            raise ValueError("d must be 0, 1 or 2")
        C = self.C

        def values(z):
            sh, ch = cmath.sinh(z), cmath.cosh(z)
            if d == 0:
                return ch / sh, 0.0, 1.0 / sh, C * sh
            if d == 1:
                return -1.0 / sh ** 2, 0.0, -ch / sh ** 2, C * ch
            return (2.0 * ch / sh ** 3, 0.0,
                    (2.0 * ch * ch - sh * sh) / sh ** 3, C * sh)

        return _n2_stack(z, self._LAYOUT, values)

    def m(self, z):
        z = complex(z)
        out = np.diag(np.array([1, -0.5, -0.5, 1], dtype=complex)) / 3.0
        out[3, 0] = self.C * cmath.cosh(z)
        return out

    def r0(self):
        return np.zeros((4, 4), dtype=complex)


class SixVertexXXZ(SevenVertex):
    """XXZ 6-vertex matrix, the C = 0 limit of the deformed family."""

    kind = "xxz"

    def __init__(self):
        super().__init__(0.0)

    def params(self):
        return {}


class ElevenVertex(RMatrixFamily):
    """Rational deformation of Yang's matrix at N = 2."""

    kind = "11v"
    # the diagonal pairs, the swap pair, the column-0 pair, the row-3 pair
    # and the corner
    _LAYOUT = (((0, 0), (3, 3)), ((1, 1), (2, 2)), ((1, 2), (2, 1)),
               ((1, 0), (2, 0)), ((3, 1), (3, 2)), ((3, 0),))

    def __init__(self):
        super().__init__(2, sf.Flavor.rational())

    def R(self, hbar, z, dz=0):
        h = complex(hbar)
        z = np.asarray(z, dtype=complex)
        sf.check_pole(self.flavor, h, z)
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")

        def values(z):
            if dz == 0:
                return (1.0 / h + 1.0 / z, 1.0 / h, 1.0 / z, -h - z, h + z,
                        -h ** 3 - 2 * z * h ** 2 - 2 * h * z ** 2 - z ** 3)
            if dz == 1:
                return (-1.0 / z ** 2, 0.0, -1.0 / z ** 2, -1.0, 1.0,
                        -2 * h ** 2 - 4 * h * z - 3 * z ** 2)
            return 2.0 / z ** 3, 0.0, 2.0 / z ** 3, 0.0, 0.0, -4 * h - 6 * z

        return _n2_stack(z, self._LAYOUT, values)

    def r(self, z, d=0):
        z = np.asarray(z, dtype=complex)
        sf.check_pole(self.flavor, z)
        if d not in (0, 1, 2):
            raise ValueError("d must be 0, 1 or 2")

        def values(z):
            if d == 0:
                return 1.0 / z, 0.0, 1.0 / z, -z, z, -z ** 3
            if d == 1:
                return (-1.0 / z ** 2, 0.0, -1.0 / z ** 2, -1.0, 1.0,
                        -3 * z ** 2)
            return 2.0 / z ** 3, 0.0, 2.0 / z ** 3, 0.0, 0.0, -6 * z

        return _n2_stack(z, self._LAYOUT, values)

    def m(self, z):
        z = complex(z)
        out = np.zeros((4, 4), dtype=complex)
        out[1, 0] = out[2, 0] = -1.0
        out[3, 1] = out[3, 2] = 1.0
        out[3, 0] = -2 * z ** 2
        return out

    def r0(self):
        return np.zeros((4, 4), dtype=complex)


class BaxterBelavin(RMatrixFamily):
    """Elliptic R-matrix in the Heisenberg sector basis, normalized so that
    the expansion and symmetry properties hold with unit coefficients.

    R^hbar(z) = (1/N) sum_a phi_a(z, omega_a + hbar/N) T_a (x) T_{-a}; r, m
    and their derivatives are the same sector sums at hbar -> 0.  Every
    matrix, or stack of matrices over an array of z, is built from one
    specfun.sector_table and one product of its coefficients with the
    stacked basis.
    """

    kind = "bb"

    def __init__(self, N=2, tau=1j):
        super().__init__(N, sf.Flavor.elliptic(tau))
        self.tau = self.flavor.tau
        self._sectors = all_sectors(self.N)
        # the zero sector comes first and T_0 (x) T_0 is the identity
        self._nonzero = self._sectors[1:]
        # flattened tensor-basis elements T_a (x) T_{-a} (integer-negated
        # label), one row per sector
        self._TT = np.array([kron(sin_basis_T_int(a.a1, a.a2, self.N),
                                  sin_basis_T_int(-a.a1, -a.a2, self.N))
                             .reshape(-1) for a in self._sectors])

    def params(self):
        return {"tau": [self.tau.real, self.tau.imag]}

    def label(self):
        return f"bb(N={self.N})"

    def _sum(self, coeffs):
        """sum_a coeffs[..., a] T_a (x) T_{-a} over all sectors, zero
        first."""
        n = self.N * self.N
        return (coeffs @ self._TT).reshape(coeffs.shape[:-1] + (n, n))

    def _R_orders(self, hbar, z, orders):
        _, phi, _ = sf.sector_table(self.flavor, self._sectors, z,
                                    complex(hbar) / self.N, max(orders))
        coeffs = np.array([phi[d] for d in orders])
        return list(self._sum(coeffs) / self.N)

    def R(self, hbar, z, dz=0):
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")
        return self._R_orders(hbar, z, (dz,))[0]

    def R_with_F(self, spectral, q):
        return tuple(self._R_orders(spectral, q, (0, 1)))

    def _r_orders(self, z, orders):
        # the scalar part d^d/dz^d E1(z) multiplies T_0 (x) T_0
        log_z, phi, _ = sf.sector_table(self.flavor, self._nonzero, z, 0.0,
                                        max(orders))
        coeffs = np.array([np.concatenate([log_z[d][..., None], phi[d]],
                                          axis=-1) for d in orders])
        return list(self._sum(coeffs) / self.N)

    def r(self, z, d=0):
        if d not in (0, 1, 2):
            raise ValueError("d must be 0, 1 or 2")
        return self._r_orders(z, (d,))[0]

    def F0_with_derivative(self, q):
        return tuple(self._r_orders(q, (1, 2)))

    def _m_at_zero(self):
        # z -> 0 limit: the scalar part tends to kappa/3, the sector part
        # to f(0, omega_a) = -E2(omega_a)
        coeffs = [sf.kappa_const(self.flavor) / 3.0]
        coeffs += [-sf.eisenstein_E2(self.flavor, a.omega(self.tau))
                   for a in self._nonzero]
        return self._sum(np.array(coeffs)) / (self.N * self.N)

    def m(self, z):
        z = complex(z)
        if abs(z) < 1e-12:
            return self.m0()
        # scalar part (E1^2 - wp)/2 with wp = E2 + kappa/3 = kappa/3 - log_z[1]
        log_z, _, f = sf.sector_table(self.flavor, self._nonzero, z, 0.0, 1)
        e1 = log_z[0]
        wp = -log_z[1] + sf.kappa_const(self.flavor) / 3.0
        coeffs = np.concatenate([[(e1 * e1 - wp) / 2.0], f])
        return self._sum(coeffs) / (self.N * self.N)

    def r0(self):
        coeffs = [0.0]
        coeffs += [sf.eisenstein_E1(self.flavor, a.omega(self.tau))
                   + 2j * cmath.pi * a.a2 / self.N for a in self._nonzero]
        return self._sum(np.array(coeffs)) / self.N


FAMILY_KEYS = ("xxx", "11v", "xxz", "7v", "bb")


def make_family(kind, N=2, tau=None, C=None):
    """Construct a family from its CLI/config key."""
    if kind == "xxx":
        return YangXXX(N)
    if kind == "11v":
        return ElevenVertex()
    if kind == "xxz":
        return SixVertexXXZ()
    if kind == "7v":
        if C is None:
            raise ValueError("7v family requires the constant C")
        return SevenVertex(C)
    if kind == "bb":
        if tau is None:
            raise ValueError("bb family requires the modulus tau")
        return BaxterBelavin(N, tau)
    raise ValueError(f"unknown family {kind!r}")


# --- three-site embeddings ------------------------------------------------

def embed12(T, N):
    return kron(np.asarray(T, dtype=complex), eye(N))


def embed23(T, N):
    return kron(eye(N), np.asarray(T, dtype=complex))


def embed13(T, N):
    T4 = np.asarray(T, dtype=complex).reshape(N, N, N, N)
    out = np.einsum("ikjl,ab->iakjbl", T4, eye(N))
    return out.reshape(N ** 3, N ** 3)


def swap_sites(T, N):
    """Conjugate a two-site operator by the factor swap: T_12 -> T_21."""
    P = permutation_P(N)
    return P @ np.asarray(T, dtype=complex) @ P


def perm13(N):
    """Permutation of sites 1 and 3 on Mat(N)^3."""
    out = np.zeros((N ** 3, N ** 3), dtype=complex)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                out[i * N * N + j * N + k, k * N * N + j * N + i] = 1.0
    return out


def perm23(N):
    out = np.zeros((N ** 3, N ** 3), dtype=complex)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                out[i * N * N + j * N + k, i * N * N + k * N + j] = 1.0
    return out


# --- certification --------------------------------------------------------

def _rel(diff, *terms):
    scale = max(frobenius_norm(t) for t in terms)
    if scale == 0.0:
        return frobenius_norm(diff)
    return frobenius_norm(diff) / scale


def _draw(rng, family, margin=0.05):
    return sf.sample_point(rng, family.flavor, eps=margin)


def _draw_many(rng, family, count, extra=(), margin=0.05):
    """Draw count scalars such that all pairwise sums/differences and any
    requested linear combinations stay off the pole set."""
    for _ in range(2000):
        pts = [_draw(rng, family, margin) for _ in range(count)]
        combos = list(pts)
        for i in range(count):
            for j in range(i + 1, count):
                combos.append(pts[i] + pts[j])
                combos.append(pts[i] - pts[j])
        for coeffs in extra:
            combos.append(sum(c * p for c, p in zip(coeffs, pts)))
        if all(family.pole_distance(c) > margin for c in combos):
            return pts
    raise DegenerateDraw("failed to draw pole-avoiding arguments")


def measure_r1(family, q0=0.05):
    """Finite-difference oracle for the linear coefficient of r(z) near 0.

    Uses the odd part of r to cancel r0 and r2, then two Richardson levels
    to cancel the q^2 and q^4 corrections.
    """
    P = permutation_P(family.N)

    def g(q):
        odd = 0.5 * (family.r(q) - family.r(-q))
        return (odd - P / q) / q

    g1, g2, g3 = g(q0), g(q0 / 2), g(q0 / 4)
    h1 = (4.0 * g2 - g1) / 3.0
    h2 = (4.0 * g3 - g2) / 3.0
    return (16.0 * h2 - h1) / 15.0


def certify(family, n_samples, seed, tol):
    """Residual report for every R-matrix identity used by the construction.

    Returns {"family", "N", "params", "properties": {name: {max_residual,
    samples, tol, pass}}} plus the measured trace scalars.
    """
    rng = np.random.default_rng(seed)
    N = family.N
    I2 = eye(N * N)
    I3 = eye(N ** 3)
    P = permutation_P(N)
    P13 = perm13(N)
    P23 = perm23(N)
    worst = {}
    scalars = {"phi_tilde": [], "E1_tilde": []}

    def record(name, value):
        # np.maximum keeps a NaN residual, which then fails its tolerance
        worst[name] = float(np.maximum(worst.get(name, 0.0), value))

    m0 = family.m0()
    r0 = family.r0()
    r1 = family.r1()
    r0_23 = embed23(r0, N)
    r1_12 = embed12(r1, N)
    r1_23 = embed23(r1, N)
    m0_23 = embed23(m0, N)

    for _ in range(n_samples):
        hb, et, z, w = _draw_many(
            rng, family, 4,
            extra=[(1, -1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0)])
        x, y = _draw_many(rng, family, 2, extra=[(1, 1)])

        # (i) associative Yang-Baxter relation; z, w play q12, q23
        q12, q23 = z, w
        lhs = embed12(family.R(hb, q12), N) @ embed23(family.R(et, q23), N)
        t1 = embed13(family.R(et, q12 + q23), N) @ embed12(
            family.R(hb - et, q12), N)
        t2 = embed23(family.R(et - hb, q23), N) @ embed13(
            family.R(hb, q12 + q23), N)
        record("aybe", _rel(lhs - t1 - t2, lhs, t1, t2))

        # (ii) skew-symmetry
        A = family.R(hb, z)
        B = -P @ family.R(-hb, -z) @ P
        record("skew_symmetry", _rel(A - B, A, B))

        # (iii) unitarity: product is scalar, scalar equals wp(hb) - wp(z)
        prod = A @ (P @ family.R(hb, -z) @ P)
        scal = np.trace(prod) / (N * N)
        record("unitarity_scalar", _rel(prod - scal * I2, prod))
        target = family.wp(hb) - family.wp(z)
        denom = max(abs(scal), abs(target), 1.0)
        record("unitarity_value", abs(scal - target) / denom)

        # (iv) Fourier symmetry
        lhs = A @ P
        rhs = family.R(z, hb)
        record("fourier_symmetry", _rel(lhs - rhs, lhs, rhs))

        # (vi) partial traces are scalar; record the measured functions
        trR = partial_trace_1(family.R(w, z))
        phit = np.trace(trR) / N
        record("trace_scalar", _rel(trR - phit * eye(N), trR))
        trR2 = partial_trace_2(family.R(w, z))
        record("trace_scalar", _rel(trR2 - phit * eye(N), trR2))
        tr_r = partial_trace_1(family.r(z))
        e1t = np.trace(tr_r) / N
        record("trace_scalar_r", _rel(tr_r - e1t * eye(N), tr_r))
        scalars["phi_tilde"].append([phit.real, phit.imag])
        scalars["E1_tilde"].append([e1t.real, e1t.imag])

        # (vii) mixed relation between R and its argument derivative
        a1 = embed12(family.R(z, x), N) @ embed23(family.F(z, y), N)
        a2 = embed12(family.F(z, x), N) @ embed23(family.R(z, y), N)
        b1 = embed23(family.F0(y), N) @ embed13(family.R(z, x + y), N)
        b2 = embed13(family.R(z, x + y), N) @ embed12(family.F0(x), N)
        record("mixed_rf", _rel(a1 - a2 - b1 + b2, a1, a2, b1, b2))

        # (viii) boundary degenerations of the mixed relation
        Rz0 = family.Rz0(z)
        Rz1 = family.Rz1(z)
        Rx = embed13(family.R(z, x), N)
        a1 = embed12(family.R(z, x), N) @ embed23(Rz1, N)
        a2 = embed12(family.F(z, x), N) @ embed23(Rz0, N)
        b1 = r1_23 @ Rx
        b2 = Rx @ embed12(family.F0(x), N)
        b3 = 0.5 * P23 @ embed13(family.R(z, x, dz=2), N)
        record("mixed_rf_limit_y",
               _rel(a1 - a2 - b1 + b2 + b3, a1, a2, b1, b2, b3))

        Ry = embed13(family.R(z, y), N)
        a1 = embed12(Rz0, N) @ embed23(family.F(z, y), N)
        a2 = embed12(Rz1, N) @ embed23(family.R(z, y), N)
        b1 = embed23(family.F0(y), N) @ Ry
        b2 = Ry @ r1_12
        b3 = 0.5 * embed13(family.R(z, y, dz=2), N) @ kron(P, eye(N))
        record("mixed_rf_limit_x",
               _rel(a1 - a2 - b1 + b2 - b3, a1, a2, b1, b2, b3))

        # (ix) opposite-argument product in commutator form
        q = x
        lhs = embed12(family.R(z, q), N) @ embed23(family.R(z, -q), N)
        r13z = embed13(family.r(z), N)
        r32q = embed23(swap_sites(family.r(q), N), N)
        c1 = r13z @ r32q @ P13
        c2 = r32q @ r13z @ P13
        c3 = embed13(family.F0(z), N) @ P13
        c4 = embed23(swap_sites(family.F0(q), N), N) @ P13
        record("q_product", _rel(lhs - c1 + c2 + c3 - c4, lhs, c1, c2, c3, c4))

        # (x) half of the classical Yang-Baxter relation and its w->0 limit
        p1 = embed12(family.r(z), N) @ embed13(family.r(z + w), N)
        p2 = embed23(family.r(w), N) @ embed12(family.r(z), N)
        p3 = embed13(family.r(z + w), N) @ embed23(family.r(w), N)
        m1 = embed12(family.m(z), N)
        m2 = embed23(family.m(w), N)
        m3 = embed13(family.m(z + w), N)
        record("half_cybe",
               _rel(p1 - p2 + p3 - m1 - m2 - m3, p1, p2, p3, m1, m2, m3, I3))

        r12z = embed12(family.r(z), N)
        r13zz = embed13(family.r(z), N)
        p1 = r12z @ r13zz
        c1 = r0_23 @ r12z
        c2 = r13zz @ r0_23
        c3 = embed13(family.F0(z), N) @ P23
        m1 = embed12(family.m(z), N)
        m3 = embed13(family.m(z), N)
        record("half_cybe_limit",
               _rel(p1 - c1 + c2 + c3 - m1 - m0_23 - m3,
                    p1, c1, c2, c3, m1, m0_23, m3, I3))

    # (v) classical expansion order: the hbar^2 tail halves like hbar^2
    z = _draw_many(rng, family, 1)[0]
    rz = family.r(z)
    mz = family.m(z)

    def tail(h):
        return frobenius_norm(family.R(h, z) - I2 / h - rz - h * mz)

    t_a, t_b = tail(1e-2), tail(5e-3)
    if t_a < 1e-12:
        record("classical_expansion", 0.0)
    else:
        # tail must shrink at least quadratically when hbar halves; some
        # families have a vanishing hbar^2 term and decay even faster
        ratio = t_a / t_b
        record("classical_expansion",
               0.0 if ratio >= 3.5 else abs(ratio - 4.0))

    # (xi) linear coefficient of r equals m(0) P, measured independently
    r1_meas = measure_r1(family)
    record("r1_is_m0P", _rel(r1_meas - r1, r1_meas, r1))

    properties = {}
    for name, value in worst.items():
        properties[name] = {
            "max_residual": value,
            "samples": int(n_samples),
            "tol": tol,
            "pass": bool(value < tol),
        }
    return {
        "family": family.kind,
        "N": family.N,
        "params": family.params(),
        "seed": int(seed),
        "properties": properties,
        "measured_phi_tilde": scalars["phi_tilde"][:3],
        "measured_E1_tilde": scalars["E1_tilde"][:3],
    }
