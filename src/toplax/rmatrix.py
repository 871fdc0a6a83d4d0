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
from .tensor import (MAX_ARRAY_BYTES, check_scale, eye, kron, permutation_P,
                     sin_basis_T_int, partial_trace_1, partial_trace_2)


class RMatrixFamily:
    """Base interface: N, scalar flavor, quantum R and classical data.

    R, r, m and everything built on them take the argument z (for
    R^z(q), q) as a number or as an array of pair differences; an array of
    shape s gives a stack of shape s + (N^2, N^2), one matrix per element.
    The hbar of R (and the spectral point of F) may be an array too, which
    broadcasts against z, so that certify evaluates each kernel once over a
    whole stack of samples.
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

    def Rz_coefficients(self, z):
        """(r(z) P, m(z) P): the constant and linear q-coefficients of
        R^z(q) near q = 0."""
        return self.r(z) @ self._P, self.m(z) @ self._P

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
        hbar, z = _complex(hbar, z)
        sf.check_pole(self.flavor, hbar, z)
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")
        if dz == 0:
            return self._I / hbar[..., None, None] + self._r(z, 0)
        return self._r(np.broadcast_arrays(hbar, z)[1], dz)

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
        # F^z(q) = -P/q^2 does not depend on z: the same stack along the
        # axes of the spectral point
        F = np.empty_like(R)
        F[...] = self._r(np.asarray(q, dtype=complex), 1)
        return R, F

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
        return np.zeros(np.shape(z) + self._I.shape, dtype=complex)

    def r0(self):
        return np.zeros((self.N * self.N, self.N * self.N), dtype=complex)


def _complex(*args):
    """The arguments as complex arrays, each of its own shape."""
    return [np.asarray(a, dtype=complex) for a in args]


def _n2_stack(layout, values, *args):
    """4 x 4 matrices over the broadcast of the arrays args, with the
    entries at the positions layout[k] equal to values(*v)[k] at each
    element v of the broadcast.

    The closed forms of the N = 2 families are evaluated per element in
    Python complex arithmetic, so a stack holds bitwise the matrices of its
    elements; numpy's vector loops round complex division and products
    differently in the last bits.
    """
    args = np.broadcast_arrays(*_complex(*args))
    shape = args[0].shape
    rows = [values(*v) for v in zip(*(a.ravel().tolist() for a in args))]
    table = np.array(rows, dtype=complex).reshape(shape + (len(layout),))
    out = np.zeros(shape + (4, 4), dtype=complex)
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
        hbar, z = _complex(hbar, z)
        sf.check_pole(self.flavor, hbar, z)
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")
        C = self.C

        def values(h, z):
            sh, ch = cmath.sinh(z), cmath.cosh(z)
            if dz == 0:
                shh = cmath.sinh(h)
                return (ch / sh + cmath.cosh(h) / shh, 1.0 / shh, 1.0 / sh,
                        C * cmath.sinh(z + h))
            if dz == 1:
                return (-1.0 / sh ** 2, 0.0, -ch / sh ** 2,
                        C * cmath.cosh(z + h))
            return (2.0 * ch / sh ** 3, 0.0,
                    (2.0 * ch * ch - sh * sh) / sh ** 3,
                    C * cmath.sinh(z + h))

        return _n2_stack(self._LAYOUT, values, hbar, z)

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

        return _n2_stack(self._LAYOUT, values, z)

    def m(self, z):
        # the diagonal pairs 1/3 and -1/6, and the corner
        C = self.C
        return _n2_stack(self._LAYOUT, lambda z: (
            1.0 / 3.0, -0.5 / 3.0, 0.0, C * cmath.cosh(z)), z)

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
        hbar, z = _complex(hbar, z)
        sf.check_pole(self.flavor, hbar, z)
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")

        def values(h, z):
            if dz == 0:
                return (1.0 / h + 1.0 / z, 1.0 / h, 1.0 / z, -h - z, h + z,
                        -h ** 3 - 2 * z * h ** 2 - 2 * h * z ** 2 - z ** 3)
            if dz == 1:
                return (-1.0 / z ** 2, 0.0, -1.0 / z ** 2, -1.0, 1.0,
                        -2 * h ** 2 - 4 * h * z - 3 * z ** 2)
            return 2.0 / z ** 3, 0.0, 2.0 / z ** 3, 0.0, 0.0, -4 * h - 6 * z

        return _n2_stack(self._LAYOUT, values, hbar, z)

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

        return _n2_stack(self._LAYOUT, values, z)

    def m(self, z):
        return _n2_stack(self._LAYOUT, lambda z: (
            0.0, 0.0, 0.0, -1.0, 1.0, -2 * z ** 2), z)

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
        self._sectors = sf.all_sectors(self.N)
        # the zero sector comes first and T_0 (x) T_0 is the identity
        self._nonzero = self._sectors[1:]
        self._omegas = np.array([a.omega(self.tau) for a in self._nonzero])
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
        first.

        A single row is doubled: numpy sends it to the matrix-vector BLAS
        call, which rounds unlike the matrix-matrix call of a longer stack."""
        n = self.N * self.N
        rows = coeffs.reshape(-1, coeffs.shape[-1])
        out = (rows if len(rows) > 1 else np.repeat(rows, 2, 0)) @ self._TT
        return out[:len(rows)].reshape(coeffs.shape[:-1] + (n, n))

    def _R_orders(self, hbar, z, orders):
        _, phi, _ = sf.sector_table(self.flavor, self._sectors, z,
                                    np.asarray(hbar, dtype=complex) / self.N,
                                    max(orders))
        coeffs = np.array([phi[d] for d in orders])
        return list(self._sum(coeffs) / self.N)

    def R(self, hbar, z, dz=0):
        if dz not in (0, 1, 2):
            raise ValueError("dz must be 0, 1 or 2")
        return self._R_orders(hbar, z, (dz,))[0]

    def R_with_F(self, spectral, q):
        return tuple(self._R_orders(spectral, q, (0, 1)))

    @staticmethod
    def _r_coeffs(log_z, phi, d):
        # the scalar part d^d/dz^d E1(z) multiplies T_0 (x) T_0
        return np.concatenate([log_z[d][..., None], phi[d]], axis=-1)

    def _r_orders(self, z, orders):
        log_z, phi, _ = sf.sector_table(self.flavor, self._nonzero, z, 0.0,
                                        max(orders))
        coeffs = np.array([self._r_coeffs(log_z, phi, d) for d in orders])
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
        coeffs = np.concatenate([[sf.kappa_const(self.flavor) / 3.0],
                                 -sf.eisenstein_E2(self.flavor, self._omegas)])
        return self._sum(coeffs) / (self.N * self.N)

    def _m_coeffs(self, log_z, f):
        # scalar part (E1^2 - wp)/2 with wp = E2 + kappa/3 = kappa/3 - log_z[1]
        e1 = log_z[0]
        wp = -log_z[1] + sf.kappa_const(self.flavor) / 3.0
        return np.concatenate([((e1 * e1 - wp) / 2.0)[..., None], f], axis=-1)

    def m(self, z):
        z = np.asarray(z, dtype=complex)
        small = np.abs(z) < 1e-12
        if small.any():
            # the z -> 0 limit there, the series elsewhere
            out = np.empty(z.shape + self._I.shape, dtype=complex)
            out[small] = self.m0()
            out[~small] = self.m(z[~small])
            return out
        log_z, _, f = sf.sector_table(self.flavor, self._nonzero, z, 0.0, 1)
        return self._sum(self._m_coeffs(log_z, f)) / (self.N * self.N)

    def Rz_coefficients(self, z):
        # r(z) and m(z) from one series and one two-row sum
        log_z, phi, f = sf.sector_table(self.flavor, self._nonzero, z, 0.0, 1)
        r, m = self._sum(np.stack([self._r_coeffs(log_z, phi, 0),
                                   self._m_coeffs(log_z, f)]))
        return r / self.N @ self._P, m / (self.N * self.N) @ self._P

    def r0(self):
        a2 = np.array([a.a2 for a in self._nonzero])
        e1 = sf.eisenstein_E1(self.flavor, self._omegas)
        coeffs = np.concatenate([[0.0], e1 + 2j * cmath.pi * a2 / self.N])
        return self._sum(coeffs) / self.N


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
# of a two-site matrix or stack (..., N^2, N^2), as the products np.kron
# forms, by an einsum against the identity

def _embed(spec, T, N):
    T = np.asarray(T, dtype=complex)
    out = np.einsum(spec, T.reshape(T.shape[:-2] + (N,) * 4), eye(N))
    return out.reshape(T.shape[:-2] + (N ** 3, N ** 3))


def embed12(T, N):
    return _embed("...ikjl,ab->...ikajlb", T, N)


def embed23(T, N):
    return _embed("...ikjl,ab->...aikbjl", T, N)


def embed13(T, N):
    return _embed("...ikjl,ab->...iakjbl", T, N)


def swap_sites(T, N):
    """Conjugate a two-site operator, or each of a stack, by the factor
    swap: T_12 -> T_21 = P T P."""
    T = np.asarray(T, dtype=complex)
    T4 = T.reshape(T.shape[:-2] + (N,) * 4)
    return T4.swapaxes(-4, -3).swapaxes(-2, -1).reshape(T.shape)


def perm13(N):
    """Permutation of sites 1 and 3 on Mat(N)^3."""
    I6 = eye(N ** 3).reshape((N,) * 6)
    return I6.transpose(0, 1, 2, 5, 4, 3).reshape(N ** 3, N ** 3)


def perm23(N):
    I6 = eye(N ** 3).reshape((N,) * 6)
    return I6.transpose(0, 1, 2, 3, 5, 4).reshape(N ** 3, N ** 3)


# --- certification --------------------------------------------------------
# Each identity below forms its three-site products as (n, N^3, N^3) stacks
# over n samples and drops them on return; a residual is one per sample.

def _norms(*mats):
    """Frobenius norms of the matrices (per matrix of a stack) for sf._rel."""
    return [np.linalg.norm(T, axis=(-2, -1)) for T in mats]


def _chunk_size(N):
    """Samples per stack: an identity below holds at most 16 complex
    (n, N^3, N^3) stacks at once, and together they fit the array budget."""
    return MAX_ARRAY_BYTES // (16 * 16 * N ** 6)


def _aybe(N, R12, R23, R13, R12b, R23b, R13b):
    """Associative Yang-Baxter relation R12 R23 = R13 R12b + R23b R13b."""
    lhs = embed12(R12, N) @ embed23(R23, N)
    t1 = embed13(R13, N) @ embed12(R12b, N)
    t2 = embed23(R23b, N) @ embed13(R13b, N)
    return sf._rel(*_norms(lhs - t1 - t2, lhs, t1, t2))


def _mixed_rf(N, Rzx, Fzx, Rzy, Fzy, Rzxy, F0x, F0y):
    """Mixed relation between R^z and its argument derivative F^z."""
    a1 = embed12(Rzx, N) @ embed23(Fzy, N)
    a2 = embed12(Fzx, N) @ embed23(Rzy, N)
    R13 = embed13(Rzxy, N)
    b1 = embed23(F0y, N) @ R13
    b2 = R13 @ embed12(F0x, N)
    return sf._rel(*_norms(a1 - a2 - b1 + b2, a1, a2, b1, b2))


def _mixed_rf_limit_y(family, Rzx, Fzx, Rzx2, Rz0, Rz1, F0x):
    """The y -> 0 degeneration of the mixed relation."""
    N = family.N
    Rx = embed13(Rzx, N)
    a1 = embed12(Rzx, N) @ embed23(Rz1, N)
    a2 = embed12(Fzx, N) @ embed23(Rz0, N)
    b1 = embed23(family.r1(), N) @ Rx
    b2 = Rx @ embed12(F0x, N)
    b3 = 0.5 * perm23(N) @ embed13(Rzx2, N)
    return sf._rel(*_norms(a1 - a2 - b1 + b2 + b3, a1, a2, b1, b2, b3))


def _mixed_rf_limit_x(family, Rzy, Fzy, Rzy2, Rz0, Rz1, F0y):
    """The x -> 0 degeneration of the mixed relation."""
    N = family.N
    Ry = embed13(Rzy, N)
    a1 = embed12(Rz0, N) @ embed23(Fzy, N)
    a2 = embed12(Rz1, N) @ embed23(Rzy, N)
    b1 = embed23(F0y, N) @ Ry
    b2 = Ry @ embed12(family.r1(), N)
    b3 = 0.5 * embed13(Rzy2, N) @ embed12(permutation_P(N), N)
    return sf._rel(*_norms(a1 - a2 - b1 + b2 - b3, a1, a2, b1, b2, b3))


def _q_product(N, Rzq, Rz_q, rz, rq, F0z, F0q):
    """Opposite-argument product R^z(q) R^z(-q) in commutator form."""
    P13 = perm13(N)
    lhs = embed12(Rzq, N) @ embed23(Rz_q, N)
    r13z = embed13(rz, N)
    r32q = embed23(swap_sites(rq, N), N)
    c1 = r13z @ r32q @ P13
    c2 = r32q @ r13z @ P13
    c3 = embed13(F0z, N) @ P13
    c4 = embed23(swap_sites(F0q, N), N) @ P13
    return sf._rel(*_norms(lhs - c1 + c2 + c3 - c4, lhs, c1, c2, c3, c4))


def _half_cybe(N, rz, rw, rzw, mz, mw, mzw):
    """Half of the classical Yang-Baxter relation."""
    p1 = embed12(rz, N) @ embed13(rzw, N)
    p2 = embed23(rw, N) @ embed12(rz, N)
    p3 = embed13(rzw, N) @ embed23(rw, N)
    m1 = embed12(mz, N)
    m2 = embed23(mw, N)
    m3 = embed13(mzw, N)
    return sf._rel(*_norms(p1 - p2 + p3 - m1 - m2 - m3, p1, p2, p3, m1, m2,
                           m3, eye(N ** 3)))


def _half_cybe_limit(family, rz, F0z, mz):
    """The w -> 0 limit of the half classical Yang-Baxter relation."""
    N = family.N
    r0_23 = embed23(family.r0(), N)
    m0_23 = embed23(family.m0(), N)
    r12z = embed12(rz, N)
    r13z = embed13(rz, N)
    p1 = r12z @ r13z
    c1 = r0_23 @ r12z
    c2 = r13z @ r0_23
    c3 = embed13(F0z, N) @ perm23(N)
    m1 = embed12(mz, N)
    m3 = embed13(mz, N)
    return sf._rel(*_norms(p1 - c1 + c2 + c3 - m1 - m0_23 - m3,
                           p1, c1, c2, c3, m1, m0_23, m3, eye(N ** 3)))


def _certify_stack(family, hb, et, z, w, x, y):
    """Every sampled identity over the sample arrays hb, ..., y, with one
    family call per distinct kernel argument (F^0 as r(q, d=1)): {name:
    residual per sample} and the measured (phi_tilde, E1_tilde)."""
    N, P = family.N, family._P
    R, F, r, m = family.R, family.F, family.r, family.m
    I2 = eye(N * N)
    out = {}

    A = R(hb, z)
    out["aybe"] = _aybe(N, A, R(et, w), R(et, z + w), R(hb - et, z),
                        R(et - hb, w), R(hb, z + w))

    # skew-symmetry
    B = -swap_sites(R(-hb, -z), N)
    out["skew_symmetry"] = sf._rel(*_norms(A - B, A, B))

    # unitarity: product is scalar, scalar equals wp(hb) - wp(z)
    prod = A @ swap_sites(R(hb, -z), N)
    scal = np.trace(prod, axis1=-2, axis2=-1) / (N * N)
    out["unitarity_scalar"] = sf._rel(
        *_norms(prod - scal[..., None, None] * I2, prod))
    wp = sf.weierstrass_p(family.flavor, np.stack([hb, z]))
    target = wp[0] - wp[1]
    out["unitarity_value"] = sf._rel(scal - target, scal, target, 1.0)

    # Fourier symmetry
    lhs = A @ P
    rhs = R(z, hb)
    out["fourier_symmetry"] = sf._rel(*_norms(lhs - rhs, lhs, rhs))

    # partial traces are scalar; the measured functions are their traces
    rz = r(z)
    Rwz = R(w, z)
    tr = np.stack([partial_trace_1(Rwz), partial_trace_2(Rwz),
                   partial_trace_1(rz)])
    phit, e1t = np.trace(tr[::2], axis1=-2, axis2=-1) / N
    scal = np.stack([phit, phit, e1t])[..., None, None] * eye(N)
    res = sf._rel(*_norms(tr - scal, tr))
    out["trace_scalar"], out["trace_scalar_r"] = np.maximum(*res[:2]), res[2]

    # mixed relation between R and its argument derivative, and its
    # boundary degenerations
    Rzx, Fzx, Rzy, Fzy = R(z, x), F(z, x), R(z, y), F(z, y)
    F0x, F0y = r(x, d=1), r(y, d=1)
    mz = m(z)
    Rz0, Rz1 = rz @ P, mz @ P
    out["mixed_rf"] = _mixed_rf(N, Rzx, Fzx, Rzy, Fzy, R(z, x + y), F0x,
                                F0y)
    out["mixed_rf_limit_y"] = _mixed_rf_limit_y(
        family, Rzx, Fzx, R(z, x, dz=2), Rz0, Rz1, F0x)
    out["mixed_rf_limit_x"] = _mixed_rf_limit_x(
        family, Rzy, Fzy, R(z, y, dz=2), Rz0, Rz1, F0y)

    # opposite-argument product in commutator form, q = x
    F0z = r(z, d=1)
    out["q_product"] = _q_product(N, Rzx, R(z, -x), rz, r(x), F0z, F0x)

    # half of the classical Yang-Baxter relation and its w -> 0 limit
    out["half_cybe"] = _half_cybe(N, rz, r(w), r(z + w), mz, m(w), m(z + w))
    out["half_cybe_limit"] = _half_cybe_limit(family, rz, F0z, mz)
    return out, (phit, e1t)


def _draw(rng, family, margin=0.05):
    return sf.sample_point(rng, family.flavor, eps=margin)


def _expansion_radius(family):
    """Radius at 0 for r and R(., z): LAURENT_RADIUS times the shortest period
    and, on bb (guarded at z + omega_a), each pole distance of omega_a."""
    d = family.pole_distance(family._omegas) if family.kind == "bb" else []
    return sf.LAURENT_RADIUS * float(
        np.min(d, initial=sf.shortest_period(family.flavor)))


def measure_r1(family):
    """The linear coefficient of r(z) at 0, from one family call."""
    return sf.laurent_coefficients(family.r, 0.0, _expansion_radius(family),
                                   (1,))[0]


def certify(family, n_samples, seed, tol):
    """Residual report for every R-matrix identity used by the construction.

    All samples are drawn first; sf.max_residuals evaluates _certify_stack
    over stacks of _chunk_size(N).  Returns {"family", "N", "params",
    "properties": {name: {max_residual, samples, tol, pass}}} plus the
    measured trace scalars.
    """
    N = family.N
    check_scale(16 * N ** 6, f"one sample's three-site stacks at N = {N}")
    rng = np.random.default_rng(seed)
    # rows (hb, et, z, w, x, y)
    samples = np.array([sf.sample_tuple(
        rng, family.flavor, 4, 0.05,
        extra=[(1, -1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0)])
        + sf.sample_tuple(rng, family.flavor, 2, 0.05, extra=[(1, 1)])
        for _ in range(n_samples)], dtype=complex).reshape(-1, 6)
    measured = []

    def evaluate(stack):
        residuals, traces = _certify_stack(family, *stack.T)
        measured.extend(zip(*np.broadcast_arrays(*traces)))
        return residuals

    worst = sf.max_residuals(samples, _chunk_size(N), evaluate)

    # (v) classical expansion: the hbar-coefficients -1, 0 and 1 of R(hbar, z)
    z = _draw(rng, family)
    worst["classical_expansion"] = float(sf.expansion_residual(
        lambda hb: family.R(hb, z), 0.0, _expansion_radius(family),
        {-1: eye(N * N), 0: family.r(z), 1: family.m(z)}, np.linalg.norm))

    # (xi) linear coefficient of r equals m(0) P, measured independently
    r1, got = family.r1(), measure_r1(family)
    worst["r1_is_m0P"] = float(sf._rel(
        *map(np.linalg.norm, (got - r1, got, r1)), 1.0))

    properties = {name: {"max_residual": value, "samples": int(n_samples),
                         "tol": tol, "pass": bool(value < tol)}
                  for name, value in worst.items()}
    return {
        "family": family.kind,
        "N": family.N,
        "params": family.params(),
        "seed": int(seed),
        "properties": properties,
        "measured_phi_tilde": [[v.real, v.imag] for v, _ in measured[:3]],
        "measured_E1_tilde": [[v.real, v.imag] for _, v in measured[:3]],
    }
