"""Quantum R-matrix families with classical-expansion data and certification.

Each family exposes the quantum matrix R(hbar, z) on Mat(N) x Mat(N), its
z-derivatives, the classical coefficients r(z), m(z) from the hbar-expansion
R = 1/hbar + r + hbar*m + O(hbar^2), and the small-z expansion coefficients.
F^z(q) = d/dq R^z(q) is R(z, q, 1) and F^0(q) = r'(q) is r(q, 1); a tuple
of orders, as R(z, q, (0, 1)) or r(q, (1, 2)), gives one stack per order
from one evaluation.  The certify() routine measures the residual of every
identity the Lax construction relies on.
"""

import functools
import math

import numpy as np

from . import specfun as sf
from .errors import Overflow
from .tensor import (check_scale, eye, identity_diagonal, permutation_P,
                     rows_product, sin_basis, partial_trace_1,
                     partial_trace_2, site_legs, site_product, stack_norms)


_ORDERS = frozenset((0, 1, 2))


def _orders(d):
    """The derivative orders d as a tuple: d itself if it is one (not
    empty), else (d,); each order is 0, 1 or 2."""
    orders = d if isinstance(d, tuple) else (d,)
    if not orders or not _ORDERS.issuperset(orders):
        raise ValueError(f"derivative orders must be 0, 1 or 2, got {d!r}")
    return orders


class RMatrixFamily:
    """Base interface: N, scalar flavor, quantum R and classical data.

    R, r, m and everything built on them take the argument z (for
    R^z(q), q) as a number or as an array of pair differences; an array of
    shape s gives a stack of shape s + (N^2, N^2), one matrix per element,
    with its bits in a stack of any size (so a complex product with a
    temporary b is np.multiply(a, b) or b * a: numpy runs a * b on a large
    b as b *= a, which rounds otherwise).  The hbar of R may be an array
    too, which broadcasts against z.

    A family implements _R(hbar, z, orders) and _r(z, orders), on complex
    arrays, returning one stack per order and guarding the poles itself.
    A stack may be a read-only view (a matrix repeated along the axes of
    hbar), so a caller copies before writing into one.  The N = 2 families
    write the closed forms of R once (_ClosedForms).
    """

    kind = None

    def __init__(self, N, flavor):
        self.N = int(N)
        check_scale(self.N ** 4, f"an N^2 x N^2 matrix at N = {self.N}")
        self.flavor = flavor
        self._P = permutation_P(self.N)
        self._I = eye(self.N * self.N)
        self._r0_m0 = None

    def R(self, hbar, z, dz=0):
        """The dz-th z-derivative of R^hbar(z), or for a tuple dz the tuple
        of those stacks from one evaluation; F^z(q) is R(z, q, 1)."""
        out = self._R(np.asarray(hbar, dtype=complex),
                      np.asarray(z, dtype=complex), _orders(dz))
        return tuple(out) if isinstance(dz, tuple) else out[0]

    def r(self, z, d=0):
        """The d-th derivative of r(z), or for a tuple d the tuple of those
        stacks from one evaluation; F^0(q) is r(q, 1)."""
        out = self._r(np.asarray(z, dtype=complex), _orders(d))
        return tuple(out) if isinstance(d, tuple) else out[0]

    def m0(self):
        """m(0), evaluated on first use with r0 and then shared read-only."""
        if self._r0_m0 is None:
            self._r0_m0 = tuple(map(np.array, self._r0_and_m0()))
            for v in self._r0_m0:
                v.flags.writeable = False
        return self._r0_m0[1]

    def _r0_and_m0(self):
        return np.zeros(self._I.shape, dtype=complex), self.m(0.0)

    def r0(self):
        """Constant coefficient of r(z) = P/z + r0 + z*r1 + O(z^2), shared
        read-only as m0 is."""
        self.m0()
        return self._r0_m0[0]

    def r1(self):
        """Linear coefficient of r(z) near 0, equal to m(0) P."""
        return self.m0() @ self._P

    def r_and_m(self, z):
        """(r(z), m(z)), from one evaluation where the family has one."""
        return self.r(z), self.m(z)

    def Rz_coefficients(self, z):
        """(r(z) P, m(z) P): the constant and linear q-coefficients of
        R^z(q) near q = 0."""
        r, m = self.r_and_m(z)
        return r @ self._P, m @ self._P

    def pole_distance(self, z):
        return sf.pole_distance(self.flavor, z)

    def params(self):
        return {}


class YangXXX(RMatrixFamily):
    """Rational R-matrix 1/hbar + P/z for any N (N=1 is the scalar kernel)."""

    kind = "xxx"

    def __init__(self, N=2):
        super().__init__(N, sf.Flavor.rational())

    # 2^(1023 // (d + 1)): the |z| up to which z^(d + 1), and so the d-th
    # derivative -(-1)^d d! P / z^(d + 1), stays finite
    _REACH = {0: 2.0 ** 1023, 1: 2.0 ** 511, 2: 2.0 ** 341}

    def _guard(self, orders, z, *hbar):
        """check_pole of hbar and z, then Overflow where |z| passes the
        reach of the highest order, naming the first such element of the
        broadcast (z, hbar) as _n2_stack does: one reduction over the pole
        distances of z."""
        reach = self._REACH[max(orders)]
        d = sf.check_pole(self.flavor, *hbar, z)[-1]
        # a NaN distance fails too
        if not np.maximum.reduce(d, initial=0.0) <= reach:
            args = np.broadcast_arrays(z, *hbar)
            far = np.broadcast_to(~(d.reshape(z.shape) <= reach),
                                  args[0].shape).ravel().argmax()
            v = [complex(a.ravel()[far]) for a in args]
            raise Overflow(v[0] if len(v) == 1 else tuple(v))

    def _R(self, hbar, z, orders):
        self._guard(orders, z, hbar)
        shape = np.broadcast(hbar, z).shape + self._I.shape
        out = []
        for d in orders:
            if d == 0:
                # P / z written by a broadcast assignment, then I / hbar
                # added in place: numpy buffers each broadcast operand of a
                # sum, and the assignment needs no buffer
                R = np.empty(shape, dtype=complex)
                R[...] = self._pole(z, 0)
                R += self._I / hbar[..., None, None]
                out.append(R)
            else:
                # the z-derivatives of R^hbar(z) are those of P/z: the same
                # stack along the axes of hbar, as a read-only view of it
                out.append(np.broadcast_to(self._pole(z, d), shape))
        return out

    def _r(self, z, orders):
        self._guard(orders, z)
        return [self._pole(z, d) for d in orders]

    def _pole(self, z, d):
        """d-th z-derivative of r(z) = P/z.  np.power rounds as the scalar
        z ** 2 and z ** 3 do, so a stack holds bitwise the matrices of its
        elements; numpy's z ** 2 on an array squares in vector loops that
        can differ in the last bit."""
        if d == 0:
            return self._P / z[..., None, None]
        if d == 1:
            return -self._P / np.power(z, 2)[..., None, None]
        return 2.0 * self._P / np.power(z, 3)[..., None, None]

    def m(self, z):
        return np.zeros(np.shape(z) + self._I.shape, dtype=complex)


def _n2_stack(cells, values, orders, *args):
    """4 x 4 matrices over the broadcast of the complex arrays args, one
    stack per order in orders: entry (a, b) is the value cells[a, b] of
    that order's values in values(orders, *args), or 0 where cells[a, b]
    is their count.  values runs once on the broadcast raveled to one axis
    (0-d arrays would take numpy's scalar path, which rounds otherwise),
    with overflow and invalid-value warnings off; np.take gathers the
    matrices, contiguous.
    A value that is not finite raises Overflow naming its element: its
    args, (z, hbar) for R, or its one arg."""
    args = np.broadcast_arrays(*args)
    shape, flat = args[0].shape + (4, 4), [a.ravel() for a in args]
    with np.errstate(over="ignore", invalid="ignore"):
        tables = values(orders, *flat)
    stacks = []
    for columns in tables:
        table = np.zeros((len(flat[0]), len(columns) + 1), dtype=complex)
        for k, column in enumerate(columns):
            table[:, k] = column
        if not np.isfinite(table).all():
            v = [complex(a[np.isfinite(table).all(-1).argmin()]) for a in flat]
            raise Overflow(v[0] if len(v) == 1 else tuple(v))
        stacks.append(np.take(table, cells, 1).reshape(shape))
    return stacks


class _ClosedForms(RMatrixFamily):
    """An N = 2 family from closed forms, placed by _CELLS: _values(orders,
    z, h) gives, for each order d, those of the d-th z-derivative of
    R^h(z), and with h None those of r(z), R's regular part at h = 0 (its
    1/h terms dropped and h = 0 elsewhere); _m_values(z) gives those of
    m(z)."""

    def _R(self, hbar, z, orders):
        sf.check_pole(self.flavor, hbar, z)
        return _n2_stack(self._CELLS, self._values, orders, z, hbar)

    def _r(self, z, orders):
        sf.check_pole(self.flavor, z)
        return _n2_stack(self._CELLS, self._values, orders, z)

    def m(self, z):
        return _n2_stack(self._CELLS, lambda _, z: [self._m_values(z)], (0,),
                         np.asarray(z, dtype=complex))[0]


class SevenVertex(_ClosedForms):
    """Trigonometric deformation of the XXZ matrix with corner constant C:
    R^h(z) is coth z + coth h at (0, 0) and (3, 3), csch h at (1, 1) and
    (2, 2), csch z at (1, 2) and (2, 1), and C sinh(z + h) at (3, 0)."""

    kind = "7v"
    _CELLS = np.array([[0, 4, 4, 4], [4, 1, 2, 4], [4, 2, 1, 4],
                       [3, 4, 4, 0]])

    def __init__(self, C):
        super().__init__(2, sf.Flavor.trigonometric())
        self.C = complex(C)

    def params(self):
        return {"C": [self.C.real, self.C.imag]}

    def _corner(self, d, z):
        # C sinh^(d)(z), or 0 at C = 0, where C times inf would be NaN
        return (np.cosh if d % 2 else np.sinh)(z) * self.C if self.C else 0.0

    def _values(self, orders, z, h=None):
        # coth and csch of z (and of h) once for all orders
        coth, csch = sf.coth_csch(z)
        coth_h = csch_h = 0.0
        if h is not None:
            coth_h, csch_h = sf.coth_csch(h)
            z = z + h    # the corner's argument
        out = []
        for d in orders:
            corner = self._corner(d, z)
            if d == 0:
                out.append((coth + coth_h, csch_h, csch, corner))
            elif d == 1:
                out.append((-csch * csch, 0.0, -coth * csch, corner))
            else:
                out.append((2.0 * coth * csch * csch, 0.0,
                            (2.0 * coth * coth - 1.0) * csch, corner))
        return out

    def _m_values(self, z):
        # the h-coefficients of coth h, csch h and the corner
        return 1.0 / 3.0, -0.5 / 3.0, 0.0, self._corner(1, z)


class SixVertexXXZ(SevenVertex):
    """XXZ 6-vertex matrix, the C = 0 limit of the deformed family."""

    kind = "xxz"

    def __init__(self):
        super().__init__(0.0)

    def params(self):
        return {}


class ElevenVertex(_ClosedForms):
    """Rational deformation of Yang's matrix at N = 2: R^h(z) is 1/h + 1/z
    at (0, 0) and (3, 3), 1/h at (1, 1) and (2, 2), 1/z at (1, 2) and
    (2, 1), -(h + z) at (1, 0) and (2, 0), h + z at (3, 1) and (3, 2), and
    -(h + z)(h^2 + h z + z^2) at (3, 0)."""

    kind = "11v"
    _CELLS = np.array([[0, 6, 6, 6], [3, 1, 2, 6], [3, 2, 1, 6],
                       [5, 4, 4, 0]])

    def __init__(self):
        super().__init__(2, sf.Flavor.rational())

    def _values(self, orders, z, h=None):
        pole, h = (0.0, 0.0) if h is None else (1.0 / h, h)
        out = []
        for d in orders:
            if d == 0:
                inv, u = 1.0 / z, h + z
                out.append((pole + inv, pole, inv, -u, u,
                            np.multiply(-u, h * h + h * z + z * z)))
            elif d == 1:
                inv = -1.0 / (z * z)
                out.append((inv, 0.0, inv, -1.0, 1.0,
                            -(2.0 * h * h + 4.0 * h * z + 3.0 * z * z)))
            else:
                inv = 2.0 / (z * z * z)
                out.append((inv, 0.0, inv, 0.0, 0.0, -(4.0 * h + 6.0 * z)))
        return out

    def _m_values(self, z):
        return 0.0, 0.0, 0.0, -1.0, 1.0, -2.0 * z * z


class BaxterBelavin(RMatrixFamily):
    """Elliptic R-matrix in the Heisenberg sector basis, normalized so that
    the expansion and symmetry properties hold with unit coefficients.

    R^hbar(z) = (1/N) sum_a phi_a(z, omega_a + hbar/N) T_a (x) T_{-a}; r, m
    and their derivatives are the same sector sums at hbar -> 0, the zero
    sector's pole removed.  A matrix, or a stack over an array of z, is one
    theta series' table (specfun.sector_table for R, regular_table on the
    family's omega_constants for r and m) times the stacked basis.
    """

    kind = "bb"

    def __init__(self, N=2, tau=1j):
        super().__init__(N, sf.Flavor.elliptic(tau))
        self.tau = self.flavor.tau
        # flattened tensor-basis elements T_a (x) T_{-a} (integer-negated
        # label), one row per sector: [a, (i, k), (j, l)] = T_a[i, j]
        # T_{-a}[k, l], one broadcast product of the two halves of one stack
        a1, a2 = sf.sector_rows(self.tau, self.N)[:2].real
        T, Tm = sin_basis(np.concatenate([a1, -a1]),
                          np.concatenate([a2, -a2]), self.N).reshape(
            (2, -1) + (self.N,) * 2)
        self._TT = (T[:, :, None, :, None] * Tm[:, None, :, None, :]).reshape(
            len(T), -1)
        self._basis = self._TT / self.N

    @functools.cached_property
    def omega_constants(self):
        """specfun.omega_constants, summed on first use and kept."""
        return sf.omega_constants(self.flavor, self.N)

    def params(self):
        return {"tau": [self.tau.real, self.tau.imag]}

    def _sum(self, coeffs):
        """(1/N) sum_a coeffs[..., a] T_a (x) T_{-a} over all sectors, zero
        first, each matrix rounded as in any stack."""
        n = self.N * self.N
        return rows_product(coeffs, self._basis).reshape(coeffs.shape[:-1]
                                                         + (n, n))

    def _R(self, hbar, z, orders):
        phi = sf.sector_table(self.flavor, self.N, z, hbar / self.N,
                              max(orders))
        if orders != tuple(range(len(phi))):
            phi = phi[list(orders)]
        return self._sum(phi)

    def _r(self, z, orders):
        return self._sum(sf.regular_table(self.flavor, self.omega_constants,
                                          z, orders))

    def _r0_and_m0(self):
        # r0's sector parts are E1(omega_a) + 2 pi i a2 / N; m(0)'s scalar
        # part is kappa/3, its sector parts f(0, omega_a) = -E2(omega_a)
        _, twist, _, e1, e1p = self.omega_constants
        coeffs = np.array([e1 + twist, e1p])
        coeffs[1, 0] = sf.kappa_const(self.flavor) / 3.0
        r0, m0 = self._sum(coeffs)
        return r0, m0 / self.N

    def m(self, z):
        z = np.asarray(z, dtype=complex)
        small = np.abs(z) < 1e-12
        if small.any():
            # the z -> 0 limit there, the series elsewhere
            out = np.empty(z.shape + self._I.shape, dtype=complex)
            out[small] = self.m0()
            out[~small] = self.m(z[~small])
            return out
        table = sf.regular_table(self.flavor, self.omega_constants, z,
                                 (0,), f=True)
        return self._sum(table[1:])[0] / self.N

    def r_and_m(self, z):
        r, m = self._sum(sf.regular_table(
            self.flavor, self.omega_constants, np.asarray(z, dtype=complex),
            (0,), f=True))
        return r, m / self.N


FAMILY_KEYS = ("xxx", "11v", "xxz", "7v", "bb")


def make_family(kind, N=2, tau=None, C=None):
    """Construct a family from its CLI/config key; 11v, xxz and 7v exist at
    N = 2 only."""
    if kind == "xxx":
        return YangXXX(N)
    if kind in ("11v", "xxz", "7v") and N != 2:
        raise ValueError(f"{kind} family is defined at N = 2 only, not {N}")
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


# --- certification --------------------------------------------------------
# Each identity below is a signed sum of three-site terms over n samples,
# a term being the tensor.site_legs factors of one product.  _site_rel forms
# each product of two operators in one scratch stack, so an identity holds
# two (n, N^3, N^3) stacks; a term of one operator (and swaps), T (x) 1, is
# never formed: it is added on the identity leg's diagonal of the residual
# (tensor.identity_diagonal), with the bits of adding its stack, and its
# norm is sqrt(N) ||T||.


def _norms(*mats):
    """Frobenius norms of the matrices of each (..., n, n) stack, over its
    leading axes, for sf._rel."""
    return [stack_norms(T.reshape(-1, T.shape[-1] ** 2)).reshape(T.shape[:-2])
            for T in mats]


def _site_rel(N, signs, *terms, floor=0.0):
    """sf._rel of terms[0] plus or minus each later term (one sign character
    each) over the norm of each term and floor, one per sample: a product
    of two operators is formed in the leading entries of one scratch stack,
    normed there in its memory order and added into the C-ordered residual,
    and one of a single operator T added on its support, normed as sqrt(N)
    ||T||, so that each sum and norm takes one order whatever the number
    of samples."""
    size = N ** 6
    batch = np.broadcast_shapes(*(np.shape(T)[:-2] for term in terms
                                  for T, *_ in term if T is not None))
    residual = np.empty(batch + (N,) * 6, dtype=complex)
    scratch = np.empty(residual.size, dtype=complex)
    norms = []
    for sign, term in zip("=" + signs, terms):
        ops = [T for T, *_ in term if T is not None]
        if len(ops) == 1:
            T = ops[0]
            norms.append(math.sqrt(N) * stack_norms(
                np.reshape(T, (-1, N ** 4))).reshape(np.shape(T)[:-2]))
            X = np.reshape(T, np.shape(T)[:-2] + (N,) * 4 + (1,))
            if sign == "=":
                residual[...] = 0.0
            target = identity_diagonal(N, 3, residual, *term)
        else:
            X = site_legs(N, 3, *term, out=scratch)
            norms.append(stack_norms(scratch[:X.size].reshape(-1, size))
                         .reshape(X.shape[:-6]))
            target = residual
        if sign == "=":
            target[...] = X
        else:
            (np.add if sign == "+" else np.subtract)(target, X, out=target)
    return sf._rel(stack_norms(residual.reshape(-1, size)).reshape(batch),
                   *norms, floor)


def _sample_entries(N):
    """Complex entries one certification sample holds at once: 2 (N^3 x
    N^3) three-site stacks (_site_rel's residual and scratch, which only
    products of two operators fill: a lone-operator term holds no N^6
    stack), the 28 N^2 x N^2 kernel stacks of _certify_stack (14 R, 2 F^z,
    2 of its derivative, 4 r, 3 F^0, 3 m), and twice the theta series of
    its largest family call, bb's R at order 0 over 14 pairs, counted as
    1 + 2 N^2 arguments of 2K terms each, K as at MIN_IM_TAU (the other
    families sum no series): a bound, as the series sums 3 arguments per
    pair (z, u and z + u) into 2 N^2 entries each.  CERTIFY_BYTES holds
    108 samples at N = 2, 45 at N = 3, 10 at N = 5 and 5 at N = 6."""
    terms = len(sf._theta_weights(complex(0, sf.MIN_IM_TAU), 1, 3)[1])
    return 2 * N ** 6 + 28 * N ** 4 + 2 * 14 * (1 + 2 * N * N) * terms


def _aybe(N, R12, R23, R13, R12b, R23b, R13b):
    """Associative Yang-Baxter relation R12 R23 = R13 R12b + R23b R13b."""
    return _site_rel(N, "--", [(R12, 0, 1), (R23, 1, 2)],
                     [(R13, 0, 2), (R12b, 0, 1)], [(R23b, 1, 2), (R13b, 0, 2)])


def _mixed_rf(N, Rzx, Fzx, Rzy, Fzy, Rzxy, F0x, F0y):
    """Mixed relation between R^z and its argument derivative F^z."""
    return _site_rel(N, "--+", [(Rzx, 0, 1), (Fzy, 1, 2)],
                     [(Fzx, 0, 1), (Rzy, 1, 2)], [(F0y, 1, 2), (Rzxy, 0, 2)],
                     [(Rzxy, 0, 2), (F0x, 0, 1)])


def _mixed_rf_limit_y(family, Rzx, Fzx, Rzx2, rz, mz, F0x):
    """The y -> 0 degeneration of the mixed relation; R^z(q) = r(z) P
    + q m(z) P + O(q^2) near q = 0."""
    return _site_rel(family.N, "--++",
                     [(Rzx, 0, 1), (mz, 1, 2), (None, 1, 2)],
                     [(Fzx, 0, 1), (rz, 1, 2), (None, 1, 2)],
                     [(family.r1(), 1, 2), (Rzx, 0, 2)],
                     [(Rzx, 0, 2), (F0x, 0, 1)],
                     [(None, 1, 2), (0.5 * Rzx2, 0, 2)])


def _mixed_rf_limit_x(family, Rzy, Fzy, Rzy2, rz, mz, F0y):
    """The x -> 0 degeneration of the mixed relation."""
    return _site_rel(family.N, "--+-",
                     [(rz, 0, 1), (None, 0, 1), (Fzy, 1, 2)],
                     [(mz, 0, 1), (None, 0, 1), (Rzy, 1, 2)],
                     [(F0y, 1, 2), (Rzy, 0, 2)],
                     [(Rzy, 0, 2), (family.r1(), 0, 1)],
                     [(0.5 * Rzy2, 0, 2), (None, 0, 1)])


def _q_product(N, Rzq, Rz_q, rz, rq, F0z, F0q):
    """Opposite-argument product R^z(q) R^z(-q) in commutator form."""
    return _site_rel(N, "-++-", [(Rzq, 0, 1), (Rz_q, 1, 2)],
                     [(rz, 0, 2), (rq, 2, 1), (None, 0, 2)],
                     [(rq, 2, 1), (rz, 0, 2), (None, 0, 2)],
                     [(F0z, 0, 2), (None, 0, 2)], [(F0q, 2, 1), (None, 0, 2)])


def _half_cybe(N, rz, rw, rzw, mz, mw, mzw):
    """Half of the classical Yang-Baxter relation; the norm of the identity
    on Mat(N)^3 floors the scale."""
    return _site_rel(N, "-+---", [(rz, 0, 1), (rzw, 0, 2)],
                     [(rw, 1, 2), (rz, 0, 1)], [(rzw, 0, 2), (rw, 1, 2)],
                     [(mz, 0, 1)], [(mw, 1, 2)], [(mzw, 0, 2)],
                     floor=np.sqrt(N ** 3))


def _half_cybe_limit(family, rz, F0z, mz):
    """The w -> 0 limit of the half classical Yang-Baxter relation."""
    r0, m0 = family.r0(), family.m0()
    return _site_rel(family.N, "-++---", [(rz, 0, 1), (rz, 0, 2)],
                     [(r0, 1, 2), (rz, 0, 1)], [(rz, 0, 2), (r0, 1, 2)],
                     [(F0z, 0, 2), (None, 1, 2)], [(mz, 0, 1)], [(m0, 1, 2)],
                     [(mz, 0, 2)], floor=np.sqrt(family.N ** 3))


def _certify_stack(family, hb, et, z, w, x, y):
    """Every sampled identity over the sample arrays hb, ..., y, with one
    family call per kernel and order (F^z as R(z, q, 1), F^0 as r(q, 1))
    over the stack of every argument it is read at: {name: residual per
    sample} and the measured (phi_tilde, E1_tilde).

    Each call's stack is split back into named stacks.  The orders are
    never merged into one call, since a joint call sums the theta series
    to its highest order; within one order a stack of arguments gives each
    row the bits of its own call."""
    N, P = family.N, family._P
    I2 = eye(N * N)
    out = {}
    (A, Ret_w, Ret_zw, Rhe_z, Reh_w, Rhb_zw, Rskew, Runit, Rfourier, Rwz,
     Rzx, Rzy, Rzxy, Rz_x) = family.R(
        np.stack([hb, et, et, hb - et, et - hb, hb, -hb, hb, z, w,
                  z, z, z, z]),
        np.stack([z, w, z + w, z, w, z + w, -z, -z, hb, z,
                  x, y, x + y, -x]))
    xy = np.stack([x, y])
    Fzx, Fzy = family.R(z, xy, 1)
    Rzx2, Rzy2 = family.R(z, xy, 2)
    rz, rx, rw, rzw = family.r(np.stack([z, x, w, z + w]))
    F0x, F0y, F0z = family.r(np.stack([x, y, z]), 1)
    mz, mw, mzw = family.m(np.stack([z, w, z + w]))

    out["aybe"] = _aybe(N, A, Ret_w, Ret_zw, Rhe_z, Reh_w, Rhb_zw)

    # skew-symmetry
    B = -site_product(N, 2, (Rskew, 1, 0))
    out["skew_symmetry"] = sf._rel(*_norms(A - B, A, B))

    # unitarity: product is scalar, scalar equals wp(hb) - wp(z)
    prod = A @ site_product(N, 2, (Runit, 1, 0))
    scal = np.trace(prod, axis1=-2, axis2=-1) / (N * N)
    out["unitarity_scalar"] = sf._rel(
        *_norms(prod - scal[..., None, None] * I2, prod))
    wp = sf.weierstrass_p(family.flavor, np.stack([hb, z]))
    target = wp[0] - wp[1]
    out["unitarity_value"] = sf._rel(scal - target, scal, target, 1.0)

    # Fourier symmetry
    lhs = A @ P
    out["fourier_symmetry"] = sf._rel(*_norms(lhs - Rfourier, lhs, Rfourier))

    # partial traces are scalar; the measured functions are their traces
    tr = np.stack([partial_trace_1(Rwz), partial_trace_2(Rwz),
                   partial_trace_1(rz)])
    phit, e1t = np.trace(tr[::2], axis1=-2, axis2=-1) / N
    scal = np.stack([phit, phit, e1t])[..., None, None] * eye(N)
    res = sf._rel(*_norms(tr - scal, tr))
    out["trace_scalar"], out["trace_scalar_r"] = np.maximum(*res[:2]), res[2]

    # mixed relation between R and its argument derivative, and its
    # boundary degenerations
    out["mixed_rf"] = _mixed_rf(N, Rzx, Fzx, Rzy, Fzy, Rzxy, F0x, F0y)
    out["mixed_rf_limit_y"] = _mixed_rf_limit_y(
        family, Rzx, Fzx, Rzx2, rz, mz, F0x)
    out["mixed_rf_limit_x"] = _mixed_rf_limit_x(
        family, Rzy, Fzy, Rzy2, rz, mz, F0y)

    # opposite-argument product in commutator form, q = x
    out["q_product"] = _q_product(N, Rzx, Rz_x, rz, rx, F0z, F0x)

    # half of the classical Yang-Baxter relation and its w -> 0 limit
    out["half_cybe"] = _half_cybe(N, rz, rw, rzw, mz, mw, mzw)
    out["half_cybe_limit"] = _half_cybe_limit(family, rz, F0z, mz)
    return out, (phit, e1t)


def _draw(rng, family, margin=0.05):
    return sf.sample_point(rng, family.flavor, eps=margin)


def certify(family, n_samples, seed, tol):
    """Residual report for every R-matrix identity used by the construction.

    All samples are drawn first; sf.max_residuals evaluates _certify_stack
    over the tensor.chunks of _sample_entries(N) per sample, one family
    call per kernel and order per chunk.  Returns {"family", "N", "params",
    "properties": {name: {max_residual, samples, tol, pass}}} plus the
    measured trace scalars.
    """
    N = family.N
    check_scale(_sample_entries(N), f"one certification sample at N = {N}")
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

    worst = sf.max_residuals(samples, _sample_entries(N), evaluate)

    # (xi) the linear coefficient of r at 0, measured on a circle about 0
    # (r, and R(hbar, z) in hbar, are singular only on the lattice), equals
    # m(0) P; r(z) and m(z) for (v) come from the circle's r_and_m call
    z = _draw(rng, family)
    radius = sf.LAURENT_RADIUS * sf.shortest_period(family.flavor)
    at_z = []

    def r_on_circle(points):
        r, m = family.r_and_m(np.append(points, z))
        at_z.extend((r[-1], m[-1]))
        return r[:-1]

    got = sf.laurent_coefficients(r_on_circle, 0.0, radius, (1,))[0]
    r1 = family.r1()
    worst["r1_is_m0P"] = float(sf._rel(
        *map(np.linalg.norm, (got - r1, got, r1)), 1.0))

    # (v) classical expansion: the hbar-coefficients -1, 0 and 1 of R(hbar, z)
    worst["classical_expansion"] = float(sf.expansion_residual(
        lambda hb: family.R(hb, z), 0.0, radius,
        {-1: eye(N * N), 0: at_z[0], 1: at_z[1]}, np.linalg.norm))

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
