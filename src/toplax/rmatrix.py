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
from .tensor import (check_scale, diagonal_plan, embed, eye, legs_plan,
                     legs_product, norms_reader, permutation_P, rows_product,
                     sin_basis, partial_trace_1, partial_trace_2, stack_norms)


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
# a term being the factors of one product on Mat(N)^{x 3} (tensor.legs_plan)
# left to right: name@st is the kernel stack of that name in _certify_stack
# on the sites s and t, and P@st swaps them.
_IDENTITIES = {
    # associative Yang-Baxter relation R12 R23 = R13 R12b + R23b R13b
    "aybe": "A@01 Ret_w@12 - Ret_zw@02 Rhe_z@01 - Reh_w@12 Rhb_zw@02",
    # mixed relation between R^z and its argument derivative F^z
    "mixed_rf": "Rzx@01 Fzy@12 - Fzx@01 Rzy@12 - F0y@12 Rzxy@02"
                " + Rzxy@02 F0x@01",
    # its y -> 0 degeneration, R^z(q) = r(z) P + q m(z) P + O(q^2)
    "mixed_rf_limit_y": "Rzx@01 mz@12 P@12 - Fzx@01 rz@12 P@12"
                        " - r1@12 Rzx@02 + Rzx@02 F0x@01 + P@12 Rzx2/2@02",
    # its x -> 0 degeneration
    "mixed_rf_limit_x": "rz@01 P@01 Fzy@12 - mz@01 P@01 Rzy@12"
                        " - F0y@12 Rzy@02 + Rzy@02 r1@01 - Rzy2/2@02 P@01",
    # opposite-argument product R^z(q) R^z(-q) in commutator form, q = x
    "q_product": "Rzx@01 Rz_x@12 - rz@02 rx@21 P@02 + rx@21 rz@02 P@02"
                 " + F0z@02 P@02 - F0x@21 P@02",
    # half of the classical Yang-Baxter relation
    "half_cybe": "rz@01 rzw@02 - rw@12 rz@01 + rzw@02 rw@12 - mz@01"
                 " - mw@12 - mzw@02",
    # its w -> 0 limit
    "half_cybe_limit": "rz@01 rz@02 - r0@12 rz@01 + rz@02 r0@12"
                       " + F0z@02 P@12 - mz@01 - m0@12 - mz@02",
}


def _norms(*mats):
    """The norms of each stack's m x m matrices, one m, in one call."""
    sizes = [T.size // T.shape[-1] ** 2 for T in mats]
    norms = stack_norms(np.concatenate([T.reshape(size, -1)
                                        for T, size in zip(mats, sizes)]))
    return [norms[end - size:end].reshape(T.shape[:-2])
            for T, size, end in zip(mats, sizes, np.cumsum(sizes))]


@functools.lru_cache(maxsize=64)
def _rel_plan(N, identity):
    """_site_rel's walk of identity, written as in _IDENTITIES: per term
    the ufunc that adds it into the residual (None for the first, which is
    written), its operators' names and their legs_plan (stacks with one
    batch axis) or diagonal_plan."""
    steps, add, factors = [], None, []
    for token in identity.split() + ["+"]:
        if token not in ("+", "-"):
            name, st = token.split("@")
            factors.append((name, int(st[0]), int(st[1])))
            continue
        ops = [k for k, _, _ in factors if k != "P"]
        pattern = tuple((None if k == "P" else 1, s, t) for k, s, t in factors)
        plan = (legs_plan(N, pattern) if len(ops) == 2
                else diagonal_plan(pattern))
        steps.append((add, ops, plan))
        add, factors = {"+": np.add, "-": np.subtract}[token], []
    return steps


def _site_rel(N, identity, kernels, norms, floor=0.0):
    """sf.rel of an identity's first term plus or minus each later term
    over the norm of each term and floor, one per sample; kernels maps its
    operators' names to (n, N^2, N^2) stacks or (1, N^2, N^2) matrices,
    norms those of its lone terms (_lone) to their norms.  _rel_plan
    resolves the walk once.  A product of two operators is formed in the
    scratch half of one buffer, normed there in its memory order when the
    next is due (the last with the residual) and added into the C-ordered
    residual in the other half.  A lone term T (x) 1 is added on the
    identity leg's diagonal (diagonal_plan) with the bits of adding its
    stack; its norm is sqrt(N) ||T||."""
    steps = _rel_plan(N, identity)
    n = max(len(kernels[k]) for _, ops, _ in steps for k in ops)
    stacks = np.empty((2 * n,) + (N,) * 6, dtype=complex)
    scratch, residual = stacks[:n], stacks[n:]
    scratch_norms, scale, lone, formed = norms_reader(scratch), [], [], False
    for add, ops, plan in steps:
        if len(ops) == 1:
            lone.append(norms[ops[0]])
            X = kernels[ops[0]].reshape((-1,) + (N,) * 4 + (1,))
            if add is None:
                residual[...] = 0.0
            target = np.einsum(plan, residual)
        else:
            if formed:
                scale.append(scratch_norms())
            X = legs_product(N, plan, kernels[ops[0]], kernels[ops[1]],
                             out=scratch.reshape(n, plan[1][0], -1))
            formed, target = True, residual
        if add is None:
            target[...] = X
        else:
            add(target, X, out=target)
    if lone:
        # sqrt(N) times the largest norm is the largest of sqrt(N) times each
        scale.append(math.sqrt(N) * functools.reduce(np.maximum, lone))
    # the residual's norms, after the last product's if any, in one call
    last = stack_norms(stacks[n * (not formed):].reshape(-1, N ** 6))
    scale += [last[:n]] * formed
    # the norms are not negative: their largest is sf.rel's scale
    return sf.rel(last[-n:], functools.reduce(np.maximum, scale, floor))


@functools.lru_cache(maxsize=16)
def _lone(N):
    """The names of the kernels that the identities' lone terms read."""
    return sorted({ops[0] for identity in _IDENTITIES.values()
                   for _, ops, _ in _rel_plan(N, identity) if len(ops) == 1})


def _sample_entries(N):
    """Complex entries one certification sample holds at once: 2 (N^3 x
    N^3) three-site stacks (the scratch and residual halves of _site_rel's
    buffer; a lone-operator term holds no N^6 stack, and no norm a copy of
    one), the 28 N^2 x N^2 kernel stacks of _certify_stack (14 R, 2 F^z,
    2 of its derivative, 4 r, 3 F^0, 3 m), and twice the theta series of
    its largest family call, bb's R at order 0 over 14 pairs, counted as
    1 + 2 N^2 arguments of 2K terms each, K as at MIN_IM_TAU (the other
    families sum no series): a bound, as the series sums 3 arguments per
    pair (z, u and z + u) into 2 N^2 entries each.  CERTIFY_BYTES holds
    108 samples at N = 2, 45 at N = 3, 10 at N = 5 and 5 at N = 6."""
    return 2 * N ** 6 + 28 * N ** 4 \
        + 2 * 14 * (1 + 2 * N * N) * sf.series_terms(3)


def _certify_stack(family, hb, et, z, w, x, y):
    """Every sampled identity over the sample arrays hb, ..., y, with one
    family call per kernel and order (F^z as R(z, q, 1), F^0 as r(q, 1))
    over the stack of every argument it is read at: {name: residual per
    sample} and the measured (phi_tilde, E1_tilde).

    Each call's stack is split back into the named stacks the identities
    read (_IDENTITIES).  The orders are never merged into one call, since
    a joint call sums the theta series to its highest order; within one
    order a stack of arguments gives each row the bits of its own call."""
    N, P = family.N, family._P
    xy = np.stack([x, y])
    k = {}
    for names, stack in (
            ("A Ret_w Ret_zw Rhe_z Reh_w Rhb_zw Rskew Runit Rfourier Rwz Rzx "
             "Rzy Rzxy Rz_x", family.R(
                 np.stack([hb, et, et, hb - et, et - hb, hb, -hb, hb, z, w,
                           z, z, z, z]),
                 np.stack([z, w, z + w, z, w, z + w, -z, -z, hb, z,
                           x, y, x + y, -x]))),
            ("Fzx Fzy", family.R(z, xy, 1)),
            ("Rzx2/2 Rzy2/2", 0.5 * family.R(z, xy, 2)),
            ("rz rx rw rzw", family.r(np.stack([z, x, w, z + w]))),
            ("F0x F0y F0z", family.r(np.stack([x, y, z]), 1)),
            ("mz mw mzw", family.m(np.stack([z, w, z + w])))):
        k.update(zip(names.split(), stack))
    k.update(r0=family.r0()[None], r1=family.r1()[None],
             m0=family.m0()[None])
    A, Rfourier, Rwz = k["A"], k["Rfourier"], k["Rwz"]

    # skew-symmetry, unitarity (the product is the scalar wp(hb) - wp(z))
    # and Fourier symmetry, normed with the kernels of the lone terms
    B = -embed(k["Rskew"], 1, 0, N, 2)
    prod = A @ embed(k["Runit"], 1, 0, N, 2)
    scal = np.trace(prod, axis1=-2, axis2=-1) / (N * N)
    lhs = A @ P
    norms = _norms(A - B, A, B, prod - scal[..., None, None] * eye(N * N),
                   prod, lhs - Rfourier, lhs, Rfourier, *map(k.get, _lone(N)))
    out = {"skew_symmetry": sf.rel(*norms[:3]),
           "unitarity_scalar": sf.rel(*norms[3:5]),
           "fourier_symmetry": sf.rel(*norms[5:8])}
    wp = sf.weierstrass_p(family.flavor, np.stack([hb, z]))
    target = wp[0] - wp[1]
    out["unitarity_value"] = sf.rel(scal - target, scal, target, 1.0)

    # partial traces are scalar; the measured functions are their traces
    tr = np.stack([partial_trace_1(Rwz), partial_trace_2(Rwz),
                   partial_trace_1(k["rz"])])
    phit, e1t = np.trace(tr[::2], axis1=-2, axis2=-1) / N
    scal = np.stack([phit, phit, e1t])[..., None, None] * eye(N)
    res = sf.rel(*_norms(tr - scal, tr))
    out["trace_scalar"], out["trace_scalar_r"] = np.maximum(*res[:2]), res[2]

    # the three-site identities; the norm of the identity on Mat(N)^3
    # floors the scale of the classical Yang-Baxter halves
    lone = dict(zip(_lone(N), norms[8:]))
    for name, identity in _IDENTITIES.items():
        out[name] = _site_rel(N, identity, k, lone, np.sqrt(N ** 3)
                              if name.startswith("half_cybe") else 0.0)
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
    worst["r1_is_m0P"] = float(sf.rel(
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
