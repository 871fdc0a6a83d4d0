"""Reference forms that only the tests call.

Each is a direct, unoptimized statement of a quantity the package computes
another way: the RK4 step through the public state constructor and packed
flow tuples, the trajectory record with each monitor row checked on its
own, the Hamiltonian and its q-gradient as loop sums, the dense
dynamical r-matrix and its q-derivative term against
the support planes of the exchange check, the pair and plane contractions
and the site products of operators on Mat(N)^{x k} as np.einsum subscripts
against their batched matrix products, the single-top terms and pair
potentials of the Hamiltonian, the interacting-tops diagonal of the spin
flow for rank-1 spin, the Lax matrix L(z) and its accompanying M(z), the
R-matrix-valued Lax pair, the per-sector scalar functions against
specfun.sector_table, the sector functions from mpmath's theta at 30
digits, the sector labels as (a1, a2) tuples over the columns of
specfun.sector_rows, the sampling draws one point at a time, and small
helpers on the package's types.
"""

import cmath
import functools

import numpy as np

from toplax import dynamics as dy
from toplax import model as md
from toplax import specfun as sf
from toplax.errors import (ConstraintDrift, ConstraintViolation,
                           DegenerateDraw, PoleProximity)
from toplax.tensor import op_contract, permutation_P


# --- phase space -------------------------------------------------------------

def on_constraints(spin, nu, tol=1e-12):
    """Whether tr S^ii = nu on every site, to tol."""
    return bool(np.all(np.abs(spin.traces() - nu) < tol))


def pack(q, p, blocks):
    """The phase vector of (q, p, S), S given as its (M, M, N, N) block
    grid: of a state, or of a flow (dq, dp, dS)."""
    return np.concatenate([q, p, blocks.swapaxes(1, 2).reshape(-1)])


def eom_flow(state):
    """The flow md.eom_rhs of state as (dq, dp, dS), dS as its (M, M, N, N)
    block grid: the form of md.bracket_flow."""
    M, N = state.M, state.N
    dq, dp, dS = md.PhaseState.split(md.eom_rhs(state), M, N)
    return dq, dp, md.as_block_grid(dS, M, N)


def replace(state, q=None, p=None, spin=None):
    """The state with q, p or spin replaced."""
    return md.PhaseState(state.q if q is None else q,
                         state.p if p is None else p,
                         state.spin if spin is None else spin, state.family)


def state_at(vec, template):
    """The state of template's family at the phase vector vec, built by the
    public constructor from slices of vec and spin_from_matrix."""
    M, N = template.M, template.N
    spin = md.spin_from_matrix(vec[2 * M:].reshape(M * N, M * N), M, N)
    return md.PhaseState(vec[:M], vec[M:2 * M], spin, template.family)


def rk4_step(state, dt):
    """One classical RK4 step whose every stage packs the flow tuple of
    eom_flow and rebuilds its state by the public constructor, which makes
    the stage's own F^0 table: the step of dynamics._rk4_step, stage by
    stage with the same arithmetic."""
    def rate(st):
        return pack(*eom_flow(st))

    vec = pack(state.q, state.p, state.spin.blocks)
    k1 = rate(state)
    k2 = rate(state_at(vec + 0.5 * dt * k1, state))
    k3 = rate(state_at(vec + 0.5 * dt * k2, state))
    k4 = rate(state_at(vec + dt * k3, state))
    return state_at(vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                    state)


def monitor_record(state0, dt, steps, monitor_z=(), monitor_every=10):
    """dy.integrate's record with every monitor row complete at its step:
    H, one lax_check of the row's state alone at the monitor points, and
    the power traces of each L(z) (build_L) and of S, appended at once;
    the RK4 steps of rk4_step, each stage making its own F^0 table, and
    the same drift check and failures."""
    nu = state0.spin.traces()[0]
    zs = monitor_z
    rec = dy.TrajectoryRecord(dy._columns(state0.M, len(zs)))

    def row(t, state):
        energy = md.hamiltonian(state)
        residual = float(np.max(md.lax_check(state, zs))) if zs else None
        stack = np.array([build_L(state, z) for z in zs]
                         + [state.spin.matrix])
        rec.times.append(t)
        rec.values.append(np.concatenate([
            state.q, state.p, [energy],
            dy._power_traces(stack).reshape(-1)]))
        rec.lax_residual.append(residual)

    row(0.0, state0)
    state = state0
    for step in range(1, steps + 1):
        try:
            state = rk4_step(state, dt)
            drift = np.max(np.abs(state.spin.traces() - nu))
            if not drift <= 1e-6:
                raise ConstraintDrift(
                    f"constraint drift {drift:.3e} at step {step}")
            if step % monitor_every == 0:
                row(step * dt, state)
        except (ConstraintDrift, ConstraintViolation, PoleProximity) as exc:
            rec.failure = {"step": step, "error": str(exc)}
            break
    return rec


def hamiltonian(state):
    """md.hamiltonian with its sums as loops: (sum p_i^2) / 2 over numbers,
    then each top term, then each pair term i < j, added one at a time."""
    fam, spin = state.family, state.spin
    total = 0.5 * sum(p * p for p in state.p)
    sites = np.arange(spin.M)
    Sd = spin.blocks[sites, sites]
    tops = np.trace(Sd @ op_contract(fam.m0(), Sd), axis1=1, axis2=2)
    for top in tops.tolist():
        total += 0.5 * top
    (i, j), (F0, _) = sf.pairs(spin.M), state.f0_table
    U = md._pair_traces(fam._P @ F0, spin.blocks[i, j], spin.blocks[j, i])
    return complex(sum(U.tolist(), total))


def ham_q_gradient(state):
    """dH/dq of md.bracket_flow with its sums as a loop: each site adds up
    the traces of its pairs in the order of the other site."""
    spin, M = state.spin, state.M
    (i, j), (_, dF0) = sf.pairs(M), state.f0_table
    g = md._pair_traces(state.family._P @ dF0, spin.blocks[i, j],
                        spin.blocks[j, i])
    signed = np.zeros((M, M), dtype=complex)
    signed[i, j] = g
    signed[j, i] = -g
    out = np.zeros(M, dtype=complex)
    for t in range(M):
        out += signed[:, t]
    return out


def potential_U(family, Sij, Sji, q):
    """Interaction potential tr_12(F^0_21(q) P_12 S^ij_1 S^ji_2) =
    tr_12(P_12 F^0_12(q) S^ij_1 S^ji_2), the pair term of md.hamiltonian."""
    W = permutation_P(family.N) @ family.r(q, 1)
    return complex(md._pair_traces(W[None], np.asarray(Sij)[None],
                                   np.asarray(Sji)[None])[0])


def top_H(family, S):
    """Single-top Hamiltonian tr(S J(S)) / 2, with the inverse inertia
    tensor J(S) = tr_2(m_12(0) S_2): the top term of md.hamiltonian."""
    S = np.asarray(S, dtype=complex)
    return 0.5 * complex(np.trace(S @ op_contract(family.m0(), S)))


def potential_V(family, Sii, Sjj, q):
    """Tops potential tr_12(F^0_12(q) S^ii_1 S^jj_2); equals potential_U
    for rank-1 spin."""
    return complex(np.trace(family.r(q, 1) @ kron(Sii, Sjj)))


def eom_commutator_diagonal(state):
    """The diagonal blocks of dS in the interacting-tops form
    [S^ii, J(S^ii) + sum_{k != i} tr_2(F^0_12(q_ik) S^kk_2)], with one
    family call per ordered pair: those of md.eom_rhs for rank-1 spin."""
    fam, spin = state.family, state.spin
    out = []
    for i in range(spin.M):
        Sii = spin.blocks[i, i]
        V = op_contract(fam.m0(), Sii)
        for k in range(spin.M):
            if k != i:
                V = V + op_contract(fam.r(state.q[i] - state.q[k], 1),
                                    spin.blocks[k, k])
        out.append(Sii @ V - V @ Sii)
    return np.array(out)


def build_L(state, z):
    """Lax matrix: L^{ij} = d_ij (p_i 1 + tr_2(S^ii_2 r_12(z))) +
    (1 - d_ij) tr_2(S^ij_2 R^z_12(q_ij) P_12), the L(z) of md.lax_check."""
    R = md._pair_tables(state.family, state.q, z)[0]
    return md._plus_diagonal(md._contract(R, state.spin.matrix), state.p)


def build_M(state, z):
    """Accompanying matrix: M^{ij} = d_ij tr_2(S^ii_2 m_12(z)) +
    (1 - d_ij) tr_2(S^ij_2 F^z_12(q_ij) P_12), the M(z) of md.lax_check."""
    return md._contract(md._pair_tables(state.family, state.q, z)[1],
                        state.spin.matrix)


def cm_rmx_lax(q, p, nu, family, z):
    """R-matrix-valued Lax pair of the spinless Calogero-Moser model on
    Mat(M) x Mat(N)^{x M}: returns (L, Mbar) with
    L_ab = d_ab p_a 1 + nu (1 - d_ab) R^z_ab(q_a - q_b) and
    Mbar = M - nu 1_M x F0_total."""
    return md._cm_rmx(q, p, nu, family, z)[:2]


# --- sampling, one point at a time -------------------------------------------

def sample_point(rng, flavor, eps=1e-2):
    """specfun.sample_point as two scalar draws a point, redrawn until it
    clears eps, at most 1000 times."""
    for _ in range(1000):
        if flavor.kind == sf.ELLIPTIC:
            z = rng.random() + rng.random() * flavor.tau
        else:
            z = complex(rng.random(), rng.random() - 0.25)
        if sf.pole_distance(flavor, z) > eps:
            return z
    raise DegenerateDraw("sampling failed to clear the pole margin")


def sample_tuple(rng, flavor, count, eps=1e-2, extra=()):
    """specfun.sample_tuple as count sample_point draws a tuple, up to
    1000 tuples."""
    for _ in range(1000):
        pts = [sample_point(rng, flavor, eps) for _ in range(count)]
        p = np.array(pts)
        i, j = sf.pairs(count)
        combos = np.concatenate([p, p[i] + p[j], p[i] - p[j],
                                 np.reshape(extra, (-1, count)) @ p])
        if np.all(sf.pole_distance(flavor, combos) > eps):
            return pts
    raise DegenerateDraw("sampling failed to clear the pole margin")


def random_positions(family, M, rng, margin=0.05):
    """model.random_positions as M sample_point draws a tuple, every
    ordered pairwise difference checked, up to 2000 tuples."""
    for _ in range(2000):
        q = [sample_point(rng, family.flavor, eps=margin) for _ in range(M)]
        diff = np.subtract.outer(q, q)[~np.eye(M, dtype=bool)]
        if np.all(family.pole_distance(diff) > margin):
            return tuple(q)
    raise DegenerateDraw("failed to draw pole-avoiding positions")


# --- the dense dynamical r-matrix --------------------------------------------

def exchange_blocks(T):
    """sum_ij E_ij x E_ji x T[i, j] P_12 on Mat(M)^2 x Mat(N)^2, primed
    factors first, for a pair table T."""
    M, N = T.shape[0], T.shape[2]
    out = np.zeros((M, M, N, N) * 2, dtype=complex)
    i, j = np.indices((M, M))
    out[i, j, :, :, j, i] = T.swapaxes(4, 5)
    dim = (M * N) ** 2
    return out.reshape(dim, dim)


def classical_r_big(state, z, w):
    """The dynamical r-matrix on Mat(M)^2 x Mat(N)^2, primed factors first:
    sum_i E_ii x E_ii x r_12(z-w) + sum_{i!=j} E_ij x E_ji x R^{z-w}(q_ij) P,
    as a dense array."""
    return exchange_blocks(md._pair_tables(state.family, state.q, z - w)[0])


def r_big_q_derivative_sum(state, z, w):
    """sum_k tr(S^kk) d/dq_k of the dynamical r-matrix, which places
    (tr S^ii - tr S^jj) F^{z-w}(q_ij) P, as a dense array."""
    return exchange_blocks(md._trace_weight(state)
                           * md._pair_tables(state.family, state.q, z - w)[1])


# --- pair, plane and site products as einsum subscripts --------------------

# block (i, j) of the contraction of a pair table T (or of each table of a
# stack) with a spin S: tr_2(S^{ij}_2 T[i, j] P_12), entry [i, a, j, b] =
# sum_kl T[i, j]_{(a,k),(l,b)} S^{ij}_{lk}, with S in its (M, N, M, N) layout
PAIR = "...ijaklb,iljk->...iajb"


def contract(T, S):
    """md._contract(T, S) as one einsum over the pair table or stack T."""
    M, N = T.shape[-6], T.shape[-4]
    out = np.einsum(PAIR, T, S.reshape(M, N, M, N))
    return out.reshape(T.shape[:-6] + (M * N, M * N))


def eom_terms(state):
    """(K, dp, size) of md.eom_rhs as einsums over its F^0 and F^0' pair
    tables: K with J(S^ii) = tr_2(m_12(0) S^ii_2) on its diagonal blocks,
    dp_i = -sum_k tr_12(P F^0'(q_ik) S^ik_1 S^ki_2), and size_i the sum of
    the magnitudes of the terms of dp_i, the scale of its rounding."""
    fam, M, N = state.family, state.M, state.N
    F = np.zeros((M, M, N, N, N, N), dtype=complex)
    D = np.zeros_like(F)
    i, j = sf.pairs(M)
    F0, dF0 = fam.r(state.q[i] - state.q[j], (1, 2))
    F[i, j] = F0.reshape(-1, N, N, N, N)
    D[i, j] = dF0.reshape(-1, N, N, N, N)
    F = F + F.transpose(1, 0, 3, 2, 5, 4)
    D = D - D.transpose(1, 0, 3, 2, 5, 4)
    S4 = state.spin.matrix.reshape(M, N, M, N)
    sites = np.arange(M)
    K = np.einsum(PAIR, F, S4)
    J = np.einsum("akbl,ilik->iab", fam.m0().reshape(N, N, N, N), S4)
    K[sites, :, sites, :] += J
    dp = "ikcabd,ibka,kdic->i"
    return (K.reshape(M * N, M * N), -np.einsum(dp, D, S4, S4),
            np.einsum(dp, abs(D), abs(S4), abs(S4)))


def exchange_products(state, R):
    """The four plane products of md._exchange_rhs as einsums, from the R
    tables of a stack of pairs at (z, w, z - w, w - z): plane 0 and plane 1
    of [L(z) x 1, r(z, w)], then of [1 x L(w), r_{2'1'21}(w, z)], before
    their overlaps fold."""
    M, N = state.M, state.N
    Lz, Lw = (md._plus_diagonal(md._contract(R[:, k], state.spin.matrix),
                                state.p).reshape(-1, M, N, M, N)
              for k in (0, 1))
    G = R[:, 2].swapaxes(-2, -1)
    H = R[:, 3].swapaxes(-2, -1).transpose(0, 2, 1, 4, 3, 6, 5)
    return (np.einsum("nskacyd,nkyjb->nskjacbd", G, Lz),
            np.einsum("nialy,nlsycbd->nsilacbd", -Lz, G),
            np.einsum("nkcjy,nsjaybd->nskjacbd", Lw, H),
            np.einsum("nisacby,niyld->nsilacbd", H, -Lw))


def site_product(N, k, *factors):
    """The product of factors on Mat(N)^{x k}, the oracle of tn.embed and
    tn.legs_product, as one np.einsum over the legs of its factors: each
    run of sites that no factor names is one identity leg, a factor
    (T, s, t) contracts the column letters of its sites' legs and gives them
    new ones, and a swap (None, s, t) exchanges two column letters."""
    named = {int(site) for _, *sites in factors for site in sites}
    sizes, leg = [], {}
    for site in range(k):
        if site in named or site - 1 in named or not sizes:
            leg[site] = len(sizes)
            sizes.append(N)
        else:
            sizes[-1] *= N
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    rows = [next(letters) for _ in sizes]
    cols, specs, operands = list(rows), [], []
    for T, s, t in factors:
        a, b = leg[int(s)], leg[int(t)]
        if T is None:
            cols[a], cols[b] = cols[b], cols[a]
            continue
        new = next(letters) + next(letters)
        specs.append("..." + cols[a] + cols[b] + new)
        operands.append(np.reshape(T, np.shape(T)[:-2] + (N,) * 4))
        cols[a], cols[b] = new
    # a row leg that reaches the columns untouched, or only swapped, is
    # joined to its column by an identity
    for i, c in enumerate(cols):
        if c in rows:
            cols[i] = next(letters)
            specs.append(c + cols[i])
            operands.append(np.eye(sizes[rows.index(c)], dtype=complex))
    out = np.einsum(",".join(specs) + "->..." + "".join(rows + cols),
                    *operands)
    return out.reshape(out.shape[:-2 * len(sizes)] + (N ** k,) * 2)


# --- sector functions --------------------------------------------------------
# A sector label is a tuple a = (a1, a2) in Z_N x Z_N.

def sectors(tau, N):
    """[(a, omega_a)] over the columns of specfun.sector_rows, with a as a
    tuple of ints."""
    a1, a2, omega, _ = sf.sector_rows(tau, N)
    return [((int(x.real), int(y.real)), w)
            for x, y, w in zip(a1, a2, omega.tolist())]


def neg(a, N):
    """The sector label -a, reduced mod N."""
    return (-a[0]) % N, (-a[1]) % N


def add(a, b, N):
    """The sector label a + b, reduced mod N."""
    return (a[0] + b[0]) % N, (a[1] + b[1]) % N


def kappa(a, b, N):
    """Structure phase in T_a T_b = kappa(a, b) T_{a+b}, for sector labels
    a, b."""
    return cmath.exp(1j * cmath.pi * (b[0] * a[1] - b[1] * a[0]) / N)


# --- matrices ----------------------------------------------------------------

def kron(*mats):
    """Kronecker product of one or more matrices, leftmost factor outermost."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def commutator(A, B):
    """[A, B] = AB - BA."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return A @ B - B @ A


def sector_phi(flavor, a, N, z, u):
    """phi_a(z, omega_a + u) = exp(2*pi*i*a2*z/N) * phi(z, omega_a + u)."""
    z = complex(z)
    arg = (a[0] + a[1] * flavor.tau) / N + complex(u)
    return cmath.exp(sf.TWO_PI_I * a[1] * z / N) \
        * sf.kronecker_phi(flavor, z, arg)


def sector_f(flavor, a, N, z, u):
    """f_a(z, omega_a + u) = exp(2*pi*i*a2*z/N) * f(z, omega_a + u)."""
    z = complex(z)
    arg = (a[0] + a[1] * flavor.tau) / N + complex(u)
    return (cmath.exp(sf.TWO_PI_I * a[1] * z / N)
            * sf.phi_derivative_f(flavor, z, arg))


@functools.lru_cache(maxsize=None)
def mp_theta(x, tau, upto):
    """[theta, theta', ..., theta^(upto)] at x (a complex or an mpmath
    number) on modulus tau, as mpmath numbers at 30 digits: theta^(d)(x) =
    -pi^d jtheta(1, pi x, exp(pi i tau), d)."""
    import mpmath
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        return [-mpmath.pi ** d * mpmath.jtheta(1, mpmath.pi * mpmath.mpc(x),
                                                q, derivative=d)
                for d in range(upto + 1)]


def mp_sector(a, N, z, w, tau):
    """(phi_a, phi_a', phi_a'', f_a) at the complex numbers (z, w) on
    modulus tau, from mp_theta: phi_a(z, w) = exp(t z) theta'(0)
    theta(z + w) / (theta(z) theta(w)) with t = 2*pi*i*a2/N, its first two
    z-derivatives by the quotient rule on U / A, U = exp(t z) theta(z + w)
    and A = theta(z), and f_a its w-derivative.  Nothing divides by
    theta(z + w), whose zeros are zeros of phi_a."""
    import mpmath
    z, w, tau = complex(z), complex(w), complex(tau)
    with mpmath.workdps(30):
        A, B = mp_theta(z, tau, 2), mp_theta(w, tau, 1)
        # z + w exactly, not rounded to a float
        C = mp_theta(mpmath.mpc(z) + mpmath.mpc(w), tau, 2)
        c = mp_theta(0j, tau, 1)[1]
        t = 2j * mpmath.pi * a[1] / N
        e = mpmath.exp(t * z)
        U = [e * C[0], e * (t * C[0] + C[1]),
             e * (t * t * C[0] + 2 * t * C[1] + C[2])]
        k = c / B[0]
        values = (k * U[0] / A[0],
                  k * (U[1] * A[0] - U[0] * A[1]) / A[0] ** 2,
                  k * (U[2] * A[0] ** 2 - 2 * U[1] * A[1] * A[0]
                       - U[0] * A[2] * A[0] + 2 * U[0] * A[1] ** 2) / A[0] ** 3,
                  e * c / A[0] * (C[1] * B[0] - C[0] * B[1]) / B[0] ** 2)
        return [complex(v) for v in values]


def spin_general(M, N, nu, seed):
    """md.spin_general block by block: each block's real and imaginary
    draws in row-major order, then each diagonal block shifted by
    (nu - tr) / N times the identity."""
    rng = np.random.default_rng(seed)
    blocks = [[rng.uniform(-1, 1, (N, N)) + 1j * rng.uniform(-1, 1, (N, N))
               for _ in range(M)] for _ in range(M)]
    for i in range(M):
        blocks[i][i] = blocks[i][i] + \
            ((nu - np.trace(blocks[i][i])) / N) * np.eye(N)
    return md.SpinConfig(M, N, blocks)


def sin_basis_T(a1, a2, N):
    """The finite Heisenberg element exp(pi*i*a1*a2/N) Q^a1 L^a2 of one
    integer label, from its own matrix powers."""
    Q = np.diag([cmath.exp(2j * cmath.pi * (k + 1) / N) for k in range(N)])
    Lam = np.roll(np.eye(N, dtype=complex), 1, axis=1)
    phase = cmath.exp(1j * cmath.pi * a1 * a2 / N)
    return phase * np.linalg.matrix_power(Q, a1 % N) @ \
        np.linalg.matrix_power(Lam, a2 % N)
