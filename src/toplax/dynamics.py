"""Time integration of the interacting-tops flow and conservation monitoring.

A classical RK4 step acts on the full complex phase vector (q, p, all spin
entries).  Conserved quantities (the Hamiltonian, spectral invariants
tr L^k(z) at chosen monitor points, Casimirs tr S^k) are recorded along the
trajectory; conservation is certified through the order-4 scaling of their
drift under step halving rather than exact preservation.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as md
from .errors import ConstraintDrift, ConstraintViolation, PoleProximity
from .tensor import block_grid


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int
    monitor_z: tuple = ()
    monitor_every: int = 10
    scheme: str = "RK4"

    def __post_init__(self):
        if not 0 < self.dt < math.inf or self.steps <= 0 \
                or self.monitor_every <= 0:
            raise ValueError("dt (finite), steps and monitor_every must be "
                             "positive")
        if self.scheme != "RK4":
            raise ValueError("only the RK4 scheme is supported")


@dataclass
class TrajectoryRecord:
    times: list = field(default_factory=list)
    q: list = field(default_factory=list)
    p: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    lax_traces: list = field(default_factory=list)   # per row: {(k, s): value}
    casimirs: list = field(default_factory=list)     # per row: [trS, trS2, trS3]
    lax_residual: list = field(default_factory=list)
    monitor_z: tuple = ()
    failure: dict = None     # {"step", "error"} of a trajectory cut short

    def rows(self):
        return len(self.times)


def state_to_vector(state):
    """Flat phase vector (q, p, entries of the NM x NM spin matrix)."""
    return np.concatenate([np.asarray(state.q, dtype=complex),
                           np.asarray(state.p, dtype=complex),
                           state.spin.matrix.reshape(-1)])


def vector_to_state(vec, template):
    M, N = template.M, template.N
    S = vec[2 * M:].reshape(N * M, N * M)
    # no rank-1 generators: the template's need not generate these spins
    spin = md.SpinConfig(M, N, block_grid(S, M, N))
    return md.PhaseState(tuple(vec[:M]), tuple(vec[M:2 * M]), spin,
                         template.family)


def _derivative(vec, template):
    dq, dp, dS = md.eom_rhs(vector_to_state(vec, template))
    # dS is the block view of one NM x NM matrix, so this is a flat view
    return np.concatenate([dq, dp, dS.swapaxes(1, 2).reshape(-1)])


def _site_traces(vec, M, N):
    """tr S^ii of every site, from the spin part of a phase vector."""
    S = vec[2 * M:].reshape(N * M, N * M)
    return np.einsum("iikk->i", block_grid(S, M, N))


def _rk4_step(vec, dt, template):
    k1 = _derivative(vec, template)
    k2 = _derivative(vec + 0.5 * dt * k1, template)
    k3 = _derivative(vec + 0.5 * dt * k2, template)
    k4 = _derivative(vec + dt * k3, template)
    return vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _monitor_row(rec, t, state, monitor_z):
    # H and the bracket flow read one F0 table; the flow does not depend on
    # z, so one evaluation serves every point
    table = md._f0_table(state)
    energy = md._hamiltonian(state, table)
    traces = {}
    residuals = []
    flow = md._bracket_flow(state, table) if monitor_z else None
    for s, z in enumerate(monitor_z):
        L, residual = md._lax_check(state, z, flow)
        Lk = L
        for k in (1, 2, 3):
            traces[(k, s)] = complex(np.trace(Lk))
            Lk = Lk @ L
        residuals.append(residual)
    S = state.spin.assemble()
    Sk = S
    cas = []
    for k in (1, 2, 3):
        cas.append(complex(np.trace(Sk)))
        Sk = Sk @ S
    # appended only once every value is in, so a row that raises adds none
    rec.times.append(t)
    rec.q.append(tuple(state.q))
    rec.p.append(tuple(state.p))
    rec.energy.append(energy)
    rec.lax_traces.append(traces)
    rec.casimirs.append(cas)
    # a NaN residual propagates into the record
    rec.lax_residual.append(float(np.max(residuals, initial=0.0)))


def integrate(state0, cfg):
    """RK4 trajectory of the Hamiltonian flow with monitoring.

    Any error at the first row raises.  After it, PoleProximity (a pair or
    monitor point in the pole margin), ConstraintViolation (in an RK4 stage)
    or ConstraintDrift (|tr S^ii - nu| > 1e-6, read after every step) ends
    the record and sets rec.failure = {"step", "error"}: a numerical
    failure of a valid start.
    """
    nu = state0.spin.traces()[0]
    M, N = state0.M, state0.N
    template = state0
    vec = state_to_vector(state0)
    rec = TrajectoryRecord(monitor_z=tuple(cfg.monitor_z))
    _monitor_row(rec, 0.0, state0, rec.monitor_z)
    for step in range(1, cfg.steps + 1):
        try:
            vec = _rk4_step(vec, cfg.dt, template)
            drift = np.max(np.abs(_site_traces(vec, M, N) - nu))
            # a NaN drift is a blow-up too
            if not drift <= 1e-6:
                raise ConstraintDrift(
                    f"constraint drift {drift:.3e} at step {step}")
            if step % cfg.monitor_every == 0:
                _monitor_row(rec, step * cfg.dt,
                             vector_to_state(vec, template), rec.monitor_z)
        except (ConstraintDrift, ConstraintViolation, PoleProximity) as exc:
            rec.failure = {"step": step, "error": str(exc)}
            break
    return rec


def isospectrality_report(rec):
    """Max relative drift of each monitored invariant over the trajectory."""
    if rec.rows() == 0:
        raise ValueError("empty trajectory record")

    def drift(values):
        values = np.asarray(values)
        scale = max(float(np.max(np.abs(values))), 1.0)
        return float(np.max(np.abs(values - values[0]))) / scale

    report = {
        "hamiltonian_drift": drift(rec.energy),
        "casimir_drift": {f"trS{k}": drift([c[k - 1] for c in rec.casimirs])
                          for k in (1, 2, 3)},
        "lax_trace_drift": {},
        "max_lax_residual": float(max(rec.lax_residual)),
    }
    for s in range(len(rec.monitor_z)):
        for k in (1, 2, 3):
            key = f"trL{k}_z{s}"
            report["lax_trace_drift"][key] = drift(
                [row[(k, s)] for row in rec.lax_traces])
    return report


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(rec, fh):
    """Trajectory CSV: t, re/im of q_i, p_i, H, tr L^k(z_s), tr S^k, and the
    instantaneous Lax residual; 17 significant digits."""
    M = len(rec.q[0]) if rec.rows() else 0
    header = ["t"]
    for i in range(M):
        header += [f"re_q{i}", f"im_q{i}"]
    for i in range(M):
        header += [f"re_p{i}", f"im_p{i}"]
    header += ["re_H", "im_H"]
    for s in range(len(rec.monitor_z)):
        for k in (1, 2, 3):
            header += [f"re_trL{k}_z{s}", f"im_trL{k}_z{s}"]
    for k in (1, 2, 3):
        header += [f"re_trS{k}", f"im_trS{k}"]
    header.append("lax_residual")
    fh.write(",".join(header) + "\n")
    for row in range(rec.rows()):
        cols = [_fmt(rec.times[row])]
        for v in rec.q[row]:
            cols += [_fmt(v.real), _fmt(v.imag)]
        for v in rec.p[row]:
            cols += [_fmt(v.real), _fmt(v.imag)]
        cols += [_fmt(rec.energy[row].real), _fmt(rec.energy[row].imag)]
        for s in range(len(rec.monitor_z)):
            for k in (1, 2, 3):
                v = rec.lax_traces[row][(k, s)]
                cols += [_fmt(v.real), _fmt(v.imag)]
        for v in rec.casimirs[row]:
            cols += [_fmt(v.real), _fmt(v.imag)]
        cols.append(_fmt(rec.lax_residual[row]))
        fh.write(",".join(cols) + "\n")


def csv_text(rec):
    buf = io.StringIO()
    write_csv(rec, buf)
    return buf.getvalue()
