"""Time integration of the interacting-tops flow and conservation monitoring.

A classical RK4 step acts on the state's own phase vector (PhaseState.vector:
q, p, then the entries of the spin matrix), with the flow packed in the same
layout, and returns the stepped state (PhaseState.from_vector).  Conserved
quantities (the Hamiltonian, spectral invariants tr L^k(z) at chosen monitor
points, Casimirs tr S^k) are recorded along the trajectory; conservation is
certified through the order-4 scaling of their drift under step halving
rather than exact preservation.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as md
from .errors import ConstraintDrift, ConstraintViolation, PoleProximity


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int
    monitor_z: tuple = ()
    monitor_every: int = 10

    def __post_init__(self):
        if not 0 < self.dt < math.inf or self.steps <= 0 \
                or self.monitor_every <= 0:
            raise ValueError("dt (finite), steps and monitor_every must be "
                             "positive")


@dataclass
class TrajectoryRecord:
    times: list = field(default_factory=list)
    q: list = field(default_factory=list)        # per row: the state's q
    p: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    lax_traces: list = field(default_factory=list)   # per row: {(k, s): value}
    casimirs: list = field(default_factory=list)     # per row: [trS, trS2, trS3]
    lax_residual: list = field(default_factory=list)
    monitor_z: tuple = ()
    failure: dict = None     # {"step", "error"} of a trajectory cut short

    def rows(self):
        return len(self.times)


def _rate(state):
    """The flow eom_rhs at state, as a phase vector."""
    return md.PhaseState.pack(*md.eom_rhs(state))


def _rk4_step(state, dt):
    """The state one classical RK4 step of dt after state."""
    vec = state.vector
    k1 = _rate(state)
    k2 = _rate(state.from_vector(vec + 0.5 * dt * k1))
    k3 = _rate(state.from_vector(vec + 0.5 * dt * k2))
    k4 = _rate(state.from_vector(vec + dt * k3))
    return state.from_vector(vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3
                                                 + k4))


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
    rec.q.append(state.q)
    rec.p.append(state.p)
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
    rec = TrajectoryRecord(monitor_z=tuple(cfg.monitor_z))
    _monitor_row(rec, 0.0, state0, rec.monitor_z)
    state = state0
    for step in range(1, cfg.steps + 1):
        try:
            state = _rk4_step(state, cfg.dt)
            drift = np.max(np.abs(state.spin.traces() - nu))
            # a NaN drift is a blow-up too
            if not drift <= 1e-6:
                raise ConstraintDrift(
                    f"constraint drift {drift:.3e} at step {step}")
            if step % cfg.monitor_every == 0:
                _monitor_row(rec, step * cfg.dt, state, rec.monitor_z)
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
