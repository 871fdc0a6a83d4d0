"""Time integration of the interacting-tops flow and conservation monitoring.

A classical RK4 step acts on the state's own phase vector (PhaseState.vector:
q, p, then the entries of the spin matrix), with the flow of eom_rhs in the
same layout, and returns the stepped state (PhaseState.from_vector).  Conserved
quantities (the Hamiltonian, spectral invariants tr L^k(z) at chosen monitor
points, Casimirs tr S^k) are recorded along the trajectory; conservation is
certified through the order-4 scaling of their drift under step halving
rather than exact preservation.

A monitor row is one complex array under the names TrajectoryRecord.columns
(q0.., p0.., H, trL{k}_z{s}, trS{k}); the CSV header and the keys of the
drift report are those names.
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


def _columns(M, n_points):
    """Names of a monitor row's complex values, in CSV order: q_i, p_i, H,
    tr L^k(z_s) and tr S^k for k = 1, 2, 3."""
    return ([f"q{i}" for i in range(M)] + [f"p{i}" for i in range(M)]
            + ["H"]
            + [f"trL{k}_z{s}" for s in range(n_points) for k in (1, 2, 3)]
            + [f"trS{k}" for k in (1, 2, 3)])


@dataclass
class TrajectoryRecord:
    """Monitor rows: at times[r], values[r] holds one complex value per name
    in columns, and lax_residual[r] the largest Lax residual at the monitor
    points (None with no monitor point)."""
    columns: list = field(default_factory=list)
    times: list = field(default_factory=list)
    values: list = field(default_factory=list)
    lax_residual: list = field(default_factory=list)
    failure: dict = None     # {"step", "error"} of a trajectory cut short

    def rows(self):
        return len(self.times)


def _rk4_step(state, dt):
    """The state one classical RK4 step of dt after state; its first stage
    reads the F^0 table of state, which a monitor row may have read."""
    vec = state.vector
    k1 = md.eom_rhs(state)
    k2 = md.eom_rhs(state.from_vector(vec + 0.5 * dt * k1))
    k3 = md.eom_rhs(state.from_vector(vec + 0.5 * dt * k2))
    k4 = md.eom_rhs(state.from_vector(vec + dt * k3))
    return state.from_vector(vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3
                                                 + k4))


def _power_traces(A):
    """[tr A, tr A^2, tr A^3] of each matrix of the stack A, in one row."""
    A2 = A @ A
    return np.stack([X.trace(axis1=1, axis2=2) for X in (A, A2, A2 @ A)],
                    axis=1).reshape(-1)


def _monitor_row(rec, t, state, monitor_z):
    """Append the monitor row of state at time t to rec.  H and the one
    bracket flow of every monitor point read the state's F^0 table, as does
    the next RK4 step's first stage."""
    energy = md.hamiltonian(state)
    # the power traces of every L(z) and of S come from one stack
    stack = state.spin.matrix[None]
    residual = None
    if monitor_z:
        Ls, residuals = md.lax_check(state, monitor_z)
        stack = np.concatenate([Ls, stack])
        # a NaN residual propagates into the record
        residual = float(np.max(residuals))
    row = np.concatenate([state.q, state.p, [energy], _power_traces(stack)])
    # appended only once every value is in, so a row that raises adds none
    rec.times.append(t)
    rec.values.append(row)
    rec.lax_residual.append(residual)


def integrate(state0, cfg):
    """RK4 trajectory of the Hamiltonian flow with monitoring.

    Any error at the first row raises.  After it, PoleProximity (a pair or
    monitor point in the pole margin), ConstraintViolation (in an RK4 stage)
    or ConstraintDrift (|tr S^ii - nu| > 1e-6, read after every step) ends
    the record and sets rec.failure = {"step", "error"}: a numerical
    failure of a valid start.
    """
    nu = state0.spin.traces()[0]
    rec = TrajectoryRecord(_columns(state0.M, len(cfg.monitor_z)))
    _monitor_row(rec, 0.0, state0, cfg.monitor_z)
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
                _monitor_row(rec, step * cfg.dt, state, cfg.monitor_z)
        except (ConstraintDrift, ConstraintViolation, PoleProximity) as exc:
            rec.failure = {"step": step, "error": str(exc)}
            break
    return rec


def isospectrality_report(rec):
    """Max relative drift of each monitored invariant over the trajectory,
    and the largest Lax residual, None if no point was monitored."""
    if rec.rows() == 0:
        raise ValueError("empty trajectory record")
    values = np.array(rec.values)
    scale = np.maximum(np.max(np.abs(values), axis=0), 1.0)
    spread = np.max(np.abs(values - values[0]), axis=0)
    drift = dict(zip(rec.columns, (spread / scale).tolist()))

    def group(prefix):
        return {k: v for k, v in drift.items() if k.startswith(prefix)}

    return {
        "hamiltonian_drift": drift["H"],
        "casimir_drift": group("trS"),
        "lax_trace_drift": group("trL"),
        # np.max: a NaN residual in any row shows in the report
        "max_lax_residual": None if rec.lax_residual[0] is None
        else float(np.max(rec.lax_residual)),
    }


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(rec, fh):
    """Trajectory CSV: t, re/im of every column of the record (q_i, p_i, H,
    tr L^k(z_s), tr S^k) and the instantaneous Lax residual (an empty field
    on a run with no monitor point); 17 significant digits."""
    header = ["t"] + [f"{part}_{name}" for name in rec.columns
                      for part in ("re", "im")] + ["lax_residual"]
    fh.write(",".join(header) + "\n")
    for t, row, residual in zip(rec.times, rec.values, rec.lax_residual):
        # a complex128 array viewed as float64 interleaves re and im
        cols = [_fmt(x) for x in (t, *row.view(np.float64))]
        cols.append("" if residual is None else _fmt(residual))
        fh.write(",".join(cols) + "\n")


def csv_text(rec):
    buf = io.StringIO()
    write_csv(rec, buf)
    return buf.getvalue()
