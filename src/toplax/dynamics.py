"""Time integration of the interacting-tops flow and conservation monitoring.

integrate(state0, dt, steps, monitor_z, monitor_every) takes classical RK4
steps on the state's own phase vector (PhaseState.vector: q, p, then the
entries of the spin matrix).  Stages 2-4 are phase vectors, not states:
each rate is model.phase_flow of its vector and its F^0 table, and the
stepped state (PhaseState.from_vector) is the one state a step builds.  As
dq = p, a stage's positions are known one stage early, so a step makes two
family calls (model.f0_tables), each giving the F^0 tables of two stages:
stages 2 and 3, then stage 4 and the stepped state, whose table its
monitor row and the next step's first stage read.  Conserved quantities
(the Hamiltonian, spectral invariants tr L^k(z) at the monitor points,
Casimirs tr S^k) are recorded along the trajectory, with their largest
drifts reported.

A monitor row is one complex array under the names TrajectoryRecord.columns
(q0.., p0.., H, trL{k}_z{s}, trS{k}); the CSV header and the keys of the
drift report are those names.  The rows together are checked against the
array budget before the first step; their Lax checks wait until the pending
rows fill a chunk, to be one stack (model.lax_chunks).
"""

import math

import numpy as np

from . import model as md
from . import tensor as tn
from .errors import (ConstraintDrift, ConstraintViolation, Overflow,
                     PoleProximity, ToplaxError)


def _columns(M, n_points):
    """Names of a monitor row's complex values, in CSV order: q_i, p_i, H,
    tr L^k(z_s) and tr S^k for k = 1, 2, 3."""
    return ([f"q{i}" for i in range(M)] + [f"p{i}" for i in range(M)]
            + ["H"]
            + [f"trL{k}_z{s}" for s in range(n_points) for k in (1, 2, 3)]
            + [f"trS{k}" for k in (1, 2, 3)])


class TrajectoryRecord:
    """Monitor rows: at times[r], values[r] holds one complex value per name
    in columns, and lax_residual[r] the largest Lax residual at the monitor
    points (None with no monitor point); failure is the {"step", "error"}
    of a trajectory cut short, else None."""

    def __init__(self, columns=()):
        self.columns, self.times, self.values = list(columns), [], []
        self.lax_residual, self.failure = [], None

    def rows(self):
        return len(self.times)


def _look_ahead(family, *qs):
    """The F^0 tables of the positions qs from one family call, or Nones if
    it meets a pole or an overflow (a ToplaxError, or a warning raised):
    each stage then makes its own table, so that the error or warning comes
    where and as a stage alone gives it, or not if no stage reads it."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return md.f0_tables(family, np.array(qs))
    except (ToplaxError, FloatingPointError):
        return (None,) * len(qs)


def _rk4_step(state, dt):
    """The state one classical RK4 step of dt after state, carrying its F^0
    table.  The first stage is eom_rhs of state, reading its table; stages
    2-4 are phase_flow of their phase vectors.  A stage's rate has dq = p
    of its vector, so k1 fixes the positions of stages 2 and 3, and k3
    those of stage 4 and of the stepped state: two _look_ahead calls, each
    position a slice of the sums that make its vector, so its bits.  A
    stage whose table is None makes its own."""
    fam, M, N, vec, h = state.family, state.M, state.N, state.vector, 0.5 * dt
    k1 = md.eom_rhs(state)
    v2 = vec + h * k1
    q2, p2, _ = md.PhaseState.split(v2, M, N)
    t2, t3 = _look_ahead(fam, q2, state.q + h * p2)
    k2 = md.phase_flow(fam, v2, M, N, t2)
    k3 = md.phase_flow(fam, vec + h * k2, M, N, t3)
    v4, head = vec + dt * k3, k1 + 2.0 * k2 + 2.0 * k3
    q4, p4, _ = md.PhaseState.split(v4, M, N)
    t4, t5 = _look_ahead(fam, q4, state.q + (dt / 6.0) * (
        md.PhaseState.split(head, M, N)[0] + p4))
    k4 = md.phase_flow(fam, v4, M, N, t4)
    return state.from_vector(vec + (dt / 6.0) * (head + k4), t5)


def _power_traces(A):
    """[tr A, tr A^2, tr A^3] of each matrix of the stack A, on a last
    axis."""
    A2 = A @ A
    return np.stack([X.trace(axis1=-2, axis2=-1) for X in (A, A2, A2 @ A)],
                    axis=-1)


def _flush(rec, pending, monitor_z):
    """Append the pending rows to rec, Lax checked, and empty pending."""
    if not pending:
        return
    times, states, energies, flows = zip(*pending)
    traces = np.empty((len(states), len(monitor_z) + 1, 3), dtype=complex)
    residuals = np.empty((len(states), len(monitor_z)))
    traces[:, -1] = _power_traces(np.array([s.spin.matrix for s in states]))
    if monitor_z:
        for rows, points, L, chunk in md.lax_chunks(states, flows, monitor_z):
            traces[:, :-1][rows, points] = _power_traces(L)
            residuals[rows, points] = chunk
    for t, state, energy, row, residual in zip(times, states, energies,
                                                traces, residuals):
        rec.times.append(t)
        rec.values.append(np.concatenate([state.q, state.p, [energy],
                                          row.reshape(-1)]))
        # a NaN residual propagates into the record
        rec.lax_residual.append(float(np.max(residual)) if monitor_z
                                else None)
    pending.clear()


@np.errstate(over="ignore", invalid="ignore")
def integrate(state0, dt, steps, monitor_z=(), monitor_every=10):
    """RK4 trajectory from state0, steps steps of dt, with a monitor row
    (the invariants; the Lax residual at the points monitor_z) at step 0
    and every monitor_every-th step.

    A non-positive or non-finite dt, steps or monitor_every raises
    ValueError, and a record over MAX_ARRAY_BYTES ScaleExceeded, before
    the first step.  Any error at the first row raises.  After it,
    PoleProximity (a pair in the pole margin), Overflow (a kernel value, a
    state or a row's H past floating point), ConstraintViolation (in an RK4
    stage or a row's bracket flow) or ConstraintDrift (|tr S^ii - nu| >
    1e-6, read after every step) ends the record and sets rec.failure =
    {"step", "error"}: a numerical failure of a valid start, whose numpy
    overflow and invalid-value warnings are off.

    A row's H and bracket flow are formed at its step; its Lax check runs
    once the pending rows fill a chunk of M^2 N^4 entries per monitor point
    (one if none) within STACK_BYTES, before a failure is recorded and at
    the end.  An error there raises as one at the first row does: its
    monitor points are every row's, and its pairs' guard is H's.
    """
    if not 0 < dt < math.inf or steps <= 0 or monitor_every <= 0:
        raise ValueError("dt (finite), steps and monitor_every must be "
                         "positive")
    nu = state0.spin.traces()[0]
    rec = TrajectoryRecord(_columns(state0.M, len(monitor_z)))
    rows = steps // monitor_every + 1
    tn.check_scale(rows * len(rec.columns), f"the record of {rows} rows "
                   f"(steps {steps}, monitor_every {monitor_every})")
    per_chunk = tn.chunk_rows(max(len(monitor_z), 1) * state0.M ** 2
                              * state0.N ** 4, tn.STACK_BYTES)
    pending, state = [], state0
    for step in range(steps + 1):
        if len(pending) >= per_chunk:
            _flush(rec, pending, monitor_z)
        try:
            if step:
                state = _rk4_step(state, dt)
                drift = np.max(np.abs(state.spin.traces() - nu))
                # a NaN drift is a blow-up too
                if not drift <= 1e-6:
                    raise ConstraintDrift(
                        f"constraint drift {drift:.3e} at step {step}")
                if not np.isfinite(state.vector).all():
                    raise Overflow(step, "the state at step")
            if step % monitor_every == 0:
                # H and the flow read the state's F^0 table, as does the
                # next step's first stage
                energy = md.hamiltonian(state)
                if not np.isfinite(energy):
                    raise Overflow(step, "H at step")
                pending.append((step * dt, state, energy,
                                md.bracket_flow(state) if monitor_z else None))
        except (ConstraintDrift, ConstraintViolation, Overflow,
                PoleProximity) as exc:
            if not step:
                raise
            rec.failure = {"step": step, "error": str(exc)}
            break
    _flush(rec, pending, monitor_z)
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

