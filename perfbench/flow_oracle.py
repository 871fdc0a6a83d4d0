"""Independent check of a ``simulate`` trajectory.

``simulate`` integrates the flow with ``model.eom_rhs`` and reports
``"pass": true`` whatever the trajectory does.  This module integrates the
same initial state with its own classical RK4 on ``model.bracket_flow``, the
package's brute-force oracle for the flow (dq = p, dp = -dH/dq,
dS = [S, G^T]), and compares the q, p and tr S^k columns of the trajectory
CSV with it at every monitor row.  A wrong but deterministic right-hand side
or integrator (say, a rewritten ``eom_rhs`` that keeps every trace but runs
the flow at the wrong speed) moves these columns by roughly its relative
error times the displacement, while a correct one agrees to round-off
(about 1e-15 at the seed commit).

It also bounds the drift of the invariants ``simulate`` reports: an
under-resolved or blown-up trajectory (a step too large for the initial
state) is reproduced by any RK4 and so passes the comparison, but its
energy and Casimirs move.
"""

import csv
import io

import numpy as np

from toplax import model as md

# relative to max(|reference|, 1); round-off is about 1e-15
TRAJECTORY_TOL = 1e-9
# largest relative drift of H, tr S^k and tr L^k(z) along the trajectory;
# at dt = 1e-5 the flow workloads drift at most 1.4e-10 over seeds 0-157
# (xxx_flow) and 0-198 (bb_flow)
DRIFT_TOL = 1e-6


def _to_vector(state):
    S = state.spin.assemble().reshape(-1)
    return np.concatenate([np.asarray(state.q), np.asarray(state.p), S])


def _derivative(vec, template):
    M, N = template.M, template.N
    spin = md.spin_from_matrix(vec[2 * M:].reshape(M * N, M * N), M, N)
    state = md.PhaseState(tuple(vec[:M]), tuple(vec[M:2 * M]), spin,
                          template.family)
    dq, dp, dS = md.bracket_flow(state)
    dS_big = np.block([[np.asarray(b) for b in row] for row in dS])
    return np.concatenate([np.asarray(dq), np.asarray(dp),
                           dS_big.reshape(-1)])


def reference_rows(config, dt, steps, every):
    """(q, p, [tr S, tr S^2, tr S^3]) at t = 0 and every ``every`` steps."""
    _, state, _ = md.load_model_config(config)
    M, N = state.M, state.N

    def row(vec):
        S = vec[2 * M:].reshape(M * N, M * N)
        traces = [np.trace(np.linalg.matrix_power(S, k)) for k in (1, 2, 3)]
        return vec[:M], vec[M:2 * M], np.array(traces)

    vec = _to_vector(state)
    rows = [row(vec)]
    for step in range(1, steps + 1):
        k1 = _derivative(vec, state)
        k2 = _derivative(vec + 0.5 * dt * k1, state)
        k3 = _derivative(vec + 0.5 * dt * k2, state)
        k4 = _derivative(vec + dt * k3, state)
        vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % every == 0:
            rows.append(row(vec))
    return rows


def _columns(table, prefix, count):
    return np.array([[complex(float(r[f"re_{prefix}{i}"]),
                              float(r[f"im_{prefix}{i}"]))
                      for i in range(count)] for r in table])


def trajectory_error(config, dt, steps, every, csv_text):
    """Max relative difference between the CSV and the reference rows."""
    ref = reference_rows(config, dt, steps, every)
    table = list(csv.DictReader(io.StringIO(csv_text)))
    if len(table) != len(ref):
        return float("inf")
    M = len(ref[0][0])
    got = (_columns(table, "q", M), _columns(table, "p", M),
           np.array([[complex(float(r[f"re_trS{k}"]), float(r[f"im_trS{k}"]))
                      for k in (1, 2, 3)] for r in table]))
    worst = 0.0
    for col, got_rows in enumerate(got):
        want = np.array([r[col] for r in ref])
        scale = max(float(np.max(np.abs(want))), 1.0)
        worst = max(worst, float(np.max(np.abs(got_rows - want))) / scale)
    return worst


def drift_failure(drift):
    """A message if an invariant in simulate's drift report moved too far."""
    values = {"hamiltonian_drift": drift["hamiltonian_drift"]}
    values.update(drift["casimir_drift"])
    values.update(drift["lax_trace_drift"])
    for key, value in values.items():
        if not value < DRIFT_TOL:
            return f"simulate {key} {value!r} >= {DRIFT_TOL}"
    return None
