"""Unit tests for the RK4 integrator and trajectory records."""

import numpy as np
import pytest

from toplax import dynamics as dy
from toplax import model as md
from toplax import rmatrix as rm

import reference as rf


def make_state(key="xxx", M=2, seed=3, **kwargs):
    fam = rm.make_family(key, N=2, **kwargs)
    return md.random_state(fam, M, 1.0, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        dy.IntegratorConfig(dt=0.0, steps=10)
    with pytest.raises(ValueError):
        dy.IntegratorConfig(dt=0.1, steps=0)
    with pytest.raises(ValueError):
        dy.IntegratorConfig(dt=0.1, steps=10, monitor_every=0)


def test_vector_roundtrip():
    # an RK4 step goes through the state's own phase vector
    st = make_state()
    again = st.from_vector(st.vector)
    assert np.array_equal(again.q, st.q) and np.array_equal(again.p, st.p)
    assert np.array_equal(again.spin.assemble(), st.spin.assemble())


def test_single_top_momentum_constant():
    # M = 1: no interactions, so p is frozen and q moves linearly
    st = make_state(M=1)
    cfg = dy.IntegratorConfig(dt=1e-2, steps=50, monitor_every=10)
    rec = dy.integrate(st, cfg)
    q0, p0 = rec.columns.index("q0"), rec.columns.index("p0")
    assert abs(rec.values[-1][p0] - rec.values[0][p0]) < 1e-13
    expect = st.q[0] + st.p[0] * rec.times[-1]
    assert abs(rec.values[-1][q0] - expect) < 1e-12


def test_energy_conservation_single_run():
    st = make_state(seed=5)
    cfg = dy.IntegratorConfig(dt=1e-3, steps=200, monitor_every=20)
    rec = dy.integrate(st, cfg)
    report = dy.isospectrality_report(rec)
    assert report["hamiltonian_drift"] < 1e-9


def test_linear_casimir_exact():
    # tr S is a linear invariant of the flow: conserved to rounding by RK4
    st = make_state(seed=7)
    cfg = dy.IntegratorConfig(dt=5e-3, steps=100, monitor_every=20)
    rec = dy.integrate(st, cfg)
    report = dy.isospectrality_report(rec)
    assert report["casimir_drift"]["trS1"] < 1e-13


def test_quadratic_casimir_drift_order():
    # nonlinear invariants drift at the integrator order: halving dt
    # shrinks the drift by about 2^4
    st = make_state(seed=9)
    drifts = {}
    for dt, steps in ((2e-2, 25), (1e-2, 50)):
        cfg = dy.IntegratorConfig(dt=dt, steps=steps, monitor_every=5)
        rec = dy.integrate(st, cfg)
        drifts[dt] = dy.isospectrality_report(rec)["casimir_drift"]["trS2"]
    ratio = drifts[2e-2] / drifts[1e-2]
    assert 8.0 < ratio < 32.0


def test_monitor_traces_recorded():
    st = make_state(seed=11)
    zs = (0.4 + 0.2j, 0.7 - 0.1j)
    cfg = dy.IntegratorConfig(dt=1e-3, steps=20, monitor_z=zs,
                              monitor_every=10)
    rec = dy.integrate(st, cfg)
    assert rec.rows() == 3
    traces = [name for name in rec.columns if name.startswith("trL")]
    assert traces == [f"trL{k}_z{s}" for s in (0, 1) for k in (1, 2, 3)]
    assert all(len(row) == len(rec.columns) for row in rec.values)
    assert max(rec.lax_residual) < 1e-11


def test_report_without_monitor_points():
    # no monitor point, no Lax residual: None in every row and the report
    st = make_state(seed=11)
    rec = dy.integrate(st, dy.IntegratorConfig(dt=1e-3, steps=20,
                                               monitor_every=10))
    assert rec.rows() == 3 and rec.lax_residual == [None] * 3
    assert dy.isospectrality_report(rec)["max_lax_residual"] is None


def test_report_requires_rows():
    with pytest.raises(ValueError):
        dy.isospectrality_report(dy.TrajectoryRecord())


def test_csv_shape_and_determinism():
    st = make_state(seed=13)
    cfg = dy.IntegratorConfig(dt=1e-3, steps=30, monitor_z=(0.5 + 0.3j,),
                              monitor_every=10)
    rec = dy.integrate(st, cfg)
    text = dy.csv_text(rec)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "t", "re_q0", "im_q0", "re_q1", "im_q1", "re_p0", "im_p0",
        "re_p1", "im_p1", "re_H", "im_H", "re_trL1_z0", "im_trL1_z0",
        "re_trL2_z0", "im_trL2_z0", "re_trL3_z0", "im_trL3_z0",
        "re_trS1", "im_trS1", "re_trS2", "im_trS2", "re_trS3", "im_trS3",
        "lax_residual"]
    assert len(lines) == 1 + rec.rows()
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)
    # a re-run from the same state is byte-identical
    rec2 = dy.integrate(st, cfg)
    assert dy.csv_text(rec2) == text


def test_monitor_row_runs_one_bracket_flow(monkeypatch):
    # the flow is z-independent: one evaluation per row, not per point (the
    # row takes it from the F0 table it shares with H, via lax_check)
    calls = []
    flow = md.bracket_flow

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(md, "bracket_flow", counted)
    st = make_state(M=3)
    cfg = dy.IntegratorConfig(dt=1e-3, steps=4, monitor_every=2,
                              monitor_z=(0.3 + 0.2j, 0.6 + 0.4j, 0.2 + 0.7j))
    rec = dy.integrate(st, cfg)
    assert rec.rows() == 3
    assert len(calls) == 3
    assert max(rec.lax_residual) < 1e-11


@pytest.mark.parametrize("monitor_z", [(), (0.3 + 0.2j, 0.6 + 0.4j)])
def test_monitor_row_one_f0_table(family_calls, monitor_z):
    # H and the bracket flow of a row share one r call at the orders (1, 2)
    # over the pairs
    st = make_state(M=3)
    cfg = dy.IntegratorConfig(dt=1e-3, steps=4, monitor_every=2,
                              monitor_z=monitor_z)
    rec = dy.integrate(st, cfg)
    rows = [name for name, _, d in family_calls
            if (name, d) == ("r", (1, 2))]
    # the RK4 stages make theirs inside eom_rhs, 4 per step, except the
    # first stage after a row (at steps 0 and 2), which reads its table
    assert rec.rows() == 3
    assert len(rows) == rec.rows() + 4 * cfg.steps - 2


def test_simulate_r_calls(family_calls):
    # the bb flow of the benchmark: 6 steps, a row every 3 and two monitor
    # points make 3 rows and 24 RK4 stages, one r call each, less the
    # first stages of steps 1 and 4, which read the table of the row before
    # them (27 calls before it was shared)
    st = md.random_state(rm.make_family("bb", N=2, tau=1j), 4, 1.0, seed=0)
    cfg = dy.IntegratorConfig(dt=1e-5, steps=6, monitor_every=3,
                              monitor_z=(0.3 + 0.4j, 0.6 + 0.5j))
    del family_calls[:]
    rec = dy.integrate(st, cfg)
    assert rec.rows() == 3 and rec.failure is None
    assert sum(name == "r" for name, _, _ in family_calls) == 25


def test_monitor_table_gives_the_same_trajectory(monkeypatch):
    # the first stage after a row reads the table the row read: the same
    # bits as a fresh r call, made here on a copy of the state
    st = make_state(key="bb", M=3, tau=1j)
    cfg = dy.IntegratorConfig(dt=1e-3, steps=4, monitor_every=2,
                              monitor_z=(0.3 + 0.2j,))
    shared = dy.csv_text(dy.integrate(st, cfg))
    step = dy._rk4_step
    monkeypatch.setattr(dy, "_rk4_step", lambda state, dt: step(
        state.from_vector(state.vector), dt))
    assert dy.csv_text(dy.integrate(st, cfg)) == shared


@pytest.mark.parametrize("key, M, kwargs", [
    ("xxx", 8, {}), ("bb", 4, {"tau": 1j}), ("7v", 3, {"C": 0.7 + 0.2j})])
def test_rk4_step_matches_packed_stages(key, M, kwargs):
    # the flat flow and the one-vector state run the products of the packed
    # stages in the same order: the trajectory keeps every bit
    st = make_state(key=key, M=M, seed=17, **kwargs)
    want = st
    for _ in range(4):
        st = dy._rk4_step(st, 1e-3)
        want = rf.rk4_step(want, 1e-3)
        assert np.array_equal(st.vector.view(np.uint64),
                              want.vector.view(np.uint64))


def test_nan_residual_after_first_row_reported(monkeypatch):
    # the report's maximum is np.max, so a NaN residual in a later row
    # shows as it does in the first
    check = md.lax_check
    calls = []

    def second_nan(*args):
        L, residual = check(*args)
        calls.append(1)
        return L, (float("nan") if len(calls) == 2 else residual)

    monkeypatch.setattr(md, "lax_check", second_nan)
    st = make_state(seed=3)
    cfg = dy.IntegratorConfig(dt=1e-3, steps=20, monitor_z=(0.4 + 0.2j,),
                              monitor_every=10)
    rec = dy.integrate(st, cfg)
    assert rec.rows() == 3
    assert np.isnan(dy.isospectrality_report(rec)["max_lax_residual"])
