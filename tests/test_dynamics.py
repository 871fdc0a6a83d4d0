"""Unit tests for the RK4 integrator and trajectory records."""

import io
from collections import Counter

import numpy as np
import pytest

from toplax import dynamics as dy
from toplax import model as md
from toplax import rmatrix as rm
from toplax import tensor as tn
from toplax.errors import PoleProximity, ScaleExceeded

import reference as rf


def make_state(key="xxx", M=2, seed=3, **kwargs):
    fam = rm.make_family(key, N=2, **kwargs)
    return md.random_state(fam, M, 1.0, seed=seed)


def csv_text(rec):
    """The CSV that write_csv writes for rec."""
    buf = io.StringIO()
    dy.write_csv(rec, buf)
    return buf.getvalue()


def test_config_validation(monkeypatch):
    # integrate checks its step parameters before the first step
    monkeypatch.setattr(dy, "_rk4_step", None)
    st = make_state()
    for dt, steps, every in [(0.0, 10, 10), (float("nan"), 10, 10),
                             (float("inf"), 10, 10), (0.1, 0, 10),
                             (0.1, 10, 0), (0.1, 10, -1)]:
        with pytest.raises(ValueError) as exc:
            dy.integrate(st, dt, steps, monitor_every=every)
        assert str(exc.value) == \
            "dt (finite), steps and monitor_every must be positive"


def test_record_over_the_budget_raises_before_the_first_step(monkeypatch):
    # steps // monitor_every + 1 rows of 2M + 4 + 3 (points) entries: at
    # M = 2 and one point, 6 rows of 11 fill a budget of 66 entries and a
    # seventh raises ScaleExceeded with no step taken
    steps = []
    step = dy._rk4_step
    monkeypatch.setattr(dy, "_rk4_step",
                        lambda state, dt: steps.append(1) or step(state, dt))
    monkeypatch.setattr(tn, "MAX_ARRAY_BYTES", 66 * 16)
    st = make_state()
    assert dy.integrate(st, 1e-3, 5, (0.4 + 0.2j,), 1).rows() == 6
    del steps[:]
    with pytest.raises(ScaleExceeded) as exc:
        dy.integrate(st, 1e-3, 6, (0.4 + 0.2j,), 1)
    assert str(exc.value).startswith(
        "the record of 7 rows (steps 6, monitor_every 1) has 77 complex "
        "entries")
    assert steps == []


def test_vector_roundtrip():
    # an RK4 step goes through the state's own phase vector
    st = make_state()
    again = st.from_vector(st.vector)
    assert np.array_equal(again.q, st.q) and np.array_equal(again.p, st.p)
    assert np.array_equal(again.spin.assemble(), st.spin.assemble())


def test_single_top_momentum_constant():
    # M = 1: no interactions, so p is frozen and q moves linearly
    st = make_state(M=1)
    rec = dy.integrate(st, dt=1e-2, steps=50, monitor_every=10)
    q0, p0 = rec.columns.index("q0"), rec.columns.index("p0")
    assert abs(rec.values[-1][p0] - rec.values[0][p0]) < 1e-13
    expect = st.q[0] + st.p[0] * rec.times[-1]
    assert abs(rec.values[-1][q0] - expect) < 1e-12


def test_energy_conservation_single_run():
    st = make_state(seed=5)
    rec = dy.integrate(st, dt=1e-3, steps=200, monitor_every=20)
    report = dy.isospectrality_report(rec)
    assert report["hamiltonian_drift"] < 1e-9


def test_linear_casimir_exact():
    # tr S is a linear invariant of the flow: conserved to rounding by RK4
    st = make_state(seed=7)
    rec = dy.integrate(st, dt=5e-3, steps=100, monitor_every=20)
    report = dy.isospectrality_report(rec)
    assert report["casimir_drift"]["trS1"] < 1e-13


def test_quadratic_casimir_drift_order():
    # nonlinear invariants drift at the integrator order: halving dt
    # shrinks the drift by about 2^4
    st = make_state(seed=9)
    drifts = {}
    for dt, steps in ((2e-2, 25), (1e-2, 50)):
        rec = dy.integrate(st, dt=dt, steps=steps, monitor_every=5)
        drifts[dt] = dy.isospectrality_report(rec)["casimir_drift"]["trS2"]
    ratio = drifts[2e-2] / drifts[1e-2]
    assert 8.0 < ratio < 32.0


def test_monitor_traces_recorded():
    st = make_state(seed=11)
    zs = (0.4 + 0.2j, 0.7 - 0.1j)
    rec = dy.integrate(st, dt=1e-3, steps=20, monitor_z=zs, monitor_every=10)
    assert rec.rows() == 3
    traces = [name for name in rec.columns if name.startswith("trL")]
    assert traces == [f"trL{k}_z{s}" for s in (0, 1) for k in (1, 2, 3)]
    assert all(len(row) == len(rec.columns) for row in rec.values)
    assert max(rec.lax_residual) < 1e-11


def test_report_without_monitor_points():
    # no monitor point, no Lax residual: None in every row and the report
    st = make_state(seed=11)
    rec = dy.integrate(st, dt=1e-3, steps=20, monitor_every=10)
    assert rec.rows() == 3 and rec.lax_residual == [None] * 3
    assert dy.isospectrality_report(rec)["max_lax_residual"] is None


def test_report_requires_rows():
    with pytest.raises(ValueError):
        dy.isospectrality_report(dy.TrajectoryRecord())


def test_csv_shape_and_determinism():
    st = make_state(seed=13)
    cfg = dict(dt=1e-3, steps=30, monitor_z=(0.5 + 0.3j,),
               monitor_every=10)
    rec = dy.integrate(st, **cfg)
    text = csv_text(rec)
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
    rec2 = dy.integrate(st, **cfg)
    assert csv_text(rec2) == text


def test_monitor_row_runs_one_bracket_flow(monkeypatch):
    # the flow is z-independent: one evaluation per row, not per point (the
    # row takes it from the F0 table it shares with H, and its Lax check
    # reads it at the flush)
    calls = []
    flow = md.bracket_flow

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(md, "bracket_flow", counted)
    st = make_state(M=3)
    rec = dy.integrate(st, dt=1e-3, steps=4, monitor_every=2,
                       monitor_z=(0.3 + 0.2j, 0.6 + 0.4j, 0.2 + 0.7j))
    assert rec.rows() == 3
    assert len(calls) == 3
    assert max(rec.lax_residual) < 1e-11


@pytest.mark.parametrize("monitor_z", [(), (0.3 + 0.2j, 0.6 + 0.4j)])
def test_monitor_row_one_f0_table(family_calls, monitor_z):
    # H and the bracket flow of a row share one r call at the orders (1, 2)
    # over the pairs
    st = make_state(M=3)
    rec = dy.integrate(st, 1e-3, 4, monitor_z, monitor_every=2)
    rows = [name for name, _, d in family_calls
            if (name, d) == ("r", (1, 2))]
    # the row at step 0 makes the table of the start; each of the 4 steps
    # makes two, of stages 2 and 3 and of stage 4 and the stepped state,
    # which the row at step 2 and the next step's first stage read
    assert rec.rows() == 3
    assert len(rows) == 1 + 2 * 4


def test_simulate_r_calls(family_calls, monkeypatch):
    # the bb flow of the benchmark: 6 steps, a row every 3 and two monitor
    # points make 3 rows and 24 RK4 stages; the row at step 0 makes the
    # start's table and each step two, of stages 2 and 3 and of stage 4
    # and the stepped state, which the next row and step read; the 3 rows
    # take one bracket flow each, and their Lax checks are one stack: one
    # R call over the ordered pairs of the 3 states and one
    # Rz_coefficients call over the 2 points
    flows = []
    flow = md.bracket_flow
    monkeypatch.setattr(md, "bracket_flow",
                        lambda state: flows.append(1) or flow(state))
    st = md.random_state(rm.make_family("bb", N=2, tau=1j), 4, 1.0, seed=0)
    del family_calls[:]
    rec = dy.integrate(st, dt=1e-5, steps=6, monitor_every=3,
                       monitor_z=(0.3 + 0.4j, 0.6 + 0.5j))
    assert rec.rows() == 3 and rec.failure is None
    calls = Counter(name for name, _, _ in family_calls)
    assert (calls["r"], calls["R"], calls["Rz_coefficients"]) == (13, 1, 1)
    assert len(flows) == 3
    (zs, qs), = [args for name, args, _ in family_calls if name == "R"]
    assert zs.shape == (2, 1) and qs.shape == (3 * 12,)


def test_monitor_table_gives_the_same_trajectory(monkeypatch):
    # the first stage after a row reads the table the row read: the same
    # bits as a fresh r call, made here on a copy of the state
    st = make_state(key="bb", M=3, tau=1j)
    cfg = dict(dt=1e-3, steps=4, monitor_every=2,
               monitor_z=(0.3 + 0.2j,))
    shared = csv_text(dy.integrate(st, **cfg))
    step = dy._rk4_step
    monkeypatch.setattr(dy, "_rk4_step", lambda state, dt: step(
        state.from_vector(state.vector), dt))
    assert csv_text(dy.integrate(st, **cfg)) == shared


@pytest.mark.parametrize("key, M, kwargs", [
    ("xxx", 8, {}), ("bb", 4, {"tau": 1j}), ("7v", 3, {"C": 0.7 + 0.2j}),
    ("11v", 3, {}), ("xxz", 3, {})])
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


def test_rk4_step_builds_one_state(monkeypatch):
    # stages 2-4 are phase vectors: the stepped state is the only state a
    # step builds, and it carries the look-ahead table of its positions
    st = make_state(key="bb", M=3, tau=1j)
    st.f0_table
    hold, built = md.PhaseState._hold, []
    monkeypatch.setattr(md.PhaseState, "_hold", lambda self, *args: (
        built.append(self), hold(self, *args)))
    stepped = dy._rk4_step(st, 1e-3)
    assert built == [stepped]
    assert "f0_table" in vars(stepped)


def test_nan_residual_after_first_row_reported(monkeypatch):
    # the report's maximum is np.max, so a NaN residual in a later row
    # shows as it does in the first: the three rows are checked as one
    # stack, whose residual of the second row is made NaN
    chunks = md.lax_chunks
    stacks = []

    def second_row_nan(states, flows, zs):
        stacks.append(len(states))
        for rows, points, L, residuals in chunks(states, flows, zs):
            residuals[1] = float("nan")
            yield rows, points, L, residuals

    monkeypatch.setattr(md, "lax_chunks", second_row_nan)
    st = make_state(seed=3)
    rec = dy.integrate(st, dt=1e-3, steps=20, monitor_z=(0.4 + 0.2j,),
                       monitor_every=10)
    assert rec.rows() == 3 and stacks == [3]
    assert [np.isnan(r) for r in rec.lax_residual] == [False, True, False]
    assert np.isnan(dy.isospectrality_report(rec)["max_lax_residual"])


def _equal_records(got, want):
    """Times, values, residuals and failure equal bit for bit."""
    assert got.columns == want.columns
    assert got.times == want.times
    assert len(got.values) == len(want.values)
    for row, expect in zip(got.values, want.values):
        assert np.array_equal(row.view(np.uint64), expect.view(np.uint64))
    assert got.lax_residual == want.lax_residual
    assert got.failure == want.failure


# a head-on collision (q_12 = 0.1i closing along the imaginary axis) fails
# at step 66, after 7 rows
_HEAD_ON = {"q": (0.1 + 0.3j, 0.1 + 0.2j), "p": (-4j, 4j)}


@pytest.mark.parametrize("budget", ["default", "zero", "three rows"])
@pytest.mark.parametrize("key, M, kwargs, steps", [
    ("bb", 3, {"tau": 1j}, 12), ("xxx", 3, {}, 12),
    ("7v", 3, {"C": 0.7 + 0.2j}, 12), ("bb", 2, {"tau": 1j}, 200)])
def test_stacked_rows_match_rows_checked_alone(monkeypatch, budget, key, M,
                                               kwargs, steps):
    # the monitor rows' Lax checks as stacks over (row, point), flushed
    # when the pending rows fill a chunk, give the record of rows each
    # checked at its step, bit for bit: at the default budget (all rows in
    # one flush), with one row per flush and one point per chunk, and with
    # three rows per flush; the head-on collision (200 steps) fails mid-run
    # and its rows before the failure keep their residuals
    fam = rm.make_family(key, N=2, **kwargs)
    head_on = steps == 200
    st = md.random_state(fam, M, 1.0, seed=9, **(_HEAD_ON if head_on else {}))
    zs = (0.3 + 0.4j, 0.6 + 0.5j)
    cfg = dict(dt=2e-3, steps=steps, monitor_z=zs,
               monitor_every=10 if head_on else 2)
    want = rf.monitor_record(st, **cfg)
    flushes = []
    chunks = md.lax_chunks

    def counted(states, flows, points):
        flushes.append(len(states))
        return chunks(states, flows, points)

    monkeypatch.setattr(md, "lax_chunks", counted)
    if budget != "default":
        monkeypatch.setattr(tn, "STACK_BYTES", 0 if budget == "zero"
                            else 3 * 16 * len(zs) * M * M * 2 ** 4)
    got = dy.integrate(st, **cfg)
    _equal_records(got, want)
    assert got.rows() == 7
    assert (got.failure is not None) == head_on
    assert all(r < 1e-9 for r in got.lax_residual)
    assert flushes == {"default": [7], "zero": [1] * 7,
                       "three rows": [3, 3, 1]}[budget]


def test_monitor_point_in_the_pole_margin_raises(monkeypatch):
    # a monitor point in the pole margin is in it at every row, so the
    # first flush, which comes after all 20 steps, raises the PoleProximity
    # of the point's own Lax check out of integrate, not as a failure
    steps = []
    step = dy._rk4_step
    monkeypatch.setattr(dy, "_rk4_step",
                        lambda state, dt: steps.append(1) or step(state, dt))
    st = make_state(seed=3)
    zs = (0.4 + 0.2j, 1e-9 + 0j)
    with pytest.raises(PoleProximity) as exc:
        dy.integrate(st, dt=1e-3, steps=20, monitor_z=zs, monitor_every=10)
    assert str(exc.value) == \
        "argument (1e-09+0j) too close to a pole (distance 1.000e-09)"
    assert len(steps) == 20
    with pytest.raises(PoleProximity) as alone:
        md.lax_check(st, zs)
    assert str(alone.value) == str(exc.value)


def test_constraint_violation_at_a_row_ends_the_record_there(monkeypatch):
    # tr S^00 pushed 1e-7 off nu at step 20 passes the drift check (1e-6)
    # but not the constraint check of the row's bracket flow (1e-8): the
    # record ends with the rows of steps 0 and 10, checked with their
    # residuals, and the failure names step 20
    calls = []

    def perturbed(step):
        def stepped(state, dt):
            state = step(state, dt)
            calls.append(1)
            if len(calls) == 20:
                vec = state.vector.copy()
                vec[2 * state.M] += 1e-7   # S^00_00, so tr S^00
                state = state.from_vector(vec)
            return state
        return stepped

    monkeypatch.setattr(dy, "_rk4_step", perturbed(dy._rk4_step))
    st = make_state(seed=3)
    cfg = dict(dt=1e-3, steps=40, monitor_z=(0.4 + 0.2j,),
               monitor_every=10)
    rec = dy.integrate(st, **cfg)
    assert rec.failure == {"step": 20, "error": "tr(S^ii) must equal a "
                           "common constant on all sites"}
    assert rec.times == [0.0, 10 * 1e-3] and len(calls) == 20
    assert all(r < 1e-11 for r in rec.lax_residual)
    # the rows checked alone, with the same perturbation of the reference
    # step
    del calls[:]
    monkeypatch.setattr(rf, "rk4_step", perturbed(rf.rk4_step))
    _equal_records(rec, rf.monitor_record(st, **cfg))


class _Guarded:
    """family, with r raising PoleProximity at the first argument that is
    one of the pair differences guarded."""

    def __init__(self, family, guarded):
        self._family, self._guarded = family, guarded

    def __getattr__(self, name):
        return getattr(self._family, name)

    def r(self, z, d=0):
        for x in np.ravel(z).tolist():
            if x in self._guarded:
                raise PoleProximity(x, 0.0)
        return self._family.r(z, d)


@pytest.mark.parametrize("where, step, failure", [
    ("stage 2", 2, 2), ("stage 3", 3, 3), ("stage 4", 6, 6),
    ("stage 4", 7, 7), ("stepped", 2, 3), ("stepped", 3, 3),
    ("stepped", 6, 6), ("stepped", 7, None)])
def test_look_ahead_in_the_pole_margin_fails_as_a_stage_alone(
        monkeypatch, where, step, failure):
    # the positions of one stage, or of the stepped state, of one step put
    # in the guard: the look-ahead call that holds them raises, and the
    # stages make their own tables, so the record (rows, failure step and
    # message) is the reference's, whose every stage makes its own; rows
    # at steps 0, 3 and 6 of 7, so the failure is at a step with a row, at
    # one without (at step 3 for the state stepped at 2, which the first
    # stage of step 3 reads), at the last step, or none, the last state
    # being read by no row
    fam = rm.make_family("xxx", N=2)
    st = md.random_state(fam, 3, 1.0, seed=9)
    cfg = dict(dt=2e-3, steps=7, monitor_z=(0.3 + 0.4j,), monitor_every=3)
    # the positions of the stages of the reference step
    before = st
    for _ in range(step - 1):
        before = rf.rk4_step(before, cfg["dt"])
    seen = []
    eom = md.eom_rhs
    monkeypatch.setattr(md, "eom_rhs", lambda s: seen.append(s.q) or eom(s))
    seen.append(rf.rk4_step(before, cfg["dt"]).q)
    monkeypatch.undo()
    q = seen[{"stage 2": 1, "stage 3": 2, "stage 4": 3, "stepped": 4}[where]]
    i, j = np.triu_indices(3, 1)
    guarded = md.PhaseState(st.q, st.p, st.spin,
                            _Guarded(fam, set((q[i] - q[j]).tolist())))
    got = dy.integrate(guarded, **cfg)
    _equal_records(got, rf.monitor_record(guarded, **cfg))
    if failure is None:
        assert got.failure is None and got.rows() == 3
    else:
        assert got.failure["step"] == failure
        assert got.failure["error"].endswith(
            "too close to a pole (distance 0.000e+00)")
