"""End-to-end tests of the command-line interface."""

import ast
import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from toplax import cli
from toplax import tensor as tn


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    cfg = {"family": "xxx", "N": 2, "M": 2, "nu": [1.0, 0.0],
           "spin_mode": "general", "seed": 9}
    cfg.update(overrides)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_certify_functions_rational(capsys):
    code, out, _ = run_capture(capsys, [
        "certify-functions", "--flavor", "rational",
        "--samples", "20", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["command"] == "certify-functions"
    assert "tool_version" in report and "seed" in report


def test_certify_functions_deterministic(capsys):
    argv = ["certify-functions", "--flavor", "trig",
            "--samples", "10", "--seed", "4"]
    _, out1, _ = run_capture(capsys, argv)
    _, out2, _ = run_capture(capsys, argv)
    assert out1 == out2


def test_certify_rmatrix(capsys):
    code, out, _ = run_capture(capsys, [
        "certify-rmatrix", "--family", "11v", "--samples", "5",
        "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert all(p["pass"] for p in report["properties"].values())


@pytest.mark.parametrize("argv", [
    ["certify-functions", "--flavor", "elliptic", "--tau", "0,1"],
    ["certify-rmatrix", "--family", "bb", "--n", "2", "--tau", "0.1,0.07"],
])
def test_expansion_oracles_pass_at_default_tol(capsys, argv):
    # the finite-difference oracles read 3.9e-8 on f_closed_form and 6.3e-5
    # on r1_is_m0P here; the contour coefficients of the same functions
    # agree with the closed forms to rounding
    code, out, _ = run_capture(capsys, argv + ["--seed", "0"])
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("tau", ["0,30", "0,50"])
def test_certify_functions_far_up_exits_1(capsys, tau):
    # at these allowed moduli some identities miss their tolerance (exit
    # 1), but f's Laurent circle about 0 stays outside the pole guard: no
    # PoleProximity configuration error (exit 2)
    code, out, err = run_capture(capsys, [
        "certify-functions", "--flavor", "elliptic", "--tau", tau,
        "--seed", "0"])
    assert code == 1
    assert "pole" not in err.lower()
    report = json.loads(out)
    assert report["pass"] is False
    assert report["identities"]["f_at_zero"] < 1e-8


def test_certify_rmatrix_bad_family(capsys):
    code, _, _ = run_capture(capsys, [
        "certify-rmatrix", "--family", "unknown"])
    assert code == 2


def test_check_lax(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run_capture(capsys, [
        "check-lax", "--config", path, "--z-samples", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["max_lax_residual"] < 1e-9


def test_check_exchange(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run_capture(capsys, [
        "check-exchange", "--config", path, "--pairs", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["max_exchange_residual"] < 1e-9


def test_check_exchange_at_32_sites(tmp_path, capsys):
    # the exchange relation lives on two M^3 N^4 planes, 2^20 entries here
    path = write_config(tmp_path, M=32, seed=0)
    code, out, _ = run_capture(capsys, [
        "check-exchange", "--config", path, "--pairs", "1"])
    assert code == 0
    assert json.loads(out)["max_exchange_residual"] < 1e-9


def test_check_cm_rmx(capsys):
    code, out, _ = run_capture(capsys, [
        "check-cm-rmx", "--family", "xxx", "--n", "2", "--m", "2",
        "--nu", "1,0", "--seed", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["cm_rmx_residual"] < 1e-9


@pytest.mark.parametrize("m", [32, 33])
def test_check_cm_rmx_long_chain(capsys, m):
    # the chain sites no operator names are joined into identity legs, so a
    # chain of N = 1 sites takes a few einsum letters and array axes, not
    # two per site (M = 33 would need 66 axes, over numpy's 64); the M = 32
    # residual is the one a kron embedding with one leg per site gives
    code, out, err = run_capture(capsys, [
        "check-cm-rmx", "--family", "xxx", "--n", "1", "--m", str(m),
        "--seed", "0"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["pass"] is True
    assert report["config_echo"]["M"] == m
    if m == 32:
        assert report["cm_rmx_residual"] == 4.33301876550609e-16
    assert report["cm_rmx_residual"] < 1e-9


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, nu=[[1.0, 0.0], [2.0, 0.0]])
    code, _, err = run_capture(capsys, ["check-lax", "--config", bad])
    assert code == 2
    assert "tr(S^ii)" in err
    code, _, err = run_capture(capsys, [
        "check-lax", "--config", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in err


def test_scalar_nu_exits_2(tmp_path, capsys):
    bad = write_config(tmp_path, nu=1.0)
    code, _, err = run_capture(capsys, ["check-lax", "--config", bad])
    assert code == 2
    assert "'nu'" in err


def test_simulate_leaves_the_cell(tmp_path, capsys):
    # p = +-8i drives Im(q_12) across a dozen periods of the lattice; the
    # kernels are evaluated on the reduced arguments, so the run neither
    # overflows nor loses the Lax equation (theta alone passes 1e308 near
    # Im z = 15 on tau = i)
    path = write_config(tmp_path, family="bb", tau=[0.0, 1.0],
                        q0=[[0.1, 0.3], [0.5, 0.2]],
                        p0=[[0.0, 8.0], [0.0, -8.0]])
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "1e-3", "--steps", "1000",
        "--monitor-z", "0.3,0.4", "--out", str(out_csv)])
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == 101
    assert report["drift"]["max_lax_residual"] < 1e-9
    rows = [line.split(",") for line in out_csv.read_text().splitlines()]
    head = rows[0]
    gap = [float(r[head.index("im_q0")]) - float(r[head.index("im_q1")])
           for r in rows[1:]]
    assert max(gap) > 12.0


def test_simulate_numerical_failure_exits_1(tmp_path, capsys):
    # a head-on collision (q_12 = 0.1i closing along the imaginary axis)
    # at a step too long for it: at step 66 a stage rate throws the next
    # stage's tr(S^ii) spread to about 1e-6 or more, far over the stage
    # check's 1e-8, after steps whose spread and drift stay under 1e-9, so
    # the stage check fires first whatever the last digits of the flow.
    # It is a failure of the trajectory, not of its input
    path = write_config(tmp_path, family="bb", tau=[0.0, 1.0],
                        q0=[[0.1, 0.3], [0.1, 0.2]],
                        p0=[[0.0, -4.0], [0.0, 4.0]])
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "2e-3", "--steps", "200",
        "--out", str(out_csv)])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    step = report["failure"]["step"]
    assert 0 < step <= 200
    assert "tr(S^ii)" in report["failure"]["error"]
    # the record ends at the last monitor row before the failing step
    assert report["rows"] == (step - 1) // 10 + 1
    assert len(out_csv.read_text().splitlines()) == report["rows"] + 1


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_simulate_overflow_is_a_recorded_failure(tmp_path, capsys, seed):
    # an xxz blow-up at dt 0.5 leaves the constraint surface or takes H
    # past floating point: the closed forms stay finite at any real part,
    # and the first step whose state or H is not finite ends the record,
    # with no numpy warning on the way, not a pass with a NaN drift
    path = write_config(tmp_path, family="xxz", M=3, nu=[1.0, 0.2],
                        seed=seed)
    code, out, err = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "0.5", "--steps", "40",
        "--monitor-every", "3", "--out", str(tmp_path / "traj.csv")])
    report = json.loads(out)
    assert (code, err, report["pass"]) == (1, "", False)
    assert report["failure"]["step"] > 0


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
def test_simulate_kernel_overflow_is_a_recorded_failure(tmp_path, capsys,
                                                        seed):
    # a 7v step of dt 5 takes a pair difference past the range of the
    # corner C sinh z: the step fails with Overflow, recorded as any
    # numerical failure, not a traceback
    path = write_config(tmp_path, family="7v", C=[1.0, 0.0], M=3,
                        nu=[1.0, 0.2], seed=seed)
    code, out, err = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "5", "--steps", "40",
        "--monitor-every", "3", "--out", str(tmp_path / "traj.csv")])
    report = json.loads(out)
    assert (code, err, report["pass"]) == (1, "", False)
    assert report["failure"]["step"] > 0
    assert "not representable" in report["failure"]["error"]


@pytest.mark.parametrize("overrides", [
    {"family": "7v", "C": [1.0, 0.0], "q0": [[0, 0], [800, 0]]},
    {"family": "11v", "q0": [[0, 0], [1e300, 0]]},
    {"family": "xxx", "q0": [[0, 0], [1e300, 0]]}])
def test_overflow_at_the_start_state_exits_2(tmp_path, capsys, overrides):
    # a start state whose kernel values overflow is a configuration the
    # family cannot represent: one error line, exit 2
    path = write_config(tmp_path, **overrides)
    code, out, err = run_capture(capsys, ["check-lax", "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not representable" in err


@pytest.mark.parametrize("argv", [
    ["check-lax"], ["check-exchange"],
    ["simulate", "--dt", "1e-4", "--steps", "20", "--monitor-every", "10",
     "--monitor-z", "0.3,0.2"]])
def test_sites_half_a_period_apart_pass(tmp_path, capsys, argv):
    # q_1 - q_2 = -(1 + tau)/2 = -omega_(1,1) at N = 2, tau = i: there
    # phi_(1,1)(q_12, omega_(1,1)) has a zero, and r(q_12) is finite
    path = write_config(tmp_path, family="bb", tau=[0.0, 1.0],
                        q0=[[0.1, 0.2], [0.6, 0.7]])
    argv = argv + ["--config", path]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "traj.csv")]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_monitor_point_at_half_a_period_passes(tmp_path, capsys):
    # z = (1 + i)/2 = omega_(1,1): z + omega_(1,1) is the lattice point
    # 1 + tau, a zero of phi_(1,1), so the Lax check there is finite
    path = write_config(tmp_path, family="bb", M=4, tau=[0.0, 1.0], seed=0)
    code, out, _ = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "1e-5", "--steps", "6",
        "--monitor-every", "3", "--monitor-z", "0.5,0.5",
        "--out", str(tmp_path / "traj.csv")])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["drift"]["max_lax_residual"] < 1e-12


@pytest.mark.parametrize("field", ["N", "M", "seed"])
def test_fractional_size_exits_2(tmp_path, capsys, field):
    path = write_config(tmp_path, **{field: 2.7})
    code, out, err = run_capture(capsys, ["check-lax", "--config", path])
    assert code == 2
    assert out == ""
    assert f"'{field}'" in err
    # an integral float is an integer
    path = write_config(tmp_path, **{field: 2.0})
    code, _, _ = run_capture(capsys, ["check-lax", "--config", path])
    assert code == 0


@pytest.mark.parametrize("argv, overrides", [
    (["check-lax"], {"N": 3000}),
    (["check-lax"], {"N": 1, "M": 10 ** 5}),
    (["check-exchange", "--pairs", "1"], {"N": 8, "M": 16}),
    (["certify-rmatrix", "--family", "xxx", "--n", "3000"], None),
    (["check-cm-rmx", "--family", "xxx", "--n", "200"], None),
    (["certify-rmatrix", "--family", "xxx", "--n", "17"], None),
    (["certify-rmatrix", "--family", "xxx", "--n", "15"], None),
])
def test_oversized_arrays_exit_2(tmp_path, capsys, argv, overrides):
    # the largest array a command would allocate (N^4 per matrix, M^2 N^4
    # per pair table, 2 N^6 for the three-site matrices of one certify
    # sample and its kernel stacks and series, 2 M^3 N^4 for the exchange
    # relation) is checked against the byte budget before anything is
    # allocated
    if overrides is not None:
        argv = argv + ["--config", write_config(tmp_path, **overrides)]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "array budget" in err


def test_sampling_failure_exits_2(tmp_path, capsys):
    # 80 positions cannot keep pairwise distance 0.05 in the unit box
    path = write_config(tmp_path, N=1, M=80)
    code, _, err = run_capture(capsys, ["check-lax", "--config", path])
    assert code == 2
    assert "pole-avoiding" in err


@pytest.mark.parametrize("argv, flag", [
    (["check-lax", "--z-samples", "0"], "--z-samples"),
    (["check-exchange", "--pairs", "0"], "--pairs"),
    (["certify-rmatrix", "--family", "xxx", "--samples", "0"], "--samples"),
    (["certify-functions", "--flavor", "rational", "--samples", "-1"],
     "--samples"),
])
def test_empty_count_exits_2(tmp_path, capsys, argv, flag):
    if argv[0].startswith("check"):
        argv = argv + ["--config", write_config(tmp_path)]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be at least 1" in err


@pytest.mark.parametrize("argv, flag", [
    (["certify-rmatrix", "--family", "xxx", "--n", "0"], "--n"),
    (["check-cm-rmx", "--family", "xxx", "--n", "0"], "--n"),
    (["check-cm-rmx", "--family", "xxx", "--m", "-2"], "--m"),
])
def test_size_below_one_exits_2(capsys, argv, flag):
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be at least 1" in err


@pytest.mark.parametrize("argv, overrides, message", [
    (["check-cm-rmx", "--family", "xxx", "--nu", "nan,0"], None,
     "argument --nu: must be finite"),
    (["certify-rmatrix", "--family", "7v", "--c", "nan,0"], None,
     "argument --c: must be finite"),
    (["certify-rmatrix", "--family", "bb", "--tau", "0,inf"], None,
     "argument --tau: must be finite"),
    (["certify-functions", "--flavor", "elliptic", "--tau", "nan,1"], None,
     "argument --tau: must be finite"),
    # past MAX_IM_TAU the kernels would overflow (np.exp in phi from
    # Im tau ~ 57, math.exp in the series weights from 452)
    (["certify-functions", "--flavor", "elliptic", "--tau", "0,453"], None,
     "Im(tau) = 453 outside"),
    (["certify-rmatrix", "--family", "bb", "--tau", "0,453"], None,
     "Im(tau) = 453 outside"),
    (["certify-functions", "--flavor", "elliptic", "--tau", "0,1e300"], None,
     "Im(tau) = 1e+300 outside"),
    (["check-lax"], {"family": "bb", "tau": [0, 1e300]},
     "Im(tau) = 1e+300 outside"),
    # past MAX_RE_TAU the identities lose their digits, and from about
    # 1e308 the reduction of points to the cell overflows
    (["certify-functions", "--flavor", "elliptic", "--tau", "2e5,1"], None,
     "Re(tau) = 2e+05 outside [-100000, 100000]"),
    (["certify-functions", "--flavor", "elliptic", "--tau", "1e308,1"],
     None, "Re(tau) = 1e+308 outside"),
    (["certify-rmatrix", "--family", "bb", "--tau", "1e308,1"], None,
     "Re(tau) = 1e+308 outside"),
    (["check-cm-rmx", "--family", "bb", "--tau=-1e308,1"], None,
     "Re(tau) = -1e+308 outside"),
    (["check-lax"], {"family": "bb", "tau": [1e308, 1]},
     "Re(tau) = 1e+308 outside"),
    (["check-exchange"], {"family": "bb", "tau": [1e308, 1]},
     "Re(tau) = 1e+308 outside"),
    # the configuration fails before the CSV is opened
    (["simulate", "--out", "unwritten.csv"],
     {"family": "bb", "tau": [1e308, 1]}, "Re(tau) = 1e+308 outside"),
])
def test_complex_argument_out_of_range_exits_2(tmp_path, capsys, argv,
                                               overrides, message):
    if overrides is not None:
        argv = argv + ["--config", write_config(tmp_path, **overrides)]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, overrides", [
    (["check-cm-rmx", "--family", "11v", "--n", "3"], None),
    (["certify-rmatrix", "--family", "7v", "--n", "1", "--c", "0.7,0.2"],
     None),
    (["check-lax"], {"family": "xxz", "N": 3}),
])
def test_fixed_n_family_at_other_n_exits_2(tmp_path, capsys, argv,
                                           overrides):
    # 11v, xxz and 7v are N = 2 matrices: another N is a usage error, not
    # a run at N = 2 that echoes the N asked for
    if overrides is not None:
        argv = argv + ["--config", write_config(tmp_path, **overrides)]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "N = 2 only" in err


def test_nan_residual_fails(tmp_path, capsys, monkeypatch):
    nan = float("nan")
    path = write_config(tmp_path)
    # check-lax: a NaN after a finite residual still decides the verdict
    monkeypatch.setattr(cli.md, "lax_check", lambda state, zs: np.array(
        [0.0] * (len(zs) - 1) + [nan]))
    code, out, _ = run_capture(capsys, ["check-lax", "--config", path])
    assert code == 1
    assert json.loads(out)["pass"] is False
    monkeypatch.setattr(cli.md, "exchange_residual",
                        lambda state, z, w: np.array([0.0, nan, 0.0]))
    code, out, _ = run_capture(capsys, [
        "check-exchange", "--config", path, "--pairs", "3"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def _strict_loads(text):
    """json.loads that rejects NaN and the infinities."""
    def refuse(name):
        raise ValueError(f"bare {name} in a report")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_residual_is_null(tmp_path, capsys, monkeypatch):
    # a NaN kernel value makes a NaN Lax residual: the report is strict
    # JSON, with null for it, and fails
    monkeypatch.setattr(cli.rm.YangXXX, "Rz_coefficients", lambda self, z: (
        np.full(np.shape(z) + (4, 4), complex("nan")),) * 2)
    path = write_config(tmp_path)
    code, out, _ = run_capture(capsys, ["check-lax", "--config", path])
    report = _strict_loads(out)
    assert (code, report["pass"]) == (1, False)
    assert report["max_lax_residual"] is None


def test_nan_certification_fails(capsys, monkeypatch):
    # a NaN kernel makes NaN residuals: the records keep them and fail
    nan = float("nan")
    monkeypatch.setattr(cli.sf, "kronecker_phi", lambda flavor, eta, z:
                        np.full(np.broadcast(eta, z).shape, complex(nan, nan)))
    code, out, _ = run_capture(capsys, [
        "certify-functions", "--flavor", "rational", "--samples", "3"])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    # the report is strict JSON: a NaN residual is written as null
    assert report["identities"]["symmetry"] is None

    # a NaN in one closed-form coefficient is kept by the max over orders
    monkeypatch.setattr(cli.sf, "kappa_const", lambda flavor: complex(nan))
    code, out, _ = run_capture(capsys, [
        "certify-functions", "--flavor", "rational", "--samples", "3"])
    assert code == 1
    assert json.loads(out)["identities"]["e1_local_expansion"] is None

    monkeypatch.setattr(cli.rm.YangXXX, "R", lambda self, hbar, z, dz=0:
                        np.full(np.broadcast(hbar, z).shape + (4, 4), nan))
    code, out, _ = run_capture(capsys, [
        "certify-rmatrix", "--family", "xxx", "--samples", "3"])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    aybe = report["properties"]["aybe"]
    assert aybe["max_residual"] is None and aybe["pass"] is False


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_simulate_non_finite_dt_exits_2(tmp_path, capsys, dt):
    path = write_config(tmp_path)
    out_csv = tmp_path / "traj.csv"
    code, out, err = run_capture(capsys, [
        "simulate", "--config", path, "--dt", dt, "--steps", "10",
        "--out", str(out_csv)])
    assert code == 2
    assert out == ""
    assert "dt" in err
    assert not out_csv.exists()


def test_simulate_nan_drift_exits_1(tmp_path, capsys, monkeypatch):
    # a step that returns NaN is a blow-up, caught by the drift check after
    # that step: a numerical failure of a valid config, reported with its
    # step
    path = write_config(tmp_path)
    monkeypatch.setattr(
        cli.dy, "_rk4_step",
        lambda state, *_: state.from_vector(state.vector * float("nan")))
    code, out, _ = run_capture(capsys, [
        "simulate", "--config", path, "--steps", "10",
        "--out", str(tmp_path / "traj.csv")])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["failure"]["step"] == 1
    assert "constraint drift nan" in report["failure"]["error"]


def test_check_exchange_no_one_row_sector_sum(tmp_path, capsys, monkeypatch):
    # the off-diagonals of a chunk's tables at z, w, z - w and w - z are
    # one bb sector sum, of 2 x 4 x 6 rows per pair, and their diagonals,
    # r(z) P and m(z) P, one of eight rows per pair: no sum has a single
    # row; the ten pairs go in chunks of three (the last of one)
    path = write_config(tmp_path, family="bb", N=3, M=3, tau=[0.1, 1.1],
                        seed=0)
    rows = []
    sector_sum = cli.rm.BaxterBelavin._sum

    def counted(self, coeffs):
        rows.append(coeffs.size // coeffs.shape[-1])
        return sector_sum(self, coeffs)

    monkeypatch.setattr(cli.rm.BaxterBelavin, "_sum", counted)
    code, out, _ = run_capture(capsys, [
        "check-exchange", "--config", path, "--pairs", "10"])
    assert code == 0
    assert rows == [r for k in (3, 3, 3, 1) for r in (48 * k, 8 * k)]
    assert min(rows) == 8


def test_simulate_drift_checked_every_step(tmp_path, capsys, monkeypatch):
    # one trace pushed off nu at step 3 fails there, between monitor rows
    path = write_config(tmp_path)
    step = cli.dy._rk4_step
    calls = []

    def perturbed(state, *args):
        state = step(state, *args)
        calls.append(1)
        if len(calls) == 3:
            vec = state.vector.copy()
            vec[2 * state.M] += 1e-3   # S^00_00, so tr S^00
            state = state.from_vector(vec)
        return state

    monkeypatch.setattr(cli.dy, "_rk4_step", perturbed)
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_capture(capsys, [
        "simulate", "--config", path, "--steps", "20",
        "--monitor-every", "10", "--out", str(out_csv)])
    assert code == 1
    report = json.loads(out)
    assert report["failure"]["step"] == 3
    assert "constraint drift 1.000e-03 at step 3" in report["failure"]["error"]
    assert report["rows"] == 1
    assert len(out_csv.read_text().splitlines()) == 2


@pytest.mark.parametrize("argv, overrides, message", [
    (["--monitor-z", "abc"], {}, "argument --monitor-z"),
    (["--out", "/nonexistent/x.csv"], {}, "--out /nonexistent/x.csv"),
    ([], {"q0": 5}, "'q0'"),
    ([], {"p0": 5}, "'p0'"),
    (["--monitor-z", "nan,0"], {}, "argument --monitor-z: must be finite"),
])
def test_simulate_bad_input_exits_2(tmp_path, capsys, argv, overrides,
                                    message):
    path = write_config(tmp_path, **overrides)
    base = ["simulate", "--config", path, "--steps", "10"]
    if "--out" not in argv:
        base += ["--out", str(tmp_path / "traj.csv")]
    code, out, err = run_capture(capsys, base + argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["check-lax", "check-exchange",
                                     "simulate"])
def test_config_not_an_object_exits_2(tmp_path, capsys, command):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "traj.csv")]
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "must be a JSON object" in err


def test_check_exchange_without_residual_exits_2(tmp_path, capsys,
                                                 monkeypatch):
    # z == w on every draw, so no pair clears the pole margin of z - w
    path = write_config(tmp_path, M=1)
    monkeypatch.setattr(cli.sf, "sample_point",
                        lambda rng, flavor, eps=0: 0.3j)
    code, out, err = run_capture(capsys, ["check-exchange", "--config", path])
    assert code == 2
    assert out == ""
    assert "no (z, w) pair" in err


@pytest.mark.parametrize("argv, overrides", [
    (["check-lax", "--z-samples", "10"],
     {"family": "bb", "M": 4, "tau": [0.0, 1.0]}),
    (["check-lax", "--z-samples", "20"], {"M": 8}),
    (["check-exchange", "--pairs", "10"],
     {"family": "bb", "N": 3, "M": 3, "tau": [0.1, 1.1], "seed": 0}),
    (["check-exchange", "--pairs", "6"], {"M": 4}),
    (["check-lax", "--z-samples", "12"],
     {"family": "bb", "N": 1, "M": 3, "tau": [0.3, 0.9], "seed": 2}),
    # coth and csch are written in e^(-2 s z), finite far along the real
    # axis, where sinh and cosh overflow
    (["check-lax"], {"family": "xxz", "q0": [[0, 0], [800, 0]]})])
def test_stack_chunks_give_the_same_report(tmp_path, capsys, monkeypatch,
                                           argv, overrides):
    # one point per chunk and the default chunks (one stack of 10 points;
    # 14 then 6; three pairs at a time; six at once) give the same bytes
    path = write_config(tmp_path, **overrides)
    argv = argv + ["--config", path]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    monkeypatch.setattr(tn, "STACK_BYTES", 0)
    assert tn.chunks(2, 1, tn.STACK_BYTES) == [slice(0, 1), slice(1, 2)]
    assert run_capture(capsys, argv) == (0, out, "")


@pytest.mark.parametrize("argv, overrides, budget", [
    (["certify-rmatrix", "--family", "bb", "--n", "3", "--tau", "0.1,1.1",
      "--samples", "40"], None, "CERTIFY_BYTES"),
    (["certify-functions", "--flavor", "elliptic", "--tau", "0.3,0.8",
      "--samples", "12"], None, "CERTIFY_BYTES"),
    (["check-lax", "--z-samples", "6"],
     {"family": "bb", "M": 3, "tau": [0.1, 1.1]}, "STACK_BYTES"),
    (["check-exchange", "--pairs", "4"],
     {"family": "bb", "M": 3, "tau": [0.1, 1.1]}, "STACK_BYTES"),
    (["simulate", "--steps", "4", "--monitor-every", "2",
      "--monitor-z", "0.3,0.2;0.6,0.4;0.1,0.7"],
     {"family": "bb", "M": 3, "tau": [0.1, 1.1]}, "STACK_BYTES")])
def test_every_stacked_path_takes_its_chunks_from_one_rule(
        tmp_path, capsys, monkeypatch, argv, overrides, budget):
    # each command takes its row slices from tensor.chunks, within its
    # budget, and with both budgets at 0 (one row per chunk) prints the
    # bytes of its default chunks (31 then 9 samples, then one chunk each)
    if overrides is not None:
        argv = argv + ["--config", write_config(tmp_path, **overrides)]
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "traj.csv")]
    budgets = []
    chunks = tn.chunks

    def spy(n, entries, bytes_):
        budgets.append(bytes_)
        return chunks(n, entries, bytes_)

    monkeypatch.setattr(tn, "chunks", spy)
    runs = []
    for _ in range(2):
        runs.append(run_capture(capsys, argv))
        if argv[0] == "simulate":
            runs.append((tmp_path / "traj.csv").read_text())
        assert budgets and set(budgets) == {getattr(tn, budget)}
        del budgets[:]
        monkeypatch.setattr(tn, "STACK_BYTES", 0)
        monkeypatch.setattr(tn, "CERTIFY_BYTES", 0)
    assert runs[0][0] == 0
    assert runs[:len(runs) // 2] == runs[len(runs) // 2:]


def test_stacked_checks_peak_memory(tmp_path, capsys):
    # the largest array of a chunk fits STACK_BYTES, so a check's traced
    # peak stays within a few times it however many points it checks: the
    # table stacks of check-lax (14 of 20 points per chunk) and the support
    # planes of check-exchange (3 of 10 pairs) read 2.9 and 3.3 times it;
    # one stack of all points reads 4.0 and 10.5 times it (numpy 2.4)
    runs = [
        (["check-exchange", "--pairs", "10"],
         {"family": "bb", "N": 3, "M": 3, "tau": [0.1, 1.1], "seed": 0}),
        (["check-lax", "--z-samples", "20"], {"M": 8, "seed": 0})]
    for argv, overrides in runs:
        argv = argv + ["--config", write_config(tmp_path, **overrides)]
        # a first run fills the caches that outlive a command
        assert run_capture(capsys, argv)[0] == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run_capture(capsys, argv)[0] == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * tn.STACK_BYTES, argv[0]


def test_lax_memory_does_not_grow_with_points(tmp_path, capsys):
    # no L stack outlives its chunk: at xxx N=2 M=8, check-lax at 2000
    # points and simulate at 400 monitor points peak within 1 MiB of the
    # same command at 20 points (8.6 and 6.5 MiB when each L of a check
    # was held at once, against 0.76 and 0.79 MiB)
    path = write_config(tmp_path, M=8, seed=0)

    def points(n):
        return ";".join(f"{0.1 + 0.5 * k / n:.4f},{0.3 + 0.4 * k / n:.4f}"
                        for k in range(n))

    def argv(command, n):
        if command == "check-lax":
            return ["check-lax", "--config", path, "--z-samples", str(n)]
        return ["simulate", "--config", path, "--dt", "1e-4", "--steps", "4",
                "--monitor-every", "2", "--monitor-z", points(n),
                "--out", str(tmp_path / "traj.csv")]

    def peak(args):
        # a first run fills the caches that outlive a command
        assert run_capture(capsys, args)[0] == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run_capture(capsys, args)[0] == 0
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    for command, few, many in (("check-lax", 20, 2000),
                               ("simulate", 20, 400)):
        assert peak(argv(command, many)) < peak(argv(command, few)) + 2 ** 20


def test_simulate_builds_one_eom_plan(tmp_path, capsys):
    # every RK4 stage of a simulate gathers its F0 tables through the one
    # cached plan of its M and N: 16 steps of 4 stages build it once
    cli.md._eom_plan.cache_clear()
    argv = ["simulate", "--dt", "1e-4", "--steps", "16",
            "--out", str(tmp_path / "traj.csv"),
            "--config", write_config(tmp_path, M=8)]
    assert run_capture(capsys, argv)[0] == 0
    info = cli.md._eom_plan.cache_info()
    assert (info.misses, info.hits) == (1, 16 * 4 - 1)


def test_command_paths_make_no_einsum_products(tmp_path, capsys,
                                               monkeypatch):
    # check-lax, check-exchange, simulate steps with monitor rows,
    # certify-rmatrix and check-cm-rmx form every contraction and site
    # product as a matrix product: np.einsum is left with one-operand
    # diagonal views and partial traces
    products = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        # subscripts and operands, or interleaved operands and sublists
        if (len(args) - 1 if isinstance(args[0], str) else len(args) // 2) > 1:
            products.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(cli.md.np, "einsum", counting)
    out = str(tmp_path / "traj.csv")
    for overrides in ({"N": 3, "M": 3}, {"family": "11v", "M": 2},
                      {"family": "bb", "M": 3, "tau": [0.0, 1.0]}):
        path = write_config(tmp_path, **overrides)
        for argv in (["check-lax", "--z-samples", "3"],
                     ["check-exchange", "--pairs", "2"],
                     ["simulate", "--dt", "1e-4", "--steps", "2",
                      "--monitor-every", "1", "--monitor-z", "0.3,0.4",
                      "--out", out]):
            assert run_capture(capsys, argv + ["--config", path])[0] == 0
    for argv in (["certify-rmatrix", "--family", "xxx"],
                 ["certify-rmatrix", "--family", "7v", "--c", "0.7,0.2"],
                 ["certify-rmatrix", "--family", "bb", "--tau", "0.1,1.1"],
                 ["check-cm-rmx", "--family", "xxx", "--m", "3"],
                 ["check-cm-rmx", "--family", "bb", "--tau", "0,1"]):
        assert run_capture(capsys, argv + ["--samples", "3"] * (
            argv[0] == "certify-rmatrix"))[0] == 0
    assert products == []


def test_dynamics_and_cli_call_only_public_model_names():
    # the integrator and the commands reach the other modules through their
    # public names: no md._name, rm._name, sf._name, dy._name or tn._name
    # (nor the module names spelled out) in their source, and no private
    # name imported from them
    modules = {"md", "model", "rm", "rmatrix", "sf", "specfun", "dy",
               "dynamics", "tn", "tensor"}
    private = []
    for mod in (cli.dy, cli):
        tree = ast.parse(Path(mod.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules \
                    and node.attr.startswith("_"):
                private.append((Path(mod.__file__).name, node.lineno,
                                node.attr))
            if isinstance(node, ast.ImportFrom) \
                    and node.module in modules:
                private.extend((Path(mod.__file__).name, node.lineno,
                                alias.name) for alias in node.names
                               if alias.name.startswith("_"))
    assert private == []


def test_check_exchange_checks_every_requested_pair(tmp_path, capsys,
                                                    monkeypatch):
    # 250 pairs take more than 200 draws: each is checked
    path = write_config(tmp_path, N=1)
    checked = []
    residual = cli.md.exchange_residual
    monkeypatch.setattr(cli.md, "exchange_residual", lambda state, z, w: (
        checked.extend(z), residual(state, z, w))[1])
    code, out, _ = run_capture(capsys, [
        "check-exchange", "--config", path, "--pairs", "250"])
    assert code == 0
    assert json.loads(out)["pairs"] == 250 and len(checked) == 250


@pytest.mark.parametrize("cleared, message", [
    (0, "no (z, w) pairs of the 10 requested"),
    (3, "3 (z, w) pairs of the 10 requested")])
def test_check_exchange_too_few_pairs_exits_2(tmp_path, capsys, monkeypatch,
                                              cleared, message):
    # z - w inside the pole margin on every draw after the first cleared
    # ones: 40 draws per pair, then exit 2 naming how many pairs cleared
    path = write_config(tmp_path, q0=[[0.1, 0.0], [0.6, 0.2]])
    draws = []

    def pole_distance(self, z):
        draws.append(z)
        return 1.0 if len(draws) <= cleared else 0.0

    monkeypatch.setattr(cli.rm.RMatrixFamily, "pole_distance", pole_distance)
    code, out, err = run_capture(capsys, [
        "check-exchange", "--config", path, "--pairs", "10"])
    assert code == 2
    assert out == ""
    assert message in err and "in 400 draws" in err
    assert len(draws) == 400


def test_bad_complex_flag(capsys):
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_complex("not-a-pair")
    code, _, _ = run_capture(capsys, [
        "check-cm-rmx", "--family", "xxx", "--nu", "oops"])
    assert code == 2


def test_simulate_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path)
    out_csv = str(tmp_path / "traj.csv")
    code, out, _ = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "0.001", "--steps", "40",
        "--monitor-z", "0.4,0.2", "--monitor-every", "10",
        "--out", out_csv])
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == 5
    lines = open(out_csv).read().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("t,re_q0")
    assert report["drift"]["hamiltonian_drift"] < 1e-9


def test_simulate_reports_its_monitor_settings(tmp_path, capsys):
    # runs at different monitor points and intervals share their config
    # echo and their drift keys (trL{k}_z0), so the report names both
    # settings: the points as [re, im] pairs, none as an empty list
    path = write_config(tmp_path)
    out_csv = str(tmp_path / "traj.csv")
    reports = []
    for extra in (["--monitor-z", "0.4,0.2", "--monitor-every", "10"],
                  ["--monitor-z", "0.5,0.1", "--monitor-every", "5"], []):
        code, out, _ = run_capture(capsys, [
            "simulate", "--config", path, "--dt", "0.001", "--steps", "20",
            "--out", out_csv] + extra)
        assert code == 0
        reports.append(json.loads(out))
    assert [(r["monitor_z"], r["monitor_every"]) for r in reports] == [
        ([[0.4, 0.2]], 10), ([[0.5, 0.1]], 5), ([], 10)]
    first, second, _ = reports
    assert first["config_echo"] == second["config_echo"]
    assert first["drift"]["lax_trace_drift"].keys() == \
        second["drift"]["lax_trace_drift"].keys()
    assert first != second


def test_simulate_without_monitor_points_reports_no_lax_residual(tmp_path,
                                                                   capsys):
    # with no --monitor-z no Lax residual is computed, and the report says
    # so with null rather than a 0.0 that was never checked; the CSV keeps
    # its lax_residual column, as an empty field
    path = write_config(tmp_path)
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "0.001", "--steps", "20",
        "--monitor-every", "10", "--out", str(out_csv)])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["drift"]["max_lax_residual"] is None
    assert '"max_lax_residual": null' in out
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 4
    assert rows[0].endswith(",lax_residual")
    assert all(row.endswith(",") and not row.endswith(",,")
               for row in rows[1:])
    width = len(rows[0].split(","))
    assert [len(row.split(",")) for row in rows] == [width] * 4


def _flow_oracle():
    """perfbench/flow_oracle.py: the benchmark's own RK4 on bracket_flow."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "flow_oracle.py"
    spec = importlib.util.spec_from_file_location("flow_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_simulate_matches_flow_oracle(tmp_path, capsys):
    # the benchmark checks each simulate CSV against a trajectory it builds
    # through PhaseState, spin_from_matrix and bracket_flow: a change to
    # that surface fails here, not only as a failed benchmark run
    oracle = _flow_oracle()
    path = write_config(tmp_path, M=3, seed=0)
    csv_path = tmp_path / "traj.csv"
    code, _, _ = run_capture(capsys, [
        "simulate", "--config", path, "--dt", "1e-3", "--steps", "8",
        "--monitor-every", "4", "--out", str(csv_path)])
    assert code == 0
    error = oracle.trajectory_error(path, 1e-3, 8, 4, csv_path.read_text())
    assert error < oracle.TRAJECTORY_TOL


def test_simulate_byte_determinism(tmp_path, capsys):
    path = write_config(tmp_path)
    out_csv = str(tmp_path / "traj.csv")
    argv = ["simulate", "--config", path, "--dt", "0.001", "--steps", "20",
            "--monitor-z", "0.4,0.2", "--out", out_csv]
    _, out1, _ = run_capture(capsys, argv)
    csv1 = open(out_csv, "rb").read()
    _, out2, _ = run_capture(capsys, argv)
    csv2 = open(out_csv, "rb").read()
    assert out1 == out2
    assert csv1 == csv2


def test_usage_error_exit_2(capsys):
    code, _, _ = run_capture(capsys, ["simulate"])  # missing required flags
    assert code == 2
    code, _, _ = run_capture(capsys, ["frobnicate"])
    assert code == 2


def test_parser_shared_between_runs(tmp_path, capsys):
    # one parser serves every run of the process; a run leaves nothing in
    # it that changes the next
    assert cli._build_parser() is cli._build_parser()
    certify = ["certify-rmatrix", "--family", "7v", "--c", "0.7,0.2",
               "--samples", "3", "--seed", "4"]
    lax = ["check-lax", "--config", write_config(tmp_path), "--z-samples", "2"]
    separate = [run_capture(capsys, certify), run_capture(capsys, lax)]
    assert [code for code, _, _ in separate] == [0, 0]
    # a usage error after a successful run still exits 2
    assert run_capture(capsys, ["certify-rmatrix", "--samples", "3"])[0] == 2
    interleaved = [run_capture(capsys, lax), run_capture(capsys, certify)]
    assert interleaved[::-1] == separate


def test_oversized_check_lax_exits_2(tmp_path, capsys, monkeypatch):
    # the budget holds the --z-samples points, not z_samples (NM)^2
    # entries of L, which lax_chunks never holds at once: at xxx N=2 M=8,
    # 65537 points (over a budget of Lax matrices) run, and 2^24 + 1
    # points exit 2 before any is drawn (lax_check is stubbed: the budget,
    # not the run, is under test)
    path = write_config(tmp_path, M=8)
    model = cli.md.load_model_config(json.loads(Path(path).read_text()))
    drawn = []
    monkeypatch.setattr(cli.md, "load_model_config", lambda cfg: model)
    monkeypatch.setattr(cli.sf, "sample_point",
                        lambda rng, flavor: drawn.append(1) or 0.3j)
    monkeypatch.setattr(cli.md, "lax_check",
                        lambda state, zs: np.zeros(len(zs)))
    code, out, err = run_capture(capsys, ["check-lax", "--config", path,
                                          "--z-samples", "16777217"])
    assert (code, out, drawn) == (2, "", [])
    assert "--z-samples 16777217 has 16777217 complex entries" in err
    assert "MiB array budget" in err
    code, out, _ = run_capture(capsys, ["check-lax", "--config", path,
                                        "--z-samples", "65537"])
    assert code == 0 and len(drawn) == 65537
    assert json.loads(out)["z_samples"] == 65537


@pytest.mark.parametrize("argv, flag, count, budget", [
    (["certify-functions", "--flavor", "rational"], "--samples", 20, 80),
    (["certify-rmatrix", "--family", "xxx"], "--samples", 1608, 9648),
    (["check-lax"], "--z-samples", 64, 64),
    (["check-exchange"], "--pairs", 64, 256),
    (["simulate", "--monitor-z", "0.4,0.2", "--monitor-every", "1"],
     "--steps", 5, 66),
], ids=["certify-functions", "certify-rmatrix", "check-lax",
        "check-exchange", "simulate"])
def test_count_flags_fit_the_array_budget(tmp_path, capsys, monkeypatch,
                                          argv, flag, count, budget):
    # the array a count flag sizes (4 entries per certify-functions sample,
    # 6 per certify-rmatrix sample, 1 per check-lax point, 4 per
    # check-exchange pair, 2M + 4 + 3 per monitor point in each of
    # simulate's steps // monitor_every + 1 rows) is checked against
    # MAX_ARRAY_BYTES before anything is drawn or integrated: at a budget
    # that count fills the run passes, and one more exits 2 with no draw
    # and no step (at M = 2, N = 2 the budget also holds the pair tables,
    # the exchange planes and one certification sample)
    if argv[0] in ("check-lax", "check-exchange", "simulate"):
        path = write_config(tmp_path)
        model = cli.md.load_model_config(json.loads(Path(path).read_text()))
        monkeypatch.setattr(cli.md, "load_model_config", lambda cfg: model)
        argv = argv + ["--config", path]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "traj.csv")]
    calls = []
    for owner, name in [(cli.sf, "sample_point"), (cli.sf, "sample_tuple"),
                        (cli.dy, "_rk4_step")]:
        def counted(*args, fn=getattr(owner, name), **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(tn, "MAX_ARRAY_BYTES", 16 * budget)
    code, out, err = run_capture(capsys, argv + [flag, str(count)])
    assert (code, err) == (0, "") and calls
    assert json.loads(out)["pass"] is True
    del calls[:]
    code, out, err = run_capture(capsys, argv + [flag, str(count + 1)])
    assert (code, out, calls) == (2, "", [])
    assert "array budget" in err


@pytest.mark.parametrize("family, flag, values, key", [
    ("bb", "--tau", ("0.1,1.1", "0.3,0.9"), "tau"),
    ("7v", "--c", ("0.7,0.2", "0.4,-0.1"), "C")])
def test_check_cm_rmx_echoes_its_family_flags(capsys, family, flag, values,
                                              key):
    # check-cm-rmx and certify-rmatrix read --family/--n/--tau/--c from one
    # option group and echo them alike: two values of the flag give two
    # echoes, each holding it as [re, im]; certify-rmatrix's echo is the
    # one it always had
    echoes = []
    for value in values:
        pair = [float(x) for x in value.split(",")]
        code, out, _ = run_capture(capsys, [
            "check-cm-rmx", "--family", family, flag, value])
        assert code == 0
        echo = json.loads(out)["config_echo"]
        assert echo == {"family": family, "N": 2, "M": 2, "nu": [1.0, 0.0],
                        "tol": 1e-9, key: pair}
        code, out, _ = run_capture(capsys, [
            "certify-rmatrix", "--family", family, flag, value,
            "--samples", "2"])
        assert code == 0
        assert json.loads(out)["config_echo"] == {
            "family": family, "N": 2, "samples": 2, "tol": 1e-8, key: pair}
        echoes.append(echo)
    assert echoes[0] != echoes[1]


_CONTRACT_ARGV = {
    "certify-functions": ["--flavor", "rational", "--samples", "5"],
    "certify-rmatrix": ["--family", "xxx", "--samples", "3"],
    "check-lax": ["--z-samples", "2"],
    "check-exchange": ["--pairs", "2"],
    "check-cm-rmx": ["--family", "xxx"],
    "simulate": ["--steps", "10"],
}


@pytest.mark.parametrize("command", list(_CONTRACT_ARGV))
def test_exit_code_contract(tmp_path, capsys, monkeypatch, command):
    # every command reports through one path: a passing run exits 0 with
    # "pass": true, and the same run with a residual over its tolerance
    # (--tol 0; for simulate, a step that returns NaN) exits 1 with
    # "pass": false; both reports carry the same head
    argv = [command] + _CONTRACT_ARGV[command]
    if command in ("check-lax", "check-exchange", "simulate"):
        argv += ["--config", write_config(tmp_path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "traj.csv")]
    reports = []
    for code_want in (0, 1):
        if code_want and command == "simulate":
            monkeypatch.setattr(
                cli.dy, "_rk4_step",
                lambda state, *_: state.from_vector(
                    state.vector * float("nan")))
        elif code_want:
            argv += ["--tol", "0"]
        code, out, err = run_capture(capsys, argv)
        report = json.loads(out)
        assert (code, err) == (code_want, "")
        assert report["pass"] is (code_want == 0)
        assert report["command"] == command
        reports.append(report)
    head = {"tool_version", "command", "config_echo", "seed", "pass"}
    assert all(head <= set(report) for report in reports)
    assert reports[0]["seed"] == reports[1]["seed"]


def test_import_leaves_out_dataclasses():
    # the package's value types are plain classes: a fresh interpreter
    # that imports the CLI has not loaded dataclasses
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import toplax.cli; "
            "print('dataclasses' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, str(src)],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
