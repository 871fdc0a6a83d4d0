"""Layered benchmark for toplax.

Usage (from the repository root):

    python3 perfbench/run.py --workload bb_flow --seed 0 --seconds 30 --trace 0

Each workload is a closed loop with one client: one process runs real
``toplax`` commands back to back through ``toplax.cli.run(argv)`` on inputs
generated from ``--seed``, and checks every report.  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
See perfbench/README.md for the workloads, the metrics and what each
per-layer metric is expected to move.
"""

import os

# pin BLAS to one thread before numpy loads (2 cores, shared host)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
# theta's error against mpmath, in ulps of the series' term-magnitude sum
# (see specfun_oracle.py); a correct kernel stays within about 10
THETA_ULPS_TOL = 256

# fresh-process set-up: import the CLI, build the family and the initial
# PhaseState from the config.  numpy is imported first, as it is not the
# program's own set-up.  The calibration task runs in the same process right
# before and after; prints the set-up seconds and the mean calibration
# seconds.
SETUP_CHILD = """\
import sys, time
import numpy
sys.path.insert(0, sys.argv[2])
from calibration import cal_seconds
before = cal_seconds()
t0 = time.perf_counter()
import json
import toplax.cli
from toplax import model
with open(sys.argv[1]) as fh:
    model.load_model_config(json.load(fh))
secs = time.perf_counter() - t0
print(repr(secs), repr(0.5 * (before + cal_seconds())))
"""

# one pass of the workload's commands in a fresh process; prints the growth
# of the peak resident set (MB) over the pass, above the peak after imports.
# VmHWM is the peak of this process's own memory map; ru_maxrss is not, as
# it starts from the parent's resident set when the child is spawned.
MEMORY_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import run
run.load_package()
from toplax import cli

def peak_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")

base = peak_kb()
for argv in json.loads(sys.argv[2]):
    code, _, err, _ = run.run_command(argv)
    if code != 0:
        sys.exit(err)
print((peak_kb() - base) / 1024)
"""


def load_package():
    """Import toplax from this checkout's src/, never from elsewhere."""
    if not (SRC / "toplax" / "cli.py").is_file():
        raise SystemExit(f"error: no toplax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import toplax
    if not Path(toplax.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: toplax imported from {toplax.__file__}")
    return toplax


# --- workloads -------------------------------------------------------------

class Workload:
    """A fixed sequence of CLI commands built from the seed.

    ``config_path`` is the model configuration the set-up metric builds;
    ``commands`` lists (label, argv) in run order, the first one being the
    workload's main command and the second its check command.  A flow
    workload also keeps the integration it asks ``simulate`` for
    (``config``, ``dt``, ``steps``, ``every``) so that the trajectory can be
    checked against ``flow_oracle``.
    """

    def __init__(self, config_path, commands, flow=None):
        self.config_path = config_path
        self.commands = commands
        self.flow = flow
        self.monitor_rows = flow["steps"] // flow["every"] + 1 if flow \
            else None

    def trajectory_error(self):
        """Error of simulate's last CSV against the reference trajectory."""
        from flow_oracle import trajectory_error
        argv = dict(self.commands)["simulate"]
        csv_text = (ROOT / argv[argv.index("--out") + 1]).read_text()
        return trajectory_error(csv_text=csv_text, **self.flow)


def _write_config(workdir, name, config):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config, sort_keys=True))
    return path


def _points(rng, tau, count):
    """Monitor points a + b*tau with a, b uniform in [0.2, 0.8]."""
    out = []
    for _ in range(count):
        a, b = rng.uniform(0.2, 0.8, 2)
        z = complex(a) + complex(b) * tau
        out.append(f"{z.real!r},{z.imag!r}")
    return ";".join(out)


def _flow(name, seed, workdir, config, dt, steps, every, z_samples):
    import numpy as np
    rng = np.random.default_rng([seed, 1])
    cfg_path = _write_config(workdir, name, config)
    cfg = str(cfg_path.relative_to(ROOT))
    csv = str((workdir / f"{name}.csv").relative_to(ROOT))
    tau = complex(*config.get("tau", (0.0, 1.0)))
    simulate = ["simulate", "--config", cfg, "--dt", repr(dt),
                "--steps", str(steps), "--monitor-z", _points(rng, tau, 2),
                "--monitor-every", str(every), "--out", csv]
    check = ["check-lax", "--config", cfg, "--z-samples", str(z_samples)]
    return Workload(cfg_path, [("simulate", simulate), ("check-lax", check)],
                    flow={"config": config, "dt": dt, "steps": steps,
                          "every": every})


def make_workload(name, seed, workdir):
    """Build the named workload's inputs from the seed under workdir."""
    if name == "bb_flow":
        config = {"family": "bb", "N": 2, "M": 4, "tau": [0.0, 1.0],
                  "nu": [1.0, 0.0], "spin_mode": "general", "seed": seed}
        return _flow(name, seed, workdir, config, dt=1e-5, steps=6, every=3,
                     z_samples=10)
    if name == "xxx_flow":
        config = {"family": "xxx", "N": 2, "M": 8, "nu": [1.0, 0.0],
                  "spin_mode": "general", "seed": seed}
        return _flow(name, seed, workdir, config, dt=1e-5, steps=16, every=8,
                     z_samples=20)
    if name == "bb_certify":
        config = {"family": "bb", "N": 3, "M": 3, "tau": [0.1, 1.1],
                  "nu": [1.0, 0.0], "spin_mode": "general", "seed": seed}
        cfg_path = _write_config(workdir, name, config)
        certify = ["certify-rmatrix", "--family", "bb", "--n", "3",
                   "--tau", "0.1,1.1", "--samples", "6", "--seed", str(seed)]
        exchange = ["check-exchange", "--config",
                    str(cfg_path.relative_to(ROOT)), "--pairs", "10"]
        return Workload(cfg_path, [("certify-rmatrix", certify),
                                   ("check-exchange", exchange)])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("bb_flow", "xxx_flow", "bb_certify")


# --- running and checking --------------------------------------------------

def run_command(argv):
    """Run one CLI command in-process; returns (code, stdout, stderr, secs)."""
    from toplax import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback is a failed command
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
            code = -1
    secs = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), secs


def output_digest(label, argv, stdout):
    """Digest of everything a command produced: its report and its CSV."""
    h = hashlib.sha256(stdout.encode())
    if label == "simulate":
        h.update((ROOT / argv[argv.index("--out") + 1]).read_bytes())
    return h.hexdigest()


def check_command(workload, label, argv, code, stdout, stderr):
    """Return a failure message, or None if the command's output is right."""
    if code != 0:
        return f"{label} exited {code}: {stderr.strip()[:300]}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"{label} report is not JSON: {exc}"
    if report.get("pass") is not True:
        return f"{label} report has pass={report.get('pass')!r}"
    if label == "simulate":
        # simulate reports pass=true whatever happens, so check the
        # trajectory itself: the Lax equation holds on every monitor row
        # (check-lax's default tolerance), the invariants stay put and
        # every row was written.  The trajectory is compared with an
        # independent integration once per run (Workload.trajectory_error).
        from flow_oracle import drift_failure
        drift = report["drift"]
        if not drift["max_lax_residual"] < 1e-9:
            return f"simulate lax residual {drift['max_lax_residual']!r}"
        failure = drift_failure(drift)
        if failure:
            return failure
        if report["rows"] != workload.monitor_rows:
            return f"simulate wrote {report['rows']} rows"
        csv = (ROOT / argv[argv.index("--out") + 1]).read_text()
        if len(csv.splitlines()) != workload.monitor_rows + 1:
            return "simulate CSV row count differs from the report"
    return None


class Pass:
    """Outcome of running every command of a workload once.

    ``cmd_cal`` holds each command's wall time in units of the calibration
    task timed right before and right after it.
    """

    def __init__(self, secs, cmd_secs, cmd_cal, digests, failures):
        self.secs = secs
        self.cmd_secs = cmd_secs
        self.cmd_cal = cmd_cal
        self.digests = digests
        self.failures = failures


def run_pass(workload):
    from calibration import cal_seconds
    cmd_secs, cmd_cal, digests, failures = [], [], [], []
    before = cal_seconds()
    for label, argv in workload.commands:
        code, stdout, stderr, secs = run_command(argv)
        after = cal_seconds()
        cmd_secs.append(secs)
        cmd_cal.append(secs / (0.5 * (before + after)))
        before = after
        failure = check_command(workload, label, argv, code, stdout, stderr)
        if failure is None:
            digests.append(output_digest(label, argv, stdout))
        else:
            digests.append(None)
            failures.append(failure)
    return Pass(sum(cmd_secs), cmd_secs, cmd_cal, digests, failures)


class Ledger:
    """Counts commands attempted and failed.  A command also fails when its
    output bytes differ from those of its first successful run."""

    def __init__(self):
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, p):
        self.messages.extend(p.failures)
        for i, digest in enumerate(p.digests):
            self.attempted += 1
            if digest is None:
                self.failed += 1
            elif self.reference.setdefault(i, digest) != digest:
                self.failed += 1
                self.messages.append(
                    f"command {i} output differs from its first run")


def run_loop(workload, seconds, ledger, after_pass=None):
    """Run passes until ``seconds`` have elapsed (at least one), calling
    ``after_pass`` after each."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        p = run_pass(workload)
        ledger.record(p)
        passes.append(p)
        if after_pass:
            after_pass()
    return passes


def rss_growth_mb(workload):
    """Peak resident set growth of one pass in a fresh process (MB)."""
    argvs = json.dumps([argv for _, argv in workload.commands])
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD, str(HERE), argvs],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout)


def setup_seconds(workload):
    """(set-up seconds, calibration seconds) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(workload.config_path),
         str(HERE)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    secs, cal = out.stdout.split()
    return float(secs), float(cal)


def machine_info(toplax):
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "toplax_using_compiled": getattr(toplax, "USING_COMPILED", None),
        "blas_threads": BLAS_THREADS,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


# --- trace mode ------------------------------------------------------------

def layer_metrics(summary, untraced_s, traced_s):
    """Per-layer metrics of one traced pass (see README.md for each)."""
    funcs = summary["funcs"]

    def total(field, layer=None, group=None):
        idx = {"calls": 0, "self": 1}[field]
        return sum(row[idx] for (lay, grp, _), row in funcs.items()
                   if (layer is None or lay == layer)
                   and (group is None or grp == group))

    def calls(layer, group=None):
        return total("calls", layer, group)

    def self_s(layer, group=None):
        return total("self", layer, group) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(values, q):
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    theta_calls = calls("specfun", "theta")
    out = {
        "specfun.theta.calls": _metric(theta_calls, "count"),
        "specfun.theta.pairs_mean": _metric(
            ratio(summary["theta_pairs"], theta_calls), "pairs"),
        "specfun.theta.distinct_ratio": _metric(
            ratio(summary["theta_distinct"], theta_calls), "ratio"),
        "specfun.theta.self_s": _metric(self_s("specfun", "theta"), "s"),
        "specfun.scalar.calls": _metric(calls("specfun", "scalar"), "count"),
        "specfun.scalar.self_s": _metric(self_s("specfun", "scalar"), "s"),
        "specfun.pole_guard.calls": _metric(
            calls("specfun", "pole_guard"), "count"),
    }
    for method in ("r", "R", "F", "F0", "m0"):
        out[f"rmatrix.{method}.calls"] = _metric(
            calls("rmatrix", method), "count")
    out["rmatrix.F0.distinct_ratio"] = _metric(
        ratio(summary["f0_distinct"], calls("rmatrix", "F0")), "ratio")
    out["rmatrix.self_s"] = _metric(self_s("rmatrix"), "s")
    out["rmatrix.certify.self_s"] = _metric(self_s("rmatrix", "certify"), "s")
    eom = summary["eom_ms"]
    out["model.eom_rhs.calls"] = _metric(calls("model", "eom_rhs"), "count")
    out["model.eom_rhs.self_s"] = _metric(self_s("model", "eom_rhs"), "s")
    out["model.eom_rhs.ms_p50"] = _metric(pct(eom, 50), "ms")
    out["model.eom_rhs.ms_p90"] = _metric(pct(eom, 90), "ms")
    for group in ("bracket_flow", "lax", "exchange"):
        out[f"model.{group}.self_s"] = _metric(self_s("model", group), "s")
    out["tensor.calls"] = _metric(calls("tensor"), "count")
    out["tensor.self_s"] = _metric(self_s("tensor"), "s")
    out["dynamics.rk4_steps"] = _metric(
        sum(row[0] for (lay, _, name), row in funcs.items()
            if lay == "dynamics" and name == "_rk4_step"), "count")
    for group in ("state_codec", "integrate", "csv"):
        out[f"dynamics.{group}.self_s"] = _metric(
            self_s("dynamics", group), "s")
    out["cli.self_s"] = _metric(self_s("cli"), "s")
    out["trace.overhead_ratio"] = _metric(traced_s / untraced_s, "ratio")
    return out


COUNT_UNITS = ("count", "pairs", "ratio")


def counts_of(metrics):
    """The metrics of a traced pass that must repeat exactly."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in COUNT_UNITS and k != "trace.overhead_ratio"}


def trace_run(workload, seconds, ledger):
    """Alternate untraced and traced passes; per-layer metrics as medians.

    Alternating keeps a drift in the shared host's speed out of the
    overhead ratio.
    """
    from tracing import Tracer
    tracer = Tracer()
    untraced_secs, traced_secs, per_pass = [], [], []
    t0 = time.perf_counter()
    while len(per_pass) < 2 or time.perf_counter() - t0 < seconds:
        p = run_pass(workload)
        ledger.record(p)
        untraced_secs.append(p.secs)
        with tracer:
            p = run_pass(workload)
        ledger.record(p)
        traced_secs.append(p.secs)
        per_pass.append(tracer.collect())
    untraced_s = statistics.median(untraced_secs)
    traced_s = statistics.median(traced_secs)
    all_metrics = [layer_metrics(s, untraced_s, traced_s) for s in per_pass]
    repeat = all(counts_of(m) == counts_of(all_metrics[0])
                 for m in all_metrics)
    if not repeat:
        ledger.messages.append("per-layer counts differ between traced passes")
    metrics = {}
    for key, first in all_metrics[0].items():
        values = [m[key]["value"] for m in all_metrics]
        value = values[0] if first["unit"] in COUNT_UNITS else \
            statistics.median(values)
        metrics[key] = _metric(value, first["unit"])
    return metrics, per_pass


def write_trace_summary(path, per_pass):
    """Per-function totals of every traced pass, written once at the end."""
    rows = []
    for i, summary in enumerate(per_pass):
        for (layer, group, name), (n, self_ns, incl_ns) in sorted(
                summary["funcs"].items()):
            rows.append({"pass": i, "layer": layer, "group": group,
                         "function": name, "calls": n,
                         "self_s": self_ns / 1e9, "incl_s": incl_ns / 1e9})
    path.write_text(json.dumps(rows, indent=1) + "\n")


# --- main ------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_oracles(workload):
    """Checks independent of the package's own verdicts: theta against
    mpmath, and a flow workload's trajectory against flow_oracle.  Returns
    (failure messages, info)."""
    from specfun_oracle import theta_oracle_ulps
    messages, info = [], {}
    info["theta_mpmath_ulps"] = ulps = theta_oracle_ulps()
    if not ulps < THETA_ULPS_TOL:
        messages.append(f"theta vs mpmath error {ulps:.1f} ulps")
    if workload.flow:
        from flow_oracle import TRAJECTORY_TOL
        info["trajectory_error"] = err = workload.trajectory_error()
        if not err < TRAJECTORY_TOL:
            messages.append(f"simulate trajectory differs from the "
                            f"bracket-flow reference by {err:.3e}")
    return messages, info


def main(argv=None):
    args = parse_args(argv)
    toplax = load_package()

    os.chdir(ROOT)
    workdir = OUT_DIR / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        ledger = Ledger()
        run_loop(workload, 0, ledger)     # warm-up; fixes the reference bytes
        if args.trace:
            metrics, per_pass = trace_run(workload, args.seconds, ledger)
            write_trace_summary(
                OUT_DIR / f"trace-{args.workload}-{args.seed}.json", per_pass)
        else:
            from calibration import CAL_REFERENCE_S
            # one set-up process after each pass spreads the set-up samples
            # over the run like the passes
            setups = []
            passes = run_loop(workload, args.seconds, ledger, lambda:
                              setups.append(setup_seconds(workload)))
            while len(setups) < SETUP_REPEATS:
                setups.append(setup_seconds(workload))
            metrics = {
                "setup_s": _metric(CAL_REFERENCE_S * statistics.median(
                    secs / cal for secs, cal in setups), "s"),
                "workload_cal": _metric(
                    statistics.median(sum(p.cmd_cal) for p in passes), "cal"),
                "main_cmd_cal": _metric(
                    statistics.median(p.cmd_cal[0] for p in passes), "cal"),
                "check_cmd_cal": _metric(
                    statistics.median(p.cmd_cal[1] for p in passes), "cal"),
                "peak_rss_growth_mb": _metric(rss_growth_mb(workload), "MB"),
            }
            print(json.dumps({
                "passes": len(passes),
                "setup_runs": len(setups),
                "setup_raw_s": statistics.median(secs for secs, _ in setups),
                "workload_s": statistics.median(p.secs for p in passes),
                "main_cmd_s": statistics.median(p.cmd_secs[0] for p in passes),
                "check_cmd_s": statistics.median(
                    p.cmd_secs[1] for p in passes)}))
        messages, oracle_info = run_oracles(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    messages = ledger.messages + messages
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"machine": machine_info(toplax), **oracle_info}))
    print(json.dumps({
        "correct": ledger.failed == 0 and not messages,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
