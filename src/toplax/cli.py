"""Command-line interface: certification, model checks and simulation.

All reports are JSON on stdout (trajectories additionally as CSV files),
byte-reproducible for a fixed seed.  Exit codes: 0 all checks passed,
1 a residual exceeded its tolerance or a trajectory failed numerically
after its first step, 2 usage or configuration error.
"""

import argparse
import cmath
import functools
import json
import sys

import numpy as np

from . import __version__
from . import dynamics as dy
from . import model as md
from . import rmatrix as rm
from . import specfun as sf
from . import tensor as tn
from .errors import DegenerateDraw, ToplaxError


def _parse_complex(text):
    try:
        re, im = map(float, str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM pair, got {text!r}")
    z = complex(re, im)
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return z


def _count(text):
    """A count (samples, pairs, sites, matrix size): an integer of at least
    1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _monitor_points(text):
    """Monitor points as a ;-separated list of RE,IM pairs."""
    return tuple(_parse_complex(part) for part in text.split(";") if part)


def _complex_pair(z):
    return [z.real, z.imag]


def _check_count(flag, count, entries):
    """Check the sample array of a count flag, entries complex entries per
    count, against the array budget before anything is drawn."""
    tn.check_scale(entries * count, f"the sample array of {flag} {count}")


def _finish(command, echo, seed, body, passed):
    """Print the JSON report of a command and return its exit code: 0 if
    passed, else 1."""
    report = {"tool_version": __version__, "command": command,
              "config_echo": echo, "seed": int(seed), "pass": bool(passed),
              **body}
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0 if passed else 1


def _family(args):
    """The family of --family, --n, --tau and --c, and its config_echo:
    family and N, and tau and C when given."""
    family = rm.make_family(args.family, N=args.n, tau=args.tau, C=args.c)
    echo = {"family": args.family, "N": family.N}
    if args.tau is not None:
        echo["tau"] = _complex_pair(args.tau)
    if args.c is not None:
        echo["C"] = _complex_pair(args.c)
    return family, echo


def _model(args):
    """The config of --config (the config_echo), its seed and the state it
    describes."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")
    _, state, _ = md.load_model_config(cfg)
    return cfg, int(cfg.get("seed", 0)), state


def _cmd_certify_functions(args):
    echo = {"flavor": args.flavor, "samples": args.samples, "tol": args.tol}
    if args.flavor == "rational":
        flavor = sf.Flavor.rational()
    elif args.flavor == "trig":
        flavor = sf.Flavor.trigonometric()
    else:
        flavor = sf.Flavor.elliptic(args.tau if args.tau is not None else 1j)
        echo["tau"] = _complex_pair(flavor.tau)
    _check_count("--samples", args.samples, 4)
    report = sf.scalar_identity_report(flavor, args.samples, args.seed)
    return _finish("certify-functions", echo, args.seed, report,
                   all(v < args.tol for v in report["identities"].values()))


def _cmd_certify_rmatrix(args):
    family, echo = _family(args)
    _check_count("--samples", args.samples, 6)
    report = rm.certify(family, args.samples, args.seed, args.tol)
    echo.update(samples=args.samples, tol=args.tol)
    return _finish("certify-rmatrix", echo, args.seed, report,
                   all(p["pass"] for p in report["properties"].values()))


def _cmd_check_lax(args):
    cfg, seed, state = _model(args)
    _check_count("--z-samples", args.z_samples, 1)
    rng = np.random.default_rng(seed + 1)
    zs = [sf.sample_point(rng, state.family.flavor)
          for _ in range(args.z_samples)]
    # np.max: a NaN residual anywhere fails the check
    worst = float(np.max(md.lax_check(state, zs)))
    body = {"max_lax_residual": worst, "z_samples": args.z_samples,
            "tol": args.tol}
    return _finish("check-lax", cfg, seed, body, worst < args.tol)


def _cmd_check_exchange(args):
    cfg, seed, state = _model(args)
    # z, w, z - w and w - z of each pair
    _check_count("--pairs", args.pairs, 4)
    rng = np.random.default_rng(seed + 2)
    # 200 draws up to 5 pairs, 40 per pair above
    draws = max(200, 40 * args.pairs)
    pairs = []
    for _ in range(draws):
        if len(pairs) == args.pairs:
            break
        z, w = (sf.sample_point(rng, state.family.flavor) for _ in range(2))
        if not state.family.pole_distance(z - w) < 0.05:
            pairs.append((z, w))
    if len(pairs) < args.pairs:
        raise DegenerateDraw(
            f"{len(pairs) or 'no'} (z, w) pairs of the {args.pairs} "
            f"requested cleared the pole margin in {draws} draws")
    z, w = np.array(pairs).T
    # np.max: a NaN residual anywhere fails the check
    worst = float(np.max(md.exchange_residual(state, z, w)))
    body = {"max_exchange_residual": worst, "pairs": args.pairs,
            "tol": args.tol}
    return _finish("check-exchange", cfg, seed, body, worst < args.tol)


def _cmd_check_cm_rmx(args):
    family, echo = _family(args)
    rng = np.random.default_rng(args.seed)
    q = md.random_positions(family, args.m, rng)
    p = tuple(rng.uniform(-1, 1, args.m) + 1j * rng.uniform(-1, 1, args.m))
    z = sf.sample_point(rng, family.flavor)
    residual = md.cm_rmx_residual(q, p, args.nu, family, z)
    echo.update(M=args.m, nu=_complex_pair(args.nu), tol=args.tol)
    return _finish("check-cm-rmx", echo, args.seed,
                   {"cm_rmx_residual": residual}, residual < args.tol)


def _cmd_simulate(args):
    cfg, seed, state = _model(args)
    rec = dy.integrate(state, args.dt, args.steps, args.monitor_z,
                       args.monitor_every)
    try:
        with open(args.out, "w") as fh:
            dy.write_csv(rec, fh)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc}")
    body = {"drift": dy.isospectrality_report(rec), "rows": rec.rows(),
            "dt": args.dt, "steps": args.steps, "out": args.out,
            "monitor_z": [_complex_pair(z) for z in args.monitor_z],
            "monitor_every": args.monitor_every}
    if rec.failure is not None:
        body["failure"] = rec.failure
    return _finish("simulate", cfg, seed, body, rec.failure is None)


@functools.cache
def _build_parser():
    """The argument parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="toplax",
        description="Certification and simulation of interacting "
                    "integrable tops")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify-functions",
                       help="scalar special-function identity suite")
    p.add_argument("--flavor", choices=("rational", "trig", "elliptic"),
                   required=True)
    p.add_argument("--tau", type=_parse_complex, default=None)
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_certify_functions)

    # the R-matrix family options of certify-rmatrix and check-cm-rmx
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=rm.FAMILY_KEYS, required=True)
    family.add_argument("--n", type=_count, default=2)
    family.add_argument("--tau", type=_parse_complex, default=None)
    family.add_argument("--c", type=_parse_complex, default=None)

    p = sub.add_parser("certify-rmatrix", parents=[family],
                       help="R-matrix identity certification")
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_certify_rmatrix)

    p = sub.add_parser("check-lax", help="Lax equation residual")
    p.add_argument("--config", required=True)
    p.add_argument("--z-samples", type=_count, default=5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_check_lax)

    p = sub.add_parser("check-exchange",
                       help="classical exchange relation residual")
    p.add_argument("--config", required=True)
    p.add_argument("--pairs", type=_count, default=5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_check_exchange)

    p = sub.add_parser("check-cm-rmx", parents=[family],
                       help="R-matrix-valued Calogero-Moser Lax residual")
    p.add_argument("--m", type=_count, default=2)
    p.add_argument("--nu", type=_parse_complex, default=1 + 0j)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_check_cm_rmx)

    p = sub.add_parser("simulate", help="integrate and record a trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--monitor-z", type=_monitor_points, default="")
    p.add_argument("--monitor-every", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ToplaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
