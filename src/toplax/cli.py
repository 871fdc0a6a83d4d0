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
from .errors import DegenerateDraw, ToplaxError
from .tensor import check_scale

_FLAVOR_KEYS = ("rational", "trig", "elliptic")


def _parse_complex(text):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM pair, got {text!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM pair, got {text!r}")
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


def _emit(report):
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _report(command, config_echo, seed, body, passed):
    out = {
        "tool_version": __version__,
        "command": command,
        "config_echo": config_echo,
        "seed": int(seed),
        "pass": bool(passed),
    }
    out.update(body)
    return out


def _flavor_from_args(args):
    if args.flavor == "rational":
        return sf.Flavor.rational()
    if args.flavor == "trig":
        return sf.Flavor.trigonometric()
    tau = args.tau if args.tau is not None else 1j
    return sf.Flavor.elliptic(tau)


def _cmd_certify_functions(args):
    flavor = _flavor_from_args(args)
    report = sf.scalar_identity_report(flavor, args.samples, args.seed)
    passed = all(v < args.tol for v in report["identities"].values())
    echo = {"flavor": args.flavor, "samples": args.samples,
            "tol": args.tol}
    if args.flavor == "elliptic":
        echo["tau"] = _complex_pair(flavor.tau)
    _emit(_report("certify-functions", echo, args.seed, report, passed))
    return 0 if passed else 1


def _cmd_certify_rmatrix(args):
    family = rm.make_family(args.family, N=args.n, tau=args.tau, C=args.c)
    report = rm.certify(family, args.samples, args.seed, args.tol)
    passed = all(p["pass"] for p in report["properties"].values())
    echo = {"family": args.family, "N": family.N, "samples": args.samples,
            "tol": args.tol}
    if args.tau is not None:
        echo["tau"] = _complex_pair(args.tau)
    if args.c is not None:
        echo["C"] = _complex_pair(args.c)
    _emit(_report("certify-rmatrix", echo, args.seed, report, passed))
    return 0 if passed else 1


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")


def _cmd_check_lax(args):
    cfg = _load_config(args.config)
    family, state, nu = md.load_model_config(cfg)
    # one NM x NM L per point, a chunk at a time
    n = state.M * state.N
    check_scale(args.z_samples * n * n,
                f"{args.z_samples} Lax matrices at NM = {n}")
    rng = np.random.default_rng(int(cfg.get("seed", 0)) + 1)
    zs = [sf.sample_point(rng, family.flavor) for _ in range(args.z_samples)]
    # np.max: a NaN residual anywhere fails the check
    worst = float(np.max(md.lax_check(state, zs)))
    passed = worst < args.tol
    body = {"max_lax_residual": worst, "z_samples": args.z_samples,
            "tol": args.tol}
    _emit(_report("check-lax", cfg, cfg.get("seed", 0), body, passed))
    return 0 if passed else 1


def _cmd_check_exchange(args):
    cfg = _load_config(args.config)
    family, state, nu = md.load_model_config(cfg)
    rng = np.random.default_rng(int(cfg.get("seed", 0)) + 2)
    pairs = []
    attempts = 0
    # 200 draws up to 5 pairs, 40 per pair above
    draws = max(200, 40 * args.pairs)
    while len(pairs) < args.pairs and attempts < draws:
        attempts += 1
        z = sf.sample_point(rng, family.flavor)
        w = sf.sample_point(rng, family.flavor)
        if family.pole_distance(z - w) < 0.05:
            continue
        pairs.append((z, w))
    if len(pairs) < args.pairs:
        raise DegenerateDraw(
            f"{len(pairs) or 'no'} (z, w) pairs of the {args.pairs} "
            f"requested cleared the pole margin in {draws} draws")
    z, w = np.array(pairs).T
    # np.max: a NaN residual anywhere fails the check
    worst = float(np.max(md.exchange_residual(state, z, w)))
    passed = worst < args.tol
    body = {"max_exchange_residual": worst, "pairs": args.pairs,
            "tol": args.tol}
    _emit(_report("check-exchange", cfg, cfg.get("seed", 0), body, passed))
    return 0 if passed else 1


def _cmd_check_cm_rmx(args):
    family = rm.make_family(args.family, N=args.n, tau=args.tau, C=args.c)
    rng = np.random.default_rng(args.seed)
    q = md.random_positions(family, args.m, rng)
    p = tuple(rng.uniform(-1, 1, args.m) + 1j * rng.uniform(-1, 1, args.m))
    z = sf.sample_point(rng, family.flavor)
    residual = md.cm_rmx_residual(q, p, args.nu, family, z)
    passed = residual < args.tol
    echo = {"family": args.family, "N": args.n, "M": args.m,
            "nu": _complex_pair(args.nu), "tol": args.tol}
    body = {"cm_rmx_residual": residual}
    _emit(_report("check-cm-rmx", echo, args.seed, body, passed))
    return 0 if passed else 1


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    family, state, nu = md.load_model_config(cfg)
    icfg = dy.IntegratorConfig(dt=args.dt, steps=args.steps,
                               monitor_z=args.monitor_z,
                               monitor_every=args.monitor_every)
    rec = dy.integrate(state, icfg)
    try:
        with open(args.out, "w") as fh:
            dy.write_csv(rec, fh)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc}")
    report = dy.isospectrality_report(rec)
    body = {"drift": report, "rows": rec.rows(), "dt": args.dt,
            "steps": args.steps, "out": args.out}
    passed = rec.failure is None
    if not passed:
        body["failure"] = rec.failure
    _emit(_report("simulate", cfg, cfg.get("seed", 0), body, passed))
    return 0 if passed else 1


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
    p.add_argument("--flavor", choices=_FLAVOR_KEYS, required=True)
    p.add_argument("--tau", type=_parse_complex, default=None)
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_certify_functions)

    p = sub.add_parser("certify-rmatrix",
                       help="R-matrix identity certification")
    p.add_argument("--family", choices=rm.FAMILY_KEYS, required=True)
    p.add_argument("--n", type=_count, default=2)
    p.add_argument("--tau", type=_parse_complex, default=None)
    p.add_argument("--c", type=_parse_complex, default=None)
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

    p = sub.add_parser("check-cm-rmx",
                       help="R-matrix-valued Calogero-Moser Lax residual")
    p.add_argument("--family", choices=rm.FAMILY_KEYS, required=True)
    p.add_argument("--n", type=_count, default=2)
    p.add_argument("--m", type=_count, default=2)
    p.add_argument("--tau", type=_parse_complex, default=None)
    p.add_argument("--c", type=_parse_complex, default=None)
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
