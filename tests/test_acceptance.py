"""Acceptance gate: end-to-end certification of the whole construction.

Each test certifies one structural property of the package at its stated
tolerance and prints a single summary line with the measured worst
residuals (visible with pytest -s).
"""

import cmath
import contextlib
import io
import json
import time

import numpy as np

from toplax import cli
from toplax import dynamics as dy
from toplax import model as md
from toplax import rmatrix as rm
from toplax import specfun as sf
from toplax import tensor as tn

import reference as rf

TAU = 1j
TAU2 = 0.3 + 0.8j
C7 = 0.7 + 0.2j


def report_line(name, worst, tol):
    status = "PASS" if worst < tol else "FAIL"
    print(f"{status} {name}: worst residual {worst:.3e} (tol {tol:.0e})")


def test_01_scalar_identity_suite():
    t0 = time.monotonic()
    named = ("symmetry", "fay", "wp_difference", "unitarity",
             "e1_sum_product", "phi_local_expansion", "e1_local_expansion",
             "f_at_zero", "f_closed_form")
    worst_core = 0.0
    for flavor, tol in ((sf.Flavor.rational(), 1e-10),
                        (sf.Flavor.trigonometric(), 1e-10),
                        (sf.Flavor.elliptic(TAU), 1e-8),
                        (sf.Flavor.elliptic(TAU2), 1e-8)):
        rep = sf.scalar_identity_report(flavor, 100, seed=0,
                                        sector_sizes=())
        for name in named:
            value = rep["identities"][name]
            worst_core = max(worst_core, value / tol)
            assert value < tol, f"{flavor.kind}/{name}: {value:.3e}"
    elapsed = time.monotonic() - t0
    report_line("scalar identity suite", worst_core, 1.0)
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"


def certification_instances():
    return [
        (rm.make_family("xxx", N=1), 1e-8),
        (rm.make_family("xxx", N=2), 1e-8),
        (rm.make_family("xxx", N=3), 1e-8),
        (rm.make_family("11v"), 1e-8),
        (rm.make_family("xxz"), 1e-8),
        (rm.make_family("7v", C=C7), 1e-8),
        (rm.make_family("bb", N=2, tau=TAU), 1e-7),
        (rm.make_family("bb", N=3, tau=TAU), 1e-7),
    ]


def test_02_rmatrix_certification():
    t0 = time.monotonic()
    worst = 0.0
    for fam, tol in certification_instances():
        rep = rm.certify(fam, 50, seed=0, tol=tol)
        for name, entry in rep["properties"].items():
            worst = max(worst, entry["max_residual"] / tol)
            assert entry["pass"], \
                f"{fam.kind}(N={fam.N})/{name}: {entry['max_residual']:.3e}"
    elapsed = time.monotonic() - t0
    report_line("R-matrix certification", worst, 1.0)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


def test_03_lax_equation():
    t0 = time.monotonic()
    cases = [("xxx", 1, {}), ("xxx", 2, {}), ("11v", 2, {}),
             ("xxz", 2, {}), ("7v", 2, {"C": C7}),
             ("bb", 1, {"tau": TAU}), ("bb", 2, {"tau": TAU}),
             ("bb", 3, {"tau": TAU})]
    worst = 0.0
    for key, N, kwargs in cases:
        fam = rm.make_family(key, N=N, **kwargs)
        for M in (2, 3):
            for s in range(5):
                st = md.random_state(fam, M, 1.0, seed=100 * M + s)
                rng = np.random.default_rng(1000 + s)
                for _ in range(5):
                    z = sf.sample_point(rng, fam.flavor)
                    res = md.lax_check(st, [z])[0]
                    worst = max(worst, res)
                    assert res < 1e-9, f"{fam.kind} N={N} M={M}: {res:.3e}"
    elapsed = time.monotonic() - t0
    report_line("Lax equation", worst, 1e-9)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


def test_04_eom_equivalence():
    worst = 0.0
    for key, kwargs in (("xxx", {}), ("11v", {}), ("xxz", {}),
                        ("7v", {"C": C7}), ("bb", {"tau": TAU})):
        fam = rm.make_family(key, N=2, **kwargs)
        for s in range(5):
            st = md.random_state(fam, 3, 1.0, seed=200 + s)
            dq1, dp1, dS1 = rf.eom_flow(st)
            dq2, dp2, dS2 = md.bracket_flow(st)
            scale = max(np.max(np.abs(st.spin.assemble())), 1.0)
            diff = max(np.max(np.abs(np.array(dp1) - np.array(dp2))),
                       max(np.max(np.abs(dS1[i][j] - dS2[i][j]))
                           for i in range(3) for j in range(3)))
            worst = max(worst, diff / scale)
            assert diff / scale < 1e-10, f"{key} state {s}"
            assert np.max(np.abs(np.array(dq1) - np.array(dq2))) == 0.0
        # rank-1 states: the general diagonal blocks equal the
        # interacting-tops commutator form
        st = md.random_state(fam, 3, 1.0, seed=300, spin_mode="rank1")
        _, _, dSa = rf.eom_flow(st)
        dSb = rf.eom_commutator_diagonal(st)
        for i in range(3):
            diff = np.max(np.abs(dSa[i][i] - dSb[i]))
            worst = max(worst, diff)
            assert diff < 1e-10, f"{key} rank-1 site {i}"
    report_line("equations-of-motion equivalence", worst, 1e-10)


def test_05_exchange_relation():
    worst = 0.0
    for key, kwargs in (("xxx", {}), ("11v", {}), ("xxz", {}),
                        ("7v", {"C": C7}), ("bb", {"tau": TAU})):
        fam = rm.make_family(key, N=2, **kwargs)
        rng = np.random.default_rng(17)
        for s in range(5):
            st = md.random_state(fam, 2, 1.0, seed=400 + s)
            pairs = 0
            while pairs < 5:
                z = sf.sample_point(rng, fam.flavor)
                w = sf.sample_point(rng, fam.flavor)
                if fam.pole_distance(z - w) < 0.05:
                    continue
                pairs += 1
                res = md.exchange_residual(st, z, w)
                worst = max(worst, res)
                assert res < 1e-9, f"{key} state {s}: {res:.3e}"

    # scalar reduction: the q-derivative term carries S_ii - S_jj, written
    # entrywise as (S_ii - S_jj) f(z-w, q_ij), and dies on the constraints
    fam = rm.make_family("xxx", N=1)
    st = md.random_state(fam, 3, 0.8, seed=5)
    blocks = [[st.spin.blocks[i, j].copy() for j in range(3)]
              for i in range(3)]
    blocks[0][0][0, 0] += 0.3
    off = rf.replace(st, spin=md.SpinConfig(3, 1, blocks))
    z, w = 0.41 + 0.1j, 0.13 - 0.2j
    dr = rf.r_big_q_derivative_sum(off, z, w)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            s_diff = off.spin.blocks[i, i][0, 0] - off.spin.blocks[j, j][0, 0]
            entry = dr[3 * i + j, 3 * j + i]
            expect = s_diff * sf.phi_derivative_f(fam.flavor, z - w,
                                                  off.q[i] - off.q[j])
            assert abs(entry - expect) < 1e-12
    assert np.max(np.abs(rf.r_big_q_derivative_sum(st, z, w))) < 1e-13
    res = md.exchange_residual(st, z, w)
    worst = max(worst, res)
    assert res < 1e-9
    report_line("exchange relation", worst, 1e-9)


def test_06_reduction_fidelity():
    # (a) scalar reduction of the Lax matrix, rational and elliptic
    worst = 0.0
    for key, kwargs in (("xxx", {}), ("bb", {"tau": 0.8j})):
        fam = rm.make_family(key, N=1, **kwargs)
        fl = fam.flavor
        st = md.random_state(fam, 3, 0.7 + 0.2j, seed=8)
        z = 0.63 - 0.12j
        L = rf.build_L(st, z)
        for i in range(3):
            for j in range(3):
                s = st.spin.blocks[i, j][0, 0]
                if i == j:
                    expect = st.p[i] + s * sf.eisenstein_E1(fl, z)
                else:
                    expect = s * sf.kronecker_phi(fl, z, st.q[i] - st.q[j])
                worst = max(worst, abs(L[i, j] - expect))
                assert abs(L[i, j] - expect) < 1e-12

    # (b) single site: L = p 1 + tr_2(S_2 r_12(z)), checked against the
    # independent sin-basis expansion for the elliptic family
    fam = rm.make_family("bb", N=2, tau=TAU)
    fl = fam.flavor
    N = 2
    st = md.random_state(fam, 1, 1.0, seed=5)
    z = 0.27 + 0.41j
    S = st.spin.blocks[0, 0]
    acc = st.p[0] * np.eye(N, dtype=complex)
    for a1 in range(N):
        for a2 in range(N):
            Sa = np.trace(S @ tn.sin_basis([-a1], [-a2], N)[0]) / N
            if a1 == 0 and a2 == 0:
                coef = sf.eisenstein_E1(fl, z)
            else:
                coef = cmath.exp(2j * cmath.pi * a2 * z / N) \
                    * sf.kronecker_phi(fl, z, (a1 + a2 * fl.tau) / N)
            acc += Sa * coef * tn.sin_basis([a1], [a2], N)[0]
    diff = float(np.max(np.abs(rf.build_L(st, z) - acc)))
    worst = max(worst, diff)
    assert diff < 1e-12

    # (c) rank-1 spin: the two potentials coincide
    for key, kwargs in (("xxx", {}), ("11v", {}), ("bb", {"tau": TAU})):
        fam = rm.make_family(key, N=2, **kwargs)
        st = md.random_state(fam, 2, 1.0, seed=7, spin_mode="rank1")
        q = st.q[0] - st.q[1]
        U = rf.potential_U(fam, st.spin.blocks[0, 1], st.spin.blocks[1, 0], q)
        V = rf.potential_V(fam, st.spin.blocks[0, 0], st.spin.blocks[1, 1], q)
        d = abs(U - V) / max(abs(U), 1.0)
        worst = max(worst, d)
        assert d < 1e-12

    # (d) elliptic potential against its sector closed form at N = 2
    fam = rm.make_family("bb", N=2, tau=TAU)
    fl = fam.flavor
    rng = np.random.default_rng(3)
    Sij = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    Sji = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    q = 0.31 + 0.22j
    U = rf.potential_U(fam, Sij, Sji, q)
    total = 0j
    for a1 in range(2):
        for a2 in range(2):
            Sa = np.trace(Sij @ tn.sin_basis([-a1], [-a2], 2)[0]) / 2
            Sma = np.trace(Sji @ tn.sin_basis([a1], [a2], 2)[0]) / 2
            total += Sa * Sma * sf.eisenstein_E2(
                fl, (a1 + a2 * fl.tau) / 2 + q / 2)
    d = abs(U + total) / max(abs(U), 1.0)
    assert d < 1e-8
    report_line("reduction fidelity", worst, 1e-8)


def drift_summary(family, dt, steps, seed=21):
    st = md.random_state(family, 2, 1.0, seed=seed)
    rec = dy.integrate(st, dt, steps, monitor_z=(0.45 + 0.2j, 0.8 - 0.15j),
                       monitor_every=max(1, steps // 20))
    rep = dy.isospectrality_report(rec)
    out = {"H": rep["hamiltonian_drift"]}
    out.update(rep["lax_trace_drift"])
    for k in (1, 2, 3):
        out[f"trS{k}"] = rep["casimir_drift"][f"trS{k}"]
    return out


# per family: (dt, steps) of the coarse run, its step-halved run and the
# fine run, all over the same interval.  bb steps 10x finer (over a tenth
# of the interval): at dt 1e-2 seed 21 blows up.
CONSERVATION_RUNS = (
    ("xxx", {}, ((1e-2, 100), (5e-3, 200), (1e-3, 1000))),
    ("11v", {}, ((1e-2, 100), (5e-3, 200), (1e-3, 1000))),
    ("7v", {"C": C7}, ((1e-2, 100), (5e-3, 200), (1e-3, 1000))),
    ("bb", {"tau": TAU}, ((1e-3, 100), (5e-4, 200), (1e-4, 1000))),
)


def test_07_conservation_under_integration():
    t0 = time.monotonic()
    worst_fine = 0.0
    for key, kwargs, runs in CONSERVATION_RUNS:
        fam = rm.make_family(key, N=2, **kwargs)
        coarse, half, fine = (drift_summary(fam, dt, steps)
                              for dt, steps in runs)
        for name in coarse:
            # exactly conserved linear invariants drift only at rounding
            # level; the order test is meaningless below that floor
            if coarse[name] < 1e-13:
                continue
            ratio = coarse[name] / half[name]
            assert 8.0 < ratio < 32.0, \
                f"{key}/{name}: ratio {ratio:.2f} " \
                f"({coarse[name]:.2e} -> {half[name]:.2e})"
        for name, value in fine.items():
            worst_fine = max(worst_fine, value)
            assert value < 1e-6, f"{key}/{name}: {value:.3e}"
    elapsed = time.monotonic() - t0
    report_line("conservation under integration", worst_fine, 1e-6)
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s"


def test_08_cm_rmx_lax():
    worst = 0.0
    rng = np.random.default_rng(23)
    for key in ("xxx", "11v"):
        fam = rm.make_family(key, N=2)
        for M in (2, 3):
            q = md.random_positions(fam, M, rng)
            p = tuple(rng.uniform(-1, 1, M) + 1j * rng.uniform(-1, 1, M))
            z = sf.sample_point(rng, fam.flavor)
            res = md.cm_rmx_residual(q, p, 1.0, fam, z)
            worst = max(worst, res)
            assert res < 1e-9, f"{key} M={M}: {res:.3e}"
    # scalar reduction at N = 1
    fam = rm.make_family("xxx", N=1)
    q = md.random_positions(fam, 3, rng)
    p = tuple(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
    res = md.cm_rmx_residual(q, p, 1.0, fam, 0.29 + 0.33j)
    worst = max(worst, res)
    assert res < 1e-11
    report_line("R-matrix-valued CM Lax", worst, 1e-9)


def test_09_elliptic_basis_identities():
    fl = sf.Flavor.elliptic(TAU)
    rng = np.random.default_rng(29)
    worst = 0.0
    for N in (2, 3):
        draws = np.array([sf._sector_draw(rng, fl, N) for _ in range(20)])
        for name, values in sf._sector_residuals(fl, N, draws).items():
            value = np.max(values)
            worst = max(worst, value)
            assert value < 1e-8, f"N={N}/{name}: {value:.3e}"
    report_line("elliptic basis identities", worst, 1e-8)


def test_10_cli_determinism(tmp_path):
    cfg = {"family": "xxx", "N": 2, "M": 2, "nu": [1.0, 0.0],
           "spin_mode": "general", "seed": 9}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "traj.csv"
    commands = [
        ["certify-functions", "--flavor", "rational", "--samples", "20",
         "--seed", "0"],
        ["certify-rmatrix", "--family", "xxx", "--samples", "10",
         "--seed", "1"],
        ["check-lax", "--config", str(cfg_path), "--z-samples", "3"],
        ["check-exchange", "--config", str(cfg_path), "--pairs", "3"],
        ["check-cm-rmx", "--family", "xxx", "--nu", "1,0", "--seed", "2"],
        ["simulate", "--config", str(cfg_path), "--dt", "0.001",
         "--steps", "20", "--monitor-z", "0.4,0.2",
         "--out", str(out_csv)],
    ]
    for argv in commands:
        outputs = []
        files = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            assert code == 0, argv[0]
            outputs.append(buf.getvalue().encode())
            if argv[0] == "simulate":
                files.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1], f"{argv[0]} output not reproducible"
        if files:
            assert files[0] == files[1], "trajectory CSV not reproducible"
    print("PASS CLI determinism: all 6 commands byte-identical across runs")
