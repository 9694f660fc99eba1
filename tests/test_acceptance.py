"""Acceptance battery: eleven end-to-end criteria, one per test, each
printing a single PASS/FAIL line with the measured defect and the
tolerance it was held to.  Run `pytest tests/test_acceptance.py` to see
the lines (they bypass output capture)."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tfkit
from tfkit.errors import GroupMismatchError
from tfkit.frames import (
    GaborSystem,
    atomic_expand,
    frame_bounds,
    gabor_synthesize,
    partial_frame_sum,
)
from tfkit.groups import make_group, make_lattice
from tfkit.kernels import (
    compose,
    fourier_operator,
    identity_operator,
    inv_fourier_operator,
    kernel_from_operator,
    kernel_signal,
    operator_m1_norm,
    operator_matrix,
    operator_minf_norm,
    rank_one,
)
from tfkit.modspaces import empirical_mpq_opnorms, mpq_bounds, stft_probes
from tfkit.regnets import (
    box_mask,
    check_regularizing,
    compose_approx,
    gabor_partial_net,
    localization_net,
    pc_net,
    sandwich,
    standard_probes,
)
from tfkit.signals import (
    Signal,
    dirac,
    gauss,
    inner,
    l2_norm,
    pair_bilinear,
    random_signal,
    tensor,
)
from tfkit.transform import m1_norm, mod_norm, stft, stft_invert

from oracles import normalized_gauss, onb_system, random_operator
from report_diff import read_tree, tree_moves

GROUP_PAIRS = [((8,), (8,)), ((5,), (7,)), ((2, 3), (4,))]


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"acceptance {number:02d} {name}: {status} ({detail})")


def test_c01_kernel_operator_bijection(capsys):
    tol = 1e-12
    worst = 0.0
    for orders1, orders2 in GROUP_PAIRS:
        g1, g2 = make_group(orders1), make_group(orders2)
        for seed in range(50):
            op = random_operator(g1, g2, seed)
            rebuilt = kernel_from_operator(op.apply, g1)
            worst = max(worst, float(np.max(np.abs(rebuilt.kernel - op.kernel))))
    ok = worst <= tol
    report(
        capsys,
        1,
        "operator<->kernel bijection",
        ok,
        f"max roundtrip defect {worst:.3e} <= {tol:g}, 50 ops x 3 group pairs",
    )
    assert ok


def test_c02_composition_matches_matrix_product(capsys):
    tol_dense, tol_assoc = 1e-12, 1e-10
    g1, g2, g3, g4 = (make_group(o) for o in ((8,), (5,), (7,), (8,)))
    w1, w2, w3 = normalized_gauss(g1), normalized_gauss(g2), normalized_gauss(g3)
    worst_dense = 0.0
    worst_assoc = 0.0
    worst_ratio = 0.0
    for seed in range(50):
        a = random_operator(g1, g2, 3 * seed)
        b = random_operator(g2, g3, 3 * seed + 1)
        c = random_operator(g3, g4, 3 * seed + 2)
        ab = compose(a, b)
        dense = operator_matrix(b) @ operator_matrix(a)
        worst_dense = max(
            worst_dense, float(np.max(np.abs(operator_matrix(ab) - dense)))
        )
        left = compose(ab, c)
        right = compose(a, compose(b, c))
        worst_assoc = max(
            worst_assoc, float(np.max(np.abs(left.kernel - right.kernel)))
        )
        num = operator_m1_norm(ab, w1, w3)
        den = operator_m1_norm(a, w1, w2) * operator_m1_norm(b, w2, w3)
        worst_ratio = max(worst_ratio, num / den)
    ok = worst_dense <= tol_dense and worst_assoc <= tol_assoc
    report(
        capsys,
        2,
        "composition law",
        ok,
        f"dense defect {worst_dense:.3e} <= {tol_dense:g}, associativity "
        f"{worst_assoc:.3e} <= {tol_assoc:g}, submultiplicativity ratio "
        f"{worst_ratio:.6f} over 50 pairs",
    )
    assert ok


def test_c03_trace_formulas(capsys):
    tol_cyc, tol_ro = 1e-10, 1e-12
    g = make_group((6,))
    worst_exact = 0.0
    worst_cyc = 0.0
    worst_ro = 0.0
    for seed in range(50):
        op = random_operator(g, g, seed)
        diag = complex(np.sum(np.diag(op.kernel))) * float(g.weight)
        worst_exact = max(worst_exact, abs(op.trace() - diag))
        a = random_operator(g, g, 1000 + 2 * seed)
        b = random_operator(g, g, 1001 + 2 * seed)
        worst_cyc = max(worst_cyc, abs(compose(a, b).trace() - compose(b, a).trace()))
        f1 = random_signal(g, 2000 + 2 * seed)
        f2 = random_signal(g, 2001 + 2 * seed)
        worst_ro = max(
            worst_ro, abs(rank_one(f1, f2).trace() - pair_bilinear(f1, f2))
        )
    ok = worst_exact == 0.0 and worst_cyc <= tol_cyc and worst_ro <= tol_ro
    report(
        capsys,
        3,
        "trace formulas",
        ok,
        f"diagonal-sum defect {worst_exact:.1e} (exact), cyclicity "
        f"{worst_cyc:.3e} <= {tol_cyc:g}, rank-one {worst_ro:.3e} <= {tol_ro:g}",
    )
    assert ok


def test_c04_fourier_delta_collapse(capsys):
    tol_kernel, tol_net = 1e-12, 1e-10
    worst = 0.0
    for n in (4, 8, 16, 32):
        g = make_group((n,))
        chain = compose(fourier_operator(g), inv_fourier_operator(g))
        worst = max(
            worst,
            float(np.max(np.abs(chain.kernel - identity_operator(g).kernel))) / n,
        )
    g = make_group((8,))
    radii = (1, 2, 3, 4)

    def loc_net(grp):
        return localization_net(
            normalized_gauss(grp), [box_mask(grp, r, r) for r in radii]
        )

    nets = (loc_net(g), loc_net(g.dual()), loc_net(g))
    rep = compose_approx(fourier_operator(g), inv_fourier_operator(g), nets)
    staged_ok = all(
        later <= earlier * (1 + 1e-9) + 1e-15
        for earlier, later in zip(rep.kernel_errors, rep.kernel_errors[1:])
    )
    final = max(rep.kernel_errors[-1] / 8.0, rep.final_weak_error)
    ok = worst <= tol_kernel and staged_ok and final <= tol_net
    report(
        capsys,
        4,
        "Fourier inversion collapses to the identity kernel",
        ok,
        f"relative kernel defect {worst:.3e} <= {tol_kernel:g} for N in 4..32, "
        f"staged approximants decreasing={staged_ok}, final {final:.3e} <= {tol_net:g}",
    )
    assert ok


def test_c05_stft_inversion_and_energy(capsys):
    tol = 1e-10
    worst_inv = 0.0
    worst_pairing = 0.0
    for orders in ((8,), (5,), (2, 3)):
        g = make_group(orders)
        window = gauss(g, 1.0)
        probes = [dirac(g, x) for x in g.elements()]
        probes += [random_signal(g, seed) for seed in range(20)]
        for f in probes:
            back = stft_invert(window, stft(window, f))
            worst_inv = max(worst_inv, float(np.max(np.abs(back.values - f.values))))
        wp = float(g.weight * g.dual_weight)
        for seed in range(5):
            f1, f2 = random_signal(g, 100 + seed), random_signal(g, 200 + seed)
            g2 = gauss(g, 0.5)
            lhs = (
                np.sum(stft(window, f1).values * np.conj(stft(g2, f2).values)) * wp
            )
            rhs = inner(f1, f2) * np.conj(inner(window, g2))
            worst_pairing = max(worst_pairing, abs(lhs - rhs))
    ok = worst_inv <= tol and worst_pairing <= tol
    report(
        capsys,
        5,
        "short-time transform inversion and energy pairing",
        ok,
        f"inversion defect {worst_inv:.3e} <= {tol:g} on basis + 20 random "
        f"per group, pairing identity defect {worst_pairing:.3e} <= {tol:g}",
    )
    assert ok


def test_c06_tensor_multiplicativity(capsys):
    tol = 1e-10
    ga, gb = make_group((4,)), make_group((3,))
    wa, wb = gauss(ga, 1.0), gauss(gb, 1.0)
    w_big = tensor(wa, wb)
    worst = 0.0
    for seed in range(25):
        f = random_signal(ga, seed)
        h = random_signal(gb, 500 + seed)
        big = tensor(f, h)
        m1_split = m1_norm(f, wa) * m1_norm(h, wb)
        m1_joint = m1_norm(big, w_big)
        worst = max(worst, abs(m1_joint - m1_split) / m1_split)
        minf_split = mod_norm(f, wa, math.inf) * mod_norm(h, wb, math.inf)
        minf_joint = mod_norm(big, w_big, math.inf)
        worst = max(worst, abs(minf_joint - minf_split) / minf_split)
    ok = worst <= tol
    report(
        capsys,
        6,
        "windowed norms multiply across tensor factors",
        ok,
        f"worst relative defect {worst:.3e} <= {tol:g} over 25 pairs, m1 and sup",
    )
    assert ok


def test_c07_operator_norm_two_paths(capsys):
    tol_two, tol_ro = 1e-8, 1e-10
    g = make_group((6,))
    w1, w2 = normalized_gauss(g), normalized_gauss(g, 0.7)
    worst_two = 0.0
    for seed in range(10):
        op = random_operator(g, g, seed)
        direct = operator_m1_norm(op, w1, w2)
        lifted = m1_norm(kernel_signal(op), tensor(w1, w2))
        worst_two = max(worst_two, abs(direct - lifted) / direct)
    worst_ro = 0.0
    for seed in range(10):
        f1, f2 = random_signal(g, seed), random_signal(g, 700 + seed)
        got = operator_m1_norm(rank_one(f1, f2), w1, w2)
        want = m1_norm(f1, w1) * m1_norm(f2, w2)
        worst_ro = max(worst_ro, abs(got - want) / want)
    ok = worst_two <= tol_two and worst_ro <= tol_ro
    report(
        capsys,
        7,
        "operator phase-space norm, two routes",
        ok,
        f"table-vs-kernel-signal defect {worst_two:.3e} <= {tol_two:g}, "
        f"rank-one factorization {worst_ro:.3e} <= {tol_ro:g}",
    )
    assert ok


def test_c08_frame_bounds_and_reconstruction(capsys):
    tol_bounds, tol_rep = 1e-10, 1e-9
    worst_bounds = 0.0
    for orders in ((8,), (2, 3)):
        g = make_group(orders)
        for window in (gauss(g, 1.0), random_signal(g, 5)):
            a, b = frame_bounds(GaborSystem(window, make_lattice(g, 1, 1)))
            energy = l2_norm(window) ** 2
            worst_bounds = max(
                worst_bounds, abs(a - energy) / energy, abs(b - energy) / energy
            )
    g = make_group((8,))
    lattice = make_lattice(g, 2, 2)
    worst_rep = 0.0
    for wseed, spread in enumerate((0.8, 1.0, 1.5, 2.0)):
        system = GaborSystem(gauss(g, spread), lattice)
        for seed in range(5):
            f = random_signal(g, 10 * wseed + seed)
            rebuilt = gabor_synthesize(system, atomic_expand(f, system))
            worst_rep = max(
                worst_rep, float(np.max(np.abs(rebuilt.values - f.values))) / l2_norm(f)
            )
    system = onb_system(g)
    points = system.lattice.points()
    f = random_signal(g, 77)
    worst_pyth = 0.0
    running = 0.0
    for k, point in enumerate(points, start=1):
        atoms_val = inner(f, Signal(g, gabor_synthesize(system, np.eye(len(points))[k - 1]).values))
        running += system.weight * abs(atoms_val) ** 2
        quad = inner(partial_frame_sum(system, k).apply(f), f).real
        worst_pyth = max(worst_pyth, abs(quad - running))
    worst_pyth = max(worst_pyth, abs(running - l2_norm(f) ** 2))
    ok = worst_bounds <= tol_bounds and worst_rep <= tol_rep and worst_pyth <= tol_rep
    report(
        capsys,
        8,
        "frame bounds, dual reconstruction, Pythagoras",
        ok,
        f"full-lattice bound defect {worst_bounds:.3e} <= {tol_bounds:g}, "
        f"reconstruction {worst_rep:.3e} <= {tol_rep:g} over 20 pairs, "
        f"orthonormal partial sums {worst_pyth:.3e} <= {tol_rep:g}",
    )
    assert ok


def test_c09_regularizing_nets(capsys):
    tol = 1e-10
    g = make_group((8,))
    window = normalized_gauss(g)
    probes = standard_probes(g, 42)

    def build(grp, construction):
        if construction == "pc":
            return pc_net(grp, (2.0, 1.0, 0.5, 0.25))
        if construction == "loc":
            return localization_net(
                normalized_gauss(grp), [box_mask(grp, r, r) for r in (1, 2, 3, 4)]
            )
        system = onb_system(grp)
        size = system.lattice.size
        return gabor_partial_net(system, [max(1, size * k // 4) for k in (1, 2, 3, 4)])

    worst_final = 0.0
    all_passed = True
    for construction in ("pc", "loc", "gabor"):
        net = build(g, construction)
        cert = check_regularizing(net, probes, window, tol)
        all_passed = all_passed and cert.passed
        worst_final = max(worst_final, max(cert.final_m1_errors))

    target = fourier_operator(g)
    worst_sandwich = 0.0
    for construction in ("pc", "loc", "gabor"):
        staged = sandwich(target, build(g, construction), build(g.dual(), construction))
        diff = float(np.max(np.abs(staged[-1].kernel - target.kernel)))
        worst_sandwich = max(worst_sandwich, diff / float(np.max(np.abs(target.kernel))))

    nets = (build(g, "pc"), build(g.dual(), "pc"), build(g, "pc"))
    rep = compose_approx(fourier_operator(g), inv_fourier_operator(g), nets, tol=tol)
    compose_final = max(rep.final_weak_error, rep.kernel_errors[-1] / 8.0)

    ok = (
        all_passed
        and worst_final <= tol
        and worst_sandwich <= tol
        and compose_final <= tol
    )
    report(
        capsys,
        9,
        "regularizing nets certify and converge",
        ok,
        f"3 constructions certified={all_passed}, final m1 {worst_final:.3e} <= {tol:g}, "
        f"sandwich defect {worst_sandwich:.3e} <= {tol:g}, staged inversion "
        f"{compose_final:.3e} <= {tol:g}",
    )
    assert ok


def test_c10_mixed_norm_domination(capsys):
    g = make_group((8,))
    w = normalized_gauss(g)
    w_dual = normalized_gauss(g.dual())
    probes = standard_probes(g, 7) + stft_probes(g, w, 8, count=3)
    operators = (
        ("rank_one", rank_one(random_signal(g, 1), random_signal(g, 2)), w),
        ("identity", identity_operator(g), w),
        ("fourier", fourier_operator(g), w_dual),
        ("random", random_operator(g, g, 3), w),
    )
    worst_ratio = 0.0
    exponents = (1, 2, math.inf)
    for _, op, g2 in operators:
        bounds = mpq_bounds(op, w, g2, exponents, exponents)
        observations = empirical_mpq_opnorms(op, w, g2, exponents, exponents, probes)
        for i, p in enumerate(exponents):
            for j, q in enumerate(exponents):
                bound = bounds[i, j]
                observed = observations[i, j]
                worst_ratio = max(worst_ratio, observed / bound)
    gaps = []
    for n in (4, 8, 16):
        gn = make_group((n,))
        wn = normalized_gauss(gn)
        cond = mpq_bounds(identity_operator(gn), wn, wn, [2], [2])[0, 0]
        emp = empirical_mpq_opnorms(
            identity_operator(gn), wn, wn, [2], [2], stft_probes(gn, wn, 9, count=3)
        )[0, 0]
        gaps.append(f"N={n}: {cond / emp:.4f}")
    ok = worst_ratio <= 1 + 1e-9
    report(
        capsys,
        10,
        "mixed-norm condition dominates the empirical norm",
        ok,
        f"worst empirical/bound ratio {worst_ratio:.12f} <= 1+1e-9 over "
        f"4 operators x 9 exponent pairs; identity (2,2) gap " + ", ".join(gaps),
    )
    assert ok


def checkout_env(**extra) -> dict:
    """The environment of a tfkit subprocess: the checkout under test,
    never an installed tfkit."""
    return {**os.environ, "PYTHONPATH": str(Path(tfkit.__file__).resolve().parents[1]), **extra}


def test_c11_cli_reports_are_byte_identical(capsys, tmp_path):
    env = checkout_env()
    trees = []
    codes = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "tfkit.cli", "all", "--seed", "7", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=600,
            env=env,
        )
        codes.append(proc.returncode)
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = codes == [0, 0] and trees[0] == trees[1] and len(trees[0]) == 8
    report(
        capsys,
        11,
        "command line reports are reproducible",
        ok,
        f"`python -m tfkit.cli all --seed 7` twice: exit codes {codes}, "
        f"{len(trees[0])} files byte-identical={trees[0] == trees[1]}",
    )
    assert ok


def reports_under_blas_threads(tmp_path, argv):
    """The report trees and stdout of `python -m tfkit.cli *argv` under
    one and under two BLAS threads, each run asserted to exit 0."""
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "tfkit.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=600,
            env=checkout_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        tree = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((tree, proc.stdout.replace(str(out), "OUT")))
    return runs


def test_blas_thread_count_leaves_frames_csv_unchanged(tmp_path):
    # report-large's frames section: 256 rows, enough for a threaded
    # matrix product in the sweep to round some row differently; the
    # whole report, summary.json's bounds and dual norm included
    argv = ["frames", "--group", "64", "--window", "gauss:8", "--a", "4", "--b", "4"]
    (tree, _), (other, _) = reports_under_blas_threads(tmp_path, argv)
    assert sorted(tree) == ["frames.csv", "summary.json"]
    assert tree == other


def test_blas_thread_count_leaves_every_report_unchanged(tmp_path):
    # the suites that take BLAS products besides the frames sweep: the
    # regnet compose and sandwich products and localization_net on Z/32,
    # and the kernel checks at report-large's sizes; the other sections
    # are small, so each run takes under a second
    config = {
        "norms": {"groups": [[8]]},
        "kernel": {
            "pairs": [[[24], [24]], [[4, 6], [24]]],
            "chain": [[24], [12], [28], [24]],
            "count": 1,
        },
        "frames": {"group": [8]},
        "regnet": {"group": [32]},
        "mpq": {"group": [8], "gap_orders": [8]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    runs = reports_under_blas_threads(tmp_path, ["all", "--config", str(path), "--seed", "0"])
    (tree, stdout), (other, other_stdout) = runs
    assert len(tree) == 8
    assert tree == other
    assert stdout == other_stdout


# Zak-domain designs with P > 1, where the spectrum multiplies P x P
# matrices: Z/12 with a = b = 3 (P = 3) and Z/6 x Z/10 with a = (2, 2),
# b = (3, 2) (P = 2); the report-level checks above reach only P = 1
ZAK_DESIGNS = (((12,), 3, 3, 2.0), ((6, 10), (2, 2), (3, 2), 1.0))
ZAK_DESIGN_SCRIPT = f"""
from tfkit import GaborSystem, canonical_dual, frame_bounds, gauss, make_group
from tfkit import make_lattice, tight_window
for orders, a, b, spread in {ZAK_DESIGNS!r}:
    grp = make_group(orders)
    system = GaborSystem(gauss(grp, spread), make_lattice(grp, a, b))
    print(repr(frame_bounds(system)))
    print(canonical_dual(system).values.tobytes().hex())
    print(tight_window(system).values.tobytes().hex())
"""


def test_blas_thread_count_leaves_zak_designs_unchanged():
    for orders, a, b, spread in ZAK_DESIGNS:
        grp = make_group(orders)
        assert GaborSystem(gauss(grp, spread), make_lattice(grp, a, b)).spectrum[1].shape[-1] > 1
    outputs = [
        subprocess.run(
            [sys.executable, "-c", ZAK_DESIGN_SCRIPT],
            capture_output=True,
            text=True,
            timeout=600,
            env=checkout_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0].splitlines()) == 3 * len(ZAK_DESIGNS)
    assert outputs[0] == outputs[1]


# The reference reports: `tfkit all --seed 0` and the report-large config
# of benchmarks/workloads.json at --seed 3, each tree with its stdout, and
# the build that wrote them.  Bytes are promised on one build only.
REPORTS = Path(__file__).parent / "reports"
WORKLOADS = Path(__file__).parents[1] / "benchmarks" / "workloads.json"


def build_platform() -> dict:
    """The Python, NumPy and BLAS build the report bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def reference_argv(name: str, work: Path) -> list:
    """The `tfkit` arguments of the reference report name, writing the
    report-large config into work when it needs it."""
    if name == "default":
        return ["all", "--seed", "0"]
    config = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"][name]["config"]
    path = work / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["all", "--seed", "3", "--config", str(path)]


def report_tree(work: Path, argv) -> dict:
    """The report tree of `python -m tfkit.cli *argv` written under work,
    with its stdout as the file `stdout` (the report directory spelled
    OUT); the run must exit 0."""
    out = work / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "tfkit.cli", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return {**read_tree(out), "stdout": proc.stdout.replace(str(out), "OUT").encode()}


@pytest.mark.parametrize("name", ["default", "report-large"])
def test_reports_match_the_reference(tmp_path, name):
    recorded = json.loads((REPORTS / "platform.json").read_text(encoding="utf-8"))
    if recorded != build_platform():
        pytest.skip(f"the reference bytes are from {recorded}, this build is {build_platform()}")
    got = report_tree(tmp_path, reference_argv(name, tmp_path))
    moves = tree_moves(read_tree(REPORTS / name), got)
    assert not moves, f"{len(moves)} cells moved from tests/reports/{name}:\n" + "\n".join(moves)
