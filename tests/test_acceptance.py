"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are fixed here, not tuned: statistical checks use the stated
sigma bounds, algebraic identities the stated absolute tolerances.
"""

import filecmp
import itertools
import json
import os
import time

import numpy as np
from scipy import stats

from qutrit_bench.analysis import (
    FringeScan,
    bell_threshold_visibility,
    fit_central_fringe,
    i3_from_probability_table,
    optimize_cglmp,
    phase_ratio,
    visibility,
)
from qutrit_bench.cli import main as cli_main
from qutrit_bench.protocols import (
    EveModel,
    mub_bases,
    run_coin_toss,
    run_qkd,
)
from qutrit_bench.source import (
    ArmPhases,
    InterferometerConfig,
    herald_state,
    joint_distribution,
    step_distributions,
)
from qutrit_bench.timetags import (
    RunConfig,
    build_histogram,
    find_coincidences,
    peak_areas,
    post_select,
    simulate_run,
)
from test_references import central_fringe_model, lambda_from_visibility, local_strategy_tables, whole_stream

UNIT_PS = 1200
PEAK_WEIGHTS = {"outer_right": 1 / 9, "right": 2 / 9, "central": 3 / 9, "left": 2 / 9, "outer_left": 1 / 9}


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_five_peak_histogram():
    """1e6 ideal pairs: areas 1:2:3:2:1 within 3 sigma, centers exact, < 30 s."""
    started = time.monotonic()
    cfg = RunConfig(
        pair_rate_hz=2.0e5,
        duration_s=5.0,
        seed=190401,
        interferometer=InterferometerConfig(),
        lam=1.0,
    )
    stream = whole_stream(simulate_run(cfg))
    coincidences = find_coincidences(stream, max_delta_ps=3 * UNIT_PS)
    areas = peak_areas(coincidences, 150.0, UNIT_PS)
    total = sum(areas.values())
    area_ok = True
    for peak, weight in PEAK_WEIGHTS.items():
        sigma = np.sqrt(total * weight * (1 - weight))
        if abs(areas[peak] - total * weight) > 3 * sigma:
            area_ok = False

    hist = build_histogram(coincidences, UNIT_PS)
    top5 = sorted(hist.bins, key=hist.bins.get, reverse=True)[:5]
    centers = sorted(hist.bin_center_ps(i) for i in top5)
    centers_ok = centers == [-2400.0, -1200.0, 0.0, 1200.0, 2400.0]
    elapsed = time.monotonic() - started
    report(
        1,
        area_ok and centers_ok and elapsed < 30.0 and total > 9e5,
        f"areas {areas} (1:2:3:2:1 within 3 sigma: {area_ok}), "
        f"peak centers {centers} ns*1e-3 exact: {centers_ok}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_2_fringe_law():
    """MC matches the kernel's central table (chi^2 p > 0.001 for >= 99/100
    seeds at ~1e4 central coincidences); its extrema exact to 1e-12."""
    itf = InterferometerConfig(alice=ArmPhases(0.7, 0.7 + 0.4))  # phi_r = 0.7, phi_l = 0.4
    lam = 0.9
    central = joint_distribution(itf, lam)[2]
    expected_p = (central / central.sum()).ravel()
    passes = 0
    for seed in range(100):
        cfg = RunConfig(
            pair_rate_hz=2.0e5,
            duration_s=0.155,  # ~3.1e4 pairs -> ~1e4 central coincidences
            seed=seed,
            interferometer=itf,
            lam=lam,
        )
        coincidences = find_coincidences(whole_stream(simulate_run(cfg)), 3 * UNIT_PS)
        counts = post_select(coincidences, "central", 150.0, UNIT_PS).ravel()
        _, p_value = stats.chisquare(counts, f_exp=counts.sum() * expected_p)
        if p_value > 0.001:
            passes += 1

    # 1/3 at phi_r = phi_l = 0 and zero at phi_r = phi_l = 2*pi/3 (dials 2*pi/3, 4*pi/3)
    max_exact = abs(3.0 * joint_distribution(InterferometerConfig(), 1.0)[2, 0, 0] - 1.0 / 3.0)
    two_thirds_pi = 2.0 * np.pi / 3.0
    at_zero = InterferometerConfig(alice=ArmPhases(two_thirds_pi, 2.0 * two_thirds_pi))
    min_exact = abs(3.0 * joint_distribution(at_zero, 1.0)[2, 0, 0])
    report(
        2,
        passes >= 99 and max_exact < 1e-12 and min_exact < 1e-12,
        f"chi^2 p > 0.001 for {passes}/100 seeds (need >= 99); "
        f"law max error {max_exact:.1e}, min error {min_exact:.1e} (need < 1e-12)",
    )


def test_criterion_3_visibility_chain():
    """lam = 0.9688 gives V = 0.979 +- 0.005 on an equal-rate scan; the
    inverse map returns 0.9688 +- 1e-4."""
    lam = 0.9688
    phases = np.linspace(0.0, 4.0 * np.pi, 2400)
    rng = np.random.default_rng(190402)
    # Alice's dials (phi, 2*phi) drive phi_r = phi_l = phi, Bob's stay at zero;
    # P(0,0 | central) = 3 * P[2, 0, 0].
    dials = np.column_stack([phases, 2.0 * phases, np.zeros((phases.size, 2))])
    tables = step_distributions(InterferometerConfig(), lam, dials)
    counts = rng.poisson(27000.0 * 3.0 * tables[:, 2, 0, 0])
    fit = visibility(FringeScan(phases, counts), (1.0, 2.0))  # both phases advance at rate 1
    v_ok = abs(fit.visibility - 0.979) <= 0.005
    lam_hat = lambda_from_visibility(0.979)
    lam_ok = abs(lam_hat - 0.9688) <= 1e-4
    report(
        3,
        v_ok and lam_ok,
        f"measured V = {fit.visibility:.4f} (0.979 +- 0.005), "
        f"lambda(0.979) = {lam_hat:.5f} (0.9688 +- 1e-4)",
    )


def test_criterion_4_bell_threshold_chain():
    """I3 max, lambda_crit, v_bell and the 34-sigma arithmetic, < 60 s."""
    started = time.monotonic()
    optimum = optimize_cglmp()
    lambda_crit, v_bell = bell_threshold_visibility()
    n_sigma = (0.979 - v_bell) / 0.006
    elapsed = time.monotonic() - started
    ok = (
        abs(optimum.value - 2.8729) <= 1e-3
        and abs(lambda_crit - 0.6962) <= 1e-3
        and abs(v_bell - 0.7746) <= 1e-3
        and abs(n_sigma - 34.0) <= 1.0
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"I3max = {optimum.value:.5f} (2.8729 +- 1e-3), lambda_crit = {lambda_crit:.5f} "
        f"(0.6962 +- 1e-3), v_bell = {v_bell:.5f} (0.7746 +- 1e-3), "
        f"(0.979 - v_bell)/0.006 = {n_sigma:.2f} (34 +- 1), runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_5_local_bound():
    """All 81 deterministic local strategies give I3 <= 2, exactly."""
    values = np.array([i3_from_probability_table(table) for table in local_strategy_tables()])
    ok = values.size == 81 and np.all(values <= 2.0) and np.max(values) == 2.0
    report(5, ok, f"{values.size} strategies, max I3 = {np.max(values)} (local bound 2)")


def test_criterion_6_phase_tracking():
    """Synthetic scans at rate ratios 7 and 1 recover n to 0.2 and 0.05."""
    def central_scan(n, seed):
        u = np.linspace(0.0, 5.0 * np.pi, 1600)
        counts = central_fringe_model(u, 500.0, 1.0, 1.0, n, 0.0, 0.0)
        counts = np.clip(counts, 0.0, None)  # exact zeros can round to -1e-14
        return FringeScan(u, np.random.default_rng(seed).poisson(counts).astype(float))

    # start rates 1% off the true (omega, n) = (1, 7) and (1, 1)
    fit7 = fit_central_fringe(central_scan(7.0, 1), (1.01, 7.07))
    fit1 = fit_central_fringe(central_scan(1.0, 2), (1.01, 1.0))

    # satellite route: the left/right fringe-rate ratio
    u = np.linspace(0.0, 1.0, 1400)
    left = FringeScan(u, 400.0 * (1.0 + np.cos(2 * np.pi * 7.0 * u + 0.4)))
    right = FringeScan(u, 400.0 * (1.0 + np.cos(2 * np.pi * 1.0 * u - 0.2)))
    ratio = phase_ratio(left, right, (2 * np.pi * 7.0 * 1.01, 2 * np.pi * 0.99))

    ok = (
        abs(fit7.n_hat - 7.0) <= 0.2
        and abs(fit1.n_hat - 1.0) <= 0.05
        and abs(ratio - 7.0) <= 0.2
    )
    report(
        6,
        ok,
        f"central-fit n: {fit7.n_hat:.3f} (7 +- 0.2), {fit1.n_hat:.3f} (1 +- 0.05); "
        f"satellite ratio {ratio:.3f} (7 +- 0.2)",
    )


def test_criterion_7_qkd():
    """QBER behavior, thresholds, post-selection ratio and basis unbiasedness."""
    clean = run_qkd(rounds=120000, mode="four_basis", lam=1.0, seed=41)
    a_ok = clean.qber == 0.0

    noisy = run_qkd(rounds=1300000, mode="four_basis", lam=0.9688, seed=42)
    b_ok = (
        noisy.sifted_count >= 100000
        and abs(noisy.qber - 0.0208) <= 0.003
        and all(v == "secure" for v in noisy.verdicts.values())
    )

    eve4 = run_qkd(rounds=700000, mode="four_basis", lam=1.0, eve=EveModel.intercept_resend(), seed=43)
    eve2 = run_qkd(
        rounds=700000,
        mode="two_basis",
        lam=1.0,
        eve=EveModel.intercept_resend(("computational", "fourier0")),
        seed=44,
    )
    c_ok = abs(eve4.qber - 0.50) <= 0.01 and abs(eve2.qber - 1.0 / 3.0) <= 0.01

    sigma = np.sqrt((1 / 3) * (2 / 3) / clean.rounds)
    d_ok = abs(clean.postselect_ratio - 1 / 3) <= 3 * sigma

    overlaps_ok = True
    for b1, b2 in itertools.combinations(mub_bases(), 2):
        for v in b1:
            for w in b2:
                if abs(abs(np.vdot(v, w)) ** 2 - 1 / 3) > 1e-12:
                    overlaps_ok = False

    report(
        7,
        a_ok and b_ok and c_ok and d_ok and overlaps_ok,
        f"(a) clean QBER = {clean.qber} (exact 0: {a_ok}); "
        f"(b) QBER = {noisy.qber:.4f} at {noisy.sifted_count} sifted (2.08% +- 0.3%, secure: {b_ok}); "
        f"(c) intercept-resend QBER 4-basis {eve4.qber:.4f} (50% +- 1%), 2-basis {eve2.qber:.4f} "
        f"(33.3% +- 1%); (d) post-selection {clean.postselect_ratio:.4f} (1/3 +- 3 sigma); "
        f"(e) 54 MUB overlaps = 1/3 +- 1e-12: {overlaps_ok}",
    )


def test_criterion_8_coin_toss():
    """Honest noiseless run: perfect agreement, unbiased coin, balanced sides,
    satellite herald states exactly the two-path forms."""
    summary = run_coin_toss(rounds=100000, lam=1.0, seed=45)
    sigma_bias = 1.0 / np.sqrt(summary.rounds)
    sigma_frac = np.sqrt(0.25 / summary.rounds)
    stats_ok = (
        summary.agreement_rate == 1.0
        and abs(summary.outcome_bias) <= 3 * sigma_bias
        and abs(summary.left_fraction - 0.5) <= 3 * sigma_frac
    )

    # Each satellite herald is an equal-weight superposition of Bob's two
    # paths of that side: s, m for left and m, l for right.
    forms_ok = True
    for side, paths in (("left", [1, 1, 0]), ("right", [0, 1, 1])):
        target = np.asarray(paths) / np.sqrt(2.0)
        for detector in range(3):
            state = herald_state(side, detector, InterferometerConfig())
            if np.max(np.abs(np.abs(state) - target)) > 1e-12:
                forms_ok = False

    report(
        8,
        stats_ok and forms_ok,
        f"agreement = {summary.agreement_rate} (exact 1), bias = {summary.outcome_bias:+.4f} "
        f"(0 +- 3 sigma), left fraction = {summary.left_fraction:.4f} (0.5 +- 3 sigma), "
        f"herald states two-path to 1e-12: {forms_ok}",
    )


def test_criterion_9_determinism(tmp_path):
    """Re-running a manifest's config reproduces data files byte-identically."""
    config = {
        "experiment": "histogram",
        "run": {"pair_rate_hz": 2.0e5, "duration_s": 0.5, "seed": 46, "lambda": 0.9688},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["histogram", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["histogram", "--config", str(cfg_path), "--out", str(out2)])
    manifest = json.loads((out1 / "manifest.json").read_text())
    identical = True
    for name in manifest["outputs"]:
        if not filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name), shallow=False):
            identical = False
    report(
        9,
        code1 == 0 and code2 == 0 and identical and len(manifest["outputs"]) == 2,
        f"replayed {manifest['outputs']} byte-identical: {identical}",
    )
