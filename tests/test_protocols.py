import itertools
import tracemalloc

import numpy as np
import pytest

from qutrit_bench.errors import ConfigurationError
from qutrit_bench.protocols import (
    BASIS_IDS,
    EveModel,
    _write_qkd_trace,
    mub_bases,
    qber_thresholds,
    run_coin_toss,
    run_qkd,
)
from qutrit_bench.source import ArmPhases, CouplerRatios, InterferometerConfig, central_state, herald_state
from test_references import born_probability, white_noise_mixture

LAMBDAS = (1.0, 0.9688, 0.8)


def born_table(cfg, lam, alice, bob):
    """P(t, u): the noisy central path state on Alice's ket t and conj(Bob's ket u)."""
    rho = white_noise_mixture(central_state(cfg, 0, 0), lam)
    return np.array([[born_probability(rho, np.kron(alice[t], bob[u].conj())) for u in range(3)] for t in range(3)])


def matched_basis_qber(cfg, lam):
    """Born error rate of sifted four-basis rounds without an attacker."""
    return np.mean([1.0 - np.trace(born_table(cfg, lam, b, b)) for b in mub_bases()])


def intercept_resend_qber(cfg, lam):
    """Born error rate of sifted four-basis rounds when Eve measures in any of
    the four bases and resends the conjugate of the ket she found."""
    errors = []
    for b in mub_bases():
        for e in mub_bases():
            to_eve = born_table(cfg, lam, b, e)
            resend = np.abs(e.conj() @ b.T) ** 2  # [s, u] = |<e_s|b_u>|^2
            joint = to_eve @ resend
            errors.append(1.0 - np.trace(joint))
    return np.mean(errors)


def assert_within_3_sigma(rate, expected, n):
    sigma = np.sqrt(max(expected * (1.0 - expected), 0.0) / n)
    assert abs(rate - expected) <= 3.0 * sigma + 1e-12


class TestMubBases:
    def test_four_bases(self):
        bases = mub_bases()
        assert bases.shape == (4, 3, 3) and bases.dtype == complex
        assert not bases.flags.writeable
        # BASIS_IDS order: the computational basis, then fourier b with kets
        # (|0> + w^t |1> + w^(2t+b) |2>) / sqrt(3)
        assert BASIS_IDS == ("computational", "fourier0", "fourier1", "fourier2")
        assert np.array_equal(bases[0], np.eye(3))
        omega = np.exp(2j * np.pi / 3.0)
        for b in range(3):
            for t in range(3):
                ket = np.array([1.0, omega**t, omega ** (2 * t + b)]) / np.sqrt(3.0)
                assert np.max(np.abs(bases[b + 1, t] - ket)) < 1e-12

    def test_each_gram_matrix_is_identity(self):
        for basis in mub_bases():
            gram = basis @ basis.conj().T
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_all_54_cross_overlaps_are_one_third(self):
        bases = mub_bases()
        checked = 0
        for b1, b2 in itertools.combinations(bases, 2):
            for v in b1:
                for w in b2:
                    overlap = abs(np.vdot(v, w)) ** 2
                    assert overlap == pytest.approx(1.0 / 3.0, abs=1e-12)
                    checked += 1
        assert checked == 54


class TestHeraldState:
    def test_central_zero_phases_uniform(self):
        st = herald_state("central", 0, InterferometerConfig())
        assert np.max(np.abs(np.abs(st) - 1.0 / np.sqrt(3.0))) < 1e-12
        # up to a global phase this is (|s> + |m> + |l>)/sqrt(3)
        rel = st / st[0]
        assert np.max(np.abs(rel - 1.0)) < 1e-12

    def test_left_herald_spans_bob_short_medium(self):
        st = herald_state("left", 0, InterferometerConfig())
        assert abs(st[2]) == 0.0  # Bob's long path cannot fire
        assert abs(st[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(st[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_right_herald_spans_bob_medium_long(self):
        st = herald_state("right", 0, InterferometerConfig())
        assert abs(st[0]) == 0.0
        assert abs(st[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(st[2]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_detector_index_shifts_relative_phase(self):
        cfg = InterferometerConfig()
        rel = []
        for j in range(3):
            st = herald_state("left", j, cfg)
            rel.append(np.angle(st[1] / st[0]))
        diffs = np.diff(rel)
        for d in diffs:
            assert abs((d - 2 * np.pi / 3 + np.pi) % (2 * np.pi) - np.pi) < 1e-12

    def test_central_herald_follows_alice_dials(self):
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=0.8, phi_l=-0.4))
        st = herald_state("central", 0, cfg)
        assert np.angle(st[1] / st[0]) == pytest.approx(0.8, abs=1e-12)
        assert np.angle(st[2] / st[0]) == pytest.approx(-0.4, abs=1e-12)

    def test_asymmetric_ratios_reweight_herald(self):
        cfg = InterferometerConfig(bob_ratios=CouplerRatios(0.6, 0.4, 0.0))
        st = herald_state("central", 0, cfg)
        assert abs(st[2]) == 0.0

    def test_bad_peak_or_detector_rejected(self):
        with pytest.raises(ValueError, match="peak must be"):
            herald_state("up", 0, InterferometerConfig())
        with pytest.raises(ValueError, match="detector index"):
            herald_state("left", 3, InterferometerConfig())


class TestQkd:
    def test_noiseless_qber_is_exactly_zero(self):
        for seed in (0, 1, 2, 3, 4):
            summary = run_qkd(rounds=30000, mode="four_basis", lam=1.0, seed=seed)
            assert summary.qber == 0.0
            assert all(v == "secure" for v in summary.verdicts.values())

    def test_qber_follows_white_noise_curve(self):
        # analytic: matched MUBs disagree only on the noise fraction, 2(1-lam)/3
        for lam in (0.25, 0.5, 0.75, 1.0):
            summary = run_qkd(rounds=400000, mode="two_basis", lam=lam, seed=5)
            expected = 2.0 * (1.0 - lam) / 3.0
            n = summary.sifted_count
            sigma = np.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(summary.qber - expected) < 3.0 * sigma + 1e-9

    def test_headline_regime_qber(self):
        summary = run_qkd(rounds=1200000, mode="four_basis", lam=0.9688, seed=6)
        assert summary.sifted_count > 90000
        assert summary.qber == pytest.approx(0.0208, abs=0.003)
        assert all(v == "secure" for v in summary.verdicts.values())

    def test_intercept_resend_four_basis(self):
        summary = run_qkd(
            rounds=600000,
            mode="four_basis",
            lam=1.0,
            eve=EveModel.intercept_resend(),
            seed=7,
        )
        assert summary.qber == pytest.approx(0.5, abs=0.01)
        assert all(v == "insecure" for v in summary.verdicts.values())

    def test_intercept_resend_two_basis(self):
        summary = run_qkd(
            rounds=600000,
            mode="two_basis",
            lam=1.0,
            eve=EveModel.intercept_resend(("computational", "fourier0")),
            seed=8,
        )
        assert summary.qber == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_postselection_keeps_a_third(self):
        summary = run_qkd(rounds=300000, mode="four_basis", lam=1.0, seed=9)
        sigma = np.sqrt((1 / 3) * (2 / 3) / summary.rounds)
        assert abs(summary.postselect_ratio - 1 / 3) < 3 * sigma
        assert summary.postselect_ratio_ok

    def test_sift_ratio_matches_pool_size(self):
        summary = run_qkd(rounds=300000, mode="four_basis", lam=1.0, seed=10)
        assert summary.sift_ratio == pytest.approx(0.25, abs=0.01)
        summary = run_qkd(rounds=300000, mode="phase_only_three", lam=1.0, seed=10)
        assert summary.sift_ratio == pytest.approx(1 / 3, abs=0.01)

    def test_single_basis_eve_pools_equivalent(self):
        # intercept-resend damage is symmetric in which basis Eve favors
        qbers = []
        for name in ("computational", "fourier0", "fourier1", "fourier2"):
            summary = run_qkd(
                rounds=400000,
                mode="four_basis",
                lam=1.0,
                eve=EveModel.intercept_resend((name,)),
                seed=11,
            )
            qbers.append((summary.qber, summary.sifted_count))
        for (q1, n1), (q2, n2) in itertools.combinations(qbers, 2):
            sigma = np.sqrt(q1 * (1 - q1) / n1 + q2 * (1 - q2) / n2)
            assert abs(q1 - q2) < 3.0 * sigma

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_nominal_qber_laws(self, lam):
        # Bechmann-Pasquinucci & Peres, PRL 85, 3313 (2000): white noise gives
        # 2(1 - lam)/3; intercept-resend in all four bases adds 1/2 at lam = 1.
        cfg = InterferometerConfig()
        honest = matched_basis_qber(cfg, lam)
        attacked = intercept_resend_qber(cfg, lam)
        assert honest == pytest.approx(2.0 * (1.0 - lam) / 3.0, abs=1e-12)
        assert attacked == pytest.approx(0.5 + (1.0 - lam) / 6.0, abs=1e-12)
        summary = run_qkd(rounds=300000, lam=lam, seed=20)
        assert_within_3_sigma(summary.qber, honest, summary.sifted_count)
        summary = run_qkd(rounds=300000, lam=lam, eve=EveModel.intercept_resend(), seed=21)
        assert_within_3_sigma(summary.qber, attacked, summary.sifted_count)

    def test_asymmetric_couplers_set_the_kept_share(self):
        alice, bob = (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(*alice), bob_ratios=CouplerRatios(*bob))
        share = sum(a * b for a, b in zip(alice, bob))  # central path pairs ss, mm, ll
        summary = run_qkd(rounds=300000, lam=0.9688, seed=22, interferometer=cfg)
        assert_within_3_sigma(summary.postselect_ratio, share, summary.rounds)
        assert summary.postselect_ratio_ok
        assert_within_3_sigma(summary.qber, matched_basis_qber(cfg, 0.9688), summary.sifted_count)

    def test_dial_offset_raises_matched_basis_qber(self):
        lam, delta = 0.9688, 0.6
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=delta, phi_l=2.0 * delta))
        expected = matched_basis_qber(cfg, lam)
        assert expected > 2.0 * (1.0 - lam) / 3.0 + 0.05
        summary = run_qkd(rounds=300000, lam=lam, seed=23, interferometer=cfg)
        assert_within_3_sigma(summary.qber, expected, summary.sifted_count)

    def test_empty_central_peak_rejected(self):
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(1.0, 0.0, 0.0), bob_ratios=CouplerRatios(0.0, 1.0, 0.0))
        with pytest.raises(ConfigurationError, match="central peak empty"):
            run_qkd(rounds=10, interferometer=cfg)

    def test_trace_file(self, tmp_path):
        path = tmp_path / "rounds.csv"
        summary = run_qkd(rounds=3000, mode="two_basis", lam=1.0, seed=12, trace_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,alice_basis,bob_basis,alice_trit,bob_trit,sifted"
        n_kept = len(lines) - 1
        assert n_kept == round(summary.postselect_ratio * summary.rounds)

    def test_trace_writer_memory_is_bounded(self, tmp_path):
        # A million four-basis rounds keep about 333k: an 11.4 MB file, of
        # which the writer may hold only blocks, next to the 2.7 MB of
        # kept-round indices.
        rng = np.random.default_rng(17)
        kept = rng.random(1_000_000) < 1.0 / 3.0
        n_kept = int(kept.sum())
        alice_basis, bob_basis = rng.integers(0, 4, size=(2, n_kept))
        alice_trit, bob_trit = rng.integers(0, 3, size=(2, n_kept))
        sifted = alice_basis == bob_basis
        path = tmp_path / "rounds.csv"
        tracemalloc.start()
        try:
            _write_qkd_trace(path, kept, BASIS_IDS, alice_basis, bob_basis, alice_trit, bob_trit, sifted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 11_000_000
        assert peak < 6_000_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_qkd(rounds=0)
        with pytest.raises(ConfigurationError):
            run_qkd(rounds=10, mode="five_basis")
        with pytest.raises(ConfigurationError):
            EveModel.intercept_resend(())


def binary_entropy(d):
    return -d * np.log2(d) - (1.0 - d) * np.log2(1.0 - d)


class TestQberThresholds:
    def test_values(self):
        thresholds = qber_thresholds()
        assert thresholds["qutrit_2basis_individual"] == pytest.approx(0.2113, abs=1e-4)
        assert thresholds["qutrit_4basis_individual"] == pytest.approx(0.2267, abs=1e-4)
        assert thresholds["qubit_coherent_reference"] == pytest.approx(0.11, abs=1e-4)
        # The key rate log2(d) - 2 [h(D) + D log2(d - 1)] of d-level BB84 reaches zero.
        d = thresholds["qutrit_coherent"]
        assert 2.0 * (binary_entropy(d) + d) == pytest.approx(np.log2(3.0), abs=1e-12)
        assert 2.0 * binary_entropy(thresholds["qubit_coherent_reference"]) == pytest.approx(1.0, abs=1e-12)

    def test_qber_above_the_coherent_root_is_insecure(self):
        # A QBER is secure below its threshold; the root is 0.159461.
        assert not 0.1595 < qber_thresholds()["qutrit_coherent"]

    def test_two_basis_closed_form(self):
        # cross-check: (1 - 1/sqrt(3))/2 = 0.21132...
        assert qber_thresholds()["qutrit_2basis_individual"] == pytest.approx(
            (1.0 - 1.0 / np.sqrt(3.0)) / 2.0, abs=5e-5
        )


class TestCoinToss:
    def test_noiseless_honest_run(self):
        summary = run_coin_toss(rounds=100000, lam=1.0, seed=1)
        assert summary.agreement_rate == 1.0
        sigma = 1.0 / np.sqrt(summary.rounds)
        assert abs(summary.outcome_bias) < 3 * sigma
        sigma_frac = np.sqrt(0.25 / summary.rounds)
        assert abs(summary.left_fraction - 0.5) < 3 * sigma_frac

    def test_noisy_agreement_matches_born_oracle(self):
        lam = 0.7
        # oracle: Born probability on the mixed herald state confined to the
        # two-dimensional subspace
        h = herald_state("left", 0, InterferometerConfig())
        support = np.diag(np.abs(h) > 0)
        rho = lam * np.outer(h, h.conj()) + (1 - lam) * support / 2.0
        expected = born_probability(rho, h)
        assert expected == pytest.approx((1 + lam) / 2, abs=1e-12)
        summary = run_coin_toss(rounds=200000, lam=lam, seed=2)
        sigma = np.sqrt(expected * (1 - expected) / summary.rounds)
        assert abs(summary.agreement_rate - expected) < 3 * sigma
        assert summary.agreement_rate < 1.0

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_dial_offset_agreement_law(self, lam):
        # Alice's dials (delta, 2 delta) turn both satellite herald states by
        # delta, so Bob's nominal projection agrees with (1 + lam cos delta)/2.
        delta = 0.9
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=delta, phi_l=2.0 * delta))
        expected = (1.0 + lam * np.cos(delta)) / 2.0
        for side in ("left", "right"):
            h = herald_state(side, 0, cfg)
            support = np.diag(np.abs(h) > 0)
            rho = lam * np.outer(h, h.conj()) + (1.0 - lam) * support / 2.0
            assert born_probability(rho, herald_state(side, 0, InterferometerConfig())) == pytest.approx(
                expected, abs=1e-12
            )
        summary = run_coin_toss(rounds=200000, lam=lam, seed=24, interferometer=cfg)
        assert_within_3_sigma(summary.agreement_rate, expected, summary.rounds)

    def test_left_fraction_is_the_satellite_weight_ratio(self):
        alice, bob = (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(*alice), bob_ratios=CouplerRatios(*bob))
        left = alice[1] * bob[0] + alice[2] * bob[1]  # ms, lm
        right = alice[0] * bob[1] + alice[1] * bob[2]  # sm, ml
        summary = run_coin_toss(rounds=200000, seed=25, interferometer=cfg)
        assert_within_3_sigma(summary.left_fraction, left / (left + right), summary.rounds)

    def test_determinism(self):
        a = run_coin_toss(rounds=5000, lam=0.9, seed=3)
        b = run_coin_toss(rounds=5000, lam=0.9, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_coin_toss(rounds=0)
        with pytest.raises(ConfigurationError):
            run_coin_toss(rounds=10, lam=1.5)
        one_path = CouplerRatios(1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError, match="satellite peak empty"):
            run_coin_toss(rounds=10, interferometer=InterferometerConfig(alice_ratios=one_path, bob_ratios=one_path))
