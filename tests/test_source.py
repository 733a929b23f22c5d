import numpy as np
import pytest

from qutrit_bench.core import (
    PureState,
    add_white_noise,
    born_probability,
    joint_index,
    tritter,
    wrap_phase,
)
from qutrit_bench.errors import DegenerateStateError, UnsupportedConfigurationError
from qutrit_bench.source import (
    CLASS_PATH_PAIRS,
    ArmPhases,
    CouplerRatios,
    InterferometerConfig,
    central_state,
    class_weights,
    coincidence_prob_central,
    coincidence_prob_satellite,
    detector_pair_phase_offsets,
    effective_phases,
    fringe_probability,
    joint_distribution,
    phases_for_fringe_targets,
    satellite_state,
)

TWO_PI_THIRD = 2.0 * np.pi / 3.0


def random_config(rng):
    return InterferometerConfig(
        alice=ArmPhases(rng.uniform(-6, 6), rng.uniform(-6, 6)),
        bob=ArmPhases(rng.uniform(-6, 6), rng.uniform(-6, 6)),
    )


class TestPhaseOffsets:
    def test_zero_index_pair(self):
        assert detector_pair_phase_offsets(0, 0) == (0.0, 0.0)

    def test_one_zero_pair(self):
        # oracle: compose exp(i 2 pi j p / 3) output phases for p = 1, 2
        chi_m, chi_l = detector_pair_phase_offsets(1, 0)
        u = tritter()
        expected_m = np.angle(u[1, 1] * u[0, 1] / (u[1, 0] * u[0, 0])) % (2 * np.pi)
        expected_l = np.angle(u[1, 2] * u[0, 2] / (u[1, 0] * u[0, 0])) % (2 * np.pi)
        assert chi_m == pytest.approx(expected_m, abs=1e-12)
        assert chi_l == pytest.approx(expected_l, abs=1e-12)
        assert chi_m == pytest.approx(TWO_PI_THIRD, abs=1e-12)
        assert chi_l == pytest.approx(2 * TWO_PI_THIRD, abs=1e-12)

    def test_all_entries_are_two_pi_third_multiples(self):
        for j in range(3):
            for k in range(3):
                for chi in detector_pair_phase_offsets(j, k):
                    assert abs(wrap_phase(chi * 3.0)) < 1e-12  # 3*chi = 0 mod 2*pi

    def test_index_validation(self):
        with pytest.raises(ValueError):
            detector_pair_phase_offsets(3, 0)


class TestCentralState:
    def test_zero_phases_maximally_entangled(self):
        st = central_state(InterferometerConfig(), 0, 0)
        expected = np.zeros(9, dtype=complex)
        for p in range(3):
            expected[joint_index(p, p)] = 1 / np.sqrt(3)
        assert np.max(np.abs(st.amplitudes - expected)) < 1e-12

    def test_pi_on_alice_medium_flips_sign(self):
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=np.pi, phi_l=0.0))
        st = central_state(cfg, 0, 0)
        assert st.amplitudes[joint_index(1, 1)] == pytest.approx(-1 / np.sqrt(3), abs=1e-12)
        assert st.amplitudes[joint_index(0, 0)] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert st.amplitudes[joint_index(2, 2)] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_blocked_medium_arm_gives_qubit_subspace(self):
        # direct construction: with p_m = 0 on Alice's side only ss and ll survive
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(0.5, 0.0, 0.5))
        st = central_state(cfg, 0, 0)
        assert st.amplitudes[joint_index(1, 1)] == 0.0
        w = np.sqrt(0.5 / 3.0)
        norm = np.sqrt(2 * w**2)
        assert abs(st.amplitudes[joint_index(0, 0)]) == pytest.approx(w / norm, abs=1e-12)
        assert abs(st.amplitudes[joint_index(2, 2)]) == pytest.approx(w / norm, abs=1e-12)

    def test_support_only_on_diagonal_pairs(self):
        rng = np.random.default_rng(2)
        st = central_state(random_config(rng), 1, 2)
        off = [i for i in range(9) if i not in (0, 4, 8)]
        assert np.max(np.abs(st.amplitudes[off])) == 0.0

    def test_all_weights_zero_rejected(self):
        cfg = InterferometerConfig(
            alice_ratios=CouplerRatios(1.0, 0.0, 0.0), bob_ratios=CouplerRatios(0.0, 1.0, 0.0)
        )
        with pytest.raises(DegenerateStateError):
            central_state(cfg, 0, 0)


class TestSatelliteState:
    def test_left_zero_phases(self):
        st = satellite_state("left", InterferometerConfig(), 0, 0)
        ms = st.amplitudes[joint_index(1, 0)]
        lm = st.amplitudes[joint_index(2, 1)]
        assert abs(ms) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert np.angle(lm / ms) == pytest.approx(-TWO_PI_THIRD, abs=1e-12)

    def test_right_zero_phases(self):
        st = satellite_state("right", InterferometerConfig(), 0, 0)
        sm = st.amplitudes[joint_index(0, 1)]
        ml = st.amplitudes[joint_index(1, 2)]
        assert abs(sm) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert np.angle(ml / sm) == pytest.approx(+TWO_PI_THIRD, abs=1e-12)

    def test_left_phase_cancellation(self):
        # alpha_l - alpha_m = 2 pi / 3 cancels the fixed offset
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=0.0, phi_l=TWO_PI_THIRD))
        st = satellite_state("left", cfg, 0, 0)
        ms = st.amplitudes[joint_index(1, 0)]
        lm = st.amplitudes[joint_index(2, 1)]
        assert np.angle(lm / ms) == pytest.approx(0.0, abs=1e-12)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            satellite_state("up", InterferometerConfig(), 0, 0)

    def test_all_weights_zero_rejected(self):
        # the left pairs ms and lm both need Alice's medium or long arm
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(1.0, 0.0, 0.0))
        with pytest.raises(DegenerateStateError):
            satellite_state("left", cfg, 0, 0)


class TestEffectivePhases:
    def test_round_trip_through_targets(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            phi_r = rng.uniform(-np.pi, np.pi)
            phi_l = rng.uniform(-np.pi, np.pi)
            cfg = InterferometerConfig(alice=phases_for_fringe_targets(phi_r, phi_l))
            pair = effective_phases(cfg, 0, 0)
            assert wrap_phase(pair.phi_r - phi_r) == pytest.approx(0.0, abs=1e-12)
            assert wrap_phase(pair.phi_l - phi_l) == pytest.approx(0.0, abs=1e-12)

    def test_long_long_term_carries_phase_sum(self):
        # property check against central_state for 50 random configs
        rng = np.random.default_rng(9)
        for _ in range(50):
            cfg = random_config(rng)
            j, k = rng.integers(0, 3, size=2)
            pair = effective_phases(cfg, j, k)
            st = central_state(cfg, j, k)
            ll_phase = np.angle(st.amplitudes[joint_index(2, 2)] / st.amplitudes[joint_index(0, 0)])
            assert abs(wrap_phase(ll_phase - (pair.phi_r + pair.phi_l))) < 1e-12

    def test_medium_medium_term_carries_phi_r(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            cfg = random_config(rng)
            j, k = rng.integers(0, 3, size=2)
            pair = effective_phases(cfg, j, k)
            st = central_state(cfg, j, k)
            mm_phase = np.angle(st.amplitudes[joint_index(1, 1)] / st.amplitudes[joint_index(0, 0)])
            assert abs(wrap_phase(mm_phase - pair.phi_r)) < 1e-12


class TestFringeLaw:
    def test_maximum_is_one_third(self):
        assert fringe_probability(0.0, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_at_two_pi_third_constraint(self):
        # {phi_r, phi_l, phi_r + phi_l} all at +-2*pi/3
        assert abs(fringe_probability(TWO_PI_THIRD, TWO_PI_THIRD, 1.0)) < 1e-12

    def test_flat_for_white_noise(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = fringe_probability(rng.uniform(-9, 9), rng.uniform(-9, 9), 0.0)
            assert p == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_detector_pairs_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cfg = random_config(rng)
            lam = rng.uniform(0, 1)
            total = sum(
                coincidence_prob_central(cfg, j, k, lam) for j in range(3) for k in range(3)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_coincidence_classes_are_degenerate(self):
        # the three cyclic coincidence classes have equal probability within
        # each class for all phase settings
        classes = [
            [(0, 0), (1, 2), (2, 1)],
            [(0, 1), (1, 0), (2, 2)],
            [(0, 2), (2, 0), (1, 1)],
        ]
        rng = np.random.default_rng(14)
        for _ in range(20):
            cfg = random_config(rng)
            lam = rng.uniform(0, 1)
            for cls in classes:
                values = [coincidence_prob_central(cfg, j, k, lam) for j, k in cls]
                assert max(values) - min(values) < 1e-12

    def test_single_phase_scan_min_positive_off_constraint(self):
        # fixing one phase anywhere off the +-2*pi/3 constraint leaves the
        # minimum over the other phase strictly positive (grid at 1e-3 rad)
        grid = np.arange(0.0, 2.0 * np.pi, 1e-3)
        for fixed in (0.0, 0.3, 1.0, np.pi):
            values = [fringe_probability(fixed, x, 1.0) for x in grid]
            assert min(values) > 1e-9
        constrained = [fringe_probability(TWO_PI_THIRD, x, 1.0) for x in grid]
        assert min(constrained) < 1e-6

    def test_asymmetric_ratios_rejected(self):
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(0.5, 0.25, 0.25))
        with pytest.raises(UnsupportedConfigurationError):
            coincidence_prob_central(cfg, 0, 0, 1.0)


class TestSatelliteLaw:
    def test_two_path_maximum(self):
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=0.0, phi_l=TWO_PI_THIRD))
        assert coincidence_prob_satellite("left", cfg, 0, 0, 1.0) == pytest.approx(
            2.0 / 9.0, abs=1e-12
        )

    def test_destructive_zero(self):
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=0.0, phi_l=TWO_PI_THIRD + np.pi))
        assert coincidence_prob_satellite("left", cfg, 0, 0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_flat_for_white_noise(self):
        rng = np.random.default_rng(15)
        cfg = random_config(rng)
        assert coincidence_prob_satellite("right", cfg, 1, 2, 0.0) == pytest.approx(
            1.0 / 9.0, abs=1e-12
        )

    def test_detector_pairs_sum_to_one(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            cfg = random_config(rng)
            lam = rng.uniform(0, 1)
            for side in ("left", "right"):
                total = sum(
                    coincidence_prob_satellite(side, cfg, j, k, lam)
                    for j in range(3)
                    for k in range(3)
                )
                assert total == pytest.approx(1.0, abs=1e-12)


class TestPeakWeights:
    def test_matches_path_pair_enumeration(self):
        # oracle: enumerate the nine equiprobable path pairs by arm difference
        from collections import Counter

        counter = Counter(a - b for a in range(3) for b in range(3))
        weights = class_weights(InterferometerConfig())
        for multiplier, count in counter.items():
            assert weights[multiplier + 2] == pytest.approx(count / 9.0, abs=1e-15)
        for index, pairs in enumerate(CLASS_PATH_PAIRS):
            assert {a - b for a, b in pairs} == {index - 2}

    def test_ratio_one_two_three_two_one(self):
        w = class_weights(InterferometerConfig())
        assert list(w / w[0]) == pytest.approx([1.0, 2.0, 3.0, 2.0, 1.0], abs=1e-12)

    def test_total_is_one(self):
        assert class_weights(InterferometerConfig()).sum() == pytest.approx(1.0, abs=1e-15)
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(0.5, 0.3, 0.2), bob_ratios=CouplerRatios(0.1, 0.1, 0.8))
        assert class_weights(cfg).sum() == pytest.approx(1.0, abs=1e-15)


class TestJointDistribution:
    def test_matches_closed_form_laws(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cfg = random_config(rng)
            lam = rng.uniform(0, 1)
            dist = joint_distribution(cfg, lam)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            central = dist[2] / dist[2].sum()
            left = dist[3] / dist[3].sum()
            right = dist[1] / dist[1].sum()
            for j in range(3):
                for k in range(3):
                    assert central[j, k] == pytest.approx(
                        coincidence_prob_central(cfg, j, k, lam), abs=1e-10
                    )
                    assert left[j, k] == pytest.approx(
                        coincidence_prob_satellite("left", cfg, j, k, lam), abs=1e-10
                    )
                    assert right[j, k] == pytest.approx(
                        coincidence_prob_satellite("right", cfg, j, k, lam), abs=1e-10
                    )

    def test_class_weights_follow_peak_weights(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            cfg = random_config(rng)
            dist = joint_distribution(cfg, rng.uniform(0, 1))
            assert list(dist.sum(axis=(1, 2))) == pytest.approx([1 / 9, 2 / 9, 3 / 9, 2 / 9, 1 / 9], abs=1e-10)

    def test_central_law_equals_born_rule_first_principles(self):
        # analytic fringe law vs first-principles coupler propagation for
        # 100 random configurations
        u = tritter()
        rng = np.random.default_rng(23)
        for _ in range(100):
            cfg = random_config(rng)
            lam = rng.uniform(0, 1)
            amps = np.zeros(9, dtype=complex)
            pre_phases = (
                0.0,
                cfg.alice.phi_m + cfg.bob.phi_m,
                cfg.alice.phi_l + cfg.bob.phi_l,
            )
            for p in range(3):
                amps[joint_index(p, p)] = np.exp(1j * pre_phases[p]) / np.sqrt(3.0)
            rho = add_white_noise(PureState(amps), lam)
            j, k = rng.integers(0, 3, size=2)
            outcome = PureState(np.kron(np.conj(u[j, :]), np.conj(u[k, :])))
            assert born_probability(rho, outcome) == pytest.approx(
                coincidence_prob_central(cfg, j, k, lam), abs=1e-10
            )

    def test_general_ratios_supported(self):
        cfg = InterferometerConfig(
            alice_ratios=CouplerRatios(0.5, 0.3, 0.2), bob_ratios=CouplerRatios(0.2, 0.5, 0.3)
        )
        dist = joint_distribution(cfg, 0.8)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= 0.0)
