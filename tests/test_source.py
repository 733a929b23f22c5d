"""The source model through its kernel: the output coupler, the
central-peak and herald states and their normalization, the satellite
terms and the fringe laws of the outcome tables.

The closed-form laws of symmetric couplers are oracles in
tests/test_references.py; the tests here check the physics they state
(extrema, zeros, flat noise, normalization, degenerate classes and the
term phases) on `joint_distribution`, `step_distributions` and
`central_state`, the code every command runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_bench.errors import DegenerateStateError
from qutrit_bench.source import (
    CLASS_PATH_PAIRS,
    PEAK_CLASS,
    ArmPhases,
    CouplerRatios,
    InterferometerConfig,
    _unit,
    central_state,
    class_weights,
    herald_state,
    joint_distribution,
    pair_amplitudes,
    step_distributions,
    tritter,
)
from test_references import (
    born_probability,
    configs,
    detectors,
    joint_index,
    reference_central_probability,
    reference_satellite_probability,
    white_noise_mixture,
)

TWO_PI_THIRD = 2.0 * np.pi / 3.0


def wrap_phase(phi):
    """Wrap an angle (or array of angles) to the interval (-pi, pi]."""
    return -np.remainder(-np.asarray(phi) + np.pi, 2.0 * np.pi) + np.pi


def random_config(rng):
    return InterferometerConfig(
        alice=ArmPhases(rng.uniform(-6, 6), rng.uniform(-6, 6)),
        bob=ArmPhases(rng.uniform(-6, 6), rng.uniform(-6, 6)),
    )


def term_phase(state, path):
    """Phase of the central state's term |path, path> relative to |ss>."""
    return np.angle(state[joint_index(path, path)] / state[joint_index(0, 0)])


def central_law(cfg, lam):
    """P(j, k | central coincidence): the central class holds 1/3 at symmetric couplers."""
    return 3.0 * joint_distribution(cfg, lam)[PEAK_CLASS["central"]]


def satellite_law(side, cfg, lam):
    """P(j, k | satellite coincidence): a satellite class holds 2/9 at symmetric couplers."""
    return 4.5 * joint_distribution(cfg, lam)[PEAK_CLASS[side]]


def satellite_terms(side, cfg):
    """The kernel's two path-pair amplitudes of a satellite class at detectors
    (0, 0), the reference term (ms or sm) first."""
    amps = pair_amplitudes(cfg)
    return [amps[pa, pb, 0, 0] for pa, pb in CLASS_PATH_PAIRS[PEAK_CLASS[side]]]


class TestTritter:
    def test_zero_phase_entry(self):
        u = tritter()
        assert u[0, 0] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)
        assert u[0, 0].imag == 0.0

    def test_unitarity(self):
        u = tritter()
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_entry_magnitudes(self):
        assert np.max(np.abs(np.abs(tritter()) - 1.0 / np.sqrt(3.0))) < 1e-12

    def test_row_phase_steps_are_two_pi_thirds(self):
        # direct evaluation of exp(i 2 pi j p / 3): within row j=1, adjacent
        # columns differ by 2 pi / 3
        u = tritter()
        diff = np.angle(u[1, 2]) - np.angle(u[1, 1])
        assert wrap_phase(diff - 2.0 * np.pi / 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_rows_and_columns_orthonormal(self):
        u = tritter()
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12

    def test_built_once_and_read_only(self):
        assert tritter() is tritter()
        assert not tritter().flags.writeable


class TestNormalize:
    """The one normalization that `central_state` and `herald_state` share."""

    def test_two_component_vector(self):
        st = _unit(np.array([1.0, 1.0, 0.0], dtype=complex))
        assert st[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
        assert st[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_two_term_nine_dim_state(self):
        # |ms> + e^{i theta} |lm> normalizes to coefficients 1/sqrt(2)
        theta = 0.7
        amps = np.zeros(9, dtype=complex)
        amps[joint_index(1, 0)] = 1.0
        amps[joint_index(2, 1)] = np.exp(1j * theta)
        st = _unit(amps)
        assert abs(st[joint_index(1, 0)]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(st[joint_index(2, 1)]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateStateError):
            _unit(np.zeros(3, dtype=complex))

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=9) + 1j * rng.normal(size=9)
        st = _unit(raw)
        ratio = st / raw
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12


@settings(deadline=None)
@given(configs(), detectors, detectors, st.sampled_from(["central", "left", "right"]))
def test_states_are_unit_and_parallel_to_their_kernel_slice(cfg, j, k, peak):
    # The central state is the diagonal of the kernel at (j, k); a herald
    # state holds Bob's path terms of the peak's class at (j, 0).
    kernel = pair_amplitudes(cfg)
    central_slice = np.diag(np.diagonal(kernel[:, :, j, k])).reshape(9)
    herald_slice = np.zeros(3, dtype=complex)
    for pa, pb in CLASS_PATH_PAIRS[PEAK_CLASS[peak]]:
        herald_slice[pb] = kernel[pa, pb, j, 0]
    for state, raw in ((central_state(cfg, j, k), central_slice), (herald_state(peak, j, cfg), herald_slice)):
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        norm = np.linalg.norm(raw)
        assert np.max(np.abs(state * norm - raw)) < 1e-12 * norm


class TestPhaseOffsets:
    """The output couplers' offsets of the mm and ll terms at zero dials."""

    def test_zero_index_pair(self):
        st0 = central_state(InterferometerConfig(), 0, 0)
        assert term_phase(st0, 1) == pytest.approx(0.0, abs=1e-12)
        assert term_phase(st0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_one_zero_pair(self):
        # oracle: compose exp(i 2 pi j p / 3) output phases for p = 1, 2
        st10 = central_state(InterferometerConfig(), 1, 0)
        u = tritter()
        expected_m = np.angle(u[1, 1] * u[0, 1] / (u[1, 0] * u[0, 0]))
        expected_l = np.angle(u[1, 2] * u[0, 2] / (u[1, 0] * u[0, 0]))
        assert wrap_phase(term_phase(st10, 1) - expected_m) == pytest.approx(0.0, abs=1e-12)
        assert wrap_phase(term_phase(st10, 2) - expected_l) == pytest.approx(0.0, abs=1e-12)
        assert wrap_phase(term_phase(st10, 1) - TWO_PI_THIRD) == pytest.approx(0.0, abs=1e-12)
        assert wrap_phase(term_phase(st10, 2) - 2 * TWO_PI_THIRD) == pytest.approx(0.0, abs=1e-12)

    def test_all_entries_are_two_pi_third_multiples(self):
        for j in range(3):
            for k in range(3):
                st_jk = central_state(InterferometerConfig(), j, k)
                for path in (1, 2):
                    chi = term_phase(st_jk, path)
                    assert abs(wrap_phase(chi * 3.0)) < 1e-12  # 3*chi = 0 mod 2*pi
                    assert abs(wrap_phase(chi - path * TWO_PI_THIRD * (j + k))) < 1e-12

    def test_index_validation(self):
        with pytest.raises(ValueError):
            central_state(InterferometerConfig(), 3, 0)


class TestCentralState:
    def test_zero_phases_maximally_entangled(self):
        st = central_state(InterferometerConfig(), 0, 0)
        expected = np.zeros(9, dtype=complex)
        for p in range(3):
            expected[joint_index(p, p)] = 1 / np.sqrt(3)
        assert np.max(np.abs(st - expected)) < 1e-12

    def test_pi_on_alice_medium_flips_sign(self):
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=np.pi, phi_l=0.0))
        st = central_state(cfg, 0, 0)
        assert st[joint_index(1, 1)] == pytest.approx(-1 / np.sqrt(3), abs=1e-12)
        assert st[joint_index(0, 0)] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert st[joint_index(2, 2)] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_blocked_medium_arm_gives_qubit_subspace(self):
        # direct construction: with p_m = 0 on Alice's side only ss and ll survive
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(0.5, 0.0, 0.5))
        st = central_state(cfg, 0, 0)
        assert st[joint_index(1, 1)] == 0.0
        w = np.sqrt(0.5 / 3.0)
        norm = np.sqrt(2 * w**2)
        assert abs(st[joint_index(0, 0)]) == pytest.approx(w / norm, abs=1e-12)
        assert abs(st[joint_index(2, 2)]) == pytest.approx(w / norm, abs=1e-12)

    def test_support_only_on_diagonal_pairs(self):
        rng = np.random.default_rng(2)
        st = central_state(random_config(rng), 1, 2)
        off = [i for i in range(9) if i not in (0, 4, 8)]
        assert np.max(np.abs(st[off])) == 0.0

    def test_all_weights_zero_rejected(self):
        cfg = InterferometerConfig(
            alice_ratios=CouplerRatios(1.0, 0.0, 0.0), bob_ratios=CouplerRatios(0.0, 1.0, 0.0)
        )
        with pytest.raises(DegenerateStateError):
            central_state(cfg, 0, 0)


class TestSatelliteState:
    def test_left_zero_phases(self):
        ms, lm = satellite_terms("left", InterferometerConfig())
        assert abs(lm) == pytest.approx(abs(ms), abs=1e-12)  # (|ms> + e^{i theta} |lm>) / sqrt(2)
        assert np.angle(lm / ms) == pytest.approx(-TWO_PI_THIRD, abs=1e-12)

    def test_right_zero_phases(self):
        sm, ml = satellite_terms("right", InterferometerConfig())
        assert abs(ml) == pytest.approx(abs(sm), abs=1e-12)
        assert np.angle(ml / sm) == pytest.approx(+TWO_PI_THIRD, abs=1e-12)

    def test_left_phase_cancellation(self):
        # alpha_l - alpha_m = 2 pi / 3 cancels the fixed offset
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=0.0, phi_l=TWO_PI_THIRD))
        ms, lm = satellite_terms("left", cfg)
        assert np.angle(lm / ms) == pytest.approx(0.0, abs=1e-12)

    def test_all_weights_zero_rejected(self):
        # the left pairs ms and lm both need Alice's medium or long arm
        cfg = InterferometerConfig(alice_ratios=CouplerRatios(1.0, 0.0, 0.0))
        assert satellite_terms("left", cfg) == [0.0, 0.0]
        with pytest.raises(DegenerateStateError):
            herald_state("left", 0, cfg)


class TestEffectivePhases:
    """phi_r, the mm phase, and phi_l, the ll phase relative to mm, of the central state."""

    def test_round_trip_through_targets(self):
        # Alice's dials (phi_r, phi_r + phi_l), Bob's at zero, realize the
        # targets at detector pair (0, 0): the dial rows of a scan.
        rng = np.random.default_rng(8)
        for _ in range(20):
            phi_r = rng.uniform(-np.pi, np.pi)
            phi_l = rng.uniform(-np.pi, np.pi)
            st00 = central_state(InterferometerConfig(alice=ArmPhases(phi_r, phi_r + phi_l)), 0, 0)
            mm, ll = term_phase(st00, 1), term_phase(st00, 2)
            assert wrap_phase(mm - phi_r) == pytest.approx(0.0, abs=1e-12)
            assert wrap_phase(ll - mm - phi_l) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def effective_phases(cfg, j, k):
        chi_m = TWO_PI_THIRD * (j + k)
        a, b = cfg.alice, cfg.bob
        return (a.phi_m + b.phi_m) + chi_m, (a.phi_l - a.phi_m) + (b.phi_l - b.phi_m) + chi_m

    def test_long_long_term_carries_phase_sum(self):
        # property check against central_state for 50 random configs
        rng = np.random.default_rng(9)
        for _ in range(50):
            cfg = random_config(rng)
            j, k = rng.integers(0, 3, size=2)
            phi_r, phi_l = self.effective_phases(cfg, j, k)
            assert abs(wrap_phase(term_phase(central_state(cfg, j, k), 2) - (phi_r + phi_l))) < 1e-12

    def test_medium_medium_term_carries_phi_r(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            cfg = random_config(rng)
            j, k = rng.integers(0, 3, size=2)
            phi_r, _ = self.effective_phases(cfg, j, k)
            assert abs(wrap_phase(term_phase(central_state(cfg, j, k), 1) - phi_r)) < 1e-12


class TestFringeLaw:
    """The kernel's central table obeys [3 + 2*lam*(cos phi_r + cos phi_l + cos(phi_r + phi_l))] / 27."""

    def test_maximum_is_one_third(self):
        assert central_law(InterferometerConfig(), 1.0)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_at_two_pi_third_constraint(self):
        # {phi_r, phi_l, phi_r + phi_l} all at +-2*pi/3
        cfg = InterferometerConfig(alice=ArmPhases(TWO_PI_THIRD, 2 * TWO_PI_THIRD))
        assert abs(central_law(cfg, 1.0)[0, 0]) < 1e-12

    def test_flat_for_white_noise(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            assert central_law(random_config(rng), 0.0) == pytest.approx(np.full((3, 3), 1.0 / 9.0), abs=1e-12)

    def test_detector_pairs_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            total = central_law(random_config(rng), rng.uniform(0, 1)).sum()
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
            law = central_law(random_config(rng), rng.uniform(0, 1))
            for cls in classes:
                values = [law[j, k] for j, k in cls]
                assert max(values) - min(values) < 1e-12

    def test_single_phase_scan_min_positive_off_constraint(self):
        # fixing one phase anywhere off the +-2*pi/3 constraint leaves the
        # minimum over the other phase strictly positive (grid at 1e-3 rad)
        grid = np.arange(0.0, 2.0 * np.pi, 1e-3)

        def scan(phi_r):
            dials = np.column_stack([np.full_like(grid, phi_r), phi_r + grid, np.zeros((grid.size, 2))])
            return 3.0 * step_distributions(InterferometerConfig(), 1.0, dials)[:, PEAK_CLASS["central"], 0, 0]

        for fixed in (0.0, 0.3, 1.0, np.pi):
            assert scan(fixed).min() > 1e-9
        assert scan(TWO_PI_THIRD).min() < 1e-6


class TestSatelliteLaw:
    """The kernel's satellite tables obey [1 + lam*cos theta] / 9."""

    def test_two_path_maximum(self):
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=0.0, phi_l=TWO_PI_THIRD))
        assert satellite_law("left", cfg, 1.0)[0, 0] == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_destructive_zero(self):
        cfg = InterferometerConfig(alice=ArmPhases(phi_m=0.0, phi_l=TWO_PI_THIRD + np.pi))
        assert satellite_law("left", cfg, 1.0)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_flat_for_white_noise(self):
        rng = np.random.default_rng(15)
        cfg = random_config(rng)
        assert satellite_law("right", cfg, 0.0)[1, 2] == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_detector_pairs_sum_to_one(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            cfg = random_config(rng)
            lam = rng.uniform(0, 1)
            for side in ("left", "right"):
                assert satellite_law(side, cfg, lam).sum() == pytest.approx(1.0, abs=1e-12)


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
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4), st.floats(0.0, 1.0))
    def test_matches_closed_form_laws(self, dials, lam):
        # symmetric couplers, unreduced dial phases for both parties
        cfg = InterferometerConfig(alice=ArmPhases(*dials[:2]), bob=ArmPhases(*dials[2:]))
        dist = joint_distribution(cfg, lam)
        central, left, right = (dist[c] / dist[c].sum() for c in (2, 3, 1))
        for j in range(3):
            for k in range(3):
                assert central[j, k] == pytest.approx(reference_central_probability(cfg, j, k, lam), abs=1e-10)
                for side, table in (("left", left), ("right", right)):
                    expected = reference_satellite_probability(side, cfg, j, k, lam)
                    assert table[j, k] == pytest.approx(expected, abs=1e-10)

    def test_class_weights_follow_peak_weights(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            cfg = random_config(rng)
            dist = joint_distribution(cfg, rng.uniform(0, 1))
            assert list(dist.sum(axis=(1, 2))) == pytest.approx([1 / 9, 2 / 9, 3 / 9, 2 / 9, 1 / 9], abs=1e-10)

    def test_central_law_equals_born_rule_first_principles(self):
        # the kernel's central table vs first-principles coupler propagation
        # for 100 random configurations
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
            rho = white_noise_mixture(amps, lam)
            j, k = rng.integers(0, 3, size=2)
            outcome = np.kron(np.conj(u[j, :]), np.conj(u[k, :]))
            assert born_probability(rho, outcome) == pytest.approx(
                central_law(cfg, lam)[j, k], abs=1e-10
            )

    def test_general_ratios_supported(self):
        cfg = InterferometerConfig(
            alice_ratios=CouplerRatios(0.5, 0.3, 0.2), bob_ratios=CouplerRatios(0.2, 0.5, 0.3)
        )
        dist = joint_distribution(cfg, 0.8)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= 0.0)
