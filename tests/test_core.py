import numpy as np
import pytest

from qutrit_bench.core import PureState, normalize, tritter
from qutrit_bench.errors import DegenerateStateError
from test_references import MAXENT_PAIR, born_probability, joint_index, white_noise_mixture
from test_source import wrap_phase


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
    def test_two_component_vector(self):
        st = normalize(PureState(np.array([1.0, 1.0, 0.0], dtype=complex)))
        assert st.amplitudes[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
        assert st.amplitudes[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_two_term_nine_dim_state(self):
        # |ms> + e^{i theta} |lm> normalizes to coefficients 1/sqrt(2)
        theta = 0.7
        amps = np.zeros(9, dtype=complex)
        amps[joint_index(1, 0)] = 1.0
        amps[joint_index(2, 1)] = np.exp(1j * theta)
        st = normalize(PureState(amps))
        assert abs(st.amplitudes[joint_index(1, 0)]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(st.amplitudes[joint_index(2, 1)]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateStateError):
            normalize(PureState(np.zeros(3, dtype=complex)))

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=9) + 1j * rng.normal(size=9)
        st = normalize(PureState(raw))
        ratio = st.amplitudes / raw
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12


# The white-noise mixture and Born probability oracles that the Bell, source
# and protocol tests read from tests/test_references.py.


def random_ket(rng):
    return normalize(PureState(rng.normal(size=9) + 1j * rng.normal(size=9))).amplitudes


class TestAddWhiteNoise:
    def test_pure_limit(self):
        rho = white_noise_mixture(MAXENT_PAIR, 1.0)
        assert np.max(np.abs(rho - np.outer(MAXENT_PAIR, MAXENT_PAIR))) < 1e-12

    def test_flat_limit_is_state_independent(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            rho = white_noise_mixture(random_ket(rng), 0.0)
            assert np.max(np.abs(rho - np.eye(9) / 9.0)) < 1e-12

    def test_affine_in_mixing_weight(self):
        full = white_noise_mixture(MAXENT_PAIR, 1.0)
        flat = white_noise_mixture(MAXENT_PAIR, 0.0)
        for lam in (0.1, 0.5, 0.9688):
            mixed = white_noise_mixture(MAXENT_PAIR, lam)
            assert np.max(np.abs(mixed - (lam * full + (1 - lam) * flat))) < 1e-12

    def test_operator_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mat = white_noise_mixture(random_ket(rng), rng.uniform(0, 1))
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
            assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(mat).min() > -1e-10

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            white_noise_mixture(MAXENT_PAIR, 1.5)
        with pytest.raises(ValueError):
            white_noise_mixture(MAXENT_PAIR, -0.1)


class TestBornProbability:
    def test_projector_on_own_state(self):
        psi = np.eye(9)[0]
        rho = white_noise_mixture(psi, 1.0)
        assert born_probability(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_flat_state_gives_one_ninth(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert born_probability(np.eye(9) / 9.0, random_ket(rng)) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_half_mixture_on_target_state(self):
        rho = white_noise_mixture(MAXENT_PAIR, 0.5)
        expected = 0.5 * 1.0 + 0.5 / 9.0  # direct matrix arithmetic
        assert born_probability(rho, MAXENT_PAIR) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            born_probability(np.eye(3) / 3.0, np.eye(9)[0])

    def test_complete_basis_sums_to_one(self):
        rng = np.random.default_rng(13)
        rho = white_noise_mixture(random_ket(rng), 0.7)
        # random orthonormal 9-basis from a QR decomposition
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        total = sum(born_probability(rho, q[:, i]) for i in range(9))
        assert total == pytest.approx(1.0, abs=1e-10)
