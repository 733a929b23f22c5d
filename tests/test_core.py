import numpy as np
import pytest

from qutrit_bench.errors import DegenerateStateError
from qutrit_bench.source import _unit
from test_references import joint_index


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
