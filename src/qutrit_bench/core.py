"""Complex linear algebra for single-qutrit and two-qutrit photonic states.

States live in dimension 3 (one photon, one path/time-bin degree of freedom)
or dimension 9 (a photon pair).  The 9-dimensional basis is ordered
(ss, sm, sl, ms, mm, ml, ls, lm, ll): the first party's path is the major
index and paths are ordered short < medium < long.  All modules share this
ordering.

The symmetric 3x3 fiber coupler is modeled as the 3-dimensional discrete
Fourier unitary, entry (j, p) = exp(i 2*pi j p / 3) / sqrt(3).  Any lossless
symmetric coupler is equivalent to this choice up to port relabeling and
fixed port phases, which downstream modules absorb into arm phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError


@dataclass(frozen=True)
class PureState:
    """A normalized or soon-to-be-normalized ket of dimension 3 or 9."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size not in (3, 9):
            raise ValueError(f"state must be a vector of length 3 or 9, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


_TRITTER = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3.0) / np.sqrt(3.0)
_TRITTER.setflags(write=False)


def tritter() -> np.ndarray:
    """The symmetric 3x3 coupler unitary (discrete Fourier convention).

    Entry (j, p) = exp(i 2*pi j p / 3) / sqrt(3); all magnitudes 1/sqrt(3),
    relative phases are integer multiples of 2*pi/3.  The matrix is built
    once at import and returned read-only.
    """
    return _TRITTER


def normalize(state: PureState) -> PureState:
    """Scale `state` to unit norm, preserving its direction.

    Raises DegenerateStateError on an (effectively) zero vector.
    """
    n = state.norm()
    if n < 1e-300:
        raise DegenerateStateError("cannot normalize a zero state vector")
    return PureState(state.amplitudes / n)
