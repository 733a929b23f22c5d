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

# Tolerances: algebraic identities are checked to 1e-12; eigenvalue
# positivity to 1e-10 (accumulated rounding in 9x9 diagonalization).
ALGEBRA_TOL = 1e-12
POSITIVITY_TOL = 1e-10


def joint_index(alice_path: int, bob_path: int) -> int:
    """Index of |alice_path, bob_path> in the 9-dimensional product basis."""
    return 3 * alice_path + bob_path


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

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class DensityOperator:
    """A trace-one, Hermitian, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] not in (3, 9):
            raise ValueError(f"density operator must be 3x3 or 9x9, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > ALGEBRA_TOL:
            raise ValueError("density operator is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ALGEBRA_TOL:
            raise ValueError(f"density operator trace {np.trace(mat).real!r} != 1")
        if np.linalg.eigvalsh(mat).min() < -POSITIVITY_TOL:
            raise ValueError("density operator has a significantly negative eigenvalue")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_TRITTER = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3.0) / np.sqrt(3.0)
_TRITTER.setflags(write=False)


def tritter() -> np.ndarray:
    """The symmetric 3x3 coupler unitary (discrete Fourier convention).

    Entry (j, p) = exp(i 2*pi j p / 3) / sqrt(3); all magnitudes 1/sqrt(3),
    relative phases are integer multiples of 2*pi/3.  The matrix is built
    once at import and returned read-only.
    """
    return _TRITTER


def maximally_entangled_pair() -> PureState:
    """(|ss> + |mm> + |ll>) / sqrt(3) in the 9-dimensional product basis."""
    amps = np.zeros(9, dtype=complex)
    for p in range(3):
        amps[joint_index(p, p)] = 1.0 / np.sqrt(3.0)
    return PureState(amps)


def normalize(state: PureState) -> PureState:
    """Scale `state` to unit norm, preserving its direction.

    Raises DegenerateStateError on an (effectively) zero vector.
    """
    n = state.norm()
    if n < 1e-300:
        raise DegenerateStateError("cannot normalize a zero state vector")
    return PureState(state.amplitudes / n)


def add_white_noise(psi: PureState, lam: float) -> DensityOperator:
    """Mix a pure state with symmetric noise: lam |psi><psi| + (1-lam) I/dim.

    `lam` = 1 returns the pure projector, `lam` = 0 the maximally mixed
    state; the map is affine in `lam` entrywise.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    if abs(psi.norm() - 1.0) > 1e-9:
        psi = normalize(psi)
    dim = psi.dim
    mat = lam * psi.projector() + (1.0 - lam) * np.eye(dim) / dim
    return DensityOperator(mat)


def born_probability(rho: DensityOperator, outcome: PureState) -> float:
    """Probability <outcome| rho |outcome>, clamped to [0, 1].

    `outcome` must be normalized and match the operator's dimension.
    """
    if rho.dim != outcome.dim:
        raise ValueError(f"dimension mismatch: operator {rho.dim}, outcome {outcome.dim}")
    if abs(outcome.norm() - 1.0) > 1e-9:
        raise ValueError("outcome state must be normalized")
    v = outcome.amplitudes
    p = float(np.real(np.vdot(v, rho.matrix @ v)))
    if p < -POSITIVITY_TOL or p > 1.0 + POSITIVITY_TOL:
        raise ValueError(f"Born probability {p!r} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)
