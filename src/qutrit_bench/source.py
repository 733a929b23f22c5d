"""Analytic model of the paired three-arm interferometers.

Each photon of an energy-time entangled pair traverses a local interferometer
with short / medium / long arms (path-length steps of one unit delay), a dial
phase on the medium and long arms, and a symmetric 3x3 output coupler feeding
three detectors.  Post-selecting on the arrival-time difference dt = t_A - t_B
splits the coincidences into five classes:

    dt class   path pairs          content
      -2       (s,l)               no interference
      -1       (s,m), (m,l)        "right" qubit subspace
       0       (s,s), (m,m), (l,l) qutrit subspace (central peak)
      +1       (m,s), (l,m)        "left" qubit subspace
      +2       (l,s)               no interference

Path pairs within one class are indistinguishable and interfere; classes do
not.  The whole model is one kernel, `pair_amplitudes`: the amplitude of
each path pair at each detector pair.  The outcome distribution, the peak
states and the heralded states are sums of its terms over the path pairs
of one class (`CLASS_PATH_PAIRS`).  The closed-form fringe laws below
(`coincidence_prob_*`, `fringe_probability`) are the symmetric-coupler
solutions of the same model.

Because the output couplers are discrete-Fourier unitaries, the medium
and long two-photon terms acquire detector-dependent offsets
2*pi*(j+k)/3 and 4*pi*(j+k)/3 relative to the short term, so every central
coincidence probability depends on the detector pair (j, k) only through
(j + k) mod 3.

Convention notes
----------------
* Dial phases alpha_m, alpha_l (Alice) and beta_m, beta_l (Bob) are stored
  unreduced so that fringe scans stay monotone; they are wrapped only where
  phases are compared.
* Each long arm additionally carries a fixed trim phase, -2*pi/3 on Alice's
  side and +2*pi/3 on Bob's.  The trims cancel in the central class (the
  joint long-long phase is unchanged) but shift the left/right satellite
  fringes by -2*pi/3 and +2*pi/3, fixing which detector pair sits on a
  fringe maximum at zero dial phases.
* "left" names the {ms, lm} subspace.  Simulated streams always carry it at
  dt = +1 unit delay (dt = t_A - t_B); `timetags.post_select` takes the
  axis convention of ingested external records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PureState, joint_index, normalize, tritter, wrap_phase
from .errors import UnsupportedConfigurationError

PATH_INDEX = {"s": 0, "m": 1, "l": 2}
PEAK_SIDES = ("left", "right")

# Path pairs (alice_path, bob_path) of each dt class, index 0..4 for
# dt = -2..+2 unit delays, in ascending Alice path: the first pair is the
# reference term of a satellite state.
CLASS_PATH_PAIRS = (
    ((0, 2),),  # sl
    ((0, 1), (1, 2)),  # sm, ml: "right"
    ((0, 0), (1, 1), (2, 2)),  # ss, mm, ll: central
    ((1, 0), (2, 1)),  # ms, lm: "left"
    ((2, 0),),  # ls
)
PEAK_CLASS = {"right": 1, "central": 2, "left": 3}

# Fixed long-arm trim phases (radians); see the module docstring.
ALICE_LONG_ARM_TRIM = -2.0 * np.pi / 3.0
BOB_LONG_ARM_TRIM = +2.0 * np.pi / 3.0

_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class ArmPhases:
    """Dial phases (radians) of the medium and long arms, stored unreduced."""

    phi_m: float = 0.0
    phi_l: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.phi_m) and np.isfinite(self.phi_l)):
            raise ValueError("arm phases must be finite")


@dataclass(frozen=True)
class CouplerRatios:
    """Splitting probabilities |c_s|^2, |c_m|^2, |c_l|^2 of one input coupler."""

    p_s: float
    p_m: float
    p_l: float

    def __post_init__(self):
        probs = (self.p_s, self.p_m, self.p_l)
        if any(p < 0.0 for p in probs):
            raise ValueError(f"splitting ratios must be non-negative, got {probs}")
        if abs(sum(probs) - 1.0) > _RATIO_TOL:
            raise ValueError(f"splitting ratios must sum to 1, got {sum(probs)!r}")

    @classmethod
    def symmetric(cls) -> "CouplerRatios":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.p_s, self.p_m, self.p_l])

    def is_symmetric(self, tol: float = _RATIO_TOL) -> bool:
        return bool(np.max(np.abs(self.as_array() - 1.0 / 3.0)) <= tol)


@dataclass(frozen=True)
class InterferometerConfig:
    """Arm phases, coupler ratios and the unit arm delay for both parties."""

    alice: ArmPhases = ArmPhases()
    bob: ArmPhases = ArmPhases()
    alice_ratios: CouplerRatios = CouplerRatios.symmetric()
    bob_ratios: CouplerRatios = CouplerRatios.symmetric()
    unit_delay_ns: float = 1.2

    def __post_init__(self):
        if not self.unit_delay_ns > 0.0:
            raise ValueError(f"unit delay must be positive, got {self.unit_delay_ns!r}")

    def has_symmetric_ratios(self) -> bool:
        return self.alice_ratios.is_symmetric() and self.bob_ratios.is_symmetric()


@dataclass(frozen=True)
class EffectivePhasePair:
    """The two free interference phases of the central-peak fringe law."""

    phi_r: float
    phi_l: float


@dataclass(frozen=True)
class PathPair:
    """One Alice path and one Bob path, each in {'s', 'm', 'l'}."""

    alice_path: str
    bob_path: str

    def __post_init__(self):
        for p in (self.alice_path, self.bob_path):
            if p not in PATH_INDEX:
                raise ValueError(f"path must be one of 's', 'm', 'l', got {p!r}")

    def delta_units(self) -> int:
        return PATH_INDEX[self.alice_path] - PATH_INDEX[self.bob_path]


def delta_t(pair: PathPair, unit_delay_ns: float) -> float:
    """Arrival-time difference t_A - t_B (ns) for one path combination."""
    return pair.delta_units() * unit_delay_ns


def peak_weights() -> dict:
    """Probability of each dt class (in unit-delay multiples), symmetric couplers.

    Nine equiprobable path pairs fall 1:2:3:2:1 onto the five classes.
    """
    return {-2: 1.0 / 9.0, -1: 2.0 / 9.0, 0: 3.0 / 9.0, +1: 2.0 / 9.0, +2: 1.0 / 9.0}


def _check_detector_indices(j: int, k: int):
    if j not in (0, 1, 2) or k not in (0, 1, 2):
        raise ValueError(f"detector indices must be in {{0, 1, 2}}, got ({j!r}, {k!r})")


def detector_pair_phase_offsets(j: int, k: int) -> tuple:
    """Coupler phase offsets (medium, long) of detector pair (j, k).

    Composing the two output-coupler entries exp(i 2*pi j p / 3) and
    exp(i 2*pi k p / 3) gives the mm term an offset 2*pi*(j+k)/3 and the
    ll term 4*pi*(j+k)/3 relative to ss, both reduced to [0, 2*pi).
    """
    _check_detector_indices(j, k)
    chi_m = (2.0 * np.pi * (j + k) / 3.0) % (2.0 * np.pi)
    chi_l = (4.0 * np.pi * (j + k) / 3.0) % (2.0 * np.pi)
    return chi_m, chi_l


def _arm_amplitudes(cfg: InterferometerConfig) -> tuple:
    """Per-arm amplitudes sqrt(p) e^{i phase} of Alice and Bob (dial + long-arm trim)."""
    phase_a = np.array([0.0, cfg.alice.phi_m, cfg.alice.phi_l + ALICE_LONG_ARM_TRIM])
    phase_b = np.array([0.0, cfg.bob.phi_m, cfg.bob.phi_l + BOB_LONG_ARM_TRIM])
    amp_a = np.sqrt(cfg.alice_ratios.as_array()) * np.exp(1j * phase_a)
    amp_b = np.sqrt(cfg.bob_ratios.as_array()) * np.exp(1j * phase_b)
    return amp_a, amp_b


def pair_amplitudes(cfg: InterferometerConfig) -> np.ndarray:
    """Two-photon amplitudes A[alice_path, bob_path, j, k] at detectors (j, k).

    Each path pair carries its coupler weights and arm phases and passes
    through both output couplers.  Every state and distribution below is a
    sum of these terms over one dt class of CLASS_PATH_PAIRS.
    """
    u = tritter()
    amp_a, amp_b = _arm_amplitudes(cfg)
    amps = np.empty((3, 3, 3, 3), dtype=complex)
    for pa in range(3):
        for pb in range(3):
            amps[pa, pb] = amp_a[pa] * amp_b[pb] * np.outer(u[:, pa], u[:, pb])
    return amps


def _class_state(cls: int, cfg: InterferometerConfig, j: int, k: int) -> np.ndarray:
    """9-vector of one dt class's path-pair amplitudes at detectors (j, k)."""
    _check_detector_indices(j, k)
    amps = pair_amplitudes(cfg)
    state = np.zeros((3, 3), dtype=complex)
    for pa, pb in CLASS_PATH_PAIRS[cls]:
        state[pa, pb] = amps[pa, pb, j, k]
    return state.reshape(9)


def central_state(cfg: InterferometerConfig, j: int, k: int) -> PureState:
    """Post-selected two-photon state of the central peak at detectors (j, k).

    Supported on {ss, mm, ll}:

        sqrt(pA_s pB_s) |ss>
      + sqrt(pA_m pB_m) e^{i(alpha_m + beta_m + chi_m)} |mm>
      + sqrt(pA_l pB_l) e^{i(alpha_l + beta_l + chi_l)} |ll>

    normalized.  The long-arm trims cancel between the parties here.
    """
    return normalize(PureState(_class_state(PEAK_CLASS["central"], cfg, j, k)))


def satellite_phase(side: str, cfg: InterferometerConfig, j: int, k: int) -> float:
    """Interference phase of one satellite peak at detector pair (j, k).

    left  (lm relative to ms): (alpha_l - alpha_m) + beta_m + chi_m - 2*pi/3
    right (ml relative to sm): alpha_m + (beta_l - beta_m) + chi_m + 2*pi/3

    where chi_m = 2*pi*(j+k)/3 and the constant offsets are the long-arm
    trims surviving on one side of each two-path superposition.
    """
    _check_detector_indices(j, k)
    if side not in PEAK_SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    chi_m, _ = detector_pair_phase_offsets(j, k)
    a, b = cfg.alice, cfg.bob
    if side == "left":
        return (a.phi_l - a.phi_m) + b.phi_m + chi_m + ALICE_LONG_ARM_TRIM
    return a.phi_m + (b.phi_l - b.phi_m) + chi_m + BOB_LONG_ARM_TRIM


def satellite_state(side: str, cfg: InterferometerConfig, j: int, k: int) -> PureState:
    """Post-selected two-photon state of a satellite peak at detectors (j, k).

    A two-term superposition on the side's path pairs, e.g. for the left
    peak (|ms> + e^{i theta} |lm>) / sqrt(2) at symmetric couplers, with
    theta = satellite_phase(side, cfg, j, k).  The global phase makes the
    reference term (ms or sm) real and positive.
    """
    if side not in PEAK_SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    cls = PEAK_CLASS[side]
    amps = _class_state(cls, cfg, j, k)
    ref = amps[joint_index(*CLASS_PATH_PAIRS[cls][0])]
    return normalize(PureState(amps * np.exp(-1j * np.angle(ref))))


def effective_phases(cfg: InterferometerConfig, j: int, k: int) -> EffectivePhasePair:
    """The two free phases (phi_r, phi_l) of the central fringe at (j, k).

    phi_r is the phase of the mm term relative to ss and phi_l the phase of
    the ll term relative to mm, so the central state reads
    |ss> + e^{i phi_r} |mm> + e^{i (phi_r + phi_l)} |ll> (symmetric couplers).
    These are also the phases tracked by the right and left satellite
    fringes (up to the fixed trim offsets), which is what makes the
    satellites usable as a phase monitor.  Both values are wrapped to
    (-pi, pi].
    """
    _check_detector_indices(j, k)
    chi_m, _ = detector_pair_phase_offsets(j, k)
    a, b = cfg.alice, cfg.bob
    phi_r = (a.phi_m + b.phi_m) + chi_m
    phi_l = (a.phi_l - a.phi_m) + (b.phi_l - b.phi_m) + chi_m
    return EffectivePhasePair(float(wrap_phase(phi_r)), float(wrap_phase(phi_l)))


def phases_for_fringe_targets(phi_r: float, phi_l: float) -> ArmPhases:
    """Alice dial phases that realize (phi_r, phi_l) at detector pair (0, 0).

    With Bob's dials at zero: alpha_m = phi_r, alpha_l = phi_r + phi_l.
    Inverse of `effective_phases` on its (0, 0) slice.
    """
    return ArmPhases(phi_m=phi_r, phi_l=phi_r + phi_l)


def fringe_probability(phi_r: float, phi_l: float, lam: float) -> float:
    """Central-peak coincidence law for one detector pair, symmetric couplers.

        P = [3 + 2*lam*(cos phi_r + cos phi_l + cos(phi_r + phi_l))] / 27

    The divisor 27 conditions on a central-peak coincidence: summing over
    the nine detector pairs gives 1.  Maximum 1/3 at phi_r = phi_l = 0;
    zero requires {phi_r, phi_l, phi_r + phi_l} all at +-2*pi/3.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    bracket = 3.0 + 2.0 * lam * (np.cos(phi_r) + np.cos(phi_l) + np.cos(phi_r + phi_l))
    return float(bracket) / 27.0


def _require_symmetric(cfg: InterferometerConfig, what: str):
    if not cfg.has_symmetric_ratios():
        raise UnsupportedConfigurationError(
            f"{what} is closed-form only for symmetric coupler ratios; "
            "use joint_distribution() / born_probability() for general ratios"
        )


def coincidence_prob_central(cfg: InterferometerConfig, j: int, k: int, lam: float) -> float:
    """P(detectors j, k | central-peak coincidence) under noise weight lam."""
    _require_symmetric(cfg, "the central fringe law")
    pair = effective_phases(cfg, j, k)
    return fringe_probability(pair.phi_r, pair.phi_l, lam)


def coincidence_prob_satellite(
    side: str, cfg: InterferometerConfig, j: int, k: int, lam: float
) -> float:
    """P(detectors j, k | coincidence in the given satellite peak).

    Two-path interference: [1 + lam*cos(theta_jk)] / 9, summing to 1 over
    the nine detector pairs.
    """
    _require_symmetric(cfg, "the satellite fringe law")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    theta = satellite_phase(side, cfg, j, k)
    return float(1.0 + lam * np.cos(theta)) / 9.0


def joint_distribution(cfg: InterferometerConfig, lam: float) -> np.ndarray:
    """Full outcome distribution P[class, j, k] over the five dt classes.

    Index 0..4 maps to dt = -2..+2 unit delays.  The pure part sums path
    amplitudes coherently within each class and propagates them through
    both output couplers; the noise part keeps the class weights and makes
    the detectors uniform, matching the symmetric-noise model of the
    closed-form fringe laws.  Works for arbitrary coupler ratios.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    amps = pair_amplitudes(cfg)
    amp_a, amp_b = _arm_amplitudes(cfg)
    # Coherent sum over the indistinguishable path pairs of each dt class.
    pure = np.array([np.abs(sum(amps[pair] for pair in pairs)) ** 2 for pairs in CLASS_PATH_PAIRS])
    class_weight = np.array(
        [sum((abs(amp_a[pa]) * abs(amp_b[pb])) ** 2 for pa, pb in pairs) for pairs in CLASS_PATH_PAIRS]
    )

    noise = class_weight[:, None, None] * np.ones((1, 3, 3)) / 9.0
    dist = lam * pure + (1.0 - lam) * noise
    total = dist.sum()
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"joint distribution sums to {total!r}")
    return dist / total
