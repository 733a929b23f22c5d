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
each path pair at each detector pair.  The outcome distribution, the
central-peak state and the heralded states are sums of its terms over the
path pairs of one class (`CLASS_PATH_PAIRS`).  It holds for any coupler
ratios; the paper's fringe laws are its values at symmetric couplers, e.g.
the central law P = [3 + 2*lam*(cos phi_r + cos phi_l + cos(phi_r + phi_l))] / 27.

The kernel has a leading step axis of dial rows (alpha_m, alpha_l, beta_m,
beta_l), both parties' dials: `step_distributions` gives the outcome tables
of every step of a dial scan in one call, and `pair_amplitudes`,
`class_weights` and `joint_distribution` are its one-row case.  Each row
equals, bit for bit, the row computed for that step's configuration alone.

Because the output couplers are discrete-Fourier unitaries, the medium
and long two-photon terms acquire detector-dependent offsets
2*pi*(j+k)/3 and 4*pi*(j+k)/3 relative to the short term, so every central
coincidence probability depends on the detector pair (j, k) only through
(j + k) mod 3.

States are plain complex arrays.  A two-photon state is a 9-vector in the
basis (ss, sm, sl, ms, mm, ml, ls, lm, ll): Alice's path is the major index
and paths are ordered short < medium < long.  All modules share this
ordering.  A heralded single-photon state is a 3-vector over Bob's paths.

The symmetric 3x3 output coupler is the 3-dimensional discrete Fourier
unitary `tritter`, entry (j, p) = exp(i 2*pi j p / 3) / sqrt(3).  Any
lossless symmetric coupler is equivalent to this choice up to port
relabeling and fixed port phases, which the arm phases absorb.

`timetags` and `protocols` sample the model through the draws at the end:
`substream` seeds each named draw, `draw_cells` draws cells of probability
tables as `Generator.choice` does, by one guide-table inverse CDF, and
`draw_below` is the one blocked Bernoulli draw.

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
  dt = +1 unit delay (dt = t_A - t_B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateStateError

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

_TRITTER = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3.0) / np.sqrt(3.0)
_TRITTER.setflags(write=False)


def tritter() -> np.ndarray:
    """The symmetric 3x3 coupler unitary (discrete Fourier convention).

    Entry (j, p) = exp(i 2*pi j p / 3) / sqrt(3); all magnitudes 1/sqrt(3),
    relative phases are integer multiples of 2*pi/3.  The matrix is built
    once at import and returned read-only.
    """
    return _TRITTER


# Output-coupler factors U[j, pa] * U[k, pb] of each path pair, indexed [pa, pb, j, k].
_COUPLER_PAIRS = tritter().T[:, None, :, None] * tritter().T[None, :, None, :]


@dataclass(frozen=True)
class ArmPhases:
    """Dial phases (radians) of the medium and long arms, stored unreduced."""

    phi_m: float = 0.0
    phi_l: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.phi_m) and np.isfinite(self.phi_l)):
            raise ConfigurationError("arm phases must be finite")


@dataclass(frozen=True)
class CouplerRatios:
    """Splitting probabilities |c_s|^2, |c_m|^2, |c_l|^2 of one input coupler."""

    p_s: float
    p_m: float
    p_l: float

    def __post_init__(self):
        probs = (self.p_s, self.p_m, self.p_l)
        if any(p < 0.0 for p in probs):
            raise ConfigurationError(f"splitting ratios must be non-negative, got {probs}")
        if abs(sum(probs) - 1.0) > _RATIO_TOL:
            raise ConfigurationError(f"splitting ratios must sum to 1, got {sum(probs)!r}")

    @classmethod
    def symmetric(cls) -> "CouplerRatios":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.p_s, self.p_m, self.p_l])


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
            raise ConfigurationError(f"unit delay must be positive, got {self.unit_delay_ns!r}")


def _arm_amplitudes(cfg: InterferometerConfig, dials=None) -> tuple:
    """Per-arm amplitudes sqrt(p) e^{i phase} of Alice and Bob (dial + long-arm trim).

    Each is an (S, 3) array, one row per (alpha_m, alpha_l, beta_m, beta_l)
    row of `dials` (default: the one row of the dials in `cfg`).
    """
    if dials is None:
        dials = [(cfg.alice.phi_m, cfg.alice.phi_l, cfg.bob.phi_m, cfg.bob.phi_l)]
    dials = np.asarray(dials, dtype=float)
    if dials.ndim != 2 or dials.shape[1] != 4:
        raise ValueError(f"dial settings must have shape (S, 4), got {dials.shape}")
    phase = np.zeros((len(dials), 2, 3))  # [row, party, path]
    phase[:, :, 1:] = dials.reshape(-1, 2, 2)
    phase[:, :, 2] += (ALICE_LONG_ARM_TRIM, BOB_LONG_ARM_TRIM)
    amp_a = np.sqrt(cfg.alice_ratios.as_array()) * np.exp(1j * phase[:, 0])
    amp_b = np.sqrt(cfg.bob_ratios.as_array()) * np.exp(1j * phase[:, 1])
    return amp_a, amp_b


def _pair_amplitudes(amp_a: np.ndarray, amp_b: np.ndarray) -> np.ndarray:
    """A[s, alice_path, bob_path, j, k] from the arm amplitudes of S dial rows.

    The arm products are written out in real arithmetic, which rounds as the
    scalar complex product `a * b` of the reference implementation in
    tests/test_references.py does; numpy's array complex multiply may fuse
    them (FMA) and round differently.
    """
    ar, ai = amp_a.real[:, :, None], amp_a.imag[:, :, None]
    br, bi = amp_b.real[:, None, :], amp_b.imag[:, None, :]
    arms = np.empty(ar.shape[:2] + (3,), dtype=complex)
    arms.real = ar * br - ai * bi
    arms.imag = ar * bi + ai * br
    return arms[..., None, None] * _COUPLER_PAIRS


def pair_amplitudes(cfg: InterferometerConfig) -> np.ndarray:
    """Two-photon amplitudes A[alice_path, bob_path, j, k] at detectors (j, k).

    Each path pair carries its coupler weights and arm phases and passes
    through both output couplers.  Every state and distribution below is a
    sum of these terms over one dt class of CLASS_PATH_PAIRS.  This is the
    one-row case of the step kernel behind `step_distributions`.
    """
    return _pair_amplitudes(*_arm_amplitudes(cfg))[0]


def _unit(amps: np.ndarray) -> np.ndarray:
    """`amps` scaled to unit norm; raises DegenerateStateError on a zero vector."""
    n = float(np.linalg.norm(amps))
    if n < 1e-300:
        raise DegenerateStateError("cannot normalize a zero state vector")
    return amps / n


def central_state(cfg: InterferometerConfig, j: int, k: int) -> np.ndarray:
    """Post-selected two-photon state of the central peak at detectors (j, k).

    A unit 9-vector supported on {ss, mm, ll}:

        sqrt(pA_s pB_s) |ss>
      + sqrt(pA_m pB_m) e^{i(alpha_m + beta_m + chi_m)} |mm>
      + sqrt(pA_l pB_l) e^{i(alpha_l + beta_l + chi_l)} |ll>

    normalized, with the output couplers' offsets chi_m = 2*pi*(j+k)/3 and
    chi_l = 4*pi*(j+k)/3.  The long-arm trims cancel between the parties here.
    """
    if j not in (0, 1, 2) or k not in (0, 1, 2):
        raise ValueError(f"detector indices must be in {{0, 1, 2}}, got ({j!r}, {k!r})")
    diagonal = np.diagonal(pair_amplitudes(cfg)[:, :, j, k])  # ss, mm, ll: the central class
    return _unit(np.diag(diagonal).reshape(9))


def herald_state(alice_peak: str, alice_detector: int, cfg: InterferometerConfig) -> np.ndarray:
    """Bob's conditional single-photon state given Alice's detection, a unit 3-vector.

    A central-peak herald projects Bob onto a three-path superposition whose
    phases follow Alice's dials and the coupler offsets; a satellite herald
    projects onto the corresponding two-path subspace.
    """
    if alice_detector not in (0, 1, 2):
        raise ValueError(f"detector index must be in {{0, 1, 2}}, got {alice_detector!r}")
    if alice_peak not in PEAK_CLASS:
        raise ValueError(f"peak must be 'central', 'left' or 'right', got {alice_peak!r}")
    # Bob's detector 0 sees every path with the same factor 1/sqrt(3), so
    # its slice of the kernel is Bob's path amplitudes up to normalization.
    kernel = pair_amplitudes(cfg)
    amps = np.zeros(3, dtype=complex)
    for pa, pb in CLASS_PATH_PAIRS[PEAK_CLASS[alice_peak]]:
        amps[pb] = kernel[pa, pb, alice_detector, 0]
    return _unit(amps)


def _class_weights(amp_a: np.ndarray, amp_b: np.ndarray) -> np.ndarray:
    """W[s, class]: the sum of |a_pa|^2 |b_pb|^2 over each class's path pairs.

    Moduli are taken with hypot, as builtin `abs` of a complex does, and
    squared with Python's float power, which rounds through libm `pow`;
    numpy's array square differs from it in about one term in a thousand.
    """
    moduli = np.hypot(amp_a.real, amp_a.imag)[:, :, None] * np.hypot(amp_b.real, amp_b.imag)[:, None, :]
    terms = np.array([m**2 for m in moduli.ravel().tolist()]).reshape(moduli.shape)
    return np.stack([sum(terms[:, pa, pb] for pa, pb in pairs) for pairs in CLASS_PATH_PAIRS], axis=1)


def class_weights(cfg: InterferometerConfig) -> np.ndarray:
    """Probability of each dt class, index 0..4 for dt = -2..+2 unit delays.

    Path pair (pa, pb) arrives with weight pA_pa * pB_pb whatever the
    phases, so symmetric couplers give 1:2:3:2:1 over the nine pairs.
    """
    return _class_weights(*_arm_amplitudes(cfg))[0]


def step_distributions(cfg: InterferometerConfig, lam: float, dials=None) -> np.ndarray:
    """Outcome distributions P[s, class, j, k] of the steps of a dial scan.

    Row s is `joint_distribution` of `cfg` with both parties' dials set to
    `dials[s]` = (alpha_m, alpha_l, beta_m, beta_l), bit for bit: the rows
    share one pass of the amplitude kernel instead of one call per step.
    With no `dials` the one row is `cfg`'s own.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    amp_a, amp_b = _arm_amplitudes(cfg, dials)
    amps = _pair_amplitudes(amp_a, amp_b)
    # Coherent sum over the indistinguishable path pairs of each dt class.
    pure = np.stack(
        [np.abs(sum(amps[:, pa, pb] for pa, pb in pairs)) ** 2 for pairs in CLASS_PATH_PAIRS], axis=1
    )
    noise = _class_weights(amp_a, amp_b)[:, :, None, None] * np.ones((1, 1, 3, 3)) / 9.0
    dist = lam * pure + (1.0 - lam) * noise
    total = dist.sum(axis=(1, 2, 3))
    if np.any(np.abs(total - 1.0) > 1e-9):
        raise AssertionError(f"joint distribution sums to {total[np.argmax(np.abs(total - 1.0))]!r}")
    return dist / total[:, None, None, None]


def joint_distribution(cfg: InterferometerConfig, lam: float) -> np.ndarray:
    """Full outcome distribution P[class, j, k] over the five dt classes.

    Index 0..4 maps to dt = -2..+2 unit delays.  The pure part sums path
    amplitudes coherently within each class and propagates them through
    both output couplers; the noise part keeps the class weights and makes
    the detectors uniform, the white-noise weight 1 - lam of the paper's
    fringe laws.  Works for arbitrary coupler ratios.  The
    one-row case of `step_distributions`.
    """
    return step_distributions(cfg, lam)[0]


# --------------------------------------------------------------------------
# Seeded draws from the model's tables
# --------------------------------------------------------------------------

# Substream tags: the time-tag stream's draw kinds, then the two protocols.
_STREAM_TAGS = {"emission": 0, "outcome": 1, "jitter": 2, "efficiency": 3, "dark": 4, "qkd": 101, "toss": 202}
# Uniforms per block of `draw_cells` and `draw_below`, which bounds their temporaries.
_DRAW_BLOCK = 1 << 14


def substream(seed: int, name: str, extra: tuple = ()) -> np.random.Generator:
    """PCG64 seeded by SeedSequence((seed, tag of `name`) + extra): one
    independent generator per named draw of a seeded run (and per `extra`)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), _STREAM_TAGS[name]) + extra)))


def draw_below(rng: np.random.Generator, p, n: int) -> np.ndarray:
    """`rng.random(n) < p` and the generator state after it, `_DRAW_BLOCK` uniforms a call.

    `p` is one probability for all draws or one per draw.
    """
    below = np.empty(n, dtype=bool)
    for start in range(0, n, _DRAW_BLOCK):
        block = below[start : start + _DRAW_BLOCK]
        np.less(rng.random(block.size), p if np.ndim(p) == 0 else p[start : start + _DRAW_BLOCK], out=block)
    return below


def draw_cells(rng: np.random.Generator, tables: np.ndarray, rows, n: int) -> np.ndarray:
    """Per draw, `rng.choice(width, p=row / row.sum())` of its row of `tables`, as uint8.

    `tables` is an (R, width) array of probability rows, width <= 256, and
    `rows` one row index for all n draws or one per draw.  Draw i is the one
    `choice` makes from the i-th uniform of `rng.random(n)`, which is drawn
    `_DRAW_BLOCK` uniforms a call and leaves the generator where one call
    would.  `choice`'s checks on its probabilities are made on each row: a
    NaN, a negative entry or a sum off 1 by more than sqrt(eps) raises
    ValueError.

    A guide-table inverse CDF (Chen & Asau, AIIE Transactions 6, 163
    (1974)) on `choice`'s CDF: the cumulative sum of the normalised row,
    divided by its last entry, so that entry is 1 and above every u.  A
    row's guide cell g of `cells` (the least power of two >= 16 * width, so
    floor(u * cells) and the edges g / cells are exact) holds the number of
    its entries at or below g / cells.  A u in cell g has at least those
    entries at or below it, so its count starts there and steps forward past
    each further entry at or below u: the count `choice`'s binary search gives.
    """
    total = tables.sum(axis=1)
    if np.isnan(total).any():
        raise ValueError("outcome probabilities contain NaN")
    if (tables < 0.0).any():
        raise ValueError("outcome probabilities are not non-negative")
    off = np.abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps)
    if off.any():
        raise ValueError(f"outcome probabilities sum to {total[off][0]!r}, not 1")
    cdf = (tables / total[:, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    width = cdf.shape[1]
    cells = 1 << (16 * width - 1).bit_length()
    edges = np.arange(cells) / cells
    # Guide entries are positions in the flattened table; no step leaves its row.
    flat = cdf.ravel()
    guide = np.concatenate([row.searchsorted(edges, side="right") + r * width for r, row in enumerate(cdf)])
    out = np.empty(n, dtype=np.uint8)
    for start in range(0, n, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, n)
        v = rng.random(stop - start)
        row = rows if np.ndim(rows) == 0 else rows[start:stop]
        at = (v * cells).astype(np.intp)
        at += row * cells
        at = guide[at]
        todo = np.flatnonzero(flat[at] <= v)
        while todo.size:
            at[todo] += 1
            todo = todo[flat[at[todo]] <= v[todo]]
        at -= row * width
        out[start:stop] = at
    return out
