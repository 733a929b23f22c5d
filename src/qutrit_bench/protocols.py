"""Protocol-level simulations on the heralded-qutrit source.

The source is read as a prepare-and-measure channel: Alice's local
detection heralds a conditional single-photon state flying to Bob.
Central-peak coincidences herald qutrits (used for key distribution);
satellite coincidences herald qubit subspaces (used for coin tossing).

Correlation bookkeeping: with the pair state (|ss> + |mm> + |ll>)/sqrt(3),
Alice's outcome in basis {v_t} heralds Bob's photon in conj(v_t), so Bob's
measurement bases are the complex conjugates of Alice's.  With that
convention matched bases yield equal trits, and any unmatched pair of the
four mutually unbiased bases yields a uniform trit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DensityOperator, PureState, born_probability, normalize
from .errors import ConfigurationError
from .source import CLASS_PATH_PAIRS, PEAK_CLASS, InterferometerConfig, pair_amplitudes

BASIS_IDS = ("computational", "fourier0", "fourier1", "fourier2")
QKD_MODES = {
    # The computational basis needs input switches this interferometer
    # lacks, hence the phase_only_three mode.
    "two_basis": ("computational", "fourier0"),
    "four_basis": BASIS_IDS,
    "phase_only_three": ("fourier0", "fourier1", "fourier2"),
}

# Bob's path-to-trit relabeling used by the coin-toss subspaces: s->1, m->0, l->2.
BOB_TRIT_OF_PATH = (1, 0, 2)

_OMEGA = np.exp(2j * np.pi / 3.0)


@dataclass(frozen=True)
class Basis:
    """An orthonormal qutrit basis; rows of `vectors` are the kets."""

    id: str
    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=complex)
        if arr.shape != (3, 3):
            raise ValueError("a qutrit basis needs three 3-vectors")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)


def mub_bases() -> tuple:
    """The computational basis plus three superposition bases, all pairwise
    mutually unbiased: any cross-basis overlap has |<e|f>|^2 = 1/3.

    Superposition basis b has kets (|0> + w^t |1> + w^{2t+b} |2>)/sqrt(3),
    w = exp(2*pi*i/3), t = 0..2.
    """
    bases = [Basis("computational", np.eye(3, dtype=complex))]
    for b in range(3):
        vectors = np.array(
            [[1.0, _OMEGA**t, _OMEGA ** (2 * t + b)] for t in range(3)], dtype=complex
        ) / np.sqrt(3.0)
        bases.append(Basis(f"fourier{b}", vectors))
    return tuple(bases)


def herald_state(alice_peak: str, alice_detector: int, cfg: InterferometerConfig) -> PureState:
    """Bob's conditional single-photon state given Alice's detection.

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
    return normalize(PureState(amps))


# --------------------------------------------------------------------------
# Quantum key distribution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EveModel:
    """Intercept-resend attacker acting on the heralded qutrit."""

    kind: str = "none"
    basis_pool: tuple = ()

    def __post_init__(self):
        if self.kind not in ("none", "intercept_resend"):
            raise ConfigurationError(f"unknown eavesdropper kind {self.kind!r}")
        pool = tuple(self.basis_pool)
        for name in pool:
            if name not in BASIS_IDS:
                raise ConfigurationError(f"unknown basis {name!r} in eavesdropper pool")
        if self.kind == "intercept_resend" and not pool:
            raise ConfigurationError("intercept-resend attacker needs a non-empty basis pool")
        object.__setattr__(self, "basis_pool", pool)

    @classmethod
    def none(cls) -> "EveModel":
        return cls()

    @classmethod
    def intercept_resend(cls, basis_pool=BASIS_IDS) -> "EveModel":
        return cls("intercept_resend", tuple(basis_pool))


@dataclass(frozen=True)
class QkdSummary:
    rounds: int
    postselect_ratio: float
    sift_ratio: float
    qber: float
    verdicts: dict
    sifted_count: int = 0
    postselect_ratio_ok: bool = True


def qber_thresholds() -> dict:
    """Security thresholds the measured trit error rate is compared against.

    Individual attacks: 21.13% for the 2-basis qutrit protocol (closed form
    (1 - 1/sqrt(3))/2) and 22.67% for the 4-basis one.  Coherent attacks:
    11% for qubits (reference) rising to roughly 16% for qutrits; the
    stored 0.1596 comes from the cited security analysis and should be
    displayed as approximate.
    """
    return {
        "qutrit_2basis_individual": 0.2113,
        "qutrit_4basis_individual": 0.2267,
        "qubit_coherent_reference": 0.11,
        "qutrit_coherent": 0.1596,
    }


_CENTRAL_SHARE = 3.0 / 9.0  # central peak's share of all coincidences


def run_qkd(
    rounds: int,
    mode: str = "four_basis",
    lam: float = 1.0,
    eve: EveModel = EveModel(),
    seed: int = 0,
    trace_path=None,
) -> QkdSummary:
    """Simulate heralded-qutrit key distribution.

    Each round is one coincidence; only central-peak rounds (3 of the 9
    path combinations, so about a third of the signal) survive
    post-selection.  Alice and Bob draw bases uniformly from the mode's
    pool, sift on matching bases, and compare trits: matched bases agree
    deterministically on the pure-state fraction `lam` and are uniform on
    the white-noise fraction.  An intercept-resend attacker measures the
    flying qutrit in a random pool basis and resends their outcome.
    Deterministic for a given seed.
    """
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds!r}")
    if mode not in QKD_MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; expected one of {sorted(QKD_MODES)}")
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"mixing weight must lie in [0, 1], got {lam!r}")
    pool = QKD_MODES[mode]
    if not pool:
        raise ConfigurationError("basis pool is empty")

    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 101)))
    kept = rng.random(rounds) < _CENTRAL_SHARE
    n_kept = int(kept.sum())

    alice_basis = rng.integers(0, len(pool), size=n_kept)
    bob_basis = rng.integers(0, len(pool), size=n_kept)
    alice_trit = rng.integers(0, 3, size=n_kept)
    noisy = rng.random(n_kept) >= lam

    pool_names = np.array([BASIS_IDS.index(name) for name in pool])
    alice_global = pool_names[alice_basis]
    bob_global = pool_names[bob_basis]

    if eve.kind == "intercept_resend":
        eve_pool = np.array([BASIS_IDS.index(name) for name in eve.basis_pool])
        eve_basis = eve_pool[rng.integers(0, eve_pool.size, size=n_kept)]
        # Eve reads Alice's trit exactly only in Alice's basis on a clean round.
        eve_match = (eve_basis == alice_global) & ~noisy
        eve_trit = np.where(eve_match, alice_trit, rng.integers(0, 3, size=n_kept))
        bob_matches_eve = bob_global == eve_basis
        bob_trit = np.where(bob_matches_eve, eve_trit, rng.integers(0, 3, size=n_kept))
    else:
        matched = (alice_basis == bob_basis) & ~noisy
        bob_trit = np.where(matched, alice_trit, rng.integers(0, 3, size=n_kept))

    sifted = alice_basis == bob_basis
    n_sifted = int(sifted.sum())
    errors = int(np.sum(alice_trit[sifted] != bob_trit[sifted]))
    qber = errors / n_sifted if n_sifted else 0.0

    thresholds = qber_thresholds()
    verdicts = {name: ("secure" if qber < value else "insecure") for name, value in thresholds.items()}

    postselect_ratio = n_kept / rounds
    sigma = np.sqrt(_CENTRAL_SHARE * (1.0 - _CENTRAL_SHARE) / rounds)
    summary = QkdSummary(
        rounds=rounds,
        postselect_ratio=postselect_ratio,
        sift_ratio=n_sifted / n_kept if n_kept else 0.0,
        qber=qber,
        verdicts=verdicts,
        sifted_count=n_sifted,
        postselect_ratio_ok=bool(abs(postselect_ratio - _CENTRAL_SHARE) <= 3.0 * sigma),
    )
    if trace_path is not None:
        _write_qkd_trace(trace_path, kept, pool, alice_basis, bob_basis, alice_trit, bob_trit, sifted)
    return summary


_TRACE_HEADER = "round,alice_basis,bob_basis,alice_trit,bob_trit,sifted\r\n"
# Rows per write.  Bounded blocks keep peak memory flat: a 1M-round trace is
# about 11 MB, which one join over all rows would hold as a single string.
_TRACE_BLOCK_ROWS = 1024


def _write_qkd_trace(path, kept, pool, alice_basis, bob_basis, alice_trit, bob_trit, sifted):
    """Write one CSV row per post-selected round, `\\r\\n`-terminated.

    Everything after the round index takes one of 2*9*len(pool)**2 values,
    so each row is its round index plus a tail looked up by an integer code.
    """
    shape = (len(pool), len(pool), 3, 3, 2)
    tails = [
        f",{pool[a]},{pool[b]},{ta},{tb},{s}\r\n"
        for a, b, ta, tb, s in itertools.product(*map(range, shape))
    ]
    kept_rounds = np.flatnonzero(kept)
    with open(path, "w", newline="") as fh:
        fh.write(_TRACE_HEADER)
        for start in range(0, kept_rounds.size, _TRACE_BLOCK_ROWS):
            block = slice(start, start + _TRACE_BLOCK_ROWS)
            codes = np.ravel_multi_index(
                (alice_basis[block], bob_basis[block], alice_trit[block], bob_trit[block], sifted[block]),
                shape,
            )
            fh.write("".join(f"{r}{tails[c]}" for r, c in zip(kept_rounds[block].tolist(), codes.tolist())))


# --------------------------------------------------------------------------
# Coin tossing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinTossSummary:
    rounds: int
    left_fraction: float
    outcome_bias: float
    agreement_rate: float


def coin_toss_prepared_state(side: str, sign: int) -> PureState:
    """The state Alice sends after a satellite herald, in Bob's trit labels.

    Bob's satellite subspaces relabel (via s->1, m->0, l->2) to {0, 1} for
    a left herald and {0, 2} for a right herald, so the prepared states are
    (|0> +- |1>)/sqrt(2) and (|0> +- |2>)/sqrt(2).
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be +1 or -1")
    bob_paths = {"left": (0, 1), "right": (1, 2)}  # Bob path indices s,m / m,l
    if side not in bob_paths:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    trits = sorted(BOB_TRIT_OF_PATH[p] for p in bob_paths[side])
    amps = np.zeros(3, dtype=complex)
    amps[trits[0]] = 1.0  # trit 0 carries the reference amplitude
    amps[trits[1]] = float(sign)
    return normalize(PureState(amps))


def _honest_agreement_probability(lam: float) -> float:
    """Born probability that Bob's verification matches the prepared state.

    White noise is confined to the heralded two-path subspace, so the
    received state is lam |h><h| + (1 - lam) I_2/2 and the match
    probability is (1 + lam)/2; by symmetry it is the same for every
    side/sign combination.
    """
    prepared = coin_toss_prepared_state("left", +1)
    support = np.abs(prepared.amplitudes) > 0
    subspace_identity = np.diag(support.astype(complex)) / 2.0
    rho = DensityOperator(lam * prepared.projector() + (1.0 - lam) * subspace_identity)
    return born_probability(rho, prepared)


def run_coin_toss(rounds: int, lam: float = 1.0, seed: int = 0) -> CoinTossSummary:
    """Honest execution of the satellite-peak coin-toss scheme.

    The photon picks the left or right satellite with equal probability
    (the two peaks carry equal weight); Alice's two-outcome projection in
    her heralded qubit subspace fixes the +- sign, which is the coin.  Bob
    verifies by projecting onto the expected prepared state; white noise in
    the two-dimensional herald subspace makes him agree with probability
    (1 + lam)/2.
    """
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds!r}")
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"mixing weight must lie in [0, 1], got {lam!r}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 202)))
    left = rng.random(rounds) < 0.5
    sign = np.where(rng.random(rounds) < 0.5, 1, -1)
    agree_prob = _honest_agreement_probability(lam)
    agree = rng.random(rounds) < agree_prob
    return CoinTossSummary(
        rounds=rounds,
        left_fraction=float(left.mean()),
        outcome_bias=float(sign.mean()),
        agreement_rate=float(agree.mean()),
    )
