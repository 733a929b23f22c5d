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

Every rate comes from the amplitude kernel of `source`: the post-selected
share is the central class weight, the trit pairs are Born probabilities
of the central class path state and the coin toss uses the satellite
herald states.  So coupler ratios and dial phases show up in the rates.
The white-noise laws, QBER 2(1 - lam)/3 and coin-toss agreement
(1 + lam)/2, hold at symmetric couplers and zero dials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .source import (
    PEAK_CLASS,
    InterferometerConfig,
    central_state,
    class_weights,
    draw_below,
    draw_cells,
    herald_state,
    substream,
)

BASIS_IDS = ("computational", "fourier0", "fourier1", "fourier2")
QKD_MODES = {
    # The computational basis needs input switches this interferometer
    # lacks, hence the phase_only_three mode.
    "two_basis": ("computational", "fourier0"),
    "four_basis": BASIS_IDS,
    "phase_only_three": ("fourier0", "fourier1", "fourier2"),
}
EVE_KINDS = ("none", "intercept_resend")

_OMEGA = np.exp(2j * np.pi / 3.0)


def mub_bases() -> np.ndarray:
    """The computational basis plus three superposition bases, all pairwise
    mutually unbiased: any cross-basis overlap has |<e|f>|^2 = 1/3.

    A read-only (4, 3, 3) array in `BASIS_IDS` order; row t of basis b is
    its ket t.  Superposition basis b has kets
    (|0> + w^t |1> + w^{2t+b} |2>)/sqrt(3), w = exp(2*pi*i/3), t = 0..2.
    """
    kets = [[[1.0, _OMEGA**t, _OMEGA ** (2 * t + b)] for t in range(3)] for b in range(3)]
    bases = np.concatenate([np.eye(3, dtype=complex)[None], np.array(kets, dtype=complex) / np.sqrt(3.0)])
    bases.setflags(write=False)
    return bases


# --------------------------------------------------------------------------
# Quantum key distribution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EveModel:
    """Intercept-resend attacker acting on the heralded qutrit."""

    kind: str = "none"
    basis_pool: tuple = ()

    def __post_init__(self):
        if self.kind not in EVE_KINDS:
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

    Individual attacks: (1 - 1/sqrt(3))/2 = 21.13% for the 2-basis qutrit
    protocol and 22.67% (quoted) for the 4-basis one.  Coherent attacks: the
    error rate D at which the key rate log2(d) - 2 [h(D) + D log2(d - 1)] of
    d-level BB84 reaches zero, h the binary entropy (Cerf et al., PRL 88,
    127902 (2002)): 11.00% for qubits (reference) and 15.95% for qutrits.
    """
    # Both roots at once, bisected on [0.01, 0.5] down to neighbouring doubles.
    d, lo, hi = np.array([2.0, 3.0]), np.full(2, 0.01), np.full(2, 0.5)
    for _ in range(64):
        mid = (lo + hi) / 2.0
        rate = np.log2(d) + 2.0 * (mid * np.log2(mid / (d - 1.0)) + (1.0 - mid) * np.log2(1.0 - mid))
        lo, hi = np.where(rate > 0.0, mid, lo), np.where(rate > 0.0, hi, mid)
    qubit, qutrit = hi.tolist()
    return {
        "qutrit_2basis_individual": (1.0 - 1.0 / np.sqrt(3.0)) / 2.0,
        "qutrit_4basis_individual": 0.2267,
        "qubit_coherent_reference": qubit,
        "qutrit_coherent": qutrit,
    }


def _trit_tables(lam: float, cfg: InterferometerConfig, pool: tuple, eve: EveModel) -> np.ndarray:
    """P(alice_trit, bob_trit) for each choice of bases, shape (..., 3, 3).

    The leading axes index Alice's pool, then Eve's if she attacks, then
    Bob's.  The central class path state of `cfg`, mixed with white noise
    at `lam`, is measured on Alice's ket a_t and on conj(v) for Bob's
    photon, with v from Bob's basis or, under attack, from Eve's.  Eve
    resends conj(e_s), which Bob's conj(b_u) then finds with |<e_s|b_u>|^2.
    """
    bases = mub_bases()
    psi = central_state(cfg, 0, 0).reshape(3, 3)
    ours = bases[[BASIS_IDS.index(name) for name in pool]]
    attacked = eve.kind == "intercept_resend"
    first = bases[[BASIS_IDS.index(name) for name in eve.basis_pool]] if attacked else ours
    tables = lam * np.abs(np.einsum("atp,pq,buq->abtu", ours.conj(), psi, first)) ** 2 + (1.0 - lam) / 9.0
    if attacked:
        resend = np.abs(np.einsum("esq,buq->ebsu", first.conj(), ours)) ** 2
        tables = np.einsum("aets,ebsu->aebtu", tables, resend)
    return tables


def run_qkd(
    rounds: int,
    mode: str = "four_basis",
    lam: float = 1.0,
    eve: EveModel = EveModel(),
    seed: int = 0,
    trace_path=None,
    interferometer: InterferometerConfig = InterferometerConfig(),
) -> QkdSummary:
    """Simulate heralded-qutrit key distribution.

    Each round is one coincidence, kept by post-selection with the central
    class weight of `interferometer` (a third at symmetric couplers).  Each
    kept round draws Alice's, Eve's and Bob's bases uniformly from their
    pools, then its trit pair from that basis choice's row of the Born
    tables (see `_trit_tables`) by `source.draw_cells`, the stream's sampler
    too: what `rng.choice(9, p=row / row.sum())` draws.  Rounds with
    matching bases are sifted and their disagreements are the QBER.
    Deterministic for a given seed.
    """
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds!r}")
    if mode not in QKD_MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; expected one of {sorted(QKD_MODES)}")
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"mixing weight must lie in [0, 1], got {lam!r}")
    share = class_weights(interferometer)[PEAK_CLASS["central"]]
    if share == 0.0:
        raise ConfigurationError("the coupler ratios leave the central peak empty")
    pool = QKD_MODES[mode]
    tables = _trit_tables(lam, interferometer, pool, eve).reshape(-1, 9)

    rng = substream(seed, "qkd")
    kept = draw_below(rng, share, rounds)
    n_kept = int(kept.sum())
    choice = rng.integers(0, len(tables), size=n_kept)
    alice_trit, bob_trit = np.divmod(draw_cells(rng, tables, choice, n_kept), 3)
    # A choice indexes the (alice, [eve,] bob) basis grid row-major.  Only the
    # per-round arrays the trace needs are left, so its blocks reuse freed memory.
    alice_basis, bob_basis = choice // (len(tables) // len(pool)), choice % len(pool)
    del choice

    sifted = alice_basis == bob_basis
    n_sifted = int(sifted.sum())
    errors = int(np.sum(alice_trit[sifted] != bob_trit[sifted]))
    qber = errors / n_sifted if n_sifted else 0.0

    thresholds = qber_thresholds()
    verdicts = {name: ("secure" if qber < value else "insecure") for name, value in thresholds.items()}

    postselect_ratio = n_kept / rounds
    sigma = np.sqrt(share * (1.0 - share) / rounds)
    summary = QkdSummary(
        rounds=rounds,
        postselect_ratio=postselect_ratio,
        sift_ratio=n_sifted / n_kept if n_kept else 0.0,
        qber=qber,
        verdicts=verdicts,
        sifted_count=n_sifted,
        postselect_ratio_ok=bool(abs(postselect_ratio - share) <= 3.0 * sigma),
    )
    if trace_path is not None:
        _write_qkd_trace(trace_path, kept, pool, alice_basis, bob_basis, alice_trit, bob_trit, sifted)
    return summary


_TRACE_HEADER = b"round,alice_basis,bob_basis,alice_trit,bob_trit,sifted\r\n"
# Rows per write.  Bounded blocks keep peak memory flat: a 1M-round trace is
# about 11 MB, which one pass over all rows would hold several times over.
_TRACE_BLOCK_ROWS = 4096


def _write_qkd_trace(path, kept, pool, alice_basis, bob_basis, alice_trit, bob_trit, sifted):
    """Write one CSV row per post-selected round, `\\r\\n`-terminated.

    Byte for byte what `csv.writer` writes, built as arrays with no Python
    object per row.  Everything after the round index takes one of
    2*9*len(pool)**2 values, so each row is its round index plus a tail
    looked up by an integer code.  A block of rows is a uint8 matrix: one
    column per decimal digit of the largest round, with NUL for a leading
    zero, then the row's tail from a table padded with NUL to one width.
    Dropping every NUL leaves the block's text, which goes to a binary file.
    """
    shape = (len(pool), len(pool), 3, 3, 2)
    tails = [
        f",{pool[a]},{pool[b]},{ta},{tb},{s}\r\n".encode()
        for a, b, ta, tb, s in itertools.product(*map(range, shape))
    ]
    width = max(map(len, tails))
    tail_bytes = np.frombuffer(b"".join(tail.ljust(width, b"\0") for tail in tails), dtype=np.uint8)
    tail_bytes = tail_bytes.reshape(len(tails), width)
    kept_rounds = np.flatnonzero(kept)
    digits = len(str(kept_rounds[-1])) if kept_rounds.size else 0
    with open(path, "wb") as fh:
        fh.write(_TRACE_HEADER)
        for start in range(0, kept_rounds.size, _TRACE_BLOCK_ROWS):
            block = slice(start, start + _TRACE_BLOCK_ROWS)
            rest = kept_rounds[block]
            rows = np.empty((rest.size, digits + width), dtype=np.uint8)
            # Units first.  Past the units, a round with nothing left is a leading zero.
            for column in range(digits - 1, -1, -1):
                quotient = rest // 10
                char = rest - 10 * quotient + ord("0")
                if column < digits - 1:
                    char *= rest > 0
                rows[:, column] = char
                rest = quotient
            codes = np.ravel_multi_index(
                (alice_basis[block], bob_basis[block], alice_trit[block], bob_trit[block], sifted[block]),
                shape,
            )
            rows[:, digits:] = tail_bytes[codes]
            fh.write(rows[rows != 0])


# --------------------------------------------------------------------------
# Coin tossing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinTossSummary:
    rounds: int
    left_fraction: float
    outcome_bias: float
    agreement_rate: float


def run_coin_toss(
    rounds: int, lam: float = 1.0, seed: int = 0, interferometer: InterferometerConfig = InterferometerConfig()
) -> CoinTossSummary:
    """Honest execution of the satellite-peak coin-toss scheme.

    The photon picks the left or right satellite in the ratio of their
    class weights; Alice's two-outcome projection in her heralded qubit
    subspace fixes the +- sign, which is the coin.  Bob verifies by
    projecting onto the herald state of the nominal interferometer.  He
    receives the herald state h of `interferometer` mixed with white noise
    in its two-path subspace, so he agrees with probability
    lam * |<h_nominal|h>|^2 + (1 - lam)/2: (1 + lam)/2 at the nominal
    interferometer.
    """
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds!r}")
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"mixing weight must lie in [0, 1], got {lam!r}")
    weights = class_weights(interferometer)
    w_left, w_right = weights[PEAK_CLASS["left"]], weights[PEAK_CLASS["right"]]
    if w_left == 0.0 or w_right == 0.0:
        raise ConfigurationError("the coupler ratios leave a satellite peak empty")
    nominal = InterferometerConfig()
    p_left, p_right = (
        lam * abs(complex(np.vdot(herald_state(side, 0, nominal), herald_state(side, 0, interferometer)))) ** 2
        + (1.0 - lam) / 2.0
        for side in ("left", "right")
    )
    rng = substream(seed, "toss")
    left = draw_below(rng, w_left / (w_left + w_right), rounds)
    sign = np.where(draw_below(rng, 0.5, rounds), 1, -1)
    agree = draw_below(rng, np.where(left, p_left, p_right), rounds)
    return CoinTossSummary(
        rounds=rounds,
        left_fraction=float(left.mean()),
        outcome_bias=float(sign.mean()),
        agreement_rate=float(agree.mean()),
    )
