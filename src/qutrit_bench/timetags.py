"""Seeded Monte Carlo generation and analysis of detection time-tag streams.

A run draws pair emissions as a Poisson process, samples each pair's
(dt class, detector_A, detector_B) outcome from the source model's joint
distribution, applies detector efficiency, timing jitter and dark counts,
and emits a time-sorted tag stream.  Coincidence identification, histogram
binning and per-peak post-selection operate on such streams.

All times are integer picoseconds: comparisons are exact, binning is
reproducible, and long runs accumulate no float drift.  Identical
configurations (including the seed) produce byte-identical streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OrderingError
from .source import InterferometerConfig, joint_distribution

PARTY_NAMES = ("alice", "bob")
_PEAK_MULTIPLIER = {"outer_right": -2, "right": -1, "central": 0, "left": +1, "outer_left": +2}

# Named RNG substreams derived from the master seed; vectorized draws from
# each keep results independent of batching.
_STREAM_EMISSION = 0
_STREAM_OUTCOME = 1
_STREAM_JITTER = 2
_STREAM_EFFICIENCY = 3
_STREAM_DARK = 4


@dataclass(frozen=True)
class DetectorModel:
    """Per-party detector imperfections; dark rate is per detector."""

    efficiency: float = 1.0
    dark_rate_hz: float = 0.0
    jitter_sigma_ps: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigurationError(f"efficiency must lie in [0, 1], got {self.efficiency!r}")
        if self.dark_rate_hz < 0.0:
            raise ConfigurationError(f"dark rate must be >= 0, got {self.dark_rate_hz!r}")
        if self.jitter_sigma_ps < 0.0:
            raise ConfigurationError(f"jitter sigma must be >= 0, got {self.jitter_sigma_ps!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulated acquisition run needs."""

    pair_rate_hz: float
    duration_s: float
    seed: int
    coincidence_window_ps: float = 300.0
    interferometer: InterferometerConfig = field(default_factory=InterferometerConfig)
    lam: float = 0.9688
    alice_detectors: DetectorModel = DetectorModel()
    bob_detectors: DetectorModel = DetectorModel()

    def __post_init__(self):
        if not self.pair_rate_hz > 0.0:
            raise ConfigurationError(f"pair rate must be positive, got {self.pair_rate_hz!r}")
        if not self.duration_s > 0.0:
            raise ConfigurationError(f"duration must be positive, got {self.duration_s!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError("seed must fit an unsigned 64-bit integer")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError(f"mixing weight must lie in [0, 1], got {self.lam!r}")
        unit_ps = self.interferometer.unit_delay_ns * 1e3
        if not 0.0 < self.coincidence_window_ps < unit_ps / 2.0:
            raise ConfigurationError(
                "coincidence window must be positive and below half the unit delay "
                f"({unit_ps / 2:.0f} ps) so peaks cannot merge; got {self.coincidence_window_ps!r}"
            )

    @property
    def unit_delay_ps(self) -> int:
        return int(round(self.interferometer.unit_delay_ns * 1e3))


@dataclass(frozen=True)
class TimeTagStream:
    """Time-sorted detection events of both parties.

    party: 0 = alice, 1 = bob; detector: 0..2; time_ps: int64 picoseconds.
    """

    party: np.ndarray
    detector: np.ndarray
    time_ps: np.ndarray

    def __post_init__(self):
        for name in ("party", "detector", "time_ps"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.time_ps.size

    def is_sorted(self) -> bool:
        return bool(np.all(np.diff(self.time_ps) >= 0))


@dataclass(frozen=True)
class CoincidenceSet:
    """Matched Alice/Bob detection pairs, column-wise."""

    alice_detector: np.ndarray
    bob_detector: np.ndarray
    delta_t_ps: np.ndarray  # t_A - t_B
    abs_time_ps: np.ndarray  # t_A

    def __post_init__(self):
        for name in ("alice_detector", "bob_detector", "delta_t_ps", "abs_time_ps"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return self.delta_t_ps.size


@dataclass(frozen=True)
class Histogram:
    """Counts of arrival-time differences in fixed-width bins.

    Bin i spans [i*w - w/2, i*w + w/2), so bin centers sit at integer
    multiples of the bin width and peak centers land on bin centers when
    the width divides the unit delay.
    """

    bin_width_ps: float
    bins: dict

    def total(self) -> int:
        return int(sum(self.bins.values()))

    def bin_center_ps(self, index: int) -> float:
        return index * self.bin_width_ps


def _substream(seed: int, stream: int, extra: tuple = ()) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), stream) + extra)))


def simulate_run(cfg: RunConfig) -> TimeTagStream:
    """Generate one acquisition run's detection stream.

    Emission times are Poisson at `pair_rate_hz`; each pair's dt class and
    detector pair follow the source model's joint distribution at mixing
    weight `lam`; each detection survives independently with the party's
    efficiency and is smeared by Gaussian jitter; dark counts are injected
    per detector.  Output is sorted by (time, party, detector).
    """
    unit_ps = cfg.unit_delay_ps
    duration_ps = int(round(cfg.duration_s * 1e12))

    rng = _substream(cfg.seed, _STREAM_EMISSION)
    n_pairs = int(rng.poisson(cfg.pair_rate_hz * cfg.duration_s))
    emit_ps = np.sort(rng.integers(0, duration_ps, size=n_pairs, dtype=np.int64))

    dist = joint_distribution(cfg.interferometer, cfg.lam).reshape(45)
    rng = _substream(cfg.seed, _STREAM_OUTCOME)
    outcome = rng.choice(45, size=n_pairs, p=dist / dist.sum())
    dt_units = outcome // 9 - 2
    det_a = (outcome % 9) // 3
    det_b = outcome % 3

    # Only the path-delay difference is physical for a CW-pumped pair; the
    # emission time itself is undefined, so Alice carries the full offset.
    t_a = emit_ps.copy()
    t_b = emit_ps - dt_units.astype(np.int64) * unit_ps

    rng = _substream(cfg.seed, _STREAM_JITTER)
    if cfg.alice_detectors.jitter_sigma_ps > 0.0:
        t_a = t_a + np.rint(rng.normal(0.0, cfg.alice_detectors.jitter_sigma_ps, n_pairs)).astype(np.int64)
    if cfg.bob_detectors.jitter_sigma_ps > 0.0:
        t_b = t_b + np.rint(rng.normal(0.0, cfg.bob_detectors.jitter_sigma_ps, n_pairs)).astype(np.int64)

    rng = _substream(cfg.seed, _STREAM_EFFICIENCY)
    keep_a = rng.random(n_pairs) < cfg.alice_detectors.efficiency
    keep_b = rng.random(n_pairs) < cfg.bob_detectors.efficiency

    parts = [
        (np.zeros(keep_a.sum(), dtype=np.uint8), det_a[keep_a].astype(np.uint8), t_a[keep_a]),
        (np.ones(keep_b.sum(), dtype=np.uint8), det_b[keep_b].astype(np.uint8), t_b[keep_b]),
    ]
    for party, model in ((0, cfg.alice_detectors), (1, cfg.bob_detectors)):
        if model.dark_rate_hz <= 0.0:
            continue
        for det in range(3):
            rng = _substream(cfg.seed, _STREAM_DARK, (party, det))
            n_dark = int(rng.poisson(model.dark_rate_hz * cfg.duration_s))
            times = rng.integers(0, duration_ps, size=n_dark, dtype=np.int64)
            parts.append(
                (np.full(n_dark, party, dtype=np.uint8), np.full(n_dark, det, dtype=np.uint8), times)
            )

    party = np.concatenate([p for p, _, _ in parts])
    detector = np.concatenate([d for _, d, _ in parts])
    time_ps = np.concatenate([t for _, _, t in parts])
    order = np.lexsort((detector, party, time_ps))
    return TimeTagStream(party[order], detector[order], time_ps[order])


def find_coincidences(stream: TimeTagStream, max_delta_ps: int) -> CoincidenceSet:
    """Pair Alice and Bob tags with |t_A - t_B| <= max_delta_ps.

    Raw pairing, no peak-center logic: candidate pairs are matched greedily
    nearest-first (ties broken by Alice time, then Bob time, then stream
    order), each tag consumed at most once.  Input must be time-sorted.

    The greedy pass splits along the connected components of the candidate
    graph.  A candidate whose Alice and Bob tags have no other candidate is
    a component of its own and is always matched, so all of these 1:1 pairs
    are taken at once.  Only the contested candidates (those sharing a tag
    with another candidate) go through the nearest-first loop, in the same
    global order; components share no tags, so the result equals the
    greedy pass over all candidates.  Records are ordered by Alice time,
    ties in greedy order: Alice tags at equal times share one window, so
    they always fall in the same contested component.
    """
    if not stream.is_sorted():
        raise OrderingError("time-tag stream must be sorted by time")
    is_a = stream.party == 0
    t_a = stream.time_ps[is_a]
    t_b = stream.time_ps[~is_a]
    d_a = stream.detector[is_a]
    d_b = stream.detector[~is_a]

    lo = np.searchsorted(t_b, t_a - max_delta_ps, side="left")
    hi = np.searchsorted(t_b, t_a + max_delta_ps, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return CoincidenceSet(
            np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8), empty_i, empty_i.copy()
        )
    ai = np.repeat(np.arange(t_a.size), counts)
    bi = np.repeat(lo, counts) + (np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts))
    single = (counts[ai] == 1) & (np.bincount(bi, minlength=t_b.size)[bi] == 1)
    ai_c = ai[~single]
    bi_c = bi[~single]
    # lexsort is stable, so sorting the contested subset keeps its global order.
    order = np.lexsort((t_b[bi_c], t_a[ai_c], np.abs(t_a[ai_c] - t_b[bi_c])))
    used_a = set()
    used_b = set()
    picked = []
    for idx, a, b in zip(order.tolist(), ai_c[order].tolist(), bi_c[order].tolist()):
        if a in used_a or b in used_b:
            continue
        used_a.add(a)
        used_b.add(b)
        picked.append(idx)
    picked = np.asarray(picked, dtype=np.int64)
    a_sel = np.concatenate([ai[single], ai_c[picked]])
    b_sel = np.concatenate([bi[single], bi_c[picked]])
    time_order = np.argsort(t_a[a_sel], kind="stable")
    a_sel = a_sel[time_order]
    b_sel = b_sel[time_order]
    return CoincidenceSet(
        d_a[a_sel],
        d_b[b_sel],
        (t_a[a_sel] - t_b[b_sel]).astype(np.int64),
        t_a[a_sel].astype(np.int64),
    )


def build_histogram(coincidences: CoincidenceSet, bin_width_ps: float) -> Histogram:
    """Bin the dt values; every record lands in exactly one bin."""
    if not bin_width_ps > 0.0:
        raise ConfigurationError(f"bin width must be positive, got {bin_width_ps!r}")
    idx = np.floor_divide(coincidences.delta_t_ps + bin_width_ps / 2.0, bin_width_ps).astype(int)
    uniq, counts = np.unique(idx, return_counts=True)
    return Histogram(float(bin_width_ps), {int(i): int(c) for i, c in zip(uniq, counts)})


def window_counts(coincidences: CoincidenceSet, center_ps: float, half_width_ps: float) -> np.ndarray:
    """3x3 detector-pair counts of records with |dt - center| <= half_width."""
    mask = np.abs(coincidences.delta_t_ps - center_ps) <= half_width_ps
    cells = coincidences.alice_detector[mask].astype(int) * 3 + coincidences.bob_detector[mask]
    return np.bincount(cells, minlength=9).reshape(3, 3)


def post_select(
    coincidences: CoincidenceSet,
    peak: str,
    half_width_ps: float,
    unit_delay_ps: int,
    left_delta_sign: int = +1,
) -> np.ndarray:
    """3x3 table of counts whose dt lies within +-half_width of a peak center.

    `left_delta_sign` records which side of the dt axis carries the left
    ({ms, lm}) subspace: streams from `simulate_run` use +1 (dt = t_A - t_B);
    pass -1 only for ingested records with the opposite axis convention.
    """
    if peak not in _PEAK_MULTIPLIER:
        raise ConfigurationError(f"unknown peak {peak!r}; expected one of {sorted(_PEAK_MULTIPLIER)}")
    if left_delta_sign not in (-1, +1):
        raise ConfigurationError("left_delta_sign must be +1 or -1")
    if not 0.0 < half_width_ps < unit_delay_ps / 2.0:
        raise ConfigurationError(
            f"half width must lie in (0, {unit_delay_ps / 2:.0f}) ps so windows cannot overlap"
        )
    center = left_delta_sign * _PEAK_MULTIPLIER[peak] * unit_delay_ps
    return window_counts(coincidences, center, half_width_ps)


def off_peak_background(
    coincidences: CoincidenceSet, half_width_ps: float, unit_delay_ps: int
) -> np.ndarray:
    """3x3 accidental/dark counts in an equal-width window midway between peaks.

    Subtracting this from a peak window's counts gives net (background
    corrected) rates; with ideal detectors it is identically zero.
    """
    if not 0.0 < half_width_ps < unit_delay_ps / 4.0:
        raise ConfigurationError(
            f"background half width must lie in (0, {unit_delay_ps / 4:.0f}) ps "
            "to stay clear of the neighboring peak windows"
        )
    return window_counts(coincidences, 0.5 * unit_delay_ps, half_width_ps)


def peak_areas(
    coincidences: CoincidenceSet, half_width_ps: float, unit_delay_ps: int
) -> dict:
    """Total counts inside each of the five peak windows."""
    return {
        peak: int(post_select(coincidences, peak, half_width_ps, unit_delay_ps).sum())
        for peak in _PEAK_MULTIPLIER
    }


def write_timetags_csv(stream: TimeTagStream, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["party", "detector", "time_ps"])
        for p, d, t in zip(stream.party, stream.detector, stream.time_ps):
            writer.writerow([PARTY_NAMES[p], int(d), int(t)])


def write_coincidences_csv(coincidences: CoincidenceSet, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["jA", "kB", "delta_t_ps", "abs_time_ps"])
        for j, k, dt, t in zip(
            coincidences.alice_detector,
            coincidences.bob_detector,
            coincidences.delta_t_ps,
            coincidences.abs_time_ps,
        ):
            writer.writerow([int(j), int(k), int(dt), int(t)])


def write_histogram_csv(histogram: Histogram, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center_ps", "count"])
        for idx in sorted(histogram.bins):
            writer.writerow([f"{histogram.bin_center_ps(idx):.1f}", histogram.bins[idx]])
