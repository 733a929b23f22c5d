"""Seeded Monte Carlo generation and analysis of detection time-tag streams.

A run draws pair emissions as a Poisson process, samples each pair's
(dt class, detector_A, detector_B) outcome from the source model's joint
distribution, applies detector efficiency, timing jitter and dark counts,
and emits a time-sorted tag stream in chunks.  Coincidence identification,
histogram binning and per-peak post-selection operate on such streams, and
a run's counts are the sums of its chunks' counts.

Coincidences are found in offset passes over the merged stream of both
parties, never in a per-party split: neighbours first, then tags two apart,
and so on, each pass looking only at the pairs the one before found within
the window.  Times are sorted, so a pair out of reach stays out of reach at
every larger offset.  An Alice and a Bob tag in reach of each other, with
no other tag within the window on either side, are matched at once; every
other candidate goes through the nearest-first greedy loop (see
`find_coincidences`).  Each record is one offset in an array of one byte
per tag, read in stream order a block at a time into three exact-size
columns: Alice's detector, Bob's and dt = t_A - t_B, 10 bytes a record.  So
matching holds the stream, its records, that array and a few block-sized
temporaries; the histogram and the peak areas bin a block at a time too.
A run's stream is one chunk at a time, so none of these is ever run-sized.

All times are integer picoseconds: comparisons are exact, binning is
reproducible, and long runs accumulate no float drift.  Identical
configurations (including the seed) produce byte-identical streams.

`simulate_run` packs each tag into one int64 key, time_ps * 8 + party * 4 +
detector, and decodes the arrays from sorted keys: time_ps = key >> 3 (an
arithmetic shift, exact for negative times), party = bit 2 and detector =
bits 0-1.  Equal keys are identical tags, so any sort gives the same stream,
ordered by (time, party, detector).  The key fits an int64 while every tag
time lies within +-2**60 ps (about 13 days), so `RunConfig` rejects a
duration, unit delay and jitter that could leave that range.

A run is a `TagRun`: the whole-run draws, and the stream as a sequence of
time-sorted `TimeTagStream` chunks made from them one block of `_BLOCK`
pairs at a time.  Only the draws that fix every block stay whole: the
sorted emission keys, the efficiency masks (their counts give the run's
tag count before any chunk is made) and the sorted dark-count keys.  Each
block's pair keys are sorted together with the tags carried over from the
block before and the dark keys that fall below its release bound.  No tag
lies more than 2 unit delays plus ceil(64 sigma) + 1 ps before its pair's
emission time (sigma the wider jitter; numpy's ziggurat cannot return more
than about 13.7 sigma, r + 53 ln 2 / r with 53-bit doubles), so every key
below the next block's first emission key less that reach is final.  A
chunk ends only at a step between neighbours wider than 3 unit delays, the
widest dt the five peaks reach, so matching each chunk with a window of at
most 3 unit delays gives the whole stream's records, in order; a chunk
that starts within that reach of the previous chunk's end would break this
and raises OrderingError.  A run of one block is one chunk.

Every per-pair draw (outcome uniforms, Alice's then Bob's jitter normals,
Alice's then Bob's efficiency uniforms) is made in blocked calls, and each
generator gives the numbers one call per draw kind would give.  Bob's
normals follow all of Alice's on the one jitter generator, so a run of
several blocks draws Bob's from a second generator moved past Alice's n
normals; a run of one block draws each number once.

Outcomes are drawn by `source.draw_cells`, the sampler of the QKD trit
draw too, on the one-row table of the joint distribution, so a run draws
exactly what `rng.choice(45, size=n, p=table / table.sum())` draws from the
same generator.  A scan passes each step's row of
`source.step_distributions` as `outcome_table`, so the amplitude kernel runs
once per block of steps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OrderingError
from .source import InterferometerConfig, draw_below, draw_cells, joint_distribution, substream

# Each peak's center in unit delays of dt = t_A - t_B.
PEAK_MULTIPLIER = {"outer_right": -2, "right": -1, "central": 0, "left": +1, "outer_left": +2}

# Outcome o = 9 * dt class + 3 * detector_A + detector_B (the flattened joint
# distribution), dt class 0..4 for -2..+2 unit delays; key parts per outcome.
_OUTCOME = np.arange(45)
_OUTCOME_DT_UNITS = _OUTCOME // 9 - 2
_OUTCOME_KEY_A = _OUTCOME % 9 // 3
_OUTCOME_KEY_B = 4 + _OUTCOME % 3

BINS_PER_UNIT = 12  # histogram bins per unit delay

# Tag times must stay inside +-2**60 ps so the packed key fits an int64.
_TIME_LIMIT_PS = 2**60

# Pairs per block of a run's draws and chunks, neighbour steps per block of
# `find_coincidences`' offset-1 pass and gather, and records per block of the
# binning: the temporaries of a block stay a few hundred KB however long the run.
_BLOCK = 1 << 16


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
        # Emissions lie in [0, duration), Bob's tags shift by up to two unit
        # delays, and numpy's normal sampler stays well inside 64 sigma.
        sigma_ps = max(self.alice_detectors.jitter_sigma_ps, self.bob_detectors.jitter_sigma_ps)
        if not self.duration_s * 1e12 + 2.0 * unit_ps + 64.0 * sigma_ps < _TIME_LIMIT_PS:
            raise ConfigurationError(
                "duration, unit delay and jitter let tag times leave +-2**60 ps "
                f"(about {_TIME_LIMIT_PS / 1e12 / 86400:.1f} days)"
            )

    @property
    def unit_delay_ps(self) -> int:
        return int(round(self.interferometer.unit_delay_ns * 1e3))


@dataclass(frozen=True)
class TimeTagStream:
    """Time-sorted detection events of both parties.

    party: 0 = alice, 1 = bob; detector: 0..2; time_ps: int64 picoseconds.
    A party other than 0 or 1 raises ValueError: `find_coincidences` uses
    it as the Alice tag's offset in a pair.
    """

    party: np.ndarray
    detector: np.ndarray
    time_ps: np.ndarray

    def __post_init__(self):
        if self.party.size and not 0 <= self.party.min() <= self.party.max() <= 1:
            raise ValueError("party must be 0 (Alice) or 1 (Bob)")
        for name in ("party", "detector", "time_ps"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.time_ps.size


@dataclass(frozen=True)
class CoincidenceSet:
    """Matched Alice/Bob detection pairs, column-wise, in Alice-time order:
    the two detectors and the arrival-time difference, all that the
    histogram, the peak areas and the post-selection read."""

    alice_detector: np.ndarray
    bob_detector: np.ndarray
    delta_t_ps: np.ndarray  # t_A - t_B

    def __post_init__(self):
        for name in ("alice_detector", "bob_detector", "delta_t_ps"):
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

    def bin_center_ps(self, index: int) -> float:
        return index * self.bin_width_ps

    def __add__(self, other: Histogram) -> Histogram:
        """Both histograms' counts (of one bin width), bin by bin: a run's
        histogram from its chunks'."""
        bins = dict(self.bins)
        for i, c in other.bins.items():
            bins[i] = bins.get(i, 0) + c
        return Histogram(self.bin_width_ps, dict(sorted(bins.items())))


class TagRun:
    """One run's detection stream, iterated as time-sorted `TimeTagStream`
    chunks whose concatenation is the whole stream; len() is its tag count.

    It holds the whole-run draws of `simulate_run`; each iteration makes
    the chunks from them a block of pairs at a time (see the module
    docstring) and yields the same chunks.  A chunk ends only at a step
    wider than 3 unit delays, so `find_coincidences` on each chunk with a
    window of at most that, concatenated, gives the whole stream's records.
    A plain class, not a dataclass: the CLI's import does not generate one.
    """

    def __init__(self, cfg: RunConfig, outcome_table, emit_key, kept, dark_key, tags: int):
        self.cfg = cfg
        self.outcome_table = outcome_table  # (1, 45) rows for `draw_cells`
        self.emit_key = emit_key  # sorted emission times * 8
        self.kept = kept  # Alice's and Bob's efficiency masks, None for perfect detectors
        self.dark_key = dark_key  # sorted dark-count keys
        self.tags = tags

    def __len__(self) -> int:
        return self.tags

    def __iter__(self):
        cfg, emit_key, n = self.cfg, self.emit_key, self.emit_key.size
        alice, bob = cfg.alice_detectors, cfg.bob_detectors
        unit_ps = cfg.unit_delay_ps
        gap_ps = 3 * unit_ps
        # No tag of a pair lies more than `reach` below its emission key: numpy's
        # normal sampler stays inside 14 sigma, and `RunConfig` allows for 64.
        sigma_ps = max(alice.jitter_sigma_ps, bob.jitter_sigma_ps)
        reach = 8 * (2 * unit_ps + int(np.ceil(64.0 * sigma_ps)) + 1)

        outcome_rng = substream(cfg.seed, "outcome")
        jitter = (None, None)
        if sigma_ps > 0.0:
            rng = substream(cfg.seed, "jitter")
            jitter = (rng, rng)
            if alice.jitter_sigma_ps > 0.0 and bob.jitter_sigma_ps > 0.0 and n > _BLOCK:
                # Bob's normals follow all n of Alice's on the one generator.
                jitter = (rng, substream(cfg.seed, "jitter"))
                skipped = np.empty(_BLOCK)
                for start in range(0, n, _BLOCK):
                    jitter[1].standard_normal(out=skipped[: min(_BLOCK, n - start)])
                del skipped

        # Only the path-delay difference is physical for a CW-pumped pair; the
        # emission time itself is undefined, so Alice carries the full offset.
        key_part = (_OUTCOME_KEY_A, _OUTCOME_KEY_B - 8 * unit_ps * _OUTCOME_DT_UNITS)
        carry, dark_start, last_ps = self.dark_key[:0], 0, None
        for start in range(0, max(n, 1), _BLOCK):
            stop = min(start + _BLOCK, n)
            outcome = draw_cells(outcome_rng, self.outcome_table, 0, stop - start).astype(np.intp)
            parts = [carry]
            for party, model in enumerate((alice, bob)):
                part = key_part[party][outcome]
                part += emit_key[start:stop]
                if model.jitter_sigma_ps > 0.0:
                    part += 8 * np.rint(jitter[party].normal(0.0, model.jitter_sigma_ps, part.size)).astype(np.int64)
                if self.kept is not None:
                    part = part[self.kept[party][start:stop]]
                parts.append(part)
            del outcome, part
            # Every key below `bound` is final: later pairs' tags lie above it.
            bound = emit_key[stop] - reach if stop < n else np.iinfo(np.int64).max
            dark_stop = int(self.dark_key.searchsorted(bound))
            parts.append(self.dark_key[dark_start:dark_stop])
            dark_start = dark_stop
            key = np.concatenate(parts)
            del parts
            # Equal keys are identical tags, so the sort's stability does not matter;
            # "stable" (timsort) is the fastest kind here: the parts are long sorted runs.
            key.sort(kind="stable")
            cut = key.size if stop == n else _last_gap(key[: key.searchsorted(bound)], gap_ps)
            carry = key[cut:].copy()
            key = key[:cut]
            if not key.size:
                continue
            detector = key.astype(np.uint8)  # the key's low byte, negative times included
            party = detector >> 2
            party &= 1
            detector &= 3
            key >>= 3
            if last_ps is not None and key[0] - last_ps <= gap_ps:
                raise OrderingError("a chunk starts within 3 unit delays of the previous chunk's end")
            last_ps = int(key[-1])
            yield TimeTagStream(party, detector, key)
            del key, party, detector  # before the next block's are made


def _last_gap(key: np.ndarray, gap_ps: int) -> int:
    """The position just past the last step between neighbours of the sorted
    keys wider than `gap_ps` in time, or 0 when there is none.  It looks back
    from the end in windows that double, so its temporaries stay small."""
    hi, width = key.size, 64
    while hi > 1:
        lo = max(hi - width, 0)
        wide = np.diff(key[lo:hi] >> 3) > gap_ps
        if wide.any():
            return hi - 1 - int(wide[::-1].argmax())
        hi, width = lo + 1, 2 * width
    return 0


def simulate_run(cfg: RunConfig, outcome_table: np.ndarray | None = None) -> TagRun:
    """Generate one acquisition run's detection stream, as a `TagRun`.

    Emission times are Poisson at `pair_rate_hz`; each pair's dt class and
    detector pair follow the source model's joint distribution at mixing
    weight `lam`; each detection survives independently with the party's
    efficiency and is smeared by Gaussian jitter; dark counts are injected
    per detector.  The stream is sorted by (time, party, detector), one
    sort of the packed tag keys per block (see the module docstring).  This
    call makes the whole-run draws; iterating the result makes the chunks.

    `outcome_table`, when given, is that joint distribution, P[class, j, k]
    of `joint_distribution(cfg.interferometer, cfg.lam)`, computed by the
    caller (a scan takes its steps' tables from `step_distributions`); it
    is not checked against `cfg`, and a table that is not a probability
    distribution raises ValueError when the chunks are made.
    """
    duration_ps = int(round(cfg.duration_s * 1e12))

    rng = substream(cfg.seed, "emission")
    n_pairs = int(rng.poisson(cfg.pair_rate_hz * cfg.duration_s))
    emit_key = rng.integers(0, duration_ps, size=n_pairs, dtype=np.int64)
    emit_key.sort()
    emit_key <<= 3

    if outcome_table is None:
        outcome_table = joint_distribution(cfg.interferometer, cfg.lam)
    table = np.asarray(outcome_table, dtype=float).reshape(1, 45)

    # random() < 1.0 always holds, so perfect detectors skip the draws; one
    # imperfect party draws both masks, keeping Bob's draws where they were.
    alice, bob = cfg.alice_detectors, cfg.bob_detectors
    kept = None
    if alice.efficiency < 1.0 or bob.efficiency < 1.0:
        rng = substream(cfg.seed, "efficiency")
        kept = tuple(draw_below(rng, model.efficiency, n_pairs) for model in (alice, bob))
    darks = [np.empty(0, dtype=np.int64)]
    for party, model in ((0, alice), (1, bob)):
        if model.dark_rate_hz <= 0.0:
            continue
        for det in range(3):
            rng = substream(cfg.seed, "dark", (party, det))
            n_dark = int(rng.poisson(model.dark_rate_hz * cfg.duration_s))
            times = rng.integers(0, duration_ps, size=n_dark, dtype=np.int64)
            darks.append(times * 8 + (4 * party + det))
    dark_key = np.concatenate(darks)
    dark_key.sort()
    n_kept = 2 * n_pairs if kept is None else sum(int(np.count_nonzero(mask)) for mask in kept)
    return TagRun(cfg, table, emit_key, kept, dark_key, n_kept + dark_key.size)


def _run_flags(t: np.ndarray, party: np.ndarray, max_delta_ps) -> tuple:
    """The runs of two tags that are candidates, as a mask over the tags with
    True at each pair's first tag, and the sorted first positions of the
    close steps in longer runs.  A step back in time raises OrderingError.

    Offset 1, `_BLOCK` steps at a time: close[p] when tags p and p + 1 are in
    reach.  A run of two tags is a close p whose neighbours p - 1 and p + 1
    are not, and it is a candidate only when the parties differ.  Each block
    reads the one step on either side of it, so only the mask is full size.
    """
    n_steps = max(t.size - 1, 0)
    alone = np.zeros(t.size, dtype=bool)
    near = [np.empty(0, dtype=np.intp)]
    for start in range(0, n_steps, _BLOCK):
        stop = min(start + _BLOCK, n_steps)
        lo, hi = max(start - 1, 0), min(stop + 1, n_steps)
        step = t[lo + 1 : hi + 1] - t[lo:hi]
        if step.min() < 0:
            raise OrderingError("time-tag stream must be sorted by time")
        # close[start - 1 : stop + 1]; the steps past either end of the stream are not.
        close = np.zeros(stop - start + 2, dtype=bool)
        np.less_equal(step, max_delta_ps, out=close[lo - start + 1 : hi - start + 1])
        linked = close[:-2] | close[2:]
        np.greater(close[1:-1], linked, out=alone[start:stop])
        linked &= close[1:-1]
        near.append(np.flatnonzero(linked) + start)
        alone[start:stop] &= party[start:stop] != party[start + 1 : stop + 1]
    return alone, np.concatenate(near)


def _greedy_picks(t: np.ndarray, party: np.ndarray, near: np.ndarray, max_delta_ps) -> tuple:
    """The nearest-first loop's (Alice, Bob) position pairs in the runs of
    three or more tags, whose close steps start at the sorted positions
    `near`, in the order the loop picks them (see `find_coincidences`); and
    the last offset k with tags p and p + k in reach, which bounds |b - a|
    (0 when there are no longer runs)."""
    run_a, run_b, picked = [], [], []
    k = 1
    while near.size:
        bob_first = party[near]
        cross = bob_first != party[k:][near]
        # Where Bob is first, the Alice tag is k ahead.
        left, shift = near[cross], k * bob_first[cross].astype(np.intp)
        run_a.append(left + shift)
        run_b.append(left + (k - shift))
        # Tags p and p + k + 1 are in reach only if p and p + 1 both are at
        # offset k, and p + 1 then follows p in the sorted `near`.
        near = near[:-1][near[1:] == near[:-1] + 1]
        k += 1
        near = near[t[k:][near] - t[near] <= max_delta_ps]
    if run_a:
        run_a, run_b = np.concatenate(run_a), np.concatenate(run_b)
        t_a, t_b = t[run_a], t[run_b]
        # The key is total: each candidate has its own (Alice, Bob) positions.
        order = np.lexsort((run_b, run_a, t_b, t_a, np.abs(t_a - t_b)))
        used = set()
        for a, b in zip(run_a[order].tolist(), run_b[order].tolist()):
            if a in used or b in used:
                continue
            used.add(a)
            used.add(b)
            picked.append((a, b))
    return (*np.array(picked, dtype=np.intp).reshape(-1, 2).T, k - 1)


def find_coincidences(stream: TimeTagStream, max_delta_ps: float) -> CoincidenceSet:
    """Pair Alice and Bob tags with |t_A - t_B| <= max_delta_ps.

    Raw pairing, no peak-center logic: candidate pairs are matched greedily
    nearest-first (ties broken by Alice time, then Bob time, then stream
    order), each tag consumed at most once.  Records are ordered by Alice
    time, equal times in greedy order.  Input must be time-sorted
    (OrderingError otherwise), and `max_delta_ps` a non-negative number of
    ps (int or float); a negative or NaN window raises ValueError.

    The candidates come from offset passes over the one merged stream.
    Times are sorted, so tags p and p + k are in reach of each other only if
    every step between neighbours from p to p + k is: each candidate lies
    inside a run of consecutive tags linked by steps in reach, and the
    greedy pass splits along these runs.  A run of two tags of different
    parties is a candidate with no rival and is always matched, so all of
    these are taken at once.  In the longer runs, pass k takes the pairs
    (p, p + k) in reach whose parties differ, pass k + 1 looks only at the
    pairs pass k found in reach, and the passes end at the first k with
    none.  These candidates go through the nearest-first loop in the order
    (|t_A - t_B|, t_A, t_B, Alice position, Bob position).

    Each record is a nonzero offset at its key tag p in one array over the
    tags: +1 at a run of two's first tag (the mask, viewed as int8), b - a at
    a pick's Alice tag a.  Alice is p + party[p], Bob p - party[p] plus the
    offset.  No record has a tag inside a run of two, so the key tags come in
    the order of the Alice tags: Alice tags at one time see the same Bob
    tags, so the earlier one in the stream is matched first.  The array is
    int8 unless a candidate's offset needs a wider type.
    """
    if not max_delta_ps >= 0:
        raise ValueError(f"max_delta_ps must be a non-negative number of ps, got {max_delta_ps!r}")
    t, party, detector = stream.time_ps, stream.party, stream.detector
    alone, near = _run_flags(t, party, max_delta_ps)
    picked_a, picked_b, widest = _greedy_picks(t, party, near, max_delta_ps)
    del near
    size = np.count_nonzero(alone) + picked_a.size
    offsets = alone.view(np.int8)
    if widest > np.iinfo(np.int8).max:
        offsets = offsets.astype(np.min_scalar_type(-1 - widest))
    picked_b -= picked_a
    offsets[picked_a] = picked_b
    del alone, picked_a, picked_b

    # The records, counted first, are gathered block by block straight into
    # their columns, in the order of their key tags; a block's Alice times
    # are held only to form its dt.
    delta_t = np.empty(size, dtype=t.dtype)
    alice_detector, bob_detector = np.empty(size, dtype=detector.dtype), np.empty(size, dtype=detector.dtype)
    end = 0
    for start in range(0, offsets.size, _BLOCK):
        block = offsets[start : start + _BLOCK]
        pos = np.flatnonzero(block)
        offset = block[pos]
        pos += start
        rows = slice(end, end + pos.size)
        end = rows.stop
        bob_first = party[pos]
        pos += bob_first
        # Every position is in range, so "clip" only spares `take` a buffered output.
        detector.take(pos, out=alice_detector[rows], mode="clip")
        t_a = t.take(pos)
        pos -= bob_first
        pos -= bob_first
        pos += offset
        t.take(pos, out=delta_t[rows], mode="clip")
        np.subtract(t_a, delta_t[rows], out=delta_t[rows])
        detector.take(pos, out=bob_detector[rows], mode="clip")
        del pos, offset, bob_first, t_a  # before the next block's are made
    return CoincidenceSet(alice_detector, bob_detector, delta_t)


def build_histogram(coincidences: CoincidenceSet, unit_delay_ps: int) -> Histogram:
    """Bin the dt values, `BINS_PER_UNIT` bins per unit delay; every record lands in one bin.

    With w = unit / 12, the bin index floor((dt + w/2) / w) is computed
    exactly in integers as (24 dt + unit) // (2 unit); dt values so large
    that this overflows an int64 are rejected.  Records are binned `_BLOCK`
    at a time and the blocks' counts summed.
    """
    if not (isinstance(unit_delay_ps, (int, np.integer)) and unit_delay_ps > 0):
        raise ConfigurationError(f"unit delay must be a positive integer of ps, got {unit_delay_ps!r}")
    dt = coincidences.delta_t_ps
    if dt.size and max(-int(dt.min()), int(dt.max())) > (2**63 - 1 - unit_delay_ps) // (2 * BINS_PER_UNIT):
        raise ValueError("dt values too large to bin in int64")
    counts = {}
    for start in range(0, dt.size, _BLOCK):
        idx = dt[start : start + _BLOCK] * (2 * BINS_PER_UNIT)
        idx += unit_delay_ps
        idx //= 2 * unit_delay_ps
        bins, n = np.unique(idx, return_counts=True)
        for i, c in zip(bins.tolist(), n.tolist()):
            counts[i] = counts.get(i, 0) + c
    return Histogram(unit_delay_ps / BINS_PER_UNIT, dict(sorted(counts.items())))


def window_counts(coincidences: CoincidenceSet, center_ps: float, half_width_ps: float) -> np.ndarray:
    """3x3 detector-pair counts of records with |dt - center| <= half_width."""
    mask = np.abs(coincidences.delta_t_ps - center_ps) <= half_width_ps
    cells = coincidences.alice_detector[mask].astype(int) * 3 + coincidences.bob_detector[mask]
    return np.bincount(cells, minlength=9).reshape(3, 3)


def _check_peak_half_width(half_width_ps: float, unit_delay_ps: int):
    if not 0.0 < half_width_ps < unit_delay_ps / 2.0:
        raise ConfigurationError(
            f"half width must lie in (0, {unit_delay_ps / 2:.0f}) ps so windows cannot overlap"
        )


def post_select(
    coincidences: CoincidenceSet,
    peak: str,
    half_width_ps: float,
    unit_delay_ps: int,
) -> np.ndarray:
    """3x3 table of counts whose dt lies within +-half_width of a peak center."""
    if peak not in PEAK_MULTIPLIER:
        raise ConfigurationError(f"unknown peak {peak!r}; expected one of {sorted(PEAK_MULTIPLIER)}")
    _check_peak_half_width(half_width_ps, unit_delay_ps)
    center = PEAK_MULTIPLIER[peak] * unit_delay_ps
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
    """Total counts inside each of the five peak windows.

    One pass, `_BLOCK` records at a time: each record takes its nearest peak
    index by integer rounding and counts if it lies within `half_width_ps`
    of that peak.  Windows narrower than half the unit delay are disjoint,
    so this equals `post_select(...).sum()` for each peak.
    """
    _check_peak_half_width(half_width_ps, unit_delay_ps)
    dt = coincidences.delta_t_ps
    counts = np.zeros(5, dtype=np.int64)
    for start in range(0, dt.size, _BLOCK):
        block = dt[start : start + _BLOCK]
        nearest = block + unit_delay_ps // 2
        nearest //= unit_delay_ps
        off = nearest * unit_delay_ps
        np.subtract(block, off, out=off)
        inside = np.abs(off, out=off) <= half_width_ps
        inside &= np.abs(nearest, out=off) <= 2
        del off
        nearest += 2
        counts += np.bincount(nearest[inside], minlength=5)
    return {peak: int(counts[m + 2]) for peak, m in PEAK_MULTIPLIER.items()}


def write_histogram_csv(histogram: Histogram, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center_ps", "count"])
        for idx in sorted(histogram.bins):
            writer.writerow([f"{histogram.bin_center_ps(idx):.1f}", histogram.bins[idx]])
