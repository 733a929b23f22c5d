"""The amplitude kernel, the closed-form Bell maximum, the coincidence
matcher, the peak areas, the QKD trace writer and the config validator
against references.

The reference functions below are frozen copies of the implementations
these replaced: the hand-written amplitude sums of `joint_distribution`,
the peak-state and herald constructors, the per-element CGLMP probability
loop, the multi-start search for the CGLMP maximum, the `lexsort` stream
assembly and `rng.choice` outcome draw of `simulate_run`, the greedy
matching loop over every candidate pair of `find_coincidences`, the
one-shot `np.unique` binning of `build_histogram`, the five-window
`peak_areas`, the row-by-row `csv.writer` QKD trace and the eight
gathered compares of the QKD trit draw.  The closed-form fringe
laws of symmetric couplers, the central law [3 + 2*lam*(cos phi_r +
cos phi_l + cos(phi_r + phi_l))] / 27 and the satellite law
[1 + lam*cos theta] / 9 with their phases, and the central fringe of a
two-rate scan (`central_fringe_model`) are the source's former second
model; the kernel replaced them, and the physics tests of the other
modules read them from here.  They stay here as test oracles only, as do
the white-noise mixture, the Born probability, the 81 deterministic
local strategies and the inverse visibility map lam = 2*v / (3 - v), in
plain numpy, that `core` and `analysis` once held; the mixture and the
Born probability are tested here too.
`Generator.choice` is also the oracle of
the guide-table outcome sampler, draw for draw, and `joint_distribution`
of each step's configuration the oracle of the batched step tables.  The
oracle tests of `simulate_run`, its outcome draw, `find_coincidences` and
the binning run again with blocks of 7 pairs, steps or records, and the
shared draws of `source` with blocks of 7 uniforms, so that small examples
cross the block edges of the draws, the neighbour pass, the gather and the
binning; there, a run's chunks are checked against the whole stream they
concatenate to, and chunk-wise matching against the whole stream's.  The
blocked Bernoulli draw is checked against the one `rng.random(n) < p` call
it stands for.  The built-in config validator is checked against the
jsonschema validator and `best_match` choice it replaced.
"""

import collections
import contextlib
import copy
import csv
import dataclasses
import itertools
import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from qutrit_bench.analysis import cglmp_table, optimize_cglmp
from qutrit_bench.cli import CONFIG_SCHEMA, DEFAULT_CONFIG, _config_error, _deep_merge
from qutrit_bench.errors import OrderingError
from qutrit_bench import protocols, source, timetags
from qutrit_bench.protocols import BASIS_IDS, QKD_MODES, EveModel, run_qkd
from qutrit_bench.source import (
    ALICE_LONG_ARM_TRIM,
    BOB_LONG_ARM_TRIM,
    PEAK_CLASS,
    ArmPhases,
    CouplerRatios,
    InterferometerConfig,
    CLASS_PATH_PAIRS,
    central_state,
    class_weights,
    draw_below,
    draw_cells,
    herald_state,
    joint_distribution,
    pair_amplitudes,
    step_distributions,
    tritter,
)
from qutrit_bench.timetags import (
    CoincidenceSet,
    DetectorModel,
    Histogram,
    RunConfig,
    TagRun,
    TimeTagStream,
    build_histogram,
    find_coincidences,
    peak_areas,
    post_select,
    simulate_run,
)

U = tritter()

# --------------------------------------------------------------------------
# Frozen reference implementations
# --------------------------------------------------------------------------


def joint_index(alice_path, bob_path):
    """Index of |alice_path, bob_path> in the 9-dimensional product basis."""
    return 3 * alice_path + bob_path


MAXENT_PAIR = np.eye(3).reshape(9) / np.sqrt(3.0)  # (|ss> + |mm> + |ll>) / sqrt(3)


def white_noise_mixture(psi, lam):
    """lam |psi><psi| + (1 - lam) I / dim of a unit ket `psi`, as a matrix."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    psi = np.asarray(psi, dtype=complex)
    return lam * np.outer(psi, psi.conj()) + (1.0 - lam) * np.eye(psi.size) / psi.size


def born_probability(rho, outcome):
    """<outcome| rho |outcome> of a density matrix and a unit ket."""
    return float(np.vdot(outcome, rho @ outcome).real)


def random_ket(rng):
    """A random unit ket of dimension 9."""
    ket = rng.normal(size=9) + 1j * rng.normal(size=9)
    return ket / np.linalg.norm(ket)


def local_strategy_tables():
    """P[a, b, alice_trit, bob_trit] of the 81 deterministic local strategies:
    Alice answers a1 at her setting 0 and a2 at 1, Bob b1 and b2."""
    tables = np.zeros((81, 2, 2, 3, 3))
    for i, (a1, a2, b1, b2) in enumerate(itertools.product(range(3), repeat=4)):
        tables[i, 0, 0, a1, b1] = tables[i, 0, 1, a1, b2] = tables[i, 1, 0, a2, b1] = tables[i, 1, 1, a2, b2] = 1.0
    return tables


def _arm_amplitudes(cfg):
    phase_a = np.array([0.0, cfg.alice.phi_m, cfg.alice.phi_l + ALICE_LONG_ARM_TRIM])
    phase_b = np.array([0.0, cfg.bob.phi_m, cfg.bob.phi_l + BOB_LONG_ARM_TRIM])
    amp_a = np.sqrt(cfg.alice_ratios.as_array()) * np.exp(1j * phase_a)
    amp_b = np.sqrt(cfg.bob_ratios.as_array()) * np.exp(1j * phase_b)
    return amp_a, amp_b


def reference_joint_distribution(cfg, lam):
    amp_a, amp_b = _arm_amplitudes(cfg)
    pure = np.zeros((5, 3, 3))
    class_weight = np.zeros(5)
    for cls in range(5):
        m = cls - 2
        pairs = [(pa, pa - m) for pa in range(3) if 0 <= pa - m <= 2]
        amp_jk = np.zeros((3, 3), dtype=complex)
        for pa, pb in pairs:
            amp_jk += amp_a[pa] * amp_b[pb] * np.outer(U[:, pa], U[:, pb])
            class_weight[cls] += (abs(amp_a[pa]) * abs(amp_b[pb])) ** 2
        pure[cls] = np.abs(amp_jk) ** 2
    noise = class_weight[:, None, None] * np.ones((1, 3, 3)) / 9.0
    dist = lam * pure + (1.0 - lam) * noise
    return dist / dist.sum()


def reference_phase_offsets(j, k):
    """Coupler offsets (chi_m, chi_l) = (2*pi*(j+k)/3, 4*pi*(j+k)/3) of the mm
    and ll terms relative to ss at detector pair (j, k), reduced to [0, 2*pi)."""
    chi_m = (2.0 * np.pi * (j + k) / 3.0) % (2.0 * np.pi)
    chi_l = (4.0 * np.pi * (j + k) / 3.0) % (2.0 * np.pi)
    return chi_m, chi_l


def reference_central_state(cfg, j, k):
    chi_m, chi_l = reference_phase_offsets(j, k)
    weights = np.sqrt(cfg.alice_ratios.as_array() * cfg.bob_ratios.as_array())
    phases = np.array(
        [
            0.0,
            cfg.alice.phi_m + cfg.bob.phi_m + chi_m,
            cfg.alice.phi_l + cfg.bob.phi_l + chi_l,
        ]
    )
    amps = np.zeros(9, dtype=complex)
    for p in range(3):
        amps[joint_index(p, p)] = weights[p] * np.exp(1j * phases[p])
    return amps / np.linalg.norm(amps)


_SATELLITE_PAIRS = {"left": ((1, 0), (2, 1)), "right": ((0, 1), (1, 2))}


def reference_satellite_phase(side, cfg, j, k):
    """Phase of lm relative to ms (left) or of ml relative to sm (right): the
    dial phases of one side of the two-path superposition, chi_m and the
    long-arm trim that survives on that side."""
    chi_m, _ = reference_phase_offsets(j, k)
    a, b = cfg.alice, cfg.bob
    if side == "left":
        return (a.phi_l - a.phi_m) + b.phi_m + chi_m + ALICE_LONG_ARM_TRIM
    return a.phi_m + (b.phi_l - b.phi_m) + chi_m + BOB_LONG_ARM_TRIM


def reference_satellite_state(side, cfg, j, k):
    theta = reference_satellite_phase(side, cfg, j, k)
    (a0, b0), (a1, b1) = _SATELLITE_PAIRS[side]
    pa = cfg.alice_ratios.as_array()
    pb = cfg.bob_ratios.as_array()
    amps = np.zeros(9, dtype=complex)
    amps[joint_index(a0, b0)] = np.sqrt(pa[a0] * pb[b0])
    amps[joint_index(a1, b1)] = np.sqrt(pa[a1] * pb[b1]) * np.exp(1j * theta)
    return amps / np.linalg.norm(amps)


def reference_fringe_probability(phi_r, phi_l, lam):
    """The central law P = [3 + 2*lam*(cos phi_r + cos phi_l + cos(phi_r + phi_l))] / 27
    of one detector pair, given a central coincidence, at symmetric couplers."""
    return (3.0 + 2.0 * lam * (np.cos(phi_r) + np.cos(phi_l) + np.cos(phi_r + phi_l))) / 27.0


def reference_central_probability(cfg, j, k, lam):
    """P(j, k | central coincidence) at symmetric couplers: phi_r is the phase
    of mm relative to ss and phi_l that of ll relative to mm."""
    chi_m, _ = reference_phase_offsets(j, k)
    a, b = cfg.alice, cfg.bob
    phi_r = (a.phi_m + b.phi_m) + chi_m
    phi_l = (a.phi_l - a.phi_m) + (b.phi_l - b.phi_m) + chi_m
    return reference_fringe_probability(phi_r, phi_l, lam)


def reference_satellite_probability(side, cfg, j, k, lam):
    """P(j, k | satellite coincidence) at symmetric couplers: [1 + lam*cos theta] / 9."""
    return (1.0 + lam * np.cos(reference_satellite_phase(side, cfg, j, k))) / 9.0


def central_fringe_model(u, amplitude, lam, omega, n, phi0, phi1):
    """Two-phase central fringe driven at rates omega and n*omega:
    A * (3 + 2*lam*(cos(w u + phi0) + cos(n w u + phi1) + cos((n+1) w u + phi0 + phi1)))
    """
    w = omega * np.asarray(u, dtype=float)
    tones = np.cos(w + phi0) + np.cos(n * w + phi1) + np.cos((n + 1.0) * w + phi0 + phi1)
    return amplitude * (3.0 + 2.0 * lam * tones)


def lambda_from_visibility(v):
    """Inverse of the visibility map V = 3*lam / (2 + lam): lam = 2*v / (3 - v)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
    return 2.0 * v / (3.0 - v)


_HERALD_PAIRS = {"central": ((0, 0), (1, 1), (2, 2)), **_SATELLITE_PAIRS}


def reference_herald_state(alice_peak, alice_detector, cfg):
    amp_a, amp_b = _arm_amplitudes(cfg)
    amps = np.zeros(3, dtype=complex)
    for pa, pb in _HERALD_PAIRS[alice_peak]:
        amps[pb] += amp_a[pa] * amp_b[pb] * U[alice_detector, pa]
    return amps / np.linalg.norm(amps)


def _outcome_matrix(phases):
    return U @ np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


_BOB_RELABEL = np.array([(3 - k) % 3 for k in range(3)])


def reference_cglmp_probability_table(rho, alice, bob):
    """P[a, b, alice_trit, bob_trit] of a 9 x 9 density matrix measured with
    Alice's phase triples `alice[a]` and Bob's `bob[b]`, each followed by
    the coupler, one Born probability at a time."""
    table = np.zeros((2, 2, 3, 3))
    mats_a = [_outcome_matrix(alice[a]) for a in range(2)]
    mats_b = [_outcome_matrix(bob[b]) for b in range(2)]
    for a in range(2):
        for b in range(2):
            for j in range(3):
                ket_a = mats_a[a][j].conj()
                for k in range(3):
                    ket = np.kron(ket_a, mats_b[b][k].conj())
                    table[a, b, j, _BOB_RELABEL[k]] = born_probability(rho, ket)
    return table


def _i3_from_table(table):
    def s(a, b, d):
        return sum(table[a, b, r, (r + d) % 3] for r in range(3))

    plus = s(0, 0, 0) + s(1, 0, 1) + s(1, 1, 0) + s(0, 1, 0)
    minus = s(0, 0, 1) + s(1, 0, 0) + s(1, 1, 1) + s(0, 1, 2)
    return float(plus - minus)


def _i3_pure_maxent(settings_vector):
    """I3 of the maximally entangled pair; settings as a flat 12-vector."""
    a1, a2, b1, b2 = settings_vector.reshape(4, 3)
    psi = np.eye(3) / np.sqrt(3.0)
    table = np.zeros((2, 2, 3, 3))
    mats_a = (_outcome_matrix(a1), _outcome_matrix(a2))
    mats_b = (_outcome_matrix(b1), _outcome_matrix(b2))
    for a in range(2):
        for b in range(2):
            amp = mats_a[a] @ psi @ mats_b[b].T
            table[a, b][:, _BOB_RELABEL] = np.abs(amp) ** 2
    return _i3_from_table(table)


def reference_cglmp_search(n_starts, tol=1e-6, seed=1905):
    """Cyclic Nelder-Mead ascent over the four phase-triples; one value per start."""
    rng = np.random.default_rng(seed)
    values = []
    for x0 in rng.uniform(0.0, 2.0 * np.pi, size=(n_starts, 12)):
        x = x0.copy()
        prev = _i3_pure_maxent(x)
        for _ in range(60):
            for block in range(4):
                sl = slice(3 * block, 3 * block + 3)

                def neg(block_phases, sl=sl, x=x):
                    trial = x.copy()
                    trial[sl] = block_phases
                    return -_i3_pure_maxent(trial)

                res = optimize.minimize(
                    neg, x[sl], method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-12}
                )
                x[sl] = res.x
            current = _i3_pure_maxent(x)
            if current - prev < tol:
                break
            prev = current
        values.append(_i3_pure_maxent(x))
    return np.array(values)


def reference_simulate_run(cfg):
    """Per-party arrays, every efficiency mask drawn, one `lexsort` at the end."""

    def substream(stream, extra=()):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(cfg.seed), stream) + extra)))

    unit_ps = cfg.unit_delay_ps
    duration_ps = int(round(cfg.duration_s * 1e12))

    rng = substream(0)
    n_pairs = int(rng.poisson(cfg.pair_rate_hz * cfg.duration_s))
    emit_ps = np.sort(rng.integers(0, duration_ps, size=n_pairs, dtype=np.int64))

    dist = joint_distribution(cfg.interferometer, cfg.lam).reshape(45)
    rng = substream(1)
    outcome = rng.choice(45, size=n_pairs, p=dist / dist.sum())
    dt_units = outcome // 9 - 2
    det_a = (outcome % 9) // 3
    det_b = outcome % 3

    t_a = emit_ps.copy()
    t_b = emit_ps - dt_units.astype(np.int64) * unit_ps

    rng = substream(2)
    if cfg.alice_detectors.jitter_sigma_ps > 0.0:
        t_a = t_a + np.rint(rng.normal(0.0, cfg.alice_detectors.jitter_sigma_ps, n_pairs)).astype(np.int64)
    if cfg.bob_detectors.jitter_sigma_ps > 0.0:
        t_b = t_b + np.rint(rng.normal(0.0, cfg.bob_detectors.jitter_sigma_ps, n_pairs)).astype(np.int64)

    rng = substream(3)
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
            rng = substream(4, (party, det))
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


def reference_find_coincidences(stream, max_delta_ps):
    """Greedy nearest-first matching, one Python step per candidate pair."""
    if np.any(np.diff(stream.time_ps) < 0):
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
        return CoincidenceSet(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64))
    ai = np.repeat(np.arange(t_a.size), counts)
    bi = np.repeat(lo, counts) + (np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts))
    dist = np.abs(t_a[ai] - t_b[bi])
    order = np.lexsort((t_b[bi], t_a[ai], dist))

    used_a = np.zeros(t_a.size, dtype=bool)
    used_b = np.zeros(t_b.size, dtype=bool)
    picked = []
    for idx in order:
        a, b = ai[idx], bi[idx]
        if used_a[a] or used_b[b]:
            continue
        used_a[a] = True
        used_b[b] = True
        picked.append(idx)
    picked = np.asarray(picked, dtype=np.int64)
    a_sel = ai[picked]
    b_sel = bi[picked]
    time_order = np.argsort(t_a[a_sel], kind="stable")
    a_sel = a_sel[time_order]
    b_sel = b_sel[time_order]
    return CoincidenceSet(d_a[a_sel], d_b[b_sel], (t_a[a_sel] - t_b[b_sel]).astype(np.int64))


def reference_histogram_bins(coincidences, unit_delay_ps):
    """Every record's bin index (24 dt + unit) // (2 unit) counted by one `np.unique`."""
    idx = (24 * coincidences.delta_t_ps + unit_delay_ps) // (2 * unit_delay_ps)
    uniq, counts = np.unique(idx, return_counts=True)
    return {int(i): int(c) for i, c in zip(uniq, counts)}


def reference_peak_areas(coincidences, half_width_ps, unit_delay_ps):
    """One window scan per peak."""
    return {
        peak: int(post_select(coincidences, peak, half_width_ps, unit_delay_ps).sum())
        for peak in ("outer_right", "right", "central", "left", "outer_left")
    }


def reference_write_qkd_trace(path, kept, pool, alice_basis, bob_basis, alice_trit, bob_trit, sifted):
    """One `csv.writer.writerow` per post-selected round."""
    kept_rounds = np.flatnonzero(kept)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "alice_basis", "bob_basis", "alice_trit", "bob_trit", "sifted"])
        for i, rnd in enumerate(kept_rounds):
            writer.writerow(
                [
                    int(rnd),
                    pool[alice_basis[i]],
                    pool[bob_basis[i]],
                    int(alice_trit[i]),
                    int(bob_trit[i]),
                    int(sifted[i]),
                ]
            )


def draw_cdf(tables):
    """The CDF `Generator.choice` reads of each row of `tables`: the
    cumulative sum of the normalised row, divided by its last entry."""
    cdf = (tables / tables.sum(axis=1, keepdims=True)).cumsum(axis=1)
    return cdf / cdf[:, -1:]


def reference_trit_cells(tables, choice, u):
    """Per round, the entries of row `choice` of `draw_cdf(tables)[:, :8]` at or below `u`."""
    cell = np.zeros(len(u), dtype=np.intp)
    for column in draw_cdf(tables)[:, :8].T:
        cell += u >= column[choice]
    return cell


class PlannedUniforms:
    """A generator stand-in whose `random(size)` hands out the planned uniforms in order."""

    def __init__(self, u):
        self.u, self.used = u, 0

    def random(self, size):
        self.used += size
        return self.u[self.used - size : self.used]


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

phases = st.floats(-1e3, 1e3)
weights = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)


def ratios_from(raw):
    p = np.asarray(raw) / np.sum(raw)
    return CouplerRatios(*p)


@st.composite
def configs(draw):
    return InterferometerConfig(
        alice=ArmPhases(draw(phases), draw(phases)),
        bob=ArmPhases(draw(phases), draw(phases)),
        alice_ratios=ratios_from(draw(weights)),
        bob_ratios=ratios_from(draw(weights)),
    )


detectors = st.integers(0, 2)


def assert_same_state(state, reference):
    assert np.max(np.abs(state - reference)) < 1e-12


# A tag stream is built from segments placed at random offsets, so one
# stream mixes isolated 1:1 pairs with contested components.  Small time
# spans give equal timestamps across parties and within one party (same
# time, different detectors) and dense bursts; chains alternate the
# parties at a fixed spacing (A-B-A-B...).
tag = st.tuples(st.integers(0, 1), st.integers(0, 2))


@st.composite
def scattered_segment(draw):
    span = draw(st.sampled_from([0, 2, 8, 40, 1000]))
    return [(draw(st.integers(0, span)), *draw(tag)) for _ in range(draw(st.integers(0, 12)))]


@st.composite
def chain_segment(draw):
    spacing = draw(st.integers(0, 6))
    first = draw(st.integers(0, 1))
    n = draw(st.integers(2, 10))
    return [(i * spacing, (first + i) % 2, draw(st.integers(0, 2))) for i in range(n)]


@st.composite
def burst_segment(draw):
    party = draw(st.integers(0, 1))
    others = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 2)), min_size=2, max_size=10))
    return [(6, party, draw(st.integers(0, 2)))] + [(6 + dt, 1 - party, det) for dt, det in others]


@st.composite
def tag_streams(draw):
    segments = draw(
        st.lists(st.one_of(scattered_segment(), chain_segment(), burst_segment()), max_size=6)
    )
    tags = []
    for segment in segments:
        offset = draw(st.integers(0, 300))
        tags.extend((offset + t, party, det) for t, party, det in segment)
    parties = draw(st.sampled_from(["both", "alice", "bob"]))
    if parties != "both":
        tags = [(t, 0 if parties == "alice" else 1, det) for t, _, det in tags]
    tags.sort(key=lambda item: item[0])  # time only: equal times keep the drawn order
    time_ps, party, detector = (list(col) for col in zip(*tags)) if tags else ([], [], [])
    return TimeTagStream(
        np.array(party, dtype=np.uint8),
        np.array(detector, dtype=np.uint8),
        np.array(time_ps, dtype=np.int64),
    )


# --------------------------------------------------------------------------
# The white-noise mixture and Born probability oracles, which the Bell,
# source and protocol tests read
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# Kernel-derived source functions
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(configs(), st.floats(0.0, 1.0))
def test_joint_distribution_is_bit_identical_to_reference(cfg, lam):
    assert np.array_equal(joint_distribution(cfg, lam), reference_joint_distribution(cfg, lam))


@st.composite
def dial_scans(draw):
    """A configuration and the dial rows of a phase-driven scan of it: Alice's
    dials follow the drive, and Bob's are drawn for each row."""
    steps = draw(st.integers(1, 60))
    dwell = draw(st.sampled_from([0.01, 0.02]) | st.floats(1e-4, 1.0))
    rate_r, rate_l = (draw(st.sampled_from([0.0, 4.0 * np.pi]) | st.floats(-100.0, 100.0)) for _ in range(2))
    setpoints = np.arange(steps) * dwell
    phi_r = rate_r * setpoints
    bob = draw(st.lists(st.tuples(phases, phases), min_size=steps, max_size=steps))
    return draw(configs()), np.column_stack([phi_r, phi_r + rate_l * setpoints, np.array(bob).reshape(steps, 2)])


@settings(max_examples=200, deadline=None)
@given(dial_scans(), st.floats(0.0, 1.0))
def test_step_distributions_rows_are_joint_distributions(scan, lam):
    cfg, dials = scan
    rows = step_distributions(cfg, lam, dials)
    assert rows.shape == (len(dials), 5, 3, 3)
    for row, (alpha_m, alpha_l, beta_m, beta_l) in zip(rows, dials):
        step_cfg = dataclasses.replace(cfg, alice=ArmPhases(alpha_m, alpha_l), bob=ArmPhases(beta_m, beta_l))
        assert np.array_equal(row, joint_distribution(step_cfg, lam))


@settings(deadline=None)
@given(configs(), detectors, detectors)
def test_central_state_matches_reference(cfg, j, k):
    assert_same_state(central_state(cfg, j, k), reference_central_state(cfg, j, k))


@settings(deadline=None)
@given(st.sampled_from(["left", "right"]), configs(), detectors, detectors)
def test_satellite_state_matches_reference(side, cfg, j, k):
    # The kernel's terms of the side's class at (j, k), with the reference
    # term (ms or sm) made real and positive.
    pairs = CLASS_PATH_PAIRS[PEAK_CLASS[side]]
    amps = np.zeros((3, 3), dtype=complex)
    for pa, pb in pairs:
        amps[pa, pb] = pair_amplitudes(cfg)[pa, pb, j, k]
    kernel = amps.reshape(9) * np.exp(-1j * np.angle(amps[pairs[0]]))
    kernel /= np.linalg.norm(kernel)
    assert_same_state(kernel, reference_satellite_state(side, cfg, j, k))


@settings(deadline=None)
@given(st.sampled_from(["central", "left", "right"]), detectors, configs())
def test_herald_state_matches_reference(peak, detector, cfg):
    assert_same_state(herald_state(peak, detector, cfg), reference_herald_state(peak, detector, cfg))


# --------------------------------------------------------------------------
# Bell functional
# --------------------------------------------------------------------------


def dials_to_triples(dials, trim):
    """Phase triples (0, phi_m, phi_l + trim) of (phi_m, phi_l) dial pairs behind a long-arm trim."""
    return np.array([(0.0, phi_m, phi_l + trim) for phi_m, phi_l in dials])


@settings(deadline=None)
@given(st.tuples(weights, weights), st.lists(st.tuples(phases, phases), min_size=4, max_size=4), st.floats(0.0, 1.0))
def test_cglmp_table_matches_reference_loop(couplers, dials, lam):
    # The kernel's central class at the four setting pairs is the Born rule
    # on its normalised central state, mixed with white noise.
    cfg = InterferometerConfig(alice_ratios=ratios_from(couplers[0]), bob_ratios=ratios_from(couplers[1]))
    rho = white_noise_mixture(central_state(cfg, 0, 0), lam)
    alice = dials_to_triples(dials[:2], ALICE_LONG_ARM_TRIM)
    bob = dials_to_triples(dials[2:], BOB_LONG_ARM_TRIM)
    table = cglmp_table(cfg, lam, dials[:2], dials[2:])
    assert np.max(np.abs(table - reference_cglmp_probability_table(rho, alice, bob))) < 1e-12


def test_search_never_beats_closed_form_and_reaches_it():
    closed_form = optimize_cglmp().value
    found = reference_cglmp_search(n_starts=20)
    assert np.max(found) <= closed_form + 1e-9
    assert np.max(found) == pytest.approx(closed_form, abs=1e-6)


def test_search_objective_agrees_with_table_path():
    optimum = optimize_cglmp()
    alice = dials_to_triples(optimum.alice_dials, ALICE_LONG_ARM_TRIM)
    bob = dials_to_triples(optimum.bob_dials, BOB_LONG_ARM_TRIM)
    table = cglmp_table(InterferometerConfig(), 1.0, optimum.alice_dials, optimum.bob_dials)
    assert _i3_pure_maxent(np.concatenate([alice, bob]).ravel()) == pytest.approx(_i3_from_table(table), abs=1e-12)


# --------------------------------------------------------------------------
# Stream generation
# --------------------------------------------------------------------------


def whole_stream(run):
    """The chunks of a `simulate_run` result, concatenated into one stream."""
    chunks = list(run)
    return TimeTagStream(
        *(
            np.concatenate([np.empty(0, dtype)] + [getattr(chunk, name) for chunk in chunks])
            for name, dtype in (("party", np.uint8), ("detector", np.uint8), ("time_ps", np.int64))
        )
    )


def assert_same_stream(found, reference):
    for name in ("party", "detector", "time_ps"):
        got, want = getattr(found, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


# Efficiency exactly 0 or 1 takes the draw-skipping branches; jitter and
# dark counts are off or on per party.  Runs shorter than the unit delay put
# most of Bob's tags, and wide jitter some of Alice's, at negative times.
efficiencies = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def detector_models(draw, duration_s):
    return DetectorModel(
        efficiency=draw(efficiencies),
        dark_rate_hz=draw(st.sampled_from([0.0, 5.0, 40.0])) / duration_s,
        jitter_sigma_ps=draw(st.sampled_from([0.0, 0.4]) | st.floats(1.0, 3000.0)),
    )


@st.composite
def run_configs(draw):
    duration_s = draw(st.sampled_from([1e-10, 1e-9, 1e-8, 1e-6, 1e-3]))
    unit_delay_ns = draw(st.sampled_from([0.3, 1.2, 1.25, 7.0]))
    return RunConfig(
        pair_rate_hz=draw(st.sampled_from([1e-3, 0.5, 3.0, 400.0]) | st.floats(0.01, 800.0)) / duration_s,
        duration_s=duration_s,
        seed=draw(st.integers(0, 2**64 - 1)),
        coincidence_window_ps=100.0,
        interferometer=dataclasses.replace(draw(configs()), unit_delay_ns=unit_delay_ns),
        lam=draw(st.floats(0.0, 1.0)),
        alice_detectors=draw(detector_models(duration_s)),
        bob_detectors=draw(detector_models(duration_s)),
    )


@settings(max_examples=400, deadline=None)
@given(run_configs())
def test_simulate_run_matches_lexsort_reference(cfg):
    assert_same_stream(whole_stream(simulate_run(cfg)), reference_simulate_run(cfg))


@settings(max_examples=100, deadline=None)
@given(run_configs())
def test_simulate_run_with_its_outcome_table_is_unchanged(cfg):
    table = joint_distribution(cfg.interferometer, cfg.lam)
    assert_same_stream(whole_stream(simulate_run(cfg, table)), whole_stream(simulate_run(cfg)))


@st.composite
def outcome_tables(draw, sizes=(1, 2, 3, 9, 45)):
    """Probability vectors with zero runs, a lone non-zero cell or tiny cells."""
    size = draw(st.sampled_from(sizes))
    cell = st.sampled_from([0.0, 1e-300, 1e-17, 1e-9]) | st.floats(1e-12, 1.0)
    weights = np.array(draw(st.lists(cell, min_size=size, max_size=size)))
    shape = draw(st.sampled_from(["as drawn", "zeros at start", "zeros inside", "zeros at end", "one cell"]))
    cut = sorted(draw(st.integers(0, size)) for _ in range(2))
    if shape == "zeros at start":
        weights[: cut[1]] = 0.0
    elif shape == "zeros inside":
        weights[cut[0] : cut[1]] = 0.0
    elif shape == "zeros at end":
        weights[cut[0] :] = 0.0
    elif shape == "one cell":
        weights = np.eye(size)[draw(st.integers(0, size - 1))]
    assume(weights.sum() > 0.0)
    return weights / weights.sum()


@settings(max_examples=300, deadline=None)
@given(outcome_tables(), st.sampled_from([0, 1, 100_000]) | st.integers(0, 5000), st.integers(0, 2**64 - 1))
def test_outcome_draws_equal_generator_choice(p, n, seed):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    found = draw_cells(rng, p[None], 0, n)
    assert np.array_equal(found, oracle.choice(p.size, size=n, p=p / p.sum()))
    assert rng.bit_generator.state == oracle.bit_generator.state


@contextlib.contextmanager
def blocks_of_seven():
    """`timetags` drawing and matching 7 pairs or steps a block, and the
    draws of `source` 7 uniforms a block, so that small examples cross many
    block edges."""
    with mock.patch.object(timetags, "_BLOCK", 7), mock.patch.object(source, "_DRAW_BLOCK", 7):
        yield


probabilities = st.sampled_from([0.0, 1.0, float(np.nextafter(1.0, 0.0))]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 6, 7, 8, 14]) | st.integers(0, 300), st.integers(0, 2**64 - 1), st.data())
def test_blocked_bernoulli_draw_equals_one_call(n, seed, data):
    # One p for all draws, or one per draw.
    p = data.draw(probabilities | st.lists(probabilities, min_size=n, max_size=n).map(np.array))
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    with blocks_of_seven():
        found = draw_below(rng, p, n)
    assert found.dtype == bool
    assert np.array_equal(found, oracle.random(n) < p)
    assert rng.bit_generator.state == oracle.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(run_configs())
# 3,000 pairs 1 ns apart with 10 ns of jitter: a pair's tags spread over
# about 9 blocks of 7 pairs and the release bound trails by about 90, while
# steps wider than 3 unit delays (0.9 ns) cut the stream into some 300 chunks.
@example(
    RunConfig(
        pair_rate_hz=1e9,
        duration_s=3e-6,
        seed=29,
        coincidence_window_ps=100.0,
        interferometer=InterferometerConfig(unit_delay_ns=0.3),
        alice_detectors=DetectorModel(efficiency=0.9, dark_rate_hz=3e7, jitter_sigma_ps=10_000.0),
        bob_detectors=DetectorModel(efficiency=0.8, dark_rate_hz=1e7, jitter_sigma_ps=4_000.0),
    )
)
def test_simulate_run_matches_lexsort_reference_across_block_edges(cfg):
    reach = 3 * cfg.unit_delay_ps
    with blocks_of_seven():
        run = simulate_run(cfg)
        chunks = list(run)
        found = [find_coincidences(chunk, reach) for chunk in chunks]
    reference = reference_simulate_run(cfg)
    assert len(run) == len(reference)
    assert_same_stream(whole_stream(chunks), reference)
    # Chunks are cut only at steps wider than the widest dt of the five
    # peaks, so matched chunk by chunk the records are the whole stream's.
    assert all(len(chunk) for chunk in chunks)
    for before, after in zip(chunks, chunks[1:]):
        assert after.time_ps[0] - before.time_ps[-1] > reach
    columns = (("alice_detector", np.uint8), ("bob_detector", np.uint8), ("delta_t_ps", np.int64))
    records = CoincidenceSet(
        *(np.concatenate([np.empty(0, dtype)] + [getattr(part, name) for part in found]) for name, dtype in columns)
    )
    assert_same_coincidences(records, reference_find_coincidences(reference, reach))


def test_a_chunk_that_starts_before_the_last_one_ended_raises():
    # Emission keys out of order break the release bound: the second half's
    # tags come after chunks of the first half's later tags.
    run = simulate_run(RunConfig(pair_rate_hz=1e8, duration_s=1e-5, seed=3))
    keys = np.concatenate([run.emit_key[500:], run.emit_key[:500]])
    with blocks_of_seven(), pytest.raises(OrderingError, match="previous chunk"):
        list(TagRun(run.cfg, run.outcome_table, keys, run.kept, run.dark_key, len(run)))


@settings(max_examples=200, deadline=None)
@given(outcome_tables(), st.sampled_from([0, 6, 7, 8, 14]) | st.integers(0, 300), st.integers(0, 2**64 - 1))
def test_outcome_draws_equal_generator_choice_across_block_edges(p, n, seed):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    with blocks_of_seven():
        found = draw_cells(rng, p[None], 0, n)
    assert np.array_equal(found, oracle.choice(p.size, size=n, p=p / p.sum()))
    assert rng.bit_generator.state == oracle.bit_generator.state


@settings(deadline=None)
@given(
    outcome_tables(sizes=(45,)),
    st.sampled_from(["nan", "negative", "scaled"]),
    st.integers(0, 44),
    st.floats(1e-3, 1.0 - 1e-6) | st.floats(1.0 + 1e-6, 1e3),
    st.integers(0, 3),
)
def test_invalid_outcome_tables_raise(p, fault, cell, factor, position):
    table = p.copy()
    if fault == "nan":
        table[cell] = np.nan
    elif fault == "negative":
        table[cell] = -factor
    else:
        table *= factor
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(45, size=10, p=table)
    with pytest.raises(ValueError):
        whole_stream(simulate_run(RunConfig(pair_rate_hz=1e4, duration_s=1e-3, seed=0), table.reshape(5, 3, 3)))
    # One bad row among valid ones raises, though no draw reads it.
    tables = np.insert(np.tile(p, (3, 1)), position, table, axis=0)
    with pytest.raises(ValueError):
        draw_cells(np.random.default_rng(0), tables, (position + 1) % 4, 10)


def test_simulate_run_matches_reference_near_the_time_limit():
    # Times just below 2**60 ps put the packed keys next to the int64 limit.
    detectors = DetectorModel(efficiency=0.5, dark_rate_hz=2e-5)
    cfg = RunConfig(
        pair_rate_hz=3e-5,
        duration_s=1.15e6,
        seed=11,
        alice_detectors=detectors,
        bob_detectors=detectors,
    )
    stream = whole_stream(simulate_run(cfg))
    assert stream.time_ps.max() > 2**59
    assert_same_stream(stream, reference_simulate_run(cfg))


# --------------------------------------------------------------------------
# Coincidence matching
# --------------------------------------------------------------------------


def assert_same_coincidences(found, reference):
    for name in ("alice_detector", "bob_detector", "delta_t_ps"):
        got, want = getattr(found, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def tags_at(*tags):
    """A stream of (time_ps, party, detector) tags, listed in stream order."""
    time_ps, party, detector = zip(*tags)
    return TimeTagStream(
        np.array(party, dtype=np.uint8), np.array(detector, dtype=np.uint8), np.array(time_ps, dtype=np.int64)
    )


@st.composite
def straddling_runs(draw):
    """Runs of two to five tags, 100 ps apart: with blocks of 7 steps, runs of
    three or more straddle block edges and put greedy picks on both sides."""
    tags, start = [], 0
    for _ in range(draw(st.integers(1, 12))):
        spacing = draw(st.integers(0, 3))
        n = draw(st.integers(2, 5))
        tags.extend((start + i * spacing, draw(st.integers(0, 1)), draw(st.integers(0, 2))) for i in range(n))
        start += n * spacing + 100
    return tags_at(*tags)


@settings(max_examples=500, deadline=None)
@given(tag_streams(), st.integers(0, 12))
# Six alternating tags in one window: the nearest pairs take the inner tags,
# and the outer Alice and Bob tags match at offset 5.
@example(tags_at((0, 0, 0), (4, 1, 0), (5, 0, 1), (6, 1, 1), (7, 0, 2), (11, 1, 2)), 11)
# Bob tags listed before Alice tags at one time: in the run of four every
# candidate ties on distance and times, so only the stream positions order
# them; the last two tags are a run of two.
@example(tags_at((3, 1, 0), (3, 1, 1), (3, 0, 0), (3, 0, 1), (20, 1, 2), (20, 0, 1)), 3)
# A zero window: Alice tags at one time tie for one Bob tag; tags 1 ps apart stay unmatched.
@example(tags_at((0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 1, 0), (2, 0, 2)), 0)
# 200 Alice tags, then 200 Bob tags 1000 ps later, in one run: the nearest
# pairs nest outwards, and the last pick's Bob tag is 399 tags past its
# Alice tag, beyond the int8 offsets of the runs of two.
@example(tags_at(*[(i, 0, i % 3) for i in range(200)], *[(1000 + i, 1, i % 3) for i in range(200)]), 3600)
def test_find_coincidences_matches_reference_loop(stream, max_delta_ps):
    assert_same_coincidences(
        find_coincidences(stream, max_delta_ps), reference_find_coincidences(stream, max_delta_ps)
    )


@settings(max_examples=300, deadline=None)
@given(tag_streams() | straddling_runs(), st.integers(0, 12))
# Steps 5-7 link tags 5-8, a run of four across the edge between steps 6 and
# 7; tags 13 and 14 are a run of two on the edge between steps 13 and 14.
@example(
    tags_at(
        (0, 0, 0), (10, 1, 0), (20, 0, 1), (30, 1, 1), (40, 0, 2),
        (50, 1, 0), (51, 0, 1), (52, 1, 2), (53, 0, 0),
        (70, 1, 1), (80, 0, 2), (90, 1, 0), (100, 0, 1), (110, 1, 2), (111, 0, 0), (130, 1, 1),
    ),
    2,
)
# Eight tags, seven steps: the run of three that ends the stream puts its
# pick's Alice tag on the last tag, at the end of the last block.
@example(
    tags_at((0, 0, 0), (100, 1, 0), (200, 0, 1), (300, 1, 1), (400, 0, 2), (500, 1, 0), (501, 1, 1), (502, 0, 2)),
    2,
)
def test_find_coincidences_matches_reference_loop_across_block_edges(stream, max_delta_ps):
    with blocks_of_seven():
        found = find_coincidences(stream, max_delta_ps)
    assert_same_coincidences(found, reference_find_coincidences(stream, max_delta_ps))


def realistic_config(duration_s=0.5):
    """demos/configs/histogram_realistic.json, by default at a tenth of its duration."""
    detectors = DetectorModel(efficiency=0.85, dark_rate_hz=500.0, jitter_sigma_ps=60.0)
    return RunConfig(
        pair_rate_hz=2.0e5,
        duration_s=duration_s,
        seed=42,
        lam=0.9688,
        alice_detectors=detectors,
        bob_detectors=detectors,
    )


def realistic_stream(duration_s=0.5):
    """The stream of `realistic_config(duration_s)`, and its window."""
    cfg = realistic_config(duration_s)
    return whole_stream(simulate_run(cfg)), 3 * cfg.unit_delay_ps


def traced_peak(call, *args):
    """`call(*args)` and the peak of the memory it traced on top of what was already held."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def nbytes(record, names):
    return sum(getattr(record, name).nbytes for name in names)


def test_find_coincidences_matches_reference_with_darks_and_jitter():
    stream, max_delta_ps = realistic_stream()
    t_a = stream.time_ps[stream.party == 0]
    t_b = stream.time_ps[stream.party == 1]
    candidates = np.searchsorted(t_b, t_a + max_delta_ps, side="right") - np.searchsorted(
        t_b, t_a - max_delta_ps, side="left"
    )
    assert np.count_nonzero(candidates > 1) > 20  # the contested path is exercised
    assert_same_coincidences(
        find_coincidences(stream, max_delta_ps), reference_find_coincidences(stream, max_delta_ps)
    )


def test_find_coincidences_memory_is_bounded():
    # 172k tags give 72k records (0.72 MB), three blocks.  Read from one byte
    # of offset per tag, block by block, the matcher peaks at 1.5 MB; with
    # the Alice time as a fourth column (1.3 MB of records) it peaked at
    # 1.8 MB, merging the picks into each block's runs of two at 2.0 MB,
    # full-size position arrays at 1.9 MB, and merging the picks by
    # concatenate and argsort and gathering from every position array at
    # once took 4.4 MB.
    stream, max_delta_ps = realistic_stream()
    found, peak = traced_peak(find_coincidences, stream, max_delta_ps)
    assert len(found) > 70_000
    assert peak < 2_200_000


def whole_run_draws(run):
    """Bytes of the draws a `TagRun` holds: emission keys, efficiency masks and dark keys."""
    return run.emit_key.nbytes + sum(mask.nbytes for mask in run.kept) + run.dark_key.nbytes


def test_simulate_run_memory_is_bounded_at_full_size():
    # The full 5 s demo run: 1.7M tags in 16 chunks.  The whole-run draws
    # are 10.1 MB: emission keys (8.0 MB), kept masks (2.0 MB) and dark keys
    # (0.1 MB); making the chunks, one held at a time, peaks 2.56 MB above
    # them (12.7 MB in all).  The whole stream built at once peaked at
    # 25.9 MB, 1.5 times its 17 MB, with its 14 MB key buffer.
    def make_every_chunk(cfg):
        run = simulate_run(cfg)
        tags = 0
        for chunk in run:
            tags += len(chunk)
            del chunk  # before the next chunk is made
        return run, tags

    (run, tags), peak = traced_peak(make_every_chunk, realistic_config(5.0))
    assert tags == len(run) > 1_700_000
    assert peak < whole_run_draws(run) + 3_000_000


def test_find_coincidences_memory_is_bounded_at_full_size():
    # Each of the 16 chunks of the full run (up to 113k tags) gives up to
    # 48k records of three columns (0.48 MB).  Gathered block by block into
    # exact-size columns from an array of one offset byte per tag, the
    # matcher peaks 0.57 MB above those records and that array (1.15 MB in
    # all).  On the whole 1.7M-tag stream it peaked at 9.6 MB.
    cfg = realistic_config(5.0)
    max_delta_ps = 3 * cfg.unit_delay_ps
    records = 0
    for chunk in simulate_run(cfg):
        found, peak = traced_peak(find_coincidences, chunk, max_delta_ps)
        records += len(found)
        # The records, one offset byte per tag and 1 MB of block temporaries.
        assert peak < nbytes(found, ("alice_detector", "bob_detector", "delta_t_ps")) + len(chunk) + 1_000_000
    assert records > 700_000


def test_histogram_path_memory_is_bounded_at_full_size():
    # Simulate, match and bin the full run a chunk at a time, as `histogram`
    # does: the peak is 2.56 MB above the 10.1 MB of whole-run draws, while
    # a chunk is made.  With the whole stream, the matcher alone peaked at
    # 26.2 MB (the 17 MB stream held beside its records).
    cfg = realistic_config(5.0)
    unit = cfg.unit_delay_ps

    def histogram_path():
        run = simulate_run(cfg)
        histogram, areas, records = Histogram(unit / 12, {}), collections.Counter(), 0
        for chunk in run:
            found = find_coincidences(chunk, 3 * unit)
            histogram += build_histogram(found, unit)
            areas.update(peak_areas(found, 150.0, unit))
            records += len(found)
            del chunk, found  # before the next chunk is made
        return run, histogram, areas, records

    (run, histogram, areas, records), peak = traced_peak(histogram_path)
    assert sum(histogram.bins.values()) == records > 700_000
    assert sum(areas.values()) > 0.9 * records
    assert peak < whole_run_draws(run) + 3_000_000


def test_binning_memory_is_bounded_at_full_size():
    # Binned a block at a time, the 723k records of the full run cost 1.2 MB
    # (`build_histogram`) and 1.2 MB (`peak_areas`) on top of the records;
    # full-size int64 temporaries peaked at 13.0 MB and 18.1 MB.
    stream, max_delta_ps = realistic_stream(5.0)
    found = find_coincidences(stream, max_delta_ps)
    del stream
    unit = max_delta_ps // 3
    _, histogram_peak = traced_peak(build_histogram, found, unit)
    _, areas_peak = traced_peak(peak_areas, found, 150.0, unit)
    assert len(found) > 700_000
    assert histogram_peak < 2_000_000
    assert areas_peak < 2_000_000


# --------------------------------------------------------------------------
# Binning: histogram and peak areas
# --------------------------------------------------------------------------


@st.composite
def peak_window_records(draw):
    """dt values around the five peaks, many exactly on a window edge."""
    unit = draw(st.integers(4, 2400))
    if draw(st.booleans()):
        half_width = float(draw(st.integers(1, (unit - 1) // 2)))
    else:
        half_width = draw(st.floats(0.0, unit / 2.0, exclude_min=True, exclude_max=True))
    offsets = {int(np.floor(half_width)), int(np.ceil(half_width)), int(np.floor(half_width)) + 1}
    offsets |= {unit // 2, unit // 2 + 1, (unit + 1) // 2}
    edges = [m * unit + sign * off for m in range(-3, 4) for sign in (-1, 1) for off in offsets]
    dt = draw(st.lists(st.sampled_from(edges) | st.integers(-4 * unit, 4 * unit), max_size=300))
    n = len(dt)
    coincidences = CoincidenceSet(
        (np.arange(n) % 3).astype(np.uint8),
        (np.arange(n) // 3 % 3).astype(np.uint8),
        np.array(dt, dtype=np.int64),
    )
    return coincidences, half_width, unit


@settings(max_examples=500, deadline=None)
@given(peak_window_records())
def test_peak_areas_match_five_window_reference(records):
    coincidences, half_width, unit = records
    got = peak_areas(coincidences, half_width, unit)
    assert list(got.items()) == list(reference_peak_areas(coincidences, half_width, unit).items())


@settings(max_examples=300, deadline=None)
@given(peak_window_records())
def test_binning_matches_references_across_block_edges(records):
    coincidences, half_width, unit = records
    with blocks_of_seven():
        histogram = build_histogram(coincidences, unit)
        areas = peak_areas(coincidences, half_width, unit)
    assert list(histogram.bins.items()) == list(reference_histogram_bins(coincidences, unit).items())
    assert list(areas.items()) == list(reference_peak_areas(coincidences, half_width, unit).items())


# --------------------------------------------------------------------------
# QKD round trace
# --------------------------------------------------------------------------


def rounds_keeping(seed, n_kept):
    """The fewest rounds for which `run_qkd` post-selects exactly `n_kept`.

    Repeats run_qkd's first draw, one uniform per round kept below the
    central share; rounds are drawn in order, so a shorter run keeps a
    prefix of a longer one.  For `n_kept` 0 this is the number of rounds
    before the first kept one, which is 0 when the very first is kept.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    share = class_weights(InterferometerConfig())[PEAK_CLASS["central"]]
    kept_at = np.flatnonzero(rng.random(3 * n_kept + 2000) < share)
    return int(kept_at[0]) if n_kept == 0 else int(kept_at[n_kept - 1]) + 1


# Rows per trace block in the property test.  Block edges at 1-3 small
# blocks cost a few dozen rows, not the 12,289 the real 4,096-row block
# needs; one pinned example runs at the real block.
TEST_TRACE_BLOCK_ROWS = 16
REAL_TRACE_BLOCK_ROWS = protocols._TRACE_BLOCK_ROWS


@st.composite
def qkd_round_counts(draw, block):
    """(seed, rounds, expected kept rounds or None, trace block rows)."""
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.sampled_from(["any", "none kept", "block edge"]))
    if size == "any":
        return seed, draw(st.integers(1, 5000)), None, block
    n_kept = 0 if size == "none kept" else draw(st.integers(1, 3)) * block + draw(st.integers(-1, 1))
    rounds = rounds_keeping(seed, n_kept)
    assume(rounds > 0)
    return seed, rounds, n_kept, block


eve_models = st.just(EveModel.none()) | st.lists(
    st.sampled_from(BASIS_IDS), min_size=1, max_size=len(BASIS_IDS), unique=True
).map(EveModel.intercept_resend)


@settings(max_examples=200, deadline=None)
@given(
    qkd_round_counts(TEST_TRACE_BLOCK_ROWS), st.sampled_from(sorted(QKD_MODES)), st.floats(0.0, 1.0), eve_models
)
@example(
    (7, rounds_keeping(7, REAL_TRACE_BLOCK_ROWS + 1), REAL_TRACE_BLOCK_ROWS + 1, REAL_TRACE_BLOCK_ROWS),
    "four_basis",
    0.9688,
    EveModel.intercept_resend(BASIS_IDS),
)
def test_qkd_trace_is_byte_identical_to_csv_writer(counts, mode, lam, eve):
    seed, rounds, n_kept, block = counts
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(protocols, "_TRACE_BLOCK_ROWS", block):
        fast, slow = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "reference.csv")
        summary = run_qkd(rounds, mode, lam, eve, seed, trace_path=fast)
        with mock.patch.object(protocols, "_write_qkd_trace", reference_write_qkd_trace):
            assert run_qkd(rounds, mode, lam, eve, seed, trace_path=slow) == summary
        with open(fast, "rb") as fh_fast, open(slow, "rb") as fh_slow:
            data = fh_fast.read()
            assert data == fh_slow.read()
    if n_kept is not None:
        assert data.count(b"\r\n") == n_kept + 1  # header plus one row per kept round


@pytest.mark.parametrize("pool", [BASIS_IDS, QKD_MODES["phase_only_three"]])
def test_qkd_trace_matches_csv_writer_at_digit_boundaries(tmp_path, pool):
    # Rounds 0, 9, 10, 99, 100, ..., 10**6 and 10**7 - 1 of 10**7: rows of
    # every index width from one to seven digits, in one block.
    rounds = sorted({0, 10**7 - 1} | {10**k - 1 for k in range(1, 7)} | {10**k for k in range(1, 7)})
    kept = np.zeros(10**7, dtype=bool)
    kept[rounds] = True
    rng = np.random.default_rng(11)
    alice_basis, bob_basis = rng.integers(0, len(pool), size=(2, len(rounds)))
    alice_trit, bob_trit = rng.integers(0, 3, size=(2, len(rounds)))
    args = (kept, pool, alice_basis, bob_basis, alice_trit, bob_trit, alice_basis == bob_basis)
    protocols._write_qkd_trace(tmp_path / "fast.csv", *args)
    reference_write_qkd_trace(tmp_path / "reference.csv", *args)
    data = (tmp_path / "fast.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert [int(row.split(b",")[0]) for row in data.splitlines()[1:]] == rounds



@st.composite
def trit_draws(draw, one_row=False):
    """(tables, rows, u) for the QKD trit draw: rows is one per uniform, or
    one for all of them.

    Table rows come from `_trit_tables` (lam 1 gives zero cells, so repeated
    CDF entries), from dyadic tables whose entries fall on guide edges, or
    from random tables with zero cells.  A share of the uniforms is set
    exactly on an entry below 1 of `draw_cdf(tables)`, on a guide edge
    g/256, to 0 or to the largest double below 1.  Round counts reach past
    one block of the draw.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    kind = draw(st.sampled_from(["qkd", "dyadic", "random"]))
    if kind == "qkd":
        mode = draw(st.sampled_from(sorted(QKD_MODES)))
        eve = draw(eve_models)
        lam = draw(st.sampled_from([0.0, 0.37, 0.9688, 1.0]) | st.floats(0.0, 1.0))
        tables = protocols._trit_tables(lam, InterferometerConfig(), QKD_MODES[mode], eve).reshape(-1, 9)
    else:
        rows = draw(st.integers(1, 64))
        zeros = rng.random((rows, 9)) < draw(st.sampled_from([0.0, 0.5, 0.9]))
        zeros[np.arange(rows), rng.integers(0, 9, rows)] = False
        if kind == "dyadic":
            weights = rng.multinomial(256, np.full(9, 1 / 9), size=rows) * ~zeros
            tables = weights / weights.sum(axis=1, keepdims=True)
        else:
            weights = rng.random((rows, 9)) * ~zeros
            tables = weights / weights.sum(axis=1, keepdims=True)
    cdf = draw_cdf(tables)
    n = draw(st.sampled_from([0, 1, 100, source._DRAW_BLOCK + 3]))
    row = int(rng.integers(0, len(cdf)))
    choice = np.full(n, row) if one_row else rng.integers(0, len(cdf), n)
    u = rng.random(n)
    on_entry = cdf[choice, rng.integers(0, 8, n)]
    special = [
        np.where(on_entry < 1.0, on_entry, u),
        rng.integers(0, 256, n) / 256,
        np.zeros(n),
        np.full(n, np.nextafter(1.0, 0.0)),
    ]
    pick = rng.integers(0, 2 * len(special), n)  # half the uniforms stay random
    for k, values in enumerate(special):
        u = np.where(pick == k, values, u)
    return tables, row if one_row else choice, u


@settings(max_examples=300, deadline=None)
@given(trit_draws() | trit_draws(one_row=True))
def test_trit_draw_equals_eight_compares(draws):
    tables, rows, u = draws
    expected = reference_trit_cells(tables, np.broadcast_to(rows, u.shape), u)
    assert np.array_equal(draw_cells(PlannedUniforms(u), tables, rows, u.size), expected)
    with blocks_of_seven():
        assert np.array_equal(draw_cells(PlannedUniforms(u), tables, rows, u.size), expected)


# --------------------------------------------------------------------------
# Config validation
# --------------------------------------------------------------------------

CONFIG_ORACLE = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
DEMO_CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos", "configs")


def oracle_config_error(config):
    """The message load_config gave when jsonschema's best_match chose the error."""
    error = jsonschema.exceptions.best_match(CONFIG_ORACLE.iter_errors(config))
    if error is None:
        return None
    where = "$." + ".".join(str(p) for p in error.absolute_path) if error.absolute_path else "$"
    return f"config {where}: {error.message}"


def merged_demo_config(name):
    with open(os.path.join(DEMO_CONFIGS, name)) as fh:
        return _deep_merge(DEFAULT_CONFIG, json.load(fh))


# Valid configs as load_config validates them: merged with the defaults.
BASE_CONFIGS = {
    "default": _deep_merge(DEFAULT_CONFIG, {"experiment": "scan"}),
    "qkd_intercept": _deep_merge(
        DEFAULT_CONFIG,
        {
            "experiment": "qkd",
            "protocol_spec": {"eve": {"kind": "intercept_resend", "basis_pool": list(BASIS_IDS)}},
        },
    ),
    "histogram_realistic": merged_demo_config("histogram_realistic.json"),
    "bell_headline_regime": merged_demo_config("bell_headline_regime.json"),
}


def schema_sites(schema, path=()):
    """(path, subschema) for every node of the schema, array items at indices 0-2."""
    yield path, schema
    for key, subschema in schema.get("properties", {}).items():
        yield from schema_sites(subschema, path + (key,))
    if "items" in schema:
        for index in range(3):
            yield from schema_sites(schema["items"], path + (index,))


SITES = list(schema_sites(CONFIG_SCHEMA))
OBJECT_PATHS = [path for path, schema in SITES if schema.get("type") == "object"]
ARRAY_PATHS = [path for path, schema in SITES if schema.get("type") == "array"]
BOUNDS = ("minimum", "maximum", "exclusiveMinimum")
BOUNDED_SITES = [(path, schema) for path, schema in SITES if any(keyword in schema for keyword in BOUNDS)]
WRONG_TYPES = [True, False, None, "1", [], [0.5], {}, {"x": 1}]


def valid_value(schema):
    if "enum" in schema:
        return schema["enum"][0]
    kind = schema.get("type")
    if kind == "object":
        return {key: valid_value(schema["properties"][key]) for key in schema.get("required", ())}
    if kind == "array":
        return [valid_value(schema["items"])] * schema.get("minItems", 1)
    if kind == "boolean":
        return True
    return schema.get("minimum", schema.get("exclusiveMinimum", 0) + 1)


def boundary_values(schema):
    """Zero of both signs, and values at, beyond and inside each bound."""
    values = [0, -0.0]
    for keyword in BOUNDS:
        if keyword in schema:
            bound = schema[keyword]
            values += [bound, float(bound), bound - 1, bound + 1, bound - 1e-9, bound + 1e-9]
    return values


def candidate_values(schema):
    """A valid value, every wrong type, boundary values and values outside each enum."""
    values = [valid_value(schema)] + WRONG_TYPES
    if schema.get("type") in ("number", "integer"):
        values += boundary_values(schema) + [1.0, 2.5, 2**64, 1e300, -1e300, math.nan, math.inf, -math.inf]
    if "enum" in schema:
        values += ["bogus", schema["enum"][-1].upper()]
    if schema.get("type") == "array":
        item = valid_value(schema["items"])
        values += [[item] * n for n in range(schema.get("maxItems", 4) + 2)]
    return values


@st.composite
def config_edits(draw):
    """A base config name and one to three edits: (op, path, value)."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["set", "bound", "delete", "extra", "short", "long"]))
        if op == "set":
            path, schema = draw(st.sampled_from(SITES[1:]))
            edits.append(("set", path, draw(st.sampled_from(candidate_values(schema)))))
        elif op == "bound":
            path, schema = draw(st.sampled_from(BOUNDED_SITES))
            edits.append(("set", path, draw(st.sampled_from(boundary_values(schema)))))
        elif op == "delete":
            edits.append(("delete", draw(st.sampled_from(SITES[1:]))[0], None))
        elif op == "extra":
            edits.append(("set", draw(st.sampled_from(OBJECT_PATHS)) + ("bogus",), 1))
        else:
            edits.append((op, draw(st.sampled_from(ARRAY_PATHS)), None))
    return draw(st.sampled_from(sorted(BASE_CONFIGS))), edits


def edited_config(base, edits):
    """A copy of a base config with the edits applied; an edit whose parent is gone is skipped."""
    config = copy.deepcopy(BASE_CONFIGS[base])
    for op, path, value in edits:
        parent = config
        try:
            for key in path[:-1]:
                parent = parent[key]
            key = path[-1]
            if isinstance(parent, dict) != isinstance(key, str):
                continue  # JSON objects have string keys; lists take int indices
            if op == "set":
                parent[key] = copy.deepcopy(value)
            elif op == "delete":
                del parent[key]
            elif op == "short":
                parent[key] = parent[key][:-1]
            else:
                parent[key] = parent[key] + copy.deepcopy(parent[key][-1:])
        except (KeyError, IndexError, TypeError):
            continue
    return config


CHANNEL = ("scan_spec", "channels")
CONFIG_EXAMPLES = [
    *((base, []) for base in BASE_CONFIGS),
    # A bool, None, a string, a list or a dict where a number, an integer,
    # an object, an array or a boolean is expected.
    ("default", [("set", ("run", "lambda"), True)]),
    ("default", [("set", ("run", "seed"), False)]),
    ("default", [("set", ("run", "pair_rate_hz"), None)]),
    ("default", [("set", ("run", "seed"), "7")]),
    ("default", [("set", ("run", "interferometer"), [1.0])]),
    ("default", [("set", ("run", "interferometer", "alice_ratios"), {"x": 1})]),
    ("default", [("set", ("protocol_spec", "trace"), 1)]),
    # 1.0 is an integer; 2.5 is not.
    ("default", [("set", CHANNEL + (0, "j"), 2.0)]),
    ("default", [("set", ("protocol_spec", "rounds"), 2.5)]),
    # At and beyond each bound, including exactly 0.
    ("default", [("set", ("run", "lambda"), 0)]),
    ("default", [("set", ("run", "lambda"), 1.0)]),
    ("default", [("set", ("run", "lambda"), 1 + 1e-9)]),
    ("default", [("set", ("run", "detectors", "bob", "dark_rate_hz"), -1e-9)]),
    ("default", [("set", ("run", "duration_s"), 0)]),
    ("default", [("set", ("run", "interferometer", "unit_delay_ns"), -0.0)]),
    ("default", [("set", ("run", "coincidence_window_ps"), 1e-9)]),
    ("default", [("set", ("scan_spec", "phase_drive", "steps"), 1)]),
    ("default", [("set", CHANNEL + (1, "k"), 3)]),
    # Outside each enum.
    ("default", [("set", ("experiment",), "Scan")]),
    ("default", [("set", CHANNEL + (0, "peak"), "centre")]),
    ("default", [("set", ("protocol_spec", "mode"), "bb84")]),
    ("default", [("set", ("protocol_spec", "eve", "kind"), None)]),
    ("qkd_intercept", [("set", ("protocol_spec", "eve", "basis_pool", 3), "fourier3")]),
    # An unknown key at every object level.
    *(("default", [("set", path + ("bogus",), 1)]) for path in OBJECT_PATHS),
    # A missing experiment, and a channel without j.
    ("default", [("delete", ("experiment",), None)]),
    ("default", [("delete", CHANNEL + (2, "j"), None)]),
    # Arrays one item short and one item long.
    ("default", [("short", ("run", "interferometer", "alice_phases_rad"), None)]),
    ("default", [("long", ("run", "interferometer", "bob_ratios"), None)]),
    ("bell_headline_regime", [("set", CHANNEL, [])]),
    # Several faults: the shallowest wins, then the greatest path, then the first found.
    ("default", [("set", ("bogus",), 1), ("set", ("run", "lambda"), 2)]),
    ("default", [("set", ("run", "lambda"), -1), ("set", ("scan_spec", "phase_drive", "steps"), 0)]),
    ("default", [("set", ("run", "lambda"), 2), ("set", ("run", "seed"), -1)]),
    ("default", [("set", CHANNEL + (0, "j"), 5), ("set", CHANNEL + (2, "k"), -1)]),
    ("default", [("delete", CHANNEL + (1, "peak"), None), ("set", CHANNEL + (1, "bogus"), 1)]),
    ("default", [("delete", ("experiment",), None), ("set", ("bogus",), 1)]),
    (
        "histogram_realistic",
        [
            ("set", ("run", "detectors", "alice", "efficiency"), 2),
            ("set", ("run", "duration_s"), 0),
            ("set", ("protocol_spec", "rounds"), 0),
        ],
    ),
]


def pinned(cases):
    """Pin every case as an @example of the decorated test."""

    def decorate(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test

    return decorate


@settings(max_examples=600, deadline=None)
@given(config_edits())
@pinned(CONFIG_EXAMPLES)
def test_config_validation_matches_jsonschema_best_match(case):
    config = edited_config(*case)
    assert _config_error(config) == oracle_config_error(config)
