"""The amplitude kernel, the closed-form Bell maximum and the coincidence
matcher against references.

The reference functions below are frozen copies of the implementations
these replaced: the hand-written amplitude sums of `joint_distribution`,
the peak-state and herald constructors, the per-element CGLMP probability
loop, the multi-start search for the CGLMP maximum, and the greedy
matching loop over every candidate pair of `find_coincidences`.  They stay
here as test oracles only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from qutrit_bench.analysis import CglmpSettings, cglmp_probability_table, optimize_cglmp
from qutrit_bench.core import (
    DensityOperator,
    PureState,
    add_white_noise,
    joint_index,
    maximally_entangled_pair,
    normalize,
    tritter,
)
from qutrit_bench.errors import OrderingError
from qutrit_bench.protocols import herald_state
from qutrit_bench.source import (
    ALICE_LONG_ARM_TRIM,
    BOB_LONG_ARM_TRIM,
    ArmPhases,
    CouplerRatios,
    InterferometerConfig,
    central_state,
    detector_pair_phase_offsets,
    joint_distribution,
    satellite_phase,
    satellite_state,
)
from qutrit_bench.timetags import (
    CoincidenceSet,
    DetectorModel,
    RunConfig,
    TimeTagStream,
    find_coincidences,
    simulate_run,
)

U = tritter()

# --------------------------------------------------------------------------
# Frozen reference implementations
# --------------------------------------------------------------------------


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


def reference_central_state(cfg, j, k):
    chi_m, chi_l = detector_pair_phase_offsets(j, k)
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
    return normalize(PureState(amps))


_SATELLITE_PAIRS = {"left": ((1, 0), (2, 1)), "right": ((0, 1), (1, 2))}


def reference_satellite_state(side, cfg, j, k):
    theta = satellite_phase(side, cfg, j, k)
    (a0, b0), (a1, b1) = _SATELLITE_PAIRS[side]
    pa = cfg.alice_ratios.as_array()
    pb = cfg.bob_ratios.as_array()
    amps = np.zeros(9, dtype=complex)
    amps[joint_index(a0, b0)] = np.sqrt(pa[a0] * pb[b0])
    amps[joint_index(a1, b1)] = np.sqrt(pa[a1] * pb[b1]) * np.exp(1j * theta)
    return normalize(PureState(amps))


_HERALD_PAIRS = {"central": ((0, 0), (1, 1), (2, 2)), **_SATELLITE_PAIRS}


def reference_herald_state(alice_peak, alice_detector, cfg):
    amp_a, amp_b = _arm_amplitudes(cfg)
    amps = np.zeros(3, dtype=complex)
    for pa, pb in _HERALD_PAIRS[alice_peak]:
        amps[pb] += amp_a[pa] * amp_b[pb] * U[alice_detector, pa]
    return normalize(PureState(amps))


def _outcome_matrix(phases):
    return U @ np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


_BOB_RELABEL = np.array([(3 - k) % 3 for k in range(3)])


def reference_cglmp_probability_table(rho, cglmp_settings):
    table = np.zeros((2, 2, 3, 3))
    mats_a = [_outcome_matrix(cglmp_settings.alice[a]) for a in range(2)]
    mats_b = [_outcome_matrix(cglmp_settings.bob[b]) for b in range(2)]
    for a in range(2):
        for b in range(2):
            for j in range(3):
                ket_a = mats_a[a][j].conj()
                for k in range(3):
                    ket = np.kron(ket_a, mats_b[b][k].conj())
                    p = float(np.real(np.vdot(ket, rho.matrix @ ket)))
                    table[a, b, j, _BOB_RELABEL[k]] = p
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


def reference_find_coincidences(stream, max_delta_ps):
    """Greedy nearest-first matching, one Python step per candidate pair."""
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
    return CoincidenceSet(
        d_a[a_sel],
        d_b[b_sel],
        (t_a[a_sel] - t_b[b_sel]).astype(np.int64),
        t_a[a_sel].astype(np.int64),
    )


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
    assert np.max(np.abs(state.amplitudes - reference.amplitudes)) < 1e-12


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
# Kernel-derived source functions
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(configs(), st.floats(0.0, 1.0))
def test_joint_distribution_is_bit_identical_to_reference(cfg, lam):
    assert np.array_equal(joint_distribution(cfg, lam), reference_joint_distribution(cfg, lam))


@settings(deadline=None)
@given(configs(), detectors, detectors)
def test_central_state_matches_reference(cfg, j, k):
    assert_same_state(central_state(cfg, j, k), reference_central_state(cfg, j, k))


@settings(deadline=None)
@given(st.sampled_from(["left", "right"]), configs(), detectors, detectors)
def test_satellite_state_matches_reference(side, cfg, j, k):
    assert_same_state(satellite_state(side, cfg, j, k), reference_satellite_state(side, cfg, j, k))


@settings(deadline=None)
@given(st.sampled_from(["central", "left", "right"]), detectors, configs())
def test_herald_state_matches_reference(peak, detector, cfg):
    assert_same_state(herald_state(peak, detector, cfg), reference_herald_state(peak, detector, cfg))


# --------------------------------------------------------------------------
# Bell functional
# --------------------------------------------------------------------------


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_cglmp_table_matches_reference_loop(seed, lam):
    rng = np.random.default_rng(seed)
    psi = PureState(rng.normal(size=9) + 1j * rng.normal(size=9))
    rho = add_white_noise(normalize(psi), lam)
    angles = rng.uniform(-10.0, 10.0, (4, 3))
    cglmp_settings = CglmpSettings(angles[:2], angles[2:])
    table = cglmp_probability_table(rho, cglmp_settings)
    reference = reference_cglmp_probability_table(rho, cglmp_settings)
    assert np.max(np.abs(table - reference)) < 1e-12


def test_search_never_beats_closed_form_and_reaches_it():
    closed_form = optimize_cglmp().value
    found = reference_cglmp_search(n_starts=20)
    assert np.max(found) <= closed_form + 1e-9
    assert np.max(found) == pytest.approx(closed_form, abs=1e-6)


def test_search_objective_agrees_with_table_path():
    rho = DensityOperator(maximally_entangled_pair().projector())
    optimum = optimize_cglmp()
    flat = np.concatenate([optimum.settings.alice, optimum.settings.bob]).ravel()
    table = cglmp_probability_table(rho, optimum.settings)
    assert _i3_pure_maxent(flat) == pytest.approx(_i3_from_table(table), abs=1e-12)


# --------------------------------------------------------------------------
# Coincidence matching
# --------------------------------------------------------------------------


def assert_same_coincidences(found, reference):
    for name in ("alice_detector", "bob_detector", "delta_t_ps", "abs_time_ps"):
        got, want = getattr(found, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@settings(max_examples=500, deadline=None)
@given(tag_streams(), st.integers(0, 12))
def test_find_coincidences_matches_reference_loop(stream, max_delta_ps):
    assert_same_coincidences(
        find_coincidences(stream, max_delta_ps), reference_find_coincidences(stream, max_delta_ps)
    )


def test_find_coincidences_matches_reference_with_darks_and_jitter():
    # demos/configs/histogram_realistic.json at a tenth of its duration
    detectors = DetectorModel(efficiency=0.85, dark_rate_hz=500.0, jitter_sigma_ps=60.0)
    cfg = RunConfig(
        pair_rate_hz=2.0e5,
        duration_s=0.5,
        seed=42,
        lam=0.9688,
        alice_detectors=detectors,
        bob_detectors=detectors,
    )
    stream = simulate_run(cfg)
    max_delta_ps = 3 * cfg.unit_delay_ps
    t_a = stream.time_ps[stream.party == 0]
    t_b = stream.time_ps[stream.party == 1]
    candidates = np.searchsorted(t_b, t_a + max_delta_ps, side="right") - np.searchsorted(
        t_b, t_a - max_delta_ps, side="left"
    )
    assert np.count_nonzero(candidates > 1) > 20  # the contested path is exercised
    assert_same_coincidences(
        find_coincidences(stream, max_delta_ps), reference_find_coincidences(stream, max_delta_ps)
    )
