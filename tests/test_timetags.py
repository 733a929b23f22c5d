from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_bench.errors import ConfigurationError, OrderingError
from qutrit_bench.source import ArmPhases, InterferometerConfig
from qutrit_bench.timetags import (
    CoincidenceSet,
    DetectorModel,
    RunConfig,
    TimeTagStream,
    build_histogram,
    find_coincidences,
    off_peak_background,
    peak_areas,
    post_select,
    simulate_run,
)
from test_references import whole_stream

UNIT_PS = 1200


def ideal_config(**kwargs) -> RunConfig:
    defaults = dict(
        pair_rate_hz=1.0e5,
        duration_s=1.0,
        seed=7,
        coincidence_window_ps=300.0,
        interferometer=InterferometerConfig(),
        lam=1.0,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def run_and_match(cfg: RunConfig) -> CoincidenceSet:
    stream = whole_stream(simulate_run(cfg))
    return find_coincidences(stream, max_delta_ps=3 * UNIT_PS)


class TestConfigValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ideal_config(duration_s=0.0)

    def test_window_must_not_merge_peaks(self):
        with pytest.raises(ConfigurationError):
            ideal_config(coincidence_window_ps=700.0)

    def test_tag_times_must_fit_the_packed_key(self):
        # 2**60 ps is about 1.153e6 s; the guard adds two unit delays and
        # 64 jitter sigmas to the duration.
        ideal_config(duration_s=1.15e6, pair_rate_hz=1e-6)
        for too_far in (
            dict(duration_s=1.153e6),
            dict(duration_s=float("inf")),
            dict(bob_detectors=DetectorModel(jitter_sigma_ps=2e16)),
            dict(interferometer=InterferometerConfig(unit_delay_ns=6e14)),
        ):
            with pytest.raises(ConfigurationError, match=r"2\*\*60"):
                ideal_config(**too_far)

    def test_detector_model_ranges(self):
        with pytest.raises(ConfigurationError):
            DetectorModel(efficiency=1.5)
        with pytest.raises(ConfigurationError):
            DetectorModel(dark_rate_hz=-1.0)


class TestSimulateRun:
    def test_deterministic_for_same_seed(self):
        cfg = ideal_config(duration_s=0.1)
        first = whole_stream(simulate_run(cfg))
        second = whole_stream(simulate_run(cfg))
        assert np.array_equal(first.party, second.party)
        assert np.array_equal(first.detector, second.detector)
        assert np.array_equal(first.time_ps, second.time_ps)
        c1 = find_coincidences(first, 3 * UNIT_PS)
        c2 = find_coincidences(second, 3 * UNIT_PS)
        assert np.array_equal(c1.delta_t_ps, c2.delta_t_ps)
        h1 = build_histogram(c1, UNIT_PS)
        h2 = build_histogram(c2, UNIT_PS)
        assert h1 == h2

    def test_seed_changes_stream(self):
        a = whole_stream(simulate_run(ideal_config(duration_s=0.1, seed=1)))
        b = whole_stream(simulate_run(ideal_config(duration_s=0.1, seed=2)))
        assert len(a) != len(b) or not np.array_equal(a.time_ps, b.time_ps)

    def test_vanishing_rate_gives_empty_stream(self):
        cfg = ideal_config(pair_rate_hz=1e-8, duration_s=0.01)
        assert len(simulate_run(cfg)) == 0

    def test_stream_is_time_sorted(self):
        stream = whole_stream(simulate_run(ideal_config(duration_s=0.1, seed=3)))
        assert np.all(np.diff(stream.time_ps) >= 0)

    def test_central_zero_phase_detector_fraction(self):
        # at zero phases the (0,0) cell takes 1/3 of the central peak
        cfg = ideal_config(duration_s=0.5, seed=12)
        counts = post_select(run_and_match(cfg), "central", 150.0, UNIT_PS)
        total = counts.sum()
        frac = counts[0, 0] / total
        sigma = np.sqrt((1 / 3) * (2 / 3) / total)
        assert abs(frac - 1 / 3) < 3 * sigma


class TestFindCoincidences:
    def test_single_pair(self):
        stream = TimeTagStream(
            party=np.array([1, 0], dtype=np.uint8),
            detector=np.array([2, 1], dtype=np.uint8),
            time_ps=np.array([1_000_000, 1_001_200], dtype=np.int64),
        )
        found = find_coincidences(stream, max_delta_ps=3000)
        assert len(found) == 1
        assert found.delta_t_ps[0] == +1200  # t_A - t_B
        assert found.alice_detector[0] == 1
        assert found.bob_detector[0] == 2

    def test_isolated_singles_do_not_pair(self):
        stream = TimeTagStream(
            party=np.array([0, 1], dtype=np.uint8),
            detector=np.array([0, 0], dtype=np.uint8),
            time_ps=np.array([0, 1_000_000], dtype=np.int64),
        )
        assert len(find_coincidences(stream, max_delta_ps=3000)) == 0

    def test_each_tag_used_once(self):
        # two Alice tags compete for one Bob tag; nearest wins
        stream = TimeTagStream(
            party=np.array([0, 1, 0], dtype=np.uint8),
            detector=np.array([0, 0, 0], dtype=np.uint8),
            time_ps=np.array([990, 1000, 1100], dtype=np.int64),
        )
        found = find_coincidences(stream, max_delta_ps=3000)
        assert len(found) == 1
        assert found.delta_t_ps[0] == -10

    def test_unsorted_input_rejected(self):
        stream = TimeTagStream(
            party=np.array([0, 1], dtype=np.uint8),
            detector=np.array([0, 0], dtype=np.uint8),
            time_ps=np.array([100, 50], dtype=np.int64),
        )
        with pytest.raises(OrderingError):
            find_coincidences(stream, max_delta_ps=3000)

    @staticmethod
    def pairs(*times) -> TimeTagStream:
        """One (Alice, Bob) pair per (t_A, t_B), Alice listed first."""
        return TimeTagStream(
            party=np.tile(np.array([0, 1], dtype=np.uint8), len(times)),
            detector=np.zeros(2 * len(times), dtype=np.uint8),
            time_ps=np.array(times, dtype=np.int64).reshape(-1),
        )

    @pytest.mark.parametrize("max_delta_ps", [-1, -0.5, np.int64(-3), float("nan"), np.float64("nan")])
    def test_negative_or_nan_window_rejected(self, max_delta_ps):
        # With and without an Alice and a Bob tag at one time.
        for stream in (self.pairs((100, 100), (200, 205)), self.pairs((200, 205))):
            with pytest.raises(ValueError, match="max_delta_ps"):
                find_coincidences(stream, max_delta_ps)

    @pytest.mark.parametrize(
        "max_delta_ps, delta_t_ps",
        [(0, [0]), (4, [0]), (4.9, [0]), (5, [0, -5]), (5.0, [0, -5]), (np.int64(5), [0, -5]), (np.float64(0.0), [0])],
    )
    def test_non_negative_int_and_float_windows_accepted(self, max_delta_ps, delta_t_ps):
        found = find_coincidences(self.pairs((100, 100), (200, 205)), max_delta_ps)
        assert found.delta_t_ps.tolist() == delta_t_ps

    @pytest.mark.parametrize("party", [[0, 2], [-1, 1], [0, 255]])
    def test_party_other_than_0_or_1_rejected(self, party):
        with pytest.raises(ValueError, match="party"):
            TimeTagStream(np.array(party), np.zeros(2, dtype=np.uint8), np.array([0, 1], dtype=np.int64))

    def test_five_peak_areas(self):
        # enumerated path-pair weights predict areas 1:2:3:2:1
        cfg = ideal_config(duration_s=1.0, seed=13)
        coincidences = run_and_match(cfg)
        areas = peak_areas(coincidences, 150.0, UNIT_PS)
        total = sum(areas.values())
        for peak, weight in (
            ("outer_right", 1 / 9),
            ("right", 2 / 9),
            ("central", 3 / 9),
            ("left", 2 / 9),
            ("outer_left", 1 / 9),
        ):
            sigma = np.sqrt(total * weight * (1 - weight))
            assert abs(areas[peak] - total * weight) < 3 * sigma


def exact_bin(dt: int, unit: int) -> int:
    width = Fraction(unit, 12)
    return int((dt + width / 2) // width)


@st.composite
def binned_records(draw):
    unit = draw(st.integers(1, 5000) | st.sampled_from([1200, 1201, 1250, 2**40 + 7]))
    limit = (2**63 - 1 - unit) // 24
    near_edges = st.builds(
        lambda m, nudge: (unit * (2 * m - 1)) // 24 + nudge,
        st.integers(-40, 40),
        st.integers(-1, 1),
    )
    values = near_edges | st.integers(-4 * unit, 4 * unit) | st.sampled_from([-limit, limit])
    return unit, draw(st.lists(values, max_size=60))


class TestHistogram:
    def test_total_matches_record_count(self):
        cfg = ideal_config(duration_s=0.2, seed=5)
        coincidences = run_and_match(cfg)
        hist = build_histogram(coincidences, UNIT_PS)
        assert sum(hist.bins.values()) == len(coincidences)

    def test_ideal_run_peaks_sit_exactly_on_centers(self):
        # with zero jitter the five dominant bins sit exactly on the peak
        # centers; the residue is rare accidental pairings between pairs
        cfg = ideal_config(duration_s=0.2, seed=5)
        hist = build_histogram(run_and_match(cfg), UNIT_PS)
        by_count = sorted(hist.bins, key=hist.bins.get, reverse=True)
        top_centers = {hist.bin_center_ps(i) for i in by_count[:5]}
        assert top_centers == {-2400.0, -1200.0, 0.0, 1200.0, 2400.0}
        top_share = sum(hist.bins[i] for i in by_count[:5]) / sum(hist.bins.values())
        assert top_share > 0.998

    @settings(max_examples=300, deadline=None)
    @given(binned_records())
    @example((12, [-1, 0, 1, 5, 6, 7]))  # width 1: edges at half-integers
    @example((1201, [-51, -50, 50, 51, 150, 151]))  # 12 does not divide the unit
    def test_bins_equal_exact_rational_floor(self, records):
        unit, dts = records
        dt = np.array(dts, dtype=np.int64)
        empty = np.zeros(dt.size, dtype=np.uint8)
        hist = build_histogram(CoincidenceSet(empty, empty, dt), unit)
        assert hist.bins == dict(Counter(exact_bin(d, unit) for d in dts))

    def test_dt_beyond_int64_binning_range_rejected(self):
        limit = (2**63 - 1 - UNIT_PS) // 24
        dt = np.array([0, -limit - 1], dtype=np.int64)
        empty = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError, match="int64"):
            build_histogram(CoincidenceSet(empty, empty, dt), UNIT_PS)

    def test_unit_delay_must_be_a_positive_integer(self):
        coincidences = run_and_match(ideal_config(duration_s=0.01))
        for unit in (0, -1200, 100.0):
            with pytest.raises(ConfigurationError):
                build_histogram(coincidences, unit)


class TestPostSelect:
    def test_overlapping_windows_rejected(self):
        cfg = ideal_config(duration_s=0.01)
        with pytest.raises(ConfigurationError):
            post_select(run_and_match(cfg), "central", 700.0, UNIT_PS)

    def test_unknown_peak_rejected(self):
        cfg = ideal_config(duration_s=0.01)
        with pytest.raises(ConfigurationError):
            post_select(run_and_match(cfg), "middle", 150.0, UNIT_PS)

    def test_zero_phases_concentrate_on_cyclic_class(self):
        cfg = ideal_config(duration_s=0.5, seed=17)
        counts = post_select(run_and_match(cfg), "central", 150.0, UNIT_PS)
        on_class = counts[0, 0] + counts[1, 2] + counts[2, 1]
        assert counts.sum() > 1000
        assert on_class == counts.sum()  # off-class cells are dark-count free here

    def test_white_noise_gives_flat_cells(self):
        cfg = ideal_config(duration_s=0.5, seed=19, lam=0.0)
        counts = post_select(run_and_match(cfg), "central", 150.0, UNIT_PS)
        total = counts.sum()
        sigma = np.sqrt(total * (1 / 9) * (8 / 9))
        assert np.max(np.abs(counts - total / 9)) < 3.5 * sigma

    def test_satellite_cells_match_analytic_law(self):
        from qutrit_bench.source import PEAK_CLASS, joint_distribution

        itf = InterferometerConfig(alice=ArmPhases(0.4, 1.1), bob=ArmPhases(-0.3, 0.2))
        cfg = ideal_config(duration_s=1.0, seed=23, interferometer=itf)
        coincidences = run_and_match(cfg)
        dist = joint_distribution(itf, 1.0)
        for side in ("left", "right"):
            counts = post_select(coincidences, side, 150.0, UNIT_PS)
            total = counts.sum()
            law = dist[PEAK_CLASS[side]] / dist[PEAK_CLASS[side]].sum()  # P(j, k | side)
            for j in range(3):
                for k in range(3):
                    p = law[j, k]
                    sigma = np.sqrt(total * p * (1 - p)) if 0 < p < 1 else 1.0
                    assert abs(counts[j, k] - total * p) < 4 * sigma


class TestCsvExports:
    def test_headers_and_round_trip_counts(self, tmp_path):
        from qutrit_bench.timetags import write_histogram_csv

        cfg = ideal_config(duration_s=0.02, seed=51)
        coincidences = find_coincidences(whole_stream(simulate_run(cfg)), 3 * UNIT_PS)
        hist = build_histogram(coincidences, UNIT_PS)

        hist_path = tmp_path / "histogram.csv"
        write_histogram_csv(hist, hist_path)
        lines = hist_path.read_text().strip().splitlines()
        assert lines[0] == "bin_center_ps,count"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == sum(hist.bins.values())


class TestDetectorImperfections:
    def test_coincidence_rate_scales_with_efficiency_squared(self):
        base = ideal_config(duration_s=0.5, seed=29)
        lossy = ideal_config(
            duration_s=0.5,
            seed=29,
            alice_detectors=DetectorModel(efficiency=0.6),
            bob_detectors=DetectorModel(efficiency=0.6),
        )
        n_base = len(run_and_match(base))
        n_lossy = len(run_and_match(lossy))
        ratio = n_lossy / n_base
        sigma = 0.36 / np.sqrt(n_lossy)
        assert abs(ratio - 0.36) < 4 * sigma + 0.01

    def test_dark_counts_add_flat_background(self):
        cfg = ideal_config(
            duration_s=2.0,
            seed=31,
            pair_rate_hz=1e4,
            alice_detectors=DetectorModel(dark_rate_hz=1e5),
            bob_detectors=DetectorModel(dark_rate_hz=1e5),
        )
        coincidences = run_and_match(cfg)
        hist = build_histogram(coincidences, UNIT_PS)
        # off-peak bins, including empty ones, away from all five peak centers
        all_bins = range(-3 * UNIT_PS // 100, 3 * UNIT_PS // 100 + 1)
        off = [
            float(hist.bins.get(i, 0))
            for i in all_bins
            if min(abs(hist.bin_center_ps(i) - m * UNIT_PS) for m in range(-2, 3)) > 200
        ]
        counts = np.array(off)
        assert counts.size > 20
        assert counts.mean() > 3.0
        # uniformity: dispersion consistent with Poisson across off-peak bins
        assert counts.std() < 3.0 * np.sqrt(counts.mean()) + 3.0

    def test_off_peak_background_zero_for_ideal_detectors(self):
        cfg = ideal_config(duration_s=0.2, seed=41)
        background = off_peak_background(run_and_match(cfg), 150.0, UNIT_PS)
        assert background.sum() == 0

    def test_off_peak_background_counts_dark_coincidences(self):
        cfg = ideal_config(
            duration_s=1.0,
            seed=43,
            alice_detectors=DetectorModel(dark_rate_hz=5e4),
            bob_detectors=DetectorModel(dark_rate_hz=5e4),
        )
        background = off_peak_background(run_and_match(cfg), 150.0, UNIT_PS)
        assert background.sum() > 0

    def test_off_peak_background_window_validation(self):
        cfg = ideal_config(duration_s=0.01)
        with pytest.raises(ConfigurationError):
            off_peak_background(run_and_match(cfg), 400.0, UNIT_PS)

    def test_jitter_spreads_peaks(self):
        cfg = ideal_config(
            duration_s=0.2,
            seed=37,
            alice_detectors=DetectorModel(jitter_sigma_ps=50.0),
            bob_detectors=DetectorModel(jitter_sigma_ps=50.0),
        )
        hist = build_histogram(run_and_match(cfg), UNIT_PS)
        centers = {hist.bin_center_ps(i) for i in hist.bins}
        assert len(centers) > 5
