import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_bench.analysis import (
    FringeScan,
    bell_threshold_visibility,
    cglmp_table,
    fit_central_fringe,
    i3_from_probability_table,
    optimize_cglmp,
    phase_ratio,
    sigma_violation,
    visibility,
    visibility_from_lambda,
)
from qutrit_bench.errors import DegenerateStateError, FitError, NoFringeError
from qutrit_bench.source import CouplerRatios, InterferometerConfig, step_distributions
from test_references import (
    central_fringe_model,
    lambda_from_visibility,
    local_strategy_tables,
)


def equal_rate_scan(lam, n_points=2000, periods=2.0, total_counts=3000.0, noise_seed=None):
    """Counts from the kernel's central table with both phases driven equally:
    Alice's dials (u, 2u) give phi_r = phi_l = u; Bob's stay at zero."""
    u = np.linspace(0.0, periods * 2.0 * np.pi, n_points)
    dials = np.column_stack([u, 2.0 * u, np.zeros((u.size, 2))])
    probs = 3.0 * step_distributions(InterferometerConfig(), lam, dials)[:, 2, 0, 0]
    counts = total_counts * probs * 9.0
    if noise_seed is not None:
        counts = np.random.default_rng(noise_seed).poisson(counts).astype(float)
    return FringeScan(u, counts)


class TestVisibility:
    def test_full_contrast_cosine(self):
        u = np.linspace(0, 4 * np.pi, 1500)
        scan = FringeScan(u, 100.0 * (1.0 + np.cos(u)))
        fit = visibility(scan, (1.0,))
        assert fit.visibility == pytest.approx(1.0, abs=0.01)

    def test_constant_counts(self):
        scan = FringeScan(np.linspace(0, 10, 200), np.full(200, 57.0))
        assert visibility(scan, (1.0,)).visibility == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_counts_rejected(self):
        scan = FringeScan(np.linspace(0, 10, 50), np.zeros(50))
        with pytest.raises(DegenerateStateError):
            visibility(scan, (1.0,))

    def test_equal_rate_scan_recovers_target_visibility(self):
        # analytic extrema of the fringe law: V = 3*lam / (2 + lam)
        fit = visibility(equal_rate_scan(0.9688), (1.0, 2.0))
        assert fit.visibility == pytest.approx(0.979, abs=0.005)


class TestVisibilityLambdaMaps:
    def test_endpoints(self):
        assert lambda_from_visibility(1.0) == pytest.approx(1.0, abs=1e-12)
        assert lambda_from_visibility(0.0) == pytest.approx(0.0, abs=1e-12)
        assert visibility_from_lambda(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_identity_on_grid(self):
        lams = np.linspace(0.0, 1.0, 1000)
        for lam in lams:
            assert lambda_from_visibility(visibility_from_lambda(lam)) == pytest.approx(
                lam, abs=1e-10
            )

    def test_monotone(self):
        v = [visibility_from_lambda(x) for x in np.linspace(0, 1, 500)]
        assert np.all(np.diff(v) > 0)

    def test_against_brute_force_phase_grid(self):
        # oracle: scan the fringe law on a 2-D phase grid and find the lam
        # whose max/min contrast equals 0.979 by bisection
        grid = np.linspace(-np.pi, np.pi, 241)
        pr, pl = np.meshgrid(grid, grid, indexing="ij")

        def contrast(lam):
            values = (
                3.0 + 2.0 * lam * (np.cos(pr) + np.cos(pl) + np.cos(pr + pl))
            ) / 27.0
            return (values.max() - values.min()) / (values.max() + values.min())

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if contrast(mid) < 0.979:
                lo = mid
            else:
                hi = mid
        oracle_lam = 0.5 * (lo + hi)
        assert lambda_from_visibility(0.979) == pytest.approx(oracle_lam, abs=5e-4)
        assert lambda_from_visibility(0.979) == pytest.approx(0.9688, abs=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_visibility(1.2)


class TestCentralFringeFit:
    START_TOLERANCE = 0.01  # relative error of the start rates: radians of phase by the scan end

    def synthetic(self, n, lam, n_points=1200, periods=2.5, amp=400.0, seed=None):
        u = np.linspace(0.0, periods * 2 * np.pi, n_points)  # slow-phase periods
        counts = central_fringe_model(u, amp, lam, 1.0, n, 0.0, 0.0)
        if seed is not None:
            counts = np.random.default_rng(seed).poisson(counts).astype(float)
        return FringeScan(u, counts)

    def start(self, n, omega=1.0):
        """Start rates (omega, n), each START_TOLERANCE off; n = 1 stays exact."""
        off = 1.0 + self.START_TOLERANCE
        return omega * off, 1.0 if n == 1.0 else n * off

    def test_fast_slow_beat_ratio_seven(self):
        fit = fit_central_fringe(self.synthetic(7.0, 1.0), self.start(7.0))
        assert fit.n_hat == pytest.approx(7.0, abs=0.1)
        assert fit.lambda_hat == pytest.approx(1.0, abs=0.01)

    def test_equal_rate_ratio_one(self):
        fit = fit_central_fringe(self.synthetic(1.0, 1.0), self.start(1.0))
        assert fit.n_hat == pytest.approx(1.0, abs=0.05)
        assert fit.lambda_hat == pytest.approx(1.0, abs=0.01)

    def test_flat_noise_gives_zero_mixing(self):
        rng = np.random.default_rng(44)
        u = np.linspace(0, 10 * np.pi, 900)
        counts = rng.poisson(3.0e4, size=u.size).astype(float)
        fit = fit_central_fringe(FringeScan(u, counts), self.start(1.0))
        assert fit.lambda_hat == pytest.approx(0.0, abs=0.02)

    def test_flat_noise_is_read_at_the_drive_rates(self):
        # No fringe holds a rate, so the fit is not refined off the drive.
        rng = np.random.default_rng(44)
        u = np.linspace(0, 10 * np.pi, 900)
        counts = rng.poisson(3.0e4, size=u.size).astype(float)
        assert fit_central_fringe(FringeScan(u, counts), (1.0, 3.0)).n_hat == 3.0

    def test_scale_invariance(self):
        scan = self.synthetic(3.0, 0.8, seed=5)
        fit1 = fit_central_fringe(scan, self.start(3.0))
        fit2 = fit_central_fringe(FringeScan(scan.setpoints, scan.counts * 40.0), self.start(3.0))
        assert fit2.lambda_hat == pytest.approx(fit1.lambda_hat, abs=1e-6)
        assert fit2.n_hat == pytest.approx(fit1.n_hat, abs=1e-6)

    def test_wrong_model_rejected(self):
        # a sawtooth is no fringe; the relative residual check fires
        u = np.linspace(0, 20, 600)
        counts = 100.0 * (u % 1.0) + 1.0
        with pytest.raises(FitError, match="relative residual"):
            fit_central_fringe(FringeScan(u, counts), self.start(1.0, omega=2 * np.pi))

    def test_recovered_visibility_is_consistent(self):
        fit = fit_central_fringe(self.synthetic(1.0, 0.9688, seed=9), self.start(1.0))
        assert visibility_from_lambda(fit.lambda_hat) == pytest.approx(0.979, abs=0.01)

    def test_start_rates_of_opposite_sign_rejected(self):
        with pytest.raises(FitError, match="one sign"):
            fit_central_fringe(self.synthetic(1.0, 0.9), (1.0, -1.0))

    def test_sign_shared_by_both_start_rates_is_not_seen(self):
        scan = self.synthetic(3.0, 0.8, seed=5)
        omega, n = self.start(3.0)
        assert fit_central_fringe(scan, (-omega, n)) == fit_central_fringe(scan, (omega, n))

    @pytest.mark.parametrize("start", [(0.0, 1.0), (np.nan, 1.0), (2 * np.pi, np.inf), (1.0, 0.0), (np.inf, 2.0)])
    def test_zero_or_non_finite_start_rates_rejected_up_front(self, start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from a fit on such rates
            with pytest.raises(FitError, match="finite nonzero drive rates"):
                fit_central_fringe(self.synthetic(1.0, 0.9), start)

    @pytest.mark.parametrize("n, free", [(1.0, 6), (3.0, 9)])
    def test_a_scan_needs_more_points_than_free_parameters(self, n, free):
        # 2T + 1 tone coefficients and the refined rates: two tones and one
        # rate at n = 1, three tones and two rates otherwise.
        with pytest.raises(FitError, match=f"{free} free parameters"):
            fit_central_fringe(self.synthetic(n, 0.9, n_points=free), self.start(n))
        fit = fit_central_fringe(self.synthetic(n, 0.9, n_points=free + 1), self.start(n))
        assert fit.lambda_hat == pytest.approx(0.9, abs=1e-9)

    def test_sigma_lambda_matches_the_seed_spread(self):
        # 100 seeds: the sample sd has a standard error of about 7%.
        scans = [self.synthetic(3.0, 0.9, amp=20.0, seed=seed) for seed in range(100)]
        fits = [fit_central_fringe(scan, self.start(3.0)) for scan in scans]
        lams = np.array([fit.lambda_hat for fit in fits])
        sigma = np.mean([fit.sigma_lambda for fit in fits])
        assert np.std(lams, ddof=1) == pytest.approx(sigma, rel=0.3)
        assert abs(lams.mean() - 0.9) <= 3.0 * sigma / np.sqrt(lams.size)

    PERIODS = 8.0  # of the omega tone over the scan
    LAMBDA_TOLERANCE = 0.04  # about 6 sigma at the lowest counts drawn
    N_TOLERANCE = 0.02  # where omega and n*omega are at least one beat apart

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.3, 1.0),
        st.floats(0.5, 3.0) | st.just(1.0),
        st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
        st.tuples(*[st.floats(-START_TOLERANCE, START_TOLERANCE)] * 2),
        st.integers(0, 2**32 - 1),
    )
    def test_recovers_lambda_and_n_from_perturbed_start_rates(self, lam, n, phases, errors, seed):
        omega = 2 * np.pi
        u = np.linspace(0.0, self.PERIODS, 400)
        mean = np.clip(central_fringe_model(u, 100.0, lam, omega, n, *phases), 0.0, None)
        scan = FringeScan(u, np.random.default_rng(seed).poisson(mean).astype(float))
        start = (omega * (1.0 + errors[0]), 1.0 if n == 1.0 else n * (1.0 + errors[1]))
        fit = fit_central_fringe(scan, start)
        assert fit.lambda_hat == pytest.approx(lam, abs=self.LAMBDA_TOLERANCE)
        # Closer to 1 the omega and n*omega tones are not resolved, and n is
        # known only to the resolution 1 / PERIODS; lam is still read off
        # the well separated (n+1)*omega tone.
        resolved = abs(n - 1.0) * self.PERIODS >= 1.0
        assert fit.n_hat == pytest.approx(n, abs=self.N_TOLERANCE if resolved else 1.0 / self.PERIODS)


class TestPhaseRatio:
    START_TOLERANCE = 0.01  # relative error of each start rate

    def satellite_scan(self, cycles, n_points=1200, span=1.0, lam=1.0, phase=0.3):
        u = np.linspace(0.0, span, n_points)
        counts = 500.0 * (1.0 + lam * np.cos(2 * np.pi * cycles * u + phase)) / 9.0
        return FringeScan(u, counts)

    def rates(self, left_cycles, right_cycles):
        """Drive rates of the two scans, START_TOLERANCE off in opposite directions."""
        return (
            2 * np.pi * left_cycles * (1.0 + self.START_TOLERANCE),
            2 * np.pi * right_cycles * (1.0 - self.START_TOLERANCE),
        )

    def test_seven_to_one(self):
        left = self.satellite_scan(7.0)
        right = self.satellite_scan(1.0)
        assert phase_ratio(left, right, self.rates(7.0, 1.0)) == pytest.approx(7.0, abs=0.2)

    def test_identical_scans(self):
        scan = self.satellite_scan(3.0)
        assert phase_ratio(scan, scan, self.rates(3.0, 3.0)) == pytest.approx(1.0, abs=0.02)

    def test_half_ratio(self):
        left = self.satellite_scan(2.0)
        right = self.satellite_scan(4.0)
        assert phase_ratio(left, right, self.rates(2.0, 4.0)) == pytest.approx(0.5, abs=0.02)

    def test_flat_scan_rejected(self):
        left = self.satellite_scan(2.0)
        flat = FringeScan(left.setpoints, np.full(left.setpoints.size, 55.0))
        with pytest.raises(NoFringeError):
            phase_ratio(left, flat, self.rates(2.0, 2.0))

    def test_mismatched_setpoints_rejected(self):
        left = self.satellite_scan(2.0)
        other = FringeScan(left.setpoints + 0.5, left.counts)
        with pytest.raises(ValueError):
            phase_ratio(left, other, self.rates(2.0, 2.0))

    @pytest.mark.parametrize("rates", [(0.0, 2.0), (2.0, 0.0), (np.nan, 2.0), (2.0, np.inf), (-np.inf, 2.0)])
    def test_zero_or_non_finite_drive_rates_rejected_up_front(self, rates):
        scan = self.satellite_scan(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoFringeError, match="not a finite nonzero rate"):
                phase_ratio(scan, scan, rates)

    def test_a_scan_needs_more_points_than_free_parameters(self):
        # Three tone coefficients and the refined rate.
        short = self.satellite_scan(1.0, n_points=4)
        with pytest.raises(DegenerateStateError, match="4 free parameters"):
            phase_ratio(short, short, self.rates(1.0, 1.0))
        scan = self.satellite_scan(1.0, n_points=5)
        assert phase_ratio(scan, scan, self.rates(1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_sign_of_a_drive_rate_is_not_seen(self):
        left, right = self.satellite_scan(2.0), self.satellite_scan(4.0)
        rates = self.rates(2.0, 4.0)
        assert phase_ratio(left, right, (-rates[0], rates[1])) == phase_ratio(left, right, rates)

    PERIODS = 8.0  # of the right fringe over the scan
    RATIO_TOLERANCE = 0.004  # relative; about 8 sigma at the slowest left fringe (n = 0.3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.3, 8.0) | st.just(1.0),
        st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
        st.tuples(*[st.floats(-START_TOLERANCE, START_TOLERANCE)] * 2),
        st.integers(0, 2**32 - 1),
    )
    def test_recovers_the_ratio_from_perturbed_drive_rates(self, n, phases, errors, seed):
        omega = 2 * np.pi
        u = np.linspace(0.0, self.PERIODS, 400)
        rng = np.random.default_rng(seed)
        left, right = (
            FringeScan(u, rng.poisson(1000.0 * (1.0 + 0.95 * np.cos(rate * u + phase))).astype(float))
            for rate, phase in zip((n * omega, omega), phases)
        )
        rates = (n * omega * (1.0 + errors[0]), omega * (1.0 + errors[1]))
        assert phase_ratio(left, right, rates) == pytest.approx(n, rel=self.RATIO_TOLERANCE)


MAXENT_I3 = 4.0 / (6.0 * np.sqrt(3.0) - 9.0)  # closed form of the qutrit maximum


def random_dials(rng):
    """Two random (phi_m, phi_l) dial pairs."""
    return rng.uniform(0, 2 * np.pi, (2, 2))


def kernel_i3(cfg, lam, alice_dials, bob_dials):
    return i3_from_probability_table(cglmp_table(cfg, lam, alice_dials, bob_dials))


class TestBellFunctional:
    """I3 of the source kernel's central class at the CGLMP dial settings."""

    def test_white_noise_gives_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            i3 = kernel_i3(InterferometerConfig(), 0.0, random_dials(rng), random_dials(rng))
            assert i3 == pytest.approx(0.0, abs=1e-10)

    def test_optimized_maximum(self):
        optimum = optimize_cglmp()
        assert optimum.value == pytest.approx(2.8729, abs=1e-3)
        assert optimum.value == pytest.approx(MAXENT_I3, abs=1e-6)

    def test_optimum_settings_reach_optimum_value(self):
        optimum = optimize_cglmp()
        found = kernel_i3(InterferometerConfig(), 1.0, optimum.alice_dials, optimum.bob_dials)
        assert found == pytest.approx(optimum.value, abs=1e-12)

    def test_known_linear_settings_reach_maximum(self):
        # the equally-spaced phase triples (0, t, 2t) are optimal for the
        # maximally entangled pair: t = 0 and pi/3 for Alice, pi/6 and -pi/6
        # for Bob, as dials (t, 2t - trim) that undo each long-arm trim
        alice = [(0.0, 2.0 * np.pi / 3.0), (np.pi / 3.0, 4.0 * np.pi / 3.0)]
        bob = [(np.pi / 6.0, -np.pi / 3.0), (-np.pi / 6.0, -np.pi)]
        assert kernel_i3(InterferometerConfig(), 1.0, alice, bob) == pytest.approx(MAXENT_I3, abs=1e-9)

    def test_affine_in_mixing_weight(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            alice, bob = random_dials(rng), random_dials(rng)
            pure = kernel_i3(InterferometerConfig(), 1.0, alice, bob)
            for lam in (0.2, 0.7):
                assert kernel_i3(InterferometerConfig(), lam, alice, bob) == pytest.approx(lam * pure, abs=1e-10)

    def test_random_settings_never_beat_optimum(self):
        rng = np.random.default_rng(23)
        best = optimize_cglmp().value
        for _ in range(200):
            assert kernel_i3(InterferometerConfig(), 1.0, random_dials(rng), random_dials(rng)) <= best + 1e-9

    def test_unequal_couplers_allow_no_violation(self):
        # [0.6, 0.3, 0.1] couplers on both sides at the headline mixing weight
        ratios = CouplerRatios(0.6, 0.3, 0.1)
        cfg = InterferometerConfig(alice_ratios=ratios, bob_ratios=ratios)
        optimum = optimize_cglmp()
        assert kernel_i3(cfg, 0.9688, optimum.alice_dials, optimum.bob_dials) == pytest.approx(1.52686, abs=1e-5)

    def test_empty_central_class_rejected(self):
        # Alice only ever takes her short arm and Bob his long one.
        short, long = CouplerRatios(1.0, 0.0, 0.0), CouplerRatios(0.0, 0.0, 1.0)
        cfg = InterferometerConfig(alice_ratios=short, bob_ratios=long)
        optimum = optimize_cglmp()
        with pytest.raises(DegenerateStateError, match="central peak empty"):
            cglmp_table(cfg, 0.9, optimum.alice_dials, optimum.bob_dials)

    def test_local_deterministic_bound(self):
        values = np.array([i3_from_probability_table(table) for table in local_strategy_tables()])
        assert values.size == 81
        assert np.max(values) == pytest.approx(2.0, abs=1e-12)
        assert np.all(values <= 2.0 + 1e-9)

    def test_all_correlated_table_saturates_local_bound(self):
        # perfect correlation on every setting pair: plus block scores
        # A1=B1, A2=B2, B2=A1; minus block only B1=A2, so I3 = 3 - 1 = 2
        table = np.zeros((2, 2, 3, 3))
        for a in range(2):
            for b in range(2):
                for r in range(3):
                    table[a, b, r, r] = 1.0 / 3.0
        assert i3_from_probability_table(table) == pytest.approx(2.0, abs=1e-12)


class TestBellThreshold:
    def test_lambda_crit(self):
        lambda_crit, _ = bell_threshold_visibility()
        assert lambda_crit == pytest.approx(2.0 / MAXENT_I3, abs=1e-6)
        assert lambda_crit == pytest.approx(0.6962, abs=1e-3)

    def test_v_bell(self):
        _, v_bell = bell_threshold_visibility()
        assert v_bell == pytest.approx(0.7746, abs=1e-3)

    def test_reported_violation_arithmetic(self):
        # (0.979 - v_bell) / 0.006 reproduces the 34-sigma headline
        _, v_bell = bell_threshold_visibility()
        assert (0.979 - v_bell) / 0.006 == pytest.approx(34.0, abs=1.0)


class TestSigmaViolation:
    @staticmethod
    def at_visibility(v, sigma_v):
        """sigma_violation at the lam of visibility v, with the sigma_lam that maps to sigma_v."""
        lam = lambda_from_visibility(v)
        return sigma_violation(lam, sigma_v * (2.0 + lam) ** 2 / 6.0)

    def test_headline_numbers(self):
        result = self.at_visibility(0.979, 0.006)
        assert result.v_net == pytest.approx(0.979, abs=1e-12)
        assert result.sigma_v == pytest.approx(0.006, abs=1e-12)
        assert result.n_sigma == pytest.approx(34.0, abs=1.0)
        assert result.v_bell == pytest.approx(0.7746, abs=1e-3)
        assert result.i3 > 2.0

    def test_zero_at_threshold(self):
        lambda_crit, _ = bell_threshold_visibility()
        assert sigma_violation(lambda_crit, 0.01).n_sigma == pytest.approx(0.0, abs=1e-9)

    def test_below_threshold_is_negative(self):
        result = self.at_visibility(0.70, 0.006)
        assert result.n_sigma < 0.0
        assert result.i3 < 2.0

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            sigma_violation(0.9, 0.0)
