"""Fringe-scan analysis and the visibility-based Bell-violation chain.

Every fringe number is read from one kernel, `tone_fit`: a Poisson fit of
a scan's counts to a constant plus a cosine and a sine at each angular
frequency ("tone") the caller knows, with its covariance.  The central
fringe at rates omega and n*omega has tones omega, n*omega and (n+1)*omega
(omega and 2*omega at n = 1); the last has amplitude 2*A*lam at any phases
and the constant is 3*A plus the flat background b, so
lam = 3*|c| / (2*(c_0 - b)) and V = 3*lam / (2 + lam).  Every rate starts
from the drive and is refined by Gauss-Newton on that fit: the satellite
rate ratio n = f_left / f_right and the central fit's (omega, n).
`fit_central_fringe` is the one central-fringe estimator; the Bell verdict
maps its lam-hat and sigma to V and sigma_V.  Also here: the d = 3 Bell
test (Collins, Gisin, Linden, Massar, Popescu, PRL 88, 040404 (2002)).
Its measurements are dial settings followed by the coupler, so its
probability table `cglmp_table` is the central class of the source
kernel's `step_distributions` at the four setting pairs; the Bell
functional I3 of a table, its closed-form maximum and the visibility
threshold of a violation complete the chain.  All plain numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, FitError, NoFringeError
from .source import (
    ALICE_LONG_ARM_TRIM,
    BOB_LONG_ARM_TRIM,
    PEAK_CLASS,
    InterferometerConfig,
    step_distributions,
)

_IRLS_PASSES = 4  # passes weighted by 1/model after the unweighted one
_MODEL_FLOOR = 0.01  # of the mean count: the least model value a weight is taken from
_GN_STEPS = 50  # Gauss-Newton steps of a rate refinement
# The band of refined / drive rate a central fit accepts.  A scan too short
# to hold its slow tone lets that rate walk off towards 0 or onto the fast
# one, where a fit still leaves a small residual.
_RATE_BAND = (0.9, 1.1)
# lam-hat / sigma at the drive rates from which a central fit refines its
# rates: below it there is no fringe to hold a rate, and the rates walk to
# wherever the noise fits best.
_FRINGE_Z = 3.0


@dataclass(frozen=True)
class FringeScan:
    """Coincidence counts of one channel versus a monotone scan coordinate."""

    setpoints: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        sp = np.asarray(self.setpoints, dtype=float)
        ct = np.asarray(self.counts, dtype=float)
        if sp.ndim != 1 or sp.shape != ct.shape:
            raise ValueError("setpoints and counts must be 1-D arrays of equal length")
        if np.any(ct < 0):
            raise ValueError("counts must be non-negative")
        sp.setflags(write=False)
        ct.setflags(write=False)
        object.__setattr__(self, "setpoints", sp)
        object.__setattr__(self, "counts", ct)


@dataclass(frozen=True)
class FringeFit:
    """Fringe extrema and contrast."""

    i_max: float
    i_min: float
    visibility: float


@dataclass(frozen=True)
class CentralFit:
    """Central-fringe fit: lam-hat, its sigma, the rate ratio n-hat and the relative RMS residual."""

    lambda_hat: float
    sigma_lambda: float
    n_hat: float
    residual: float


@dataclass(frozen=True)
class BellResult:
    """Visibility-threshold verdict for the d = 3 Bell inequality."""

    v_net: float
    sigma_v: float
    v_bell: float
    n_sigma: float
    i3: float
    lambda_crit: float


def save_scan(scan: FringeScan, path):
    data = np.column_stack([scan.setpoints, scan.counts])
    np.savetxt(path, data, fmt="%.9g", delimiter=",", newline="\r\n", header="setpoint,count", comments="")


# --------------------------------------------------------------------------
# Poisson tone fit
# --------------------------------------------------------------------------


def _tone_design(u: np.ndarray, freqs) -> np.ndarray:
    """Columns 1, cos(f u) for each tone f, then sin(f u) for each tone f."""
    arg = np.multiply.outer(u, np.asarray(freqs, dtype=float))
    return np.hstack([np.ones((u.size, 1)), np.cos(arg), np.sin(arg)])


def _poisson_weights(model: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """1/model, the model floored at _MODEL_FLOOR of the mean count."""
    return 1.0 / np.maximum(model, _MODEL_FLOOR * counts.mean())


def _inverse(normal: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a small positive semidefinite matrix; a variable
    whose pivot falls to 1e-12 of its diagonal is left out (zero row and column)."""
    k = len(normal)
    m = np.hstack([normal, np.eye(k)])
    for i in range(k):
        m[i] = m[i] / m[i, i] if m[i, i] > 1e-12 * normal[i, i] else 0.0
        m -= np.multiply.outer(m[:, i], m[i]) * (np.arange(k) != i)[:, None]
    return m[:, k:]


def _weighted_lstsq(design: np.ndarray, y: np.ndarray, weights: np.ndarray) -> tuple:
    """(coef, cov) of least squares with `weights` (1/variance), by the normal equations."""
    cov = _inverse(np.einsum("ni,n,nj->ij", design, weights, design))
    return cov @ np.einsum("ni,n->i", design, weights * y), cov


def tone_fit(setpoints, counts, freqs) -> tuple:
    """Poisson fit of counts to c_0 + sum_k (a_k cos(f_k u) + b_k sin(f_k u)),
    weighted by 1/model in _IRLS_PASSES passes after an unweighted one;
    returns coef = (c_0, a_1..a_T, b_1..b_T), its covariance and the model."""
    u, y = np.asarray(setpoints, dtype=float), np.asarray(counts, dtype=float)
    if not y.sum() > 0.0:
        raise DegenerateStateError("scan has no counts")
    design = _tone_design(u, freqs)
    weights = np.ones_like(y)
    for _ in range(_IRLS_PASSES + 1):
        coef, cov = _weighted_lstsq(design, y, weights)
        model = np.einsum("ni,i->n", design, coef)
        weights = _poisson_weights(model, y)
    return coef, cov, model


def _fringe_lambda(coef: np.ndarray, cov: np.ndarray, background: float = 0.0) -> tuple:
    """(lam, sigma_lam) with lam = 3*|c| / (2*(c_0 - background)), c the last
    tone ((n+1)*omega, or 2*omega at n = 1), sigma by the delta method."""
    index = [0, (coef.size - 1) // 2, coef.size - 1]
    c0, a, b = coef[index] - (background, 0.0, 0.0)
    if not c0 > 0.0:
        raise FitError(f"the fitted constant {coef[0]:.4g} is not above the background {background:.4g}")
    amp = max(math.hypot(a, b), np.finfo(float).tiny)
    lam = 1.5 * amp / c0
    grad = np.array([-lam, 1.5 * a / amp, 1.5 * b / amp]) / c0
    return lam, math.sqrt(max(grad @ cov[np.ix_(index, index)] @ grad, 0.0))


def visibility(scan: FringeScan, tones) -> FringeFit:
    """Contrast V = (I_max - I_min) / (I_max + I_min), clamped to [0, 1], of
    the tone fit at the scan's drive `tones` (angular frequency per setpoint
    unit); I_max and I_min are its extrema over the scanned range.
    """
    coef, _, _ = tone_fit(scan.setpoints, scan.counts, tones)
    u = scan.setpoints
    curve = _tone_design(np.linspace(u.min(), u.max(), 16 * u.size), tones) @ coef
    i_max, i_min = float(curve.max()), float(curve.min())
    v = min(max((i_max - i_min) / (i_max + i_min), 0.0), 1.0) if i_max + i_min > 0.0 else 0.0
    return FringeFit(i_max=i_max, i_min=i_min, visibility=v)


def visibility_from_lambda(lam: float) -> float:
    """V = 3*lam / (2 + lam): fringe-law extrema (3 + 6*lam vs 3 - 3*lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    return 3.0 * lam / (2.0 + lam)


# --------------------------------------------------------------------------
# Fringe rates
# --------------------------------------------------------------------------

# Tones as a linear map of the rates, freqs = mixing @ rates: the central
# fringe at rates (omega_r, omega_l), at one rate (omega, 2*omega tones) and
# a satellite fringe.
_CENTRAL_MIXING = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
_EQUAL_RATE_MIXING = np.array([[1.0], [2.0]])
_SATELLITE_MIXING = np.array([[1.0]])


def _check_points(scan: FringeScan, mixing: np.ndarray, error: type):
    """Raise `error` unless the scan has more points than the fit's 2T + 1 tone coefficients and rates."""
    free = 2 * len(mixing) + 1 + mixing.shape[1]
    if not scan.setpoints.size > free:
        raise error(f"a fit of {free} free parameters needs more scan points than that, got {scan.setpoints.size}")


def _refine_rates(scan: FringeScan, rates: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Gauss-Newton with step halving on the rates of the tones mixing @ rates,
    from `rates` and weighted by the tone fit there, the tone coefficients
    solved at each step (variable projection; Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 413 (1973)); the tones' rate derivative is `mixing`."""
    u, y = scan.setpoints, scan.counts
    weights = _poisson_weights(tone_fit(u, y, mixing @ rates)[2], y)
    t = len(mixing)

    def projected(rates):
        design = _tone_design(u, mixing @ rates)
        coef = _weighted_lstsq(design, y, weights)[0]
        residual = y - np.einsum("ni,i->n", design, coef)
        return design, coef, residual @ (weights * residual), residual

    design, coef, cost, residual = projected(rates)
    for _ in range(_GN_STEPS):
        d_curve = u[:, None] * (coef[t + 1 :] * design[:, 1 : t + 1] - coef[1 : t + 1] * design[:, t + 1 :])
        step = _weighted_lstsq(np.hstack([design, d_curve @ mixing]), residual, weights)[0][-rates.size :]
        for _ in range(10):
            if np.all(rates + step > 0.0):
                found = projected(rates + step)
                if found[2] < cost:
                    break
            step = step / 2.0
        else:
            break
        rates = rates + step
        design, coef, cost, residual = found
        if np.all(np.abs(step) <= 1e-9 * rates):
            break
    return rates


def phase_ratio(left_scan: FringeScan, right_scan: FringeScan, rates: tuple) -> float:
    """Ratio of the left and right satellite fringe rates, n = f_left / f_right,
    each refined by `_refine_rates` from its drive rate in `rates` = (left,
    right); a fringe cannot tell the sign of its rate, so magnitudes are used.

    Both scans must share their setpoints (recorded simultaneously).  A zero
    or non-finite drive rate, and a scan whose tone fit at its refined rate
    has V < 0.05 (no fringe), raise NoFringeError; scans of no more points
    than a satellite fit's four free parameters raise DegenerateStateError.
    """
    if left_scan.setpoints.shape != right_scan.setpoints.shape or not np.allclose(
        left_scan.setpoints, right_scan.setpoints
    ):
        raise ValueError("left and right scans must share their setpoints")
    found = []
    for name, scan, rate in zip(("left", "right"), (left_scan, right_scan), rates):
        if not 0.0 < abs(rate) < math.inf:
            raise NoFringeError(f"{name} drive rate {rate:.4g} is not a finite nonzero rate")
        _check_points(scan, _SATELLITE_MIXING, DegenerateStateError)
        rate = float(_refine_rates(scan, np.array([abs(rate)]), _SATELLITE_MIXING)[0])
        if visibility(scan, (rate,)).visibility < 0.05:
            raise NoFringeError(f"{name} scan shows no detectable fringe (V < 0.05)")
        found.append(rate)
    return found[0] / found[1]


# --------------------------------------------------------------------------
# Central-fringe fit
# --------------------------------------------------------------------------


def fit_central_fringe(scan: FringeScan, start: tuple, background: float = 0.0) -> CentralFit:
    """Fit of a central-peak scan to the two-phase fringe law from the drive
    rates `start` = (omega, n): the rates (|omega|, n*|omega|) are refined
    by `_refine_rates` (n = 1, the two-tone case, stays fixed), and lam and
    its sigma are read off the tone fit there, with the flat `background`
    (counts per step) taken off its constant.  A fringe whose lam-hat at
    the drive rates is under `_FRINGE_Z` sigma is read there, unrefined.
    Raises FitError on start rates that are zero, not finite or of opposite
    sign, on a scan of no more points than the fit has free parameters (6
    at n = 1, 9 otherwise), when a refined rate leaves `_RATE_BAND` times
    its start rate, and when the relative RMS residual exceeds 0.2."""
    omega, n = start
    if not (0.0 < abs(omega) < math.inf and 0.0 < n < math.inf):
        raise FitError(
            f"the fringe law needs finite nonzero drive rates of one sign, got omega = {omega:.4g}, n = {n:.4g}"
        )
    u, y = scan.setpoints, scan.counts
    if n == 1.0:
        drive, mixing = np.array([abs(omega)]), _EQUAL_RATE_MIXING
    else:
        drive, mixing = abs(omega) * np.array([1.0, n]), _CENTRAL_MIXING
    _check_points(scan, mixing, FitError)
    rates = drive
    coef, cov, model = tone_fit(u, y, mixing @ rates)
    lam, sigma_lam = _fringe_lambda(coef, cov, background)
    if lam >= _FRINGE_Z * sigma_lam:
        rates = _refine_rates(scan, drive, mixing)
        lo, hi = _RATE_BAND
        if not np.all((lo * drive <= rates) & (rates <= hi * drive)):
            raise FitError(
                f"central fringe fit rejected: refined rates {np.array2string(rates, precision=4)} "
                f"left {lo}-{hi} times the drive rates {np.array2string(drive, precision=4)}"
            )
        coef, cov, model = tone_fit(u, y, mixing @ rates)
        lam, sigma_lam = _fringe_lambda(coef, cov, background)
    lam = min(lam, 1.0)
    n_hat = float(rates[-1] / rates[0])
    rel_residual = float(np.sqrt(np.mean((model - y) ** 2)) / np.mean(y))
    if not rel_residual <= 0.2:
        raise FitError(
            f"central fringe fit rejected: relative residual {rel_residual:.3f} > 0.2 "
            f"(lam={lam:.3f}, n={n_hat:.3f})"
        )
    return CentralFit(lambda_hat=lam, sigma_lambda=sigma_lam, n_hat=n_hat, residual=rel_residual)


# --------------------------------------------------------------------------
# Bell functional (two parties, three outcomes)
# --------------------------------------------------------------------------


_BOB_RELABEL = np.array([(3 - k) % 3 for k in range(3)])


def cglmp_table(cfg: InterferometerConfig, lam: float, alice_dials, bob_dials) -> np.ndarray:
    """P[a, b, alice_trit, bob_trit] of the source's central peak at Alice's
    two dial settings `alice_dials` and Bob's two `bob_dials`, (phi_m, phi_l)
    pairs: the central class of `step_distributions` at the four setting
    pairs, each normalised.  Bob's trit is his detector index reflected mod
    3, which labels the correlated coincidence classes 0..2.  Raises
    DegenerateStateError when the couplers leave the central class empty."""
    rows = [(*alice, *bob) for alice in alice_dials for bob in bob_dials]
    central = step_distributions(cfg, lam, rows)[:, PEAK_CLASS["central"]].reshape(2, 2, 3, 3)
    total = central.sum(axis=(2, 3), keepdims=True)
    if not np.all(total > 0.0):
        raise DegenerateStateError("the couplers leave the central peak empty")
    return (central / total)[..., _BOB_RELABEL]  # the reflection is its own inverse


def i3_from_probability_table(table: np.ndarray) -> float:
    """The fixed d = 3 Bell combination; local deterministic bound is 2."""

    def s(a, b, d):
        return sum(table[a, b, r, (r + d) % 3] for r in range(3))

    plus = s(0, 0, 0) + s(1, 0, 1) + s(1, 1, 0) + s(0, 1, 0)
    minus = s(0, 0, 1) + s(1, 0, 0) + s(1, 1, 1) + s(0, 1, 2)
    return float(plus - minus)


@dataclass(frozen=True)
class CglmpOptimum:
    """The maximum of I3 and the dial settings, two (phi_m, phi_l) pairs per party, that reach it."""

    value: float
    alice_dials: tuple
    bob_dials: tuple


def optimize_cglmp() -> CglmpOptimum:
    """The maximum of I3 for the maximally entangled pair, in closed form.

    I3max = 4 / (6*sqrt(3) - 9) = 2.8729..., reached by the linear phase
    triples (0, t, 2t) with t = 0 and pi/3 for Alice, +pi/6 and -pi/6 for
    Bob (Collins, Gisin, Linden, Massar, Popescu, PRL 88, 040404 (2002)):
    the dials (t, 2t - trim), which undo each party's long-arm trim.
    """
    alice = tuple((t, 2.0 * t - ALICE_LONG_ARM_TRIM) for t in (0.0, np.pi / 3.0))
    bob = tuple((t, 2.0 * t - BOB_LONG_ARM_TRIM) for t in (np.pi / 6.0, -np.pi / 6.0))
    return CglmpOptimum(float(4.0 / (6.0 * np.sqrt(3.0) - 9.0)), alice, bob)


def bell_threshold_visibility() -> tuple:
    """(lambda_crit, v_bell): the mixing weight and visibility where the
    noisy maximally entangled pair stops violating the local bound.

    I3 is affine in the mixing weight (white noise contributes zero), so
    lambda_crit = 2 / max I3 and v_bell follows through the visibility map.
    """
    optimum = optimize_cglmp()
    lambda_crit = 2.0 / optimum.value
    return lambda_crit, visibility_from_lambda(lambda_crit)


def sigma_violation(lam: float, sigma_lam: float) -> BellResult:
    """How many standard deviations the visibility V(lam) of a fitted mixing
    weight exceeds v_bell, with sigma_V = dV/dlam * sigma_lam."""
    if not sigma_lam > 0.0:
        raise ValueError(f"sigma_lam must be positive, got {sigma_lam!r}")
    v_net = visibility_from_lambda(lam)
    sigma_v = 6.0 / (2.0 + lam) ** 2 * sigma_lam
    lambda_crit, v_bell = bell_threshold_visibility()
    return BellResult(
        v_net=float(v_net),
        sigma_v=float(sigma_v),
        v_bell=float(v_bell),
        n_sigma=float((v_net - v_bell) / sigma_v),
        i3=float(lam * optimize_cglmp().value),
        lambda_crit=float(lambda_crit),
    )
