"""Fringe-scan analysis and the visibility-based Bell-violation chain.

Covers visibility extraction from phase scans, the mapping between fringe
visibility V and the white-noise mixing weight lam (V = 3*lam / (2 + lam)
from the central fringe law's extrema), least-squares fitting of the
two-phase central fringe, satellite phase-rate tracking, the d = 3
two-party Bell functional evaluated through phase-plus-coupler
measurements, and the visibility threshold above which the Bell bound is
violated.  The Bell maximum of the maximally entangled pair and its
settings are taken in closed form (Collins, Gisin, Linden, Massar, Popescu,
PRL 88, 040404 (2002)); no optimizer runs.  The periodogram and the median
smoothing are plain numpy; scipy is imported only by `fit_central_fringe`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DensityOperator, tritter
from .errors import DegenerateStateError, FitError, NoFringeError

_SMOOTH_WINDOW = 5  # median window for extrema estimation; kills single-bin spikes
_EXTREME_FRACTION = 0.05


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

    def __len__(self) -> int:
        return self.setpoints.size


@dataclass(frozen=True)
class FringeFit:
    """Extracted fringe parameters; optional fields filled by the full fit."""

    i_max: float
    i_min: float
    visibility: float
    lambda_hat: float = None
    n_hat: float = None
    phase_offsets: tuple = None
    residual: float = None


@dataclass(frozen=True)
class BellResult:
    """Visibility-threshold verdict for the d = 3 Bell inequality."""

    v_net: float
    sigma_v: float
    v_bell: float
    n_sigma: float
    i3: float
    lambda_crit: float


def load_scan(path) -> FringeScan:
    """Read a `setpoint,count` CSV channel file."""
    setpoints, counts = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header[:2]] != ["setpoint", "count"]:
            raise ValueError(f"expected header 'setpoint,count' in {path}, got {header!r}")
        for row in reader:
            setpoints.append(float(row[0]))
            counts.append(float(row[1]))
    return FringeScan(np.asarray(setpoints), np.asarray(counts))


def save_scan(scan: FringeScan, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setpoint", "count"])
        for u, c in zip(scan.setpoints, scan.counts):
            writer.writerow([f"{u:.9g}", f"{c:.9g}"])


def _median_smooth(counts: np.ndarray) -> np.ndarray:
    """Running median over _SMOOTH_WINDOW bins, edges repeated outward.

    An odd window's median is one of its inputs, so no rounding enters.
    """
    padded = np.pad(counts, _SMOOTH_WINDOW // 2, mode="edge")
    return np.median(sliding_window_view(padded, _SMOOTH_WINDOW), axis=1)


def visibility(scan: FringeScan) -> FringeFit:
    """Fringe contrast V = (I_max - I_min) / (I_max + I_min) of one scan.

    The scan must span at least one full fringe period (caller-asserted).
    Extrema are estimated robustly as the means of the top and bottom 5%
    of median-smoothed counts; V is clamped to [0, 1].
    """
    counts = np.asarray(scan.counts, dtype=float)
    if counts.size == 0 or np.all(counts == 0.0):
        raise DegenerateStateError("scan has no counts")
    smoothed = _median_smooth(counts)
    k = max(1, int(round(_EXTREME_FRACTION * counts.size)))
    ordered = np.sort(smoothed)
    i_min = float(np.mean(ordered[:k]))
    i_max = float(np.mean(ordered[-k:]))
    denom = i_max + i_min
    v = 0.0 if denom <= 0.0 else min(max((i_max - i_min) / denom, 0.0), 1.0)
    return FringeFit(i_max=i_max, i_min=i_min, visibility=v)


def visibility_error(fit: FringeFit, n_scan_points: int) -> float:
    """Poisson-propagated one-sigma error of a visibility estimate.

    Treats I_max and I_min as means over the top/bottom 5% bins with
    Poisson-distributed counts.
    """
    k = max(1, int(round(_EXTREME_FRACTION * n_scan_points)))
    var_max = max(fit.i_max, 0.0) / k
    var_min = max(fit.i_min, 0.0) / k
    s = fit.i_max + fit.i_min
    if s <= 0.0:
        return float("inf")
    return float(2.0 * math.sqrt(fit.i_min**2 * var_max + fit.i_max**2 * var_min) / s**2)


def visibility_from_lambda(lam: float) -> float:
    """V = 3*lam / (2 + lam): fringe-law extrema (3 + 6*lam vs 3 - 3*lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    return 3.0 * lam / (2.0 + lam)


def lambda_from_visibility(v: float) -> float:
    """Inverse of visibility_from_lambda: lam = 2*v / (3 - v)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
    return 2.0 * v / (3.0 - v)


# --------------------------------------------------------------------------
# Periodogram and fringe-rate tracking
# --------------------------------------------------------------------------


def periodogram(setpoints: np.ndarray, counts: np.ndarray, freqs: np.ndarray = None):
    """Lomb-Scargle power of mean-subtracted counts on an angular-frequency grid.

    A direct frequency scan (not FFT-length-locked) so short or ragged
    scans resolve peaks; returns (freqs, power).
    """
    u = np.asarray(setpoints, dtype=float)
    c = np.asarray(counts, dtype=float)
    span = float(u.max() - u.min())
    if span <= 0.0:
        raise ValueError("setpoints must span a nonzero range")
    if freqs is None:
        f_min = 2.0 * np.pi * 0.25 / span
        f_max = np.pi * (u.size - 1) / span  # Nyquist-like bound for ~uniform scans
        if not np.isfinite(f_max):  # f_max >= f_min, so the whole grid is finite past here
            raise ValueError(f"setpoint span {span!r} is too small for a finite frequency grid")
        freqs = np.linspace(f_min, f_max, 4000)
    freqs = np.asarray(freqs, dtype=float)
    # Lomb-Scargle power with uniform weights and a fixed zero mean, in the
    # operation order of scipy.signal.lombscargle(normalize="power"), so the
    # two agree bit for bit (tests/test_references.py).  Three setpoint x
    # frequency arrays are reused in place for every elementwise step.
    x = u.reshape(-1, 1)
    weights = np.ones_like(x) * (1.0 / x.size)
    weights_y = weights * (c - c.mean()).reshape(-1, 1)
    wt = freqs.reshape(1, -1) * x
    cos_w, work = np.cos(wt), np.sin(wt)
    cs = np.dot(weights.T, np.multiply(cos_w, work, out=work))
    cc = np.dot(weights.T, np.multiply(cos_w, cos_w, out=work))
    tau = 0.5 * np.arctan2(2.0 * cs, cc - (1.0 - cc))  # phase that decouples cos and sin
    wt -= tau
    cos_w, sin_w = np.cos(wt, out=cos_w), np.sin(wt, out=wt)
    yc = np.dot(weights_y.T, cos_w)
    ys = np.dot(weights_y.T, sin_w)
    cc = np.dot(weights.T, np.multiply(cos_w, cos_w, out=work))
    epsneg = np.finfo(float).epsneg  # keeps the divisions finite where cc or ss round to ~0
    cc, ss = np.maximum(cc, epsneg), np.maximum(1.0 - cc, epsneg)
    power = np.squeeze(2.0 * ((yc / cc) * yc + (ys / ss) * ys)) * (x.size / 4.0)
    return freqs, power


def dominant_frequency(setpoints: np.ndarray, counts: np.ndarray) -> float:
    """Angular frequency of the strongest periodogram peak, parabolically refined."""
    freqs, power = periodogram(setpoints, counts)
    i = int(np.argmax(power))
    if 0 < i < freqs.size - 1:
        denom = power[i - 1] - 2.0 * power[i] + power[i + 1]
        if denom < 0.0:
            shift = 0.5 * (power[i - 1] - power[i + 1]) / denom
            return float(freqs[i] + shift * (freqs[1] - freqs[0]))
    return float(freqs[i])


def phase_ratio(left_scan: FringeScan, right_scan: FringeScan) -> float:
    """Ratio of the left and right satellite fringe rates, n = f_left / f_right.

    Both scans must share their setpoints (recorded simultaneously).  A scan
    without a detectable fringe (V < 0.05) is rejected.
    """
    if left_scan.setpoints.shape != right_scan.setpoints.shape or not np.allclose(
        left_scan.setpoints, right_scan.setpoints
    ):
        raise ValueError("left and right scans must share their setpoints")
    for name, scan in (("left", left_scan), ("right", right_scan)):
        if visibility(scan).visibility < 0.05:
            raise NoFringeError(f"{name} scan shows no detectable fringe (V < 0.05)")
    f_left = dominant_frequency(left_scan.setpoints, left_scan.counts)
    f_right = dominant_frequency(right_scan.setpoints, right_scan.counts)
    return float(f_left / f_right)


# --------------------------------------------------------------------------
# Central-fringe least-squares fit
# --------------------------------------------------------------------------


def central_fringe_model(u, amplitude, lam, omega, n, phi0, phi1):
    """Two-phase central fringe driven at rates omega and n*omega:

        A * (3 + 2*lam*(cos(w u + phi0) + cos(n w u + phi1)
                        + cos((n+1) w u + phi0 + phi1)))
    """
    w = omega * np.asarray(u, dtype=float)
    return amplitude * (
        3.0
        + 2.0
        * lam
        * (np.cos(w + phi0) + np.cos(n * w + phi1) + np.cos((n + 1.0) * w + phi0 + phi1))
    )


def _top_peak_frequencies(setpoints, counts, n_peaks=4):
    freqs, power = periodogram(setpoints, counts)
    interior = (power[1:-1] > power[:-2]) & (power[1:-1] >= power[2:])
    idx = np.flatnonzero(interior) + 1
    if idx.size == 0:
        return []
    idx = idx[np.argsort(power[idx])[::-1][:n_peaks]]
    return sorted(float(freqs[i]) for i in idx)


def _linear_tone_fit(u, counts, tone_freqs):
    cols = [np.ones_like(u)]
    for f in tone_freqs:
        cols.extend([np.cos(f * u), np.sin(f * u)])
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    rms = float(np.sqrt(np.mean((counts - design @ coef) ** 2)))
    return coef, rms


def _candidate_inits(u, counts):
    peaks = _top_peak_frequencies(u, counts)
    candidates = []
    for i, fi in enumerate(peaks):
        candidates.append((fi, 1.0))
        for fj in peaks[i + 1 :]:
            ratio = fj / fi
            candidates.append((fi, ratio))
            if ratio > 1.2:
                candidates.append((fi, ratio - 1.0))
    if not candidates:
        span = float(u.max() - u.min())
        candidates.append((2.0 * np.pi / span, 1.0))
    seen, unique = set(), []
    for w, n in candidates:
        key = (round(w, 9), round(n, 6))
        if n > 0.02 and key not in seen:
            seen.add(key)
            unique.append((w, n))
    return unique


def fit_central_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares fit of a central-peak scan to the two-phase fringe law.

    Recovers the mixing weight lam, the phase-rate ratio n and the two
    phase offsets.  The scan should cover at least two periods of the
    slower phase.  Raises FitError on non-convergence or when the relative
    RMS residual exceeds 0.2.
    """
    from scipy import optimize  # the only scipy use; kept off the import path

    u = np.asarray(scan.setpoints, dtype=float)
    counts = np.asarray(scan.counts, dtype=float)
    mean = counts.mean()
    if mean <= 0.0:
        raise DegenerateStateError("scan has no counts")
    y = counts / mean  # scale-free fit; amplitude is restored afterwards

    best = None
    for w0, n0 in _candidate_inits(u, y):
        coef, rms = _linear_tone_fit(u, y, (w0, n0 * w0, (n0 + 1.0) * w0))
        if best is None or rms < best[0]:
            best = (rms, w0, n0, coef)
    _, w0, n0, coef = best
    amp0 = max(coef[0] / 3.0, 1e-9)
    tone_amp = np.hypot(coef[1], -coef[2])
    lam0 = min(max(tone_amp / (2.0 * amp0), 0.0), 1.0)
    phi0 = math.atan2(-coef[2], coef[1]) if tone_amp > 0 else 0.0
    phi1 = math.atan2(-coef[4], coef[3]) if np.hypot(coef[3], coef[4]) > 0 else 0.0

    def residuals(theta):
        a, lam, w, n, p0, p1 = theta
        return central_fringe_model(u, a, lam, w, n, p0, p1) - y

    bounds = (
        [1e-9, 0.0, 1e-9, 0.02, -2.0 * np.pi, -2.0 * np.pi],
        [np.inf, 1.0, np.inf, 50.0, 2.0 * np.pi, 2.0 * np.pi],
    )
    x0 = np.clip([amp0, lam0, w0, n0, phi0, phi1], bounds[0], bounds[1])
    result = optimize.least_squares(residuals, x0, bounds=bounds, max_nfev=20000)
    if not result.success:
        raise FitError(f"central fringe fit did not converge: {result.message}")
    a_hat, lam_hat, _, n_hat, p0_hat, p1_hat = result.x
    rel_residual = float(np.sqrt(np.mean(result.fun**2)) / np.mean(y))
    if rel_residual > 0.2:
        raise FitError(
            f"central fringe fit rejected: relative residual {rel_residual:.3f} > 0.2 "
            f"(lam={lam_hat:.3f}, n={n_hat:.3f})"
        )
    amplitude = a_hat * mean
    return FringeFit(
        i_max=float(amplitude * (3.0 + 6.0 * lam_hat)),
        i_min=float(amplitude * (3.0 - 3.0 * lam_hat)),
        visibility=visibility_from_lambda(float(lam_hat)),
        lambda_hat=float(lam_hat),
        n_hat=float(n_hat),
        phase_offsets=(float(p0_hat), float(p1_hat)),
        residual=rel_residual,
    )


# --------------------------------------------------------------------------
# Bell functional (two parties, three outcomes)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CglmpSettings:
    """Two measurement phase-triples per party.

    Each measurement applies the triple as per-arm phases followed by the
    symmetric coupler; Bob's reported trit is his detector index reflected
    mod 3, which labels the correlated coincidence classes 0..2.
    """

    alice: np.ndarray  # shape (2, 3)
    bob: np.ndarray  # shape (2, 3)

    def __post_init__(self):
        for name in ("alice", "bob"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (2, 3) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} settings must be two finite phase-triples")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _outcome_matrix(phases: np.ndarray) -> np.ndarray:
    """Rows map a path-basis ket to the three detector amplitudes."""
    return tritter() @ np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


_BOB_RELABEL = np.array([(3 - k) % 3 for k in range(3)])


def cglmp_probability_table(rho: DensityOperator, settings: CglmpSettings) -> np.ndarray:
    """P[a, b, alice_trit, bob_trit] for the four setting combinations."""
    if rho.dim != 9:
        raise ValueError("Bell functional needs a two-qutrit (9-dimensional) state")
    mats_a = np.array([_outcome_matrix(phases) for phases in settings.alice])
    mats_b = np.array([_outcome_matrix(phases) for phases in settings.bob])
    # Outcome amplitude rows <j_a, k_b| as 9-vectors, indexed [a, b, j, k].
    rows = np.einsum("ajp,bkq->abjkpq", mats_a, mats_b).reshape(2, 2, 3, 3, 9)
    probs = np.einsum("abjkx,xy,abjky->abjk", rows, rho.matrix, rows.conj()).real
    table = np.empty((2, 2, 3, 3))
    table[..., _BOB_RELABEL] = probs
    return table


def i3_from_probability_table(table: np.ndarray) -> float:
    """The fixed d = 3 Bell combination; local deterministic bound is 2."""

    def s(a, b, d):
        return sum(table[a, b, r, (r + d) % 3] for r in range(3))

    plus = s(0, 0, 0) + s(1, 0, 1) + s(1, 1, 0) + s(0, 1, 0)
    minus = s(0, 0, 1) + s(1, 0, 0) + s(1, 1, 1) + s(0, 1, 2)
    return float(plus - minus)


def cglmp_value(rho: DensityOperator, settings: CglmpSettings) -> float:
    """Bell value I3 of `rho` at the given measurement settings."""
    return i3_from_probability_table(cglmp_probability_table(rho, settings))


def local_deterministic_values() -> np.ndarray:
    """I3 of all 81 deterministic local strategies (exact integers)."""
    values = np.zeros(81)
    i = 0
    for a1 in range(3):
        for a2 in range(3):
            for b1 in range(3):
                for b2 in range(3):
                    table = np.zeros((2, 2, 3, 3))
                    table[0, 0, a1, b1] = 1.0
                    table[0, 1, a1, b2] = 1.0
                    table[1, 0, a2, b1] = 1.0
                    table[1, 1, a2, b2] = 1.0
                    values[i] = i3_from_probability_table(table)
                    i += 1
    return values


@dataclass(frozen=True)
class CglmpOptimum:
    value: float
    settings: CglmpSettings


def optimize_cglmp() -> CglmpOptimum:
    """The maximum of I3 for the maximally entangled pair, in closed form.

    I3max = 4 / (6*sqrt(3) - 9) = 2.8729..., reached by the linear phase
    triples (0, t, 2t) with t = 0 and pi/3 for Alice, +pi/6 and -pi/6 for
    Bob (Collins, Gisin, Linden, Massar, Popescu, PRL 88, 040404 (2002)).
    """

    def linear(t):
        return [0.0, t, 2.0 * t]

    settings = CglmpSettings(
        alice=[linear(0.0), linear(np.pi / 3.0)],
        bob=[linear(np.pi / 6.0), linear(-np.pi / 6.0)],
    )
    return CglmpOptimum(float(4.0 / (6.0 * np.sqrt(3.0) - 9.0)), settings)


def bell_threshold_visibility() -> tuple:
    """(lambda_crit, v_bell): the mixing weight and visibility where the
    noisy maximally entangled pair stops violating the local bound.

    I3 is affine in the mixing weight (white noise contributes zero), so
    lambda_crit = 2 / max I3 and v_bell follows through the visibility map.
    """
    optimum = optimize_cglmp()
    lambda_crit = 2.0 / optimum.value
    return lambda_crit, visibility_from_lambda(lambda_crit)


def sigma_violation(v_net: float, sigma_v: float) -> BellResult:
    """How many standard deviations a measured visibility exceeds v_bell."""
    if not sigma_v > 0.0:
        raise ValueError(f"sigma_v must be positive, got {sigma_v!r}")
    if not 0.0 <= v_net <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v_net!r}")
    lambda_crit, v_bell = bell_threshold_visibility()
    lam_hat = lambda_from_visibility(v_net)
    return BellResult(
        v_net=float(v_net),
        sigma_v=float(sigma_v),
        v_bell=float(v_bell),
        n_sigma=float((v_net - v_bell) / sigma_v),
        i3=float(lam_hat * optimize_cglmp().value),
        lambda_crit=float(lambda_crit),
    )
