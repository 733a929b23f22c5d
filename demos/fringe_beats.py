"""Phase tracking with the satellite peaks.

Both interferometer phases drift together during a scan.  The left and right
satellite fringes each track one effective phase, so their rate ratio n is
directly readable; the central peak shows the corresponding two-phase beat.
Demonstrated for a fast/slow scan (n ~ 7) and an equal-rate scan (n ~ 1).
"""

import numpy as np

from qutrit_bench.analysis import FringeScan, fit_central_fringe, phase_ratio, visibility
from qutrit_bench.source import InterferometerConfig, step_distributions

LAM = 0.9688
COINCIDENCES_PER_STEP = 12000.0


def scan_counts(rate_ratio, steps=900, periods=3.0, seed=1):
    """Counts for the central and both satellite channels at detector pair (0,0)."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, periods * 2.0 * np.pi, steps)  # slow-phase coordinate
    # Alice's dials (u, u + n*u) drive the two effective phases at rates 1 and n;
    # Bob's dials, the last two columns, stay at zero.
    dials = np.column_stack([u, u + rate_ratio * u, np.zeros((steps, 2))])
    tables = step_distributions(InterferometerConfig(), LAM, dials)
    # Mean count of a peak's (0,0) cell: its 1:2:3:2:1 weight w times
    # COINCIDENCES_PER_STEP times P(0,0 | peak) = 9 * P[class, 0, 0] / w.
    rates = 9.0 * COINCIDENCES_PER_STEP * tables[:, [2, 3, 1], 0, 0]
    counts = rng.poisson(rates)  # step by step: central, left, right
    return u, dict(zip(("central", "left", "right"), counts.T))


for ratio in (7.0, 1.0):
    u, channels = scan_counts(ratio)
    left = FringeScan(u, channels["left"])
    right = FringeScan(u, channels["right"])
    central = FringeScan(u, channels["central"])

    n_satellites = phase_ratio(left, right, (ratio, 1.0))  # left follows the fast phase
    fit = fit_central_fringe(central, (1.0, ratio))  # start from the drive rates
    v = visibility(central, sorted({1.0, ratio, 1.0 + ratio}))

    print(f"\ndrive ratio n = {ratio:.0f}")
    print(f"  satellite fringe-rate ratio : {n_satellites:6.3f}")
    print(f"  central-fit n               : {fit.n_hat:6.3f}")
    print(f"  central-fit mixing weight   : {fit.lambda_hat:6.4f}  (true {LAM})")
    print(f"  central visibility          : {v.visibility:6.4f}")
    if ratio == 1.0:
        print("  equal rates satisfy the zero-minimum constraint: the fringe")
        print("  minimum drops to the noise floor and V approaches 3*lam/(2+lam)")
