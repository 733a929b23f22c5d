"""Phase tracking with the satellite peaks.

Both interferometer phases drift together during a scan.  The left and right
satellite fringes each track one effective phase, so their rate ratio n is
directly readable; the central peak shows the corresponding two-phase beat.
Demonstrated for a fast/slow scan (n ~ 7) and an equal-rate scan (n ~ 1).
"""

import numpy as np

from qutrit_bench.analysis import FringeScan, fit_central_fringe, phase_ratio, visibility
from qutrit_bench.source import (
    InterferometerConfig,
    coincidence_prob_central,
    coincidence_prob_satellite,
    phases_for_fringe_targets,
)

LAM = 0.9688
COINCIDENCES_PER_STEP = 12000.0


def scan_counts(rate_ratio, steps=900, periods=3.0, seed=1):
    """Counts for the central and both satellite channels at detector pair (0,0)."""
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, periods * 2.0 * np.pi, steps)  # slow-phase coordinate
    channels = {"central": np.empty(steps), "left": np.empty(steps), "right": np.empty(steps)}
    for i, phi in enumerate(u):
        itf = InterferometerConfig(alice=phases_for_fringe_targets(phi, rate_ratio * phi))
        channels["central"][i] = rng.poisson(
            COINCIDENCES_PER_STEP * 3.0 * coincidence_prob_central(itf, 0, 0, LAM)
        )
        for side in ("left", "right"):
            channels[side][i] = rng.poisson(
                COINCIDENCES_PER_STEP * 2.0 * coincidence_prob_satellite(side, itf, 0, 0, LAM)
            )
    return u, channels


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
