"""The visibility-based Bell-violation chain for entangled qutrits.

1. the three-outcome Bell functional I3 of the maximally entangled pair
   has its maximum over phase-plus-coupler measurements in closed form,
   4 / (6 sqrt(3) - 9), at linear phase settings (Collins, Gisin, Linden,
   Massar, Popescu, PRL 88, 040404 (2002)); the source model reaches it,
   its central-peak table at those dial settings scored directly;
2. white noise scales I3 linearly, so the local bound 2 fixes a critical
   mixing weight and hence a threshold fringe visibility v_bell;
3. a fitted mixing weight and its sigma are converted into a net
   visibility and a violation significance.
"""

import itertools

import numpy as np

from qutrit_bench.analysis import (
    bell_threshold_visibility,
    cglmp_table,
    i3_from_probability_table,
    optimize_cglmp,
    sigma_violation,
    visibility_from_lambda,
)
from qutrit_bench.source import CouplerRatios, InterferometerConfig

print("I3 maximum of the maximally entangled pair (closed form):")
optimum = optimize_cglmp()
i3_source = i3_from_probability_table(cglmp_table(InterferometerConfig(), 1.0, optimum.alice_dials, optimum.bob_dials))
print(f"  I3 max          : {optimum.value:.6f}")
print(f"  source, lam = 1 : {i3_source:.6f}")
print(f"  alice dials     : {np.round(optimum.alice_dials, 4).tolist()}")
print(f"  bob dials       : {np.round(optimum.bob_dials, 4).tolist()}")

# Unequal couplers make the central-peak state far from maximally
# entangled: at the same dials the source stays under the local bound.
ratios = CouplerRatios(0.6, 0.3, 0.1)
skewed = InterferometerConfig(alice_ratios=ratios, bob_ratios=ratios)
i3_skewed = i3_from_probability_table(cglmp_table(skewed, 0.9688, optimum.alice_dials, optimum.bob_dials))
print(f"  couplers [0.6, 0.3, 0.1], lam = 0.9688: I3 = {i3_skewed:.5f} (no violation possible)")

# A deterministic local strategy answers a fixed trit per setting: Alice a1
# or a2, Bob b1 or b2, so each setting pair has one certain outcome.
local = []
for a1, a2, b1, b2 in itertools.product(range(3), repeat=4):
    table = np.zeros((2, 2, 3, 3))
    table[0, 0, a1, b1] = table[0, 1, a1, b2] = table[1, 0, a2, b1] = table[1, 1, a2, b2] = 1.0
    local.append(i3_from_probability_table(table))
print(f"  local bound     : {max(local):.1f} ({len(local)} strategies)")

lambda_crit, v_bell = bell_threshold_visibility()
print(f"\nthreshold chain:")
print(f"  lambda_crit = 2 / I3max        = {lambda_crit:.5f}")
print(f"  v_bell      = 3 l / (2 + l)    = {v_bell:.5f}")

lam_hat, sigma_lam = 0.9688, 0.0088
result = sigma_violation(lam_hat, sigma_lam)
print(f"\nfitted mixing weight {lam_hat} +- {sigma_lam}:")
print(f"  net visibility V(lam)  : {result.v_net:.4f} +- {result.sigma_v:.4f}")
print(f"  inferred I3            : {result.i3:.4f}  (> 2 violates locality)")
print(f"  violation significance : {result.n_sigma:.1f} sigma")

print("\nvisibility map sanity:")
for lam in (0.5, lambda_crit, 0.9688, 1.0):
    print(f"  lam = {lam:.4f} -> V = {visibility_from_lambda(lam):.4f}")
