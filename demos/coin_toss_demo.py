"""Coin tossing on the satellite-peak qubit subspaces.

The photon itself picks the left or right satellite at random; Alice's
detection heralds Bob's photon in a two-path superposition, and her
two-outcome projection in that subspace fixes the coin.  Honest execution is
exact at full purity and degrades linearly with white noise.
"""

from qutrit_bench.protocols import run_coin_toss
from qutrit_bench.source import InterferometerConfig, herald_state

print("satellite herald states (Bob's paths s, m, l), nominal interferometer:")
for side in ("left", "right"):
    for detector in range(3):
        amps = herald_state(side, detector, InterferometerConfig())
        terms = " + ".join(
            f"({a.real:+.3f}{a.imag:+.3f}i)|{p}>" for p, a in zip("sml", amps) if abs(a) > 1e-12
        )
        print(f"  {side:>5s}, Alice detector {detector}:  {terms}")

print("\nhonest runs (100000 rounds):")
for lam in (1.0, 0.9688, 0.7):
    summary = run_coin_toss(rounds=100000, lam=lam, seed=21)
    print(
        f"  lam = {lam:6.4f}: left fraction {summary.left_fraction:.4f}, "
        f"coin bias {summary.outcome_bias:+.4f}, "
        f"agreement {summary.agreement_rate:.4f} (expected {(1 + lam) / 2:.4f})"
    )

print("\nnoise breaks single-shot verification: agreement < 1 whenever lam < 1,")
print("so a single toss cannot certify honesty against detector noise.")
