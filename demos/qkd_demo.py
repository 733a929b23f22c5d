"""Heralded-qutrit key distribution: sifting, trit error rates, thresholds.

Central-peak post-selection keeps the central class weight of the
coincidences, a third at symmetric couplers; matched mutually unbiased bases
then correlate the trits perfectly up to the source's white-noise fraction
and any dial misalignment.  An intercept-resend attacker is simulated for
comparison against the stored security thresholds.
"""

from qutrit_bench.protocols import EveModel, qber_thresholds, run_qkd
from qutrit_bench.source import ArmPhases, InterferometerConfig

ROUNDS = 600000

print("thresholds (trit error rates):")
for name, value in qber_thresholds().items():
    shown = "~16%" if name == "qutrit_coherent" else f"{100 * value:.2f}%"
    print(f"  {name:>26s} : {shown}")

print(f"\nhonest runs ({ROUNDS} coincidence rounds):")
for lam in (1.0, 0.9688, 0.8):
    summary = run_qkd(rounds=ROUNDS, mode="four_basis", lam=lam, seed=11)
    print(
        f"  lam = {lam:6.4f}: kept {summary.postselect_ratio:.3f}, "
        f"sifted {summary.sifted_count:6d}, QBER = {100 * summary.qber:5.2f}%  "
        f"({sum(v == 'secure' for v in summary.verdicts.values())}/4 thresholds secure)"
    )

print("\nintercept-resend attacker:")
for mode, pool in (
    ("four_basis", ("computational", "fourier0", "fourier1", "fourier2")),
    ("two_basis", ("computational", "fourier0")),
):
    summary = run_qkd(
        rounds=ROUNDS, mode=mode, lam=1.0, eve=EveModel.intercept_resend(pool), seed=12
    )
    print(
        f"  {mode:>10s}: QBER = {100 * summary.qber:5.2f}%  "
        f"(all thresholds insecure: {all(v == 'insecure' for v in summary.verdicts.values())})"
    )

print("\nhardware-constrained mode (no computational basis without input switches):")
summary = run_qkd(rounds=ROUNDS, mode="phase_only_three", lam=0.9688, seed=13)
print(
    f"  phase_only_three: sift ratio {summary.sift_ratio:.3f}, "
    f"QBER = {100 * summary.qber:.2f}%"
)

print("\nmisaligned dials (Alice's medium/long arms off by delta, 2 delta):")
for delta in (0.1, 0.3):
    itf = InterferometerConfig(alice=ArmPhases(phi_m=delta, phi_l=2 * delta))
    summary = run_qkd(rounds=ROUNDS, mode="four_basis", lam=0.9688, seed=14, interferometer=itf)
    print(f"  delta = {delta:.1f} rad: QBER = {100 * summary.qber:.2f}%")
