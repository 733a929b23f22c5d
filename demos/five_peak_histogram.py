"""Simulate a raw acquisition run and show the five-peak structure of the
arrival-time-difference histogram.

The nine path combinations through the two three-arm interferometers fall on
five time-difference classes in ratio 1:2:3:2:1; the central class is the
entangled-qutrit subspace.
"""

from qutrit_bench.source import InterferometerConfig
from qutrit_bench.timetags import (
    RunConfig,
    build_histogram,
    find_coincidences,
    peak_areas,
    simulate_run,
)

cfg = RunConfig(
    pair_rate_hz=2.0e5,
    duration_s=2.0,
    seed=7,
    interferometer=InterferometerConfig(),  # symmetric couplers, 1.2 ns unit delay
    lam=0.9688,
)

print(f"simulating {cfg.pair_rate_hz * cfg.duration_s:.0f} expected pairs ...")
stream = simulate_run(cfg)
print(f"  {len(stream)} detection tags")

unit_ps = cfg.unit_delay_ps
coincidences = find_coincidences(stream, max_delta_ps=3 * unit_ps)
print(f"  {len(coincidences)} coincidences within +-{3 * unit_ps / 1000:.1f} ns")

areas = peak_areas(coincidences, half_width_ps=150.0, unit_delay_ps=unit_ps)
total = sum(areas.values())
print("\npeak areas (expected weights 1:2:3:2:1):")
for peak, multiplier in (
    ("outer_right", -2),
    ("right", -1),
    ("central", 0),
    ("left", +1),
    ("outer_left", +2),
):
    area = areas[peak]
    print(
        f"  {peak:>12s}  dt = {multiplier * 1.2:+.1f} ns   {area:7d} counts"
        f"   fraction {area / total:.4f}"
    )

hist = build_histogram(coincidences, unit_delay_ps=unit_ps)  # 12 bins of 100 ps per unit
print("\nhistogram bins around the central peak:")
for i in sorted(hist.bins):
    center = hist.bin_center_ps(i)
    if abs(center) <= 600:
        bar = "#" * max(1, hist.bins[i] * 60 // max(hist.bins.values()))
        print(f"  {center:+7.0f} ps  {hist.bins[i]:7d}  {bar}")

print("\nASCII profile of all five peaks (100 ps bins):")
for i in range(-26, 27):
    count = hist.bins.get(i, 0)
    if count:
        bar = "#" * max(1, count * 50 // max(hist.bins.values()))
        print(f"  {hist.bin_center_ps(i):+7.0f} ps  {bar}")
