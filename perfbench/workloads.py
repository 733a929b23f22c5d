"""The benchmark's workloads: which CLI run each one is, and how its outputs are checked.

Each workload is one `python -m qutrit_bench.cli <experiment>` invocation on a
demo config. A check reads the files the invocation wrote and returns a list
of problems; an empty list means the outputs are physically right. The
expected values are written out here rather than imported from the package,
so a check does not rely on the code it checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAM = 0.9688  # mixing weight of both demo configs
I3_MAX = 2.8729  # CGLMP maximum for d = 3 (Collins et al., PRL 88, 040404)
V_BELL = 0.7746  # visibility at which the noisy pair stops violating the local bound
PEAK_WEIGHTS = {"outer_right": 1 / 9, "right": 2 / 9, "central": 3 / 9, "left": 2 / 9, "outer_left": 1 / 9}
# Band on each peak area, in binomial standard deviations. A 3-sigma band on
# five peaks fails about 1.2% of correct seeds; the benchmark runs dozens of
# seeds, so it uses 5 sigma. A wrong peak ratio sits hundreds of sigma out.
PEAK_SIGMAS = 5.0
ALL_BASES = ["computational", "fourier0", "fourier1", "fourier2"]
SATELLITE_CHANNELS = [{"peak": "left", "j": 0, "k": 0}, {"peak": "right", "j": 0, "k": 0}]


def _read_json(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def check_histogram(out_dir: Path) -> list:
    areas = _read_json(out_dir, "peaks.json")["areas"]
    total = sum(areas.values())
    problems = []
    for peak, weight in PEAK_WEIGHTS.items():
        sigma = math.sqrt(total * weight * (1.0 - weight))
        if abs(areas[peak] - total * weight) > PEAK_SIGMAS * sigma:
            problems.append(
                f"peak {peak}: area {areas[peak]} is more than {PEAK_SIGMAS:g} sigma "
                f"from {weight:.4f} of {total}"
            )
    return problems


def check_bell(out_dir: Path) -> list:
    bell = _read_json(out_dir, "bell.json")
    problems = []
    if abs(bell["i3_max"] - I3_MAX) > 1e-3:
        problems.append(f"i3_max {bell['i3_max']} is not within 1e-3 of {I3_MAX}")
    if abs(bell["v_bell"] - V_BELL) > 1e-3:
        problems.append(f"v_bell {bell['v_bell']} is not within 1e-3 of {V_BELL}")
    if not bell["n_sigma"] > 3.0:
        problems.append(f"n_sigma {bell['n_sigma']} is not above 3")
    expected = 3.0 * LAM / (2.0 + LAM)  # central-fringe visibility V(lam)
    if abs(bell["v_net"] - expected) > 5.0 * bell["sigma_v"]:
        problems.append(f"v_net {bell['v_net']} is not within 5 sigma_v of {expected:.4f}")
    return problems


def check_satellite_scan(out_dir: Path) -> list:
    fits = _read_json(out_dir, "fringe_fits.json")
    if "satellite_rate_ratio_error" in fits:
        return [f"phase_ratio failed: {fits['satellite_rate_ratio_error']}"]
    ratio = fits.get("satellite_rate_ratio")
    # The default drive advances both phases at the same rate, so n = 1.
    if ratio is None or abs(ratio - 1.0) > 0.1:
        return [f"satellite_rate_ratio {ratio} is not within 0.1 of 1"]
    return []


def check_qkd(out_dir: Path) -> list:
    summary = _read_json(out_dir, "qkd_summary.json")
    problems = []
    if summary["postselect_ratio_ok"] is not True:
        problems.append("postselect_ratio_ok is not true")
    # Intercept-resend over all four bases: on a sifted round Bob copies
    # Alice's trit only when Eve picked their basis (1/4) on a clean round
    # (lam); otherwise his trit is uniform and wrong 2/3 of the time. That
    # gives QBER = 3/4 * 2/3 + 1/4 * (1 - lam) * 2/3 = 1/2 + (1 - lam)/6.
    expected = 0.5 + (1.0 - LAM) / 6.0
    if abs(summary["qber"] - expected) > 0.01:
        problems.append(f"qber {summary['qber']} is not within 0.01 of {expected:.4f}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: str  # relative to the repository root
    overrides: tuple
    outputs: tuple  # data files every invocation must write, besides manifest.json
    check: Callable[[Path], list]
    spans: tuple  # span groups the traced run must see called at least once
    why: str

    def cli_args(self, seed: int) -> list:
        args = [self.experiment, "--config", self.config, "--seed", str(seed)]
        for item in self.overrides:
            args += ["--override", item]
        return args


_ALWAYS = ("cli.load_config", "cli.write")
_STREAM = ("timetags.simulate_run", "timetags.find_coincidences", "timetags.select")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="histogram_realistic",
            experiment="histogram",
            config="demos/configs/histogram_realistic.json",
            overrides=(),
            outputs=("histogram.csv", "peaks.json"),
            check=check_histogram,
            spans=_ALWAYS + _STREAM,
            why="one 1.7M-tag stream larger than L2; timetags does nearly all the work, analysis is idle",
        ),
        Workload(
            name="bell_headline",
            experiment="bell",
            config="demos/configs/bell_headline_regime.json",
            overrides=(),
            outputs=("scan_central_00.csv", "scan_central_12.csv", "scan_central_21.csv", "bell.json"),
            check=check_bell,
            spans=_ALWAYS + _STREAM + ("analysis.bell_chain", "analysis.optimize_cglmp"),
            why="cold CGLMP maximisation and the Bell chain dominate; timetags runs as 240 small streams",
        ),
        Workload(
            name="scan_satellites",
            experiment="scan",
            config="demos/configs/histogram_realistic.json",
            # The default scan_spec without its central channel: fit_central_fringe
            # rejects its own fit on about one seed in ten (see README.md).
            overrides=("scan_spec.channels=" + json.dumps(SATELLITE_CHANNELS),),
            outputs=("scan_left_00.csv", "scan_right_00.csv", "fringe_fits.json"),
            check=check_satellite_scan,
            spans=_ALWAYS + _STREAM + ("analysis.phase_ratio",),
            why="the periodogram path (phase_ratio) over 180 small streams, no CGLMP and no central fit",
        ),
        Workload(
            name="qkd_intercept_trace",
            experiment="qkd",
            config="demos/configs/bell_headline_regime.json",
            overrides=(
                "protocol_spec.rounds=1000000",
                "protocol_spec.mode=four_basis",
                "protocol_spec.eve=" + json.dumps({"kind": "intercept_resend", "basis_pool": ALL_BASES}),
                "protocol_spec.trace=true",
            ),
            outputs=("qkd_summary.json", "qkd_rounds.csv"),
            check=check_qkd,
            spans=_ALWAYS + ("protocols.run_qkd",),
            why="protocols and an 11 MB trace write; set-up is the largest share of wall time here",
        ),
    )
}
