"""Seeded calibration of reported uncertainties.

An estimate and its sigma are calibrated when z = (estimate - truth) / sigma
has mean 0 and standard deviation 1 over independent seeds.  Each check
runs fixed seeds of a small in-process config, so its result is
deterministic, and bands the mean and sd of z widely enough that a correct
estimator passes by a clear margin: with 40 seeds the mean of z has a
standard error of about 0.16 and its sd one of about 0.11.  A fit the
scan cannot hold is rejected instead of reported with a sigma.
"""

import json
import math
import statistics

from qutrit_bench.cli import main

LAM = 0.9688
SEEDS = range(40)


def assert_calibrated(name, z):
    mean, sd = statistics.mean(z), statistics.stdev(z)
    assert abs(mean) <= 0.5, f"z of {name} has mean {mean:.3f} over {len(z)} seeds"
    assert 0.7 <= sd <= 1.4, f"z of {name} has sd {sd:.3f} over {len(z)} seeds"


def test_v_net_is_calibrated(tmp_path):
    # 80 steps of 0.01 s at 2 Hz: 1.6 periods of the slow tone, ~0.08 s a run.
    drive = {"rate_r_rad_per_s": 4 * math.pi, "steps": 80, "dwell_s": 0.01}
    config = {
        "experiment": "bell",
        "run": {"pair_rate_hz": 4.0e5, "lambda": LAM},
        "scan_spec": {"phase_drive": drive},
    }
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(config))
    expected = 3.0 * LAM / (2.0 + LAM)
    z = []
    for seed in SEEDS:
        out = tmp_path / str(seed)
        assert main(["bell", "--config", str(path), "--out", str(out), "--seed", str(seed)]) == 0
        bell = json.loads((out / "bell.json").read_text())
        z.append((bell["v_net"] - expected) / bell["sigma_v"])
    assert_calibrated("v_net", z)


def test_central_fit_lambda_is_calibrated(tmp_path):
    # The same drive on the central channel alone, both phases at 2 Hz.
    drive = {"rate_r_rad_per_s": 4 * math.pi, "rate_l_rad_per_s": 4 * math.pi, "steps": 80, "dwell_s": 0.01}
    config = {
        "experiment": "scan",
        "run": {"pair_rate_hz": 4.0e5, "lambda": LAM},
        "scan_spec": {"channels": [{"peak": "central", "j": 0, "k": 0}], "phase_drive": drive},
    }
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    z = []
    for seed in SEEDS:
        out = tmp_path / str(seed)
        assert main(["scan", "--config", str(path), "--out", str(out), "--seed", str(seed)]) == 0
        central = json.loads((out / "fringe_fits.json").read_text())["central_00"]
        z.append((central["lambda_hat"] - LAM) / central["lambda_sigma"])
    assert_calibrated("lambda_hat", z)


def test_central_fit_rejects_rates_off_the_drive(tmp_path):
    # rate_l at half of rate_r: the slow phase makes 0.8 of a period over the
    # scan, too little to hold its rate, and the refinement walks n from the
    # drive's 0.5 to anywhere in 0.001-1.001 with a small residual and a
    # lambda_hat as low as 0.01.  Such fits are rejected; an accepted one
    # keeps both rates within 0.9-1.1 times the drive, so n within 0.5 * (0.9/1.1)^+-1.
    drive = {"rate_r_rad_per_s": 4 * math.pi, "rate_l_rad_per_s": 2 * math.pi, "steps": 80, "dwell_s": 0.01}
    config = {
        "experiment": "scan",
        "run": {"pair_rate_hz": 4.0e5, "lambda": LAM},
        "scan_spec": {"channels": [{"peak": "central", "j": 0, "k": 0}], "phase_drive": drive},
    }
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    rejected = 0
    for seed in SEEDS:
        out = tmp_path / str(seed)
        assert main(["scan", "--config", str(path), "--out", str(out), "--seed", str(seed)]) == 0
        central = json.loads((out / "fringe_fits.json").read_text())["central_00"]
        if "fit_error" in central:
            assert "drive rates" in central["fit_error"]
            rejected += 1
        else:
            assert 0.5 * 0.9 / 1.1 <= central["n_hat"] <= 0.5 * 1.1 / 0.9
    assert rejected >= 30  # 38 of the 40 seeds
