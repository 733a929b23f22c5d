import filecmp
import json
import os

import jsonschema
import numpy as np
import pytest

from qutrit_bench.analysis import load_scan
from qutrit_bench.cli import CONFIG_SCHEMA, main

BASE_RUN = {
    "pair_rate_hz": 2.0e5,
    "duration_s": 0.2,
    "seed": 99,
    "lambda": 1.0,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_histogram_success(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": BASE_RUN})
        out = tmp_path / "out"
        assert run_cli(["histogram", "--config", cfg, "--out", out]) == 0
        assert (out / "histogram.csv").exists()
        assert (out / "peaks.json").exists()
        assert (out / "manifest.json").exists()

    def test_invalid_duration_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"experiment": "histogram", "run": dict(BASE_RUN, duration_s=0.0)}
        )
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "duration_s" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"experiment": "histogram", "run": dict(BASE_RUN, pair_rate_khz=1.0)}
        )
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "error_code=config_error" in capsys.readouterr().err

    def test_removed_left_peak_sign_key_exits_2(self, tmp_path, capsys):
        run = dict(BASE_RUN, interferometer={"left_peak_delta_sign": 1})
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": run})
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "left_peak_delta_sign" in err

    def test_config_schema_is_valid(self):
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    def test_broken_json_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "histogram",}')
        assert run_cli(["histogram", "--config", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert ":1:" in err  # line-precise position

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run_cli(["histogram", "--config", missing, "--out", tmp_path / "out"]) == 2
        assert "error_code=config_error" in capsys.readouterr().err

    def test_no_fringe_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "bell",
                "run": dict(BASE_RUN, **{"lambda": 0.05}),
                "scan_spec": {
                    "phase_drive": {
                        "rate_r_rad_per_s": 4 * np.pi,
                        "rate_l_rad_per_s": 4 * np.pi,
                        "steps": 80,
                        "dwell_s": 0.01,
                    }
                },
            },
        )
        assert run_cli(["bell", "--config", cfg, "--out", tmp_path / "out"]) == 3
        assert "error_code=runtime_error" in capsys.readouterr().err


class TestScanOutputs:
    def scan_config(self, seed=5):
        return {
            "experiment": "scan",
            "run": dict(BASE_RUN, seed=seed, duration_s=0.2),
            "scan_spec": {
                "channels": [
                    {"peak": "central", "j": 0, "k": 0},
                    {"peak": "left", "j": 0, "k": 0},
                    {"peak": "right", "j": 0, "k": 0},
                ],
                "phase_drive": {
                    "rate_r_rad_per_s": 4 * np.pi,
                    "rate_l_rad_per_s": 4 * np.pi,
                    "steps": 90,
                    "dwell_s": 0.01,
                },
            },
        }

    def test_channel_csvs_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, self.scan_config())
        out = tmp_path / "out"
        assert run_cli(["scan", "--config", cfg, "--out", out]) == 0
        for name in ("scan_central_00.csv", "scan_left_00.csv", "scan_right_00.csv"):
            scan = load_scan(out / name)  # ingestion path accepts emitted files
            assert len(scan) == 90
            assert scan.counts.sum() > 0
        fits = json.loads((out / "fringe_fits.json").read_text())
        assert "central_00" in fits
        assert 0.0 <= fits["central_00"]["visibility"] <= 1.0
        assert fits["satellite_rate_ratio"] == pytest.approx(1.0, abs=0.1)

    def test_fast_slow_drive_recovers_rate_ratio(self, tmp_path):
        config = self.scan_config(seed=8)
        config["scan_spec"]["phase_drive"] = {
            "rate_r_rad_per_s": 2 * np.pi,
            "rate_l_rad_per_s": 14 * np.pi,
            "steps": 360,
            "dwell_s": 0.01,
        }
        config["run"]["pair_rate_hz"] = 4.0e5
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run_cli(["scan", "--config", cfg, "--out", out]) == 0
        fits = json.loads((out / "fringe_fits.json").read_text())
        assert fits["central_00"]["n_hat"] == pytest.approx(7.0, abs=0.2)
        assert fits["satellite_rate_ratio"] == pytest.approx(7.0, abs=0.2)

    def test_flat_channels_at_zero_mixing(self, tmp_path):
        config = self.scan_config(seed=9)
        config["run"]["lambda"] = 0.0
        config["run"]["pair_rate_hz"] = 4.0e5
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert run_cli(["scan", "--config", cfg, "--out", out]) == 0
        fits = json.loads((out / "fringe_fits.json").read_text())
        for name in ("central_00", "left_00", "right_00"):
            assert fits[name]["visibility"] < 0.3  # Poisson-noise floor only
        assert fits["central_00"]["lambda_hat"] < 0.05

    def test_manifest_lists_outputs(self, tmp_path):
        cfg = write_config(tmp_path, self.scan_config())
        out = tmp_path / "out"
        run_cli(["scan", "--config", cfg, "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        assert "scan_central_00.csv" in manifest["outputs"]
        assert manifest["seed"] == 5
        assert manifest["tool_version"]
        assert len(manifest["config_sha256"]) == 64


class TestDeterminism:
    def assert_data_files_identical(self, dir_a, dir_b):
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            if name == "manifest.json":
                continue  # wall time differs
            assert filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False), name

    def test_histogram_replay_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": BASE_RUN})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["histogram", "--config", cfg, "--out", out1]) == 0
        assert run_cli(["histogram", "--config", cfg, "--out", out2]) == 0
        self.assert_data_files_identical(out1, out2)
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_sha256"] == m2["config_sha256"]
        assert m1["outputs"] == m2["outputs"]

    def test_seed_flag_changes_data(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": BASE_RUN})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["histogram", "--config", cfg, "--out", out1])
        run_cli(["histogram", "--config", cfg, "--out", out2, "--seed", 12345])
        h1 = (out1 / "histogram.csv").read_text()
        h2 = (out2 / "histogram.csv").read_text()
        assert h1 != h2
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 12345


class TestOverrides:
    def test_dotted_override(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "qkd", "run": BASE_RUN})
        out = tmp_path / "out"
        code = run_cli(
            [
                "qkd",
                "--config",
                cfg,
                "--out",
                out,
                "--override",
                "protocol_spec.rounds=2000",
                "--override",
                "run.lambda=1.0",
            ]
        )
        assert code == 0
        summary = json.loads((out / "qkd_summary.json").read_text())
        assert summary["rounds"] == 2000
        assert summary["qber"] == 0.0

    def test_bad_override_value_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "qkd", "run": BASE_RUN})
        code = run_cli(
            ["qkd", "--config", cfg, "--out", tmp_path / "out", "--override", "protocol_spec.rounds=-3"]
        )
        assert code == 2
        assert "error_code=config_error" in capsys.readouterr().err


class TestProtocolCommands:
    def test_qkd_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "qkd",
                "run": dict(BASE_RUN, **{"lambda": 0.9688}),
                "protocol_spec": {"rounds": 150000, "mode": "four_basis", "trace": True},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["qkd", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "qkd_summary.json").read_text())
        assert summary["qber"] == pytest.approx(0.0208, abs=0.01)
        assert summary["verdicts"]["qutrit_4basis_individual"] == "secure"
        trace = (out / "qkd_rounds.csv").read_text().splitlines()
        assert trace[0] == "round,alice_basis,bob_basis,alice_trit,bob_trit,sifted"

    def test_toss_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "toss",
                "run": dict(BASE_RUN, **{"lambda": 1.0}),
                "protocol_spec": {"rounds": 50000},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["toss", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "toss_summary.json").read_text())
        assert summary["agreement_rate"] == 1.0
        assert summary["left_fraction"] == pytest.approx(0.5, abs=0.01)


class TestBellCommand:
    def test_background_subtraction_raises_visibility(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "bell",
                "run": dict(
                    BASE_RUN,
                    **{
                        "lambda": 1.0,
                        "pair_rate_hz": 3.0e5,
                        "duration_s": 0.2,
                        "detectors": {
                            "alice": {"dark_rate_hz": 3.0e4},
                            "bob": {"dark_rate_hz": 3.0e4},
                        },
                    },
                ),
                "scan_spec": {
                    "phase_drive": {
                        "rate_r_rad_per_s": 4 * np.pi,
                        "rate_l_rad_per_s": 4 * np.pi,
                        "steps": 120,
                        "dwell_s": 0.01,
                    }
                },
            },
        )
        out = tmp_path / "out"
        assert run_cli(["bell", "--config", cfg, "--out", out]) == 0
        bell = json.loads((out / "bell.json").read_text())
        assert bell["background_mean"] > 0.0
        assert bell["v_net"] > bell["raw_visibility"]
        assert 0.0 <= bell["class_mean_visibility"] <= 1.0

    def test_bell_verdict_in_headline_regime(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "experiment": "bell",
                "run": dict(BASE_RUN, **{"lambda": 0.9688, "duration_s": 0.2, "pair_rate_hz": 4.0e5}),
                "scan_spec": {
                    "phase_drive": {
                        "rate_r_rad_per_s": 4 * np.pi,
                        "rate_l_rad_per_s": 2 * np.pi,  # forced to equal rates internally
                        "steps": 150,
                        "dwell_s": 0.01,
                    }
                },
            },
        )
        out = tmp_path / "out"
        assert run_cli(["bell", "--config", cfg, "--out", out]) == 0
        bell = json.loads((out / "bell.json").read_text())
        assert bell["v_bell"] == pytest.approx(0.7746, abs=1e-3)
        assert bell["v_net"] == pytest.approx(0.979, abs=0.03)
        assert bell["n_sigma"] > 0
        assert bell["i3"] > 2.0
