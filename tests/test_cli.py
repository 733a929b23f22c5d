import filecmp
import hashlib
import json
import os
import pathlib
import shutil

import jsonschema
import numpy as np
import pytest

from qutrit_bench import cli
from qutrit_bench.cli import CONFIG_SCHEMA, main
from qutrit_bench.errors import ConfigurationError, DegenerateStateError, NoFringeError
from qutrit_bench.protocols import EVE_KINDS, EveModel
from qutrit_bench.source import class_weights
from qutrit_bench.timetags import PEAK_MULTIPLIER, simulate_run
from test_references import whole_stream

HEADLINE = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs" / "bell_headline_regime.json"

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

    def test_histogram_of_an_empty_run_writes_strict_json(self, tmp_path):
        # No coincidences: no peak shares, so the residual is null, not NaN.
        run = {"duration_s": 0.01, "detectors": {"alice": {"efficiency": 0.0}}}
        cfg = write_config(tmp_path, {"run": run})
        out = tmp_path / "out"
        assert run_cli(["histogram", "--config", cfg, "--out", out]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        peaks = json.loads((out / "peaks.json").read_text(), parse_constant=refuse)
        assert peaks["total_coincidences"] == 0
        assert peaks["max_weight_residual"] is None

    def test_write_json_refuses_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json({"x": float("inf")}, str(tmp_path / "x.json"))

    def test_invalid_duration_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"experiment": "histogram", "run": dict(BASE_RUN, duration_s=0.0)}
        )
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "duration_s" in err
        assert not (tmp_path / "out").exists()  # a config that fails to load leaves no manifest

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

    def test_eve_pool_without_intercept_resend_exits_2(self, tmp_path, capsys):
        for eve in ({"kind": "none", "basis_pool": ["fourier0"]}, {"basis_pool": ["fourier0"]}):
            spec = {"rounds": 1000, "eve": eve}
            cfg = write_config(tmp_path, {"experiment": "qkd", "run": BASE_RUN, "protocol_spec": spec})
            assert run_cli(["qkd", "--config", cfg, "--out", tmp_path / "out"]) == 2
            err = capsys.readouterr().err
            assert "error_code=config_error" in err
            assert "$.protocol_spec.eve" in err

    def test_tag_times_beyond_packed_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": dict(BASE_RUN, duration_s=2e6)})
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "2**60 ps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run", [{"pair_rate_hz": 1e300}, {"detectors": {"bob": {"dark_rate_hz": 1e300}}}], ids=["pairs", "darks"]
    )
    def test_poisson_mean_numpy_cannot_draw_exits_2(self, tmp_path, capsys, run):
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": dict(BASE_RUN, **run)})
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "beyond numpy's largest Poisson mean" in err

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        # Every command rejects the seed while loading its config, before --out exists.
        cfg = write_config(tmp_path, {"experiment": "qkd", "run": BASE_RUN, "protocol_spec": {"rounds": 2000}})
        for experiment in cli.EXPERIMENTS:
            out = tmp_path / experiment
            assert run_cli([experiment, "--config", cfg, "--out", out, "--seed", 2**64]) == 2
            err = capsys.readouterr().err
            assert "error_code=config_error" in err
            assert f"config $.run.seed: {2**64} is greater than the maximum of {2**64 - 1}" in err
            assert not out.exists()
        assert run_cli(["qkd", "--config", cfg, "--out", tmp_path / "qkd", "--seed", 2**64 - 1]) == 0
        assert json.loads((tmp_path / "qkd" / "manifest.json").read_text())["seed"] == 2**64 - 1

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

    @pytest.mark.parametrize(
        "content", [None, b'{"experiment": "histogram\xff"}'], ids=["directory", "not_utf8"]
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "config"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run_cli(["histogram", "--config", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "cannot read config" in err

    @pytest.mark.parametrize(
        "experiment, text",
        [
            ("histogram", '{"run": {"detectors": {"alice": {"dark_rate_hz": NaN}}}}'),
            ("histogram", '{"run": {"interferometer": {"alice_ratios": [NaN, 0.5, 0.5]}}}'),
            ("scan", '{"scan_spec": {"phase_drive": {"rate_r_rad_per_s": NaN}}}'),
            ("scan", '{"scan_spec": {"phase_drive": {"dwell_s": Infinity}}}'),
            ("scan", '{"scan_spec": {"phase_drive": {"dwell_s": 1e999}}}'),
            ("histogram", '{"run": {"pair_rate_hz": 1%s}}' % ("0" * 400)),
        ],
        ids=["dark_rate_nan", "ratio_nan", "drive_rate_nan", "dwell_infinity", "dwell_overflow", "rate_int_overflow"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, experiment, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert run_cli([experiment, "--config", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "is not a finite number" in err

    def test_long_non_finite_literal_is_cut_in_the_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"run": {"pair_rate_hz": 1%s}}' % ("0" * 5000))
        assert run_cli(["histogram", "--config", path, "--out", tmp_path / "out"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert "error_code=config_error" in lines
        assert any("10000000000000000000... (5001 characters) is not a finite number" in line for line in lines)
        assert max(len(line) for line in lines) < len(str(path)) + 100

    def test_output_error_exits_3(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        write_histogram_csv = cli.write_histogram_csv

        def remove_out_then_write(histogram, path):
            shutil.rmtree(out)
            write_histogram_csv(histogram, path)

        monkeypatch.setattr(cli, "write_histogram_csv", remove_out_then_write)
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": BASE_RUN})
        assert run_cli(["histogram", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "error_code=runtime_error" in err
        assert "FileNotFoundError" in err
        assert "config_error" not in err
        assert not out.exists()

    WEAK_FRINGE_BELL = {
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
    }

    def test_no_fringe_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.WEAK_FRINGE_BELL)
        assert run_cli(["bell", "--config", cfg, "--out", tmp_path / "out"]) == 3
        assert "error_code=runtime_error" in capsys.readouterr().err

    def test_runtime_failure_leaves_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.WEAK_FRINGE_BELL)
        out = tmp_path / "out"
        assert run_cli(["bell", "--config", cfg, "--out", out, "--seed", 17]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error_code"] == "runtime_error"
        assert "no usable fringe" in manifest["message"]
        assert manifest["message"] in capsys.readouterr().err
        assert manifest["outputs"] == []
        assert manifest["seed"] == 17
        assert len(manifest["config_sha256"]) == 64

    def test_bell_rejects_a_drive_too_short_to_hold_its_rate(self, tmp_path, capsys):
        # 24 steps of 0.01 s at 2 Hz: 0.48 of a period, too little to hold the rate.
        out = tmp_path / "out"
        args = ["bell", "--config", HEADLINE, "--out", out, "--seed", 7]
        assert run_cli(args + ["--override", "scan_spec.phase_drive.steps=24"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error_code"] == "runtime_error"
        assert "central fringe fit rejected" in manifest["message"]
        assert "drive rates" in manifest["message"]
        assert manifest["message"] in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["manifest.json"]  # no scan files beside a failed run

    # Configuration errors that only the command sees, after --out exists.
    @pytest.mark.parametrize(
        "experiment, interferometer, reason",
        [
            ("histogram", {"unit_delay_ns": 0.0004}, "below half the unit delay"),
            ("toss", {"alice_ratios": [0, 0, 1]}, "leave a satellite peak empty"),
            ("qkd", {"alice_ratios": [0.5, 0.3, 0.1]}, "must sum to 1"),
        ],
    )
    def test_late_config_error_leaves_manifest(self, tmp_path, capsys, experiment, interferometer, reason):
        run = dict(BASE_RUN, interferometer=interferometer)
        cfg = write_config(tmp_path, {"experiment": experiment, "run": run})
        out = tmp_path / "out"
        assert run_cli([experiment, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error_code"] == "config_error"
        assert reason in manifest["message"]
        assert manifest["message"] in err
        assert manifest["outputs"] == []
        assert os.listdir(out) == ["manifest.json"]


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
            assert (out / name).read_text().splitlines()[0] == "setpoint,count"
            setpoints, counts = np.loadtxt(out / name, delimiter=",", skiprows=1, unpack=True)
            assert len(setpoints) == 90
            assert np.all(np.diff(setpoints) > 0)
            assert counts.sum() > 0
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

    @pytest.mark.parametrize("zero_rate", ["rate_r_rad_per_s", "rate_l_rad_per_s"])
    def test_zero_drive_rate_reports_errors_not_fits(self, tmp_path, zero_rate):
        config = self.scan_config()
        config["scan_spec"]["phase_drive"][zero_rate] = 0.0
        out = tmp_path / "out"
        assert run_cli(["scan", "--config", write_config(tmp_path, config), "--out", out]) == 0
        fits = json.loads((out / "fringe_fits.json").read_text())
        assert "satellite_rate_ratio" not in fits
        assert "not a finite nonzero rate" in fits["satellite_rate_ratio_error"]
        assert "finite nonzero drive rates" in fits["central_00"]["fit_error"]

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

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_central_fit_subtracts_the_background(self, tmp_path, seed):
        # 6e7 pairs/s at the headline's phase step: 4,000 pairs and about 3
        # off-peak counts a step.  Left in the constant, that background pulls
        # lambda_hat 2.8-4.9 sigma low on these seeds.
        overrides = [
            "run.pair_rate_hz=6e7",
            "scan_spec.phase_drive.dwell_s=6.667e-5",
            "scan_spec.phase_drive.steps=240",
            "scan_spec.phase_drive.rate_r_rad_per_s=1884.96",
            "scan_spec.phase_drive.rate_l_rad_per_s=1884.96",
            'scan_spec.channels=[{"peak": "central", "j": 0, "k": 0}]',
        ]
        out = tmp_path / "out"
        args = ["scan", "--config", HEADLINE, "--out", out, "--seed", seed]
        assert run_cli(args + [arg for item in overrides for arg in ("--override", item)]) == 0
        central = json.loads((out / "fringe_fits.json").read_text())["central_00"]
        assert central["background_mean"] > 2.0
        assert abs(central["lambda_hat"] - 0.9688) <= 3.0 * central["lambda_sigma"]

    def test_largest_seed_scans(self, tmp_path):
        config = self.scan_config(seed=2**64 - 1)
        config["scan_spec"]["phase_drive"]["steps"] = 8
        cfg = write_config(tmp_path, config)
        assert run_cli(["scan", "--config", cfg, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("config, steps", [(None, 2), (HEADLINE, 4)], ids=["defaults", "headline"])
    def test_too_few_points_report_errors_not_fits(self, tmp_path, config, steps):
        # 2 and 4 points against the central fit's 6 free parameters at n = 1
        # and a satellite fit's 4.
        cfg = config or write_config(tmp_path, {"experiment": "scan"})
        out = tmp_path / "out"
        args = ["scan", "--config", cfg, "--out", out, "--seed", 2]
        assert run_cli(args + ["--override", f"scan_spec.phase_drive.steps={steps}"]) == 0
        fits = json.loads((out / "fringe_fits.json").read_text())
        assert "lambda_hat" not in fits["central_00"]
        assert "6 free parameters" in fits["central_00"]["fit_error"]
        assert "satellite_rate_ratio" not in fits
        assert "4 free parameters" in fits["satellite_rate_ratio_error"]

    def test_neighbouring_seeds_share_no_step_stream(self, tmp_path, monkeypatch):
        # With ideal detectors Alice's tag times are the step's emission times.
        streams = []

        def recording_simulate_run(run_cfg, outcome_table=None):
            run = simulate_run(run_cfg, outcome_table)
            stream = whole_stream(run)
            streams.append(stream.time_ps[stream.party == 0].tobytes())
            return run

        monkeypatch.setattr(cli, "simulate_run", recording_simulate_run)
        seen = []
        for seed in (5, 6):
            streams.clear()
            config = cli.load_config(write_config(tmp_path, self.scan_config(seed)))
            cli._run_scan(cli.build_run_config(config, duration_s=0.01), np.zeros((90, 4)))
            assert len(set(streams)) == 90
            seen.append(set(streams))
        assert not seen[0] & seen[1]

    def test_a_twice_listed_channel_writes_what_one_listing_does(self, tmp_path):
        config = self.scan_config(seed=3)
        config["run"]["pair_rate_hz"] = 4.0e5
        config["scan_spec"]["phase_drive"].update(steps=20, dwell_s=0.005)
        for times in (1, 2):
            config["scan_spec"]["channels"] = [{"peak": "left", "j": 0, "k": 0}] * times
            cfg = write_config(tmp_path, config, name=f"{times}.json")
            assert run_cli(["scan", "--config", cfg, "--out", tmp_path / str(times)]) == 0
        for name in ("scan_left_00.csv", "fringe_fits.json"):
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    def test_manifest_lists_outputs(self, tmp_path):
        cfg = write_config(tmp_path, self.scan_config())
        out = tmp_path / "out"
        run_cli(["scan", "--config", cfg, "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        assert "scan_central_00.csv" in manifest["outputs"]
        assert manifest["seed"] == 5
        assert manifest["tool_version"]
        assert len(manifest["config_sha256"]) == 64
        assert "error_code" not in manifest

    @pytest.mark.parametrize(
        "error, code", [(NoFringeError, 0), (DegenerateStateError, 0), (TypeError, 3), (ValueError, 3)]
    )
    def test_only_fringe_errors_of_phase_ratio_are_reported(self, tmp_path, capsys, monkeypatch, error, code):
        def failing_phase_ratio(left, right, rates):
            raise error("planted failure")

        monkeypatch.setattr(cli, "phase_ratio", failing_phase_ratio)
        config = self.scan_config()
        config["scan_spec"]["phase_drive"]["steps"] = 20
        out = tmp_path / "out"
        assert run_cli(["scan", "--config", write_config(tmp_path, config), "--out", out]) == code
        if code == 0:
            fits = json.loads((out / "fringe_fits.json").read_text())
            assert fits["satellite_rate_ratio_error"] == "planted failure"
        else:
            assert f"{error.__name__}: planted failure" in capsys.readouterr().err
            assert json.loads((out / "manifest.json").read_text())["error_code"] == "runtime_error"


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

    def test_non_finite_override_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "qkd", "run": BASE_RUN})
        code = run_cli(["qkd", "--config", cfg, "--out", tmp_path / "out", "--override", "run.lambda=NaN"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "is not a finite number" in err

    def test_seed_flag_on_non_object_run_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"experiment": "toss"})
        code = run_cli(["toss", "--config", cfg, "--out", tmp_path / "out", "--override", "run=5", "--seed", 3])
        assert code == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "5 is not of type 'object'" in err

    def test_unparsable_override_is_a_string(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "qkd", "run": BASE_RUN})
        config = cli.load_config(cfg, overrides=["protocol_spec.mode=two_basis"])
        assert config["protocol_spec"]["mode"] == "two_basis"


class TestConfigDefaults:
    def test_default_config_is_pinned(self):
        # Canonical hash of the defaults derived from CONFIG_SCHEMA: a default
        # that moves or vanishes changes it.
        canonical = json.dumps(cli.DEFAULT_CONFIG, sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == "8ac9273cded18a75d8880677d692f91496c2c1337ecde0f76ae50fb5d21b9309"

    def test_eve_kinds_come_from_the_protocol_table(self, tmp_path, capsys):
        eve = CONFIG_SCHEMA["properties"]["protocol_spec"]["properties"]["eve"]
        assert eve["properties"]["kind"]["enum"] == list(EVE_KINDS)
        cfg = write_config(tmp_path, {"experiment": "qkd", "protocol_spec": {"eve": {"kind": "mitm"}}})
        assert run_cli(["qkd", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "'mitm' is not one of ['none', 'intercept_resend']" in capsys.readouterr().err
        with pytest.raises(ConfigurationError, match="unknown eavesdropper kind 'mitm'"):
            EveModel("mitm")

    def test_default_is_an_annotation_and_other_keywords_are_refused(self):
        assert list(cli._schema_errors(5, {"default": 3})) == []
        with pytest.raises(NotImplementedError, match="multipleOf"):
            list(cli._schema_errors(5, {"multipleOf": 2}))

    def test_whole_object_override_keeps_omitted_defaults(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "qkd"})
        config = cli.load_config(cfg, overrides=['protocol_spec={"rounds": 2000}'])
        assert config["protocol_spec"] == dict(cli.DEFAULT_CONFIG["protocol_spec"], rounds=2000)
        out = tmp_path / "out"
        assert run_cli(["qkd", "--config", cfg, "--out", out, "--override", 'protocol_spec={"rounds": 2000}']) == 0

    def test_histogram_ideal_weights_follow_the_couplers(self, tmp_path):
        # Outer right to outer left 1/6, 4/15, 1/3, 1/6, 1/15 here, not 1:2:3:2:1 over 9.
        run = {"interferometer": {"alice_ratios": [0.5, 0.3, 0.2]}}
        cfg = write_config(tmp_path, {"experiment": "histogram", "run": run})
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "out", "--seed", 7]) == 0
        peaks = json.loads((tmp_path / "out" / "peaks.json").read_text())
        weights = class_weights(cli.build_interferometer(cli.load_config(cfg)))
        assert peaks["ideal_weights"] == {p: float(weights[m + 2]) for p, m in PEAK_MULTIPLIER.items()}
        assert peaks["max_weight_residual"] < 0.01


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

    def qkd_eve_config(self, tmp_path, eve, name):
        config = {
            "experiment": "qkd",
            "run": BASE_RUN,
            "protocol_spec": {"rounds": 30000, "mode": "four_basis", "eve": eve},
        }
        return write_config(tmp_path, config, name)

    def test_intercept_resend_without_pool_uses_all_four_bases(self, tmp_path):
        implicit = self.qkd_eve_config(tmp_path, {"kind": "intercept_resend"}, "implicit.json")
        explicit = self.qkd_eve_config(
            tmp_path,
            {"kind": "intercept_resend", "basis_pool": ["computational", "fourier0", "fourier1", "fourier2"]},
            "explicit.json",
        )
        assert run_cli(["qkd", "--config", implicit, "--out", tmp_path / "implicit"]) == 0
        assert run_cli(["qkd", "--config", explicit, "--out", tmp_path / "explicit"]) == 0
        summary = (tmp_path / "implicit" / "qkd_summary.json").read_bytes()
        assert summary == (tmp_path / "explicit" / "qkd_summary.json").read_bytes()
        assert json.loads(summary)["qber"] > 0.2  # the attacker is active at lambda = 1

    def test_intercept_resend_with_empty_pool_exits_2(self, tmp_path, capsys):
        cfg = self.qkd_eve_config(tmp_path, {"kind": "intercept_resend", "basis_pool": []}, "empty.json")
        assert run_cli(["qkd", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "error_code=config_error" in err
        assert "non-empty basis pool" in err

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

    def test_protocols_follow_the_interferometer(self, tmp_path):
        # Couplers (1/2, 1/4, 1/4) on both sides keep a central class weight
        # of 3/8; Alice's dials (1, 2) rad turn both satellite herald states
        # by 1 rad, so Bob agrees with probability (1 + cos 1)/2 at lambda 1.
        interferometers = {
            "qkd": {"alice_ratios": [0.5, 0.25, 0.25], "bob_ratios": [0.5, 0.25, 0.25]},
            "toss": {"alice_phases_rad": [1.0, 2.0]},
        }
        for experiment, itf in interferometers.items():
            config = {
                "experiment": experiment,
                "run": dict(BASE_RUN, interferometer=itf),
                "protocol_spec": {"rounds": 100000},
            }
            cfg = write_config(tmp_path, config, f"{experiment}.json")
            assert run_cli([experiment, "--config", cfg, "--out", tmp_path / experiment]) == 0
        qkd = json.loads((tmp_path / "qkd" / "qkd_summary.json").read_text())
        assert qkd["postselect_ratio"] == pytest.approx(0.375, abs=0.005)
        assert qkd["postselect_ratio_ok"]
        toss = json.loads((tmp_path / "toss" / "toss_summary.json").read_text())
        assert toss["agreement_rate"] == pytest.approx((1.0 + np.cos(1.0)) / 2.0, abs=0.005)


    @pytest.mark.parametrize("override", ["run.duration_s=2e6", "run.coincidence_window_ps=900000"])
    @pytest.mark.parametrize("experiment", ["qkd", "toss"])
    def test_protocols_ignore_stream_settings(self, tmp_path, experiment, override):
        # qkd and toss make no time tags, so stream settings the histogram
        # rejects (tag times past +-2**60 ps, a window wider than half the
        # unit delay) leave their data files as they are.
        spec = {"rounds": 20000, "trace": True} if experiment == "qkd" else {"rounds": 20000}
        cfg = write_config(tmp_path, {"experiment": experiment, "run": BASE_RUN, "protocol_spec": spec})
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path / "plain"]) == 0
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path / "override", "--override", override]) == 0
        data = sorted(path.name for path in (tmp_path / "plain").iterdir() if path.name != "manifest.json")
        assert data == (["qkd_rounds.csv", "qkd_summary.json"] if experiment == "qkd" else ["toss_summary.json"])
        for name in data:
            assert (tmp_path / "override" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        histogram = write_config(tmp_path, {"experiment": "histogram", "run": BASE_RUN}, "histogram.json")
        assert run_cli(["histogram", "--config", histogram, "--out", tmp_path / "h", "--override", override]) == 2

    @pytest.mark.parametrize("experiment", ["scan", "bell"])
    def test_scans_ignore_the_run_duration(self, tmp_path, experiment):
        # A scan step lasts dwell_s: a run.duration_s the histogram rejects
        # (tag times past +-2**60 ps) leaves the scan's data files as they are.
        drive = {"rate_r_rad_per_s": 4 * np.pi, "rate_l_rad_per_s": 4 * np.pi, "steps": 50, "dwell_s": 0.01}
        cfg = write_config(tmp_path, {"run": BASE_RUN, "scan_spec": {"phase_drive": drive}})
        override = "run.duration_s=2e6"
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path / "plain"]) == 0
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path / "override", "--override", override]) == 0
        data = sorted(path.name for path in (tmp_path / "plain").iterdir() if path.name != "manifest.json")
        assert ("bell.json" if experiment == "bell" else "fringe_fits.json") in data
        for name in data:
            assert (tmp_path / "override" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        assert run_cli(["histogram", "--config", cfg, "--out", tmp_path / "h", "--override", override]) == 2


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

    def test_bell_and_scan_share_one_estimator(self, tmp_path):
        darks = {"dark_rate_hz": 1.0e6}
        run = dict(BASE_RUN, **{"lambda": 0.9688, "detectors": {"alice": darks, "bob": darks}})
        drive = {"rate_r_rad_per_s": 4 * np.pi, "rate_l_rad_per_s": 4 * np.pi, "steps": 80, "dwell_s": 0.01}
        config = {"run": run, "scan_spec": {"channels": [{"peak": "central", "j": 0, "k": 0}], "phase_drive": drive}}
        cfg = write_config(tmp_path, config)
        for experiment in ("scan", "bell"):
            assert run_cli([experiment, "--config", cfg, "--out", tmp_path / experiment]) == 0
        central = json.loads((tmp_path / "scan" / "fringe_fits.json").read_text())["central_00"]
        bell = json.loads((tmp_path / "bell" / "bell.json").read_text())
        assert bell["background_mean"] == central["background_mean"] > 0.0
        assert bell["lambda_hat"] == central["lambda_hat"]
        lam = bell["lambda_hat"]
        assert bell["sigma_v"] == pytest.approx(6.0 / (2.0 + lam) ** 2 * central["lambda_sigma"], rel=0, abs=1e-12)
