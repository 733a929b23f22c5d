"""Command-line runner: reproducible experiments from a JSON config.

    qutrit-bench <histogram|scan|bell|qkd|toss> --config cfg.json --out DIR
                 [--seed N] [--override key=value ...]

Every run emits its data files (CSV/JSON, plot-ready, no rendering) plus a
`manifest.json` recording the config hash, seed and output list; re-running
the same config reproduces the data files byte-identically.

Exit codes: 0 success, 2 invalid configuration, 3 runtime/fit failure.
Errors print a machine-parsable `error_code=` line on stderr.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
import time

import jsonschema
import numpy as np

from . import __version__
from .analysis import (
    FringeScan,
    bell_threshold_visibility,
    fit_central_fringe,
    lambda_from_visibility,
    optimize_cglmp,
    phase_ratio,
    save_scan,
    sigma_violation,
    visibility,
    visibility_error,
)
from .errors import ConfigurationError, FitError
from .protocols import EveModel, run_coin_toss, run_qkd
from .source import ArmPhases, CouplerRatios, InterferometerConfig
from .timetags import (
    DetectorModel,
    RunConfig,
    build_histogram,
    find_coincidences,
    off_peak_background,
    peak_areas,
    post_select,
    simulate_run,
    write_histogram_csv,
)

EXPERIMENTS = ("histogram", "scan", "bell", "qkd", "toss")

_DETECTOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "efficiency": {"type": "number", "minimum": 0, "maximum": 1},
        "dark_rate_hz": {"type": "number", "minimum": 0},
        "jitter_sigma_ps": {"type": "number", "minimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pair_rate_hz": {"type": "number", "exclusiveMinimum": 0},
                "duration_s": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "coincidence_window_ps": {"type": "number", "exclusiveMinimum": 0},
                "lambda": {"type": "number", "minimum": 0, "maximum": 1},
                "interferometer": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "unit_delay_ns": {"type": "number", "exclusiveMinimum": 0},
                        "alice_phases_rad": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                        "bob_phases_rad": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                        "alice_ratios": {
                            "type": "array",
                            "items": {"type": "number", "minimum": 0},
                            "minItems": 3,
                            "maxItems": 3,
                        },
                        "bob_ratios": {
                            "type": "array",
                            "items": {"type": "number", "minimum": 0},
                            "minItems": 3,
                            "maxItems": 3,
                        },
                    },
                },
                "detectors": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"alice": _DETECTOR_SCHEMA, "bob": _DETECTOR_SCHEMA},
                },
            },
        },
        "scan_spec": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "channels": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["peak", "j", "k"],
                        "properties": {
                            "peak": {"enum": ["central", "left", "right"]},
                            "j": {"type": "integer", "minimum": 0, "maximum": 2},
                            "k": {"type": "integer", "minimum": 0, "maximum": 2},
                        },
                    },
                },
                "phase_drive": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "rate_r_rad_per_s": {"type": "number"},
                        "rate_l_rad_per_s": {"type": "number"},
                        "steps": {"type": "integer", "minimum": 2},
                        "dwell_s": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "protocol_spec": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rounds": {"type": "integer", "minimum": 1},
                "mode": {"enum": ["two_basis", "four_basis", "phase_only_three"]},
                "eve": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["none", "intercept_resend"]},
                        "basis_pool": {
                            "type": "array",
                            "items": {
                                "enum": ["computational", "fourier0", "fourier1", "fourier2"]
                            },
                        },
                    },
                },
                "trace": {"type": "boolean"},
            },
        },
    },
}

# Defaults reproduce the source's operating regime: 1.2 ns unit delay,
# symmetric couplers, mixing weight 0.9688, 300 ps coincidence window.
DEFAULT_CONFIG = {
    "run": {
        "pair_rate_hz": 2.0e5,
        "duration_s": 1.0,
        "seed": 20040901,
        "coincidence_window_ps": 300.0,
        "lambda": 0.9688,
        "interferometer": {
            "unit_delay_ns": 1.2,
            "alice_phases_rad": [0.0, 0.0],
            "bob_phases_rad": [0.0, 0.0],
            "alice_ratios": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            "bob_ratios": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        },
        "detectors": {
            "alice": {"efficiency": 1.0, "dark_rate_hz": 0.0, "jitter_sigma_ps": 0.0},
            "bob": {"efficiency": 1.0, "dark_rate_hz": 0.0, "jitter_sigma_ps": 0.0},
        },
    },
    "scan_spec": {
        "channels": [
            {"peak": "central", "j": 0, "k": 0},
            {"peak": "left", "j": 0, "k": 0},
            {"peak": "right", "j": 0, "k": 0},
        ],
        "phase_drive": {
            "rate_r_rad_per_s": 2.0 * np.pi,
            "rate_l_rad_per_s": 2.0 * np.pi,
            "steps": 180,
            "dwell_s": 0.02,
        },
    },
    "protocol_spec": {"rounds": 100000, "mode": "four_basis", "eve": {"kind": "none"}, "trace": False},
}

# Built once: jsonschema.validate would check CONFIG_SCHEMA against its
# metaschema on every call.  tests/test_cli.py runs that check.
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

_REQUIRED_SECTIONS = {
    "histogram": ("run",),
    "scan": ("run", "scan_spec"),
    "bell": ("run", "scan_spec"),
    "qkd": ("run", "protocol_spec"),
    "toss": ("run", "protocol_spec"),
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: str, overrides=(), seed=None, experiment=None) -> dict:
    """Read, merge with defaults, apply overrides, and schema-validate.

    `experiment`, when given (the CLI subcommand), takes precedence over
    the config file's own `experiment` field.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top-level config must be a JSON object")
    config = _deep_merge(DEFAULT_CONFIG, raw)
    for item in overrides:
        config = _apply_override(config, item)
    if seed is not None:
        config.setdefault("run", {})["seed"] = int(seed)
    if experiment is not None:
        config["experiment"] = experiment
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        where = "$." + ".".join(str(p) for p in error.absolute_path) if error.absolute_path else "$"
        raise ConfigurationError(f"config {where}: {error.message}") from error
    for section in _REQUIRED_SECTIONS[config["experiment"]]:
        if section not in config:
            raise ConfigurationError(f"experiment {config['experiment']!r} requires section {section!r}")
    return config


def _apply_override(config: dict, item: str) -> dict:
    if "=" not in item:
        raise ConfigurationError(f"override must look like key=value, got {item!r}")
    key, _, raw_value = item.partition("=")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(f"override path {key!r} crosses a non-object value")
    node[parts[-1]] = value
    return config


def build_run_config(config: dict) -> RunConfig:
    run = config["run"]
    itf = run["interferometer"]
    try:
        return RunConfig(
            pair_rate_hz=float(run["pair_rate_hz"]),
            duration_s=float(run["duration_s"]),
            seed=int(run["seed"]),
            coincidence_window_ps=float(run["coincidence_window_ps"]),
            lam=float(run["lambda"]),
            interferometer=InterferometerConfig(
                alice=ArmPhases(*itf["alice_phases_rad"]),
                bob=ArmPhases(*itf["bob_phases_rad"]),
                alice_ratios=CouplerRatios(*itf["alice_ratios"]),
                bob_ratios=CouplerRatios(*itf["bob_ratios"]),
                unit_delay_ns=float(itf["unit_delay_ns"]),
            ),
            alice_detectors=DetectorModel(**run["detectors"]["alice"]),
            bob_detectors=DetectorModel(**run["detectors"]["bob"]),
        )
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


class _JsonEncoder(json.JSONEncoder):
    def default(self, obj):
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def _write_json(payload: dict, path: str):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, cls=_JsonEncoder)
        fh.write("\n")


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(out_dir: str, config: dict, outputs, wall_time_s: float):
    manifest = {
        "config_sha256": _config_hash(config),
        "seed": config["run"]["seed"],
        "tool_version": __version__,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "wall_time_s": round(wall_time_s, 3),
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))


# --------------------------------------------------------------------------
# Experiment commands
# --------------------------------------------------------------------------


def cmd_histogram(config: dict, out_dir: str) -> list:
    """Five-peak arrival-time-difference histogram plus peak-area summary."""
    run_cfg = build_run_config(config)
    stream = simulate_run(run_cfg)
    unit_ps = run_cfg.unit_delay_ps
    coincidences = find_coincidences(stream, max_delta_ps=3 * unit_ps)
    histogram = build_histogram(coincidences, bin_width_ps=unit_ps / 12.0)
    half_width = run_cfg.coincidence_window_ps / 2.0
    areas = peak_areas(coincidences, half_width, unit_ps)

    total = sum(areas.values())
    ideal = {"outer_right": 1 / 9, "right": 2 / 9, "central": 3 / 9, "left": 2 / 9, "outer_left": 1 / 9}
    residual = (
        max(abs(areas[p] / total - ideal[p]) for p in areas) if total else float("nan")
    )
    hist_path = os.path.join(out_dir, "histogram.csv")
    write_histogram_csv(histogram, hist_path)
    peaks_path = os.path.join(out_dir, "peaks.json")
    _write_json(
        {
            "areas": areas,
            "total_coincidences": int(len(coincidences)),
            "ideal_weights": ideal,
            "max_weight_residual": residual,
            "peak_centers_ns": {
                p: m * run_cfg.interferometer.unit_delay_ns
                for p, m in (("outer_right", -2), ("right", -1), ("central", 0), ("left", 1), ("outer_left", 2))
            },
        },
        peaks_path,
    )
    return [hist_path, peaks_path]


def _run_scan(config: dict, out_dir: str, write_files: bool = True):
    """Drive the phases step by step and collect per-channel counts.

    The drive replaces Alice's dial trajectory (alpha_m = rate_r * t,
    alpha_l = (rate_r + rate_l) * t, so the two effective phases advance at
    rate_r and rate_l); Bob's dials stay at their configured values.
    """
    run_cfg = build_run_config(config)
    spec = config["scan_spec"]
    drive = spec["phase_drive"]
    channels = [(c["peak"], c["j"], c["k"]) for c in spec["channels"]]
    steps = int(drive["steps"])
    dwell = float(drive["dwell_s"])
    rate_r = float(drive["rate_r_rad_per_s"])
    rate_l = float(drive["rate_l_rad_per_s"])

    unit_ps = run_cfg.unit_delay_ps
    half_width = run_cfg.coincidence_window_ps / 2.0
    setpoints = np.arange(steps) * dwell
    counts = {ch: np.zeros(steps) for ch in channels}
    background = {ch: np.zeros(steps) for ch in channels}
    base = config["run"]["interferometer"]
    for i, u in enumerate(setpoints):
        phi_r = rate_r * u
        phi_l = rate_l * u
        step_itf = InterferometerConfig(
            alice=ArmPhases(phi_m=phi_r, phi_l=phi_r + phi_l),
            bob=ArmPhases(*base["bob_phases_rad"]),
            alice_ratios=CouplerRatios(*base["alice_ratios"]),
            bob_ratios=CouplerRatios(*base["bob_ratios"]),
            unit_delay_ns=float(base["unit_delay_ns"]),
        )
        step_cfg = RunConfig(
            pair_rate_hz=run_cfg.pair_rate_hz,
            duration_s=dwell,
            seed=run_cfg.seed + i,
            coincidence_window_ps=run_cfg.coincidence_window_ps,
            interferometer=step_itf,
            lam=run_cfg.lam,
            alice_detectors=run_cfg.alice_detectors,
            bob_detectors=run_cfg.bob_detectors,
        )
        stream = simulate_run(step_cfg)
        coincidences = find_coincidences(stream, max_delta_ps=3 * unit_ps)
        flat = off_peak_background(coincidences, half_width, unit_ps)
        for peak, j, k in channels:
            # simulate_run always puts the left subspace at dt = +1 unit delay.
            table = post_select(coincidences, peak, half_width, unit_ps)
            counts[(peak, j, k)][i] = table[j, k]
            background[(peak, j, k)][i] = flat[j, k]

    scans = {ch: FringeScan(setpoints, counts[ch]) for ch in channels}
    backgrounds = {ch: background[ch] for ch in channels}
    outputs = []
    if write_files:
        for (peak, j, k), scan in scans.items():
            path = os.path.join(out_dir, f"scan_{peak}_{j}{k}.csv")
            save_scan(scan, path)
            outputs.append(path)
    return scans, backgrounds, outputs


def cmd_scan(config: dict, out_dir: str) -> list:
    """Per-channel fringe scans plus fitted fringe parameters."""
    scans, backgrounds, outputs = _run_scan(config, out_dir)
    fits = {}
    for (peak, j, k), scan in scans.items():
        name = f"{peak}_{j}{k}"
        fit = visibility(scan)
        entry = {
            "i_max": fit.i_max,
            "i_min": fit.i_min,
            "visibility": fit.visibility,
            "background_mean": float(np.mean(backgrounds[(peak, j, k)])),
        }
        if peak == "central":
            try:
                full = fit_central_fringe(scan)
                entry.update(
                    {
                        "lambda_hat": full.lambda_hat,
                        "n_hat": full.n_hat,
                        "residual": full.residual,
                    }
                )
            except FitError as exc:
                entry["fit_error"] = str(exc)
        fits[name] = entry
    left = next((s for ch, s in scans.items() if ch[0] == "left"), None)
    right = next((s for ch, s in scans.items() if ch[0] == "right"), None)
    if left is not None and right is not None:
        try:
            fits["satellite_rate_ratio"] = phase_ratio(left, right)
        except Exception as exc:  # no-fringe scans are reported, not fatal
            fits["satellite_rate_ratio_error"] = str(exc)
    fits_path = os.path.join(out_dir, "fringe_fits.json")
    _write_json(fits, fits_path)
    return outputs + [fits_path]


def cmd_bell(config: dict, out_dir: str) -> list:
    """Equal-rate scan, visibility extraction and Bell-threshold verdict.

    Reports the raw visibility of the (0,0) channel, its background-corrected
    (net) value, and the mean over the three correlated coincidence-class
    channels; the verdict uses the net per-channel value.
    """
    config = copy.deepcopy(config)
    drive = config["scan_spec"]["phase_drive"]
    drive["rate_l_rad_per_s"] = drive["rate_r_rad_per_s"]  # threshold needs n = 1
    class_channels = [{"peak": "central", "j": j, "k": k} for j, k in ((0, 0), (1, 2), (2, 1))]
    config["scan_spec"]["channels"] = class_channels
    scans, backgrounds, outputs = _run_scan(config, out_dir)

    def net_fit(channel):
        scan = scans[channel]
        corrected = np.clip(scan.counts - backgrounds[channel].mean(), 0.0, None)
        return visibility(FringeScan(scan.setpoints, corrected))

    raw_fit = visibility(scans[("central", 0, 0)])
    fit = net_fit(("central", 0, 0))
    sigma_v = visibility_error(fit, len(scans[("central", 0, 0)]))
    _, v_bell = bell_threshold_visibility()
    if fit.visibility < v_bell / 2.0:
        raise FitError(
            f"no usable fringe: visibility {fit.visibility:.3f} is below half the "
            f"Bell threshold {v_bell:.4f}; check phases and mixing weight"
        )
    result = sigma_violation(fit.visibility, sigma_v)
    class_visibilities = [net_fit(("central", j, k)).visibility for j, k in ((0, 0), (1, 2), (2, 1))]
    payload = {
        "v_net": result.v_net,
        "sigma_v": result.sigma_v,
        "v_bell": result.v_bell,
        "n_sigma": result.n_sigma,
        "i3": result.i3,
        "lambda_crit": result.lambda_crit,
        "lambda_hat": lambda_from_visibility(result.v_net),
        "i3_max": optimize_cglmp().value,
        "raw_visibility": raw_fit.visibility,
        "background_mean": float(backgrounds[("central", 0, 0)].mean()),
        "class_mean_visibility": float(np.mean(class_visibilities)),
    }
    bell_path = os.path.join(out_dir, "bell.json")
    _write_json(payload, bell_path)
    return outputs + [bell_path]


def cmd_qkd(config: dict, out_dir: str) -> list:
    spec = config["protocol_spec"]
    eve_spec = spec.get("eve", {"kind": "none"})
    eve = (
        EveModel.intercept_resend(tuple(eve_spec.get("basis_pool", [])))
        if eve_spec.get("kind") == "intercept_resend"
        else EveModel.none()
    )
    trace_path = os.path.join(out_dir, "qkd_rounds.csv") if spec.get("trace") else None
    summary = run_qkd(
        rounds=int(spec["rounds"]),
        mode=spec.get("mode", "four_basis"),
        lam=float(config["run"]["lambda"]),
        eve=eve,
        seed=int(config["run"]["seed"]),
        trace_path=trace_path,
    )
    summary_path = os.path.join(out_dir, "qkd_summary.json")
    _write_json(summary.__dict__, summary_path)
    outputs = [summary_path]
    if trace_path:
        outputs.append(trace_path)
    return outputs


def cmd_toss(config: dict, out_dir: str) -> list:
    spec = config["protocol_spec"]
    summary = run_coin_toss(
        rounds=int(spec["rounds"]),
        lam=float(config["run"]["lambda"]),
        seed=int(config["run"]["seed"]),
    )
    summary_path = os.path.join(out_dir, "toss_summary.json")
    _write_json(summary.__dict__, summary_path)
    return [summary_path]


_COMMANDS = {
    "histogram": cmd_histogram,
    "scan": cmd_scan,
    "bell": cmd_bell,
    "qkd": cmd_qkd,
    "toss": cmd_toss,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qutrit-bench",
        description="Reproducible entangled-qutrit experiments (simulation + analysis).",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path config override, value parsed as JSON (repeatable)",
    )
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        config = load_config(
            args.config, overrides=args.override, seed=args.seed, experiment=args.experiment
        )
        os.makedirs(args.out, exist_ok=True)
        outputs = _COMMANDS[args.experiment](config, args.out)
        _write_manifest(args.out, config, outputs, time.monotonic() - started)
    except (ConfigurationError, FileNotFoundError) as exc:
        print("error_code=config_error", file=sys.stderr)
        print(f"qutrit-bench: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/fit failures map to exit 3
        print("error_code=runtime_error", file=sys.stderr)
        print(f"qutrit-bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
