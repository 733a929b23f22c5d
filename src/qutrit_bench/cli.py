"""Command-line runner: reproducible experiments from a JSON config.

    qutrit-bench <histogram|scan|bell|qkd|toss> --config cfg.json --out DIR
                 [--seed N] [--override key=value ...]

`CONFIG_SCHEMA` is the one description of the config: its keys, their
bounds and enums, and as each key's `default` the value an omitted field
takes; `DEFAULT_CONFIG` is derived from it.  The enums of QKD mode, basis
and scan peak are the tables the protocols and the source dispatch on.

Every run emits its data files (CSV/JSON, plot-ready, no rendering) plus a
`manifest.json` recording the config hash, seed and output list; re-running
the same config reproduces the data files byte-identically.

Exit codes: 0 success, 2 invalid or unreadable configuration, 3 runtime,
fit or output failure.
Errors print a machine-parsable `error_code=` line on stderr. A failure
after the config has loaded and `--out` exists also leaves a `manifest.json`
with `error_code`, `message` and an empty output list.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import operator
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    FringeScan,
    bell_threshold_visibility,
    fit_central_fringe,
    optimize_cglmp,
    phase_ratio,
    save_scan,
    sigma_violation,
    visibility,
    visibility_from_lambda,
)
from .errors import ConfigurationError, DegenerateStateError, FitError, NoFringeError
from .protocols import BASIS_IDS, EVE_KINDS, QKD_MODES, EveModel, run_coin_toss, run_qkd
from .source import (
    PEAK_CLASS,
    ArmPhases,
    CouplerRatios,
    InterferometerConfig,
    class_weights,
    step_distributions,
)
from .timetags import (
    BINS_PER_UNIT,
    PEAK_MULTIPLIER,
    DetectorModel,
    Histogram,
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
        "efficiency": {"type": "number", "minimum": 0, "maximum": 1, "default": 1.0},
        "dark_rate_hz": {"type": "number", "minimum": 0, "default": 0.0},
        "jitter_sigma_ps": {"type": "number", "minimum": 0, "default": 0.0},
    },
}

_DIALS_SCHEMA = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2, "default": [0.0, 0.0]}

_RATIOS_SCHEMA = {
    "type": "array",
    "items": {"type": "number", "minimum": 0},
    "minItems": 3,
    "maxItems": 3,
    "default": [1.0 / 3.0] * 3,
}

# The defaults reproduce the source's operating regime: 1.2 ns unit delay,
# symmetric couplers, mixing weight 0.9688, 300 ps coincidence window.
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
                "pair_rate_hz": {"type": "number", "exclusiveMinimum": 0, "default": 2.0e5},
                "duration_s": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
                "seed": {"type": "integer", "minimum": 0, "maximum": 18446744073709551615, "default": 20040901},
                "coincidence_window_ps": {"type": "number", "exclusiveMinimum": 0, "default": 300.0},
                "lambda": {"type": "number", "minimum": 0, "maximum": 1, "default": 0.9688},
                "interferometer": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "unit_delay_ns": {"type": "number", "exclusiveMinimum": 0, "default": 1.2},
                        "alice_phases_rad": _DIALS_SCHEMA,
                        "bob_phases_rad": _DIALS_SCHEMA,
                        "alice_ratios": _RATIOS_SCHEMA,
                        "bob_ratios": _RATIOS_SCHEMA,
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
                            "peak": {"enum": sorted(PEAK_CLASS)},
                            "j": {"type": "integer", "minimum": 0, "maximum": 2},
                            "k": {"type": "integer", "minimum": 0, "maximum": 2},
                        },
                    },
                    "default": [{"peak": peak, "j": 0, "k": 0} for peak in ("central", "left", "right")],
                },
                "phase_drive": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "rate_r_rad_per_s": {"type": "number", "default": 2.0 * math.pi},
                        "rate_l_rad_per_s": {"type": "number", "default": 2.0 * math.pi},
                        "steps": {"type": "integer", "minimum": 2, "default": 180},
                        "dwell_s": {"type": "number", "exclusiveMinimum": 0, "default": 0.02},
                    },
                },
            },
        },
        "protocol_spec": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rounds": {"type": "integer", "minimum": 1, "default": 100000},
                "mode": {"enum": list(QKD_MODES), "default": "four_basis"},
                "eve": {
                    "type": "object",
                    "additionalProperties": False,
                    # basis_pool has no default: it applies only to intercept_resend.
                    "properties": {
                        "kind": {"enum": list(EVE_KINDS), "default": "none"},
                        "basis_pool": {"type": "array", "items": {"enum": list(BASIS_IDS)}},
                    },
                },
                "trace": {"type": "boolean", "default": False},
            },
        },
    },
}


def _defaults(schema: dict) -> dict:
    """Each property's `default`, with objects filled in recursively."""
    defaults = {}
    for key, subschema in schema["properties"].items():
        if "default" in subschema:
            defaults[key] = copy.deepcopy(subschema["default"])
        elif subschema.get("type") == "object":
            defaults[key] = _defaults(subschema)
    return defaults


DEFAULT_CONFIG = _defaults(CONFIG_SCHEMA)


def _is_type(value, name: str) -> bool:
    """JSON Schema type test: a bool is not a number, and 1.0 is an integer."""
    if name == "boolean":
        return isinstance(value, bool)
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return name == "number" or isinstance(value, int) or value.is_integer()


_BOUNDS = {  # keyword: (violated, message)
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
}


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way `value` breaks `schema`.

    Covers the keywords CONFIG_SCHEMA uses, with jsonschema's draft
    2020-12 semantics and messages, in jsonschema's order: schema keywords
    and `properties` in dict order, array items by index.  A numeric
    keyword ignores a non-number, an object or array keyword a value of
    another type.  `default` is an annotation that checks nothing; any
    other keyword raises NotImplementedError.
    """
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _is_type(value, arg):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS:
            violated, text = _BOUNDS[keyword]
            if _is_type(value, "number") and violated(value, arg):
                yield path, f"{value!r} is {text} of {arg!r}"
        elif keyword == "additionalProperties":
            if isinstance(value, dict) and not arg:
                extras = sorted((key for key in value if key not in schema.get("properties", {})), key=str)
                if extras:
                    names = ", ".join(repr(key) for key in extras)
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif keyword == "required":
            if isinstance(value, dict):
                yield from ((path, f"{key!r} is a required property") for key in arg if key not in value)
        elif keyword == "properties":
            if isinstance(value, dict):
                for key, subschema in arg.items():
                    if key in value:
                        yield from _schema_errors(value[key], subschema, path + (key,))
        elif keyword == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    yield from _schema_errors(item, arg, path + (index,))
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                yield path, f"{value!r} is too long"
        elif keyword != "default":
            raise NotImplementedError(f"schema keyword {keyword!r}")


def _config_error(config: dict) -> str | None:
    """The message for the error jsonschema's `best_match` would pick, or None.

    That is the shallowest error; among those, the one with the greatest
    path; among those, the first found.
    """
    best = max(_schema_errors(config, CONFIG_SCHEMA), key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is None:
        return None
    path, message = best
    where = "$." + ".".join(str(p) for p in path) if path else "$"
    return f"config {where}: {message}"


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: str, overrides=(), seed=None, experiment=None) -> dict:
    """Read, apply overrides, fill in defaults, and schema-validate.

    Defaults fill in after the overrides, so an override that replaces a
    whole object still leaves every key it omits at its default.
    `experiment`, when given (the CLI subcommand), takes precedence over
    the config file's own `experiment` field.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read config: {exc}") from exc
    try:
        raw = _parse_json(text, path)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top-level config must be a JSON object")
    for item in overrides:
        raw = _apply_override(raw, item)
    config = _deep_merge(DEFAULT_CONFIG, raw)
    if seed is not None and isinstance(config["run"], dict):
        config["run"]["seed"] = int(seed)
    if experiment is not None:
        config["experiment"] = experiment
    error = _config_error(config)
    if error is not None:
        raise ConfigurationError(error)
    eve = config["protocol_spec"]["eve"]
    if "basis_pool" in eve and eve["kind"] != "intercept_resend":
        raise ConfigurationError(
            "config $.protocol_spec.eve: basis_pool applies only to kind 'intercept_resend'"
        )
    return config


def _parse_json(text: str, where: str):
    """json.loads, except that numbers beyond float range raise ConfigurationError.

    NaN passes every schema bound, and an infinity every lower bound; an
    integer too large for a float passes the schema and overflows later.
    """

    def reject(token):
        shown = token if len(token) <= 20 else f"{token[:20]}... ({len(token)} characters)"
        raise ConfigurationError(f"{where}: {shown} is not a finite number")

    def finite(parse):
        return lambda token: parse(token) if math.isfinite(float(token)) else reject(token)

    return json.loads(text, parse_constant=reject, parse_float=finite(float), parse_int=finite(int))


def _apply_override(config: dict, item: str) -> dict:
    if "=" not in item:
        raise ConfigurationError(f"override must look like key=value, got {item!r}")
    key, _, raw_value = item.partition("=")
    try:
        value = _parse_json(raw_value, f"override {item!r}")
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


def build_interferometer(config: dict) -> InterferometerConfig:
    """The interferometer of `run`; `qkd` and `toss` read no other stream setting."""
    itf = config["run"]["interferometer"]
    return InterferometerConfig(
        alice=ArmPhases(*itf["alice_phases_rad"]),
        bob=ArmPhases(*itf["bob_phases_rad"]),
        alice_ratios=CouplerRatios(*itf["alice_ratios"]),
        bob_ratios=CouplerRatios(*itf["bob_ratios"]),
        unit_delay_ns=float(itf["unit_delay_ns"]),
    )


def build_run_config(config: dict, duration_s: float = None) -> RunConfig:
    """The run of `run`, `duration_s` seconds long, or `run.duration_s` when that is None."""
    run = config["run"]
    return RunConfig(
        pair_rate_hz=float(run["pair_rate_hz"]),
        duration_s=float(run["duration_s"] if duration_s is None else duration_s),
        seed=int(run["seed"]),
        coincidence_window_ps=float(run["coincidence_window_ps"]),
        lam=float(run["lambda"]),
        interferometer=build_interferometer(config),
        alice_detectors=DetectorModel(**run["detectors"]["alice"]),
        bob_detectors=DetectorModel(**run["detectors"]["bob"]),
    )


def _write_json(payload: dict, path: str):
    """Write `payload` as strict JSON: a NaN or an infinity raises ValueError."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(out_dir: str, config: dict, outputs, wall_time_s: float, error: dict = None):
    """Write manifest.json; `error` (error_code, message) marks a failed run."""
    manifest = {
        "config_sha256": _config_hash(config),
        "seed": config["run"]["seed"],
        "tool_version": __version__,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "wall_time_s": round(wall_time_s, 3),
        **(error or {}),
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))


# --------------------------------------------------------------------------
# Experiment commands
# --------------------------------------------------------------------------


def cmd_histogram(config: dict, out_dir: str) -> list:
    """Five-peak arrival-time-difference histogram plus peak-area summary,
    with each peak's share set against its class weight at the couplers."""
    run_cfg = build_run_config(config)
    unit_ps = run_cfg.unit_delay_ps
    half_width = run_cfg.coincidence_window_ps / 2.0
    # Matched and binned a chunk at a time, so one chunk's tags and records are held.
    histogram = Histogram(unit_ps / BINS_PER_UNIT, {})
    areas = dict.fromkeys(PEAK_MULTIPLIER, 0)
    records = 0
    for chunk in simulate_run(run_cfg):
        coincidences = find_coincidences(chunk, max_delta_ps=3 * unit_ps)
        histogram += build_histogram(coincidences, unit_ps)
        for peak, area in peak_areas(coincidences, half_width, unit_ps).items():
            areas[peak] += area
        records += len(coincidences)
        del chunk, coincidences  # before the next chunk is made

    total = sum(areas.values())
    weights = class_weights(run_cfg.interferometer)  # index m + 2 for dt = m unit delays
    ideal = {p: float(weights[m + 2]) for p, m in PEAK_MULTIPLIER.items()}
    # An empty run has no shares, and JSON has no NaN: its residual is null.
    residual = max(abs(areas[p] / total - ideal[p]) for p in areas) if total else None
    hist_path = os.path.join(out_dir, "histogram.csv")
    write_histogram_csv(histogram, hist_path)
    peaks_path = os.path.join(out_dir, "peaks.json")
    _write_json(
        {
            "areas": areas,
            "total_coincidences": records,
            "ideal_weights": ideal,
            "max_weight_residual": residual,
            "peak_centers_ns": {p: m * run_cfg.interferometer.unit_delay_ns for p, m in PEAK_MULTIPLIER.items()},
        },
        peaks_path,
    )
    return [hist_path, peaks_path]


def _run_scan(run_cfg: RunConfig, dials: np.ndarray):
    """The count tables C[i, class, j, k] and off-peak backgrounds B[i, j, k]
    of a scan whose step i is a `run_cfg` run at the (S, 4) dial row i
    (alpha_m, alpha_l, beta_m, beta_l).  The dials enter only through the
    steps' outcome tables, all from one `step_distributions` call.  Step i
    simulates under a 64-bit seed drawn from SeedSequence((seed, i)), so
    different scan seeds share no step stream.
    """
    unit_ps = run_cfg.unit_delay_ps
    half_width = run_cfg.coincidence_window_ps / 2.0
    counts = np.zeros((len(dials), 5, 3, 3), dtype=np.int64)
    background = np.zeros((len(dials), 3, 3), dtype=np.int64)
    for i, table in enumerate(step_distributions(run_cfg.interferometer, run_cfg.lam, dials)):
        seed = np.random.SeedSequence((run_cfg.seed, i)).generate_state(1, np.uint64)[0]
        # A step of up to 65,536 pairs (every step of the demo configs) is one chunk.
        for chunk in simulate_run(dataclasses.replace(run_cfg, seed=int(seed)), table):
            coincidences = find_coincidences(chunk, max_delta_ps=3 * unit_ps)
            counts[i] += post_select(coincidences, half_width, unit_ps)
            background[i] += off_peak_background(coincidences, half_width, unit_ps)
    return counts, background


def _drive_scan(config: dict, channels, equal_rates: bool = False):
    """The scan of the config's stepped phase drive, the one reader of
    `scan_spec.phase_drive`: one `FringeScan` per distinct (peak, j, k)
    channel, the steps' off-peak backgrounds B[i, j, k] and the drive rates
    (rate_r, rate_l).  Writes nothing, so a failed fit leaves no scan files.

    Each step is one run `dwell_s` long; `run.duration_s` is not read.  The
    drive sets Alice's dials (alpha_m = rate_r * t, alpha_l = (rate_r +
    rate_l) * t, so the two effective phases advance at rate_r and rate_l);
    Bob's stay at their configured values.  `equal_rates` drives rate_l at
    rate_r, whatever `rate_l_rad_per_s` says.
    """
    drive = config["scan_spec"]["phase_drive"]
    steps, dwell = int(drive["steps"]), float(drive["dwell_s"])
    rate_r = float(drive["rate_r_rad_per_s"])
    rate_l = rate_r if equal_rates else float(drive["rate_l_rad_per_s"])
    run_cfg = build_run_config(config, duration_s=dwell)
    setpoints = np.arange(steps) * dwell
    phi_r = rate_r * setpoints
    bob = run_cfg.interferometer.bob
    dials = np.stack([phi_r, phi_r + rate_l * setpoints, np.full(steps, bob.phi_m), np.full(steps, bob.phi_l)], axis=1)
    counts, background = _run_scan(run_cfg, dials)
    # simulate_run always puts the left subspace at dt = +1 unit delay.
    scans = {(peak, j, k): FringeScan(setpoints, counts[:, PEAK_CLASS[peak], j, k]) for peak, j, k in channels}
    return scans, background, (rate_r, rate_l)


def _write_scan_outputs(scans: dict, payload: dict, out_dir: str, name: str) -> list:
    """One `scan_<peak>_<j><k>.csv` per channel, then `payload` as `name`; returns the paths."""
    paths = [os.path.join(out_dir, f"scan_{peak}_{j}{k}.csv") for peak, j, k in scans]
    for scan, path in zip(scans.values(), paths):
        save_scan(scan, path)
    _write_json(payload, os.path.join(out_dir, name))
    return paths + [os.path.join(out_dir, name)]


def cmd_scan(config: dict, out_dir: str) -> list:
    """Per-channel fringe scans plus fitted fringe parameters, each fitted
    at its drive tones; the central fit and the satellite rate ratio start
    from the drive rates, and the central fit takes the channel's mean
    off-peak background off its constant."""
    channels = [(c["peak"], c["j"], c["k"]) for c in config["scan_spec"]["channels"]]
    scans, background, (rate_r, rate_l) = _drive_scan(config, channels)
    drive_rates = {"right": (rate_r,), "left": (rate_l,), "central": (rate_r, rate_l, rate_r + rate_l)}
    fits = {}
    for (peak, j, k), scan in scans.items():
        fit = visibility(scan, sorted({abs(rate) for rate in drive_rates[peak]} - {0.0}))
        entry = {
            "i_max": fit.i_max,
            "i_min": fit.i_min,
            "visibility": fit.visibility,
            "background_mean": float(np.mean(background[:, j, k])),
        }
        if peak == "central":
            try:
                full = fit_central_fringe(scan, (rate_r, rate_l / rate_r if rate_r else 0.0), entry["background_mean"])
                entry.update(
                    lambda_hat=full.lambda_hat, lambda_sigma=full.sigma_lambda, n_hat=full.n_hat, residual=full.residual
                )
            except FitError as exc:
                entry["fit_error"] = str(exc)
        fits[f"{peak}_{j}{k}"] = entry
    left = next((s for ch, s in scans.items() if ch[0] == "left"), None)
    right = next((s for ch, s in scans.items() if ch[0] == "right"), None)
    if left is not None and right is not None:
        try:
            fits["satellite_rate_ratio"] = phase_ratio(left, right, (rate_l, rate_r))
        except (NoFringeError, DegenerateStateError) as exc:  # reported, not fatal
            fits["satellite_rate_ratio_error"] = str(exc)
    return _write_scan_outputs(scans, fits, out_dir, "fringe_fits.json")


def cmd_bell(config: dict, out_dir: str) -> list:
    """Equal-rate scan, central-fringe fit and Bell-threshold verdict.

    The scan drives both phases at omega = `rate_r_rad_per_s` and reads the
    correlated central channels (0,0), (1,2) and (2,1), whatever
    `rate_l_rad_per_s` and `scan_spec.channels` say.  Each channel's lam-hat
    comes from `fit_central_fringe` at (omega, 1) with the channel's mean
    off-peak background; a fit it rejects raises FitError.  Reports
    V(lam-hat) of the (0,0) channel, raw (fitted with no background) and
    net, and the mean net value over the three channels; the verdict uses
    the net (0,0) fit.
    """
    channels = [("central", j, k) for j, k in ((0, 0), (1, 2), (2, 1))]
    scans, background, (omega, _) = _drive_scan(config, channels, equal_rates=True)  # the threshold needs n = 1
    raw = fit_central_fringe(scans[channels[0]], (omega, 1.0))
    fits = [fit_central_fringe(scans[peak, j, k], (omega, 1.0), background[:, j, k].mean()) for peak, j, k in channels]
    net = [visibility_from_lambda(fit.lambda_hat) for fit in fits]
    _, v_bell = bell_threshold_visibility()
    if net[0] < v_bell / 2.0:
        raise FitError(
            f"no usable fringe: visibility {net[0]:.3f} is below half the "
            f"Bell threshold {v_bell:.4f}; check phases and mixing weight"
        )
    result = sigma_violation(fits[0].lambda_hat, fits[0].sigma_lambda)
    payload = {
        "v_net": result.v_net,
        "sigma_v": result.sigma_v,
        "v_bell": result.v_bell,
        "n_sigma": result.n_sigma,
        "i3": result.i3,
        "lambda_crit": result.lambda_crit,
        "lambda_hat": fits[0].lambda_hat,
        "i3_max": optimize_cglmp().value,
        "raw_visibility": visibility_from_lambda(raw.lambda_hat),
        "background_mean": float(background[:, 0, 0].mean()),
        "class_mean_visibility": float(np.mean(net)),
    }
    return _write_scan_outputs(scans, payload, out_dir, "bell.json")


def cmd_qkd(config: dict, out_dir: str) -> list:
    spec = config["protocol_spec"]
    eve_spec = spec["eve"]
    eve = (
        EveModel.intercept_resend(eve_spec.get("basis_pool", BASIS_IDS))
        if eve_spec["kind"] == "intercept_resend"
        else EveModel.none()
    )
    trace_path = os.path.join(out_dir, "qkd_rounds.csv") if spec["trace"] else None
    summary = run_qkd(
        rounds=int(spec["rounds"]),
        mode=spec["mode"],
        lam=float(config["run"]["lambda"]),
        eve=eve,
        seed=int(config["run"]["seed"]),
        trace_path=trace_path,
        interferometer=build_interferometer(config),
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
        interferometer=build_interferometer(config),
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
    config = None
    try:
        config = load_config(
            args.config, overrides=args.override, seed=args.seed, experiment=args.experiment
        )
        os.makedirs(args.out, exist_ok=True)
        outputs = _COMMANDS[args.experiment](config, args.out)
        _write_manifest(args.out, config, outputs, time.monotonic() - started)
    except Exception as exc:  # configuration errors map to exit 2, runtime/fit failures to exit 3
        if isinstance(exc, ConfigurationError):
            error_code, status, message = "config_error", 2, str(exc)
        else:
            error_code, status, message = "runtime_error", 3, f"{type(exc).__name__}: {exc}"
        print(f"error_code={error_code}", file=sys.stderr)
        print(f"qutrit-bench: {message}", file=sys.stderr)
        # Some configuration errors only show inside the command, once --out exists.
        if config is not None and os.path.isdir(args.out):
            error = {"error_code": error_code, "message": message}
            with contextlib.suppress(OSError):  # the exit code still reports the failure
                _write_manifest(args.out, config, [], time.monotonic() - started, error)
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
