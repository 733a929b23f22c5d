"""The package runs without scipy, the command-line runner without jsonschema,
and numpy's OpenBLAS starts no worker threads unless the user asks for them.

Each case runs in a fresh interpreter, so modules imported by the test
session do not hide what `qutrit_bench` itself loads.
"""

import json
import math
import os
import subprocess
import sys
import textwrap

import qutrit_bench

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qutrit_bench.__file__)))

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# jsonschema and what it imports; config validation needs none of them.
SCHEMA_LOADED = (
    "sorted(m for m in sys.modules if m.split('.')[0] in ('jsonschema', 'referencing', 'rpds', 'attrs'))"
)

RUN = {"pair_rate_hz": 4.0e5, "duration_s": 0.2, "seed": 99, "lambda": 0.9688}
DRIVE = {"rate_r_rad_per_s": 4 * math.pi, "steps": 60, "dwell_s": 0.005}
CONFIGS = {
    "histogram": {"experiment": "histogram", "run": RUN},
    "qkd": {"experiment": "qkd", "run": RUN, "protocol_spec": {"rounds": 5000, "trace": True}},
    "bell": {"experiment": "bell", "run": RUN, "scan_spec": {"phase_drive": DRIVE}},
}


def run_fresh(code, *args, **env_vars):
    """Run `code` in a new interpreter; its last stdout line is a JSON report.

    `env_vars` are set in the child's environment; a value of None removes the variable.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_runs_without_loading_scipy(tmp_path):
    for name, config in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    report = run_fresh(
        f"""
        import json, os, sys
        import qutrit_bench
        from qutrit_bench import cli
        root = sys.argv[1]
        codes = {{
            name: cli.main([name, "--config", os.path.join(root, name + ".json"), "--out", os.path.join(root, name)])
            for name in {sorted(CONFIGS)!r}
        }}
        print(json.dumps({{"codes": codes, "scipy": {SCIPY_LOADED}, "schema": {SCHEMA_LOADED}}}))
        """,
        str(tmp_path),
    )
    assert report["codes"] == {name: 0 for name in CONFIGS}
    assert report["scipy"] == []
    assert report["schema"] == []


def test_central_fit_loads_no_scipy(tmp_path):
    drive = dict(DRIVE, dwell_s=0.02)  # 2.4 periods, enough for the central fit
    channels = [{"peak": "central", "j": 0, "k": 0}]
    config = {"experiment": "scan", "run": RUN, "scan_spec": {"channels": channels, "phase_drive": drive}}
    (tmp_path / "scan.json").write_text(json.dumps(config))
    report = run_fresh(
        f"""
        import json, os, sys
        import numpy as np
        from qutrit_bench import cli
        from qutrit_bench.analysis import FringeScan, fit_central_fringe
        root = sys.argv[1]
        code = cli.main(["scan", "--config", os.path.join(root, "scan.json"), "--out", os.path.join(root, "scan")])
        with open(os.path.join(root, "scan", "fringe_fits.json")) as fh:
            central = json.load(fh)["central_00"]
        u = np.linspace(0.0, 4.0, 400)
        w, phi0, phi1 = 2 * np.pi * u, 0.3, -0.4  # the central fringe at equal rates, lam = 0.9
        scan = FringeScan(u, 50.0 * (3.0 + 1.8 * (np.cos(w + phi0) + np.cos(w + phi1) + np.cos(2 * w + phi0 + phi1))))
        fit = fit_central_fringe(scan, (2.02 * np.pi, 1.0))  # start 1% off the drive rate
        print(json.dumps({{"code": code, "central": central, "scipy": {SCIPY_LOADED}, "lam": fit.lambda_hat}}))
        """,
        str(tmp_path),
    )
    assert report["code"] == 0
    assert "lambda_hat" in report["central"], report["central"]
    assert report["scipy"] == []
    assert abs(report["lam"] - 0.9) < 1e-6


BLAS_REPORT = """
    import json, os
    from qutrit_bench import cli
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print(json.dumps({"blas": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads}))
    """


def test_import_pins_a_one_thread_blas_pool():
    # The test session has imported the package already, so its environment holds the pin.
    report = run_fresh(BLAS_REPORT, OPENBLAS_NUM_THREADS=None)
    assert report["blas"] == "1"
    if report["threads"] is not None:
        assert report["threads"] == 1


def test_import_keeps_the_users_blas_pool():
    assert run_fresh(BLAS_REPORT, OPENBLAS_NUM_THREADS="2")["blas"] == "2"
