"""Seeded count and protocol files stay byte-identical.

Small seeded `histogram`, `bell` (50 steps, one period of its 2 Hz drive)
and `scan` (18 steps) runs of the demo configs, each
checked against the sha256 of its count files: `histogram.csv`,
`peaks.json` and every `scan_*.csv`.  The
full 5 s `histogram` demo run (`histogram_realistic`, 1M pairs) crosses
the block edges of the stream layer's draws and matching.  The
fit outputs (`bell.json`, `fringe_fits.json`) are left out: they are fit
results, not counts.  A 20,000-round four-basis `qkd` run with an
intercept-resend attacker over three bases and its round trace, and a
20,000-round `toss` run, are checked on every data file: `qkd_summary.json`,
`qkd_rounds.csv` and `toss_summary.json`.  A change that moves a hash on
purpose says why in CHANGES.md and retakes the table.

The `scan` row reads the default channels, the (0,0) cell of each of the
three peaks; the `scan_cells` row reads an off-diagonal cell of each, with
Bob's dials and Alice's couplers off their defaults.

The `histogram`, `histogram_realistic` and `scan` rows were retaken when
each party came to draw its jitter, efficiency and dark counts from its own
generators: their demo config has imperfect detectors on both sides, so
their streams are new draws of the same law.  The `bell`, `qkd` and `toss`
rows, whose runs have ideal detectors or no stream, did not move.
"""

import hashlib
import json
import pathlib

import pytest

from qutrit_bench.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs"

# Off-diagonal cells of three peaks, at Bob dials and Alice couplers off their
# defaults: they pin the order of a step's (class, j, k) count table.
CELL_CHANNELS = [{"peak": "central", "j": 1, "k": 2}, {"peak": "left", "j": 2, "k": 1}, {"peak": "right", "j": 1, "k": 0}]

THREE_BASIS_ATTACK = {"kind": "intercept_resend", "basis_pool": ["computational", "fourier0", "fourier2"]}

# name: (experiment, config, overrides)
RUNS = {
    "histogram": ("histogram", "histogram_realistic.json", ("run.duration_s=0.05",)),
    "histogram_realistic": ("histogram", "histogram_realistic.json", ()),
    "bell": ("bell", "bell_headline_regime.json", ("scan_spec.phase_drive.steps=50",)),
    "scan": ("scan", "histogram_realistic.json", ("scan_spec.phase_drive.steps=18",)),
    "scan_cells": (
        "scan",
        "histogram_realistic.json",
        (
            "scan_spec.phase_drive.steps=18",
            "scan_spec.channels=" + json.dumps(CELL_CHANNELS),
            "run.interferometer.bob_phases_rad=[0.7, -1.3]",
            "run.interferometer.alice_ratios=[0.5, 0.3, 0.2]",
        ),
    ),
    "qkd": (
        "qkd",
        "bell_headline_regime.json",
        (
            "protocol_spec.rounds=20000",
            "protocol_spec.mode=four_basis",
            "protocol_spec.eve=" + json.dumps(THREE_BASIS_ATTACK),
            "protocol_spec.trace=true",
        ),
    ),
    "toss": ("toss", "bell_headline_regime.json", ("protocol_spec.rounds=20000",)),
}

GOLDEN = {
    ("histogram", 7): {
        "histogram.csv": "1711eba61ddab312241a630e2fade3d9aa32bc14b6fd8d3a1c47052c0eb3aaa3",
        "peaks.json": "b593a265f6da375c3c6f4016830b8ab12746c2dc04fda3b3f3c246352a255e6d",
    },
    ("histogram", 1234567): {
        "histogram.csv": "d00246f6a78e95a857e847febc1031905592d59281f60a2577aea97afda3de49",
        "peaks.json": "efc525d2464c33c037c480c281f569fe0ddd3174e520a7081e9afb298f541a18",
    },
    ("histogram_realistic", 7): {
        "histogram.csv": "1d183e24776793627c076d300c0e2fe720420d811e48949b2d49464aae1228ee",
        "peaks.json": "8346d645daccf18ab9caa798671c1b8e821afa18e4cefdb6b51bcab282040054",
    },
    ("bell", 7): {
        "scan_central_00.csv": "21939479b2584ae505a8dbfbc0f1af4cff1cc41ac5358d783f409f02ad85eac6",
        "scan_central_12.csv": "39fcee7cd85538b8f092c866d5ac54667286a6f3cd070f21155ca2685be118b8",
        "scan_central_21.csv": "7a0a2e49ebe109098eb38e458a4d48053fab4d0f6550d2a5f4b23f946359ac49",
    },
    ("bell", 1234567): {
        "scan_central_00.csv": "7d9dd13bcf00895714cd0354d9b26517bf7e16439496e47cd3c00fdcea4eca32",
        "scan_central_12.csv": "e85bf1f31490f76cb2448e3c14c25bcd877e34fbfb2a66933313af399667bf33",
        "scan_central_21.csv": "d5fa5acd36b09dba9336eaa0856aa76e4e35484064d61d79c76423ad8bd03449",
    },
    ("scan", 7): {
        "scan_central_00.csv": "a80a54166b5aa48cca05b080d5b9617829a0885a57f86280d36083380a968252",
        "scan_left_00.csv": "a348cdaedc6da075b0bb433a58bb23aa6fb601c4e847be58db4299ac2db721e9",
        "scan_right_00.csv": "13a47a2b5290fdaef83af4990e317c6a5c1438664d1f80000b16ada7fa61f529",
    },
    ("scan", 1234567): {
        "scan_central_00.csv": "5db7419ffbd9228a00190fe156bfb78fbae6f453a1ee6a1ee50a18eaa9d389f2",
        "scan_left_00.csv": "0e5a34546be01ea6d071cbcf1d5b4c3df417410e703f11a105b2d565554a3ba4",
        "scan_right_00.csv": "284462185c41fb554ab5d46d2432592a66a6d246536136048b95d489d01ea1cc",
    },
    ("scan_cells", 7): {
        "scan_central_12.csv": "446699de442dbe20194d9fe74eb247b087a5f08e5ac273ec3499485a92e566bc",
        "scan_left_21.csv": "51d4896315f5ba2b72d90fff93f4ccc89e8cb56f19f711073cd5a8f695a7be7c",
        "scan_right_10.csv": "137121fbee6a462d229772d25c11cbca57570f1927883bbbaa45d3329b2330da",
    },
    ("scan_cells", 1234567): {
        "scan_central_12.csv": "a92dc27199a049817db7d35a3b9b15728bf67ee4aec48b8f5e8694260613242a",
        "scan_left_21.csv": "b2ed290792ed0e3360276a47e4105a8e1a928c1497685ccb151f5874859699a7",
        "scan_right_10.csv": "7c3854802999fc1f52e5d69d654ccfbe9655856bd3dd1b48ba7fe986dc5f8046",
    },
    ("qkd", 7): {
        "qkd_summary.json": "9daa0338b00141fb42db05a6113f31aa886d04c8ed13218bd47a65fc46028471",
        "qkd_rounds.csv": "76e7748684496e4b74ff2d8421d45846f276d8e030a5b84e87078150757926e0",
    },
    ("qkd", 1234567): {
        "qkd_summary.json": "2da9cfc22077752e995ab680ee2f6abeb5ecbf27d12eb82371a0024119f9d39a",
        "qkd_rounds.csv": "c71491e67a004f4b4512f9ffb5ce4ed4491272b064113e9fd4b932330642b6b7",
    },
    ("toss", 7): {
        "toss_summary.json": "8d8c0106cde5c214312e682c90bb40144c06d3167094d9a1cae483145d48abba",
    },
    ("toss", 1234567): {
        "toss_summary.json": "52388796d682f247e38d17bec43c49b9bb306f7b3377eb2fbdee447cfcc93a14",
    },
}


def is_pinned_file(name: str) -> bool:
    pinned = ("histogram.csv", "peaks.json", "qkd_summary.json", "qkd_rounds.csv", "toss_summary.json")
    return name in pinned or (name.startswith("scan_") and name.endswith(".csv"))


@pytest.mark.parametrize("run, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_count_files_match_golden_hashes(tmp_path, run, seed):
    experiment, config, overrides = RUNS[run]
    args = [experiment, "--config", str(CONFIGS / config), "--out", str(tmp_path), "--seed", str(seed)]
    for override in overrides:
        args += ["--override", override]
    assert main(args) == 0
    found = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if is_pinned_file(path.name)
    }
    assert found == GOLDEN[(run, seed)]
