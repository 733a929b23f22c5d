"""Seeded count and protocol files stay byte-identical.

Small seeded `histogram`, `bell` (50 steps, one period of its 2 Hz drive)
and default-channel `scan` (18 steps) runs of the demo configs, each
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
"""

import hashlib
import json
import pathlib

import pytest

from qutrit_bench.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs"

THREE_BASIS_ATTACK = {"kind": "intercept_resend", "basis_pool": ["computational", "fourier0", "fourier2"]}

# name: (experiment, config, overrides)
RUNS = {
    "histogram": ("histogram", "histogram_realistic.json", ("run.duration_s=0.05",)),
    "histogram_realistic": ("histogram", "histogram_realistic.json", ()),
    "bell": ("bell", "bell_headline_regime.json", ("scan_spec.phase_drive.steps=50",)),
    "scan": ("scan", "histogram_realistic.json", ("scan_spec.phase_drive.steps=18",)),
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
        "histogram.csv": "0f87e0b3376bdc2823606b958f70dc77ade4ebf4982aacdd9c32d7d78bb17313",
        "peaks.json": "152579d69cd29d0128a11ba37fecc45d05603bdd16580abcebe342dc85ebe5b0",
    },
    ("histogram", 1234567): {
        "histogram.csv": "5f6d1d43d2873d9287504b6eb0db3a070899001ed05c8da260c52e1d86f97860",
        "peaks.json": "4abbef49683a4682da650be2fda38d24b360d19c9aaa344d5654e6ceecc8b83c",
    },
    ("histogram_realistic", 7): {
        "histogram.csv": "a0fd9b17cc3e3de2818a7ff7eec50ec2d1bbf1fc6e1736f0b5d5012f22500020",
        "peaks.json": "8b27d32a2c42ad8afd416d27eb1f331537599f5b9e276284c0f88e1991ae5525",
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
        "scan_central_00.csv": "3d81e6c6e354e179cc2cfb90fa3cbcd0da4e16c9b1edb93917075bf16a49d337",
        "scan_left_00.csv": "2c48e49ff6a4fa7905fc0699f1f9f4a12db605b300d3c511c99fd0ef6c49a862",
        "scan_right_00.csv": "abc1919ad5affbfa1e190f849c52b9cd33139b5b7e39fbb236240d88179516ae",
    },
    ("scan", 1234567): {
        "scan_central_00.csv": "dcb7ab6b09435cf1455ddb7dca8ee34b4ea52dc723be1280ed6e8b8da21d2549",
        "scan_left_00.csv": "8c858a6fd88ff1057264a750210ec409d205a021c397fbd24ad630faa4ac4a55",
        "scan_right_00.csv": "5b0534b3f4acc4380e41ecb0312f1097c9b35aa49297fe057a1941a6931cf4b4",
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
