"""Benchmark harness for the qutrit-bench command-line runner.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

A closed loop with one client: it runs `python -m qutrit_bench.cli` on the
workload's config, one fresh process at a time, for S seconds after one
untimed warm-up (and at least twice, so the replay check has a pair),
exactly as a user would. Every
invocation's outputs are checked; an invocation fails on a non-zero exit, a
missing output, a failed check, or data files that differ from the first
invocation of the same seed.

--trace 0 reports the end-to-end metrics: `wall_s` (spawn to exit, median
over the invocations), `setup_s` (a fresh interpreter importing
`qutrit_bench.cli` and loading the config, median of SETUP_SAMPLES
processes) and `peak_rss_mb` (the child's ru_maxrss). `failed_share` is the
result's `failed` / `attempted`.

--trace 1 alternates plain invocations with traced ones (see spans.py) and
reports the per-layer metrics of the traced ones, plus the tracing overhead:
traced minus plain wall time.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3  # set-up probes per run
MIN_INVOCATIONS = 2  # the replay check compares at least two runs of one seed
RUN_BUDGET_S = 170.0  # a whole run, set-up included, must end well within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "QUTRIT_BENCH_THREADS",
)
SETUP_CODE = (
    "import sys\n"
    "from qutrit_bench import cli\n"
    "cli.load_config(sys.argv[1], seed=int(sys.argv[2]), experiment=sys.argv[3], overrides=sys.argv[4:])\n"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
_COUNT_UNITS = {
    "cli.output_bytes": "bytes",
    "timetags.tags": "count",
    "timetags.candidate_pairs": "count",
    "timetags.coincidences": "count",
    "timetags.contested_share": "share",
    "protocols.sifted_rounds": "count",
    "protocols.trace_bytes": "bytes",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.main.self_s": "s",
    **{f"{group}{suffix}": unit for group in spans.GROUPS for suffix, unit in (("_s", "s"), (".calls", "count"))},
    **_COUNT_UNITS,
    "trace.count_s": "s",
    "trace.wall_s": "s",
    "trace.plain_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    exit_code: int
    problems: list = field(default_factory=list)


def spawn(argv: list, stderr_path: Path, timeout_s: float) -> tuple:
    """Run argv from the repository root; (wall seconds, peak RSS in MB, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(stderr_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall_s, usage.ru_maxrss / 1024.0, proc.returncode


def data_hashes(out_dir: Path) -> dict:
    """sha256 of every data file; manifest.json carries a wall time, so it is left out."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


class Judge:
    """Checks each invocation's outputs, and that all invocations of a seed agree byte for byte."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None

    def __call__(self, exit_code: int, out_dir: Path) -> list:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        missing = [n for n in (*self.workload.outputs, "manifest.json") if not (out_dir / n).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        try:
            problems = self.workload.check(out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        hashes = data_hashes(out_dir)
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            differ = sorted(n for n in hashes.keys() | self.reference.keys() if hashes.get(n) != self.reference.get(n))
            problems.append(f"data files differ from the first invocation of this seed: {differ}")
        return problems


class Runner:
    """Spawns the invocations of one workload run and keeps the run inside its time budget."""

    def __init__(self, workload, seed: int, work: Path = WORK):
        self.workload = workload
        self.seed = seed
        self.work = work / workload.name
        self.started = time.perf_counter()
        self.judge = Judge(workload)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def remaining_s(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def setup_probe(self) -> float:
        w = self.workload
        argv = [sys.executable, "-c", SETUP_CODE, w.config, str(self.seed), w.experiment, *w.overrides]
        wall_s, _, code = spawn(argv, self.work / "setup.err", self.remaining_s())
        if code != 0:
            detail = (self.work / "setup.err").read_text().strip().splitlines()[-1:]
            raise BenchmarkError(f"set-up probe exited with {code}: {detail}")
        return wall_s

    def invoke(self, tag: str, prefix: tuple = ("-m", "qutrit_bench.cli")) -> tuple:
        """One CLI invocation, judged; returns (Outcome, output directory)."""
        out_dir = self.work / tag
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [sys.executable, *prefix, *self.workload.cli_args(self.seed), "--out", str(out_dir)]
        wall_s, rss_mb, code = spawn(argv, self.work / f"{tag}.err", self.remaining_s())
        return Outcome(wall_s, rss_mb, code, self.judge(code, out_dir)), out_dir


def layer_metrics(workload, record: dict, out_dir: Path) -> dict:
    """Per-layer metrics of one traced invocation, from its spans and counts."""
    recorded = [spans.Span(*s) for s in record["spans"]]
    selfs = spans.self_times(recorded)
    root = next(i for i, s in enumerate(recorded) if s.name == spans.ROOT_SPAN)
    metrics = {
        "cli.import_s": record["import_s"],
        "cli.main_s": recorded[root].end - recorded[root].start,
        "cli.main.self_s": selfs[root],
    }
    for group, members in spans.GROUPS.items():
        hits = [s for s in recorded if s.name in members]
        metrics[f"{group}_s"] = sum(s.end - s.start for s in hits)
        metrics[f"{group}.calls"] = len(hits)
    silent = [g for g in workload.spans if metrics[f"{g}.calls"] == 0]
    if silent:
        raise BenchmarkError(
            f"{workload.name}: spans {silent} recorded no call; the CLI no longer calls "
            "these layers through the names the tracer wraps"
        )
    counts = record["counts"]
    for name in _COUNT_UNITS:
        metrics[name] = counts.get(name, 0)
    alice = counts.get("timetags.alice_tags", 0)
    metrics["timetags.contested_share"] = counts.get("timetags.contested_tags", 0) / alice if alice else 0.0
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    metrics["trace.count_s"] = counts.get("trace.count_s", 0.0)
    return metrics


def run_plain(runner: Runner, seconds: int) -> tuple:
    """End-to-end metrics; returns (metrics, outcomes)."""
    setup, outcomes = [], []
    runner.setup_probe()  # warm-up, untimed: compiles the package's .pyc files in a fresh checkout
    deadline = time.perf_counter() + seconds
    # The first invocations alternate with the set-up probes, so neither
    # metric is measured only at the start of the run.
    while len(outcomes) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        if len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_probe())
        outcome, out_dir = runner.invoke(f"run{len(outcomes)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        outcomes.append(outcome)
    setup += [runner.setup_probe() for _ in range(SETUP_SAMPLES - len(setup))]
    timed = [o for o in outcomes if not o.problems] or outcomes
    metrics = {
        "wall_s": statistics.median(o.wall_s for o in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(o.rss_mb for o in timed),
    }
    return metrics, outcomes


def run_traced(runner: Runner, seconds: int) -> tuple:
    """Per-layer metrics, medians over the traced invocations; returns (metrics, outcomes)."""
    tracer = Path(spans.__file__).resolve()
    plain, traced, layers = [], [], []
    runner.setup_probe()  # warm-up, as in run_plain
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        outcome, out_dir = runner.invoke(f"plain{len(plain)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        plain.append(outcome)
        record_path = runner.work / f"spans{len(traced)}.json"
        outcome, out_dir = runner.invoke(f"traced{len(traced)}", (str(tracer), "--spans", str(record_path), "--"))
        traced.append(outcome)
        if not outcome.problems:
            layers.append(layer_metrics(runner.workload, json.loads(record_path.read_text()), out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
    if not layers:
        raise BenchmarkError(f"{runner.workload.name}: no traced invocation succeeded: {traced[0].problems}")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.wall_s"] = statistics.median(o.wall_s for o in traced)
    metrics["trace.plain_wall_s"] = statistics.median(o.wall_s for o in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.plain_wall_s"]
    return metrics, plain + traced


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[len("ref: "):]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment() -> dict:
    """What the numbers were measured on: code, cores, library versions, thread settings."""
    code = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        code.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "code_sha256": code.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def make_result(metrics: dict, units: dict, outcomes: list) -> dict:
    """The result object; `failed` / `attempted` is the failed share."""
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(workload, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    runner = Runner(workload, seed)
    metrics, outcomes = (run_traced if trace else run_plain)(runner, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = make_result(metrics, units, outcomes)
    failed = result["failed"]
    for i, o in enumerate(outcomes):
        for problem in o.problems:
            print(f"{workload.name} invocation {i} failed: {problem}")
    kind = "traced and plain, medians over the traced" if trace else "medians"
    print(f"{workload.name}: seed {seed}, {len(outcomes)} invocations ({kind})")
    for name, unit in units.items():
        print(f"{workload.name:20s} {name:32s} {metrics[name]:14.6g} {unit}")
    print(f"{workload.name:20s} {'failed_share':32s} {failed / len(outcomes):14.6g} share ({failed} of {len(outcomes)})")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "invocations": [asdict(o) for o in outcomes],
        "result": result,
    }
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qutrit_bench/cli.py", "demos/configs") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a qutrit-bench checkout, missing {missing}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # the config schema takes non-negative seeds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        results = {name: run_workload(WORKLOADS[name], seed, args.seconds, bool(args.trace), env) for name in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
