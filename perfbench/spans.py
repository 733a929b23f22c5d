"""Per-layer spans, recorded from outside the package.

Run as a script, this module is the traced CLI:

    python3 perfbench/spans.py --spans spans.json -- histogram --config cfg.json --out DIR

It imports `qutrit_bench.cli`, replaces the names `cli` imported from the
other layers with wrappers that record a span around each call, runs
`cli.main`, and writes the spans and work counts to `--spans`. Work counts
are computed after a wrapped call returns, outside its span.

Imported as a module it gives the harness the span groups and the self-time
arithmetic. It does not import the package then.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

ROOT_SPAN = "cli.main"

# Per-layer metric groups: each is the set of spans, named
# "<layer>.<function>", whose busy time and calls it sums. Every function
# named here is wrapped in the traced run.
GROUPS = {
    "cli.load_config": ("cli.load_config",),
    "cli.write": ("cli._write_json", "timetags.write_histogram_csv", "analysis.save_scan"),
    "timetags.simulate_run": ("timetags.simulate_run",),
    "timetags.find_coincidences": ("timetags.find_coincidences",),
    "timetags.select": (
        "timetags.build_histogram",
        "timetags.peak_areas",
        "timetags.post_select",
        "timetags.off_peak_background",
    ),
    "analysis.bell_chain": (
        "analysis.bell_threshold_visibility",
        "analysis.sigma_violation",
        "analysis.optimize_cglmp",
    ),
    "analysis.optimize_cglmp": ("analysis.optimize_cglmp",),
    "analysis.phase_ratio": ("analysis.phase_ratio",),
    "protocols.run_qkd": ("protocols.run_qkd",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Spans kept in memory, in start order, plus named work counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def leave(self, index: int):
        self._open.pop()
        self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(tracer, bound_args, result)` runs after it."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(index)
            if count is not None:
                started = time.perf_counter()
                count(self, signature.bind(*args, **kwargs).arguments, result)
                self.counts["trace.count_s"] += time.perf_counter() - started
            return result

        return traced


def _count_tags(tracer: Tracer, args: dict, stream):
    tracer.counts["timetags.tags"] += len(stream)


def _count_candidates(tracer: Tracer, args: dict, coincidences):
    """Candidate pairs within the match distance, and Alice tags with several."""
    import numpy as np

    stream, reach = args["stream"], args["max_delta_ps"]
    is_a = stream.party == 0
    t_a, t_b = stream.time_ps[is_a], stream.time_ps[~is_a]
    candidates = np.searchsorted(t_b, t_a + reach, side="right") - np.searchsorted(
        t_b, t_a - reach, side="left"
    )
    tracer.counts["timetags.candidate_pairs"] += int(candidates.sum())
    tracer.counts["timetags.contested_tags"] += int(np.count_nonzero(candidates > 1))
    tracer.counts["timetags.alice_tags"] += int(t_a.size)
    tracer.counts["timetags.coincidences"] += len(coincidences)


def _count_qkd(tracer: Tracer, args: dict, summary):
    tracer.counts["protocols.sifted_rounds"] += summary.sifted_count
    path = args.get("trace_path")
    if path is not None:
        tracer.counts["protocols.trace_bytes"] += os.path.getsize(path)


_COUNTERS = {
    "timetags.simulate_run": _count_tags,
    "timetags.find_coincidences": _count_candidates,
    "protocols.run_qkd": _count_qkd,
}


def install(tracer: Tracer, cli) -> None:
    """Replace every name in GROUPS that `cli` looks up with a traced wrapper."""
    names = sorted({name for members in GROUPS.values() for name in members})
    for name in names:
        layer, attr = name.split(".", 1)
        fn = getattr(cli, attr)
        if fn.__module__ != f"qutrit_bench.{layer}":
            raise RuntimeError(f"cli.{attr} comes from {fn.__module__}, not the {layer} layer")
        setattr(cli, attr, tracer.wrap(name, fn, _COUNTERS.get(name)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the qutrit-bench CLI with per-layer spans.")
    parser.add_argument("--spans", required=True, help="JSON file the spans and counts go to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    started = time.perf_counter()
    from qutrit_bench import cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    install(tracer, cli)
    root = tracer.enter(ROOT_SPAN)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.leave(root)
    record = {
        "import_s": import_s,
        "exit_code": code,
        "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
        "counts": dict(tracer.counts),
    }
    with open(args.spans, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
