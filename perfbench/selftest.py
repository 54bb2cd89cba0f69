"""Self-test of the benchmark's tracer.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

On a few small commands that between them reach every traced layer, it
checks that:

- every tracer target exists, and the names the package imports by value
  are rebound where they are looked up;
- a traced command prints byte-identical stdout, with the same exit code,
  as the untraced one;
- two traced runs of a command give identical counts;
- every span the per-layer metrics read records calls on some command;
- ``BENCHMARK.json`` lists exactly the metrics the driver reports.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import tracer

COMMANDS = [
    ["kquiver", "--window", "4"],
    ["kquiver", "--diagram", "D4"],
    ["dup-kquiver", "--diagram", "A3"],
    ["verify", "--theorem", "3.1", "--diagram", "A3", "--deep-check"],
]

# Bindings made by ``from module import name`` that the tracer must rebind.
BY_VALUE = {"tilt_a.ext1_dim", "tilt_a.exchange_sequence",
            "tilt_a.indecomposables", "tilt_a.kronecker_window",
            "rep_a.hom_basis"}

END_TO_END = ["wall_s", "cpu_s", "peak_rss_mb", "setup_s", "success_rate"]


def main() -> int:
    if not run.have_sources():
        return 2
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = [[name, unit, better] for name, unit, better, _, _ in tracer.METRICS]
    want.append(list(tracer.OVERHEAD))
    got = [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
    report(got == want, "BENCHMARK.json per_layer matches tracer.METRICS")
    report([m["name"] for m in spec["end_to_end"]] == END_TO_END,
           "BENCHMARK.json end_to_end matches the driver")
    report(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")

    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        runner = run.Runner(workdir, time.perf_counter() + run.HARD_LIMIT_S)
        busy: set[str] = set()
        for args in COMMANDS:
            cmd = " ".join(args)
            base = runner.cli(args)
            report(base.rc == 0, f"{cmd}: untraced run exits 0")
            dumps = []
            for k in range(2):
                spans = workdir / f"spans{k}.json"
                op = runner.traced(args, spans)
                report(op.rc == base.rc and op.stdout == base.stdout,
                       f"{cmd}: traced run {k} prints the untraced stdout")
                if not spans.is_file():
                    report(False, f"{cmd}: traced run {k} wrote its spans")
                    break
                dumps.append(json.loads(spans.read_text()))
            if len(dumps) < 2:
                continue
            missing = dumps[0]["missing"]
            report(not missing, f"{cmd}: every tracer target exists {missing or ''}")
            lost = sorted(BY_VALUE - set(dumps[0]["rebound"]))
            report(not lost, f"{cmd}: by-value bindings rebound {lost or ''}")
            counts = [tracer.counts(tracer.layer_metrics(d)) for d in dumps]
            report(counts[0] == counts[1], f"{cmd}: counts repeat exactly")
            busy |= {name for name, s in dumps[0]["spans"].items() if s["calls"]}
        idle = sorted({span for _, _, _, span, _ in tracer.METRICS} - busy)
        report(not idle, f"every traced span records calls {idle or ''}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run.remove_workdir_root()
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
