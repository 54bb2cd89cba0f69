"""Outside-in benchmark of the tiltquiver command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each operation is one ``tiltquiver`` CLI
command in a fresh child interpreter, and the next starts only after the
previous one has exited.  Module-level caches therefore start cold in
every operation, as they do for a user.  Child standard output and error
go to files, never to a pipe.  The package is imported from ``src/`` of
the checkout, with bytecode caching on; pure Python needs no build step.

``--trace 0`` reports the end-to-end metrics, medians over the run:
``wall_s`` (spawn to exit), ``cpu_s`` (child user+sys from ``wait4``),
``peak_rss_mb`` (child ``ru_maxrss``), ``setup_s`` (interpreter start,
import and ``classify --diagram A2``, the median of several per run) and
``success_rate`` (operations whose exit code and output checks passed,
over those attempted).

``--trace 1`` repeats one input in pairs of an untraced and a traced
operation (``perfbench/tracer.py``) and reports the per-layer metrics:
counts, cache hit ratios and each layer's share of the command's time.
The traced stdout must equal the untraced one byte for byte, and every
count must repeat exactly between traced operations; a pair that breaks
either counts as failed.  ``trace.overhead_s`` is the median traced
minus the median untraced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to standard
error.  Workloads and their output checks are in ``workloads.py``; the
per-layer metrics, and the end-to-end metric each should move, are in
``tracer.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import SETUP_ARGV, SETUP_STDOUT, WORKLOADS, Inputs  # noqa: E402

SETUP_REPS = 15       # fresh interpreters per run for setup_s
HARD_LIMIT_S = 165    # no child outlives this, counted from the run's start


class Op(NamedTuple):
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


class Runner:
    """Spawns one child at a time and reaps it with its resource usage."""

    def __init__(self, workdir: Path, hard_deadline: float):
        self.workdir = workdir
        self.hard_deadline = hard_deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Import from cached bytecode, as an installed package does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def spawn(self, argv: list[str]) -> Op:
        self.count += 1
        out_path = self.workdir / f"op{self.count}.out"
        err_path = self.workdir / f"op{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.workdir, env=self.env)
            watchdog = threading.Timer(
                max(0.0, self.hard_deadline - time.perf_counter()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        if proc.returncode != 0:
            tail = err_path.read_text()[-2000:]
            print(f"  exit {proc.returncode}: {' '.join(argv[1:])}\n{tail}",
                  file=sys.stderr)
        return Op(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, stdout)

    def cli(self, args: list[str]) -> Op:
        return self.spawn([sys.executable, "-m", "tiltquiver.cli", *args])

    def traced(self, args: list[str], spans: Path) -> Op:
        return self.spawn([sys.executable, str(HERE / "tracer.py"), str(spans), *args])


def _fail(why: str) -> bool:
    print(f"  FAILED: {why}", file=sys.stderr)
    return False


def _check(workload, path: str, op: Op) -> bool:
    if op.rc != 0:
        return _fail(f"exit code {op.rc}")
    why = workload.check(path, op.stdout)
    return _fail(why) if why else True


def _keep_going(durations: list[float], deadline: float, hard: float) -> bool:
    """Start another operation if it should end by the deadline, allowing
    half an operation of overrun, and surely before the hard limit."""
    est = statistics.median(durations)
    now = time.perf_counter()
    return now + est / 2 < deadline and now + 2 * est < hard


def _probe(runner: Runner) -> None:
    """Refuse to measure anything but this checkout's package."""
    op = runner.spawn([sys.executable, "-c",
                       "import tiltquiver; print(tiltquiver.__file__)"])
    where = Path(op.stdout.strip() or ".").resolve()
    if op.rc != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"error: tiltquiver does not import from {SRC}")


def measure(runner: Runner, workload, inputs: Inputs, deadline: float,
            hard: float) -> dict:
    attempted = failed = 0
    setup = []
    for _ in range(SETUP_REPS):
        op = runner.cli(SETUP_ARGV)
        attempted += 1
        if op.rc == 0 and op.stdout == SETUP_STDOUT:
            setup.append(op.wall)
        else:
            failed += 1
            _fail(f"set-up operation printed {op.stdout!r}")
    ops: list[Op] = []
    k = 0
    while True:
        path = inputs.path(k)
        op = runner.cli(workload.argv(path))
        attempted += 1
        if _check(workload, path, op):
            ops.append(op)
        else:
            failed += 1
        print(f"  op {k}: wall {op.wall:.3f} s, cpu {op.cpu:.3f} s, "
              f"rss {op.rss_mb:.1f} MB", file=sys.stderr)
        k += 1
        if not _keep_going([o.wall for o in ops] or [op.wall], deadline, hard):
            break
    metrics = {}
    if ops and setup:
        metrics = {
            "wall_s": (statistics.median(o.wall for o in ops), "s"),
            "cpu_s": (statistics.median(o.cpu for o in ops), "s"),
            "peak_rss_mb": (statistics.median(o.rss_mb for o in ops), "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(runner: Runner, workload, inputs: Inputs, deadline: float,
                   hard: float) -> dict:
    attempted = failed = 0
    path = inputs.path(0)
    args = workload.argv(path)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    pairs: list[float] = []
    while True:
        start = time.perf_counter()
        base = runner.cli(args)
        attempted += 1
        if _check(workload, path, base):
            plain.append(base.wall)
        else:
            failed += 1
        spans = runner.workdir / f"spans{len(pairs)}.json"
        op = runner.traced(args, spans)
        attempted += 1
        ok = _check(workload, path, op)
        if ok and op.stdout != base.stdout:
            ok = _fail("traced stdout differs from untraced stdout")
        if ok:
            dump = json.loads(spans.read_text())
            if dump["missing"]:
                print(f"  not traced: {', '.join(dump['missing'])}", file=sys.stderr)
            got = tracer.layer_metrics(dump)
            if layers and tracer.counts(got) != tracer.counts(layers[0]):
                ok = _fail("counts differ between traced operations")
        if ok:
            layers.append(got)
            traced.append(op.wall)
        else:
            failed += 1
        pairs.append(time.perf_counter() - start)
        print(f"  pair {len(pairs) - 1}: untraced {base.wall:.3f} s, "
              f"traced {op.wall:.3f} s", file=sys.stderr)
        if not _keep_going(pairs, deadline, hard):
            break
    metrics = {}
    if layers and plain:
        for name, (value, unit) in layers[0].items():
            if unit in tracer.TIMED_UNITS:
                value = statistics.median(m[name][0] for m in layers)
            metrics[name] = (value, unit)
        name, unit, _ = tracer.OVERHEAD
        metrics[name] = (statistics.median(traced) - statistics.median(plain), unit)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def have_sources() -> bool:
    if (SRC / "tiltquiver" / "cli.py").is_file():
        return True
    print(f"error: no tiltquiver sources under {SRC}", file=sys.stderr)
    return False


def remove_workdir_root() -> None:
    try:
        WORK.rmdir()
    except OSError:
        pass                        # another run is still using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not have_sources():
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    deadline, hard = start + args.seconds, start + HARD_LIMIT_S
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        runner = Runner(workdir, hard)
        _probe(runner)
        inputs = Inputs(workload, args.seed, workdir)
        run = measure_traced if args.trace else measure
        result = run(runner, workload, inputs, deadline, hard)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_workdir_root()
    if not result["metrics"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
