"""Command-line surface: parsing, dispatch and printing.

Each claim's checker lives beside its engine (theorem 3.1 in ``endo``,
4.x in ``dup``, 5.x in ``tilt_a``) and returns a ``tilt_a.verdict``.
Every subcommand assembles a structured report (``status``, ``stats``,
``counterexamples``, plus ``identity`` where a counting identity is
involved), prints a stable text rendering to standard output and
optionally serializes the report to JSON.  Timing goes to standard
error so that repeated runs stay byte-identical on standard output.

Exit codes: 0 for pass or window-limited results, 1 when a verifier
found a violation, 2 for usage or input errors and engine failures.  A
reader that closes standard output early (``| head``) changes neither
the exit code nor the JSON report, which is written before printing.

A command imports only what it runs: the duplicated-algebra modules
load in the handlers that use them, and ``json`` only when a report or
a structured counterexample is written.  The process entry ``entry``
freezes the heap the imports left behind, so the cyclic collector does
not walk it again on every full collection; ``main`` itself leaves the
collector as it is, for callers that run it in process.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from . import rep_a, tilt_a
from .quiver_core import (
    Quiver,
    QuiverSyntaxError,
    classify,
    named_diagram,
    parse_quiver,
)
from .rep_a import IndecId

DIAGRAMS = ("A2", "A3", "A4", "A5", "D4", "D5")

# theorem token -> (input, checker module, checker name).  The input is
# "dup" (a DupContext, the one input --deep-check applies to), "quiver",
# "graph" (the exchange graph of --window W or of a quiver) or "window"
# (--window W, default 6); --window applies to the last two.  The checker
# is looked up when it runs, once its module, and only that, is imported.
_THEOREMS = {
    "3.1": ("dup", "endo", "verify_endo_global_dimension"),
    "4.1": ("dup", "dup", "verify_embedding"),
    "4.2": ("dup", "dup", "verify_regularity"),
    "4.3": ("dup", "dup", "verify_shift_completion"),
    "5.1": ("quiver", "tilt_a", "verify_complement_counts"),
    "5.2": ("quiver", "tilt_a", "verify_saturation_rule"),
    "5.4": ("graph", "tilt_a", "verify_components_nonsaturated"),
    "5.5": ("window", "tilt_a", "verify_tame_delta"),
    "5.6": ("quiver", "tilt_a", "verify_identity"),
}
THEOREMS = tuple(_THEOREMS)

_EXIT = {"pass": 0, "window-limited": 0, "violation": 1, "error": 2}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# small formatting helpers


def _dimstr(t) -> str:
    return "(" + ",".join(str(x) for x in t) + ")"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v) if v else "-"
    return str(v)


def _jsonable(v):
    # a report holds a DupPoolId only if dup is loaded: never import it here
    dup = sys.modules.get(f"{__package__}.dup")
    if isinstance(v, IndecId) or (dup is not None and isinstance(v, dup.DupPoolId)):
        return str(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return str(v)


def _stats_line(stats: dict) -> str:
    parts = []
    for k in sorted(stats):
        v = stats[k]
        if isinstance(v, dict):
            continue
        if isinstance(v, (list, tuple)) and v and isinstance(v[0], dict):
            continue
        parts.append(f"{k}={_fmt(v)}")
    return "stats: " + " ".join(parts)


def _ce_lines(report: dict) -> list[str]:
    out = []
    for c in report.get("counterexamples", []):
        if isinstance(c, str):
            text = c
        else:
            import json

            text = json.dumps(_jsonable(c), sort_keys=True)
        out.append(f"counterexample: {text}")
    return out


def _graph_stats(g: tilt_a.TiltingGraph) -> dict:
    return {"vertices": len(g.tiltings), "arcs": len(g.arcs), "connected": g.is_connected()}


def _graph_lines(g: tilt_a.TiltingGraph, dot: str | None) -> tuple[list[str], dict[str, str]]:
    """Vertex labels (window rim marked) and arcs, and the files to write:
    the DOT text under its path when ``dot`` is given."""
    labels = [t.label() for t in g.tiltings]
    lines = [lab + (" (window rim)" if i in g.boundary else "")
             for i, lab in enumerate(labels)]
    lines.extend(f"{labels[a.src]} -> {labels[a.dst]}" for a in g.arcs)
    if not dot:
        return lines, {}
    text = ["digraph K {"]
    text.extend(f'  "{lab}";' for lab in labels)
    text.extend(f'  "{labels[a.src]}" -> "{labels[a.dst]}";' for a in g.arcs)
    text.append("}")
    lines.append(f"dot written: {dot}")
    return lines, {dot: "\n".join(text) + "\n"}


def _write_all(files: dict[str, str]) -> None:
    """Write each file, or none: on an ``OSError`` the files already
    written are removed before it propagates."""
    written = []
    try:
        for path, text in files.items():
            with open(path, "w") as f:
                f.write(text)
            written.append(path)
    except OSError:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise


# ---------------------------------------------------------------------------
# input plumbing


def _load_quiver(args) -> tuple[Quiver, str]:
    file = getattr(args, "quiver_file", None)
    diagram = getattr(args, "diagram", None)
    if file and diagram:
        raise UsageError("choose one of -q FILE and --diagram")
    if file:
        with open(file) as f:
            return parse_quiver(f.read()), f"file {file}"
    if diagram:
        return named_diagram(diagram), f"diagram {diagram}"
    raise UsageError("a quiver is required: pass -q FILE or --diagram NAME")


def _window_or_quiver(args, from_window, from_quiver):
    """``from_window(W)`` on ``--window W``, else ``from_quiver`` on the
    loaded quiver; returns the result and the input's description."""
    if args.window is not None:
        if getattr(args, "quiver_file", None) or getattr(args, "diagram", None):
            raise UsageError("--window replaces the quiver; drop -q/--diagram")
        return from_window(args.window), f"window {args.window}"
    q, desc = _load_quiver(args)
    return from_quiver(q), desc


def _report(command: str, desc: str, result: dict, **extra) -> dict:
    """The command's report: a ``tilt_a.verdict`` (and what its checker
    added) under the command and input names."""
    return {"command": command, "quiver": desc, **result, **extra}


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> tuple[dict, list[str], dict[str, str]]:
    q, desc = _load_quiver(args)
    classes = []
    lines = [f"quiver: {q.n} vertices, {len(q.arrows)} arrows"]
    if q.is_connected():
        cls = classify(q)
        classes.append(f"{cls.kind} {cls.name or '-'}")
        lines.append(f"class: {classes[0]}")
    else:
        for comp in q.components():
            cls = classify(comp)
            classes.append(f"{cls.kind} {cls.name or '-'}")
            lines.append(f"component {list(comp.vertices)}: {classes[-1]}")
    rep = _report("classify", desc, tilt_a.verdict(
        [], {"vertices": q.n, "arrows": len(q.arrows), "classes": classes}))
    return rep, [f"classify [{desc}]: pass"] + lines, {}


def cmd_indec(args) -> tuple[dict, list[str], dict[str, str]]:
    items, desc = _window_or_quiver(args, rep_a.kronecker_window, rep_a.indecomposables)
    lines = [f"indec [{desc}]: pass", f"indecomposables: {len(items)}"]
    lines.extend(f"{iid} dim={_dimstr(rep.dim_vector())}" for iid, rep in items)
    report = _report("indec", desc, tilt_a.verdict([], {"indecomposables": len(items)}))
    return report, lines, {}


def cmd_tilting(args) -> tuple[dict, list[str], dict[str, str]]:
    q, desc = _load_quiver(args)
    tilts = tilt_a.enumerate_tilting(q)
    lines = [f"tilting [{desc}]: pass", f"tilting modules: {len(tilts)}"]
    lines.extend(f"{t.label()} dim={_dimstr(t.dim_sum)}" for t in tilts)
    report = _report("tilting", desc, tilt_a.verdict([], {"tilting_modules": len(tilts)}))
    return report, lines, {}


def cmd_kquiver(args) -> tuple[dict, list[str], dict[str, str]]:
    g, desc = _graph_input(args)
    result = tilt_a.verdict([], _graph_stats(g))
    if g.boundary:
        result["stats"]["boundary_vertices"] = len(g.boundary)
        result["status"] = "window-limited"
    graph, files = _graph_lines(g, args.dot)
    lines = [f"kquiver [{desc}]: {result['status']}", _stats_line(result["stats"])] + graph
    return _report("kquiver", desc, result), lines, files


def cmd_dup_kquiver(args) -> tuple[dict, list[str], dict[str, str]]:
    from . import dup

    q, desc = _load_quiver(args)
    ctx = dup.DupContext(q)
    g = dup.tilting_quiver_dup(ctx)
    result = tilt_a.verdict(list(g.defects), {**_graph_stats(g), "degree": ctx.n})
    if args.deep_check:
        result = _deep_checked(ctx, result)
    report = _report("dup-kquiver", desc, result)
    graph, files = _graph_lines(g, args.dot)
    lines = [f"dup-kquiver [{desc}]: {report['status']}", _stats_line(report["stats"])] + graph
    lines.extend(_ce_lines(report))
    return report, lines, files


def _deep_checked(ctx, result: dict) -> dict:
    """``result`` with the deep check of ``ctx`` merged in: its sequences
    counted as ``deep_sequences``, its counterexamples appended, and the
    status set by ``tilt_a.verdict``."""
    from . import dup

    deep = dup.deep_check_coresolution(ctx)
    return tilt_a.verdict(result["counterexamples"] + deep["counterexamples"],
                          {**result["stats"], "deep_sequences": deep["stats"]["sequences_checked"]})


def cmd_orientations(args) -> tuple[dict, list[str], dict[str, str]]:
    q, desc = _load_quiver(args)
    report = _report("orientations", desc, tilt_a.orientation_invariance(q))
    lines = [f"orientations [{desc}]: {report['status']}", _stats_line(report["stats"])]
    lines.extend(_orientation_rows(report["stats"]))
    lines.extend(_ce_lines(report))
    return report, lines, {}


def _orientation_rows(stats: dict) -> list[str]:
    rows = []
    for e in stats["per_orientation"]:
        arrows = ",".join(f"({u},{v})" for u, v in e["arrows"])
        rows.append(
            f"orientation {e['orientation']}: arrows={arrows} "
            f"s={e['s']} t={e['t']} m={e['m']} identity {e['lhs']}={e['rhs']}"
        )
    return rows


# ---------------------------------------------------------------------------
# verify: each theorem's input


def _quiver_input(args) -> tuple[Quiver, str]:
    if args.window is not None:
        raise UsageError(f"--window does not apply to theorem {args.theorem}")
    return _load_quiver(args)


def _dup_input(args):
    from . import dup

    q, desc = _quiver_input(args)
    return dup.DupContext(q), desc


def _graph_input(args) -> tuple[tilt_a.TiltingGraph, str]:
    return _window_or_quiver(args, tilt_a.kronecker_tilting_quiver, tilt_a.tilting_quiver)


def _window_input(args) -> tuple[int, str]:
    if args.quiver_file or args.diagram:
        raise UsageError(f"theorem {args.theorem} is the double-arrow case; use --window")
    w = 6 if args.window is None else args.window
    return w, f"window {w}"


_INPUTS = {"dup": _dup_input, "quiver": _quiver_input, "graph": _graph_input,
           "window": _window_input}


def cmd_verify(args) -> tuple[dict, list[str], dict[str, str]]:
    tok = args.theorem
    kind, module, name = _THEOREMS[tok]
    if args.deep_check and kind != "dup":
        raise UsageError(f"--deep-check does not apply to theorem {tok}")
    subject, desc = _INPUTS[kind](args)
    home = getattr(__import__(__package__, fromlist=[module]), module)
    result = getattr(home, name)(subject)
    if args.deep_check:
        result = _deep_checked(subject, result)
    report = _report("verify", desc, result, theorem=tok)
    lines = [f"theorem {tok} [{desc}]: {report['status']}", _stats_line(report["stats"])]
    if "identity" in report:
        i = report["identity"]
        lines.append(f"identity: 2*t + m = {i['lhs']} = n*s = {i['rhs']}")
        lines.extend(_orientation_rows(report["stats"]))
    lines.extend(_ce_lines(report))
    return report, lines, {}


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltquiver",
        description="Tilting-module exchange graphs over quiver algebras "
                    "and their duplicated extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def quiver_flags(p, window: bool = False):
        p.add_argument("-q", "--quiver-file", metavar="FILE",
                       help="quiver description file")
        p.add_argument("--diagram", choices=DIAGRAMS,
                       help="named diagram instead of a file")
        if window:
            p.add_argument("--window", type=int, metavar="W",
                           help="double-arrow orbit window")
        p.add_argument("--json", metavar="FILE",
                       help="write the structured report here")

    p = sub.add_parser("classify", help="diagram class of a quiver")
    quiver_flags(p)
    p = sub.add_parser("indec", help="list the indecomposables")
    quiver_flags(p, window=True)
    p = sub.add_parser("tilting", help="enumerate the tilting modules")
    quiver_flags(p)
    p = sub.add_parser("kquiver", help="exchange graph of tilting modules")
    quiver_flags(p, window=True)
    p.add_argument("--dot", metavar="FILE", help="write a DOT digraph here")
    p = sub.add_parser("dup-kquiver",
                       help="exchange graph over the duplicated algebra")
    quiver_flags(p)
    p.add_argument("--dot", metavar="FILE", help="write a DOT digraph here")
    p.add_argument("--deep-check", action="store_true",
                   help="also certify the two-term coresolutions")
    p = sub.add_parser("verify", help="run a single claim verifier")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    quiver_flags(p, window=True)
    p.add_argument("--deep-check", action="store_true",
                   help="also certify the two-term coresolutions")
    p = sub.add_parser("orientations",
                       help="per-orientation counts and the counting identity")
    quiver_flags(p)
    return parser


_HANDLERS = {
    "classify": cmd_classify,
    "indec": cmd_indec,
    "tilting": cmd_tilting,
    "kquiver": cmd_kquiver,
    "dup-kquiver": cmd_dup_kquiver,
    "verify": cmd_verify,
    "orientations": cmd_orientations,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:         # argparse already reported
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        dot, report_file = getattr(args, "dot", None), getattr(args, "json", None)
        if dot and report_file and os.path.realpath(dot) == os.path.realpath(report_file):
            raise UsageError("--dot and --json name the same file")
        report, lines, files = _HANDLERS[args.command](args)
        if getattr(args, "json", None):
            import json

            files[args.json] = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
        _write_all(files)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuiverSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, ArithmeticError, KeyError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 2
    print(f"time: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; send the rest, and the flush at
        # interpreter exit, to devnull so the verdict's exit code stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return _EXIT.get(report["status"], 2)


def entry() -> None:
    """Run ``main`` as the whole process: freeze what start-up allocated,
    then exit with its code."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
