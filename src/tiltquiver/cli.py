"""Command-line surface: enumeration, graph export, per-claim verification.

Every subcommand assembles a structured report (``status``, ``stats``,
``counterexamples``, plus ``identity`` where a counting identity is
involved), prints a stable text rendering to standard output and
optionally serializes the report to JSON.  Timing goes to standard
error so that repeated runs stay byte-identical on standard output.

Exit codes: 0 for pass or window-limited results, 1 when a verifier
found a violation, 2 for usage or input errors and engine failures.  A
reader that closes standard output early (``| head``) changes neither
the exit code nor the JSON report, which is written before printing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import dup, endo, rep_a, tilt_a
from .quiver_core import (
    Quiver,
    QuiverSyntaxError,
    classify,
    named_diagram,
    parse_quiver,
)
from .rep_a import IndecId

DIAGRAMS = ("A2", "A3", "A4", "A5", "D4", "D5")
THEOREMS = ("3.1", "4.1", "4.2", "4.3", "5.1", "5.2", "5.4", "5.5", "5.6")

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
    if isinstance(v, (IndecId, dup.DupPoolId)):
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
        text = c if isinstance(c, str) else json.dumps(_jsonable(c), sort_keys=True)
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
            Path(path).write_text(text)
            written.append(path)
    except OSError:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# input plumbing


def _load_quiver(args) -> tuple[Quiver, str]:
    file = getattr(args, "quiver_file", None)
    diagram = getattr(args, "diagram", None)
    if file and diagram:
        raise UsageError("choose one of -q FILE and --diagram")
    if file:
        return parse_quiver(Path(file).read_text()), f"file {file}"
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


def _report(command: str, desc: str, status: str, stats: dict,
            counterexamples: list, **extra) -> dict:
    rep = {
        "command": command,
        "quiver": desc,
        "status": status,
        "stats": stats,
        "counterexamples": counterexamples,
    }
    rep.update(extra)
    return rep


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
    rep = _report("classify", desc, "pass",
                  {"vertices": q.n, "arrows": len(q.arrows), "classes": classes},
                  [])
    return rep, [f"classify [{desc}]: pass"] + lines, {}


def cmd_indec(args) -> tuple[dict, list[str], dict[str, str]]:
    items, desc = _window_or_quiver(args, rep_a.kronecker_window, rep_a.indecomposables)
    lines = [f"indec [{desc}]: pass", f"indecomposables: {len(items)}"]
    lines.extend(f"{iid} dim={_dimstr(rep.dim_vector())}" for iid, rep in items)
    report = _report("indec", desc, "pass",
                     {"indecomposables": len(items)}, [])
    return report, lines, {}


def cmd_tilting(args) -> tuple[dict, list[str], dict[str, str]]:
    q, desc = _load_quiver(args)
    tilts = tilt_a.enumerate_tilting(q)
    lines = [f"tilting [{desc}]: pass", f"tilting modules: {len(tilts)}"]
    lines.extend(f"{t.label()} dim={_dimstr(t.dim_sum)}" for t in tilts)
    report = _report("tilting", desc, "pass",
                     {"tilting_modules": len(tilts)}, [])
    return report, lines, {}


def cmd_kquiver(args) -> tuple[dict, list[str], dict[str, str]]:
    g, desc = _window_or_quiver(args, tilt_a.kronecker_tilting_quiver, tilt_a.tilting_quiver)
    status = "window-limited" if g.boundary else "pass"
    stats = _graph_stats(g)
    if g.boundary:
        stats["boundary_vertices"] = len(g.boundary)
    graph, files = _graph_lines(g, args.dot)
    lines = [f"kquiver [{desc}]: {status}", _stats_line(stats)] + graph
    return _report("kquiver", desc, status, stats, []), lines, files


def cmd_dup_kquiver(args) -> tuple[dict, list[str], dict[str, str]]:
    q, desc = _load_quiver(args)
    ctx = dup.DupContext(q)
    g = dup.tilting_quiver_dup(ctx)
    violations = list(g.defects)
    stats = {**_graph_stats(g), "degree": ctx.n}
    if args.deep_check:
        deep = dup.deep_check_coresolution(ctx)
        stats["deep_sequences"] = deep["stats"]["sequences_checked"]
        violations.extend(deep["counterexamples"])
    status = "pass" if not violations else "violation"
    report = _report("dup-kquiver", desc, status, stats, violations)
    graph, files = _graph_lines(g, args.dot)
    lines = [f"dup-kquiver [{desc}]: {status}", _stats_line(stats)] + graph
    lines.extend(_ce_lines(report))
    return report, lines, files


def cmd_orientations(args) -> tuple[dict, list[str], dict[str, str]]:
    q, desc = _load_quiver(args)
    sweep = tilt_a.orientation_invariance(q)
    report = _report("orientations", desc, sweep["status"], _sweep_stats(sweep),
                     sweep["violations"])
    lines = [f"orientations [{desc}]: {sweep['status']}", _stats_line(report["stats"])]
    lines.extend(_orientation_rows(sweep))
    lines.extend(_ce_lines(report))
    return report, lines, {}


def _sweep_stats(sweep: dict) -> dict:
    return {
        "n": sweep["n"],
        "orientations": len(sweep["per_orientation"]),
        "t_constant": sweep["t_constant"],
        "per_orientation": sweep["per_orientation"],
    }


def _orientation_rows(sweep: dict) -> list[str]:
    rows = []
    for e in sweep["per_orientation"]:
        arrows = ",".join(f"({u},{v})" for u, v in e["arrows"])
        rows.append(
            f"orientation {e['orientation']}: arrows={arrows} "
            f"s={e['s']} t={e['t']} m={e['m']} identity {e['lhs']}={e['rhs']}"
        )
    return rows


# ---------------------------------------------------------------------------
# per-claim verifiers


def _verify_complement_counts(q: Quiver) -> dict:
    survey = tilt_a.almost_complete_survey(q)
    violations = []
    sincere = 0
    for rec in survey:
        want = 2 if rec.sincere else 1
        sincere += rec.sincere
        if len(rec.complements) != want:
            kind = "sincere" if rec.sincere else "non-sincere"
            violations.append(
                f"{rec.label()} is {kind} with {len(rec.complements)} complements"
            )
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "almost_complete": len(survey),
            "sincere": sincere,
            "non_sincere": len(survey) - sincere,
        },
        "counterexamples": violations,
    }


def _verify_saturation_rule(q: Quiver) -> dict:
    g = tilt_a.tilting_quiver(q)
    violations = []
    saturated = 0
    for i, t in enumerate(g.tiltings):
        sat = g.saturation(i)
        saturated += sat.saturated
        if sat.saturated != sat.dim_criterion:
            violations.append(
                f"{t.label()}: sigma={sat.sigma} but dim={_dimstr(t.dim_sum)}"
            )
    for name, reps in (("algebra", [rep_a.projective(q, a) for a in q.vertices]),
                       ("dual algebra", [rep_a.injective(q, a) for a in q.vertices])):
        want = frozenset(IndecId("dyn", r.dim_vector()) for r in reps)
        hits = [i for i, t in enumerate(g.tiltings) if frozenset(t.ids) == want]
        if len(hits) != 1:
            violations.append(f"{name} is not a vertex of the exchange graph")
        elif g.saturation(hits[0]).saturated:
            violations.append(f"{name} is saturated")
    return {
        "status": "pass" if not violations else "violation",
        "stats": {"tilting_modules": len(g.tiltings), "saturated": saturated},
        "counterexamples": violations,
    }


def _verify_components_nonsaturated(g: tilt_a.TiltingGraph) -> dict:
    violations = []
    limited = 0
    comps = g.weak_components()
    for comp in comps:
        interior = [i for i in comp if i not in g.boundary]
        if any(not g.saturation(i).saturated for i in interior):
            continue
        if len(interior) < len(comp):
            limited += 1
        else:
            violations.append(
                f"component of {g.tiltings[comp[0]].label()} is fully saturated"
            )
    if violations:
        status = "violation"
    elif limited:
        status = "window-limited"
    else:
        status = "pass"
    return {
        "status": status,
        "stats": {
            "components": len(comps),
            "vertices": len(g.tiltings),
            "boundary_vertices": len(g.boundary),
            "unresolved_components": limited,
        },
        "counterexamples": violations,
    }


def _verify_tame_delta(w: int) -> dict:
    ns = tilt_a.nonsaturated_tame(w)
    violations = []
    if len(ns.delta) != 2:
        violations.append(f"delta has {len(ns.delta)} members, expected 2")
    kinds = sorted("".join(sorted({i.kind for i in t.ids})) for t in ns.delta)
    if kinds != ["pi", "pp"]:
        violations.append(
            "delta is not the algebra/dual pair: "
            + "; ".join(t.label() for t in ns.delta)
        )
    for t in ns.delta:
        orbits = {i.key[0] for i in t.ids}
        if orbits != {0, 1}:
            violations.append(f"{t.label()} is not an end-of-orbit module")
    if not ns.agrees_with_flags:
        violations.append(
            "deleted-vertex construction disagrees with saturation flags: "
            + "; ".join(t.label() for t in ns.interior_nonsaturated)
        )
    return {
        "status": "pass" if not violations else "violation",
        "stats": {
            "window": w,
            "delta": [t.label() for t in ns.delta],
            "parts": {str(v): [t.label() for t in part]
                      for v, part in sorted(ns.parts.items())},
            "interior_nonsaturated": len(ns.interior_nonsaturated),
        },
        "counterexamples": violations,
    }


def _verify_identity(q: Quiver) -> dict:
    sweep = tilt_a.orientation_invariance(q)
    first = sweep["per_orientation"][0]
    return {
        "status": sweep["status"],
        "stats": _sweep_stats(sweep),
        "counterexamples": sweep["violations"],
        "identity": {
            "n": sweep["n"],
            "s": first["s"],
            "t": first["t"],
            "m": first["m"],
            "lhs": first["lhs"],
            "rhs": first["rhs"],
        },
    }


def cmd_verify(args) -> tuple[dict, list[str], dict[str, str]]:
    tok = args.theorem
    deep_ok = tok in ("3.1", "4.1", "4.2", "4.3")
    if args.deep_check and not deep_ok:
        raise UsageError(f"--deep-check does not apply to theorem {tok}")
    ctx = None
    if tok in ("3.1", "4.1", "4.2", "4.3", "5.1", "5.2", "5.6"):
        if getattr(args, "window", None) is not None:
            raise UsageError(f"--window does not apply to theorem {tok}")
        q, desc = _load_quiver(args)
        if tok in ("3.1", "4.1", "4.2", "4.3"):
            ctx = dup.DupContext(q)
        if tok == "3.1":
            result = endo.verify_endo_global_dimension(ctx)
        elif tok == "4.1":
            result = dup.verify_embedding(ctx)
        elif tok == "4.2":
            result = dup.verify_regularity(ctx)
        elif tok == "4.3":
            result = dup.verify_shift_completion(ctx)
        elif tok == "5.1":
            result = _verify_complement_counts(q)
        elif tok == "5.2":
            result = _verify_saturation_rule(q)
        else:
            result = _verify_identity(q)
    elif tok == "5.4":
        g, desc = _window_or_quiver(args, tilt_a.kronecker_tilting_quiver,
                                    tilt_a.tilting_quiver)
        result = _verify_components_nonsaturated(g)
    else:  # 5.5
        if getattr(args, "quiver_file", None) or getattr(args, "diagram", None):
            raise UsageError("theorem 5.5 is the double-arrow case; use --window")
        w = args.window if args.window is not None else 6
        desc = f"window {w}"
        result = _verify_tame_delta(w)
    status = result["status"]
    stats = dict(result["stats"])
    counterexamples = list(result["counterexamples"])
    if args.deep_check:
        deep = dup.deep_check_coresolution(ctx)
        stats["deep_sequences"] = deep["stats"]["sequences_checked"]
        counterexamples.extend(deep["counterexamples"])
        if deep["status"] != "pass" and status == "pass":
            status = deep["status"]
    report = _report("verify", desc, status, stats, counterexamples,
                     theorem=tok)
    if "identity" in result:
        report["identity"] = result["identity"]
    lines = [f"theorem {tok} [{desc}]: {status}", _stats_line(stats)]
    if "identity" in report:
        i = report["identity"]
        lines.append(
            f"identity: 2*t + m = {i['lhs']} = n*s = {i['rhs']}"
        )
    if tok == "5.6":
        lines.extend(_orientation_rows({"per_orientation": stats["per_orientation"]}))
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
        report, lines, files = _HANDLERS[args.command](args)
        if getattr(args, "json", None):
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


if __name__ == "__main__":
    sys.exit(main())
