"""Per-layer tracer for one tiltquiver CLI command.

Usage (with the package importable, e.g. ``PYTHONPATH=src``)::

    python perfbench/tracer.py SPANS.json CLI-ARG...

Wraps the public entry points of each layer (exactlin, homsolve, rep_a,
tilt_a, dup, endo, cli) in spans, runs ``tiltquiver.cli.main`` on the
arguments and writes the span totals to SPANS.json.  Standard output and
the exit code are the command's own, so a traced run can be compared
byte for byte with an untraced one.

Timed spans keep a stack of open spans, so each reports inclusive time
and self time (inclusive minus the time of timed spans nested in it).
Accessors called around a million times per command (``DupContext.pool``,
``Pool.ext``, the hom/ext caches) are only counted; a call to a cache
accessor counts as a miss when the solver call that fills the cache
(``rep_a.ext1_dim`` or ``homsolve.hom_basis``) ran inside it.

Names imported by value (``from .rep_a import ext1_dim``) are looked up in
the importing module, so every module binding of a wrapped function is
rebound, not only the one in the defining module.  A target the code no
longer has is skipped and listed under ``"missing"``; its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time


class Span:
    """Totals of one span name over the whole command."""

    __slots__ = ("calls", "incl", "self", "misses",
                 "cells", "nnz", "unknowns", "arcs", "inner")

    def __init__(self) -> None:
        self.calls = self.misses = 0
        self.cells = self.nnz = self.unknowns = self.arcs = self.inner = 0
        self.incl = self.self = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self.rebound: list[str] = []
        self._stack: list[float] = []   # nested timed time, per open span

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def timed(self, name: str, fn, enter=None, leave=None):
        """Wrap fn in a timed span; enter(span, args) runs before the call
        and returns a token, leave(span, token, result) runs after."""
        span = self.span(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = enter(span, args) if enter else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                span.calls += 1
                span.incl += dt
                span.self += dt - nested
                if stack:
                    stack[-1] += dt
            if leave:
                leave(span, token, result)
            return result

        return wrapper

    def counted(self, name: str, fn, fills: Span | None = None):
        """Wrap fn in a call counter; with fills, a call during which
        fills.calls moved counts as a cache miss."""
        span = self.span(name)
        if fills is None:
            def wrapper(*args, **kwargs):
                span.calls += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                before = fills.calls
                result = fn(*args, **kwargs)
                span.calls += 1
                if fills.calls != before:
                    span.misses += 1
                return result
        return wrapper

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr: str, make) -> None:
        """Replace module.attr and every other package binding of it."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("tiltquiver"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self.rebound.append(f"{name.split('.')[-1]}.{key}")

    def patch_method(self, cls, attr: str, make) -> None:
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            self.missing.append(f"{getattr(cls, '__name__', '?')}.{attr}")
            return
        setattr(cls, attr, make(orig))

    def dump(self) -> dict:
        return {
            "spans": {name: {k: getattr(s, k) for k in Span.__slots__}
                      for name, s in sorted(self.spans.items())},
            "missing": self.missing,
            "rebound": sorted(self.rebound),
        }


def _rref_enter(span: Span, args) -> None:
    m = args[0]
    span.cells += m.rows * m.cols
    span.nnz += sum(1 for row in m.data for x in row if x)


def _hom_basis_enter(span: Span, args) -> None:
    src, dst = args[0], args[1]
    span.unknowns += sum(src.dims[s] * dst.dims[s] for s in src.slot_keys)


def install(tr: Tracer) -> None:
    """Wrap the layer entry points the per-layer metrics read."""
    from tiltquiver import cli, dup, endo, exactlin, homsolve, rep_a, tilt_a

    hom = tr.span("homsolve.hom_basis")
    ext = tr.span("rep_a.ext1_dim")
    seq = tr.span("homsolve.exchange_sequence")   # one per certified dup arc

    def graph_enter(span, args):
        return hom.calls

    def graph_leave(span, token, result):
        span.arcs += len(result.arcs)
        span.inner += hom.calls - token

    def certify_enter(span, args):
        return seq.calls

    def certify_leave(span, token, result):
        span.arcs += seq.calls - token

    def timed(name, **hooks):
        return lambda fn: tr.timed(name, fn, **hooks)

    def counted(name, fills=None):
        return lambda fn: tr.counted(name, fn, fills)

    tr.patch_method(exactlin.RatMatrix, "rref",
                    timed("exactlin.rref", enter=_rref_enter))
    tr.patch_function(homsolve, "hom_basis",
                      timed("homsolve.hom_basis", enter=_hom_basis_enter))
    for attr in ("minimal_left_approximation", "cokernel", "exchange_sequence"):
        tr.patch_function(homsolve, attr, timed(f"homsolve.{attr}"))
    tr.patch_function(rep_a, "indecomposables", timed("rep_a.knit"))
    tr.patch_function(rep_a, "kronecker_window", timed("rep_a.knit"))
    tr.patch_function(rep_a, "ext1_dim", timed("rep_a.ext1_dim"))
    tr.patch_function(rep_a, "exchange_sequence", timed("rep_a.exchange_sequence"))
    tr.patch_method(getattr(tilt_a, "Pool", None), "ext",
                    counted("tilt_a.pool_ext", fills=ext))
    for attr in ("tilting_quiver", "kronecker_tilting_quiver"):
        tr.patch_function(tilt_a, attr, timed("tilt_a.graph", enter=graph_enter,
                                              leave=graph_leave))
    ctx = getattr(dup, "DupContext", None)
    tr.patch_method(ctx, "pool", counted("dup.pool"))
    tr.patch_method(ctx, "hom_idx", counted("dup.hom_idx", fills=hom))
    tr.patch_method(ctx, "ext1_idx", counted("dup.ext1_idx", fills=hom))
    tr.patch_method(ctx, "validate_rules", timed("dup.validate_rules"))
    tr.patch_function(dup, "enumerate_tilting_dup", timed("dup.enumerate_tilting_dup"))
    tr.patch_function(dup, "tilting_quiver_dup",
                      timed("dup.tilting_quiver_dup", enter=certify_enter,
                            leave=certify_leave))
    tr.patch_function(endo, "structure_algebra", timed("endo.structure_algebra"))
    tr.patch_function(endo, "projective_resolution",
                      timed("endo.projective_resolution"))
    tr.patch_function(cli, "main", timed("cli.main"))


# -- metrics -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# A metric is (name, unit, better, span, value(span totals, cli.main time)).
# Layer times are reported as shares of the command's time in cli.main:
# a layer a workload never reaches then reads a share of 0, not a time,
# and shares do not move with the speed of the machine.

def _calls(span: str):
    return (f"{span}.calls", "count", "lower", span, lambda s, t: s["calls"])


def _share(span: str, key: str = "self"):
    return (f"{span}.{key}_share", "share", "lower", span,
            lambda s, t: _ratio(s[key], t))


def _hits(span: str):
    return (f"{span}.hit_ratio", "ratio", "higher", span,
            lambda s, t: _ratio(s["calls"] - s["misses"], s["calls"]))


# Each group is headed by the end-to-end metric and workload it should move.
METRICS = [
    # exactlin: cpu_s on kron-w8 first, then classical-d6; little on dup-e6.
    _calls("exactlin.rref"),
    _share("exactlin.rref"),
    ("exactlin.rref.cells", "count", "lower", "exactlin.rref",
     lambda s, t: s["cells"]),
    ("exactlin.rref.nnz_frac", "ratio", "higher", "exactlin.rref",
     lambda s, t: _ratio(s["nnz"], s["cells"])),
    # homsolve: cpu_s on classical-d6 and dup-e6.
    _calls("homsolve.hom_basis"),
    _share("homsolve.hom_basis"),
    ("homsolve.hom_basis.unknowns", "count", "lower", "homsolve.hom_basis",
     lambda s, t: s["unknowns"]),
    _calls("homsolve.minimal_left_approximation"),
    _share("homsolve.minimal_left_approximation"),
    _calls("homsolve.cokernel"),
    _share("homsolve.cokernel"),
    _calls("homsolve.exchange_sequence"),
    _share("homsolve.exchange_sequence"),
    # rep_a (knitting, Ext, classical exchange sequences): kron-w8, classical-d6.
    _share("rep_a.knit", "incl"),
    _calls("rep_a.ext1_dim"),
    _share("rep_a.ext1_dim", "incl"),
    _calls("rep_a.exchange_sequence"),
    _share("rep_a.exchange_sequence", "incl"),
    # tilt_a: classical-d6; a classical hom cache lowers hom_basis_per_arc.
    _calls("tilt_a.pool_ext"),
    _hits("tilt_a.pool_ext"),
    _share("tilt_a.graph", "incl"),
    ("tilt_a.hom_basis_per_arc", "ratio", "lower", "tilt_a.graph",
     lambda s, t: _ratio(s["inner"], s["arcs"])),
    # dup: dup-e6.
    _calls("dup.hom_idx"),
    _hits("dup.hom_idx"),
    _calls("dup.ext1_idx"),
    _hits("dup.ext1_idx"),
    _calls("dup.pool"),
    _share("dup.validate_rules", "incl"),
    _share("dup.enumerate_tilting_dup"),
    _share("dup.tilting_quiver_dup"),
    ("dup.arcs_certified", "count", "higher", "dup.tilting_quiver_dup",
     lambda s, t: s["arcs"]),
    # endo: endo-a3.
    _calls("endo.structure_algebra"),
    _share("endo.structure_algebra", "incl"),
    _calls("endo.projective_resolution"),
    _share("endo.projective_resolution", "incl"),
    # cli: its gap to wall_s is interpreter start and import (setup_s).
    ("cli.main.incl_s", "s", "lower", "cli.main", lambda s, t: s["incl"]),
]

# Reported by the driver, not read from the spans: traced minus untraced
# wall time of the same operation.
OVERHEAD = ("trace.overhead_s", "s", "lower")

TIMED_UNITS = ("s", "share")


def layer_metrics(dump: dict) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) from one tracer dump."""
    empty = {k: 0 for k in Span.__slots__}
    spans = dump["spans"]
    total = spans.get("cli.main", empty)["incl"]
    return {name: (value(spans.get(span, empty), total), unit)
            for name, unit, _, span, value in METRICS}


def counts(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The metrics that must repeat exactly: all but the timings."""
    return {k: v for k, (v, unit) in metrics.items() if unit not in TIMED_UNITS}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json CLI-ARG...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    from tiltquiver import cli
    try:
        rc = cli.main(cli_args)
    finally:
        with open(out, "w") as f:
            json.dump(tr.dump(), f, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
