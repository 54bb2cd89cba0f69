"""Tests for the Auslander-Reiten table of the duplicated algebra.

The table knits the AR quiver from the projectives' dimension vectors and
reads Hom off hammocks, with no linear algebra.  The rank of the
intertwining system (``homsolve.hom_dim``), which the package no longer
runs for these dimensions, stays here as its oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
from tiltquiver import artable, dup, homsolve
from tiltquiver.quiver_core import named_diagram, orientations

SRC = Path(dup.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

# the slow cases run with TILTQUIVER_SLOW=1 in the environment
SLOW = pytest.mark.skipif(not os.environ.get("TILTQUIVER_SLOW"), reason="slow")

ORACLE_QUIVERS = ([pytest.param(q, id=f"A3/o{k}") for k, q in enumerate(orientations("A3"))]
                  + [pytest.param(q, id=f"D4/o{k}") for k, q in enumerate(orientations("D4"))]
                  + [pytest.param(named_diagram(name), id=name) for name in ("A5", "D5", "E6")]
                  + [pytest.param(named_diagram(name), id=name, marks=SLOW)
                     for name in ("E7", "E8")])


@pytest.mark.parametrize("q", ORACLE_QUIVERS)
def test_table_equals_the_rank_on_every_object_pair(q):
    # pool members and bar projectives, every ordered pair, bars included
    ctx = dup.DupContext(q)
    table, where = ctx._ar
    objs = [m for _, m in ctx.objects()]
    assert [(i, j) for i, m in enumerate(objs) for j, n in enumerate(objs)
            if table.row(where[i])[where[j]] != homsolve.hom_dim(m, n)] == []
    assert all(ctx.hom_dim_idx(i, j) == table.row(where[i])[where[j]]
               for i in range(len(objs)) for j in range(len(objs)))


def test_the_rule_check_solves_no_hom_system(monkeypatch):
    # the End checks of the pool's build aside, validate_rules reads every
    # Hom dimension off the table
    ctx = dup.DupContext(named_diagram("D4"))
    solved = []
    monkeypatch.setattr(homsolve, "_hom_system", lambda *args: solved.append(args))
    ctx.validate_rules()
    assert solved == []


def test_the_table_needs_dynkin_components():
    with pytest.raises(ValueError, match="needs Dynkin components"):
        artable.ARTable(named_diagram("K"))


# The AR side alone, loaded without the package's __init__ (which imports
# exactlin) so that the run shows what it needs: quiver_core, nothing that
# solves.  Per diagram: |ind| = 3 |Phi+|; the pd <= 1 non-bar
# indecomposables are every embedded one (zero top layer, |Phi+| of them)
# plus n more; and the tilting modules containing every bar projective,
# the n-cliques of pool members with Ext^1 zero both ways, are counted.
AR_ONLY = r'''
import sys, types
package = types.ModuleType("tiltquiver")
package.__path__ = [sys.argv[1] + "/tiltquiver"]
sys.modules["tiltquiver"] = package
from tiltquiver import artable
from tiltquiver.quiver_core import named_diagram


def cliques(table, n):
    pool = [table.index[d] for d in table.pool_dims()]
    free = {x: {y for y in pool if not table.ext1(x, y) and not table.ext1(y, x)}
            for x in pool}

    def extend(chosen, candidates):
        if len(chosen) == n:
            return 1
        return sum(extend(chosen + [y], [z for z in candidates if z > y and z in free[y]])
                   for y in candidates)

    return extend([], [x for x in pool if x in free[x]])


for name in sys.argv[2:]:
    q = named_diagram(name)
    table = artable.ar_table(q)
    pool = table.pool_dims()
    embedded = [d for d in table.dims if not any(d[:q.n])]
    assert set(embedded) <= set(pool) and len(pool) == len(embedded) + q.n, name
    print(name, len(table.dims), len(embedded), cliques(table, q.n))
print(sorted(m for m in sys.modules if m.startswith("tiltquiver")))
'''


def _run(flags, script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_the_ar_side_alone_gives_the_pool_and_the_tilting_counts():
    proc = _run([], AR_ONLY, str(SRC), "A3", "D4", "A5", "D5", "E6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "A3 18 6 14", "D4 36 12 50", "A5 45 15 132", "D5 60 20 182", "E6 108 36 833",
        "['tiltquiver', 'tiltquiver.artable', 'tiltquiver.quiver_core']"]


@SLOW
def test_the_ar_side_alone_at_e7_and_e8():
    proc = _run([], AR_ONLY, str(SRC), "E7", "E8")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["E7 189 63 4160", "E8 360 120 25080"]


# Every fault of the sweep on the quiver file argv[1], for each command,
# at most argv[2] of each kind, taken evenly from what the clean run read:
# one entry of a hammock row that DupContext reads (a Hom dimension, an
# AR-formula Ext^1, or an injective's row at tau of a pool member: the pd
# check), + 1 and - 1; one row of one homsolve._hom_system dropped, one
# whose loss lowers the rank; the last map of one solved Hom basis dropped,
# or repeated.  Each faulted run must exit 2 with an engine error and
# print nothing.  Prints the number of faults, then each run that was not.
FAULT_SWEEP = r'''
import contextlib, io, sys
import reference as ref
from tiltquiver import artable, cli, dup, homsolve
from tiltquiver.exactlin import SparseEchelon
from tiltquiver.quiver_core import parse_quiver

path, limit = sys.argv[1], int(sys.argv[2])
COMMANDS = [["dup-kquiver"]] + [["verify", "--theorem", t] for t in ("3.1", "4.1", "4.2", "4.3")]
row, hom_dim_idx, ext1 = artable.ARTable.row, dup.DupContext.hom_dim_idx, artable.ARTable.ext1
hom_system, hom_basis = homsolve._hom_system, homsolve.hom_basis


def run(argv, clear):
    if clear:                                  # call counts start afresh
        ref.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["-q", path])
    return code, out.getvalue(), err.getvalue()


def evenly(items):
    items = sorted(items)
    return items[::-(-len(items) // limit) or 1]


def rank(rows, total):
    echelon = SparseEchelon(total)
    for r in rows:
        echelon.add(r)
    return echelon.rank


def essential(rows, total):
    full = rank(rows, total)
    return next((k for k in range(len(rows)) if rank(rows[:k] + rows[k + 1:], total) < full),
                None)


ctx = dup.DupContext(parse_quiver(open(path).read()))
table, where = ctx._ar
pd_reads = {(i, table.tau[where[x]]) for x in range(len(ctx))
            if table.tau[where[x]] >= 0 for i in table.injectives}
count, failed = 0, []
for argv in COMMANDS:
    reads, systems, bases = set(), [], [0]

    def hom_read(self, i, j):
        reads.add((self._ar[1][i], self._ar[1][j]))
        return hom_dim_idx(self, i, j)

    def ext_read(self, x, y):
        reads.add((y, self.tau[x]))
        return ext1(self, x, y)

    def system_read(m, n):
        systems.append(hom_system(m, n))
        return systems[-1]

    def basis_read(m, n):
        bases[0] += 1
        return hom_basis(m, n)

    dup.DupContext.hom_dim_idx, artable.ARTable.ext1 = hom_read, ext_read
    homsolve._hom_system, homsolve.hom_basis = system_read, basis_read
    if run(argv, True)[0] != 0:
        sys.exit("the clean run fails")
    dup.DupContext.hom_dim_idx, artable.ARTable.ext1 = hom_dim_idx, ext1
    plan = [("entry", at, d) for at in evenly(reads) + evenly(pd_reads - reads) for d in (1, -1)]
    plan += [("row", c, k) for c in evenly(range(len(systems)))
             for k in [essential(systems[c][0], systems[c][2])] if k is not None]
    plan += [("basis", b, f) for b in evenly(range(bases[0])) for f in ("drop", "repeat")]
    for kind, at, change in plan:
        calls = []

        def faulted_row(self, x):
            got = row(self, x)
            if kind == "entry" and x == at[0]:
                got = list(got)
                got[at[1]] += change
            return got

        def faulted_system(m, n):
            rows, offs, total = hom_system(m, n)
            calls.append(None)
            if kind == "row" and len(calls) - 1 == at:
                rows = rows[:change] + rows[change + 1:]
            return rows, offs, total

        def faulted_basis(m, n):
            got = hom_basis(m, n)
            calls.append(None)
            if kind == "basis" and len(calls) - 1 == at:
                got = got[:-1] if change == "drop" else got + got[-1:]
            return got

        artable.ARTable.row = faulted_row
        if kind == "row":
            homsolve._hom_system = faulted_system
        elif kind == "basis":
            homsolve.hom_basis = faulted_basis
        code, out, err = run(argv, kind != "entry")
        artable.ARTable.row, homsolve._hom_system, homsolve.hom_basis = row, hom_system, hom_basis
        count += 1
        if (code, out) != (2, "") or not err.startswith("engine error:"):
            failed.append((argv, kind, at, change, code, out, err))
print(count, "faults")
for case in failed:
    print(case)
'''


# The counts move with the hom systems a clean run solves, of which the
# sweep drops a row from an evenly spaced sample: building the duplicated
# pool when its context is made puts the shifted modules' systems before
# the classical graph's in theorem 4.1 (A3 627 -> 626, D4 254 -> 255), and
# checking every zero Hom dimension by its rank adds systems (A3 -> 633,
# D4 -> 257).
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("name, quiver, limit, count", [
    ("A3", orientations("A3")[1], 24, 633),
    ("D4", orientations("D4")[1], 8, 257),
])
def test_no_fault_in_the_table_or_the_solver_reads_as_a_verdict(tmp_path, flags, name,
                                                                  quiver, limit, count):
    # before the table, an Ext^1 off by one printed false violations on
    # theorem 4.3; now the rule check holds every Ext^1 to the AR formula,
    # and every solved basis is held to a dimension it shares no row with
    path = tmp_path / f"{name}.quiver"
    path.write_text(f"vertices {' '.join(map(str, quiver.vertices))}\n" + "".join(
        f"arrow {a.aid} {a.source} {a.target}\n" for a in quiver.arrows))
    proc = _run(flags, FAULT_SWEEP, str(path), str(limit))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{count} faults\n"
