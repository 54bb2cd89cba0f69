"""Both exchange graphs against an outside oracle: cluster mutation.

``cluster_oracle`` builds the exchange graph of the cluster algebra of a
quiver by Fomin-Zelevinsky mutation, with the standard library only.  The
duplicated algebra's graph must be that graph, vertex for vertex and arc
for arc, and the classical graph its positive part: the clusters with no
d-vector -alpha_v, and the arcs between them.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cluster_oracle
from tiltquiver import dup, homsolve, tilt_a
from tiltquiver.quiver_core import named_diagram, orientations

TESTS = Path(__file__).resolve().parent

# the slow case runs with TILTQUIVER_SLOW=1 in the environment
SLOW = pytest.mark.skipif(not os.environ.get("TILTQUIVER_SLOW"), reason="slow")

QUIVERS = ([pytest.param(q, id=f"{name}/o{k}") for name in ("A3", "A4", "D4")
            for k, q in enumerate(orientations(name))]
           + [pytest.param(named_diagram(name), id=name) for name in ("D5", "A5", "E6")]
           + [pytest.param(named_diagram("E7"), id="E7", marks=SLOW)])


def _oracle(q):
    return cluster_oracle.exchange_graph(list(q.vertices),
                                         [(a.source, a.target) for a in q.arrows])


def _dup_graph(q, monkeypatch):
    """The context, the duplicated exchange graph of q, and the approximation
    key each exchange pair (x, y) was certified with."""
    ctx, keys, in_add = dup.DupContext(q), {}, homsolve.cokernel_in_add

    def recorded(c, x, key):
        check = in_add(c, x, key)

        def checked(members):
            keys[(x, members[0])] = key
            return check(members)
        return checked

    monkeypatch.setattr(homsolve, "cokernel_in_add", recorded)
    return ctx, dup.tilting_quiver_dup(ctx), keys


def _d_vectors(ctx):
    """The d-vector of each pool member: -alpha_v for W_v, the dimension
    vector of an embedded module."""
    n, v_pos = ctx.n, ctx.quiver.v_pos
    return [tuple(-int(v_pos[pid.key] == i) for i in range(n)) if pid.kind == "W"
            else ctx.classical.dims[k] for k, pid in enumerate(ctx.ids)]


def _dup_view(ctx, g, keys, d):
    """The graph in the oracle's terms: its vertices, and per arc (x, y,
    the non-bar summands of its pair's key with multiplicity)."""
    position = {pid: k for k, pid in enumerate(ctx.ids)}
    vertices = [frozenset(d[k] for k in t.indices) for t in g.tiltings]
    arcs = {}
    for a in g.arcs:
        x, y = position[a.x], position[a.y]
        arcs[(vertices[a.src], vertices[a.dst])] = (
            d[x], d[y], Counter(d[k] for k, _ in keys[(x, y)] if k < len(ctx)))
    return vertices, arcs


def _classical_view(g):
    d = g.pool.dims
    position = {iid: k for k, iid in enumerate(g.pool.ids)}
    vertices = [frozenset(d[k] for k in t.indices) for t in g.tiltings]
    return vertices, {(vertices[a.src], vertices[a.dst]): (d[position[a.x]], d[position[a.y]],
                                                           a.e_dims) for a in g.arcs}


def _positive_part(q):
    """The oracle's clusters of positive d-vectors, and its arcs between
    them with each middle term's dimension vector."""
    clusters, arcs = _oracle(q)
    positive = {c for c in clusters if all(min(dv) >= 0 for dv in c)}
    return positive, {(s, t): (x, y, tuple(sum(k * dv[i] for dv, k in middle.items())
                                           for i in range(q.n)))
                      for (s, t), (x, y, middle) in arcs.items()
                      if s in positive and t in positive}


def _agrees(view, want):
    vertices, arcs = view
    return len(set(vertices)) == len(vertices) and (set(vertices), arcs) == want


@pytest.mark.parametrize("q", QUIVERS)
def test_duplicated_graph_is_the_cluster_exchange_graph(q, monkeypatch):
    ctx, g, keys = _dup_graph(q, monkeypatch)
    view = _dup_view(ctx, g, keys, _d_vectors(ctx))
    assert len(view[1]) == len(g.arcs)
    assert _agrees(view, _oracle(q))


@pytest.mark.parametrize("q", QUIVERS)
def test_classical_graph_is_the_positive_part(q):
    g = tilt_a.tilting_quiver(q)
    view = _classical_view(g)
    assert len(view[1]) == len(g.arcs)
    assert _agrees(view, _positive_part(q))


def _reversed(view):
    vertices, arcs = view
    (s, t), (x, y, middle) = next(iter(arcs.items()))
    arcs = dict(arcs)
    del arcs[(s, t)]
    arcs[(t, s)] = (y, x, middle)
    return vertices, arcs


def test_the_comparisons_bite(monkeypatch):
    # one reversed arc, one pair of shifted modules swapped, one summand
    # dropped from one key (or from one middle term): each is seen
    q = orientations("D4")[1]
    ctx, g, keys = _dup_graph(q, monkeypatch)
    d, want = _d_vectors(ctx), _oracle(q)
    assert _agrees(_dup_view(ctx, g, keys, d), want)
    assert not _agrees(_reversed(_dup_view(ctx, g, keys, d)), want)
    w0, w1 = len(ctx) - ctx.n, len(ctx) - ctx.n + 1
    swapped = d[:w0] + [d[w1], d[w0]] + d[w1 + 1:]
    assert not _agrees(_dup_view(ctx, g, keys, swapped), want)
    pair, drop = next((p, c) for p, key in keys.items() for c in key if c[0] < len(ctx))
    keys[pair] = tuple(c for c in keys[pair] if c != drop)
    assert not _agrees(_dup_view(ctx, g, keys, d), want)

    classical, positive = _classical_view(tilt_a.tilting_quiver(q)), _positive_part(q)
    assert _agrees(classical, positive)
    assert not _agrees(_reversed(classical), positive)
    vertices, arcs = classical
    arc, (x, y, e_dims) = next((arc, got) for arc, got in arcs.items() if any(got[2]))
    summand = next(iter(_oracle(q)[1][arc][2]))
    arcs = {**arcs, arc: (x, y, tuple(e - s for e, s in zip(e_dims, summand)))}
    assert not _agrees((vertices, arcs), positive)


def test_the_oracle_checks_its_own_mutation(monkeypatch):
    # matrix mutation that keeps the sign of column k off row k: every
    # c-vector stays sign-coherent, but mutating back at k returns to the
    # start cluster with another exchange matrix
    mutate = cluster_oracle._mutate_matrix

    def unsigned_column(m, k):
        out = mutate(m, k)
        for i, row in enumerate(out):
            if i != k:
                row[k] = -row[k]
        return out

    q = orientations("A3")[0]
    _oracle(q)
    monkeypatch.setattr(cluster_oracle, "_mutate_matrix", unsigned_column)
    with pytest.raises(ValueError, match="reached with another seed"):
        _oracle(q)


def test_the_oracle_imports_no_package_module():
    script = ("import sys, cluster_oracle\n"
              "cluster_oracle.exchange_graph([0, 1, 2], [(0, 1), (2, 1)])\n"
              "print(sorted(m for m in sys.modules if m.startswith('tiltquiver')))\n")
    env = dict(os.environ, PYTHONPATH=str(TESTS))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
