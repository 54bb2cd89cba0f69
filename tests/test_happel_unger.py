"""The duplicated exchange graph against the Happel-Unger order.

Happel and Unger ("On a partial order of tilting modules", Algebr.
Represent. Theory 2005) order tilting modules by T >= T' iff T^perp
contains T'^perp, where T^perp holds the modules M with Ext^1(T, M) = 0,
and show that the exchange graph is the Hasse diagram of this order, each
arc running down.  For a summand X of projective dimension at most 1,
Ext^1(X, M) = D Hom(M, tau X) (ASS IV.2), so T^perp is read off the
hammocks of ``artable`` as a bit mask over its modules: the modules M with
Hom(M, tau T_i) = 0 for every summand T_i.  A bar projective summand adds
nothing, because its tau is zero.
"""

import pytest

import reference as ref
from tiltquiver import artable, dup
from tiltquiver.quiver_core import named_diagram, orientations, parse_quiver

QUIVERS = ([pytest.param(q, id=f"{name}/o{k}") for name in ("A3", "A4", "D4")
            for k, q in enumerate(orientations(name))]
           + [pytest.param(named_diagram(name), id=name) for name in ("D5", "A5", "E6")]
           + [pytest.param(parse_quiver(ref.E6_SEED1), id="E6_SEED1")])


def _perps(q):
    """The arcs of q's duplicated exchange graph, and T^perp of each vertex
    as a bit mask over the modules of the AR table."""
    ctx = dup.DupContext(q)
    g = dup.tilting_quiver_dup(ctx)
    table = artable.ar_table(q)
    size = len(table.dims)
    # bit m of hom_into[y] is set when Hom(module m, module y) != 0; a row
    # ends in a 0, so a projective's tau (-1) reads hom_into[size] = 0
    hom_into = [0] * (size + 1)
    for m in range(size):
        for y, h in enumerate(table.row(m)):
            if h:
                hom_into[y] |= 1 << m
    tau = [table.tau[table.index[ctx.module(k).dim_vector()]] for k in range(len(ctx))]
    perps = []
    for t in g.tiltings:
        hit = 0
        for k in t.indices:
            hit |= hom_into[tau[k]]
        perps.append((1 << size) - 1 & ~hit)
    return [(a.src, a.dst) for a in g.arcs], perps


def _shrinks(perps, arcs):
    """Every arc runs from a strictly larger T^perp to a smaller one."""
    return all(perps[d] & ~perps[s] == 0 and perps[d] != perps[s] for s, d in arcs)


def _hasse(perps):
    """The covering pairs (larger, smaller) of strict inclusion among the
    (distinct) masks."""
    below = [{j for j, p in enumerate(perps) if j != i and p & ~top == 0}
             for i, top in enumerate(perps)]
    return {(i, j) for i, under in enumerate(below)
            for j in under - set().union(*(below[k] for k in under))}


@pytest.mark.parametrize("q", QUIVERS)
def test_every_arc_shrinks_the_perpendicular_category(q):
    arcs, perps = _perps(q)
    assert len(set(perps)) == len(perps)
    assert _shrinks(perps, arcs)


@pytest.mark.parametrize("q", QUIVERS)
def test_the_exchange_graph_is_the_hasse_diagram(q):
    arcs, perps = _perps(q)
    assert _hasse(perps) == set(arcs)


def test_the_order_checks_bite():
    arcs, perps = _perps(orientations("A3")[0])
    flipped = [arcs[0][::-1]] + arcs[1:]
    assert _shrinks(perps, arcs) and _hasse(perps) == set(arcs)
    assert not _shrinks(perps, flipped)
    assert _hasse(perps) != set(flipped)
