import itertools
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from reference import complements, simple
from tiltquiver import dup, homsolve, tilt_a
from tiltquiver.quiver_core import named_diagram, parse_quiver
from tiltquiver.rep_a import indecomposables, kronecker_window
from tiltquiver.tilt_a import (
    Pool,
    cliques,
    compatibility_table,
    complement_indices,
    enumerate_tilting,
    exchange_arcs,
    kronecker_tilting_quiver,
    orientation_invariance,
    tilting_quiver,
    verify_tame_delta,
)

A2 = named_diagram("A2")
A3 = named_diagram("A3")


def sums(graph):
    return sorted(t.dim_sum for t in graph.tiltings)


# ------------------------------------------------------------- enumeration


def test_a2_enumeration():
    tilts = enumerate_tilting(A2)
    assert len(tilts) == 2
    assert sorted(t.dim_sum for t in tilts) == [(1, 2), (2, 1)]
    labels = {t.label() for t in tilts}
    assert labels == {"(0,1)+(1,1)", "(1,0)+(1,1)"}


def test_a3_enumeration_dim_sums():
    tilts = enumerate_tilting(A3)
    assert sorted(t.dim_sum for t in tilts) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 2), (2, 3, 1), (3, 2, 1),
    ]


def test_a4_catalan():
    assert len(enumerate_tilting(named_diagram("A4"))) == 14


def test_empty_and_rank_one():
    empty = named_diagram("A1").delete_vertex(0)
    assert len(enumerate_tilting(empty)) == 1
    assert enumerate_tilting(empty)[0].ids == ()
    assert len(enumerate_tilting(named_diagram("A1"))) == 1


def test_enumeration_rejects_tame():
    with pytest.raises(ValueError):
        enumerate_tilting(named_diagram("K"))


# ------------------------------------------------------------- complements


def test_complements_a2():
    two = complements(A2, [(1, 1)])
    assert sorted(str(c) for c in two) == ["(0,1)", "(1,0)"]
    one = complements(A2, [(0, 1)])
    assert [str(c) for c in one] == ["(1,1)"]


def test_complements_a3():
    got = complements(A3, [(1, 1, 1), (0, 0, 1)])
    assert sorted(str(c) for c in got) == ["(0,1,1)", "(1,0,0)"]


def test_complements_validation():
    with pytest.raises(ValueError):
        complements(A3, [(1, 0, 0), (0, 1, 0)])  # not partial tilting
    with pytest.raises(ValueError):
        complements(A3, [(1, 1, 1)])  # wrong size
    with pytest.raises(ValueError):
        complements(A3, [(9, 9, 9), (1, 1, 1)])  # unknown summand


# ------------------------------------------------------------- graph


def test_a2_graph():
    g = tilting_quiver(A2)
    assert len(g.tiltings) == 2 and len(g.arcs) == 1
    (arc,) = g.arcs
    assert g.tiltings[arc.src].dim_sum == (1, 2)   # all projectives
    assert g.tiltings[arc.dst].dim_sum == (2, 1)   # all injectives
    assert str(arc.x) == "(0,1)" and str(arc.y) == "(1,0)"
    assert arc.e_dims == (1, 1)


def test_a3_graph_shape():
    g = tilting_quiver(A3)
    assert len(g.arcs) == 5
    out0 = {i: g.out_degree(i) for i in range(5)}
    in0 = {i: g.in_degree(i) for i in range(5)}
    srcs = [i for i in range(5) if in0[i] == 0]
    snks = [i for i in range(5) if out0[i] == 0]
    assert len(srcs) == 1 and len(snks) == 1
    assert g.tiltings[srcs[0]].dim_sum == (1, 2, 3)
    assert g.tiltings[snks[0]].dim_sum == (3, 2, 1)
    assert g.is_connected()
    # two directed chains from source to sink of lengths 3 and 2
    nxt = {a.src: a.dst for a in g.arcs if a.src != srcs[0]}
    starts = [a.dst for a in g.arcs if a.src == srcs[0]]
    lengths = set()
    for v in starts:
        steps = 1
        while v != snks[0]:
            v = nxt[v]
            steps += 1
        lengths.add(steps)
    assert lengths == {2, 3}


def test_d4_frozen_counts():
    g = tilting_quiver(named_diagram("D4"))
    assert (len(g.tiltings), len(g.arcs)) == (20, 32)


def test_arc_certificates_a3():
    g = tilting_quiver(A3)
    for a in g.arcs:
        xd, yd = a.x.key, a.y.key
        assert tuple(p + q for p, q in zip(xd, yd)) == a.e_dims


def test_handshake():
    for name in ["A2", "A3", "D4"]:
        g = tilting_quiver(named_diagram(name))
        total = sum(g.saturation(i).sigma for i in range(len(g.tiltings)))
        assert total == 2 * len(g.arcs)


def test_saturation_a2():
    g = tilting_quiver(A2)
    i_a = g.index_of(tuple(
        idx for idx, t in enumerate(g.pool.ids) if str(t) in ("(0,1)", "(1,1)")
    ))
    sat = g.saturation(i_a)
    assert sat == (1, 0, 1, False, False)


def test_saturation_matches_dim_criterion_exhaustively():
    for name in ["A2", "A3", "A4", "D4"]:
        g = tilting_quiver(named_diagram(name))
        for i in range(len(g.tiltings)):
            sat = g.saturation(i)
            assert sat.saturated == sat.dim_criterion, g.tiltings[i]


def test_complement_count_vs_sincerity():
    for name in ["A2", "A3", "D4"]:
        q = named_diagram(name)
        g = tilting_quiver(q)
        seen = set()
        for t in g.tiltings:
            for drop in t.indices:
                rest = tuple(j for j in t.indices if j != drop)
                if rest in seen:
                    continue
                seen.add(rest)
                ids = [g.pool.ids[j] for j in rest]
                comp = complements(q, ids)
                dims = [0] * q.n
                for j in rest:
                    for k, d in enumerate(g.pool.reps[j].dim_vector()):
                        dims[k] += d
                zeros = [k for k, d in enumerate(dims) if d == 0]
                assert len(comp) == (2 if not zeros else 1)
                if len(comp) == 1:
                    assert len(zeros) == 1  # non-sincere: exactly one gap


# ------------------------------------------------------------- engine


def _engine_pools():
    d4, kron = named_diagram("D4"), named_diagram("K")
    yield Pool(d4, indecomposables(d4)), 4
    yield Pool(kron, kronecker_window(4)), 2
    for name in ("A3", "D4"):
        ctx = dup.DupContext(named_diagram(name))
        yield ctx, ctx.n


def test_clique_and_complement_search_match_brute_force():
    for pool, n in _engine_pools():
        size = len(pool.table)
        assert pool.table == compatibility_table(size, pool.compatible)
        for k in range(n + 1):
            brute = [c for c in itertools.combinations(range(size), k)
                     if all(pool.compatible(a, b)
                            for a, b in itertools.combinations(c, 2))]
            assert cliques(pool.table, k) == brute, (pool, k)
        for rest in cliques(pool.table, n - 1):
            brute = [c for c in range(size) if c not in rest
                     and all(pool.compatible(c, r) for r in rest)]
            assert complement_indices(pool.table, rest) == brute


@st.composite
def _relations(draw):
    """A random symmetric relation on up to 14 members, as (size, compatible):
    each pair is related with a drawn density."""
    size, density = draw(st.integers(0, 14)), draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(size), 2))
    edges = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    related = {p for p, e in zip(pairs, edges) if e < density}
    return size, lambda i, j: (min(i, j), max(i, j)) in related


def _recording(calls):
    def certify(x, y, rest):
        calls.append((x, y, rest))
        return (x, y, len(calls))
    return certify


@settings(max_examples=300, deadline=None)
@given(_relations(), st.integers(1, 5), st.sampled_from([{2}, {1, 2}]))
def test_mask_engine_matches_the_frozenset_oracle(relation, size, allowed):
    n, compatible = relation
    table, oracle = compatibility_table(n, compatible), ref.compatibility_table(n, compatible)
    assert table == [sum(1 << j for j in row) for row in oracle]
    for k in range(6):
        assert cliques(table, k) == ref.cliques(oracle, k)
    for rest in cliques(table, size - 1):
        assert complement_indices(table, rest) == ref.complement_indices(oracle, rest)
    ids = [f"m{i}" for i in range(n)]
    vertices = cliques(table, size)
    got_calls, want_calls = [], []
    got = exchange_arcs(ids, table, lambda i, j: int(i < j), _recording(got_calls),
                        vertices, frozenset(allowed))
    want = ref.exchange_arcs(ids, oracle, lambda i, j: int(i < j),
                             _recording(want_calls), vertices, frozenset(allowed))
    assert got == want
    assert got_calls == want_calls


def test_indexed_degrees_match_arc_counts():
    for g in (tilting_quiver(named_diagram("D4")),
              dup.tilting_quiver_dup(dup.DupContext(A3))):
        assert len(g.arcs) > 0
        for i, t in enumerate(g.tiltings):
            assert g.out_degree(i) == sum(1 for a in g.arcs if a.src == i)
            assert g.in_degree(i) == sum(1 for a in g.arcs if a.dst == i)
            assert g.index_of(t.indices) == i


class _IncompatiblePool:
    """Rank-one pool of pairwise incompatible members, serving both callers
    of the engine through the one pool interface: its only almost complete
    part (the empty one) has every member as a complement.  ``ext`` is the
    Ext^1 the classical engine orients by, ``ext1_idx`` the duplicated one's."""

    quiver = named_diagram("A1")
    n = 1
    bar_indices = []

    def __init__(self, size, ext):
        self.ids = self.names = list("XYZ"[:size])
        self.dims = [(1,)] * size
        self.table = compatibility_table(size, lambda i, j: False)
        self.ext = self.ext1_idx = ext
        self._tiltings = None  # the tilting list dup.enumerate_tilting_dup keeps

    def hom_idx(self, i, j):
        raise AssertionError("no arc may be certified")

    def validate_rules(self):
        pass


def _unoriented(i, j):
    raise AssertionError("no arc may be oriented")


def test_disallowed_complement_count(monkeypatch):
    stub = _IncompatiblePool(3, _unoriented)
    monkeypatch.setattr(tilt_a, "_dynkin_pool", lambda q: stub)
    with pytest.raises(RuntimeError, match="^almost complete part \\[\\] has 3 completions$"):
        tilting_quiver(stub.quiver)
    g = dup.tilting_quiver_dup(stub)
    assert g.defects == ["almost complete part [] has 3 completions"]
    assert len(g.tiltings) == 3 and g.arcs == []


@pytest.mark.parametrize("ext", [0, 1], ids=["split-both-ways", "nonsplit-both-ways"])
def test_unorientable_exchange(monkeypatch, ext):
    # the only part has two complements with Ext^1 zero, or nonzero, both ways
    stub = _IncompatiblePool(2, lambda i, j: ext)
    monkeypatch.setattr(tilt_a, "_dynkin_pool", lambda q: stub)
    with pytest.raises(RuntimeError, match="^cannot orient the exchange of X / Y$"):
        tilting_quiver(stub.quiver)
    with pytest.raises(RuntimeError, match="^cannot orient the exchange of X / Y$"):
        dup.tilting_quiver_dup(stub)


# ------------------------------------------------------------- kronecker


def test_kronecker_window_graph():
    g = kronecker_tilting_quiver(4)
    assert len(g.tiltings) == 8 and len(g.arcs) == 6
    comps = g.weak_components()
    assert len(comps) == 2 and all(len(c) == 4 for c in comps)
    assert len(g.boundary) == 2
    # interior saturation: the two ends of each chain are non-saturated
    inner = [i for i in range(8) if i not in g.boundary]
    nonsat = [i for i in inner if not g.saturation(i).saturated]
    labels = {g.tiltings[i].label() for i in nonsat}
    assert labels == {"P0+P1", "I0+I1"}
    with pytest.raises(ValueError):
        kronecker_tilting_quiver(0)


def test_kronecker_chain_directions():
    g = kronecker_tilting_quiver(3)
    for a in g.arcs:
        src, dst = g.tiltings[a.src], g.tiltings[a.dst]
        kinds = {iid.kind for iid in src.ids} | {iid.kind for iid in dst.ids}
        assert len(kinds) == 1  # no cross arcs between the chains
        if kinds == {"pp"}:
            assert max(i.key[0] for i in dst.ids) == max(i.key[0] for i in src.ids) + 1
        else:
            assert max(i.key[0] for i in dst.ids) == max(i.key[0] for i in src.ids) - 1


def test_nonsaturated_tame():
    res = verify_tame_delta(6)
    assert res["stats"]["delta"] == ["P0+P1", "I0+I1"]
    assert res["status"] == "pass"     # the delta agrees with the saturation flags
    assert res["stats"]["parts"] == {"0": ["P0+P1"], "1": ["I0+I1"]}
    with pytest.raises(ValueError):
        verify_tame_delta(1)


# ------------------------------------------------------------- orientation


def test_orientation_invariance_small():
    rep = orientation_invariance("A2")
    assert rep["status"] == "pass" and rep["stats"]["t_constant"]
    assert all((e["s"], e["t"], e["m"]) == (2, 1, 2) for e in rep["stats"]["per_orientation"])
    rep3 = orientation_invariance("A3")
    assert all((e["s"], e["t"], e["m"]) == (5, 5, 5) for e in rep3["stats"]["per_orientation"])
    assert rep3["stats"]["orientations"] == len(rep3["stats"]["per_orientation"]) == 4


def test_orientation_invariance_rank_one():
    rep = orientation_invariance("A1")
    assert rep["status"] == "pass"
    assert rep["stats"]["per_orientation"][0] == {
        "orientation": 0, "arrows": [], "s": 1, "t": 0, "m": 1, "lhs": 1, "rhs": 1,
    }


def test_orientation_invariance_cap():
    with pytest.raises(ValueError):
        orientation_invariance("E6")


# ------------------------------------------------------------- index caches


@pytest.mark.parametrize("name", ["A3", "D4", "D5", "window 6"])
def test_cached_radicals_match_fresh_ones(name):
    # every arc reads the radicals of its approximation from the pool's
    # index cache; each must be the coordinates over freshly solved bases
    graph = (kronecker_tilting_quiver(6) if name == "window 6"
             else tilting_quiver(named_diagram(name)))
    pool = graph.pool
    cached = set(pool._radical)
    position = {iid: k for k, iid in enumerate(pool.ids)}

    @cache
    def fresh(i, j):
        return homsolve.hom_basis(pool.reps[i], pool.reps[j])

    triples = set()
    for arc in graph.arcs:
        x = position[arc.x]
        rest = [k for k in graph.tiltings[arc.src].indices if k != x]
        for j, i in itertools.permutations(rest, 2):
            triples.add((x, j, i))
            assert pool.radical_idx(x, j, i) == homsolve.radical_coordinates(
                pool.reps[x], fresh(x, j), fresh(j, i), fresh(x, i))
    assert cached <= triples


def test_classical_radicals_are_composed_once_per_triple(monkeypatch):
    # the seed-1 D6 file: the arcs read 3566 radicals of 585 triples
    ref.clear_caches()
    reads, composed = Counter(), []
    radical_idx, radical_coordinates = homsolve.IndexCache.radical_idx, homsolve.radical_coordinates
    monkeypatch.setattr(homsolve.IndexCache, "radical_idx",
                        lambda self, *key: reads.update([key]) or radical_idx(self, *key))
    monkeypatch.setattr(homsolve, "radical_coordinates",
                        lambda *args: composed.append(args) or radical_coordinates(*args))
    tilting_quiver(parse_quiver(ref.D6_SEED1))
    assert (sum(reads.values()), len(reads), len(composed)) == (3566, 585, 585)


@pytest.mark.parametrize("build", [lambda: tilt_a._dynkin_pool(named_diagram("D5")),
                                   lambda: tilt_a._kron_pool(6)], ids=["D5", "window 6"])
def test_a_pool_solves_each_members_end_once(monkeypatch, build):
    # the knitting's brick check solves each member's End; the pool's
    # rigidity check reads it back from homsolve.end_dim
    ref.clear_caches()
    solved = []
    hom_dim = homsolve.hom_dim
    monkeypatch.setattr(homsolve, "hom_dim",
                        lambda m, n: solved.append((m, n)) or hom_dim(m, n))
    pool = build()
    assert all(m is n for m, n in solved)
    assert sorted(id(m) for m, _ in solved) == sorted(id(rep) for rep in pool.reps)
