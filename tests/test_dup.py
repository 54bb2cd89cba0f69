"""Tests for the duplicated-algebra triples and their tilting theory."""

import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import reference as ref
from tiltquiver import cli, dup, homsolve, rep_a, tilt_a
from tiltquiver.exactlin import RatMatrix
from tiltquiver.quiver_core import named_diagram, orientations, parse_quiver

A2 = named_diagram("A2")
A3 = named_diagram("A3")


def dims(m):
    t = tuple(m.dims[("t", v)] for v in m.quiver.vertices)
    b = tuple(m.dims[("b", v)] for v in m.quiver.vertices)
    return t, b


# ---------------------------------------------------------------------------
# structure


def test_solver_labels_are_maximal_paths_only():
    lay = dup._layout(A2)
    m_labels = [lab for lab in lay.ends if lab[0] == "m"]
    assert m_labels == [("m", 0, ("e0",))]


def _maximal_paths(q):
    """(start, path) of every path that no arrow extends at either end."""
    return [(u, p) for (u, v), paths in q.all_paths().items() for p in paths
            if not q.in_arrows(u) and not q.out_arrows(v)]


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "D4"])
def test_every_object_is_a_module_over_the_duplicated_quiver(name):
    # it stores each arrow in both layers, then one arrow per maximal
    # path, and satisfies the relations
    for q in orientations(name):
        want = [(layer, a.aid) for a in q.arrows for layer in ("t", "b")]
        want += [("m", u, p) for u, p in _maximal_paths(q)]
        for _, m in dup.DupContext(q).objects():
            assert list(m.maps) == want
            dup.validate(m)


def test_stored_label_counts_on_e6_and_e8():
    # one label per arrow in each layer plus one per maximal path
    for q, want in ((parse_quiver(ref.E6_SEED1), 13), (named_diagram("E8"), 16)):
        assert len(dup.slot_projective(q, ("t", q.vertices[0])).maps) == want


def _triple_of(q, dims, ones):
    """The triple with slot dimensions ``dims`` (at most 1 each), the
    labels in ``ones`` acting as 1 and every other label as 0."""
    return homsolve.Rep(q, dup._layout(q), dims, {
        lab: RatMatrix([[1]]) if lab in ones
        else RatMatrix.zeros(dims.get(b, 0), dims.get(a, 0))
        for lab, (a, b) in dup._layout(q).ends.items()})


def test_relation_check_is_complete():
    # 0 <-a- 1 -b-> 2: the bottom arrow a after the connecting arrow of
    # the maximal path b is the dual of no path, so it must act as zero
    q = parse_quiver("vertices 0 1 2\narrow a 1 0\narrow b 1 2\n")
    dims = {("t", 2): 1, ("b", 1): 1}
    dup.validate(_triple_of(q, dims, {("m", 1, ("b",))}))
    with pytest.raises(RuntimeError, match="relation"):
        dup.validate(_triple_of(q, {**dims, ("b", 0): 1}, {("m", 1, ("b",)), ("b", "a")}))
    # 0 -a-> 1 <-b- 2: both maximal paths end at 1, where a after the
    # connecting arrow of a and b after that of b are the same dual
    q = parse_quiver("vertices 0 1 2\narrow a 0 1\narrow b 2 1\n")
    dims = {("t", 1): 1, ("b", 0): 1, ("b", 1): 1, ("b", 2): 1}
    both = {("m", 0, ("a",)), ("b", "a"), ("m", 2, ("b",)), ("b", "b")}
    dup.validate(_triple_of(q, dims, both))
    with pytest.raises(RuntimeError, match="relation"):
        dup.validate(_triple_of(q, dims, both - {("b", "b")}))


def test_bar_projective_a2():
    b0 = dup.bar_projective(A2, 0)
    b1 = dup.bar_projective(A2, 1)
    dup.validate(b0)
    dup.validate(b1)
    assert dims(b0) == ((1, 1), (1, 0))
    assert dims(b1) == ((0, 1), (1, 1))
    # the connecting matrix along the arrow path is the nonzero one
    assert b0.maps[("m", 0, ("e0",))].rank() == 1
    assert b1.maps[("m", 0, ("e0",))].rank() == 1


def test_bar_projectives_are_projective_and_injective():
    # Ext^1(-, bar) vanishes on the 2n simples, so on every module (by
    # composition series), and on every object in particular
    for q in (A2, A3):
        ctx = dup.DupContext(q)
        simples = [layer(q, ref.simple(q, a)) for a in q.vertices
                   for layer in (dup.embed, ref.embed_top)]
        for a in q.vertices:
            b = dup.bar_projective(q, a)
            assert ref.projective_dimension(b) == 0
            for x in simples + [x for _, x in ctx.objects()]:
                assert ref.ext1_dim(x, b) == 0


def test_slot_projectives_are_shared_and_never_mutated():
    ctx = dup.DupContext(A3)
    ctx.validate_rules()
    dup.tilting_quiver_dup(ctx)
    for a in A3.vertices:
        bar, low = dup.slot_projective(A3, ("t", a)), dup.slot_projective(A3, ("b", a))
        assert ctx.objects()[ctx.bar_indices[A3.v_pos[a]]][1] is bar
        assert ref.triple_projective(ctx.pool()[0][1], ("b", a))[0] is low
        # the shared copies still equal fresh builds after all that work
        for got, fresh in ((bar, dup.bar_projective(A3, a)),
                           (low, dup.embed(A3, rep_a.projective(A3, a)))):
            assert got.dims == fresh.dims
            assert got.maps == fresh.maps


def test_embedding_preserves_hom_dimensions():
    P, I, S = ref.canonical_modules(A3)
    mods = list(P.values()) + list(I.values()) + list(S.values())
    for m in mods:
        for n in mods:
            assert homsolve.hom_dim(dup.embed(A3, m), dup.embed(A3, n)) == \
                homsolve.hom_dim(m, n)


def test_embedding_preserves_ext_dimensions():
    pool = rep_a.indecomposables(A3)
    for _, m in pool:
        for _, n in pool:
            assert ref.ext1_dim(dup.embed(A3, m), dup.embed(A3, n)) == \
                rep_a.ext1_dim(m, n)


def test_hom_oracles_at_the_bar_modules():
    embP0 = dup.embed(A2, rep_a.projective(A2, 0))
    embP1 = dup.embed(A2, rep_a.projective(A2, 1))
    assert homsolve.hom_dim(embP1, embP0) == 1
    for a in A2.vertices:
        bar = dup.bar_projective(A2, a)
        embS = dup.embed(A2, ref.simple(A2, a))
        # the embedded simple maps into the socle of the bar module;
        # nothing maps the other way (the connecting map is invertible)
        assert homsolve.hom_dim(embS, bar) == 1
        assert homsolve.hom_dim(bar, embS) == 0
    for a in A2.vertices:
        for b in A2.vertices:
            assert homsolve.hom_dim(
                dup.bar_projective(A2, a), dup.bar_projective(A2, b)
            ) == homsolve.hom_dim(rep_a.projective(A2, a), rep_a.projective(A2, b))


def test_hom_into_embedded_injective_counts_support():
    pool = rep_a.indecomposables(A3)
    for i in A3.vertices:
        embI = dup.embed(A3, rep_a.injective(A3, i))
        for _, m in pool:
            assert homsolve.hom_dim(dup.embed(A3, m), embI) == \
                m.dim_vector()[A3.v_pos[i]]


def test_hom_rejects_mismatched_quivers():
    with pytest.raises(ValueError, match="different quiver layouts"):
        homsolve.hom_basis(dup.embed(A2, ref.simple(A2, 0)),
                           dup.embed(A3, ref.simple(A3, 0)))


def test_embedded_projective_dimension_matches_base():
    for _, m in rep_a.indecomposables(A3):
        em = dup.embed(A3, m)
        want = ref.projective_dimension(m)
        assert ref.projective_dimension(em) == want
        assert want <= 1


# ---------------------------------------------------------------------------
# shifted modules


def test_shifted_modules_a2():
    w0 = dup.shifted_module(A2, 0)
    w1 = dup.shifted_module(A2, 1)
    dup.validate(w0)
    dup.validate(w1)
    assert dims(w0) == ((0, 1), (0, 0))
    assert dims(w1) == ((0, 1), (1, 0))
    assert w1.maps[("m", 0, ("e0",))].rank() == 1
    for w in (w0, w1):
        assert homsolve.end_dim(w) == 1
        assert ref.projective_dimension(w) == 1


def _approximation_by_injectives(q, x):
    """A left add(inj)-approximation x -> E: every basis map of x into
    each indecomposable injective, the n bar projectives (socle in the
    bottom layer) and the n top-embedded A-injectives, stacked."""
    injectives = ([dup.slot_projective(q, ("t", a)) for a in q.vertices]
                  + [ref.embed_top(q, rep_a.injective(q, a)) for a in q.vertices])
    comps = [(k, h) for k, inj in enumerate(injectives) for h in homsolve.hom_basis(x, inj)]
    return homsolve.approximation_map(x, injectives, comps)


def _ar_mismatches(ctx, shifted):
    """The (i, X) where dim Ext^1(W_i, X) breaks the Auslander-Reiten formula.

    With tau W_i the embedded injective I_i, the formula reads
    dim Ext^1(W_i, X) = dim Hom(X, I_i) - dim {maps X -> I_i factoring
    through an injective}.  Every such map factors through any left
    add(inj)-approximation X -> E, so the subtracted space is spanned by
    g . f for g in Hom(E, I_i).  The left side comes from a syzygy of W_i,
    the right side from the approximation of ``_approximation_by_injectives``;
    ``shifted`` maps each vertex to the module under test.
    """
    q = ctx.quiver
    approximations = [(pid, x, *_approximation_by_injectives(q, x)) for pid, x in ctx.objects()]
    bad = []
    for i in q.vertices:
        tau_w = dup.embed(q, rep_a.injective(q, i))
        for pid, x, env, emb in approximations:
            through = [ref.compose(g, emb).vec() for g in homsolve.hom_basis(env, tau_w)]
            factored = RatMatrix(through).rank() if through else 0
            stable = homsolve.hom_dim(x, tau_w) - factored
            if ref.ext1_dim(shifted[i], x) != stable:
                bad.append((i, str(pid)))
    return bad


AR_QUIVERS = ([(f"A3/o{k}", q) for k, q in enumerate(orientations("A3"))]
              + [(f"D4/o{k}", q) for k, q in enumerate(orientations("D4"))]
              + [("A4", named_diagram("A4"))])


def _shifted(ctx):
    """The shifted module W_i of each vertex i, read from the pool."""
    return {pid.key: m for pid, m in ctx.pool() if pid.kind == "W"}


@pytest.mark.parametrize("q", [q for _, q in AR_QUIVERS], ids=[n for n, _ in AR_QUIVERS])
def test_shifted_modules_satisfy_the_ar_formula(q):
    ctx = dup.DupContext(q)
    assert _ar_mismatches(ctx, _shifted(ctx)) == []


def test_ar_formula_rejects_other_modules():
    # the oracle has teeth: W_{i+1} in place of W_i, and the cokernel of
    # the bar approximation of the embedded injective, both break it
    ctx = dup.DupContext(A3)
    vs = A3.vertices
    rotated = {v: _shifted(ctx)[vs[(k + 1) % len(vs)]] for k, v in enumerate(vs)}
    assert _ar_mismatches(ctx, rotated)
    wrong = {v: dup._bar_cokernel(A3, rep_a.injective(A3, v)) for v in vs}
    assert _ar_mismatches(ctx, wrong)


def test_shift_extension_identity():
    # Ext^1(shift_i, embedded M) counts the dimension of M at i,
    # and nothing extends the other way round.
    for q in (A2, A3):
        ctx = dup.DupContext(q)
        ids = ctx.ids
        shift_pos = {pid.key: k for k, pid in enumerate(ids) if pid.kind == "W"}
        for i in q.vertices:
            wi = shift_pos[i]
            for j, pid in enumerate(ids):
                if pid.kind != "E":
                    continue
                assert ctx.ext1_idx(wi, j) == ctx.classical.dims[j][q.v_pos[i]]
                assert ctx.ext1_idx(j, wi) == 0


YONEDA_QUIVERS = ([(f"A3/o{k}", q) for k, q in enumerate(orientations("A3"))]
                  + [(f"D4/o{k}", q) for k, q in enumerate(orientations("D4"))]
                  + [(name, named_diagram(name)) for name in ("A5", "D5")]
                  + [("E6_SEED1", parse_quiver(ref.E6_SEED1))])


@pytest.mark.parametrize("q", [q for name, q in YONEDA_QUIVERS if name[:2] in ("A3", "D4", "E6")],
                         ids=[name for name, _ in YONEDA_QUIVERS if name[:2] in ("A3", "D4", "E6")])
def test_embedded_members_keep_their_classical_indices(q):
    # theorem 4.1 and the rules read the classical pool at the embedded
    # members' own indices, and the projectives are found by their ids
    ctx = dup.DupContext(q)
    classical = ctx.classical
    assert [pid.kind for pid in ctx.ids] == ["E"] * len(classical) + ["W"] * ctx.n
    for i in range(len(classical)):
        assert ctx.ids[i] == dup.DupPoolId("E", classical.ids[i])
        assert ctx.dims[i] == (0,) * ctx.n + classical.dims[i]
    by_dims = {dv: i for i, dv in enumerate(classical.dims)}
    assert ctx.embedded_projective_indices() == [
        by_dims[rep_a.projective(q, a).dim_vector()] for a in q.vertices]


def _ext1_mismatches(ctx):
    """The ordered object pairs where ``ctx.ext1_idx`` and the reference's
    cover route, a syzygy and three Hom solves, disagree."""
    objs = [m for _, m in ctx.objects()]
    return [(i, j) for i, x in enumerate(objs) for j, y in enumerate(objs)
            if ctx.ext1_idx(i, j) != ref.ext1_dim(x, y)]


@pytest.mark.parametrize("q", [q for _, q in YONEDA_QUIVERS],
                         ids=[n for n, _ in YONEDA_QUIVERS])
def test_yoneda_ext1_matches_the_generic_route(q):
    # ext1_idx reads A's Euler form off each object's presentation of
    # length one and Hom(P_s, N) = N_s by Yoneda; the reference shares
    # none of it
    ctx = dup.DupContext(q)
    assert _ext1_mismatches(ctx) == []
    # the shifted modules' extra term is read: some Ext^1(W_i, -) is nonzero
    assert any(ctx.ext1_idx(i, j) for i, (pid, _) in enumerate(ctx.objects())
               if pid.kind == "W" for j in range(len(ctx)))


# mutations of ext1_idx, each a wrapper around the real one: the shifted
# modules lose their term dim N_(b, i), or an embedded object is read on
# the top layer, where it is zero, so A's Euler form drops out
DROPPED_DELTA = (
    "def mutated(self, i, j):\n"
    "    pid, n = self.objects()[i][0], self.objects()[j][1]\n"
    "    return ext1_idx(self, i, j) - (n.dims[('b', pid.key)] if pid.kind == 'W' else 0)\n"
)
EMBEDDED_ON_TOP = (
    "def mutated(self, i, j):\n"
    "    (pid, m), n = self.objects()[i], self.objects()[j][1]\n"
    "    form = self.quiver.euler_form(*([x.dims[('b', v)] for v in self.quiver.vertices]\n"
    "                                    for x in (m, n)))\n"
    "    return ext1_idx(self, i, j) + (form if pid.kind == 'E' else 0)\n"
)
EXT1_MUTATIONS = [(DROPPED_DELTA, "(W0, E(1,0,0))"),
                  (EMBEDDED_ON_TOP, "(E(0,0,1), E(0,0,1))")]


@pytest.mark.parametrize("mutation", [m for m, _ in EXT1_MUTATIONS],
                         ids=["dropped-delta", "embedded-on-top"])
def test_ext1_mutations_fail_the_oracle(monkeypatch, mutation):
    scope = {"ext1_idx": dup.DupContext.ext1_idx}
    exec(mutation, scope)
    monkeypatch.setattr(dup.DupContext, "ext1_idx", scope["mutated"])
    assert _ext1_mismatches(dup.DupContext(A3))


# ---------------------------------------------------------------------------
# tilting enumeration


def test_pool_rules_match_solver():
    for q in (A2, A3):
        ctx = dup.DupContext(q)
        ctx.validate_rules()  # raises on any disagreement


EULER_POOLS = ([(f"{name}-{k}", name, k) for name in ("A3", "A4", "D4", "D5")
                for k in range(len(orientations(name)))]
               + [(name, name, None) for name in ("A5", "D5", "E6")]
               + [(f"K-w{w}", "K", w) for w in range(1, 13)])


@pytest.mark.parametrize("name, key", [(n, k) for _, n, k in EULER_POOLS],
                         ids=[i for i, _, _ in EULER_POOLS])
def test_euler_ext_table_matches_the_solver(name, key):
    # the classical pool reads its Ext^1 table off the Euler form, and the
    # duplicated compatibility rule reads the same table; the members lie in
    # directed components, so Hom or Ext^1 vanishes on every pair and the
    # Euler form gives both dimensions; the Hom solver is the reference
    if name == "K":
        pool = tilt_a._kron_pool(key)
    else:
        q = named_diagram(name) if key is None else orientations(name)[key]
        pool = tilt_a._dynkin_pool(q)
        assert dup.DupContext(q).classical is pool
    form = pool.quiver.euler_form
    for i, x in enumerate(pool.reps):
        for j, y in enumerate(pool.reps):
            assert pool.ext(i, j) == rep_a.ext1_dim(x, y)
            hom = max(0, form(x.dim_vector(), y.dim_vector()))
            assert homsolve.hom_dim(x, y) == len(homsolve.hom_basis(x, y)) == hom


def test_enumerate_a2_exact():
    ctx = dup.DupContext(A2)
    labels = {t.label() for t in dup.enumerate_tilting_dup(ctx)}
    assert labels == {
        "E(0,1)+E(1,1)",
        "E(1,0)+E(1,1)",
        "E(0,1)+W0",
        "E(1,0)+W1",
        "W0+W1",
    }


def test_enumerate_counts():
    for name, want in (("A2", 5), ("A3", 14), ("A4", 42), ("D4", 50)):
        ctx = dup.DupContext(named_diagram(name))
        assert len(dup.enumerate_tilting_dup(ctx)) == want


def test_graph_a2_pentagon():
    ctx = dup.DupContext(A2)
    g = dup.tilting_quiver_dup(ctx)
    assert len(g.tiltings) == 5 and len(g.arcs) == 5
    assert not g.defects
    arcs = {(g.tiltings[a.src].label(), g.tiltings[a.dst].label(),
             str(a.x), str(a.y)) for a in g.arcs}
    assert arcs == {
        ("E(0,1)+E(1,1)", "E(0,1)+W0", "E(1,1)", "W0"),
        ("E(0,1)+E(1,1)", "E(1,0)+E(1,1)", "E(0,1)", "E(1,0)"),
        ("E(0,1)+W0", "W0+W1", "E(0,1)", "W1"),
        ("E(1,0)+E(1,1)", "E(1,0)+W1", "E(1,1)", "W1"),
        ("E(1,0)+W1", "W0+W1", "E(1,0)", "W0"),
    }
    # all-projective set is the unique source, all-shift set the sink
    proj = [i for i, t in enumerate(g.tiltings) if t.label() == "E(0,1)+E(1,1)"][0]
    shifts = [i for i, t in enumerate(g.tiltings) if t.label() == "W0+W1"][0]
    assert g.in_degree(proj) == 0 and g.out_degree(proj) == 2
    assert g.out_degree(shifts) == 0 and g.in_degree(shifts) == 2


def test_graph_regularity_and_connectivity():
    for name, (verts, arcs) in (("A3", (14, 21)), ("A4", (42, 84))):
        ctx = dup.DupContext(named_diagram(name))
        g = dup.tilting_quiver_dup(ctx)
        assert (len(g.tiltings), len(g.arcs)) == (verts, arcs)
        n = ctx.n
        for i in range(len(g.tiltings)):
            assert g.out_degree(i) + g.in_degree(i) == n
        assert g.is_connected()
        assert not g.defects


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


def _clusters(name):
    """The number of clusters of type A_n or D_n (Fomin-Zelevinsky):
    C_{n+1} for A_n, (3n - 2)/n . C(2n - 2, n - 1) for D_n."""
    n = int(name[1:])
    return _catalan(n + 1) if name[0] == "A" else (3 * n - 2) * comb(2 * n - 2, n - 1) // n


def _positive_clusters(name):
    """The number of positive clusters of type A_n or D_n: C_n for A_n,
    (3n - 4)/n . C(2n - 3, n - 1) for D_n."""
    n = int(name[1:])
    return _catalan(n) if name[0] == "A" else (3 * n - 4) * comb(2 * n - 3, n - 1) // n


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D4", "D5"])
def test_classical_counts_match_closed_forms_on_every_orientation(name):
    # the tilting modules over A are the positive clusters, whatever the
    # orientation; the closed form shares no code with the engine
    want = _positive_clusters(name)
    for q in orientations(name):
        assert len(tilt_a.enumerate_tilting(q)) == want, q


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "D4"])
def test_dup_counts_match_closed_forms_on_every_orientation(name):
    # the tilting modules over the duplicated algebra that contain every
    # bar projective are the clusters, whatever the orientation
    want = _clusters(name)
    for q in orientations(name):
        assert len(dup.enumerate_tilting_dup(dup.DupContext(q))) == want, q


@pytest.mark.parametrize("name, vertices", [
    ("A5", _clusters("A5")),
    ("D5", _clusters("D5")),
    # E6, E7: the cluster-complex counts, no closed form in n
    ("E6", 833),
    ("E7", 4160),
])
def test_graph_sizes_match_closed_forms(name, vertices):
    # the cluster-complex counts of the Dynkin types; every vertex has n
    # neighbours, so an n-regular graph has n . V / 2 arcs
    assert vertices == {"A5": 132, "D5": 182, "E6": 833, "E7": 4160}[name]
    ctx = dup.DupContext(named_diagram(name))
    g = dup.tilting_quiver_dup(ctx)
    n = ctx.n
    assert len(g.tiltings) == vertices
    assert len(g.arcs) == n * vertices // 2
    assert all(g.out_degree(i) + g.in_degree(i) == n for i in range(vertices))
    assert g.is_connected()
    assert not g.defects


@pytest.mark.parametrize("name, pairs", [("A3", 15), ("D4", 52), ("D5", 130)])
def test_each_exchange_pair_is_certified_once(monkeypatch, name, pairs):
    seen = []
    in_add = homsolve.cokernel_in_add

    def counted(ctx, x, key):
        test = in_add(ctx, x, key)

        def tested(members):
            seen.append((x, tuple(members)))
            return test(members)
        return tested

    monkeypatch.setattr(homsolve, "cokernel_in_add", counted)
    g = dup.tilting_quiver_dup(dup.DupContext(named_diagram(name)))
    assert len({(a.x, a.y) for a in g.arcs}) == pairs < len(g.arcs)
    # each test is of the one complement y, by object index
    assert len(seen) == len(set(seen)) == pairs
    assert all(len(members) == 1 for _, members in seen)


def test_graph_works_on_a_file_style_quiver():
    q = parse_quiver("vertices 1 2 3\narrow a 2 1\narrow b 2 3\n")
    ctx = dup.DupContext(q)
    g = dup.tilting_quiver_dup(ctx)
    assert len(g.tiltings) == 14 and len(g.arcs) == 21
    assert g.is_connected()


# ---------------------------------------------------------------------------
# checkers


def test_verify_embedding():
    for q in (A2, A3):
        rep = dup.verify_embedding(dup.DupContext(q))
        assert rep["status"] == "pass"
        assert not rep["counterexamples"]


def test_verify_regularity():
    rep = dup.verify_regularity(dup.DupContext(A3))
    assert rep["status"] == "pass"
    assert rep["stats"] == {"vertices": 14, "arcs": 21, "degree": 3,
                            "connected": True}


def test_verify_shift_completion():
    for q in (A2, A3):
        rep = dup.verify_shift_completion(dup.DupContext(q))
        assert rep["status"] == "pass"
        assert rep["stats"]["checked_completions"] > 0


def test_global_dimension():
    assert ref.global_dimension_dup(dup.DupContext(A2)) == 2
    assert ref.global_dimension_dup(dup.DupContext(A3)) == 3
    assert ref.global_dimension_dup(dup.DupContext(named_diagram("D4"))) == 3
    assert ref.global_dimension_dup(dup.DupContext(named_diagram("D5"))) == 3


def test_deep_check_a2():
    rep = dup.deep_check_coresolution(dup.DupContext(A2))
    assert rep["status"] == "pass"
    assert rep["stats"]["sequences_checked"] == 20


# ---------------------------------------------------------------------------
# add T membership: the minimal left approximation is an isomorphism


def _decompose(ctx, c, members):
    """The reference's ``decompose_in_add`` over fresh lookups for c."""
    return ref.decompose_in_add(ctx, c, members, *ref.add_lookups(ctx, c))


def _a3_members():
    ctx = dup.DupContext(A3)
    t = dup.enumerate_tilting_dup(ctx)[0]
    return ctx, list(t.indices) + ctx.bar_indices


def test_sum_of_members_decomposes_with_its_multiplicities():
    ctx, members = _a3_members()
    objs = ctx.objects()
    a, b = objs[members[0]][1], objs[members[1]][1]
    c, _, _ = ref.direct_sum([a, a, b])
    assert _decompose(ctx, c, members) == [2, 1] + [0] * (len(members) - 2)


def test_zero_module_has_zero_multiplicities():
    ctx, members = _a3_members()
    zero = ref.zero_module(ctx.objects()[members[0]][1])
    assert _decompose(ctx, zero, members) == [0] * len(members)


def test_summand_from_outside_is_not_in_add():
    ctx, members = _a3_members()
    objs = ctx.objects()
    outside = next(k for k in range(len(ctx)) if k not in members)
    c, _, _ = ref.direct_sum([objs[members[0]][1], objs[outside][1]])
    assert _decompose(ctx, c, members) is None


def test_member_dimensions_without_structure_maps_are_not_in_add():
    ctx, members = _a3_members()
    objs = ctx.objects()
    m = next(objs[k][1] for k in members
             if any(mat.rank() for mat in objs[k][1].maps.values()))
    flat = homsolve.Rep(m.quiver, m.layout, m.dims,
                        {lab: RatMatrix.zeros(*mat.shape) for lab, mat in m.maps.items()})
    assert flat.dim_vector() == m.dim_vector()
    assert _decompose(ctx, flat, members) is None


def _gram_multiplicities(ctx, c, members):
    """Multiplicities from the hom-count equations: the Gram matrix of
    dim Hom(T_a, T_b) over the members, against dim Hom(T_a, c)."""
    objs = ctx.objects()
    k = len(members)
    gram = RatMatrix.zeros(k, k)
    for a in range(k):
        for b in range(k):
            gram[a, b] = len(ctx.hom_idx(members[a], members[b]))
    rhs = [Fraction(homsolve.hom_dim(objs[members[a]][1], c)) for a in range(k)]
    sol = ref.solve(gram, rhs)
    assert sol is not None and all(x.denominator == 1 and x >= 0 for x in sol)
    return [int(x) for x in sol]


def _per_pair_cokernels(ctx):
    """Every (T, P) of the deep check, T's position, P's position among
    the projectives, T's members and the cokernel T1, each from its own
    exchange sequence."""
    objs = ctx.objects()
    projectives = dup.deep_check_projectives(ctx)
    for t_pos, t in enumerate(dup.enumerate_tilting_dup(ctx)):
        members = list(t.indices) + projectives[:ctx.n]
        pool = [objs[k][1] for k in members]
        for p_pos, p in enumerate(projectives):
            _, y = homsolve.exchange_sequence(
                objs[p][1], pool, [ctx.hom_idx(p, k) for k in members],
                lambda a, b: ctx.radical_idx(p, members[a], members[b]))
            yield t_pos, p_pos, members, y


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_add_multiplicities_match_the_gram_solve(name):
    # every (T, P) of the deep check: the cokernel T1 decomposes, and the
    # approximation's component counts solve the hom-count equations
    ctx = dup.DupContext(named_diagram(name))
    checked = 0
    for _, _, members, y in _per_pair_cokernels(ctx):
        got = _decompose(ctx, y, members)
        assert got is not None
        assert got == _gram_multiplicities(ctx, y, members)
        checked += 1
    assert checked == len(dup.enumerate_tilting_dup(ctx)) * 2 * ctx.n


# ---------------------------------------------------------------------------
# the deep check at the index level: one coordinate cokernel per
# (projective, approximation), no cokernel module


@pytest.mark.parametrize("q", orientations("A3") + [named_diagram("D4")],
                         ids=[f"A3-{k}" for k in range(4)] + ["D4"])
def test_shared_deep_check_matches_the_per_pair_route(q):
    ctx = dup.DupContext(q)
    want = {(t_pos, p_pos): _decompose(ctx, y, members)
            for t_pos, p_pos, members, y in _per_pair_cokernels(ctx)}
    found, order = {}, []
    for t_pos, p_pos, mults in dup.coresolutions(ctx):
        assert (t_pos, p_pos) not in found
        found[(t_pos, p_pos)] = mults
        order.append((p_pos, t_pos))
    assert found == want
    # projective by projective, each T once per projective: one
    # projective's keys are held at a time
    n_tilts = len(dup.enumerate_tilting_dup(ctx))
    assert [p for p, _ in order] == sorted(p for p, _ in order)
    for p_pos in range(len(dup.deep_check_projectives(ctx))):
        assert sorted(t for p, t in order if p == p_pos) == list(range(n_tilts))
    assert None not in want.values()
    report = dup.deep_check_coresolution(ctx)
    assert report["status"] == "pass"
    assert report["stats"]["sequences_checked"] == len(want)


COKERNEL_ROUTE_QUIVERS = ([(f"A3/o{k}", q) for k, q in enumerate(orientations("A3"))]
                          + [(f"D4/o{k}", q) for k, q in enumerate(orientations("D4"))]
                          + [("D5", named_diagram("D5")),
                             ("E6_SEED1", parse_quiver(ref.E6_SEED1))])


@pytest.mark.parametrize("q", [q for _, q in COKERNEL_ROUTE_QUIVERS],
                         ids=[name for name, _ in COKERNEL_ROUTE_QUIVERS])
def test_coresolutions_match_the_cokernel_route(q):
    # the multiplicities of every (T, P), or None, equal those of the
    # cokernel modules with the Hom bases solved out of them
    ctx = dup.DupContext(q)
    want = ref.deep_check_cokernels(ctx)
    assert {(t, p): mults for t, p, mults in dup.coresolutions(ctx)} == want
    assert None not in want.values()


def _sharing_keys(ctx):
    """The deep check's key of every (T's position, P's object index): P
    and the object index and basis position of each component of its
    minimal left add(T)-approximation."""
    objs = ctx.objects()
    projectives = dup.deep_check_projectives(ctx)
    keys = {}
    for t_pos, t in enumerate(dup.enumerate_tilting_dup(ctx)):
        members = list(t.indices) + projectives[:ctx.n]
        for p in projectives:
            comps = homsolve.injective_approximation(
                objs[p][1], [ctx.hom_idx(p, k) for k in members],
                lambda a, b: ctx.radical_idx(p, members[a], members[b]))
            keys[(t_pos, p)] = (p, tuple(
                (members[i], next(pos for pos, b in enumerate(ctx.hom_idx(p, members[i]))
                                  if b is h)) for i, h in comps))
    return keys


@pytest.mark.parametrize("name, count", [("A3", 17), ("D4", 49), ("D5", 140)])
def test_one_cokernel_per_projective_and_approximation(monkeypatch, name, count):
    # one add T test per key, and no cokernel module at all
    ctx = dup.DupContext(named_diagram(name))
    keys = _sharing_keys(ctx)
    built, modules = [], []
    in_add = homsolve.cokernel_in_add
    monkeypatch.setattr(homsolve, "cokernel_in_add", lambda ctx, p, comps: built.append(
        (p, comps)) or in_add(ctx, p, comps))
    monkeypatch.setattr(homsolve, "cokernel", lambda f: modules.append(f))
    report = dup.deep_check_coresolution(ctx)
    assert report["status"] == "pass"
    assert len(built) == len(set(built)) == len(set(keys.values())) == count
    assert set(built) == set(keys.values())
    assert modules == []
    assert report["stats"]["sequences_checked"] == len(keys) > count


# ---------------------------------------------------------------------------
# engine checks: exit 2 under python and python -O

# every exchange sequence, and so every shifted module, ends in the sum of
# two copies of its cokernel, whose endomorphism ring is not one-dimensional
DECOMPOSABLE_SHIFT = (
    "import sys\n"
    "from reference import direct_sum\n"
    "from tiltquiver import cli, homsolve\n"
    "exchange_sequence = homsolve.exchange_sequence\n"
    "def doubled(*args):\n"
    "    e, y = exchange_sequence(*args)\n"
    "    return e, direct_sum([y, y])[0]\n"
    "homsolve.exchange_sequence = doubled\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)

# once the pool build (the context's __init__) starts, every minimal left
# approximation is empty, so the injective envelopes that build the shifted
# modules are too
EMPTY_ENVELOPE = (
    "import sys\n"
    "from tiltquiver import cli, dup, homsolve\n"
    "init = dup.DupContext.__init__\n"
    "def init_without_approximations(self, quiver):\n"
    "    homsolve.minimal_left_approximation = lambda hom_x, radical: []\n"
    "    init(self, quiver)\n"
    "dup.DupContext.__init__ = init_without_approximations\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)


# every pair claims the whole almost complete part of its first arc as
# summands of E, which a later arc of the pair, with another part, lacks:
# each approximation key gains one component per member, which the add
# test does not see
MISSING_SUMMAND = (
    "import sys\n"
    "from tiltquiver import cli, homsolve\n"
    "approximation_key, in_add = homsolve.approximation_key, homsolve.cokernel_in_add\n"
    "def widened(ctx, x, members):\n"
    "    return approximation_key(ctx, x, members) + tuple((k, None) for k in members)\n"
    "homsolve.approximation_key = widened\n"
    "homsolve.cokernel_in_add = lambda ctx, x, key: in_add(\n"
    "    ctx, x, tuple(c for c in key if c[1] is not None))\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)

# every one-dimensional Ext^1 between objects reads as two-dimensional;
# vanishing, and so compatibility and orientation, is unchanged
EXT_PLANE = (
    "import sys\n"
    "from tiltquiver import cli, dup\n"
    "ext1_idx = dup.DupContext.ext1_idx\n"
    "def doubled(self, i, j):\n"
    "    got = ext1_idx(self, i, j)\n"
    "    return 2 if got == 1 else got\n"
    "dup.DupContext.ext1_idx = doubled\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)


# once the pool is built (the context's __init__), every approximation
# component is the zero map, so no exchange sequence the engine goes on to
# certify exists; that is a fault of the engine, not a counterexample and
# not an input error
ZERO_APPROXIMATION = (
    "import sys\n"
    "from reference import zero_map\n"
    "from tiltquiver import cli, dup, homsolve\n"
    "approximation, init = homsolve.minimal_left_approximation, dup.DupContext.__init__\n"
    "def zeroed(*args, **kwargs):\n"
    "    return [(i, zero_map(h.src, h.dst))\n"
    "            for i, h in approximation(*args, **kwargs)]\n"
    "def init_then_zero(self, quiver):\n"
    "    init(self, quiver)\n"
    "    homsolve.minimal_left_approximation = zeroed\n"
    "dup.DupContext.__init__ = init_then_zero\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

# every shifted module comes out as the bar projective at its vertex,
# which passes the checks made on construction but has projective
# dimension 0, not 1: Ext^1 read off W_i's presentation is then wrong,
# and the compatibility rules catch it
PROJECTIVE_SHIFT = (
    "import sys\n"
    "from tiltquiver import cli, dup\n"
    "dup.shifted_module = lambda q, i: dup.slot_projective(q, ('t', i))\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)


def _run_script(flags, script, *argv):
    src = Path(dup.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(src), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_decomposable_shifted_module_is_an_engine_error(flags):
    proc = _run_script(flags, DECOMPOSABLE_SHIFT)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "engine error: shifted module failed to be indecomposable" in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_empty_envelope_is_an_engine_error(flags):
    proc = _run_script(flags, EMPTY_ENVELOPE)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert ("engine error: envelope of the embedded projective at 0: "
            "empty approximation") in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("script, message", [
    (MISSING_SUMMAND, "is not in add of the part"),
    (EXT_PLANE, "has dimension 2, not 1"),
], ids=["missing-summand", "ext-plane"])
def test_exchange_pair_fault_is_an_engine_error(script, message, flags):
    proc = _run_script(flags, script)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "engine error:" in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "3.1", "--diagram", "A2", "--deep-check"],
    ["dup-kquiver", "--diagram", "A2"],
], ids=["deep-check", "exchange-graph"])
def test_missing_exchange_sequence_is_an_engine_error(argv, flags):
    proc = _run_script(flags, ZERO_APPROXIMATION, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("engine error: approximation map is not injective")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_shifted_module_of_wrong_projective_dimension_is_an_engine_error(flags):
    proc = _run_script(flags, PROJECTIVE_SHIFT)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert ("engine error: compatibility rule disagrees with the solver on (W0, W0)"
            in proc.stderr)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("mutation, pair", EXT1_MUTATIONS,
                         ids=["dropped-delta", "embedded-on-top"])
def test_ext1_mutation_is_an_engine_error(flags, mutation, pair):
    script = ("import sys\n"
              "from tiltquiver import cli, dup\n"
              "ext1_idx = dup.DupContext.ext1_idx\n"
              + mutation +
              "dup.DupContext.ext1_idx = mutated\n"
              "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n")
    proc = _run_script(flags, script)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert (f"engine error: compatibility rule disagrees with the solver on {pair}"
            in proc.stderr)


# once the deep check starts, the composite block of the objects in argv[1]
# has its first nonzero coordinate zeroed, at every read
CORRUPTED_COMPOSITE = (
    "import sys\n"
    "from tiltquiver import cli, dup\n"
    "key = tuple(map(int, sys.argv[1].split(',')))\n"
    "composite_idx, deep_check = dup.DupContext.composite_idx, dup.deep_check_coresolution\n"
    "corrupted = {}\n"
    "def read(self, x, i, y):\n"
    "    got = composite_idx(self, x, i, y)\n"
    "    if 'on' in corrupted and (x, i, y) == key:\n"
    "        rows = [[list(cs) for cs in row] for row in got]\n"
    "        cs = next(cs for row in rows for cs in row if any(cs))\n"
    "        cs[next(z for z, v in enumerate(cs) if v)] = 0\n"
    "        got = tuple(tuple(map(tuple, row)) for row in rows)\n"
    "    return got\n"
    "def deep(ctx):\n"
    "    corrupted['on'] = True\n"
    "    return deep_check(ctx)\n"
    "dup.DupContext.composite_idx = read\n"
    "dup.deep_check_coresolution = deep\n"
    "sys.exit(cli.main(['verify', '--theorem', '3.1', '--diagram', 'A3', '--deep-check']))\n"
)


def _corrupted_deep_checks(q):
    """Each composite block the deep check over q reads, with each of its
    coordinates changed in turn (a nonzero one zeroed, a zero one set to
    1): (the block's objects, the deep check's report, or the message of
    its RuntimeError)."""
    ctx = dup.DupContext(q)
    composite_idx = dup.DupContext.composite_idx
    read = {}
    dup.DupContext.composite_idx = lambda self, x, i, y: read.setdefault(
        (x, i, y), composite_idx(self, x, i, y))
    try:
        assert dup.deep_check_coresolution(ctx)["status"] == "pass"
        for key, block in read.items():
            for a, row in enumerate(block):
                for b, cs in enumerate(row):
                    for z, v in enumerate(cs):
                        rows = [[list(cs) for cs in row] for row in block]
                        rows[a][b][z] = 0 if v else 1
                        bad = tuple(tuple(map(tuple, row)) for row in rows)
                        dup.DupContext.composite_idx = (
                            lambda self, x, i, y, key=key, bad=bad:
                            bad if (x, i, y) == key else composite_idx(self, x, i, y))
                        try:
                            yield key, dup.deep_check_coresolution(ctx)
                        except RuntimeError as e:
                            yield key, str(e)
    finally:
        dup.DupContext.composite_idx = composite_idx


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_no_corrupted_composite_reads_as_a_counterexample(name):
    # every coordinate the deep check reads, changed: an engine error, or
    # the clean report when the change misses what the verdicts use; some
    # errors come from certifying a "not in add T" verdict
    clean = dup.deep_check_coresolution(dup.DupContext(named_diagram(name)))
    outcomes = list(_corrupted_deep_checks(named_diagram(name)))
    assert all(isinstance(got, str) or got == clean for _, got in outcomes)
    assert sum("disagree with their maps" in got for _, got in outcomes
               if isinstance(got, str)) >= 4
    if name == "A3":
        assert len(outcomes) == 45 and all(isinstance(got, str) for _, got in outcomes)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("route", ["first", "certificate"])
def test_corrupted_composite_in_the_deep_check_is_an_engine_error(flags, route):
    # the first block the deep check reads, and one whose corruption makes
    # a cokernel look outside add T until the None is certified
    outcomes = list(_corrupted_deep_checks(A3))
    key = outcomes[0][0] if route == "first" else next(
        key for key, got in outcomes if isinstance(got, str) and "disagree" in got)
    proc = _run_script(flags, CORRUPTED_COMPOSITE, ",".join(map(str, key)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("engine error:")
    if route == "certificate":
        assert "disagree with their maps" in proc.stderr


# the deep check's cokernel radicals read coordinates in the canonical
# bases of Hom(coker, k) through the reader that also reads cached Hom
# bases: argv[1] "scaled" doubles every vector of those bases (entry 2 at
# its key), "plus" adds 1 to the first coordinate of the block argv[2]
COKERNEL_READER_FAULT = (
    "import sys\n"
    "from tiltquiver import cli, dup, homsolve\n"
    "if sys.argv[1] == 'scaled':\n"
    "    exchange_line = homsolve.exchange_line\n"
    "    def scaled(*args):\n"
    "        terms, kernel = exchange_line(*args)\n"
    "        return terms, {f: {c: 2 * v for c, v in vec.items()} for f, vec in kernel.items()}\n"
    "    homsolve.exchange_line = scaled\n"
    "else:\n"
    "    key = tuple(map(int, sys.argv[2].split(',')))\n"
    "    composite_idx = dup.DupContext.composite_idx\n"
    "    def plus_one(self, x, i, y):\n"
    "        got = composite_idx(self, x, i, y)\n"
    "        if (x, i, y) != key:\n"
    "            return got\n"
    "        rows = [[list(cs) for cs in row] for row in got]\n"
    "        rows[0][0][0] += 1\n"
    "        return tuple(tuple(map(tuple, row)) for row in rows)\n"
    "    dup.DupContext.composite_idx = plus_one\n"
    "sys.exit(cli.main(['verify', '--theorem', '3.1', '--diagram', 'A3', '--deep-check']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("fault", [["scaled"], ["plus", "5,11,9"]])
def test_cokernel_coordinate_fault_is_an_engine_error(flags, fault):
    # (5, 11, 9) is a block m -> j -> i that the cokernel radical of
    # duplicated A3 lifts through: a component of T0, then two summands
    # of T; the reader's residual check must stop both faults
    proc = _run_script(flags, COKERNEL_READER_FAULT, *fault)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "engine error: a map does not lie in the span of its cached Hom basis")


# every coordinate of every composite block that dup-kquiver on the
# diagram argv[1] reads, changed in turn, by + 1 and by a 0 <-> 1 flip, at
# every read of its block: each run must be an engine error; prints the
# number of coordinates, then each run that was not
CORRUPTED_ARC_COMPOSITES = (
    "import contextlib, io, sys\n"
    "from tiltquiver import cli, dup\n"
    "argv = ['dup-kquiver', '--diagram', sys.argv[1]]\n"
    "composite_idx, read = dup.DupContext.composite_idx, {}\n"
    "dup.DupContext.composite_idx = lambda self, x, i, y: read.setdefault(\n"
    "    (x, i, y), composite_idx(self, x, i, y))\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    if cli.main(argv) != 0:\n"
    "        sys.exit('the clean run fails')\n"
    "faults, count = {}, 0\n"
    "for key, block in read.items():\n"
    "    for a, row in enumerate(block):\n"
    "        for b, cs in enumerate(row):\n"
    "            for z, v in enumerate(cs):\n"
    "                count += 1\n"
    "                for changed in (v + 1, 0 if v else 1):\n"
    "                    rows = [[list(cs) for cs in row] for row in block]\n"
    "                    rows[a][b][z] = changed\n"
    "                    faults[(key, tuple(tuple(map(tuple, row)) for row in rows))] = None\n"
    "print(count, 'coordinates')\n"
    "for key, bad in faults:\n"
    "    dup.DupContext.composite_idx = (lambda self, x, i, y, key=key, bad=bad:\n"
    "        bad if (x, i, y) == key else composite_idx(self, x, i, y))\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        code = cli.main(argv)\n"
    "    if (code, out.getvalue()) != (2, '') or not err.getvalue().startswith('engine error:'):\n"
    "        print(key, bad, code, repr(out.getvalue()), repr(err.getvalue()))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("name, count", [("A3", 10), ("D4", 76)])
def test_corrupted_composite_in_an_arc_certificate_is_an_engine_error(flags, name, count):
    # the add test checks g . f = 0 on real blocks, so no corrupted
    # coordinate is read as a pass or a violation
    proc = _run_script(flags, CORRUPTED_ARC_COMPOSITES, name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{count} coordinates\n"


# the deep check runs on every tilting set with the object of pool
# position argv[1] dropped: an almost complete set is no tilting module,
# and some of its cokernels are not in add T
DROPPED_MEMBER = (
    "import sys\n"
    "from tiltquiver import cli, dup\n"
    "drop = int(sys.argv[1])\n"
    "deep_check, enumerate_tilting = dup.deep_check_coresolution, dup.enumerate_tilting_dup\n"
    "def dropped(ctx):\n"
    "    dup.enumerate_tilting_dup = lambda ctx: [\n"
    "        t._replace(indices=tuple(k for k in t.indices if k != drop))\n"
    "        for t in enumerate_tilting(ctx)]\n"
    "    return deep_check(ctx)\n"
    "dup.deep_check_coresolution = dropped\n"
    "sys.exit(cli.main(['verify', '--theorem', '3.1', '--diagram', 'A3', '--deep-check']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_dropped_member_is_reported_as_the_cokernel_route_reports_it(flags):
    # a genuine negative: one line per failing (T, P), in (T, P) order,
    # exactly the pairs whose cokernel module is not in add T, and exit 1
    ctx = dup.DupContext(A3)
    objs = ctx.objects()
    tilts = dup.enumerate_tilting_dup(ctx)
    projectives = dup.deep_check_projectives(ctx)
    drop = ctx.names.index("E(1,1,1)")
    failing = sorted(pair for pair, mults in ref.deep_check_cokernels(ctx, drop).items()
                     if mults is None)
    proc = _run_script(flags, DROPPED_MEMBER, str(drop))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "theorem 3.1 [diagram A3]: violation"
    assert lines[2:] == [
        f"counterexample: {tilts[t].label()} / {objs[projectives[p]][0]}: cokernel not in add T"
        for t, p in failing]
    # several tilting sets, and several projectives of one of them
    assert len({t for t, _ in failing}) > 1
    assert len(failing) > len({t for t, _ in failing})


# ---------------------------------------------------------------------------
# every Hom basis checked against a dimension known without it


@pytest.mark.parametrize("q", [q for _, q in YONEDA_QUIVERS],
                         ids=[n for n, _ in YONEDA_QUIVERS])
def test_free_hom_dimensions_match_the_solved_bases(q):
    # Hom(bar P_a, X) = X_(t, a) by Yoneda and Hom(X, bar P_a) = X_(b, a),
    # bar P_a being the injective hull of the simple at (b, a); between
    # pool members the Auslander-Reiten table's dimension is the basis length
    ctx = dup.DupContext(q)
    objs = [m for _, m in ctx.objects()]
    for a in q.vertices:
        bar = dup.slot_projective(q, ("t", a))
        for x in objs:
            assert len(homsolve.hom_basis(bar, x)) == x.dims[("t", a)]
            assert len(homsolve.hom_basis(x, bar)) == x.dims[("b", a)]
    r = len(ctx)
    for i in range(r):
        for j in range(r):
            assert ctx.hom_dim_idx(i, j) == len(homsolve.hom_basis(objs[i], objs[j]))


HOM_FAULTS = {"drop": lambda basis: basis[:-1], "duplicate": lambda basis: basis + basis[-1:]}
SWEEP_COMMANDS = [["dup-kquiver"], ["verify", "--theorem", "3.1", "--deep-check"],
                  ["verify", "--theorem", "4.3"]]


def _hom_fault_outcomes(monkeypatch, capsys, path, fault):
    """(object pair, command, exit code, stdout) for each ordered object
    pair of the quiver file at ``path`` and each sweep command, run in
    process with ``homsolve.hom_basis`` faulted on that pair once the
    context's objects exist (its __init__ has run); the clean runs come
    first, with pair None."""
    hom_basis, init = homsolve.hom_basis, dup.DupContext.__init__
    target, pair = [None], []

    def faulted(m, n):
        got = hom_basis(m, n)
        return fault(got) if pair and m is pair[0] and n is pair[1] else got

    def recorded(self, quiver):
        init(self, quiver)
        if target[0] is not None and not pair:
            pair.extend(self.module(k) for k in target[0])

    monkeypatch.setattr(homsolve, "hom_basis", faulted)
    monkeypatch.setattr(dup.DupContext, "__init__", recorded)
    size = len(dup.DupContext(parse_quiver(path.read_text())).objects())
    for key in [None] + [(i, j) for i in range(size) for j in range(size)]:
        for argv in SWEEP_COMMANDS:
            ref.clear_caches()
            target[0] = key
            pair.clear()
            code = cli.main(argv + ["-q", str(path)])
            yield key, " ".join(argv), code, capsys.readouterr().out


@pytest.mark.parametrize("fault", HOM_FAULTS)
def test_no_faulted_hom_basis_reads_as_a_verdict(monkeypatch, capsys, tmp_path, fault):
    # a dropped or duplicated map in any one Hom basis between objects, bars
    # included: each command prints its clean report, or fails with exit 2
    path = tmp_path / "a3.quiver"
    path.write_text(ref.A3_SEED1)
    outcomes = list(_hom_fault_outcomes(monkeypatch, capsys, path, HOM_FAULTS[fault]))
    clean = {cmd: (code, out) for key, cmd, code, out in outcomes if key is None}
    assert all(code == 0 for code, _ in clean.values())
    faulted = [(key, cmd, code, out) for key, cmd, code, out in outcomes if key is not None]
    assert len(faulted) == 144 * len(SWEEP_COMMANDS)
    assert [(key, cmd) for key, cmd, code, out in faulted
            if (code, out) != clean[cmd] and (code, out) != (2, "")] == []
    # the checks fire where a command reads a basis; theorem 4.3 reads
    # only Ext^1, whose Hom dimensions come from the Auslander-Reiten table
    assert {cmd for _, cmd, code, _ in faulted if code == 2} == {
        "dup-kquiver", "verify --theorem 3.1 --deep-check"}


# once the context's objects exist (its __init__ has run), every Hom basis
# solved from a bar projective loses its last map
BAR_SOURCE_DROP = (
    "import sys\n"
    "from tiltquiver import cli, dup, homsolve\n"
    "hom_basis, init = homsolve.hom_basis, dup.DupContext.__init__\n"
    "bars = set()\n"
    "def dropped(m, n):\n"
    "    got = hom_basis(m, n)\n"
    "    return got[:-1] if id(m) in bars else got\n"
    "def recorded(self, quiver):\n"
    "    init(self, quiver)\n"
    "    bars.update(id(m) for pid, m in self.objects() if pid.kind == 'B')\n"
    "homsolve.hom_basis = dropped\n"
    "dup.DupContext.__init__ = recorded\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_dropped_map_from_a_bar_projective_is_an_engine_error(flags):
    proc = _run_script(flags, BAR_SOURCE_DROP)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("engine error: the Hom basis of (B")


# once the rule check has read every Ext^1 of the pool, the Hom dimension
# of the pool pair argv[1] reads 0 although Hom is nonzero: a zero claim
# builds no basis, so only its rank check can see the fault
ZERO_CLAIM = (
    "import sys\n"
    "from tiltquiver import cli, dup\n"
    "pair = tuple(map(int, sys.argv[1].split(',')))\n"
    "hom_dim_idx = dup.DupContext.hom_dim_idx\n"
    "def claimed(self, i, j):\n"
    "    return 0 if self._rules_checked and (i, j) == pair else hom_dim_idx(self, i, j)\n"
    "dup.DupContext.hom_dim_idx = claimed\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)

ZERO_CLAIM_COMMANDS = [["dup-kquiver"], ["dup-kquiver", "--deep-check"],
                       ["verify", "--theorem", "3.1"], ["verify", "--theorem", "4.1"],
                       ["verify", "--theorem", "4.2"], ["verify", "--theorem", "4.3"]]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_false_zero_hom_dimension_is_an_engine_error(monkeypatch, capsys, flags):
    # the first nonzero pool pair dup-kquiver reads, claimed to be 0: every
    # command that reads it exits 2 with an engine error naming the pair
    hom_dim_idx, reads = dup.DupContext.hom_dim_idx, []

    def recorded(self, i, j):
        got = hom_dim_idx(self, i, j)
        if self._rules_checked:
            reads[-1][1][(i, j)] = got
        return got

    monkeypatch.setattr(dup.DupContext, "hom_dim_idx", recorded)
    for argv in ZERO_CLAIM_COMMANDS:
        reads.append((argv + ["--diagram", "A3"], {}))
        ref.clear_caches()
        assert cli.main(reads[-1][0]) == 0
    capsys.readouterr()
    ids = dup.DupContext(A3).ids
    pair = min(p for p, dim in reads[0][1].items() if dim)
    readers = [(argv, got[pair]) for argv, got in reads if pair in got]
    # theorem 4.3 reads only Ext^1, which the rule check has cached
    assert len(readers) == len(ZERO_CLAIM_COMMANDS) - 1
    for argv, dim in readers:
        proc = _run_script(flags, ZERO_CLAIM, ",".join(map(str, pair)), *argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"engine error: the Hom basis of ({ids[pair[0]]}, "
                                      f"{ids[pair[1]]}) has {dim} maps, not 0"), argv
