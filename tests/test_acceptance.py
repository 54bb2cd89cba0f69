"""Acceptance suite: one test per criterion, exact values throughout.

Each test prints a single pass line on success; pytest -v therefore
shows one verdict line per criterion either way.
"""

from tiltquiver import dup, endo, homsolve, rep_a, tilt_a
from tiltquiver.cli import (
    _verify_complement_counts,
    _verify_components_nonsaturated,
    _verify_saturation_rule,
    _verify_tame_delta,
)
from tiltquiver.quiver_core import named_diagram, orientations
from tiltquiver.rep_a import IndecId

_CTX: dict = {}
_DUP_GRAPHS: dict = {}


def _ctx(name: str) -> dup.DupContext:
    if name not in _CTX:
        _CTX[name] = dup.build_context(named_diagram(name))
    return _CTX[name]


def _dup_graph(name: str) -> tilt_a.TiltingGraph:
    if name not in _DUP_GRAPHS:
        _DUP_GRAPHS[name] = dup.tilting_quiver_dup(_ctx(name))
    return _DUP_GRAPHS[name]


def _proj_inj_ids(q):
    proj = frozenset(IndecId("dyn", rep_a.projective(q, v).dim_vector())
                     for v in q.vertices)
    inj = frozenset(IndecId("dyn", rep_a.injective(q, v).dim_vector())
                    for v in q.vertices)
    return proj, inj


def test_criterion_01_two_vertex_ground_truth():
    q = named_diagram("A2")
    items = rep_a.indecomposables(q)
    assert len(items) == 3
    # independent oracle: brute-force rigid pairs among the three
    brute = sorted(
        tuple(sorted((str(items[i][0]), str(items[j][0]))))
        for i in range(3) for j in range(i + 1, 3)
        if all(
            homsolve.ext1_dim(items[a][1], items[b][1]) == 0
            for a in (i, j) for b in (i, j)
        )
    )
    g = tilt_a.tilting_quiver(q)
    engine = sorted(tuple(sorted(str(x) for x in t.ids)) for t in g.tiltings)
    assert brute == engine and len(engine) == 2
    assert len(g.arcs) == 1
    arc = g.arcs[0]
    proj, inj = _proj_inj_ids(q)
    assert frozenset(g.tiltings[arc.src].ids) == proj
    assert frozenset(g.tiltings[arc.dst].ids) == inj
    assert arc.e_dims == (1, 1)
    print("criterion 1: PASS — 2 tilting modules; one arc, algebra to dual")


def test_criterion_02_three_vertex_orientations():
    for o in orientations("A3"):
        g = tilt_a.tilting_quiver(o)
        assert len(g.tiltings) == 5, [(a.source, a.target) for a in o.arrows]
        assert len(g.arcs) == 5
    q = named_diagram("A3")
    g = tilt_a.tilting_quiver(q)
    assert sorted(t.dim_sum for t in g.tiltings) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 2), (2, 3, 1), (3, 2, 1)]
    proj, inj = _proj_inj_ids(q)
    for i, t in enumerate(g.tiltings):
        if frozenset(t.ids) == proj:
            assert g.in_degree(i) == 0 and g.out_degree(i) > 0
        if frozenset(t.ids) == inj:
            assert g.out_degree(i) == 0 and g.in_degree(i) > 0
    print("criterion 2: PASS — s=t=5 on all 4 orientations; "
          "linear dims exact; source algebra, sink dual")


def test_criterion_03_counting_identity():
    for name in ("A2", "A3", "A4", "D4"):
        sweep = tilt_a.orientation_invariance(name)
        assert sweep["status"] == "pass", (name, sweep["violations"])
        assert sweep["t_constant"]
        for e in sweep["per_orientation"]:
            assert e["lhs"] == e["rhs"]
            assert e["lhs"] == 2 * e["t"] + e["m"]
            assert e["rhs"] == sweep["n"] * e["s"]
    print("criterion 3: PASS — arc count orientation-free and 2t+m=ns "
          "on A2, A3, A4, D4")


def test_criterion_04_dup_graph_size_and_regularity():
    expected = {"A2": (5, 5), "A3": (14, 21), "A4": (42, 84)}
    for name, (s, t) in expected.items():
        g = _dup_graph(name)
        assert len(g.tiltings) == s, name
        assert len(g.arcs) == t, name
        assert not g.defects
        n = g.pool.n
        for i in range(len(g.tiltings)):
            assert g.out_degree(i) + g.in_degree(i) == n
        assert g.is_connected()
    print("criterion 4: PASS — duplicated graphs 5/14/42 vertices, "
          "5/21/84 certified arcs, n-regular, connected")


def test_criterion_05_embedding_preserved_and_reflected():
    for name in ("A2", "A3", "A4", "D4"):
        rep = dup.verify_embedding(_ctx(name))
        assert rep["status"] == "pass", (name, rep["counterexamples"])
        assert rep["counterexamples"] == []
    print("criterion 5: PASS — classical exchange graph embeds with "
          "arcs preserved and reflected on A2, A3, A4, D4")


def test_criterion_06_shift_completion_biconditional():
    for name in ("A2", "A3", "D4"):
        rep = dup.verify_shift_completion(_ctx(name))
        assert rep["status"] == "pass", (name, rep["counterexamples"])
    print("criterion 6: PASS — shift completion iff vanishing support, "
          "non-sincere parts miss exactly one vertex (A2, A3, D4)")


def test_criterion_07_complement_counts():
    seen = {}
    for name in ("A2", "A3", "D4"):
        rep = _verify_complement_counts(named_diagram(name))
        assert rep["status"] == "pass", (name, rep["counterexamples"])
        seen[name] = rep["stats"]
    assert seen["A3"] == {"almost_complete": 10, "sincere": 5, "non_sincere": 5}
    print("criterion 7: PASS — 2 complements iff sincere, else exactly 1 "
          "(A2, A3, D4 exhaustively)")


def test_criterion_08_saturation_rule():
    for name in ("A2", "A3", "D4"):
        rep = _verify_saturation_rule(named_diagram(name))
        assert rep["status"] == "pass", (name, rep["counterexamples"])
    print("criterion 8: PASS — saturated iff all dimension sums >= 2; "
          "algebra and dual never saturated (A2, A3, D4)")


def test_criterion_09_components_contain_nonsaturated():
    for name in ("A2", "A3", "A4", "D4"):
        g = tilt_a.tilting_quiver(named_diagram(name))
        rep = _verify_components_nonsaturated(g)
        assert rep["status"] == "pass", (name, rep["counterexamples"])
    for w in (4, 6):
        g = tilt_a.kronecker_tilting_quiver(w)
        assert len(g.weak_components()) == 2
        rep = _verify_components_nonsaturated(g)
        assert rep["status"] in ("pass", "window-limited"), rep
        assert rep["counterexamples"] == []
    print("criterion 9: PASS — every weak component has a non-saturated "
          "vertex; both double-arrow chains covered, window effects benign")


def test_criterion_10_tame_nonsaturated_set():
    rep = _verify_tame_delta(6)
    assert rep["status"] == "pass", rep["counterexamples"]
    assert rep["stats"]["delta"] == ["P0+P1", "I0+I1"]
    assert rep["stats"]["interior_nonsaturated"] == 2
    print("criterion 10: PASS — deleted-vertex set is exactly "
          "{algebra, dual}, matching the in-window saturation flags")


def test_criterion_11_endo_global_dimension_bound():
    expected = {"A2": 5, "A3": 14}
    for name, count in expected.items():
        rep = endo.verify_endo_global_dimension(_ctx(name))
        assert rep["status"] == "pass", (name, rep["counterexamples"])
        assert rep["stats"]["tilting_modules"] == count
        assert rep["stats"]["max_global_dimension"] <= 3
    for name in ("A2", "A3", "D4"):
        assert 2 <= dup.global_dimension_dup(_ctx(name)) <= 3
    print("criterion 11: PASS — gl.dim of all 19 tilting endomorphism "
          "algebras <= 3; duplicated algebras sit between 2 and 3")


def test_criterion_12_cross_engine_suites():
    # (a) Euler form vs hom/ext and (b) translate formula, all pairs
    for name in ("A3", "D4"):
        q = named_diagram(name)
        items = rep_a.indecomposables(q)
        for _, m in items:
            tm = rep_a.tau(m)
            for _, n in items:
                hom = homsolve.hom_dim(m, n)
                ext = homsolve.ext1_dim(m, n)
                assert q.euler_form(m.dim_vector(), n.dim_vector()) == hom - ext
                assert ext == (0 if tm.is_zero() else homsolve.hom_dim(n, tm))
    # (c) compatibility counting rules against the solver
    for name in ("A2", "A3"):
        _ctx(name).validate_rules()
    # (d) functor never raises projective dimension on generated modules
    for name in ("A2", "A3"):
        ctx = _ctx(name)
        for t in dup.enumerate_tilting_dup(ctx):
            rep = endo.hom_pd_bound(ctx, t)
            assert rep["status"] == "pass", (name, t.label(), rep)
    # (e) handshake: degree total equals twice the arc count, every graph
    for name in ("A2", "A3", "A4", "D4"):
        g = tilt_a.tilting_quiver(named_diagram(name))
        assert sum(g.saturation(i).sigma
                   for i in range(len(g.tiltings))) == 2 * len(g.arcs)
        dg = _dup_graph(name) if name != "D4" else dup.tilting_quiver_dup(_ctx("D4"))
        assert sum(dg.out_degree(i) + dg.in_degree(i)
                   for i in range(len(dg.tiltings))) == 2 * len(dg.arcs)
    kg = tilt_a.kronecker_tilting_quiver(5)
    assert sum(kg.saturation(i).sigma
               for i in range(len(kg.tiltings))) == 2 * len(kg.arcs)
    print("criterion 12: PASS — Euler/translate identities, rule-vs-solver, "
          "pd bound, and handshake agree across engines")
