"""Tests for the duplicated-algebra triples and their tilting theory."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from tiltquiver import dup, homsolve, rep_a
from tiltquiver.quiver_core import named_diagram, parse_quiver

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
    m_labels = [lab for lab in lay.solver if lab[0] == "m"]
    assert m_labels == [("m", 0, ("e0",))]
    # but every path carries a stored matrix
    all_m = [lab for lab in lay.labels if lab[0] == "m"]
    assert len(all_m) == 3


def test_bar_projective_a2():
    b0 = dup.bar_projective(A2, 0)
    b1 = dup.bar_projective(A2, 1)
    b0.validate()
    b1.validate()
    assert dims(b0) == ((1, 1), (1, 0))
    assert dims(b1) == ((0, 1), (1, 1))
    # the connecting matrix along the arrow path is the nonzero one
    assert not b0.conn[(0, ("e0",))].is_zero()
    assert not b1.conn[(0, ("e0",))].is_zero()


def test_bar_projectives_are_projective_and_injective():
    for q in (A2, A3):
        for a in q.vertices:
            b = dup.bar_projective(q, a)
            assert homsolve.projective_dimension(b) == 0
            c, _, _ = homsolve.cosyzygy(b)
            assert c.is_zero()


def test_embedding_preserves_hom_dimensions():
    P, I, S = rep_a.canonical_modules(A3)
    mods = list(P.values()) + list(I.values()) + list(S.values())
    for m in mods:
        for n in mods:
            assert dup.triple_hom_dim(dup.embed(A3, m), dup.embed(A3, n)) == \
                rep_a.hom_dim(m, n)


def test_embedding_preserves_ext_dimensions():
    pool = rep_a.indecomposables(A3)
    for _, m in pool:
        for _, n in pool:
            assert dup.triple_ext1(dup.embed(A3, m), dup.embed(A3, n)) == \
                rep_a.ext1_dim(m, n)


def test_hom_oracles_at_the_bar_modules():
    embP0 = dup.embed(A2, rep_a.projective(A2, 0))
    embP1 = dup.embed(A2, rep_a.projective(A2, 1))
    assert dup.triple_hom_dim(embP1, embP0) == 1
    for a in A2.vertices:
        bar = dup.bar_projective(A2, a)
        embS = dup.embed(A2, rep_a.simple(A2, a))
        # the embedded simple maps into the socle of the bar module;
        # nothing maps the other way (the connecting map is invertible)
        assert dup.triple_hom_dim(embS, bar) == 1
        assert dup.triple_hom_dim(bar, embS) == 0
    for a in A2.vertices:
        for b in A2.vertices:
            assert dup.triple_hom_dim(
                dup.bar_projective(A2, a), dup.bar_projective(A2, b)
            ) == rep_a.hom_dim(rep_a.projective(A2, a), rep_a.projective(A2, b))


def test_hom_into_embedded_injective_counts_support():
    pool = rep_a.indecomposables(A3)
    for i in A3.vertices:
        embI = dup.embed(A3, rep_a.injective(A3, i))
        for _, m in pool:
            assert dup.triple_hom_dim(dup.embed(A3, m), embI) == \
                m.dim_vector()[A3.v_pos[i]]


def test_hom_rejects_mismatched_quivers():
    with pytest.raises(ValueError):
        dup.triple_hom(dup.embed(A2, rep_a.simple(A2, 0)),
                       dup.embed(A3, rep_a.simple(A3, 0)))


def test_embedded_projective_dimension_matches_base():
    for _, m in rep_a.indecomposables(A3):
        em = dup.embed(A3, m)
        want = homsolve.projective_dimension(m)
        assert homsolve.projective_dimension(em) == want
        assert want <= 1


# ---------------------------------------------------------------------------
# shifted modules and translates


def test_shifted_modules_a2():
    w0 = dup.shifted_module(A2, 0)
    w1 = dup.shifted_module(A2, 1)
    w0.validate()
    w1.validate()
    assert dims(w0) == ((0, 1), (0, 0))
    assert dims(w1) == ((0, 1), (1, 0))
    assert not w1.conn[(0, ("e0",))].is_zero()
    for w in (w0, w1):
        assert homsolve.end_dim(w) == 1
        assert homsolve.projective_dimension(w) == 1


def test_translate_roundtrip_recovers_embedded_injective():
    for q in (A2, A3):
        for i in q.vertices:
            w = dup.shifted_module(q, i)
            back = dup.tau_dup(w)
            assert back.dims_key() == dup.embed(q, rep_a.injective(q, i)).dims_key()


def test_translate_kills_injectives_and_projectives():
    assert dup.tau_inverse_dup(dup.bar_projective(A2, 0)).is_zero()
    assert dup.tau_inverse_dup(
        dup.embed_top(A2, rep_a.injective(A2, 1))).is_zero()
    assert dup.tau_dup(dup.embed(A2, rep_a.projective(A2, 0))).is_zero()
    assert dup.tau_dup(dup.bar_projective(A2, 1)).is_zero()


def test_shift_extension_identity():
    # Ext^1(shift_i, embedded M) counts the dimension of M at i,
    # and nothing extends the other way round.
    for q in (A2, A3):
        ctx = dup.build_context(q)
        ids = ctx.pool_ids()
        shift_pos = {pid.key: k for k, pid in enumerate(ids) if pid.kind == "W"}
        for i in q.vertices:
            wi = shift_pos[i]
            for j, pid in enumerate(ids):
                if pid.kind != "E":
                    continue
                assert ctx.ext1_idx(wi, j) == ctx._a_dims[j][q.v_pos[i]]
                assert ctx.ext1_idx(j, wi) == 0


def test_sigma_levels_a2():
    ctx = dup.build_context(A2)
    levels = ctx.sigma_levels()
    assert [m.dims_key() for m in levels[0]] == [(0, 0, 1, 1), (0, 0, 0, 1)]
    # the first cosyzygies of the embedded projectives are the shifts
    got = sorted(m.dims_key() for m in levels[1])
    want = sorted(dup.shifted_module(A2, i).dims_key() for i in A2.vertices)
    assert got == want
    assert all(m.dims_key() == (1, 0, 0, 0) for m in levels[2])


# ---------------------------------------------------------------------------
# tilting enumeration


def test_pool_rules_match_solver():
    for q in (A2, A3):
        ctx = dup.build_context(q)
        ctx.validate_rules()  # raises on any disagreement


def test_enumerate_a2_exact():
    ctx = dup.build_context(A2)
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
        ctx = dup.build_context(named_diagram(name))
        assert len(dup.enumerate_tilting_dup(ctx)) == want


def test_graph_a2_pentagon():
    ctx = dup.build_context(A2)
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
        ctx = dup.build_context(named_diagram(name))
        g = dup.tilting_quiver_dup(ctx)
        assert (len(g.tiltings), len(g.arcs)) == (verts, arcs)
        n = ctx.n
        for i in range(len(g.tiltings)):
            assert g.out_degree(i) + g.in_degree(i) == n
        assert g.is_connected()
        assert not g.defects


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("name, vertices", [
    # A_n: the Catalan number C_{n+1}
    ("A5", _catalan(6)),
    # D_n: (3n - 2)/n . C(2n - 2, n - 1)
    ("D5", (3 * 5 - 2) * comb(2 * 5 - 2, 5 - 1) // 5),
    # E6: the cluster-complex count, no closed form in n
    ("E6", 833),
])
def test_graph_sizes_match_closed_forms(name, vertices):
    # the cluster-complex counts of the Dynkin types; every vertex has n
    # neighbours, so an n-regular graph has n . V / 2 arcs
    assert vertices == {"A5": 132, "D5": 182, "E6": 833}[name]
    ctx = dup.build_context(named_diagram(name))
    g = dup.tilting_quiver_dup(ctx)
    n = ctx.n
    assert len(g.tiltings) == vertices
    assert len(g.arcs) == n * vertices // 2
    assert all(g.out_degree(i) + g.in_degree(i) == n for i in range(vertices))
    assert g.is_connected()
    assert not g.defects


def test_graph_works_on_a_file_style_quiver():
    q = parse_quiver("vertices 1 2 3\narrow a 2 1\narrow b 2 3\n")
    ctx = dup.build_context(q)
    g = dup.tilting_quiver_dup(ctx)
    assert len(g.tiltings) == 14 and len(g.arcs) == 21
    assert g.is_connected()


# ---------------------------------------------------------------------------
# checkers


def test_verify_embedding():
    for q in (A2, A3):
        rep = dup.verify_embedding(dup.build_context(q))
        assert rep["status"] == "pass"
        assert not rep["counterexamples"]


def test_verify_regularity():
    rep = dup.verify_regularity(dup.build_context(A3))
    assert rep["status"] == "pass"
    assert rep["stats"] == {"vertices": 14, "arcs": 21, "degree": 3,
                            "connected": True}


def test_verify_shift_completion():
    for q in (A2, A3):
        rep = dup.verify_shift_completion(dup.build_context(q))
        assert rep["status"] == "pass"
        assert rep["stats"]["checked_completions"] > 0


def test_global_dimension():
    assert dup.global_dimension_dup(dup.build_context(A2)) == 2
    assert dup.global_dimension_dup(dup.build_context(A3)) == 3
    assert dup.global_dimension_dup(dup.build_context(named_diagram("D4"))) == 3


def test_deep_check_a2():
    rep = dup.deep_check_coresolution(dup.build_context(A2))
    assert rep["status"] == "pass"
    assert rep["stats"]["sequences_checked"] == 20


# ---------------------------------------------------------------------------
# engine checks: exit 2 under python and python -O

# every shifted module is built as the sum of two copies of itself, so its
# endomorphism ring is no longer one-dimensional
DECOMPOSABLE_SHIFT = (
    "import sys\n"
    "from tiltquiver import cli, dup, homsolve\n"
    "tau = dup.tau_inverse_dup\n"
    "dup.tau_inverse_dup = lambda m: homsolve.direct_sum([tau(m), tau(m)])[0]\n"
    "sys.exit(cli.main(['dup-kquiver', '--diagram', 'A3']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_decomposable_shifted_module_is_an_engine_error(flags):
    src = Path(dup.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", DECOMPOSABLE_SHIFT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "engine error: shifted module failed to be indecomposable" in proc.stderr
