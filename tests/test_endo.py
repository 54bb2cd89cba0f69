"""Tests for endomorphism algebras of tilting modules."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tiltquiver import dup, endo, homsolve, rep_a
from tiltquiver.exactlin import RatMatrix
from tiltquiver.quiver_core import named_diagram

A2 = named_diagram("A2")
A3 = named_diagram("A3")


def projective_tilting(ctx):
    """The tilting set consisting of the embedded projectives."""
    want = set(ctx.embedded_projective_indices())
    for t in dup.enumerate_tilting_dup(ctx):
        if set(t.indices) == want:
            return t
    raise AssertionError("projective tilting set missing from enumeration")


def hom_bases(mods):
    """Canonical Hom bases between every ordered pair of the summands."""
    return {(i, j): homsolve.hom_basis(a, b)
            for i, a in enumerate(mods) for j, b in enumerate(mods)}


def shift_tilting(ctx):
    for t in dup.enumerate_tilting_dup(ctx):
        if all(i.kind == "W" for i in t.ids):
            return t
    raise AssertionError("all-shift tilting set missing from enumeration")


# ---------------------------------------------------------------------------
# structure algebra basics, checked at the base-algebra level first


def test_endomorphism_algebra_of_projective_generator():
    # two vertices, one arrow: 1 + 1 + 1 basis morphisms
    mods = [rep_a.projective(A2, 0), rep_a.projective(A2, 1)]
    alg = endo.structure_algebra(mods, hom_bases(mods))
    assert alg.dimension == 3
    assert len(alg.idempotents) == 2
    alg.assert_associative()
    alg.assert_unit()
    assert endo.global_dimension(alg) == 1


def test_scalar_corner_requirement():
    double, _, _ = homsolve.direct_sum(
        [rep_a.projective(A2, 0), rep_a.projective(A2, 0)])
    with pytest.raises(ValueError):
        endo.structure_algebra([double], hom_bases([double]))


def test_regular_projectives_have_simple_tops():
    mods = [rep_a.projective(A2, 0), rep_a.projective(A2, 1)]
    alg = endo.structure_algebra(mods, hom_bases(mods))
    for i in range(2):
        P = endo.regular_projective(alg, i)
        assert P.dims[i] == 1
        lifts = homsolve.top_lifts(P)
        assert len(lifts) == 1 and lifts[0][0] == i
        assert endo.projective_resolution(P) == [[i]]
        P.check_action()


# ---------------------------------------------------------------------------
# duplicated-algebra endomorphism algebras


def test_projective_tilting_algebra_dimension():
    # T = all indecomposable projectives, so B is the algebra itself seen
    # from the other side: dimension 2*dim(A) + dim(A) = 9 for two vertices
    ctx = dup.DupContext(A2)
    alg, members = endo.endo_algebra(ctx, projective_tilting(ctx))
    assert alg.dimension == 9
    assert len(alg.idempotents) == 4
    alg.assert_associative()
    alg.assert_unit()
    # same global dimension as the duplicated algebra itself
    assert endo.global_dimension(alg) == dup.global_dimension_dup(ctx) == 2


def test_projective_tilting_algebra_matches_duplicated_algebra_a3():
    ctx = dup.DupContext(A3)
    alg, _ = endo.endo_algebra(ctx, projective_tilting(ctx))
    # dim Lambda = 2*dim(A) + dim(D A); a linear three-vertex quiver has
    # a six-dimensional path algebra
    assert alg.dimension == 18
    assert endo.global_dimension(alg) == dup.global_dimension_dup(ctx) == 3


def test_b_module_of_summand_is_the_regular_projective():
    ctx = dup.DupContext(A2)
    t = projective_tilting(ctx)
    alg, members = endo.endo_algebra(ctx, t)
    objs = ctx.objects()
    for i, k in enumerate(members):
        bm = endo.b_module(alg, objs[k][1])
        P = endo.regular_projective(alg, i)
        assert bm.dims == P.dims
        assert endo.projective_resolution(bm) == [[i]]
        bm.check_action()


def test_b_module_requires_generation():
    ctx = dup.DupContext(A2)
    alg, _ = endo.endo_algebra(ctx, shift_tilting(ctx))
    proj = ctx.objects()[ctx.embedded_projective_indices()[0]][1]
    with pytest.raises(ValueError):
        endo.b_module(alg, proj)


def test_hom_functor_respects_composition():
    ctx = dup.DupContext(A2)
    t = projective_tilting(ctx)
    alg, _ = endo.endo_algebra(ctx, t)
    for pid, m in ctx.objects():
        bm = endo.b_module(alg, m)
        bm.check_action()


# ---------------------------------------------------------------------------
# coordinates: cached Hom bases against a dense solve


def _dense_coordinates(basis, f):
    """Coordinates of f in ``basis`` from a dense solve, None if it escapes."""
    if not basis:
        return [] if f.is_zero() else None
    cols = [h.vec() for h in basis]
    return RatMatrix(cols, cols=len(cols[0])).transpose().solve(f.vec())


def _dense_table(alg):
    table = {}
    for x, ex in enumerate(alg.elements):
        for y, ey in enumerate(alg.elements):
            if ex.dst != ey.src:
                continue
            idxs = alg.pair_basis[(ex.src, ey.dst)]
            sol = _dense_coordinates([alg.elements[k].hom for k in idxs],
                                     ey.hom @ ex.hom)
            table[(x, y)] = {k: c for k, c in zip(idxs, sol) if c}
    return table


def _dense_action(alg, m):
    homs = [homsolve.hom_basis(t, m) for t in alg.summands]
    action = {}
    for x, ex in enumerate(alg.elements):
        if x in alg.idempotents:
            continue
        mat = RatMatrix.zeros(len(homs[ex.src]), len(homs[ex.dst]))
        for col, h in enumerate(homs[ex.dst]):
            for row, c in enumerate(_dense_coordinates(homs[ex.src], h @ ex.hom)):
                mat[row, col] = c
        action[x] = mat
    return action


def _assert_dense_coordinates(alg, modules):
    """The table and the action on every generated module match the
    dense solve; returns how many modules were generated."""
    assert alg.table == _dense_table(alg)
    assert all(isinstance(c, Fraction)
               for entry in alg.table.values() for c in entry.values())
    generated = 0
    for m in modules:
        try:
            bm = endo.b_module(alg, m)
        except ValueError:
            continue                      # not generated by the summands
        assert bm.action == _dense_action(alg, m)
        generated += 1
    return generated


def test_coordinates_match_the_dense_solve_a3():
    # every pool object, and the sum of the summands: Hom from one summand
    # into that sum has dimension up to 6, so the actions are not 1 x 1
    ctx = dup.DupContext(A3)
    objs = [m for _, m in ctx.objects()]
    generated = 0
    for t in dup.enumerate_tilting_dup(ctx):
        alg, _ = endo.endo_algebra(ctx, t)
        regular, _, _ = homsolve.direct_sum(alg.summands)
        generated += _assert_dense_coordinates(alg, objs + [regular])
    assert generated > 14


def test_coordinates_match_the_dense_solve_kronecker():
    # Hom(P_1, P_0) of the double arrow is two-dimensional
    K = named_diagram("K")
    mods = [rep_a.projective(K, 0), rep_a.projective(K, 1)]
    alg = endo.structure_algebra(mods, hom_bases(mods))
    assert sorted(len(b) for b in alg.pair_basis.values()) == [0, 1, 1, 2]
    regular, _, _ = homsolve.direct_sum(mods)
    assert _assert_dense_coordinates(alg, mods + [regular]) == 3


# the Hom basis of one pair (a, c) of summands is dropped although a
# composite a -> b -> c is nonzero, so that product escapes its basis
ESCAPING_PRODUCT = (
    "import sys\n"
    "from tiltquiver import cli, endo\n"
    "structure_algebra = endo.structure_algebra\n"
    "def leaky(summands, homs):\n"
    "    homs = dict(homs)\n"
    "    for (a, b), hs in homs.items():\n"
    "        for (b2, c), gs in homs.items():\n"
    "            if b2 == b and len({a, b, c}) == 3 and any(\n"
    "                    not (g @ h).is_zero() for g in gs for h in hs):\n"
    "                homs[(a, c)] = []\n"
    "                return structure_algebra(summands, homs)\n"
    "    return structure_algebra(summands, homs)\n"
    "endo.structure_algebra = leaky\n"
    "sys.exit(cli.main(['verify', '--theorem', '3.1', '--diagram', 'A2']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_product_escaping_its_hom_basis_is_an_engine_error(flags):
    src = Path(endo.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", ESCAPING_PRODUCT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("engine error: a map does not lie in the span")


# ---------------------------------------------------------------------------
# the global dimension bound


def test_gldim_bound_two_vertices():
    rep = endo.verify_endo_global_dimension(dup.DupContext(A2))
    assert rep["status"] == "pass"
    assert rep["stats"]["tilting_modules"] == 5
    assert rep["stats"]["max_global_dimension"] <= 3
    assert rep["counterexamples"] == []


def test_gldim_bound_three_vertices():
    rep = endo.verify_endo_global_dimension(dup.DupContext(A3))
    assert rep["status"] == "pass"
    assert rep["stats"]["tilting_modules"] == 14
    assert rep["stats"]["max_global_dimension"] <= 3


@pytest.mark.parametrize("name, count", [("A4", 42), ("D4", 50)])
def test_gldim_bound_four_vertices(name, count):
    rep = endo.verify_endo_global_dimension(dup.DupContext(named_diagram(name)))
    assert rep["status"] == "pass", rep["counterexamples"]
    assert rep["stats"]["tilting_modules"] == count
    assert rep["stats"]["max_global_dimension"] == 3


def test_hom_pd_never_exceeds_module_pd(monkeypatch):
    # one sweep over the tilting modules; the downstairs pd is read off
    # the context's cached resolution, so no object is resolved twice
    for q, checked, objects in ((A2, 27, 7), (A3, 121, 12)):
        ctx = dup.DupContext(q)
        ids = {id(m) for _, m in ctx.objects()}  # the pool's certificates run here
        seen = []
        resolve = homsolve.projective_resolution
        monkeypatch.setattr(homsolve, "projective_resolution",
                            lambda m: seen.append(id(m)) or resolve(m))
        rep = endo.hom_pd_bound(ctx)
        monkeypatch.undo()
        assert rep["status"] == "pass"
        assert rep["stats"]["modules_checked"] == checked
        resolved = [k for k in seen if k in ids]
        assert len(resolved) == len(set(resolved)) == objects


def test_each_regular_projective_is_built_once(monkeypatch):
    # both checks over duplicated A3 cover many modules over each of their
    # algebras: Be_s is built at most once per (algebra, s), shared, and
    # still equals a fresh build afterwards
    builds = []
    build = endo.regular_projective
    monkeypatch.setattr(endo, "regular_projective",
                        lambda alg, s: builds.append((alg, s)) or build(alg, s))
    ctx = dup.DupContext(A3)
    assert endo.verify_endo_global_dimension(ctx)["status"] == "pass"
    assert endo.hom_pd_bound(ctx)["status"] == "pass"
    monkeypatch.undo()
    assert builds and len(builds) == len(set(builds))
    for alg, s in builds:
        fresh = build(alg, s)
        assert alg.projectives[s].dims == fresh.dims
        assert alg.projectives[s].struct() == fresh.struct()
