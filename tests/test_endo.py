"""Tests for endomorphism algebras of tilting modules."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
from tiltquiver import cli, dup, endo, homsolve, rep_a
from tiltquiver.exactlin import RatMatrix, rref_rows
from tiltquiver.quiver_core import named_diagram, orientations, parse_quiver

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


def composites_over(mods, homs):
    """``structure_algebra``'s composites, read off ``homs`` directly."""
    return lambda a, b, c: homsolve.composite_coordinates(
        mods[a], homs[(a, b)], homs[(b, c)], homs[(a, c)])


def end_of_sum(mods):
    """End of the sum of ``mods`` without a context."""
    homs = hom_bases(mods)
    return endo.structure_algebra(mods, homs, composites_over(mods, homs))


def multiply_sparse(alg, a, b):
    """The product of two sparse combinations of basis elements."""
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            for z, cz in ref.multiply(alg, x, y).items():
                out[z] = out.get(z, Fraction(0)) + cx * cy * cz
    return {z: c for z, c in out.items() if c}


def assert_associative(alg):
    for x in range(alg.dimension):
        for y in range(alg.dimension):
            xy = ref.multiply(alg, x, y)
            for z in range(alg.dimension):
                left = multiply_sparse(alg, xy, {z: Fraction(1)})
                right = multiply_sparse(alg, {x: Fraction(1)}, ref.multiply(alg, y, z))
                assert left == right, (x, y, z)


def assert_unit(alg):
    one = {e: Fraction(1) for e in alg.idempotents}
    for x in range(alg.dimension):
        t = {x: Fraction(1)}
        assert multiply_sparse(alg, one, t) == t == multiply_sparse(alg, t, one), x


def check_action(bm):
    """Acting by x then y equals acting by the product x*y."""
    alg = bm.quiver

    def act(e):
        if e in alg.idempotents:
            return ref.identity(bm.dims[alg.elements[e].src])
        return bm.maps[e]

    for x, ex in enumerate(alg.elements):
        for y, ey in enumerate(alg.elements):
            if ex.dst != ey.src:
                continue
            want = RatMatrix.zeros(bm.dims[ex.src], bm.dims[ey.dst])
            for z, c in ref.multiply(alg, x, y).items():
                for i, row in enumerate(act(z).data):
                    for j, v in enumerate(row):
                        want[i, j] += c * v
            assert act(x) @ act(y) == want, (x, y)


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
    alg = end_of_sum(mods)
    assert alg.dimension == 3
    assert len(alg.idempotents) == 2
    assert_associative(alg)
    assert_unit(alg)
    assert ref.global_dimension(alg) == 1


def test_scalar_corner_requirement():
    double, _, _ = ref.direct_sum(
        [rep_a.projective(A2, 0), rep_a.projective(A2, 0)])
    with pytest.raises(ValueError):
        end_of_sum([double])


def test_regular_projectives_have_simple_tops():
    mods = [rep_a.projective(A2, 0), rep_a.projective(A2, 1)]
    alg = end_of_sum(mods)
    for i in range(2):
        P = ref.regular_projective(alg, i)
        assert P.dims[i] == 1
        lifts = ref.top_lifts(P)
        assert len(lifts) == 1 and lifts[0][0] == i
        assert ref.projective_resolution(P) == [[i]]
        check_action(P)


# ---------------------------------------------------------------------------
# duplicated-algebra endomorphism algebras


def test_projective_tilting_algebra_dimension():
    # T = all indecomposable projectives, so B is the algebra itself seen
    # from the other side: dimension 2*dim(A) + dim(A) = 9 for two vertices
    ctx = dup.DupContext(A2)
    alg, members = endo.endo_algebra(ctx, projective_tilting(ctx))
    assert alg.dimension == 9
    assert len(alg.idempotents) == 4
    assert_associative(alg)
    assert_unit(alg)
    # same global dimension as the duplicated algebra itself
    assert ref.global_dimension(alg) == ref.global_dimension_dup(ctx) == 2


def test_projective_tilting_algebra_matches_duplicated_algebra_a3():
    ctx = dup.DupContext(A3)
    alg, _ = endo.endo_algebra(ctx, projective_tilting(ctx))
    # dim Lambda = 2*dim(A) + dim(D A); a linear three-vertex quiver has
    # a six-dimensional path algebra
    assert alg.dimension == 18
    assert ref.global_dimension(alg) == ref.global_dimension_dup(ctx) == 3


def test_b_module_of_summand_is_the_regular_projective():
    ctx = dup.DupContext(A2)
    t = projective_tilting(ctx)
    alg, members = endo.endo_algebra(ctx, t)
    objs = ctx.objects()
    for i, k in enumerate(members):
        bm = ref.b_module(alg, objs[k][1])
        P = ref.regular_projective(alg, i)
        assert bm.dims == P.dims
        assert ref.projective_resolution(bm) == [[i]]
        check_action(bm)


def test_b_module_requires_generation():
    ctx = dup.DupContext(A2)
    alg, _ = endo.endo_algebra(ctx, shift_tilting(ctx))
    proj = ctx.objects()[ctx.embedded_projective_indices()[0]][1]
    with pytest.raises(ValueError):
        ref.b_module(alg, proj)


def test_hom_functor_respects_composition():
    ctx = dup.DupContext(A2)
    t = projective_tilting(ctx)
    alg, _ = endo.endo_algebra(ctx, t)
    for pid, m in ctx.objects():
        bm = ref.b_module(alg, m)
        check_action(bm)


# ---------------------------------------------------------------------------
# coordinates: cached Hom bases against a dense solve


def _dense_coordinates(basis, f):
    """Coordinates of f in ``basis`` from a dense solve, None if it escapes."""
    if not basis:
        return [] if ref.is_zero(f) else None
    cols = [h.vec() for h in basis]
    return ref.solve(RatMatrix(cols, cols=len(cols[0])).transpose(), f.vec())


def _dense_table(alg):
    table = {}
    for x, ex in enumerate(alg.elements):
        for y, ey in enumerate(alg.elements):
            if ex.dst != ey.src:
                continue
            idxs = alg.pair_basis[(ex.src, ey.dst)]
            sol = _dense_coordinates([alg.elements[k].hom for k in idxs],
                                     ref.compose(ey.hom, ex.hom))
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
            for row, c in enumerate(_dense_coordinates(homs[ex.src], ref.compose(h, ex.hom))):
                mat[row, col] = c
        action[x] = mat
    return action


def _assert_dense_coordinates(alg, modules):
    """The table read through the shared blocks and the action on every
    generated module match the dense solve; returns how many modules were
    generated."""
    table = ref.blocks_table(alg)
    assert table == _dense_table(alg)
    # the coordinates as the Hom caches return them: ints where integral
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for entry in table.values() for c in entry.values())
    generated = 0
    for m in modules:
        try:
            bm = ref.b_module(alg, m)
        except ValueError:
            continue                      # not generated by the summands
        assert bm.maps == _dense_action(alg, m)
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
        regular, _, _ = ref.direct_sum(alg.summands)
        generated += _assert_dense_coordinates(alg, objs + [regular])
    assert generated > 14


def test_coordinates_match_the_dense_solve_kronecker():
    # Hom(P_1, P_0) of the double arrow is two-dimensional
    K = named_diagram("K")
    mods = [rep_a.projective(K, 0), rep_a.projective(K, 1)]
    alg = end_of_sum(mods)
    assert sorted(len(b) for b in alg.pair_basis.values()) == [0, 1, 1, 2]
    regular, _, _ = ref.direct_sum(mods)
    assert _assert_dense_coordinates(alg, mods + [regular]) == 3


# the Hom basis of one pair (a, c) of summands is dropped although a
# composite a -> b -> c is nonzero, so that product escapes its basis;
# the composites are read either over the leaky bases or from the context
ESCAPING_PRODUCT = (
    "import sys\n"
    "from reference import compose, is_zero\n"
    "from tiltquiver import cli, endo, homsolve\n"
    "structure_algebra = endo.structure_algebra\n"
    "def leaky(summands, homs, composites):\n"
    "    homs = dict(homs)\n"
    "    if OWN_BASES:\n"
    "        composites = lambda a, b, c: homsolve.composite_coordinates(\n"
    "            summands[a], homs[(a, b)], homs[(b, c)], homs[(a, c)])\n"
    "    for (a, b), hs in homs.items():\n"
    "        for (b2, c), gs in homs.items():\n"
    "            if b2 == b and len({a, b, c}) == 3 and any(\n"
    "                    not is_zero(compose(g, h)) for g in gs for h in hs):\n"
    "                homs[(a, c)] = []\n"
    "                return structure_algebra(summands, homs, composites)\n"
    "    return structure_algebra(summands, homs, composites)\n"
    "endo.structure_algebra = leaky\n"
    "sys.exit(cli.main(['verify', '--theorem', '3.1', '--diagram', 'A2']))\n"
)


def run_cli_script(flags, script):
    src = Path(endo.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(src), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)


def assert_engine_error(proc, message="engine error:"):
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(message), proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_product_escaping_its_hom_basis_is_an_engine_error(flags):
    proc = run_cli_script(flags, "OWN_BASES = True\n" + ESCAPING_PRODUCT)
    assert_engine_error(proc, "engine error: a map does not lie in the span")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_composites_that_do_not_fit_their_bases_are_an_engine_error(flags):
    # the same dropped basis, with the context's composites still read
    # over the full one: their coordinate tuples are too long
    proc = run_cli_script(flags, "OWN_BASES = False\n" + ESCAPING_PRODUCT)
    assert_engine_error(proc, "engine error: composite coordinates of summands")


# every End T records the offset of its first pair of distinct summands
# with a nonzero Hom one position on, so the shared blocks of that pair
# are read at a wrong offset
SHIFTED_OFFSET = (
    "import sys\n"
    "from tiltquiver import cli, endo\n"
    "structure_algebra = endo.structure_algebra\n"
    "def shifted(summands, homs, composites):\n"
    "    alg = structure_algebra(summands, homs, composites)\n"
    "    pair = next(p for p, basis in alg.pair_basis.items() if p[0] != p[1] and basis)\n"
    "    basis = alg.pair_basis[pair]\n"
    "    alg.pair_basis[pair] = range(basis.start + SHIFT, basis.stop + SHIFT)\n"
    "    return alg\n"
    "endo.structure_algebra = shifted\n"
    "sys.exit(cli.main(['verify', '--theorem', '3.1', '--diagram', 'A3', '--deep-check']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("shift", [1, -1])
def test_block_read_at_a_wrong_offset_is_an_engine_error(flags, shift):
    assert_engine_error(run_cli_script(flags, f"SHIFT = {shift}\n" + SHIFTED_OFFSET))


def test_block_reads_at_every_wrong_offset_are_engine_errors():
    # each pair of distinct summands of every End T over duplicated A3,
    # recorded one position on or back in turn
    ctx = dup.DupContext(A3)
    shifted = 0
    for t in dup.enumerate_tilting_dup(ctx):
        alg, _ = endo.endo_algebra(ctx, t)
        for pair, basis in list(alg.pair_basis.items()):
            if pair[0] == pair[1] or not basis:
                continue
            for shift in (1, -1):
                alg.pair_basis[pair] = range(basis.start + shift, basis.stop + shift)
                with pytest.raises(RuntimeError):
                    for i in range(len(alg.summands)):
                        endo.simple_resolution(alg, i)
                shifted += 1
            alg.pair_basis[pair] = basis
    assert shifted > 100


def test_theorem_sweep_and_deep_check_counts(monkeypatch, capsys, tmp_path):
    # the seed-1 A3 file: the sweep builds 14 algebras and resolves 84
    # simples; the deep check solves no Hom system of its own.  The rule
    # check reads 81 rank-only Hom dimensions, one per ordered pool pair
    # (9 more are End checks: one per classical member, which its rigidity
    # check reads back from ``homsolve.end_dim`` instead of solving again,
    # and one per shifted module), and a
    # Hom basis is solved only where a certificate, or the build of a
    # shifted module, reads a nonzero one: 57 bases
    ref.clear_caches()
    calls = {"hom_basis": 0, "hom_dim": 0, "structure_algebra": 0, "simple_resolution": 0}
    for module, name in ((homsolve, "hom_basis"), (homsolve, "hom_dim"),
                         (endo, "structure_algebra"), (endo, "simple_resolution")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    path = tmp_path / "a3.quiver"
    path.write_text(ref.A3_SEED1)
    assert cli.main(["verify", "--theorem", "3.1", "--deep-check", "-q", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"theorem 3.1 [file {path}]: pass\n")
    assert calls == {"hom_basis": 57, "hom_dim": 90, "structure_algebra": 14,
                     "simple_resolution": 84}


# ---------------------------------------------------------------------------
# the simples of End T, resolved in free coordinates


def _shared_and_reference_tables(ctx, t):
    """End T of the tilting set t, its table read through the context's
    shared blocks, and the table the per-algebra builder makes of the same
    Hom bases and composites."""
    alg, members = endo.endo_algebra(ctx, t)
    homs = {(a, b): ctx.hom_idx(i, j)
            for a, i in enumerate(members) for b, j in enumerate(members)}
    built = ref.structure_table(alg.summands, homs, lambda a, b, c: ctx.composite_idx(
        members[a], members[b], members[c]))
    return alg, ref.blocks_table(alg), built


# the digest of every simple's resolution steps over the seed-1 E6 file,
# algebra by algebra in enumeration order, as the per-algebra table
# route computed them
E6_STEPS_SHA256 = "ffc412e3d82b729e1c17e3954a99586ac3e80fad9ee95b7c603e1956b7ec1f71"


def test_cached_tables_and_free_resolutions_match_the_module_route():
    # every orientation of duplicated A3 and D4, and A4: the table read
    # through the context's shared blocks equals the per-algebra builder's
    # and the dense products, and each simple resolves as the generic
    # module loop resolves it
    algebras, lengths = 0, set()
    for q in orientations("A3") + orientations("D4") + [named_diagram("A4")]:
        ctx = dup.DupContext(q)
        for t in dup.enumerate_tilting_dup(ctx):
            alg, table, built = _shared_and_reference_tables(ctx, t)
            assert table == built == _dense_table(alg)
            for i in range(len(alg.summands)):
                steps = endo.simple_resolution(alg, i)
                assert steps == ref.projective_resolution(ref.simple_module(alg, i))
                lengths.add(len(steps))
            algebras += 1
    assert algebras == 4 * 14 + len(orientations("D4")) * 50 + 42
    assert lengths == {1, 2, 3, 4}                # pd 0, 1, 2 and 3 all occur
    # the seed-1 E6 file: the tables agree, and the steps of every simple
    # are those the per-algebra table gave
    ctx = dup.DupContext(parse_quiver(ref.E6_SEED1))
    digest = hashlib.sha256()
    tilts = dup.enumerate_tilting_dup(ctx)
    for t in tilts:
        alg, table, built = _shared_and_reference_tables(ctx, t)
        assert table == built
        for i in range(len(alg.summands)):
            digest.update(repr(endo.simple_resolution(alg, i)).encode())
    assert len(tilts) == 833
    assert digest.hexdigest() == E6_STEPS_SHA256


def _dropping_one_cover_column(call):
    """``rref_rows`` that zeroes the first nonzero column of its call-th
    system, a cover of some syzygy inside ``simple_resolution``."""
    calls = []

    def faulty(rows, ncols):
        rows = list(rows)
        calls.append(None)
        if len(calls) == call and rows:
            col = min(k for row in rows for k, v in row.items() if v)
            rows = [{k: v for k, v in row.items() if k != col} for row in rows]
        return rref_rows(rows, ncols)
    return faulty


def test_every_dropped_cover_column_is_an_engine_error(monkeypatch):
    ctx = dup.DupContext(A2)
    assert endo.verify_endo_global_dimension(ctx)["status"] == "pass"
    covers = []
    monkeypatch.setattr(endo, "rref_rows",
                        lambda rows, ncols: covers.append(None) or rref_rows(rows, ncols))
    endo.verify_endo_global_dimension(ctx)
    assert len(covers) > 10
    for call in range(1, len(covers) + 1):
        monkeypatch.setattr(endo, "rref_rows", _dropping_one_cover_column(call))
        with pytest.raises(RuntimeError, match="the cover of a syzygy of simple"):
            endo.verify_endo_global_dimension(ctx)


DROPPED_COVER_COLUMN = (
    "import sys\n"
    "from tiltquiver import cli, endo\n"
    "from tiltquiver.exactlin import rref_rows\n"
    "calls = []\n"
    "def faulty(rows, ncols):\n"
    "    rows = list(rows)\n"
    "    calls.append(None)\n"
    "    if len(calls) == 1:\n"
    "        col = min(k for row in rows for k, v in row.items() if v)\n"
    "        rows = [{k: v for k, v in row.items() if k != col} for row in rows]\n"
    "    return rref_rows(rows, ncols)\n"
    "endo.rref_rows = faulty\n"
    "sys.exit(cli.main(['verify', '--theorem', '3.1', '--diagram', 'A2']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_dropped_cover_column_exits_with_an_engine_error(flags):
    assert_engine_error(run_cli_script(flags, DROPPED_COVER_COLUMN))


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
    # one sweep over the tilting modules; the downstairs pd is resolved
    # once per object, not once per tilting module
    for q, checked, objects in ((A2, 27, 7), (A3, 121, 12)):
        ctx = dup.DupContext(q)
        ids = {id(m) for _, m in ctx.objects()}  # the pool's certificates run here
        seen = []
        resolve = ref.projective_resolution
        monkeypatch.setattr(ref, "projective_resolution",
                            lambda m: seen.append(id(m)) or resolve(m))
        rep = ref.hom_pd_bound(ctx)
        monkeypatch.undo()
        assert rep["status"] == "pass"
        assert rep["stats"]["modules_checked"] == checked
        resolved = [k for k in seen if k in ids]
        assert len(resolved) == len(set(resolved)) == objects


def test_each_regular_projective_is_built_once(monkeypatch):
    # hom_pd_bound covers many modules over each End T of duplicated A3:
    # Be_s is built at most once per (algebra, s), shared, and still
    # equals a fresh build afterwards
    builds = []
    build = ref.regular_projective
    ref.shared_projective.cache_clear()
    monkeypatch.setattr(ref, "regular_projective",
                        lambda alg, s: builds.append((alg, s)) or build(alg, s))
    assert ref.hom_pd_bound(dup.DupContext(A3))["status"] == "pass"
    monkeypatch.undo()
    assert builds and len(builds) == len(set(builds))
    for alg, s in builds:
        fresh = build(alg, s)
        assert ref.shared_projective(alg, s).dims == fresh.dims
        assert ref.shared_projective(alg, s).maps == fresh.maps
