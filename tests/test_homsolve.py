"""Differential tests for the homsolve helpers on the arc-certification path.

``cokernel``, ``approximation_map`` and the composites of
``minimal_left_approximation`` are computed from one echelon pass and
from the blocks directly.  Each is held here to the dense construction
it replaced: a greedy standard-basis complement, the inverse of the
completed basis and identity sections for the cokernel; a sum of
inclusion composites for the approximation map; ``(g @ h).vec()`` for
the composites.  Inputs are every map the exchange graphs of duplicated
A3 and D4 (and classical D4) hand to these helpers, plus generated ones.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltquiver import dup, homsolve, rep_a, tilt_a
from tiltquiver.exactlin import RatMatrix
from tiltquiver.homsolve import LinSpan, SlotMap
from tiltquiver.quiver_core import named_diagram

F = Fraction


# ---------------------------------------------------------------------------
# the dense constructions, as test-local references


def reference_complement(vecs, dim):
    """Greedy standard-basis complement: e_i joins iff it enlarges the span."""
    span = LinSpan(dim)
    for v in vecs:
        span.add(v)
    chosen = []
    for i in range(dim):
        e = [F(0)] * dim
        e[i] = F(1)
        if span.add(e):
            chosen.append(i)
    return chosen


def reference_projection(mat):
    """Complement columns and projection from the inverse of the basis
    (image basis, then the complement's standard vectors)."""
    d = mat.rows
    img = mat.image_basis()
    comp = reference_complement(img, d)
    if d == 0:
        return comp, RatMatrix.zeros(0, 0)
    std = RatMatrix.identity(d).data
    inv = RatMatrix(img + [std[i] for i in comp], cols=d).transpose().inverse()
    return comp, RatMatrix(inv.data[len(img):], cols=d)


def reference_cokernel(f):
    """(dims, structure maps, projection blocks) the dense way."""
    N = f.dst
    dims, projs, sections = {}, {}, {}
    for s in N.slot_keys:
        comp, projs[s] = reference_projection(f.blocks[s])
        dims[s] = len(comp)
        std = RatMatrix.identity(N.dims[s]).data
        sections[s] = RatMatrix([std[i] for i in comp], cols=N.dims[s]).transpose()
    struct = {}
    for lab, mat in N.struct().items():
        a, b = N.label_ends(lab)
        struct[lab] = projs[b] @ mat @ sections[a]
    return dims, struct, projs


def reference_approximation_map(x, pool, comps):
    E, incls, _ = homsolve.direct_sum([pool[i] for i, _ in comps])
    f = SlotMap.zero(x, E)
    for (_, h), inc in zip(comps, incls):
        f = f + (inc @ h)
    return E, f


def assert_cokernel_matches(f):
    C, proj = homsolve.cokernel(f)
    dims, struct, projs = reference_cokernel(f)
    assert C.dims == dims
    assert C.struct() == struct
    assert proj.blocks == projs


# ---------------------------------------------------------------------------
# every map the exchange graphs hand over


def _recorded(monkeypatch, attr, build):
    """Run ``build()`` while recording the arguments of ``homsolve.<attr>``."""
    seen = []
    original = getattr(homsolve, attr)

    def record(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(homsolve, attr, record)
    build()
    monkeypatch.setattr(homsolve, attr, original)
    return seen


def _dup_graph(name):
    return lambda: dup.tilting_quiver_dup(dup.build_context(named_diagram(name)))


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_cokernel_matches_dense_reference_on_dup_maps(monkeypatch, name):
    # the pool's shifted modules (inverse translates) and every arc's
    # exchange map x -> E go through cokernel; all of them are injective,
    # so the generated maps below cover the non-injective case
    calls = _recorded(monkeypatch, "cokernel", _dup_graph(name))
    graph = _dup_graph(name)()
    assert len(calls) > len(graph.arcs)
    for (f,) in calls:
        assert_cokernel_matches(f)


@pytest.mark.parametrize("build", [_dup_graph("A3"), _dup_graph("D4"),
                                   lambda: tilt_a.tilting_quiver(named_diagram("D4"))],
                         ids=["dup-A3", "dup-D4", "classical-D4"])
def test_approximation_map_is_the_sum_of_inclusion_composites(monkeypatch, build):
    calls = _recorded(monkeypatch, "approximation_map", build)
    assert calls
    for x, pool, comps in calls:
        E, f = homsolve.approximation_map(x, pool, comps)
        E_ref, f_ref = reference_approximation_map(x, pool, comps)
        assert E.dims == E_ref.dims
        assert E.struct() == E_ref.struct()
        assert f.blocks == f_ref.blocks


def test_sparse_composites_match_dense_products():
    ctx = dup.build_context(named_diagram("A3"))
    objs = [m for _, m in ctx.objects()]
    x = objs[0]
    widths = [x.dims[s] for s in x.slot_keys]
    checked = 0
    for j in range(len(objs)):
        hs = ctx.hom_idx(0, j)
        for i in range(len(objs)):
            length = homsolve._map_vec_length(x, objs[i])
            for g in ctx.hom_idx(j, i):
                g_nonzeros = homsolve._block_nonzeros(g)
                for h in hs:
                    row = homsolve._composite_row(
                        g_nonzeros, homsolve._block_nonzeros(h), widths)
                    assert [row.get(k, 0) for k in range(length)] == list((g @ h).vec())
                    checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# generated inputs


A3_OBJECTS = [m for _, m in dup.build_context(named_diagram("A3")).objects()]


@st.composite
def module_maps(draw):
    """A morphism between two duplicated-A3 modules, each a pool member
    or a sum of two, as an integer combination of a Hom basis."""
    def module():
        parts = draw(st.lists(st.sampled_from(A3_OBJECTS), min_size=1, max_size=2))
        return parts[0] if len(parts) == 1 else homsolve.direct_sum(parts)[0]

    M, N = module(), module()
    basis = homsolve.hom_basis(M, N)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    f = SlotMap.zero(M, N)
    for c, b in zip(coeffs, basis):
        f = f + b.scale(c)
    return f


@settings(max_examples=80, deadline=None)
@given(module_maps())
def test_cokernel_matches_dense_reference_on_generated_maps(f):
    assume(not f.is_injective())
    assert_cokernel_matches(f)


sparse_rat = st.one_of(st.just(F(0)), st.just(F(0)), st.sampled_from([F(1), F(-1)]),
                       st.fractions(min_value=-6, max_value=6, max_denominator=5))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda r: st.integers(0, 6).flatmap(
    lambda c: st.lists(st.lists(sparse_rat, min_size=c, max_size=c),
                       min_size=r, max_size=r).map(lambda d: RatMatrix(d, cols=c)))))
def test_cokernel_projection_matches_dense_reference(mat):
    comp, proj = homsolve.cokernel_projection(mat)
    want_comp, want_proj = reference_projection(mat)
    assert comp == want_comp
    assert proj == want_proj
    # it kills the image and fixes the complement
    assert (proj @ mat).is_zero()
    assert proj.columns(comp) == RatMatrix.identity(len(comp))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda d: st.lists(
    st.lists(sparse_rat, min_size=d, max_size=d), max_size=4).map(lambda v: (v, d))))
def test_complete_basis_uses_the_greedy_complement(vecs_dim):
    vecs, dim = vecs_dim
    assume(RatMatrix(vecs, cols=dim).rank() == len(vecs))
    comp, inv = homsolve.complete_basis(vecs, dim)
    assert comp == reference_complement(vecs, dim)
    basis = RatMatrix(vecs + [[F(int(i == c)) for i in range(dim)] for c in comp],
                      cols=dim).transpose()
    assert inv @ basis == RatMatrix.identity(dim)


# ---------------------------------------------------------------------------
# engine checks raise RuntimeError, with or without -O


A2 = named_diagram("A2")


def _not_a_morphism():
    # identity at the target slot, zero at the source: the kernel (all of
    # the source slot) is pushed out of it by the arrow
    p = rep_a.projective(A2, 0)
    blocks = {v: (RatMatrix.identity(p.dims[v]) if v == 1
                  else RatMatrix.zeros(p.dims[v], p.dims[v]))
              for v in p.slot_keys}
    return homsolve.kernel(SlotMap(p, p, blocks))


@pytest.mark.parametrize("fault, call, message", [
    (None, _not_a_morphism, "kernel not preserved"),
    (("top_lifts", lambda M: []),
     lambda: homsolve.projective_cover(rep_a.simple(A2, 0)), "zero top"),
    (("SlotMap.is_surjective", lambda self: False),
     lambda: homsolve.projective_cover(rep_a.simple(A2, 0)), "cover failed to be surjective"),
    (("socle_vectors", lambda M: []),
     lambda: homsolve.injective_envelope(rep_a.simple(A2, 0)), "zero socle"),
    (("SlotMap.is_injective", lambda self: False),
     lambda: homsolve.injective_envelope(rep_a.simple(A2, 0)), "envelope failed to be injective"),
])
def test_engine_checks_raise_runtime_error(monkeypatch, fault, call, message):
    if fault is not None:
        name, replacement = fault
        owner, _, attr = name.rpartition(".")
        monkeypatch.setattr(getattr(homsolve, owner) if owner else homsolve,
                            attr, replacement)
    with pytest.raises(RuntimeError, match=message):
        call()
