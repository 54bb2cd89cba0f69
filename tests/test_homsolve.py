"""Differential tests for the homsolve helpers on the arc-certification path.

``cokernel``, ``approximation_map`` and the composites of
``minimal_left_approximation`` are computed from one echelon pass and
from the blocks directly.  Each is held here to the dense construction
it replaced: a greedy standard-basis complement, the inverse of the
completed basis and identity sections for the cokernel; a sum of
inclusion composites for the approximation map; ``(g @ h).vec()`` for
the composites.  Inputs are every map the exchange graphs of duplicated
A3 and D4 (and classical D4) hand to these helpers, plus generated ones;
a duplicated arc's exchange map x -> E is rebuilt from the arguments of
its certificate, ``certify_exchange``, which builds neither E nor the
cokernel.  That certificate is held to ``exchange_sequence`` and to a
two-Hom isomorphism test, and must reject wrong complements.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltquiver import dup, homsolve, rep_a, tilt_a
from tiltquiver.exactlin import RatMatrix, sparse_row
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


def _recorded(build, *attrs):
    """Run ``build()`` while recording the calls of ``homsolve.<attr>``
    for each of ``attrs``: attr -> one {parameter: argument} per call."""
    seen = {attr: [] for attr in attrs}

    def recorder(fn, log):
        signature = inspect.signature(fn)

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            log.append(bound.arguments)
            return fn(*args, **kwargs)

        return record

    with pytest.MonkeyPatch.context() as mp:
        for attr in attrs:
            mp.setattr(homsolve, attr, recorder(getattr(homsolve, attr), seen[attr]))
        build()
    return seen


def _exchange_maps(certificates):
    """(x, pool, comps) of each recorded ``certify_exchange`` call, its
    approximation components rebuilt from its own arguments."""
    return [(c["x"], c["pool"],
             homsolve.minimal_left_approximation(c["x"], c["pool"], c["hom_x"], c["pool_hom"]))
            for c in certificates]


def _dup_graph(name):
    return lambda: dup.tilting_quiver_dup(dup.build_context(named_diagram(name)))


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_cokernel_matches_dense_reference_on_dup_maps(name):
    # the pool's shifted modules (inverse translates) go through cokernel,
    # and every arc's exchange map x -> E is rebuilt from its certificate;
    # all of them are injective, so the generated maps below cover the
    # non-injective case
    seen = _recorded(_dup_graph(name), "cokernel", "certify_exchange")
    calls = [c["f"] for c in seen["cokernel"]]
    calls += [homsolve.approximation_map(x, pool, comps)[1]
              for x, pool, comps in _exchange_maps(seen["certify_exchange"])]
    graph = _dup_graph(name)()
    assert len(calls) > len(graph.arcs)
    for f in calls:
        assert_cokernel_matches(f)


@pytest.mark.parametrize("build", [_dup_graph("A3"), _dup_graph("D4"),
                                   lambda: tilt_a.tilting_quiver(named_diagram("D4"))],
                         ids=["dup-A3", "dup-D4", "classical-D4"])
def test_approximation_map_is_the_sum_of_inclusion_composites(build):
    seen = _recorded(build, "approximation_map", "certify_exchange")
    calls = [(c["x"], c["pool"], c["comps"]) for c in seen["approximation_map"]]
    calls += _exchange_maps(seen["certify_exchange"])
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
# the arc certificate


def reference_is_iso(m, n):
    """Two-Hom isomorphism test for an indecomposable m and a brick n:
    isomorphic iff f . g != 0 for some g: n -> m and f: m -> n (a
    nonzero endomorphism of a brick is invertible, so f splits)."""
    if m.dims_key() != n.dims_key():
        return False
    return any(not (f @ g).is_zero()
               for f in homsolve.hom_basis(m, n) for g in homsolve.hom_basis(n, m))


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_certificate_agrees_with_exchange_sequence(name):
    certificates = _recorded(_dup_graph(name), "certify_exchange")["certify_exchange"]
    graph = _dup_graph(name)()
    assert len(certificates) == len(graph.arcs)
    middles = []
    for c in certificates:
        E, cok = homsolve.exchange_sequence(c["x"], c["pool"], c["hom_x"], c["pool_hom"])
        assert homsolve.certify_exchange(**c) == E.dims_key()
        assert reference_is_iso(cok, c["y"])
        middles.append(E.dims_key())
    assert sorted(middles) == sorted(a.e_dims for a in graph.arcs)


def test_certificate_accepts_exactly_the_isomorphic_complements():
    # every pool member (each a brick) offered as the complement of every
    # duplicated A3 arc: the certificate and the two-Hom test agree
    members = [m for _, m in dup.build_context(named_diagram("A3")).pool()]
    certificates = _recorded(_dup_graph("A3"), "certify_exchange")["certify_exchange"]
    accepted = 0
    for c in certificates:
        _, cok = homsolve.exchange_sequence(c["x"], c["pool"], c["hom_x"], c["pool_hom"])
        for z in members:
            got = homsolve.certify_exchange(c["x"], c["pool"], z, c["hom_x"], c["pool_hom"])
            assert (got is not None) == reference_is_iso(cok, z)
            accepted += got is not None
    assert accepted == len(certificates)


def _offer_complement(monkeypatch, make):
    """Make every duplicated arc certificate test ``make(x, y)`` in place
    of its complement y, with Hom bases of its own (the arc's coordinate
    caches, which belong to y, are dropped too)."""
    original = homsolve.certify_exchange

    def offered(x, pool, y, hom_x=None, pool_hom=None, hom_y=None, **caches):
        return original(x, pool, make(x, y), hom_x, pool_hom)

    monkeypatch.setattr(homsolve, "certify_exchange", offered)


def _zero_structure(m):
    """A module with m's dimensions and every structure map zero."""
    return m._rebuild(m.dims, {lab: RatMatrix.zeros(*mat.shape)
                               for lab, mat in m.struct().items()})


def _other_dims(x, y):
    for _, z in dup.build_context(x.quiver).pool():
        if z.dims_key() != y.dims_key():
            return z
    raise AssertionError("no pool member of other dimensions")


@pytest.mark.parametrize("make", [
    _other_dims,
    # a simple y has zero structure maps already; the others must fail
    lambda x, y: _zero_structure(y) if y.total_dim > 1 else y,
], ids=["wrong-dimensions", "zero-structure-maps"])
def test_certificate_rejects_a_wrong_complement(monkeypatch, make):
    _offer_complement(monkeypatch, make)
    with pytest.raises(RuntimeError, match="is not the expected complement"):
        _dup_graph("A3")()


def test_certificate_rejects_a_non_injective_approximation(monkeypatch):
    original = homsolve.minimal_left_approximation

    def zeroed(*args, **kwargs):
        return [(i, h.scale(0)) for i, h in original(*args, **kwargs)]

    monkeypatch.setattr(homsolve, "minimal_left_approximation", zeroed)
    with pytest.raises(homsolve.NoExchangeSequence, match="not injective"):
        _dup_graph("A2")()


def test_certificate_needs_a_brick_complement():
    # 0 -> S_1 -> P_0 -> S_0 -> 0 certifies; twice that sequence has the
    # cokernel S_0 + S_0, whose maps from E killing x form no line
    A2 = named_diagram("A2")
    s0, s1, p0 = rep_a.simple(A2, 0), rep_a.simple(A2, 1), rep_a.projective(A2, 0)
    assert homsolve.certify_exchange(s1, [p0], s0) == (1, 1)
    x = homsolve.direct_sum([s1, s1])[0]
    y = homsolve.direct_sum([s0, s0])[0]
    assert homsolve.exchange_sequence(x, [p0])[1].dims == y.dims
    assert homsolve.certify_exchange(x, [p0], y) is None


def test_certificate_needs_a_nonzero_injective_approximation():
    A2 = named_diagram("A2")
    p0, s0, s1 = rep_a.projective(A2, 0), rep_a.simple(A2, 0), rep_a.simple(A2, 1)
    # P_0 -> S_0 is onto, not injective; S_0 maps to nothing in {S_1}
    with pytest.raises(homsolve.NoExchangeSequence, match="not injective"):
        homsolve.certify_exchange(p0, [s0], s1)
    with pytest.raises(homsolve.NoExchangeSequence, match="empty approximation"):
        homsolve.certify_exchange(s0, [s1], s1)


# ---------------------------------------------------------------------------
# index-level certificates: coordinates in cached Hom bases


def reference_components(x, pool, hom_x, pool_hom):
    """Minimal left approximation with the radical span taken entrywise,
    in Hom(x, pool_i) itself rather than in coordinates of its basis."""
    comps = []
    for i, P in enumerate(pool):
        if not hom_x[i]:
            continue
        span = LinSpan(homsolve._map_vec_length(x, P))
        for j in range(len(pool)):
            if j != i and hom_x[j]:
                for g in pool_hom(j, i):
                    for h in hom_x[j]:
                        span.add((g @ h).vec())
        for h in hom_x[i]:
            if span.add(h.vec()):
                comps.append((i, h))
    return comps


def reference_line(comps, hom_y):
    """Kernel basis of g . f = 0 taken entrywise: one equation per entry
    of the composites, one unknown per (component, basis map) term."""
    terms = [(k, g) for k, (i, _) in enumerate(comps) for g in hom_y[i]]
    columns = [(g @ comps[k][1]).vec() for k, g in terms]
    return RatMatrix([list(row) for row in zip(*columns)], cols=len(terms)).kernel_basis()


@pytest.mark.parametrize("name", ["A3", "D4", "D5"])
def test_index_level_certificate_matches_the_uncached_one(name):
    # every arc: the components chosen from the cached radical coordinates
    # and the step-3 line from the cached composite coordinates equal the
    # uncached ones and the entrywise references
    certificates = _recorded(_dup_graph(name), "certify_exchange")["certify_exchange"]
    assert len(certificates) == {"A3": 21, "D4": 100, "D5": 455}[name]
    for c in certificates:
        x, pool, y, hom_x, pool_hom, hom_y = (
            c["x"], c["pool"], c["y"], c["hom_x"], c["pool_hom"], c["hom_y"])
        comps = homsolve.minimal_left_approximation(x, pool, hom_x, pool_hom,
                                                    radical=c["radical"])
        assert comps == homsolve.minimal_left_approximation(x, pool, hom_x, pool_hom)
        if name != "D5":
            assert comps == reference_components(x, pool, hom_x, pool_hom)
        terms, line = homsolve.exchange_line(x, y, comps, hom_x, hom_y, c["composites"])
        assert (terms, line) == homsolve.exchange_line(x, y, comps, hom_x, hom_y)
        assert line == reference_line(comps, hom_y)
        assert len(line) == 1


def _row(h):
    return sparse_row(h.vec())


def _spurious(h):
    """2h with 1 added to its first entry: for a map with two or more
    nonzero entries, no longer a multiple of h."""
    s = next(s for s in h.src.slot_keys if h.blocks[s].rows and h.blocks[s].cols)
    data = [[2 * v for v in row] for row in h.blocks[s].data]
    data[0][0] += 1
    blocks = {t: (RatMatrix(data, cols=b.cols) if t == s else b.scale(2))
              for t, b in h.blocks.items()}
    return SlotMap(h.src, h.dst, blocks)


def test_basis_coordinates_read_the_free_columns():
    ctx = dup.build_context(named_diagram("D4"))
    r = len(ctx.objects())
    basis = next(b for b in (ctx.hom_idx(x, i) for x in range(r) for i in range(r))
                 if len(b) >= 2)
    combo = _row(basis[0].scale(2) + basis[1].scale(F(-1, 3)))
    assert homsolve.basis_coordinates(basis, [combo]) == [(2, F(-1, 3)) + (0,) * (len(basis) - 2)]
    units = homsolve.basis_coordinates(basis, [_row(h) for h in basis])
    assert units == [tuple(int(k == l) for l in range(len(basis))) for k in range(len(basis))]
    # a scaled basis has entry 2 at its free columns: the entries read
    # there leave a nonzero residual
    doubled = [h.scale(2) for h in basis]
    with pytest.raises(RuntimeError, match="span of its cached Hom basis"):
        homsolve.basis_coordinates(doubled, [combo])


def test_composite_coordinates_rebuild_the_composites():
    # every (x, i, y) of duplicated A3: sum_m c_m . b_m over the basis of
    # Hom(x, y) is g_l . h_k entry for entry
    ctx = dup.build_context(named_diagram("A3"))
    objs = [m for _, m in ctx.objects()]
    r = len(objs)
    checked = 0
    for x in range(r):
        for i in range(r):
            for y in range(r):
                coords = ctx.composite_idx(x, i, y)
                basis = ctx.hom_idx(x, y)
                for h, row in zip(ctx.hom_idx(x, i), coords):
                    for g, c in zip(ctx.hom_idx(i, y), row):
                        rebuilt = SlotMap.zero(objs[x], objs[y])
                        for cm, b in zip(c, basis):
                            rebuilt = rebuilt + b.scale(cm)
                        assert rebuilt.vec() == (g @ h).vec()
                        checked += 1
    assert checked > 100


def test_exchange_line_reads_each_component_position():
    # single components x -> pool_i at every basis position, on the
    # duplicated D4 triples whose composites differ between positions
    ctx = dup.build_context(named_diagram("D4"))
    objs = [m for _, m in ctx.objects()]
    r = len(objs)
    checked = 0
    for x in range(r):
        for i in range(r):
            hom_x = [ctx.hom_idx(x, i)]
            for y in range(r):
                if len(set(ctx.composite_idx(x, i, y))) < 2:
                    continue
                hom_y = [ctx.hom_idx(i, y)]
                for h in hom_x[0]:
                    comps = [(0, h)]
                    got = homsolve.exchange_line(objs[x], objs[y], comps, hom_x, hom_y,
                                                 lambda a: ctx.composite_idx(x, i, y))
                    assert got == homsolve.exchange_line(objs[x], objs[y], comps, hom_x, hom_y)
                    assert got[1] == reference_line(comps, hom_y)
                    checked += 1
    assert checked >= 42


def test_corrupted_cached_basis_raises():
    # a triple x -> j -> i with nonzero composites and Hom(x, i) a line
    # whose basis map has two or more nonzero entries; that map is
    # replaced in the cache by a scaled one with a spurious entry
    ctx = dup.build_context(named_diagram("A3"))
    r = len(ctx.objects())
    x, j, i = next((x, j, i) for x in range(r) for j in range(r) for i in range(r)
                   if len({x, j, i}) == 3 and len(ctx.hom_idx(x, i)) == 1
                   and len(_row(ctx.hom_idx(x, i)[0])) >= 2 and ctx.radical_idx(x, j, i))
    good = ctx.hom_idx(x, i)[0]
    ctx._hom[(x, i)] = [_spurious(good)]
    ctx._radical.clear()
    with pytest.raises(RuntimeError, match="span of its cached Hom basis"):
        ctx.radical_idx(x, j, i)
    with pytest.raises(RuntimeError, match="span of its cached Hom basis"):
        homsolve.basis_coordinates([_spurious(good)], [_row(good)])
    with pytest.raises(RuntimeError, match="share their last nonzero entry"):
        homsolve.basis_coordinates([good, good.scale(2)], [_row(good)])


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
