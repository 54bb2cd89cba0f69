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
cokernel.  The graph certifies each exchange pair (x, y) once, so every
arc's own arguments are rebuilt from the graph (``_arc_certificates``).
That certificate is held to ``exchange_sequence`` and to a two-Hom
isomorphism test, and must reject wrong complements.  ``kernel`` reads
structure maps at the free columns of canonical kernel bases and is
held to the per-column solves it replaced; the structure nonzeros that
``_hom_system`` memoizes per module are held to a fresh read after full
runs of both engines.  The projective covers, filled from the Yoneda
words of ``projective_for_slot``, are held to the identity on every
slot projective and to the solved Hom(P_s, M) generator by generator.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltquiver import cli, dup, endo, homsolve, rep_a, tilt_a
from tiltquiver.exactlin import RatMatrix, sparse_row
from tiltquiver.homsolve import LinSpan, SlotMap
from tiltquiver.quiver_core import named_diagram, orientations

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
    """(x, pool, comps) of each ``certify_exchange`` argument set, its
    approximation components rebuilt from its own arguments."""
    return [(c["x"], c["pool"], homsolve.minimal_left_approximation(c["hom_x"], c["radical"]))
            for c in certificates]


def _dup_graph(name):
    return lambda: dup.tilting_quiver_dup(dup.DupContext(named_diagram(name)))


def _arc_certificates(name):
    """The exchange graph of duplicated ``name`` and, for each of its arcs
    in order, the ``certify_exchange`` arguments of that arc alone: x,
    the members of its almost complete part followed by the bar
    projectives, y, and the graph's cached Hom bases and coordinates."""
    ctx = dup.DupContext(named_diagram(name))
    graph = dup.tilting_quiver_dup(ctx)
    objs = ctx.objects()
    position = {pid: k for k, pid in enumerate(ctx.pool_ids())}
    bars = list(range(ctx.pool_size(), ctx.pool_size() + ctx.n))

    def arguments(arc):
        x, y = position[arc.x], position[arc.y]
        members = [k for k in graph.tiltings[arc.src].indices if k != x] + bars
        return {
            "x": objs[x][1],
            "pool": [objs[k][1] for k in members],
            "y": objs[y][1],
            "hom_x": [ctx.hom_idx(x, k) for k in members],
            "hom_y": [ctx.hom_idx(k, y) for k in members],
            "radical": lambda a, b: ctx.radical_idx(x, members[a], members[b]),
            "composites": lambda a: ctx.composite_idx(x, members[a], y),
        }

    return graph, [arguments(a) for a in graph.arcs]


class FreshHoms:
    """Hom bases solved here, apart from any context cache: one
    ``hom_basis`` per pair of module objects, keyed by identity (the
    modules are kept, so no id is reused)."""

    def __init__(self):
        self._bases = {}

    def __call__(self, m, n):
        key = (id(m), id(n))
        if key not in self._bases:
            self._bases[key] = (m, n, homsolve.hom_basis(m, n))
        return self._bases[key][2]


def with_complement(c, y, homs):
    """The certificate arguments ``c`` offered the complement y: the Hom
    bases into y and the composite coordinates over them from ``homs``."""
    x, hom_x = c["x"], c["hom_x"]
    hom_y = [homs(P, y) for P in c["pool"]]
    hom_xy = homs(x, y)
    return {**c, "y": y, "hom_y": hom_y, "composites": lambda i: homsolve.composite_coordinates(
        x, hom_x[i], hom_y[i], hom_xy)}


def fresh_arguments(x, pool, y, homs=None):
    """``certify_exchange`` arguments with every Hom basis taken from
    ``homs`` (fresh ``hom_basis`` results by default) and the radical
    and composite coordinates computed over them."""
    homs = homs or FreshHoms()
    hom_x = [homs(x, P) for P in pool]
    c = {"x": x, "pool": pool, "hom_x": hom_x,
         "radical": lambda j, i: homsolve.radical_coordinates(
             x, hom_x[j], homs(pool[j], pool[i]), hom_x[i])}
    return with_complement(c, y, homs)


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_cokernel_matches_dense_reference_on_dup_maps(name):
    # the pool's shifted modules (inverse translates) go through cokernel,
    # and every arc's exchange map x -> E is rebuilt from its certificate;
    # all of them are injective, so the generated maps below cover the
    # non-injective case
    seen = _recorded(_dup_graph(name), "cokernel")
    graph, certificates = _arc_certificates(name)
    calls = [c["f"] for c in seen["cokernel"]]
    calls += [homsolve.approximation_map(x, pool, comps)[1]
              for x, pool, comps in _exchange_maps(certificates)]
    assert len(calls) > len(graph.arcs)
    for f in calls:
        assert_cokernel_matches(f)


@pytest.mark.parametrize("build, name", [
    (_dup_graph("A3"), "A3"),
    (_dup_graph("D4"), "D4"),
    (lambda: tilt_a.tilting_quiver(named_diagram("D4")), None),  # no certify_exchange
], ids=["dup-A3", "dup-D4", "classical-D4"])
def test_approximation_map_is_the_sum_of_inclusion_composites(build, name):
    seen = _recorded(build, "approximation_map")
    calls = [(c["x"], c["pool"], c["comps"]) for c in seen["approximation_map"]]
    if name:
        calls += _exchange_maps(_arc_certificates(name)[1])
    assert calls
    for x, pool, comps in calls:
        E, f = homsolve.approximation_map(x, pool, comps)
        E_ref, f_ref = reference_approximation_map(x, pool, comps)
        assert E.dims == E_ref.dims
        assert E.struct() == E_ref.struct()
        assert f.blocks == f_ref.blocks


def test_sparse_composites_match_dense_products():
    ctx = dup.DupContext(named_diagram("A3"))
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
    # each arc's own certificate and sequence give that arc's middle term,
    # though the graph certified only the first arc of each pair (x, y)
    graph, certificates = _arc_certificates(name)
    assert len(certificates) == len(graph.arcs)
    for arc, c in zip(graph.arcs, certificates):
        E, cok = homsolve.exchange_sequence(c["x"], c["pool"], c["hom_x"], c["radical"])
        assert homsolve.certify_exchange(**c) == E.dims_key()
        assert reference_is_iso(cok, c["y"])
        assert arc.e_dims == E.dims_key()


def test_certificate_accepts_exactly_the_isomorphic_complements():
    # every pool member (each a brick) offered as the complement of every
    # duplicated A3 arc: the certificate and the two-Hom test agree
    members = [m for _, m in dup.DupContext(named_diagram("A3")).pool()]
    _, certificates = _arc_certificates("A3")
    homs = FreshHoms()
    accepted = 0
    for c in certificates:
        _, cok = homsolve.exchange_sequence(c["x"], c["pool"], c["hom_x"], c["radical"])
        for z in members:
            got = homsolve.certify_exchange(**with_complement(c, z, homs))
            assert (got is not None) == reference_is_iso(cok, z)
            accepted += got is not None
    assert accepted == len(certificates)


def _offer_complement(monkeypatch, make):
    """Make every duplicated arc certificate test ``make(x, y)`` in place
    of its complement y, with Hom bases into it and composite coordinates
    of its own (the arc's, which belong to y, are dropped)."""
    original = homsolve.certify_exchange
    homs = FreshHoms()

    def offered(x, pool, y, hom_x, hom_y, radical, composites):
        c = {"x": x, "pool": pool, "hom_x": hom_x, "radical": radical}
        return original(**with_complement(c, make(x, y), homs))

    monkeypatch.setattr(homsolve, "certify_exchange", offered)


def _zero_structure(m):
    """A module with m's dimensions and every structure map zero."""
    return m._rebuild(m.dims, {lab: RatMatrix.zeros(*mat.shape)
                               for lab, mat in m.struct().items()})


def _other_dims(x, y):
    for _, z in dup.DupContext(x.quiver).pool():
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

    ctx = dup.DupContext(named_diagram("A2"))
    ctx.pool()  # the shifted modules are built from approximations too
    monkeypatch.setattr(homsolve, "minimal_left_approximation", zeroed)
    with pytest.raises(homsolve.NoExchangeSequence, match="not injective"):
        dup.tilting_quiver_dup(ctx)


def test_certificate_needs_a_brick_complement():
    # 0 -> S_1 -> P_0 -> S_0 -> 0 certifies; twice that sequence has the
    # cokernel S_0 + S_0, whose maps from E killing x form no line
    A2 = named_diagram("A2")
    s0, s1, p0 = rep_a.simple(A2, 0), rep_a.simple(A2, 1), rep_a.projective(A2, 0)
    assert homsolve.certify_exchange(**fresh_arguments(s1, [p0], s0)) == (1, 1)
    x = homsolve.direct_sum([s1, s1])[0]
    y = homsolve.direct_sum([s0, s0])[0]
    c = fresh_arguments(x, [p0], y)
    assert homsolve.exchange_sequence(x, [p0], c["hom_x"], c["radical"])[1].dims == y.dims
    assert homsolve.certify_exchange(**c) is None


def test_certificate_needs_a_nonzero_injective_approximation():
    A2 = named_diagram("A2")
    p0, s0, s1 = rep_a.projective(A2, 0), rep_a.simple(A2, 0), rep_a.simple(A2, 1)
    # P_0 -> S_0 is onto, not injective; S_0 maps to nothing in {S_1}
    with pytest.raises(homsolve.NoExchangeSequence, match="not injective"):
        homsolve.certify_exchange(**fresh_arguments(p0, [s0], s1))
    with pytest.raises(homsolve.NoExchangeSequence, match="empty approximation"):
        homsolve.certify_exchange(**fresh_arguments(s0, [s1], s1))


# ---------------------------------------------------------------------------
# index-level certificates: coordinates in cached Hom bases


def reference_components(x, pool, hom_x, homs):
    """Minimal left approximation with the radical span taken entrywise,
    in Hom(x, pool_i) itself rather than in coordinates of its basis;
    the maps between pool members come from ``homs``."""
    comps = []
    for i, P in enumerate(pool):
        if not hom_x[i]:
            continue
        span = LinSpan(homsolve._map_vec_length(x, P))
        for j in range(len(pool)):
            if j != i and hom_x[j]:
                for g in homs(pool[j], pool[i]):
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


def _blocks(pairs):
    """(index, blocks) of each (index, map) pair, to compare maps that are
    distinct objects by value."""
    return [(k, h.blocks) for k, h in pairs]


@pytest.mark.parametrize("name", ["A3", "D4", "D5"])
def test_index_level_certificate_matches_the_uncached_one(name):
    # every arc: the components chosen from the cached radical coordinates
    # and the step-3 line from the cached composite coordinates equal the
    # ones computed over fresh Hom bases and the entrywise references
    _, certificates = _arc_certificates(name)
    assert len(certificates) == {"A3": 21, "D4": 100, "D5": 455}[name]
    homs = FreshHoms()
    for c in certificates:
        ref = fresh_arguments(c["x"], c["pool"], c["y"], homs)
        comps = homsolve.minimal_left_approximation(c["hom_x"], c["radical"])
        ref_comps = homsolve.minimal_left_approximation(ref["hom_x"], ref["radical"])
        assert _blocks(comps) == _blocks(ref_comps)
        if name != "D5":
            assert comps == reference_components(c["x"], c["pool"], c["hom_x"], homs)
        terms, line = homsolve.exchange_line(comps, c["hom_x"], c["hom_y"], c["composites"])
        ref_terms, ref_line = homsolve.exchange_line(ref_comps, ref["hom_x"], ref["hom_y"],
                                                     ref["composites"])
        assert _blocks(terms) == _blocks(ref_terms) and line == ref_line
        assert line == reference_line(comps, c["hom_y"])
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
    ctx = dup.DupContext(named_diagram("D4"))
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
    ctx = dup.DupContext(named_diagram("A3"))
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
    ctx = dup.DupContext(named_diagram("D4"))
    objs = [m for _, m in ctx.objects()]
    r = len(objs)
    homs = FreshHoms()
    checked = 0
    for x in range(r):
        for i in range(r):
            hom_x = [ctx.hom_idx(x, i)]
            for y in range(r):
                if len(set(ctx.composite_idx(x, i, y))) < 2:
                    continue
                hom_y = [ctx.hom_idx(i, y)]
                ref = fresh_arguments(objs[x], [objs[i]], objs[y], homs)
                for h, h_ref in zip(hom_x[0], ref["hom_x"][0]):
                    comps = [(0, h)]
                    terms, line = homsolve.exchange_line(
                        comps, hom_x, hom_y, lambda a: ctx.composite_idx(x, i, y))
                    ref_terms, ref_line = homsolve.exchange_line(
                        [(0, h_ref)], ref["hom_x"], ref["hom_y"], ref["composites"])
                    assert _blocks(terms) == _blocks(ref_terms) and line == ref_line
                    assert line == reference_line(comps, hom_y)
                    checked += 1
    assert checked >= 42


def test_corrupted_cached_basis_raises():
    # a triple x -> j -> i with nonzero composites and Hom(x, i) a line
    # whose basis map has two or more nonzero entries; that map is
    # replaced in the cache by a scaled one with a spurious entry
    ctx = dup.DupContext(named_diagram("A3"))
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


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_certificate_returns_its_approximation_components(name):
    # the graph reads E's summands off these components, with no second
    # approximation; the arc keeps only the plain dimension tuple
    graph, certificates = _arc_certificates(name)
    for arc, c in zip(graph.arcs, certificates):
        got = homsolve.certify_exchange(**c)
        comps = homsolve.minimal_left_approximation(c["hom_x"], c["radical"])
        assert got.components == comps
        assert got == arc.e_dims and type(arc.e_dims) is tuple


# ---------------------------------------------------------------------------
# kernels and the per-module structure nonzeros


def reference_kernel(f):
    """Kernel by the solve route: slotwise canonical kernel bases, each
    column of a pushed structure map solved in the target slot's basis.
    Returns the kernel's dims and structure maps and the inclusion blocks."""
    M = f.src
    bases, dims = {}, {}
    for s in M.slot_keys:
        vecs = f.blocks[s].kernel_basis()
        bases[s] = RatMatrix(vecs, cols=M.dims[s]).transpose()
        dims[s] = len(vecs)
    struct = {}
    for lab, mat in M.struct().items():
        a, b = M.label_ends(lab)
        pushed = mat @ bases[a]
        cols = [bases[b].solve([pushed[i, j] for i in range(pushed.rows)])
                for j in range(pushed.cols)]
        assert None not in cols
        struct[lab] = (RatMatrix(cols, cols=dims[b]).transpose() if cols
                       else RatMatrix.zeros(dims[b], 0))
    return dims, struct, bases


def assert_kernel_matches(f):
    K, incl = homsolve.kernel(f)
    dims, struct, bases = reference_kernel(f)
    assert K.dims == dims
    assert K.struct() == struct
    assert incl.blocks == bases
    assert incl.src is K and incl.dst is f.src


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_kernel_matches_the_solve_route_on_dup_maps(name):
    # the syzygies that Ext^1 reads by Yoneda (each object resolved once,
    # the shifted modules among them) and the resolutions of the 2n simples
    def build():
        ctx = dup.DupContext(named_diagram(name))
        dup.tilting_quiver_dup(ctx)
        dup.global_dimension_dup(ctx)

    seen = _recorded(build, "kernel")
    calls = [c["f"] for c in seen["kernel"]]
    assert len(calls) >= {"A3": 14, "D4": 25}[name]
    assert any(not homsolve.kernel(f)[0].is_zero() for f in calls)
    for f in calls:
        assert_kernel_matches(f)


def reference_resolution(M):
    """Cover, then kernel, until the kernel vanishes: the slot tags of
    each cover's top generators, or None after 7 covers."""
    steps = []
    for _ in range(7):
        _, tags, cover = homsolve.projective_cover_parts(M)
        steps.append(tags)
        M, _ = homsolve.kernel(cover)
        if M.is_zero():
            return steps
    return None


RESOLVED_QUIVERS = ([(f"A3/o{k}", q) for k, q in enumerate(orientations("A3"))]
                    + [(f"D4/o{k}", q) for k, q in enumerate(orientations("D4"))]
                    + [(name, named_diagram(name)) for name in ("A5", "D5")])


@pytest.mark.parametrize("q", [q for _, q in RESOLVED_QUIVERS],
                         ids=[n for n, _ in RESOLVED_QUIVERS])
def test_resolution_matches_the_kernel_loop_on_dup_objects(q):
    # every object has projective dimension at most 1, and the shifted
    # modules exactly 1
    lengths = set()
    for _, m in dup.DupContext(q).objects():
        steps = homsolve.projective_resolution(m)
        assert steps == reference_resolution(m)
        lengths.add(len(steps))
    assert lengths == {1, 2}


def test_resolution_matches_the_kernel_loop_on_endomorphism_algebras():
    # the simples and regular projectives of every End(T) over duplicated A3
    ctx = dup.DupContext(named_diagram("A3"))
    lengths = set()
    for t in dup.enumerate_tilting_dup(ctx):
        alg, _ = endo.endo_algebra(ctx, t)
        for i in range(len(alg.summands)):
            simple = endo.simple_module(alg, i)
            steps = homsolve.projective_resolution(simple)
            assert steps == reference_resolution(simple)
            lengths.add(len(steps))
            regular = endo.regular_projective(alg, i)
            assert homsolve.projective_resolution(regular) \
                == reference_resolution(regular) == [[i]]
    assert lengths == {1, 2, 3, 4}


def test_resolution_of_a_projective_builds_no_kernel(monkeypatch):
    kernels = []
    kernel = homsolve.kernel
    monkeypatch.setattr(homsolve, "kernel", lambda f: kernels.append(f) or kernel(f))
    A3 = named_diagram("A3")
    for v in A3.vertices:
        for top, P in ((v, rep_a.projective(A3, v)),
                       (("b", v), dup.slot_projective(A3, ("b", v))),
                       (("t", v), dup.slot_projective(A3, ("t", v)))):
            assert homsolve.projective_resolution(P) == [[top]]
            assert homsolve.projective_dimension(P) == 0
    assert kernels == []
    # the zero module resolves in one empty step
    assert homsolve.projective_resolution(rep_a.simple(A3, 0).zero_like()) == [[]]


def test_resolution_gives_up_past_the_cap(monkeypatch):
    # a kernel that never vanishes: the non-projective simple S_0 of A2
    A2 = named_diagram("A2")
    simple = rep_a.simple(A2, 0)
    covers = []
    cover_parts = homsolve.projective_cover_parts
    monkeypatch.setattr(homsolve, "kernel", lambda f: (simple, None))
    monkeypatch.setattr(homsolve, "projective_cover_parts",
                        lambda M: covers.append(M) or cover_parts(M))
    assert homsolve.projective_resolution(simple) is None
    assert len(covers) == 7
    with pytest.raises(RuntimeError, match="exceeds cap 6"):
        homsolve.projective_dimension(simple)


def reference_label_nonzeros(M):
    """Per label, its ends and the nonzero (index, entry)s of each
    column and each row of its structure matrix, read afresh from
    ``struct()``."""
    out = []
    for lab, mat in M.struct().items():
        cols = [[(i, row[j]) for i, row in enumerate(mat.data) if row[j]]
                for j in range(mat.cols)]
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in mat.data]
        out.append((*M.label_ends(lab), cols, rows))
    return tuple(out)


def test_structure_memos_and_hom_blocks_stay_current(monkeypatch, capsys):
    # full runs of both engines: every module whose structure nonzeros were
    # memoized still has them, equal to a fresh read of its current
    # structure maps, and every Hom basis block is what the validating
    # constructor builds from the same rows
    memos, blocks = {}, []
    label_nonzeros, hom_basis = homsolve._label_nonzeros, homsolve.hom_basis

    def memoized(M):
        got = label_nonzeros(M)
        memos[id(M)] = (M, got)
        return got

    def recorded(M, N):
        got = hom_basis(M, N)
        blocks.extend(b for f in got for b in f.blocks.values())
        return got

    monkeypatch.setattr(homsolve, "_label_nonzeros", memoized)
    for mod in (homsolve, rep_a):  # rep_a imports hom_basis by name
        monkeypatch.setattr(mod, "hom_basis", recorded)
    for argv in (["dup-kquiver", "--diagram", "A3"], ["dup-kquiver", "--diagram", "D4"],
                 ["kquiver", "--diagram", "D4"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(memos) > 50 and len(blocks) > 1000
    for M, memo in memos.values():
        assert M._nonzeros is memo
        assert memo == reference_label_nonzeros(M)
        assert all(type(x) is int or x.denominator != 1
                   for _, _, _, rows in memo for row in rows for _, x in row)
    for b in blocks:
        assert all(type(x) is Fraction for row in b.data for x in row)
        assert len({id(row) for row in b.data}) == b.rows  # no shared rows
        assert b == RatMatrix(b.data, cols=b.cols)


# ---------------------------------------------------------------------------
# projective covers from the Yoneda words of ``projective_for_slot``


COVER_QUIVERS = [q for name in ("A3", "D4") for q in orientations(name)]
KRONECKER = named_diagram("K")  # two paths between its vertices: word order shows


def _end_algebras(name):
    ctx = dup.DupContext(named_diagram(name))
    return [endo.endo_algebra(ctx, t)[0] for t in dup.enumerate_tilting_dup(ctx)]


def _slot_projectives(kind):
    """(slot, P_slot) for every slot projective of one module class: Rep
    and TripleModule on every orientation of A3 and D4 and on the
    double-arrow quiver, BMod on every End T over duplicated A3."""
    quivers = COVER_QUIVERS + [KRONECKER]
    if kind == "Rep":
        return [(v, rep_a.projective(q, v)) for q in quivers for v in q.vertices]
    if kind == "TripleModule":
        return [((layer, v), dup.slot_projective(q, (layer, v)))
                for q in quivers for v in q.vertices for layer in "tb"]
    return [(i, endo.regular_projective(alg, i))
            for alg in _end_algebras("A3") for i in range(len(alg.summands))]


def _covered_modules(kind):
    """Modules of one class whose covers are checked generator by
    generator: the classical indecomposables and the duplicated objects
    on every orientation of A3 and D4 (and the double-arrow window 3),
    and the simples of every End T over duplicated A3 and D4 with their
    syzygies."""
    if kind == "Rep":
        return [m for q in COVER_QUIVERS for _, m in rep_a.indecomposables(q)] + [
            m for _, m in rep_a.kronecker_window(3)]
    if kind == "TripleModule":
        return [m for q in COVER_QUIVERS for _, m in dup.DupContext(q).objects()]
    out = []
    for alg in _end_algebras("A3") + _end_algebras("D4"):
        for i in range(len(alg.summands)):
            m = endo.simple_module(alg, i)
            while not m.is_zero():
                out.append(m)
                m, _ = homsolve.kernel(homsolve.projective_cover_parts(m)[2])
    return out


def _cover_of_a_projective_is_the_identity(s, P):
    _, tags, cover = homsolve.projective_cover_parts(P)
    return tags == [s] and all(cover.blocks[w] == RatMatrix.identity(P.dims[w])
                               for w in P.slot_keys)


def _cover_components_are_morphisms(M):
    """Each generator's component P_s -> M of the cover lies in the span
    of ``hom_basis(P_s, M)``."""
    _, tags, cover = homsolve.projective_cover_parts(M)
    start = dict.fromkeys(M.slot_keys, 0)
    for s in tags:
        P = M.projective_for_slot(s)[0]
        g = SlotMap(P, M, {w: cover.blocks[w].columns(range(start[w], start[w] + P.dims[w]))
                           for w in M.slot_keys})
        for w in M.slot_keys:
            start[w] += P.dims[w]
        span = LinSpan(len(g.vec()))
        for h in homsolve.hom_basis(P, M):
            span.add(h.vec())
        if not span.contains(g.vec()):
            return False
    return True


COVER_KINDS = ["Rep", "TripleModule", "BMod"]


@pytest.mark.parametrize("kind", COVER_KINDS)
def test_cover_of_each_slot_projective_is_the_identity(kind):
    # the words list P_s's basis in its own order
    cases = _slot_projectives(kind)
    assert len(cases) >= 24
    for s, P in cases:
        assert _cover_of_a_projective_is_the_identity(s, P), (s, P)


@pytest.mark.parametrize("kind", COVER_KINDS)
def test_cover_components_are_module_maps(kind):
    mods = _covered_modules(kind)
    assert any(max(m.dims.values()) > 1 for m in mods)
    for M in mods:
        assert _cover_components_are_morphisms(M), M


@pytest.mark.parametrize("cls, kind", [(rep_a.Rep, "Rep"), (dup.TripleModule, "TripleModule")])
def test_reversed_words_break_the_cover(monkeypatch, cls, kind):
    # a word of two or more labels read right to left lands on the wrong
    # basis vector or does not compose at all; End T's words have at most
    # one label, so only the quiver classes can be told apart this way
    hook = cls.projective_for_slot

    def reversed_words(self, s):
        P, words = hook(self, s)
        return P, {w: [word[::-1] for word in ws] for w, ws in words.items()}

    monkeypatch.setattr(cls, "projective_for_slot", reversed_words)

    def holds(check, *args):
        try:
            return check(*args)
        except ValueError:  # a reversed word that does not compose
            return False

    assert not (all(holds(_cover_of_a_projective_is_the_identity, s, P)
                     for s, P in _slot_projectives(kind))
                and all(holds(_cover_components_are_morphisms, M)
                        for M in _covered_modules(kind)))


# ---------------------------------------------------------------------------
# generated inputs


A3_OBJECTS = [m for _, m in dup.DupContext(named_diagram("A3")).objects()]


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


@settings(max_examples=80, deadline=None)
@given(module_maps())
def test_kernel_matches_the_solve_route_on_generated_maps(f):
    assert_kernel_matches(f)


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
     lambda: homsolve.projective_cover_parts(rep_a.simple(A2, 0)), "zero top"),
    (("SlotMap.is_surjective", lambda self: False),
     lambda: homsolve.projective_cover_parts(rep_a.simple(A2, 0)),
     "cover failed to be surjective"),
])
def test_engine_checks_raise_runtime_error(monkeypatch, fault, call, message):
    if fault is not None:
        name, replacement = fault
        owner, _, attr = name.rpartition(".")
        monkeypatch.setattr(getattr(homsolve, owner) if owner else homsolve,
                            attr, replacement)
    with pytest.raises(RuntimeError, match=message):
        call()
