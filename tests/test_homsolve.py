"""Differential tests for the homsolve helpers on the arc-certification path.

``cokernel``, ``approximation_map`` and the composites of
``minimal_left_approximation`` are computed from one echelon pass and
from the blocks directly.  Each is held here to the dense construction
it replaced: a greedy standard-basis complement, the inverse of the
completed basis and identity sections for the cokernel; a sum of
inclusion composites for the approximation map; ``compose(g, h).vec()`` for
the composites.  Inputs are every map the exchange graphs of duplicated
A3 and D4 (and classical D4) hand to these helpers, plus generated ones;
a duplicated arc's exchange map x -> E is rebuilt from the inputs of
its certificate, ``approximation_key`` and ``cokernel_in_add``, which
build neither E nor the cokernel.  The graph certifies each exchange
pair (x, y) once, so every arc's own inputs are rebuilt from the graph
(``_arc_certificates``).  That certificate is held to
``exchange_sequence`` and to a two-Hom isomorphism test, and must
reject wrong complements.  The structure nonzeros that ``_hom_system``
memoizes per module are held to a fresh read after full runs of both
engines.  The oracles' cover route
(``tests/reference.py``) is checked too: its ``kernel`` against
per-column solves, its covers, filled from the Yoneda words of one hook
per module kind, against the identity on every slot projective and the
solved Hom(P_s, M) generator by generator.
"""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from tiltquiver import cli, dup, endo, homsolve, rep_a, tilt_a
from tiltquiver.exactlin import RatMatrix, SparseEchelon, sparse_row
from tiltquiver.homsolve import SlotMap
from tiltquiver.quiver_core import named_diagram, orientations

F = Fraction


# ---------------------------------------------------------------------------
# the dense constructions, as test-local references


def reference_complement(vecs, dim):
    """Greedy standard-basis complement: e_i joins iff it enlarges the span."""
    span = SparseEchelon(dim)
    for v in vecs:
        span.add(sparse_row(v))
    return [i for i in range(dim) if span.add({i: 1})]


def reference_projection(mat):
    """Complement columns and projection from the inverse of the basis
    (image basis, then the complement's standard vectors)."""
    d = mat.rows
    img = ref.image_basis(mat)
    comp = reference_complement(img, d)
    if d == 0:
        return comp, RatMatrix.zeros(0, 0)
    std = ref.identity(d).data
    inv = ref.inverse(RatMatrix(img + [std[i] for i in comp], cols=d).transpose())
    return comp, RatMatrix(inv.data[len(img):], cols=d)


def reference_cokernel(f):
    """(dims, structure maps, projection blocks) the dense way."""
    N = f.dst
    dims, projs, sections = {}, {}, {}
    for s in N.slot_keys:
        comp, projs[s] = reference_projection(f.blocks[s])
        dims[s] = len(comp)
        std = ref.identity(N.dims[s]).data
        sections[s] = RatMatrix([std[i] for i in comp], cols=N.dims[s]).transpose()
    struct = {}
    for lab, mat in N.maps.items():
        a, b = N.layout.ends[lab]
        struct[lab] = projs[b] @ mat @ sections[a]
    return dims, struct, projs


def reference_approximation_map(x, pool, comps):
    E, incls, _ = ref.direct_sum([pool[i] for i, _ in comps])
    f = ref.zero_map(x, E)
    for (_, h), inc in zip(comps, incls):
        f = ref.add(f, ref.compose(inc, h))
    return E, f


def assert_cokernel_matches(f):
    C, proj = homsolve.cokernel(f)
    dims, struct, projs = reference_cokernel(f)
    assert C.dims == dims
    assert C.maps == struct
    assert proj.blocks == projs


# ---------------------------------------------------------------------------
# every map the exchange graphs hand over


def _recorded(build, *attrs, owner=homsolve):
    """Run ``build()`` while recording the calls of ``owner.<attr>`` for
    each of ``attrs``: attr -> one {parameter: argument} per call."""
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
            mp.setattr(owner, attr, recorder(getattr(owner, attr), seen[attr]))
        build()
    return seen


def _exchange_maps(certificates):
    """(x, pool, comps) of each arc's certificate inputs, its
    approximation components rebuilt from its own Hom bases."""
    return [(c["x"], c["pool"], homsolve.minimal_left_approximation(c["hom_x"], c["radical"]))
            for c in certificates]


def _dup_graph(name):
    return lambda: dup.tilting_quiver_dup(dup.DupContext(named_diagram(name)))


def _arc_certificates(name):
    """The exchange graph of duplicated ``name`` and, for each of its arcs
    in order, the certificate inputs of that arc alone: x, the members of
    its almost complete part followed by the bar projectives, y, and the
    graph's cached Hom bases and coordinates; under "at", the context
    with the object indices of x, of those members and of y."""
    ctx = dup.DupContext(named_diagram(name))
    graph = dup.tilting_quiver_dup(ctx)
    objs = ctx.objects()
    position = {pid: k for k, pid in enumerate(ctx.ids)}
    bars = ctx.bar_indices

    def arguments(arc):
        x, y = position[arc.x], position[arc.y]
        members = [k for k in graph.tiltings[arc.src].indices if k != x] + bars
        return {
            "at": (ctx, x, members, y),
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


def fresh_arguments(x, pool, y, homs=None):
    """Certificate inputs with every Hom basis taken from ``homs`` (fresh
    ``hom_basis`` results by default) and the radical and composite
    coordinates computed over them."""
    homs = homs or FreshHoms()
    hom_x, hom_y, hom_xy = [homs(x, P) for P in pool], [homs(P, y) for P in pool], homs(x, y)
    return {"x": x, "pool": pool, "y": y, "hom_x": hom_x, "hom_y": hom_y,
            "radical": lambda j, i: homsolve.radical_coordinates(
                x, hom_x[j], homs(pool[j], pool[i]), hom_x[i]),
            "composites": lambda i: homsolve.composite_coordinates(
                x, hom_x[i], hom_y[i], hom_xy)}


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
    (lambda: tilt_a.tilting_quiver(named_diagram("D4")), None),  # no arc certificates
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
        assert E.maps == E_ref.maps
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
            length = ref.map_vec_length(x, objs[i])
            for g in ctx.hom_idx(j, i):
                g_nonzeros = homsolve._block_nonzeros(g)
                for h in hs:
                    row = homsolve._composite_row(
                        g_nonzeros, homsolve._block_nonzeros(h), widths)
                    assert [row.get(k, 0) for k in range(length)] == list(ref.compose(g, h).vec())
                    checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# the arc certificate


def reference_is_iso(m, n):
    """Two-Hom isomorphism test for an indecomposable m and a brick n:
    isomorphic iff f . g != 0 for some g: n -> m and f: m -> n (a
    nonzero endomorphism of a brick is invertible, so f splits)."""
    if m.dim_vector() != n.dim_vector():
        return False
    return any(not ref.is_zero(ref.compose(f, g))
               for f in homsolve.hom_basis(m, n) for g in homsolve.hom_basis(n, m))


def _middle_dims(ctx, x, key):
    """E's slot dimensions, read off the approximation key."""
    return tuple(sum(ctx.module(k).dims[s] for k, _ in key) for s in ctx.module(x).slot_keys)


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_certificate_agrees_with_exchange_sequence(name):
    # each arc's own certificate and sequence give that arc's middle term,
    # though the graph certified only the first arc of each pair (x, y)
    graph, certificates = _arc_certificates(name)
    assert len(certificates) == len(graph.arcs)
    for arc, c in zip(graph.arcs, certificates):
        E, cok = homsolve.exchange_sequence(c["x"], c["pool"], c["hom_x"], c["radical"])
        ctx, x, members, y = c["at"]
        key = homsolve.approximation_key(ctx, x, members)
        assert homsolve.cokernel_in_add(ctx, x, key)([y]) == [1]
        assert _middle_dims(ctx, x, key) == E.dim_vector()
        assert reference_is_iso(cok, c["y"])
        assert arc.e_dims == E.dim_vector()


def test_certificate_accepts_exactly_the_isomorphic_complements():
    # every pool member (each a brick) offered as the complement of every
    # duplicated A3 arc: the certificate and the two-Hom test agree
    _, certificates = _arc_certificates("A3")
    accepted = 0
    for c in certificates:
        _, cok = homsolve.exchange_sequence(c["x"], c["pool"], c["hom_x"], c["radical"])
        ctx, x, members, _ = c["at"]
        in_add = homsolve.cokernel_in_add(ctx, x, homsolve.approximation_key(ctx, x, members))
        for z in range(len(ctx)):
            got = in_add([z]) == [1]
            assert got == reference_is_iso(cok, ctx.module(z))
            accepted += got
    assert accepted == len(certificates)


def _offer_complement(monkeypatch, make):
    """Make every duplicated arc certificate test ``make(x, y)`` in place
    of its complement y: the add test runs over a test-local cache of x,
    the summands of E and that module, with Hom bases solved afresh."""
    original = homsolve.cokernel_in_add

    def offered(ctx, x, key):
        def test(members):
            (y,) = members
            mods = [ctx.module(x)] + [ctx.module(k) for k, _ in key]
            fresh = ref.FreshCache(mods + [make(ctx.module(x), ctx.module(y))])
            fresh_key = tuple((c, pos) for c, (_, pos) in enumerate(key, 1))
            return original(fresh, 0, fresh_key)([len(mods)])
        return test

    monkeypatch.setattr(homsolve, "cokernel_in_add", offered)


def test_one_constructor_checks_every_label_and_shape():
    # modules over A3 and over duplicated A3 share the check: a map of the
    # wrong shape, a missing label and an extra one are each refused, and
    # so is a dimension at a slot outside the layout
    a3 = named_diagram("A3")
    for m in (rep_a.projective(a3, 0), dup.bar_projective(a3, 0)):
        (lab, mat), (other, _) = list(m.maps.items())[:2]
        for dims, maps in ((m.dims, {**m.maps, lab: RatMatrix.zeros(mat.rows + 1, mat.cols)}),
                           (m.dims, {k: v for k, v in m.maps.items() if k != lab}),
                           (m.dims, {**m.maps, ("extra", other): m.maps[other]}),
                           ({**m.dims, "extra": 0}, m.maps)):
            with pytest.raises(ValueError):
                homsolve.Rep(m.quiver, m.layout, dims, maps)
        # maps given in any order are stored in the layout's
        got = homsolve.Rep(m.quiver, m.layout, m.dims, dict(reversed(m.maps.items())))
        assert list(got.maps.items()) == list(m.maps.items())
        assert list(got.maps) == list(m.layout.ends)


def _zero_structure(m):
    """A module with m's dimensions and every structure map zero."""
    return homsolve.Rep(m.quiver, m.layout, m.dims,
                        {lab: RatMatrix.zeros(*mat.shape) for lab, mat in m.maps.items()})


def _other_dims(x, y):
    for _, z in dup.DupContext(x.quiver).pool():
        if z.dim_vector() != y.dim_vector():
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
        return [(i, ref.scale(h, 0)) for i, h in original(*args, **kwargs)]

    # the context's build makes the shifted modules from approximations too
    ctx = dup.DupContext(named_diagram("A2"))
    monkeypatch.setattr(homsolve, "minimal_left_approximation", zeroed)
    with pytest.raises(homsolve.NoExchangeSequence, match="not injective"):
        dup.tilting_quiver_dup(ctx)


def test_certificate_needs_a_brick_complement():
    # 0 -> S_1 -> P_0 -> S_0 -> 0 certifies; twice that sequence has the
    # cokernel S_0 + S_0, which is not one copy of a brick: the test of
    # S_0 + S_0 rejects it, the test of S_0 counts it twice
    A2 = named_diagram("A2")
    s0, s1, p0 = ref.simple(A2, 0), ref.simple(A2, 1), rep_a.projective(A2, 0)
    fresh = ref.FreshCache([s1, p0, s0])
    key = homsolve.approximation_key(fresh, 0, [1])
    assert _middle_dims(fresh, 0, key) == (1, 1)
    assert homsolve.cokernel_in_add(fresh, 0, key)([2]) == [1]
    x = ref.direct_sum([s1, s1])[0]
    y = ref.direct_sum([s0, s0])[0]
    c = fresh_arguments(x, [p0], y)
    assert homsolve.exchange_sequence(x, [p0], c["hom_x"], c["radical"])[1].dims == y.dims
    fresh = ref.FreshCache([x, p0, y, s0])
    in_add = homsolve.cokernel_in_add(fresh, 0, homsolve.approximation_key(fresh, 0, [1]))
    assert in_add([2]) is None
    assert in_add([3]) == [2]


def test_a_half_entry_keeps_its_fraction_through_the_certificate():
    # P_1 into a copy of P_0 whose arrow 1 -> 2 is 2: the Hom basis map is
    # 1/2 at vertex 1 and 1 at vertex 2, and the certificate of
    # 0 -> P_1 -> P_0 -> S_0 -> 0 holds over it
    A3 = named_diagram("A3")
    p0, p1 = rep_a.projective(A3, 0), rep_a.projective(A3, 1)
    scaled = homsolve.Rep(A3, p0.layout, p0.dims, {**p0.maps, "e1": RatMatrix([[2]], cols=1)})
    fresh = ref.FreshCache([p1, scaled, ref.simple(A3, 0)])
    (h,) = fresh.hom_idx(0, 1)
    assert homsolve._block_nonzeros(h) == [[[]], [[(0, F(1, 2))]], [[(0, 1)]]]
    key = homsolve.approximation_key(fresh, 0, [1])
    assert key == ((1, 0),)
    assert homsolve.cokernel_in_add(fresh, 0, key)([2]) == [1]


def test_certificate_needs_a_nonzero_injective_approximation():
    A2 = named_diagram("A2")
    fresh = ref.FreshCache([rep_a.projective(A2, 0), ref.simple(A2, 0), ref.simple(A2, 1)])
    # P_0 -> S_0 is onto, not injective; S_0 maps to nothing in {S_1}
    with pytest.raises(homsolve.NoExchangeSequence, match="not injective"):
        homsolve.approximation_key(fresh, 0, [1])
    with pytest.raises(homsolve.NoExchangeSequence, match="empty approximation"):
        homsolve.approximation_key(fresh, 1, [2])


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
        span = SparseEchelon(ref.map_vec_length(x, P))
        for j in range(len(pool)):
            if j != i and hom_x[j]:
                for g in homs(pool[j], pool[i]):
                    for h in hom_x[j]:
                        span.add(sparse_row(ref.compose(g, h).vec()))
        for h in hom_x[i]:
            if span.add(sparse_row(h.vec())):
                comps.append((i, h))
    return comps


def reference_line(comps, hom_y):
    """Kernel basis of g . f = 0 taken entrywise: one equation per entry
    of the composites, one unknown per (component, basis map) term; each
    vector sparse and keyed by its last nonzero entry, as ``exchange_line``
    returns it."""
    terms = [(k, g) for k, (i, _) in enumerate(comps) for g in hom_y[i]]
    columns = [ref.compose(g, comps[k][1]).vec() for k, g in terms]
    kernel = RatMatrix([list(row) for row in zip(*columns)], cols=len(terms)).kernel_basis()
    return {max(sparse_row(v)): sparse_row(v) for v in kernel}


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
    doubled = ref.scale(h, 2)
    doubled.blocks[s] = RatMatrix(data, cols=h.blocks[s].cols)
    return doubled


def test_basis_coordinates_read_the_free_columns():
    ctx = dup.DupContext(named_diagram("D4"))
    r = len(ctx.objects())
    basis = next(b for b in (ctx.hom_idx(x, i) for x in range(r) for i in range(r))
                 if len(b) >= 2)
    combo = _row(ref.add(ref.scale(basis[0], 2), ref.scale(basis[1], F(-1, 3))))
    assert homsolve.basis_coordinates(basis, [combo]) == [(2, F(-1, 3)) + (0,) * (len(basis) - 2)]
    units = homsolve.basis_coordinates(basis, [_row(h) for h in basis])
    assert units == [tuple(int(k == l) for l in range(len(basis))) for k in range(len(basis))]
    # a scaled basis has entry 2 at its free columns: the entries read
    # there leave a nonzero residual
    doubled = [ref.scale(h, 2) for h in basis]
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
                        rebuilt = ref.zero_map(objs[x], objs[y])
                        for cm, b in zip(c, basis):
                            rebuilt = ref.add(rebuilt, ref.scale(b, cm))
                        assert rebuilt.vec() == ref.compose(g, h).vec()
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
        homsolve.basis_coordinates([good, ref.scale(good, 2)], [_row(good)])


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_middle_term_is_read_off_the_approximation_key(name):
    # the key names the approximation's components as cached basis maps;
    # the graph reads E's dimensions and summands off it, with no second
    # approximation, and the arc keeps the plain dimension tuple
    graph, certificates = _arc_certificates(name)
    for arc, c in zip(graph.arcs, certificates):
        ctx, x, members, _ = c["at"]
        key = homsolve.approximation_key(ctx, x, members)
        comps = homsolve.minimal_left_approximation(c["hom_x"], c["radical"])
        assert [(k, ctx.hom_idx(x, k)[pos]) for k, pos in key] == [
            (members[i], h) for i, h in comps]
        E, _ = homsolve.approximation_map(c["x"], c["pool"], comps)
        assert arc.e_dims == _middle_dims(ctx, x, key) == E.dim_vector()
        assert type(arc.e_dims) is tuple


# ---------------------------------------------------------------------------
# the reference's kernels and resolutions; the structure nonzeros


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
    for lab, mat in M.maps.items():
        a, b = M.layout.ends[lab]
        pushed = mat @ bases[a]
        cols = [ref.solve(bases[b], [pushed[i, j] for i in range(pushed.rows)])
                for j in range(pushed.cols)]
        assert None not in cols
        struct[lab] = (RatMatrix(cols, cols=dims[b]).transpose() if cols
                       else RatMatrix.zeros(dims[b], 0))
    return dims, struct, bases


def assert_kernel_matches(f):
    K, incl = ref.kernel(f)
    dims, struct, bases = reference_kernel(f)
    assert K.dims == dims
    assert K.maps == struct
    assert incl.blocks == bases
    assert incl.src is K and incl.dst is f.src


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_kernel_matches_the_solve_route_on_dup_maps(name):
    # the syzygies of every pool member (the shifted modules among them)
    # and the resolutions of the 2n simples
    def build():
        ctx = dup.DupContext(named_diagram(name))
        for _, m in ctx.pool():
            ref.projective_resolution(m)
        ref.global_dimension_dup(ctx)

    calls = [c["f"] for c in _recorded(build, "kernel", owner=ref)["kernel"]]
    assert len(calls) >= {"A3": 14, "D4": 25}[name]
    assert any(not ref.kernel(f)[0].is_zero() for f in calls)
    for f in calls:
        assert_kernel_matches(f)


def reference_resolution(M):
    """Cover, then kernel, until the kernel vanishes: the slot tags of
    each cover's top generators, or None after 7 covers."""
    steps = []
    for _ in range(7):
        _, tags, cover = ref.projective_cover_parts(M)
        steps.append(tags)
        M, _ = ref.kernel(cover)
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
        steps = ref.projective_resolution(m)
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
            simple = ref.simple_module(alg, i)
            steps = ref.projective_resolution(simple)
            assert steps == reference_resolution(simple)
            lengths.add(len(steps))
            regular = ref.regular_projective(alg, i)
            assert ref.projective_resolution(regular) \
                == reference_resolution(regular) == [[i]]
    assert lengths == {1, 2, 3, 4}


def test_resolution_of_a_projective_builds_no_kernel(monkeypatch):
    kernels = []
    kernel = ref.kernel
    monkeypatch.setattr(ref, "kernel", lambda f: kernels.append(f) or kernel(f))
    A3 = named_diagram("A3")
    for v in A3.vertices:
        for top, P in ((v, rep_a.projective(A3, v)),
                       (("b", v), dup.slot_projective(A3, ("b", v))),
                       (("t", v), dup.slot_projective(A3, ("t", v)))):
            assert ref.projective_resolution(P) == [[top]]
            assert ref.projective_dimension(P) == 0
    assert kernels == []
    # the zero module resolves in one empty step
    assert ref.projective_resolution(ref.zero_module(ref.simple(A3, 0))) == [[]]


def test_resolution_gives_up_past_the_cap(monkeypatch):
    # a kernel that never vanishes: the non-projective simple S_0 of A2
    A2 = named_diagram("A2")
    simple = ref.simple(A2, 0)
    covers = []
    cover_parts = ref.projective_cover_parts
    monkeypatch.setattr(ref, "kernel", lambda f: (simple, None))
    monkeypatch.setattr(ref, "projective_cover_parts",
                        lambda M: covers.append(M) or cover_parts(M))
    assert ref.projective_resolution(simple) is None
    assert len(covers) == 7
    with pytest.raises(RuntimeError, match="exceeds cap 6"):
        ref.projective_dimension(simple)


def reference_label_nonzeros(M):
    """Per label, its ends and the nonzero (index, entry)s of each
    column and each row of its structure matrix, read afresh from
    ``struct()``."""
    out = []
    for lab, mat in M.maps.items():
        cols = [[(i, row[j]) for i, row in enumerate(mat.data) if row[j]]
                for j in range(mat.cols)]
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in mat.data]
        out.append((*M.layout.ends[lab], cols, rows))
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
# the reference's projective covers, from the Yoneda words of its hooks


COVER_QUIVERS = [q for name in ("A3", "D4") for q in orientations(name)]
KRONECKER = named_diagram("K")  # two paths between its vertices: word order shows


def _end_algebras(name):
    ctx = dup.DupContext(named_diagram(name))
    return [endo.endo_algebra(ctx, t)[0] for t in dup.enumerate_tilting_dup(ctx)]


def _slot_projectives(kind):
    """(slot, P_slot) for every slot projective of one kind of module
    (``ref.kind``): over A ("Rep") and over the duplicated algebra
    ("TripleModule") on every orientation of A3 and D4 and on the
    double-arrow quiver, over End T ("BMod") on every End T over
    duplicated A3."""
    quivers = COVER_QUIVERS + [KRONECKER]
    if kind == "Rep":
        return [(v, rep_a.projective(q, v)) for q in quivers for v in q.vertices]
    if kind == "TripleModule":
        return [((layer, v), dup.slot_projective(q, (layer, v)))
                for q in quivers for v in q.vertices for layer in "tb"]
    return [(i, ref.regular_projective(alg, i))
            for alg in _end_algebras("A3") for i in range(len(alg.summands))]


def _covered_modules(kind):
    """Modules of one kind whose covers are checked generator by
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
            m = ref.simple_module(alg, i)
            while not m.is_zero():
                out.append(m)
                m, _ = ref.kernel(ref.projective_cover_parts(m)[2])
    return out


def _cover_of_a_projective_is_the_identity(s, P):
    _, tags, cover = ref.projective_cover_parts(P)
    return tags == [s] and all(cover.blocks[w] == ref.identity(P.dims[w])
                               for w in P.slot_keys)


def _cover_components_are_morphisms(M):
    """Each generator's component P_s -> M of the cover lies in the span
    of ``hom_basis(P_s, M)``."""
    _, tags, cover = ref.projective_cover_parts(M)
    start = dict.fromkeys(M.slot_keys, 0)
    for s in tags:
        P = ref.PROJECTIVES[ref.kind(M)](M, s)[0]
        g = SlotMap(P, M, {w: cover.blocks[w].columns(range(start[w], start[w] + P.dims[w]))
                           for w in M.slot_keys})
        for w in M.slot_keys:
            start[w] += P.dims[w]
        span = SparseEchelon(len(g.vec()))
        for h in homsolve.hom_basis(P, M):
            span.add(sparse_row(h.vec()))
        if span.reduce(sparse_row(g.vec())):
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


@pytest.mark.parametrize("kind", ["Rep", "TripleModule"],
                         ids=["Rep-Rep", "TripleModule-TripleModule"])
def test_reversed_words_break_the_cover(monkeypatch, kind):
    # a word of two or more labels read right to left lands on the wrong
    # basis vector or does not compose at all; End T's words have at most
    # one label, so only the quiver kinds can be told apart this way
    hook = ref.PROJECTIVES[kind]

    def reversed_words(M, s):
        P, words = hook(M, s)
        return P, {w: [word[::-1] for word in ws] for w, ws in words.items()}

    monkeypatch.setitem(ref.PROJECTIVES, kind, reversed_words)

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
        return parts[0] if len(parts) == 1 else ref.direct_sum(parts)[0]

    M, N = module(), module()
    basis = homsolve.hom_basis(M, N)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    f = ref.zero_map(M, N)
    for c, b in zip(coeffs, basis):
        f = ref.add(f, ref.scale(b, c))
    return f


@settings(max_examples=80, deadline=None)
@given(module_maps())
def test_cokernel_matches_dense_reference_on_generated_maps(f):
    assume(not ref.is_injective(f))
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
    assert not any(x for row in (proj @ mat).data for x in row)
    assert proj.columns(comp) == ref.identity(len(comp))


# ---------------------------------------------------------------------------
# engine checks raise RuntimeError, with or without -O


A2 = named_diagram("A2")


def _not_a_morphism():
    # identity at the target slot, zero at the source: the kernel (all of
    # the source slot) is pushed out of it by the arrow
    p = rep_a.projective(A2, 0)
    blocks = {v: (ref.identity(p.dims[v]) if v == 1
                  else RatMatrix.zeros(p.dims[v], p.dims[v]))
              for v in p.slot_keys}
    return ref.kernel(SlotMap(p, p, blocks))


@pytest.mark.parametrize("fault, call, message", [
    (None, _not_a_morphism, "kernel not preserved"),
    (("top_lifts", lambda M: []),
     lambda: ref.projective_cover_parts(ref.simple(A2, 0)), "zero top"),
    (("is_surjective", lambda f: False),
     lambda: ref.projective_cover_parts(ref.simple(A2, 0)),
     "cover failed to be surjective"),
])
def test_engine_checks_raise_runtime_error(monkeypatch, fault, call, message):
    # the reference's checks too: a faulty oracle must not pass silently
    if fault is not None:
        monkeypatch.setattr(ref, *fault)
    with pytest.raises(RuntimeError, match=message):
        call()
