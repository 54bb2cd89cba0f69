"""Test oracles and fixtures, written against the package's public API.

The package ships what the command line runs; what only the tests need
lives here:

* dense matrix helpers (``identity``, ``solve``, ``image_basis``,
  ``inverse``) on a small dense Gauss-Jordan of their own,
  ``gauss_jordan``, so that they share no elimination code with the
  sparse kernel they check;
* morphism arithmetic of representations (``compose``, ``add``, ``scale``,
  ``is_zero``, ``is_injective``, ``is_surjective``), zero modules and
  maps, and direct sums;
* the simples, the canonical modules and the top embedding used as
  fixtures, the global dimension of the duplicated algebra (2n simples
  resolved as modules), and the complements of an almost complete
  tilting module;
* left modules over the endomorphism algebra of a tilting module, each a
  ``Rep`` over ``b_layout`` with the algebra as its quiver: its regular
  projectives and simples, Hom(T, m) as such a module, and its global
  dimension;
* the cover route, which the package does not need: kernels, projective
  covers (one hook per module kind, ``PROJECTIVES``), resolutions, the
  generic Ext^1, and the check that Hom(T, -) never raises pd;
* the routes the package no longer takes: the deep check's cokernel
  modules with the Hom bases solved out of them (``deep_check_cokernels``),
  the per-algebra multiplication table of End T (``structure_table``), and
  the exchange-graph engine on frozenset rows and candidate lists
  (``compatibility_table``, ``cliques``, ``complement_indices``,
  ``exchange_arcs``) that the bit-mask engine of ``tilt_a`` replaced.
"""

import importlib
from fractions import Fraction
from functools import cache
from pathlib import Path

from tiltquiver import dup, endo, homsolve, rep_a, tilt_a
from tiltquiver.exactlin import RatMatrix, SparseEchelon, sparse_row
from tiltquiver.homsolve import Layout, Rep, SlotMap
from tiltquiver.rep_a import IndecId

F = Fraction


def clear_caches():
    """Drop every function and method cache in the package, so that each
    cached builder runs again whatever ran before."""
    package = Path(dup.__file__).resolve().parent
    for path in package.glob("*.py"):
        mod = importlib.import_module(f"tiltquiver.{path.stem}")
        for value in vars(mod).values():
            methods = vars(value).values() if isinstance(value, type) else ()
            for fn in (value, *methods):
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


# ---------------------------------------------------------------------------
# dense matrices, eliminated here


def gauss_jordan(data, ncols):
    """Dense Gauss-Jordan on a copy of ``data``, first nonzero entry as
    pivot: (every row of the RREF, zero rows last; pivot columns)."""
    m = [[F(x) for x in row] for row in data]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        if m[r][c] != 1:
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def identity(n):
    return RatMatrix([[F(int(i == j)) for j in range(n)] for i in range(n)], cols=n)


def solve(mat, rhs):
    """One solution of ``mat @ x = rhs``, free variables zero, or None
    when the system is inconsistent."""
    if len(rhs) != mat.rows:
        raise ValueError(f"rhs length {len(rhs)} != rows {mat.rows}")
    n = mat.cols
    rows, pivots = gauss_jordan([row + [b] for row, b in zip(mat.data, rhs)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [F(0)] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    return x


def image_basis(mat):
    """The nonzero rows of rref(mat^T): one basis per column space."""
    rows, pivots = gauss_jordan(mat.transpose().data, mat.rows)
    return rows[:len(pivots)]


def inverse(mat):
    if mat.rows != mat.cols:
        raise ValueError(f"inverse of non-square {mat.shape}")
    n = mat.rows
    rows, pivots = gauss_jordan([row + e for row, e in zip(mat.data, identity(n).data)], 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RatMatrix([row[n:] for row in rows], cols=n)


# ---------------------------------------------------------------------------
# morphisms of slot modules


def _blockwise(f, g, op):
    return SlotMap(f.src, f.dst, {
        s: RatMatrix([[op(a, b) for a, b in zip(ra, rb)]
                      for ra, rb in zip(f.blocks[s].data, g.blocks[s].data)], cols=f.src.dims[s])
        for s in f.src.slot_keys})


def compose(g, f):
    """g . f (apply f first)."""
    return SlotMap(f.src, g.dst, {s: g.blocks[s] @ f.blocks[s] for s in f.src.slot_keys})


def add(f, g):
    return _blockwise(f, g, lambda a, b: a + b)


def scale(f, c):
    return _blockwise(f, f, lambda a, _: c * a)


def is_zero(f):
    return not any(x for b in f.blocks.values() for row in b.data for x in row)


def is_injective(f):
    return all(b.rank() == b.cols for b in f.blocks.values())


def is_surjective(f):
    return all(b.rank() == b.rows for b in f.blocks.values())


def zero_module(M):
    """The zero module on the slots and labels of M."""
    return Rep(M.quiver, M.layout, {}, {lab: RatMatrix.zeros(0, 0) for lab in M.maps})


def zero_map(M, N):
    return SlotMap(M, N, {s: RatMatrix.zeros(N.dims[s], M.dims[s]) for s in M.slot_keys})


def map_vec_length(M, N):
    """The length of ``vec()`` of a map M -> N."""
    return sum(N.dims[s] * M.dims[s] for s in M.slot_keys)


def sum_module(mods):
    """The direct sum of at least one module: block-diagonal structure maps."""
    M = mods[0]
    return Rep(M.quiver, M.layout, {s: sum(m.dims[s] for m in mods) for s in M.slot_keys},
               {lab: RatMatrix.block_diagonal([m.maps[lab] for m in mods]) for lab in M.maps})


def direct_sum(mods):
    """The direct sum of at least one module, with its inclusions and projections."""
    S = sum_module(mods)
    slots, dims = S.slot_keys, S.dims
    incls, projs = [], []
    offset = dict.fromkeys(slots, 0)
    for m in mods:
        inc = {s: RatMatrix.zeros(dims[s], m.dims[s]) for s in slots}
        prj = {s: RatMatrix.zeros(m.dims[s], dims[s]) for s in slots}
        for s in slots:
            for i in range(m.dims[s]):
                inc[s][offset[s] + i, i] = prj[s][i, offset[s] + i] = 1
            offset[s] += m.dims[s]
        incls.append(SlotMap(m, S, inc))
        projs.append(SlotMap(S, m, prj))
    return S, incls, projs


def is_left_approximation(x, comps, pool):
    """Hom(E, P) -> Hom(x, P) is onto for every P of the pool."""
    for P in pool:
        span = SparseEchelon(map_vec_length(x, P))
        for i, f in comps:
            for g in homsolve.hom_basis(pool[i], P):
                span.add(sparse_row(compose(g, f).vec()))
        if span.rank != len(homsolve.hom_basis(x, P)):
            return False
    return True


# ---------------------------------------------------------------------------
# fixtures over the path algebra and the duplicated algebra

# the benchmark's seed-1 inputs (perfbench/workloads.py: quiver_text with
# random.Random(1)), the first files of the endo-a3, dup-e6 and
# classical-d6 workloads
A3_SEED1 = """# A3, seeded orientation and relabelling
vertices 0 1 2
arrow a361 2 1
arrow a220 0 2
"""

E6_SEED1 = """vertices 0 1 2 3 4 5
arrow a583 0 4
arrow a879 5 3
arrow a560 0 5
arrow a607 3 2
arrow a767 1 5
"""

D6_SEED1 = """# D6, seeded orientation and relabelling
vertices 0 1 2 3 4 5
arrow a583 0 4
arrow a879 5 3
arrow a560 0 5
arrow a607 5 2
arrow a767 1 4
"""


def simple(q, a):
    dims = {v: int(v == a) for v in q.vertices}
    return Rep(q, rep_a.layout(q), dims, {
        arr.aid: RatMatrix.zeros(dims[arr.target], dims[arr.source]) for arr in q.arrows})


def canonical_modules(q):
    """(projectives, injectives, simples), each indexed by vertex."""
    return ({v: rep_a.projective(q, v) for v in q.vertices},
            {v: rep_a.injective(q, v) for v in q.vertices},
            {v: simple(q, v) for v in q.vertices})


def embed_top(q, m):
    """The A-module m in the top layer of a triple, zero bottom: the
    labels of ``dup.embed``'s triple, the top arrows acting as m's."""
    bottom = dup.embed(q, m)
    dims = {("t", v): d for v, d in m.dims.items()}
    maps = {lab: m.maps[lab[1]] if lab[0] == "t"
            else RatMatrix.zeros(dims.get(b, 0), dims.get(a, 0))
            for lab, (a, b) in bottom.layout.ends.items()}
    return Rep(q, bottom.layout, dims, maps)


def global_dimension_dup(ctx):
    """Global dimension of the duplicated algebra: the largest projective
    dimension of its 2n simples."""
    q = ctx.quiver
    return max(projective_dimension(layer(q, simple(q, a)))
               for a in q.vertices for layer in (dup.embed, embed_top))


def complements(q, m):
    """All indecomposables completing the almost complete tilting module
    with summands ``m`` (IndecIds or dimension vectors); ValueError when
    ``m`` is not one."""
    want = [item if isinstance(item, IndecId) else IndecId("dyn", tuple(item)) for item in m]
    if len(set(want)) == len(want):
        for rec in tilt_a.almost_complete_survey(q):
            if set(rec.summands) == set(want):
                return list(rec.complements)
    raise ValueError(f"{[str(i) for i in want]} is not an almost complete tilting module")


# ---------------------------------------------------------------------------
# the deep check's cokernel route: one cokernel module per (P, approximation)


def add_lookups(ctx, c):
    """The two lookups ``decompose_in_add`` reads for the module c, keyed
    by object index and solved once each: the Hom basis of Hom(c, object
    k), and the ``radical_coordinates`` of the composites c -> k_a -> k_b
    in the basis of Hom(c, k_b)."""
    objs = ctx.objects()

    @cache
    def hom(k):
        return homsolve.hom_basis(c, objs[k][1])

    @cache
    def radical(a, b):
        return homsolve.radical_coordinates(c, hom(a), ctx.hom_idx(a, b), hom(b))

    return hom, radical


def decompose_in_add(ctx, c, member_indices, hom, radical):
    """Multiplicities making c isomorphic to a sum of the given objects,
    or None when c is not in their additive closure; ``hom`` and
    ``radical`` are c's lookups by object index (``add_lookups``).  c
    lies in add T iff its minimal left add(T)-approximation c -> E is
    injective at every slot with dim E = dim c (Auslander-Smalo)."""
    mults = [0] * len(member_indices)
    if c.is_zero():
        return mults
    try:
        comps = homsolve.injective_approximation(
            c, [hom(k) for k in member_indices],
            lambda a, b: radical(member_indices[a], member_indices[b]))
    except homsolve.NoExchangeSequence:
        return None
    for i, _ in comps:
        mults[i] += 1
    objs = ctx.objects()
    e_dims = tuple(sum(objs[member_indices[i]][1].dims[s] for i, _ in comps)
                   for s in c.slot_keys)
    return mults if e_dims == c.dim_vector() else None


def deep_check_cokernels(ctx, drop=None):
    """{(T's position, P's position): multiplicities or None} of every
    pair of the deep check, in the order of ``dup.coresolutions``, by the
    cokernel route: the minimal left add(T)-approximation P -> T0 of each
    pair, one cokernel module per (P, components), and the Hom bases out
    of it solved.  ``drop`` removes that object from every T."""
    objs = ctx.objects()
    projectives = dup.deep_check_projectives(ctx)
    bars = projectives[:ctx.n]
    out = {}
    for p_pos, p in enumerate(projectives):
        shared = {}
        for t_pos, t in enumerate(dup.enumerate_tilting_dup(ctx)):
            members = [k for k in list(t.indices) + bars if k != drop]
            comps = homsolve.injective_approximation(
                objs[p][1], [ctx.hom_idx(p, k) for k in members],
                lambda a, b: ctx.radical_idx(p, members[a], members[b]))
            key = tuple((members[i], homsolve.basis_position(ctx.hom_idx(p, members[i]), h))
                        for i, h in comps)
            if key not in shared:
                _, f = homsolve.approximation_map(
                    objs[p][1], [objs[k][1] for k in members], comps)
                y, _ = homsolve.cokernel(f)
                shared[key] = y, add_lookups(ctx, y)
            y, lookups = shared[key]
            out[(t_pos, p_pos)] = decompose_in_add(ctx, y, members, *lookups)
    return out


# ---------------------------------------------------------------------------
# left modules over End T


def structure_table(summands, homs, composites):
    """The multiplication table of ``endo.structure_algebra(summands, homs,
    composites)``, built as the package once built it: ``table[(x, y)]``
    expands x*y (y after x), for every x and y with T_dst of x = T_src of
    y, as a sparse coefficient map; ``RuntimeError`` if a block does not
    fit the bases."""
    r = len(summands)
    pair_basis, count = {}, 0
    for i in range(r):
        for j in range(r):
            pair_basis[(i, j)] = list(range(count, count + len(homs[(i, j)])))
            count += len(homs[(i, j)])
    table = {}
    for (a, b), xs in pair_basis.items():
        for c in range(r):
            ys, zs = pair_basis[(b, c)], pair_basis[(a, c)]
            if a == b or b == c:                  # x or y is an idempotent
                table.update(((x, y), {y if a == b else x: 1}) for x in xs for y in ys)
            elif xs and ys:
                coords = composites(a, b, c)      # x then y
                if [len(row) for row in coords] != [len(ys)] * len(xs) or any(
                        len(cs) != len(zs) for row in coords for cs in row):
                    raise RuntimeError(f"composite coordinates of summands {(a, b, c)} "
                                       "do not fit their Hom bases")
                table.update(((x, y), {z: v for z, v in zip(zs, cs) if v})
                             for x, row in zip(xs, coords) for y, cs in zip(ys, row))
    return table


def multiply(alg, x, y):
    """The product x*y (y after x) of two basis elements, sparse, read
    from the algebra's shared block at the offsets of its pairs."""
    (a, b, _), (b2, c, _) = alg.elements[x], alg.elements[y]
    if b != b2:
        return {}
    if a == b or b == c:                          # x or y is an idempotent
        return {y if a == b else x: 1}
    xs, ys, zs = (alg.pair_basis[pair] for pair in ((a, b), (b, c), (a, c)))
    coords = alg.composites(a, b, c)[x - xs.start][y - ys.start]
    assert len(coords) == len(zs)
    return {zs.start + z: v for z, v in enumerate(coords) if v}


def blocks_table(alg):
    """Every product of ``alg`` read through its shared blocks, keyed as
    ``structure_table`` keys them."""
    return {(x, y): multiply(alg, x, y)
            for x, ex in enumerate(alg.elements) for y, ey in enumerate(alg.elements)
            if ex.dst == ey.src}


@cache
def b_layout(algebra):
    """The layout of left modules over a structure algebra: one slot per
    summand, and each basis morphism x: T_a -> T_b but the idempotents
    (the grading, which carries no matrix) acting by precomposition,
    from slot b to slot a."""
    idem = set(algebra.idempotents)
    return Layout(tuple(range(len(algebra.summands))),
                  {e: (el.dst, el.src) for e, el in enumerate(algebra.elements) if e not in idem})


@cache
def shared_projective(alg, s):
    """``regular_projective(alg, s)``, built once; callers must not mutate it."""
    return regular_projective(alg, s)


def _action(alg, dims, entries):
    """The action matrices of every non-idempotent element x: T_a -> T_b,
    dims[a] x dims[b], from ``entries(x)``, an iterable of (row, column,
    value)."""
    idem = set(alg.idempotents)
    action = {}
    for x, ex in enumerate(alg.elements):
        if x not in idem:
            m = action[x] = RatMatrix.zeros(dims[ex.src], dims[ex.dst])
            for row, col, c in entries(x):
                m[row, col] = c
    return action


def regular_projective(alg, i):
    """Be_i: slot j is spanned by the morphisms T_j -> T_i; the action
    matrices are read off the multiplication table."""
    dims = {j: len(alg.pair_basis[(j, i)]) for j in range(len(alg.summands))}

    def entries(x):
        ex = alg.elements[x]
        pos = {e: k for k, e in enumerate(alg.pair_basis[(ex.src, i)])}
        for col, h in enumerate(alg.pair_basis[(ex.dst, i)]):
            for z, c in multiply(alg, x, h).items():
                yield pos[z], col, c

    return Rep(alg, b_layout(alg), dims, _action(alg, dims, entries))


def simple_module(alg, i):
    """One-dimensional module at the i-th idempotent."""
    dims = {j: int(j == i) for j in range(len(alg.summands))}
    return Rep(alg, b_layout(alg), dims, _action(alg, dims, lambda x: ()))


def b_module(alg, m):
    """Hom(T, m) as a left End(T)-module, slot i = Hom(T_i, m);
    ValueError unless the summands generate m."""
    r = len(alg.summands)
    homs = [homsolve.hom_basis(alg.summands[i], m) for i in range(r)]
    for s in m.slot_keys:
        span = SparseEchelon(m.dims[s])
        for basis in homs:
            for h in basis:
                for col in h.blocks[s].transpose().data:
                    span.add(sparse_row(col))
        if span.rank != m.dims[s]:
            raise ValueError("module is not generated by the summands")
    dims = {i: len(homs[i]) for i in range(r)}

    def entries(x):
        ex = alg.elements[x]
        comps = [sparse_row(compose(h, ex.hom).vec()) for h in homs[ex.dst]]
        for col, coords in enumerate(homsolve.basis_coordinates(homs[ex.src], comps)):
            for row, c in enumerate(coords):
                yield row, col, c

    return Rep(alg, b_layout(alg), dims, _action(alg, dims, entries))


def global_dimension(alg):
    """The largest projective dimension of the simples of End T."""
    steps = [endo.simple_resolution(alg, i) for i in range(len(alg.summands))]
    if None in steps:
        raise RuntimeError("a simple does not resolve within the cap")
    return max(len(s) - 1 for s in steps)


# ---------------------------------------------------------------------------
# the cover route: covers, kernels and resolutions
#
# A projective hook returns (P_s, words): the indecomposable projective at
# slot s and, per slot w, the label words that carry its generator to its
# basis vectors at w, in basis order (labels apply left to right).


def rep_projective(M, v):
    """P_v, its words the paths v ~> w (arrow ids are the labels)."""
    q = M.quiver
    return rep_a.projective(q, v), {w: q.paths_between(v, w) for w in q.vertices}


@cache
def slot_words(q, s):
    """The words of ``dup.slot_projective(q, s)``.  At ("b", a): the bottom
    paths a ~> w.  At ("t", a): the top paths a ~> w, and at ("b", w) the
    duals of the paths z: w ~> a, reached by the top arrows of y: a ~> e
    (e the first sink a reaches), the connecting arrow of r z y, then the
    bottom arrows of r: u ~> w (u the first source reaching w)."""
    layer, a = s
    if layer == "t":
        e = next(e for e in q.vertices if q.is_sink(e) and q.paths_between(a, e))
        y = q.paths_between(a, e)[0]
    words = {}
    for w in q.vertices:
        paths = [tuple((layer, x) for x in p) for p in q.paths_between(a, w)]
        if layer == "b":
            words[("t", w)], words[("b", w)] = [], paths
            continue
        u = next(u for u in q.vertices if q.is_source(u) and q.paths_between(u, w))
        r = q.paths_between(u, w)[0]
        words[("t", w)] = paths
        words[("b", w)] = [tuple(("t", x) for x in y) + (("m", u, r + z + y),)
                           + tuple(("b", x) for x in r) for z in q.paths_between(w, a)]
    return words


def triple_projective(M, s):
    return dup.slot_projective(M.quiver, s), slot_words(M.quiver, s)


def bmod_projective(M, s):
    """Be_s, shared per (algebra, s), its words the basis morphisms
    T_j -> T_s, the idempotent as the empty word."""
    alg = M.quiver
    idem = set(alg.idempotents)
    return shared_projective(alg, s), {
        j: [() if e in idem else (e,) for e in alg.pair_basis[(j, s)]] for j in M.slot_keys}


PROJECTIVES = {"Rep": rep_projective, "TripleModule": triple_projective, "BMod": bmod_projective}


def kind(M):
    """The ``PROJECTIVES`` key of M: a module over A, over the duplicated
    algebra, or over a structure algebra."""
    if isinstance(M.quiver, endo.StructureAlgebra):
        return "BMod"
    return "TripleModule" if M.layout == dup._layout(M.quiver) else "Rep"


def top_lifts(M):
    """Standard-basis lifts of a basis of M / rad M, slot by slot: e_i
    joins iff it enlarges the span of the images of all labels (every
    corner is scalar) and of the lifts before it."""
    images = {s: [] for s in M.slot_keys}
    for lab, mat in M.maps.items():
        images[M.layout.ends[lab][1]].extend(zip(*mat.data))  # the columns
    out = []
    for s in M.slot_keys:
        span = SparseEchelon(M.dims[s])
        for v in images[s]:
            span.add(sparse_row(v))
        out.extend((s, [F(int(k == i)) for k in range(M.dims[s])])
                   for i in range(M.dims[s]) if span.add({i: 1}))
    return out


def projective_cover_parts(M):
    """Projective cover P -> M, one projective per lifted top generator
    (``tags``: their slots).  The component at a generator v in M_s sends
    the basis vector of P_s reached by a word to the image of v under that
    word (Yoneda, Auslander-Reiten-Smalo II.1)."""
    lifts = top_lifts(M)
    if not lifts:
        if not M.is_zero():
            raise RuntimeError("nonzero module with zero top")
        Z = zero_module(M)
        return Z, [], zero_map(Z, M)
    projectives = {s: PROJECTIVES[kind(M)](M, s) for s, _ in lifts}
    P = sum_module([projectives[s][0] for s, _ in lifts])
    st = M.maps
    cols = {w: [] for w in M.slot_keys}
    for s, v in lifts:
        for w, words in projectives[s][1].items():
            for word in words:
                vec = v
                for lab in word:
                    vec = st[lab].apply(vec)
                cols[w].append(vec)
    cover = SlotMap(P, M, {w: RatMatrix([[c[r] for c in cols[w]] for r in range(M.dims[w])],
                                        cols=len(cols[w])) for w in M.slot_keys})
    if not is_surjective(cover):
        raise RuntimeError("cover failed to be surjective")
    return P, [s for s, _ in lifts], cover


def kernel(f):
    """Kernel submodule with its inclusion, on slotwise canonical kernel
    bases (each vector is 1 at its last nonzero entry, its free column,
    where the others vanish): a structure map is transported by reading
    pushed basis vectors at the target's free columns, and a nonzero
    residual raises ``RuntimeError``."""
    M = f.src
    bases, free = {}, {}
    for s in M.slot_keys:
        vecs = f.blocks[s].kernel_basis()
        bases[s] = RatMatrix(vecs, cols=M.dims[s]).transpose()  # columns = basis
        free[s] = [max(k for k, x in enumerate(v) if x) for v in vecs]
    struct = {}
    for lab, mat in M.maps.items():
        a, b = M.layout.ends[lab]
        pushed = mat @ bases[a]  # columns land in ker f_b
        struct[lab] = RatMatrix([pushed.data[c] for c in free[b]], cols=pushed.cols)
        if bases[b] @ struct[lab] != pushed:
            raise RuntimeError("kernel not preserved: map is not a morphism")
    K = Rep(M.quiver, M.layout, {s: len(free[s]) for s in M.slot_keys}, struct)
    return K, SlotMap(K, M, bases)


def projective_resolution(M):
    """Minimal projective resolution of M: the ``tags`` of each cover, or
    None when 7 covers do not end it.  A cover with the dimensions of the
    module it covers is bijective, so the resolution ends there and the
    zero module resolves in one empty step."""
    steps, cur = [], M
    for _ in range(7):
        P, tags, cover = projective_cover_parts(cur)
        steps.append(tags)
        if P.dims == cur.dims:
            return steps
        cur, _ = kernel(cover)
    return None


def ext1_dim(M, N):
    """dim Ext^1(M, N) from 0 -> K -> P -> M -> 0: Hom(-, N) gives
    dim Hom(K, N) - dim Hom(P, N) + dim Hom(M, N)."""
    P, _, cover = projective_cover_parts(M)
    K, _ = kernel(cover)
    if K.is_zero():
        return 0
    return homsolve.hom_dim(K, N) - homsolve.hom_dim(P, N) + homsolve.hom_dim(M, N)


def projective_dimension(M):
    """Length of the minimal projective resolution of a nonzero module."""
    if M.is_zero():
        raise ValueError("projective dimension of the zero module")
    steps = projective_resolution(M)
    if steps is None:
        raise RuntimeError("projective dimension exceeds cap 6")
    return len(steps) - 1


def hom_pd_bound(ctx):
    """pd Hom(T, m) over End T is at most pd m, for every tilting module T
    and every object m its summands generate; pd m is resolved once per
    object."""
    violations, checked, downstairs = [], 0, {}
    for t in dup.enumerate_tilting_dup(ctx):
        alg, _ = endo.endo_algebra(ctx, t)
        for k, (pid, m) in enumerate(ctx.objects()):
            try:
                bm = b_module(alg, m)
            except ValueError:
                continue
            checked += 1
            steps = projective_resolution(bm)
            upstairs = None if steps is None else len(steps) - 1
            if k not in downstairs:
                downstairs[k] = projective_dimension(m)
            if upstairs is None or upstairs > downstairs[k]:
                violations.append(f"{t.label()}: pd Hom(T, {pid}) = {upstairs} "
                                  f"exceeds {downstairs[k]}")
    return {"status": "violation" if violations else "pass",
            "stats": {"modules_checked": checked}, "counterexamples": violations}


# ---------------------------------------------------------------------------
# the exchange-graph engine on frozenset rows and candidate lists


def compatibility_table(size, compatible):
    """Row i: the frozenset of every other index j with compatible(i, j)."""
    return [frozenset(j for j in range(size) if j != i and compatible(i, j))
            for i in range(size)]


def cliques(table, size):
    """All ascending pairwise-compatible index tuples of the given size,
    in lexicographic order, by filtering a candidate list."""
    out = []

    def rec(chosen, cands):
        if len(chosen) == size:
            out.append(chosen)
            return
        need = size - len(chosen)
        for k, i in enumerate(cands):
            if len(cands) - k < need:
                break
            row = table[i]
            rec(chosen + (i,), [j for j in cands[k + 1:] if j in row])

    rec((), list(range(len(table))))
    return out


def complement_indices(table, rest):
    """Every index outside ``rest`` compatible with all of it."""
    return sorted(set(range(len(table))).intersection(*(table[r] for r in rest)))


def exchange_arcs(ids, table, ext, certify, vertices, allowed):
    """``tilt_a.exchange_arcs`` with parts and vertices keyed by tuple:
    every almost complete part in first-seen order, its complements
    listed, one certified arc per part with two of them."""
    position = {c: i for i, c in enumerate(vertices)}
    arcs, defects = [], []
    parts = dict.fromkeys(tuple(j for j in t if j != drop) for t in vertices for drop in t)
    for rest in parts:
        comps = complement_indices(table, rest)
        if len(comps) not in allowed:
            defects.append((rest, len(comps)))
        if len(comps) != 2:
            continue
        c1, c2 = comps
        e12, e21 = ext(c1, c2), ext(c2, c1)
        if (e12 == 0) == (e21 == 0):
            raise RuntimeError(f"cannot orient the exchange of {ids[c1]} / {ids[c2]}")
        x, y = (c2, c1) if e12 else (c1, c2)
        arcs.append(tilt_a.Arc(position[tuple(sorted(rest + (x,)))],
                               position[tuple(sorted(rest + (y,)))],
                               ids[x], ids[y], certify(x, y, rest)))
    arcs.sort(key=lambda a: (a.src, a.dst))
    return arcs, defects
