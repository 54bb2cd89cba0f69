"""Test oracles and fixtures, written against the package's public API.

The package ships what the command line runs; what only the tests need
lives here:

* dense matrix helpers (``identity``, ``solve``, ``image_basis``,
  ``inverse``) on a small dense Gauss-Jordan of their own,
  ``gauss_jordan``, so that they share no elimination code with the
  sparse kernel they check;
* morphism arithmetic of slot modules (``compose``, ``add``, ``scale``,
  ``is_zero``, ``is_injective``, ``is_surjective``), zero modules and
  maps, and direct sums;
* the simples, the canonical modules and the top embedding used as
  fixtures, the global dimension of the duplicated algebra (2n simples
  resolved as modules), and the complements of an almost complete
  tilting module;
* left modules over the endomorphism algebra of a tilting module
  (``BMod``): its regular projectives and simples, Hom(T, m) as such a
  module, and its global dimension;
* the cover route, which the package does not need: kernels, projective
  covers (one hook per module kind, ``PROJECTIVES``), resolutions, the
  generic Ext^1, and the check that Hom(T, -) never raises pd.
"""

from fractions import Fraction
from functools import cache

from tiltquiver import dup, endo, homsolve, rep_a, tilt_a
from tiltquiver.exactlin import RatMatrix, SparseEchelon, sparse_row
from tiltquiver.homsolve import SlotMap, SlotModule
from tiltquiver.rep_a import IndecId, Rep

F = Fraction


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
    return M._rebuild(dict.fromkeys(M.slot_keys, 0),
                      {lab: RatMatrix.zeros(0, 0) for lab in M.struct()})


def zero_map(M, N):
    return SlotMap(M, N, {s: RatMatrix.zeros(N.dims[s], M.dims[s]) for s in M.slot_keys})


def map_vec_length(M, N):
    """The length of ``vec()`` of a map M -> N."""
    return sum(N.dims[s] * M.dims[s] for s in M.slot_keys)


def sum_module(mods):
    """The direct sum of at least one module: block-diagonal structure maps."""
    structs = [m.struct() for m in mods]
    return mods[0]._rebuild(
        {s: sum(m.dims[s] for m in mods) for s in mods[0].slot_keys},
        {lab: RatMatrix.block_diagonal([st[lab] for st in structs]) for lab in structs[0]})


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


def simple(q, a):
    dims = {v: int(v == a) for v in q.vertices}
    return Rep(q, dims, {arr.aid: RatMatrix.zeros(dims[arr.target], dims[arr.source])
                         for arr in q.arrows})


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
    struct = {}
    for lab in bottom.struct():
        a, b = bottom.label_ends(lab)
        struct[lab] = (m.arrow_maps[lab[1]] if lab[0] == "t"
                       else RatMatrix.zeros(dims.get(b, 0), dims.get(a, 0)))
    return dup.TripleModule(q, dims, struct)


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
# left modules over End T


def multiply(alg, x, y):
    """The product x*y (y after x) of two basis elements, sparse."""
    if alg.elements[x].dst != alg.elements[y].src:
        return {}
    return alg.table[(x, y)]


class BMod(SlotModule):
    """Left module over a structure algebra: one slot per summand.  A
    basis morphism x: T_a -> T_b acts by precomposition, from slot b to
    slot a; the idempotents are the grading and carry no matrix."""

    def __init__(self, algebra, dims, action):
        self.algebra = algebra
        self.slot_keys = tuple(range(len(algebra.summands)))
        self.dims = {s: dims.get(s, 0) for s in self.slot_keys}
        idem = set(algebra.idempotents)
        self.action = {e: action[e] for e in range(algebra.dimension) if e not in idem}
        for e, m in self.action.items():
            el = algebra.elements[e]
            want = (self.dims[el.src], self.dims[el.dst])
            if m.shape != want:
                raise ValueError(f"element {e}: action shape {m.shape}, expected {want}")

    def struct(self):
        return self.action

    def label_ends(self, label):
        el = self.algebra.elements[label]
        return el.dst, el.src

    def _rebuild(self, dims, struct):
        return BMod(self.algebra, dict(dims), dict(struct))


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

    return BMod(alg, dims, _action(alg, dims, entries))


def simple_module(alg, i):
    """One-dimensional module at the i-th idempotent."""
    dims = {j: int(j == i) for j in range(len(alg.summands))}
    return BMod(alg, dims, _action(alg, dims, lambda x: ()))


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

    return BMod(alg, dims, _action(alg, dims, entries))


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
    alg = M.algebra
    idem = set(alg.idempotents)
    return shared_projective(alg, s), {
        j: [() if e in idem else (e,) for e in alg.pair_basis[(j, s)]] for j in M.slot_keys}


PROJECTIVES = {Rep: rep_projective, dup.TripleModule: triple_projective, BMod: bmod_projective}


def top_lifts(M):
    """Standard-basis lifts of a basis of M / rad M, slot by slot: e_i
    joins iff it enlarges the span of the images of all labels (every
    corner is scalar) and of the lifts before it."""
    images = {s: [] for s in M.slot_keys}
    for lab, mat in M.struct().items():
        images[M.label_ends(lab)[1]].extend(zip(*mat.data))  # the columns
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
    projectives = {s: PROJECTIVES[type(M)](M, s) for s, _ in lifts}
    P = sum_module([projectives[s][0] for s, _ in lifts])
    st = M.struct()
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
    for lab, mat in M.struct().items():
        a, b = M.label_ends(lab)
        pushed = mat @ bases[a]  # columns land in ker f_b
        struct[lab] = RatMatrix([pushed.data[c] for c in free[b]], cols=pushed.cols)
        if bases[b] @ struct[lab] != pushed:
            raise RuntimeError("kernel not preserved: map is not a morphism")
    K = M._rebuild({s: len(free[s]) for s in M.slot_keys}, struct)
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
