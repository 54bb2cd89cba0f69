"""Generic homological machinery for slot-graded linear modules.

Several module categories in this package have the same shape: a module
is a family of finite dimensional rational vector spaces indexed by
*slots*, together with *labeled* structure maps between slots.  Quiver
representations (slots = vertices, labels = arrows), the triples over
the duplicated algebra and the modules over a computed endomorphism
algebra all fit.  Everything that only depends on that shape lives
here, written once:

* morphism spaces (``hom_basis``) and their dimensions (``hom_dim``) from
  the intertwining equations, assembled as sparse rows,
* kernels, cokernels and direct sums that stay inside the category,
* radical / top / socle, projective covers and injective envelopes
  (via small per-class hooks for the canonical projectives/injectives),
* syzygies, projective dimension, Ext^1 via a cover,
* minimal left approximations into an additive subcategory spanned by
  indecomposables with one-dimensional endomorphism rings, and the
  short exact exchange sequence an approximation generates.

The concrete classes subclass :class:`SlotModule` and provide the
structure maps plus the hooks; no linear algebra happens outside
``exactlin``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Sequence

from .exactlin import (
    Rat,
    RatMatrix,
    SparseEchelon,
    as_int_if_integral,
    dense_row,
    kernel_from_rref,
    rref_rows,
    sparse_row,
)

Label = Hashable
Slot = Hashable


class SlotModule:
    """Base class: dims per slot + labeled structure maps.

    Subclasses must set ``slot_keys`` (shared, ordered) and ``dims``
    (dict slot -> dimension) and implement:

    ``struct()``
        dict label -> RatMatrix, every structure map of the module;
    ``label_ends(label)``
        (source slot, destination slot) of a label;
    ``solver_labels()``
        the sublist of labels whose intertwining equations already cut
        out the morphism space (redundant equations may be dropped);
    ``_rebuild(dims, struct)``
        a new instance of the same kind from transported data.

    Optional hooks, needed only for radical/socle based computations:
    ``radical_labels()``, ``projective_for_slot(s)``,
    ``yoneda_from_generator(s, vec, M)``, ``injective_for_slot(s)``,
    ``coyoneda_from_functional(s, functional, M)``.
    """

    slot_keys: tuple[Slot, ...]
    dims: dict[Slot, int]

    # -- required interface ------------------------------------------------

    def struct(self) -> dict[Label, RatMatrix]:
        raise NotImplementedError

    def label_ends(self, label: Label) -> tuple[Slot, Slot]:
        raise NotImplementedError

    def solver_labels(self) -> tuple[Label, ...]:
        raise NotImplementedError

    def _rebuild(self, dims: dict[Slot, int], struct: dict[Label, RatMatrix]) -> "SlotModule":
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dims_key(self) -> tuple[int, ...]:
        return tuple(self.dims[s] for s in self.slot_keys)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def zero_like(self) -> "SlotModule":
        dims = {s: 0 for s in self.slot_keys}
        struct = {l: RatMatrix.zeros(0, 0) for l in self.struct()}
        return self._rebuild(dims, struct)


class SlotMap:
    """Morphism of slot modules: one matrix per slot (dst_dim x src_dim)."""

    __slots__ = ("src", "dst", "blocks")

    def __init__(self, src: SlotModule, dst: SlotModule, blocks: dict[Slot, RatMatrix]):
        self.src = src
        self.dst = dst
        self.blocks = blocks
        for s in src.slot_keys:
            b = blocks[s]
            if b.shape != (dst.dims[s], src.dims[s]):
                raise ValueError(
                    f"block at slot {s!r} has shape {b.shape}, "
                    f"expected {(dst.dims[s], src.dims[s])}"
                )

    @classmethod
    def zero(cls, src: SlotModule, dst: SlotModule) -> "SlotMap":
        return cls(
            src, dst,
            {s: RatMatrix.zeros(dst.dims[s], src.dims[s]) for s in src.slot_keys},
        )

    @classmethod
    def identity(cls, m: SlotModule) -> "SlotMap":
        return cls(m, m, {s: RatMatrix.identity(m.dims[s]) for s in m.slot_keys})

    def __matmul__(self, inner: "SlotMap") -> "SlotMap":
        """Composition self . inner (apply ``inner`` first)."""
        if inner.dst is not self.src and inner.dst.dims != self.src.dims:
            raise ValueError("composition endpoint mismatch")
        return SlotMap(
            inner.src, self.dst,
            {s: self.blocks[s] @ inner.blocks[s] for s in self.src.slot_keys},
        )

    def __add__(self, other: "SlotMap") -> "SlotMap":
        return SlotMap(
            self.src, self.dst,
            {s: self.blocks[s] + other.blocks[s] for s in self.src.slot_keys},
        )

    def __sub__(self, other: "SlotMap") -> "SlotMap":
        return SlotMap(
            self.src, self.dst,
            {s: self.blocks[s] - other.blocks[s] for s in self.src.slot_keys},
        )

    def scale(self, c) -> "SlotMap":
        return SlotMap(self.src, self.dst, {s: self.blocks[s].scale(c) for s in self.blocks})

    def vec(self) -> tuple[Fraction, ...]:
        """Flatten all blocks (slot order, row-major) for rank arguments."""
        out: list[Fraction] = []
        for s in self.src.slot_keys:
            for row in self.blocks[s].data:
                out.extend(row)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())

    def is_injective(self) -> bool:
        return all(b.rank() == b.cols for b in self.blocks.values())

    def is_surjective(self) -> bool:
        return all(b.rank() == b.rows for b in self.blocks.values())


# ---------------------------------------------------------------------------
# incremental rational span


class LinSpan:
    """Row span with incremental insertion, for greedy independence tests."""

    def __init__(self, length: int):
        self.length = length
        self._echelon = SparseEchelon(length)

    @property
    def dim(self) -> int:
        return self._echelon.rank

    @property
    def rows(self) -> list[list[Fraction]]:
        """The reduced echelon basis of the span, as dense vectors."""
        return [dense_row(row, self.length) for row in self._echelon.result()[0]]

    def _sparse(self, vec: Sequence[Fraction]) -> dict[int, Fraction]:
        if len(vec) != self.length:
            raise ValueError("length mismatch")
        return sparse_row(vec)

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert vec; True iff it enlarged the span."""
        return self._echelon.add(self._sparse(vec))

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not self._echelon.reduce(self._sparse(vec))


# ---------------------------------------------------------------------------
# morphism spaces


def _hom_system(
    M: SlotModule, N: SlotModule
) -> tuple[list[dict[int, Rat]], dict[Slot, int], int]:
    """Intertwining equations of Hom(M, N) as sparse rows.

    Unknowns are the entries of one matrix f_s: M_s -> N_s per slot,
    row-major, slot blocks in slot order (``offs[s]`` is where slot s
    starts; ``total`` unknowns in all).  Each solver label l: a -> b
    contributes the equations f_b @ S^M_l - S^N_l @ f_a = 0, one row per
    entry, holding at most dim M_b + dim N_a nonzeros.
    """
    if M.slot_keys != N.slot_keys:
        raise ValueError("modules live on different slot sets")
    labels = M.solver_labels()
    if labels != N.solver_labels():
        raise ValueError("modules carry different label sets")
    offs: dict[Slot, int] = {}
    total = 0
    for s in M.slot_keys:
        offs[s] = total
        total += N.dims[s] * M.dims[s]
    if total == 0:
        return [], offs, 0
    ms, ns = M.struct(), N.struct()
    rows: list[dict[int, Rat]] = []
    for lab in labels:
        a, b = M.label_ends(lab)
        P, Q = ms[lab], ns[lab]  # M_a -> M_b and N_a -> N_b
        mb, ma = M.dims[b], M.dims[a]
        nb, na = N.dims[b], N.dims[a]
        # nonzeros of the columns of P and the rows of Q, as ints where
        # integral so the rows below are built without Fraction arithmetic
        p_cols = [[(k, as_int_if_integral(P.data[k][j]))
                   for k in range(mb) if P.data[k][j]] for j in range(ma)]
        q_rows = [[(k, as_int_if_integral(x)) for k, x in enumerate(Q.data[i]) if x]
                  for i in range(nb)]
        for i in range(nb):
            base_b = offs[b] + i * mb
            for j in range(ma):
                row: dict[int, Rat] = {}
                for k, c in p_cols[j]:
                    row[base_b + k] = c
                for k, c in q_rows[i]:
                    col = offs[a] + k * ma + j
                    row[col] = row.get(col, 0) - c
                if row:
                    rows.append(row)
    return rows, offs, total


def hom_basis(M: SlotModule, N: SlotModule) -> list[SlotMap]:
    """Basis of the space of module morphisms M -> N.

    The canonical kernel basis of the intertwining system (see
    ``_hom_system``), cut back into one matrix per slot; the returned
    morphism basis is canonical too.
    """
    rows, offs, total = _hom_system(M, N)
    echelon, pivots = rref_rows(rows, total)
    out = []
    for v in kernel_from_rref(echelon, pivots, total):
        blocks = {}
        for s in M.slot_keys:
            r, c = N.dims[s], M.dims[s]
            seg = v[offs[s]: offs[s] + r * c]
            blocks[s] = RatMatrix([seg[i * c:(i + 1) * c] for i in range(r)], cols=c)
        out.append(SlotMap(M, N, blocks))
    return out


def hom_dim(M: SlotModule, N: SlotModule) -> int:
    """dim Hom(M, N) from the rank of the intertwining system alone."""
    rows, _, total = _hom_system(M, N)
    echelon = SparseEchelon(total)
    for row in rows:
        echelon.add(row)
    return total - echelon.rank


def end_dim(M: SlotModule) -> int:
    return hom_dim(M, M)


# ---------------------------------------------------------------------------
# kernels, cokernels, sums


def kernel(f: SlotMap) -> tuple[SlotModule, SlotMap]:
    """Kernel submodule with its inclusion.

    Slotwise kernel bases; structure maps are transported by expressing
    S^M(basis vector) in the kernel basis of the target slot, which is
    solvable exactly because f intertwines the structure maps.
    """
    M = f.src
    bases: dict[Slot, RatMatrix] = {}
    dims: dict[Slot, int] = {}
    for s in M.slot_keys:
        vecs = f.blocks[s].kernel_basis()
        bases[s] = RatMatrix(vecs, cols=M.dims[s]).transpose()  # columns = basis
        dims[s] = len(vecs)
    struct: dict[Label, RatMatrix] = {}
    for lab, mat in M.struct().items():
        a, b = M.label_ends(lab)
        pushed = mat @ bases[a]  # columns land in ker f_b
        cols = []
        for j in range(pushed.cols):
            col = [pushed[i, j] for i in range(pushed.rows)]
            x = bases[b].solve(col)
            assert x is not None, "kernel not preserved: map is not a morphism"
            cols.append(x)
        struct[lab] = RatMatrix(cols, cols=dims[b]).transpose() if cols else RatMatrix.zeros(dims[b], 0)
    K = M._rebuild(dims, struct)
    incl = SlotMap(K, M, {s: bases[s] for s in M.slot_keys})
    return K, incl


def _complement_columns(image_rows: list[list[Fraction]], dim: int) -> list[int]:
    """Greedy standard-basis complement of a subspace (canonical)."""
    span = LinSpan(dim)
    for r in image_rows:
        span.add(r)
    chosen = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        if span.add(e):
            chosen.append(i)
    return chosen


def complete_basis(vecs: list[list[Fraction]], dim: int) -> tuple[list[int], RatMatrix]:
    """Complete independent vectors by standard basis vectors
    (``_complement_columns``); return those indices and the inverse of the
    basis matrix whose columns are ``vecs``, then the standard vectors."""
    comp = _complement_columns(vecs, dim)
    if dim == 0:
        return comp, RatMatrix.zeros(0, 0)
    std = RatMatrix.identity(dim).data
    return comp, RatMatrix(list(vecs) + [std[i] for i in comp], cols=dim).transpose().inverse()


def cokernel(f: SlotMap) -> tuple[SlotModule, SlotMap]:
    """Cokernel with its projection, using greedy standard-basis complements."""
    N = f.dst
    projs: dict[Slot, RatMatrix] = {}
    dims: dict[Slot, int] = {}
    sections: dict[Slot, RatMatrix] = {}
    for s in N.slot_keys:
        d = N.dims[s]
        img = f.blocks[s].image_basis()
        # the projection reads off the complement coordinates
        comp, inv = complete_basis(img, d)
        dims[s] = len(comp)
        projs[s] = RatMatrix(inv.data[len(img):], cols=d)
        std = RatMatrix.identity(d).data
        sections[s] = RatMatrix([std[i] for i in comp], cols=d).transpose()
    struct: dict[Label, RatMatrix] = {}
    for lab, mat in N.struct().items():
        a, b = N.label_ends(lab)
        struct[lab] = projs[b] @ mat @ sections[a]
    C = N._rebuild(dims, struct)
    proj = SlotMap(N, C, projs)
    return C, proj


def direct_sum(mods: Sequence[SlotModule]) -> tuple[SlotModule, list[SlotMap], list[SlotMap]]:
    """Direct sum with inclusion and projection maps (at least one summand)."""
    if not mods:
        raise ValueError("direct_sum of nothing; use zero_like for a zero module")
    proto = mods[0]
    slots = proto.slot_keys
    dims = {s: sum(m.dims[s] for m in mods) for s in slots}
    structs = [m.struct() for m in mods]
    struct: dict[Label, RatMatrix] = {}
    for lab in structs[0]:
        a, b = proto.label_ends(lab)
        blocks = [st[lab] for st in structs]
        big = RatMatrix.zeros(dims[b], dims[a])
        ro = co = 0
        for blk in blocks:
            for i in range(blk.rows):
                for j in range(blk.cols):
                    big[ro + i, co + j] = blk[i, j]
            ro += blk.rows
            co += blk.cols
        struct[lab] = big
    S = proto._rebuild(dims, struct)
    incls, projs = [], []
    offset = {s: 0 for s in slots}
    for m in mods:
        inc_blocks, prj_blocks = {}, {}
        for s in slots:
            inc = RatMatrix.zeros(dims[s], m.dims[s])
            prj = RatMatrix.zeros(m.dims[s], dims[s])
            for i in range(m.dims[s]):
                inc[offset[s] + i, i] = 1
                prj[i, offset[s] + i] = 1
            inc_blocks[s] = inc
            prj_blocks[s] = prj
        incls.append(SlotMap(m, S, inc_blocks))
        projs.append(SlotMap(S, m, prj_blocks))
        for s in slots:
            offset[s] += m.dims[s]
    return S, incls, projs


# ---------------------------------------------------------------------------
# radical / top / socle and covers / envelopes


def radical_span(M: SlotModule) -> dict[Slot, LinSpan]:
    """Span of the images of all radical structure maps, per slot."""
    spans = {s: LinSpan(M.dims[s]) for s in M.slot_keys}
    st = M.struct()
    for lab in M.radical_labels():  # type: ignore[attr-defined]
        _, b = M.label_ends(lab)
        mat = st[lab]
        for j in range(mat.cols):
            spans[b].add([mat[i, j] for i in range(mat.rows)])
    return spans


def top_lifts(M: SlotModule) -> list[tuple[Slot, list[Fraction]]]:
    """Standard-basis lifts of a basis of M / rad M, slot by slot."""
    out: list[tuple[Slot, list[Fraction]]] = []
    spans = radical_span(M)
    for s in M.slot_keys:
        for i in _complement_columns(spans[s].rows, M.dims[s]):
            v = [Fraction(0)] * M.dims[s]
            v[i] = Fraction(1)
            out.append((s, v))
    return out


class SumDecomposition(NamedTuple):
    """A direct sum remembering its parts (for per-component bookkeeping)."""

    module: SlotModule
    parts: list[SlotModule]
    tags: list[Slot]            # which canonical slot each part came from
    incls: list[SlotMap]
    projs: list[SlotMap]


def projective_cover_parts(M: SlotModule) -> tuple[SumDecomposition, SlotMap]:
    """Projective cover P -> M built from lifted top generators.

    The decomposition lists one canonical projective per top generator,
    tagged by the generator's slot.
    """
    lifts = top_lifts(M)
    if not lifts:
        assert M.is_zero(), "nonzero module with zero top"
        Z = M.zero_like()
        dec = SumDecomposition(Z, [], [], [], [])
        return dec, SlotMap.zero(Z, M)
    comps = [
        (s, M.projective_for_slot(s), M.yoneda_from_generator(s, v, M))  # type: ignore[attr-defined]
        for s, v in lifts
    ]
    P, incls, projs = direct_sum([p for _, p, _ in comps])
    # the cover is the row of component maps: hstack their blocks per slot
    blocks = {
        s: RatMatrix.hstack([g.blocks[s] for _, _, g in comps])
        for s in M.slot_keys
    }
    cover = SlotMap(P, M, blocks)
    assert cover.is_surjective(), "cover failed to be surjective"
    dec = SumDecomposition(P, [p for _, p, _ in comps], [s for s, _, _ in comps],
                           incls, projs)
    return dec, cover


def projective_cover(M: SlotModule) -> tuple[SlotModule, SlotMap]:
    dec, cover = projective_cover_parts(M)
    return dec.module, cover


def syzygy(M: SlotModule) -> tuple[SlotModule, SlotModule, SlotMap]:
    """(kernel of cover, cover domain, cover map)."""
    P, cover = projective_cover(M)
    K, _ = kernel(cover)
    return K, P, cover


def projective_dimension(M: SlotModule, cap: int = 12) -> int:
    """Length of the minimal projective resolution (module must be nonzero)."""
    if M.is_zero():
        raise ValueError("projective dimension of the zero module")
    cur = M
    for d in range(cap + 1):
        om, _, _ = syzygy(cur)
        if om.is_zero():
            return d
        cur = om
    raise RuntimeError(f"projective dimension exceeds cap {cap}")


def ext1_dim(M: SlotModule, N: SlotModule) -> int:
    """dim Ext^1(M, N) from one syzygy step.

    Hom(-, N) applied to 0 -> K -> P -> M -> 0 gives
    ext1 = dim Hom(K, N) - dim Hom(P, N) + dim Hom(M, N).
    """
    K, P, _ = syzygy(M)
    if K.is_zero():
        return 0
    return hom_dim(K, N) - hom_dim(P, N) + hom_dim(M, N)


def socle_vectors(M: SlotModule) -> list[tuple[Slot, list[Fraction]]]:
    """Canonical basis of the socle: joint kernel of all radical maps out."""
    st = M.struct()
    by_src: dict[Slot, list[RatMatrix]] = {s: [] for s in M.slot_keys}
    for lab in M.radical_labels():  # type: ignore[attr-defined]
        a, _ = M.label_ends(lab)
        by_src[a].append(st[lab])
    out: list[tuple[Slot, list[Fraction]]] = []
    for s in M.slot_keys:
        d = M.dims[s]
        if d == 0:
            continue
        mats = by_src[s]
        if mats:
            stacked = RatMatrix.vstack(mats)
            for v in stacked.kernel_basis():
                out.append((s, v))
        else:
            for i in range(d):
                e = [Fraction(0)] * d
                e[i] = Fraction(1)
                out.append((s, e))
    return out


def injective_envelope_parts(M: SlotModule) -> tuple[SumDecomposition, SlotMap]:
    """Injective envelope M -> E from functionals dual to a socle basis.

    The decomposition lists one canonical injective per socle line,
    tagged by the socle slot.
    """
    soc = socle_vectors(M)
    if not soc:
        assert M.is_zero(), "nonzero module with zero socle"
        Z = M.zero_like()
        dec = SumDecomposition(Z, [], [], [], [])
        return dec, SlotMap.zero(M, Z)
    comps = []
    by_slot: dict[Slot, list[list[Fraction]]] = {}
    for s, v in soc:
        by_slot.setdefault(s, []).append(v)
    for s, vecs in by_slot.items():
        # the rows dual to the socle part: functionals vanishing on the
        # complement
        _, inv = complete_basis(vecs, M.dims[s])
        for idx in range(len(vecs)):
            functional = inv.data[idx][:]
            comps.append(
                (s,
                 M.injective_for_slot(s),  # type: ignore[attr-defined]
                 M.coyoneda_from_functional(s, functional, M))  # type: ignore[attr-defined]
            )
    E, incls, projs = direct_sum([e for _, e, _ in comps])
    blocks = {
        s: RatMatrix.vstack([g.blocks[s] for _, _, g in comps])
        for s in M.slot_keys
    }
    emb = SlotMap(M, E, blocks)
    assert emb.is_injective(), "envelope failed to be injective"
    dec = SumDecomposition(E, [e for _, e, _ in comps], [s for s, _, _ in comps],
                           incls, projs)
    return dec, emb


def injective_envelope(M: SlotModule) -> tuple[SlotModule, SlotMap]:
    dec, emb = injective_envelope_parts(M)
    return dec.module, emb


def cosyzygy(M: SlotModule) -> tuple[SlotModule, SlotModule, SlotMap]:
    """(cokernel of envelope, envelope codomain, envelope map)."""
    E, emb = injective_envelope(M)
    C, _ = cokernel(emb)
    return C, E, emb


# ---------------------------------------------------------------------------
# approximations and exchange sequences


def _map_vec_length(M: SlotModule, N: SlotModule) -> int:
    return sum(N.dims[s] * M.dims[s] for s in M.slot_keys)


def minimal_left_approximation(
    x: SlotModule,
    pool: Sequence[SlotModule],
    hom_x: Sequence[list[SlotMap]] | None = None,
    pool_homs: dict[tuple[int, int], list[SlotMap]] | None = None,
) -> list[tuple[int, SlotMap]]:
    """Components of the minimal left approximation of x into add(pool).

    Pool members must be pairwise non-isomorphic indecomposables with
    one-dimensional endomorphism rings (the caller's responsibility —
    every pool in this package satisfies it).  For each pool index i the
    chosen maps x -> pool_i descend to a basis of

        Hom(x, pool_i) / sum_{j != i} Hom(pool_j, pool_i) . Hom(x, pool_j)

    which pins the multiplicities of the minimal approximation; the
    selected components together form one.  Optional caches: ``hom_x``
    = precomputed Hom(x, pool_i), ``pool_homs[(j, i)]`` =
    Hom(pool_j, pool_i).
    """
    r = len(pool)
    if hom_x is None:
        hom_x = [hom_basis(x, P) for P in pool]
    if pool_homs is None:
        pool_homs = {}
        for j in range(r):
            for i in range(r):
                if i != j:
                    pool_homs[(j, i)] = hom_basis(pool[j], pool[i])
    comps: list[tuple[int, SlotMap]] = []
    for i in range(r):
        if not hom_x[i]:
            continue
        span = LinSpan(_map_vec_length(x, pool[i]))
        for j in range(r):
            if j == i or not hom_x[j]:
                continue
            for g in pool_homs[(j, i)]:
                for h in hom_x[j]:
                    span.add((g @ h).vec())
        for h in hom_x[i]:
            if span.add(h.vec()):
                comps.append((i, h))
    return comps


def is_left_approximation(
    x: SlotModule, comps: Sequence[tuple[int, SlotMap]], pool: Sequence[SlotModule]
) -> bool:
    """Check the defining property: Hom(E, P) -> Hom(x, P) onto for all P."""
    for P in pool:
        target = hom_basis(x, P)
        span = LinSpan(_map_vec_length(x, P))
        got = 0
        for i, f in comps:
            for g in hom_basis(pool[i], P):
                if span.add((g @ f).vec()):
                    got += 1
        if got != len(target):
            return False
    return True


def member_homs(members: Sequence[int], hom) -> dict[tuple[int, int], list[SlotMap]]:
    """``pool_homs`` for ``exchange_sequence`` from a cached ``hom(i, j)``:
    ``(a, b) -> hom(members[a], members[b])``."""
    return {(a, b): hom(i, j) for a, i in enumerate(members) for b, j in enumerate(members)}


def approximation_map(
    x: SlotModule, pool: Sequence[SlotModule], comps: Sequence[tuple[int, SlotMap]]
) -> tuple[SlotModule, SlotMap]:
    """The map x -> E into the sum of the chosen components (zero if none)."""
    if not comps:
        z = x.zero_like()
        return z, SlotMap.zero(x, z)
    E, incls, _ = direct_sum([pool[i] for i, _ in comps])
    f = SlotMap.zero(x, E)
    for (_, h), inc in zip(comps, incls):
        f = f + (inc @ h)
    return E, f


class NoExchangeSequence(ValueError):
    """The minimal left approximation is zero or fails to be injective."""


def exchange_sequence(
    x: SlotModule,
    pool: Sequence[SlotModule],
    hom_x: Sequence[list[SlotMap]] | None = None,
    pool_homs: dict[tuple[int, int], list[SlotMap]] | None = None,
) -> tuple[SlotModule, SlotModule]:
    """Short exact sequence 0 -> x -> E -> y -> 0 from the minimal left
    approximation of x into add(pool).

    Returns (E, y).  Raises ``NoExchangeSequence`` if the approximation
    is zero or fails to be injective, which in the tilting-exchange
    situations this package certifies cannot happen.
    """
    comps = minimal_left_approximation(x, pool, hom_x=hom_x, pool_homs=pool_homs)
    if not comps:
        raise NoExchangeSequence("empty approximation: x admits no map into the pool")
    E, f = approximation_map(x, pool, comps)
    if not f.is_injective():
        raise NoExchangeSequence("approximation map is not injective")
    y, _ = cokernel(f)
    return E, y
