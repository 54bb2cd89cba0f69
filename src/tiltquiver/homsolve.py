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
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

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

    __slots__ = ("src", "dst", "blocks", "_nonzeros")

    def __init__(self, src: SlotModule, dst: SlotModule, blocks: dict[Slot, RatMatrix]):
        self.src = src
        self.dst = dst
        self.blocks = blocks
        self._nonzeros = None  # memo of _block_nonzeros
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
            if x is None:
                raise RuntimeError("kernel not preserved: map is not a morphism")
            cols.append(x)
        struct[lab] = RatMatrix(cols, cols=dims[b]).transpose() if cols else RatMatrix.zeros(dims[b], 0)
    K = M._rebuild(dims, struct)
    incl = SlotMap(K, M, {s: bases[s] for s in M.slot_keys})
    return K, incl


def _reverse_echelon(
    vecs: Iterable[Sequence[Rat]], dim: int
) -> tuple[list[int], list[tuple[int, dict[int, Fraction]]]]:
    """Echelon form of the span of ``vecs`` with the columns reversed.

    Returns the complement (the columns that are not pivots, ascending)
    and the reduced rows as ``(pivot, {column: entry})`` pairs: each row
    is 1 at its pivot, which is its largest column, and holds no other
    pivot column.  The complement is the greedy standard-basis one:
    scanning c = 0, 1, ..., e_c is taken iff it lies outside the span
    plus the e_c' taken before it.  (A pivot p has its row, e_p plus
    columns below p, in the span; a non-pivot c cannot be reached, since
    a combination of rows is nonzero at its largest pivot.)
    """
    top = dim - 1
    echelon = SparseEchelon(dim)
    for v in vecs:
        echelon.add({top - j: x for j, x in enumerate(v) if x})
    rows, pivots = echelon.result()
    pivot_set = {top - p for p in pivots}
    complement = [c for c in range(dim) if c not in pivot_set]
    return complement, [(top - p, {top - j: x for j, x in row.items()})
                        for row, p in zip(rows, pivots)]


def cokernel_projection(mat: RatMatrix) -> tuple[list[int], RatMatrix]:
    """Projection of the target of ``mat`` onto the greedy standard-basis
    complement of its image, along the image.

    Returns the complement columns and the projection, one row per
    complement column c: e_c - sum_p r_p[c] e_p over the reduced rows
    r_p of the image (see ``_reverse_echelon``).  The projection onto a
    fixed complement along a fixed subspace is unique.
    """
    d = mat.rows
    comp, reduced = _reverse_echelon(zip(*mat.data), d)
    zero, one = Fraction(0), Fraction(1)
    proj = [[zero] * d for _ in comp]
    at = {}
    for k, c in enumerate(comp):
        proj[k][c] = one
        at[c] = k
    for p, row in reduced:
        for c, x in row.items():
            if c != p:
                proj[at[c]][p] = -x
    return comp, RatMatrix(proj, cols=d)


def complete_basis(vecs: list[list[Fraction]], dim: int) -> tuple[list[int], RatMatrix]:
    """Complete independent vectors by standard basis vectors (the greedy
    complement of ``_reverse_echelon``); return those indices and the
    inverse of the basis matrix whose columns are ``vecs``, then the
    standard vectors."""
    comp, _ = _reverse_echelon(vecs, dim)
    if dim == 0:
        return comp, RatMatrix.zeros(0, 0)
    std = RatMatrix.identity(dim).data
    return comp, RatMatrix(list(vecs) + [std[i] for i in comp], cols=dim).transpose().inverse()


def cokernel(f: SlotMap) -> tuple[SlotModule, SlotMap]:
    """Cokernel with its projection, using greedy standard-basis complements."""
    N = f.dst
    comps: dict[Slot, list[int]] = {}
    projs: dict[Slot, RatMatrix] = {}
    for s in N.slot_keys:
        comps[s], projs[s] = cokernel_projection(f.blocks[s])
    struct: dict[Label, RatMatrix] = {}
    for lab, mat in N.struct().items():
        a, b = N.label_ends(lab)
        struct[lab] = projs[b] @ mat.columns(comps[a])
    C = N._rebuild({s: len(comps[s]) for s in N.slot_keys}, struct)
    proj = SlotMap(N, C, projs)
    return C, proj


def _sum_module(mods: Sequence[SlotModule]) -> SlotModule:
    """The direct sum module alone: block-diagonal structure maps."""
    proto = mods[0]
    dims = {s: sum(m.dims[s] for m in mods) for s in proto.slot_keys}
    structs = [m.struct() for m in mods]
    struct = {lab: RatMatrix.block_diagonal([st[lab] for st in structs])
              for lab in structs[0]}
    return proto._rebuild(dims, struct)


def direct_sum(mods: Sequence[SlotModule]) -> tuple[SlotModule, list[SlotMap], list[SlotMap]]:
    """Direct sum with inclusion and projection maps (at least one summand)."""
    if not mods:
        raise ValueError("direct_sum of nothing; use zero_like for a zero module")
    S = _sum_module(mods)
    slots, dims = S.slot_keys, S.dims
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


def top_lifts(M: SlotModule) -> list[tuple[Slot, list[Fraction]]]:
    """Standard-basis lifts of a basis of M / rad M, slot by slot: the
    greedy complement of the span of all radical images."""
    images: dict[Slot, list[tuple[Fraction, ...]]] = {s: [] for s in M.slot_keys}
    st = M.struct()
    for lab in M.radical_labels():  # type: ignore[attr-defined]
        _, b = M.label_ends(lab)
        images[b].extend(zip(*st[lab].data))  # the columns
    out: list[tuple[Slot, list[Fraction]]] = []
    for s in M.slot_keys:
        for i in _reverse_echelon(images[s], M.dims[s])[0]:
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
        if not M.is_zero():
            raise RuntimeError("nonzero module with zero top")
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
    if not cover.is_surjective():
        raise RuntimeError("cover failed to be surjective")
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
        if not M.is_zero():
            raise RuntimeError("nonzero module with zero socle")
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
    if not emb.is_injective():
        raise RuntimeError("envelope failed to be injective")
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


def _block_nonzeros(f: SlotMap) -> list[list[list[tuple[int, Rat]]]]:
    """Per slot (in slot order), per block row: its nonzero (column, entry)s,
    integral entries as ``int`` (``as_int_if_integral``, inlined).
    Computed once per map, as cached Hom bases are read by many arcs;
    the lists are shared, so callers only read them."""
    got = f._nonzeros
    if got is None:
        got = f._nonzeros = [
            [[(t, b.numerator if b.denominator == 1 else b) for t, b in enumerate(row) if b]
             for row in f.blocks[s].data]
            for s in f.src.slot_keys]
    return got


def _composite_row(
    g_nonzeros: list[list[list[tuple[int, Rat]]]],
    h_nonzeros: list[list[list[tuple[int, Rat]]]],
    widths: Sequence[int],
) -> dict[int, Rat]:
    """``(g @ h).vec()`` as a sparse row, slot by slot from the
    ``_block_nonzeros`` of g and h; ``widths`` are the slot dimensions
    of h's source.  Sums that cancel stay as explicit zeros, which
    ``SparseEchelon`` drops."""
    out: dict[int, Rat] = {}
    get = out.get
    base = 0
    for g_rows, h_rows, c in zip(g_nonzeros, h_nonzeros, widths):
        if not c:
            continue
        for g_row in g_rows:
            for k, a in g_row:
                for t, b in h_rows[k]:
                    t += base
                    out[t] = get(t, 0) + a * b
            base += c
    return out


def basis_coordinates(
    basis: Sequence[SlotMap], vecs: Iterable[Mapping[int, Rat]]
) -> list[tuple[Rat, ...]]:
    """Coordinates in ``basis`` of maps given as sparse ``vec()`` rows.

    ``basis`` is meant to be a ``hom_basis`` result, the canonical
    kernel basis of ``kernel_from_rref``: each basis map has entry 1 at
    its last nonzero entry, its own free column, where every other basis
    map is zero, so a map's coordinates are its entries there.  Raises
    ``RuntimeError`` unless the free columns are distinct (so the basis
    is independent) and every residual vec - sum c_k . b_k is zero (so
    the coordinates are exact).
    """
    rows = [{k: as_int_if_integral(v) for k, v in enumerate(b.vec()) if v} for b in basis]
    if not all(rows):
        raise RuntimeError("a Hom basis map is zero")
    free = [max(row) for row in rows]
    if len(set(free)) != len(free):
        raise RuntimeError("Hom basis maps share their last nonzero entry")
    out = []
    for vec in vecs:
        coords = tuple(as_int_if_integral(vec.get(f, 0)) for f in free)
        residual = dict(vec)
        for c, row in zip(coords, rows):
            if c:
                for col, v in row.items():
                    residual[col] = residual.get(col, 0) - c * v
        if any(residual.values()):
            raise RuntimeError("a map does not lie in the span of its cached Hom basis")
        out.append(coords)
    return out


def radical_coordinates(
    x: SlotModule,
    hom_xj: Sequence[SlotMap],
    hom_ji: Sequence[SlotMap],
    hom_xi: Sequence[SlotMap],
) -> tuple[tuple[Rat, ...], ...]:
    """The span of the composites x -> P_j -> P_i (g . h, h in ``hom_xj``,
    g in ``hom_ji``) in coordinates of the basis ``hom_xi`` of
    Hom(x, P_i): its reduced echelon rows, each of length
    ``len(hom_xi)``."""
    if not (hom_xj and hom_ji):
        return ()
    widths = [x.dims[s] for s in x.slot_keys]
    composites = [_composite_row(_block_nonzeros(g), _block_nonzeros(h), widths)
                  for g in hom_ji for h in hom_xj]
    d = len(hom_xi)
    span = SparseEchelon(d)
    for coords in basis_coordinates(hom_xi, composites):
        span.add(dict(enumerate(coords)))
    rows, _ = span.result()
    return tuple(tuple(as_int_if_integral(row.get(k, 0)) for k in range(d)) for row in rows)


def composite_coordinates(
    x: SlotModule,
    hom_xi: Sequence[SlotMap],
    hom_iy: Sequence[SlotMap],
    hom_xy: Sequence[SlotMap],
) -> tuple[tuple[tuple[Rat, ...], ...], ...]:
    """Coordinates of g_l . h_k in the basis ``hom_xy`` of Hom(x, y),
    for h_k in ``hom_xi`` and g_l in ``hom_iy``: entry [k][l]."""
    widths = [x.dims[s] for s in x.slot_keys]
    out = []
    for h in hom_xi:
        h_nonzeros = _block_nonzeros(h)
        out.append(tuple(basis_coordinates(
            hom_xy, [_composite_row(_block_nonzeros(g), h_nonzeros, widths) for g in hom_iy])))
    return tuple(out)


def minimal_left_approximation(
    x: SlotModule,
    pool: Sequence[SlotModule],
    hom_x: Sequence[list[SlotMap]] | None = None,
    pool_hom: Callable[[int, int], list[SlotMap]] | None = None,
    *,
    radical: Callable[[int, int], Sequence[Sequence[Rat]]] | None = None,
) -> list[tuple[int, SlotMap]]:
    """Components of the minimal left approximation of x into add(pool).

    Pool members must be pairwise non-isomorphic indecomposables with
    one-dimensional endomorphism rings (the caller's responsibility —
    every pool in this package satisfies it).  For each pool index i the
    chosen maps x -> pool_i descend to a basis of

        Hom(x, pool_i) / sum_{j != i} Hom(pool_j, pool_i) . Hom(x, pool_j)

    which pins the multiplicities of the minimal approximation; the
    selected components together form one.  The radical span is taken
    in coordinates of the basis of Hom(x, pool_i), so each basis map
    joins iff its unit vector enlarges it.  Optional caches: ``hom_x``
    = precomputed Hom(x, pool_i), ``pool_hom(j, i)`` = Hom(pool_j,
    pool_i), ``radical(j, i)`` = ``radical_coordinates`` of the pair;
    each is asked for only when Hom(x, pool_i) and Hom(x, pool_j) are
    both nonzero.
    """
    r = len(pool)
    if hom_x is None:
        hom_x = [hom_basis(x, P) for P in pool]
    if radical is None:
        if pool_hom is None:
            def pool_hom(j: int, i: int) -> list[SlotMap]:
                return hom_basis(pool[j], pool[i])

        def radical(j: int, i: int) -> tuple[tuple[Rat, ...], ...]:
            return radical_coordinates(x, hom_x[j], pool_hom(j, i), hom_x[i])
    comps: list[tuple[int, SlotMap]] = []
    for i in range(r):
        d = len(hom_x[i])
        if not d:
            continue
        span = SparseEchelon(d)
        for j in range(r):
            if j == i or not hom_x[j]:
                continue
            rows = radical(j, i)
            if len(rows) == d:  # d independent rows: all of Hom(x, pool_i)
                break
            for row in rows:
                span.add(dict(enumerate(row)))
            if span.rank == d:
                break
        else:
            for k, h in enumerate(hom_x[i]):
                if span.add({k: 1}):
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


def approximation_map(
    x: SlotModule, pool: Sequence[SlotModule], comps: Sequence[tuple[int, SlotMap]]
) -> tuple[SlotModule, SlotMap]:
    """The map x -> E into the sum of the chosen components (zero if none)."""
    if not comps:
        z = x.zero_like()
        return z, SlotMap.zero(x, z)
    # the sum of inclusion . component: the component blocks, stacked
    E = _sum_module([pool[i] for i, _ in comps])
    blocks = {s: RatMatrix.vstack([h.blocks[s] for _, h in comps]) for s in x.slot_keys}
    return E, SlotMap(x, E, blocks)


class NoExchangeSequence(ValueError):
    """The minimal left approximation is zero or fails to be injective."""


def _approximation(
    x: SlotModule,
    pool: Sequence[SlotModule],
    hom_x: Sequence[list[SlotMap]] | None,
    pool_hom: Callable[[int, int], list[SlotMap]] | None,
    radical: Callable[[int, int], Sequence[Sequence[Rat]]] | None = None,
) -> list[tuple[int, SlotMap]]:
    """The components of a nonzero, injective minimal left approximation
    of x into add(pool); raises ``NoExchangeSequence`` otherwise."""
    comps = minimal_left_approximation(x, pool, hom_x=hom_x, pool_hom=pool_hom,
                                       radical=radical)
    if not comps:
        raise NoExchangeSequence("empty approximation: x admits no map into the pool")
    # injective iff the stacked component blocks have full column rank
    for t, s in enumerate(x.slot_keys):
        if not x.dims[s]:
            continue
        echelon = SparseEchelon(x.dims[s])
        for _, h in comps:
            for row in _block_nonzeros(h)[t]:
                echelon.add(dict(row))
        if echelon.rank != x.dims[s]:
            raise NoExchangeSequence("approximation map is not injective")
    return comps


def exchange_sequence(
    x: SlotModule,
    pool: Sequence[SlotModule],
    hom_x: Sequence[list[SlotMap]] | None = None,
    pool_hom: Callable[[int, int], list[SlotMap]] | None = None,
) -> tuple[SlotModule, SlotModule]:
    """Short exact sequence 0 -> x -> E -> y -> 0 from the minimal left
    approximation of x into add(pool).

    Returns (E, y).  Raises ``NoExchangeSequence`` if the approximation
    is zero or fails to be injective, which in the tilting-exchange
    situations this package certifies cannot happen.
    """
    E, f = approximation_map(x, pool, _approximation(x, pool, hom_x, pool_hom))
    y, _ = cokernel(f)
    return E, y


def exchange_line(
    x: SlotModule,
    y: SlotModule,
    comps: Sequence[tuple[int, SlotMap]],
    hom_x: Sequence[list[SlotMap]],
    hom_y: Sequence[list[SlotMap]],
    composites: Callable[[int], Sequence[Sequence[Sequence[Rat]]]] | None = None,
) -> tuple[list[tuple[int, SlotMap]], list[list[Fraction]]]:
    """The maps g: E -> y with g . f = 0, f: x -> E the approximation
    with components ``comps`` (each a basis map of ``hom_x[i]``).

    g is a combination of the terms (basis map of Hom(pool_i, y)) .
    (projection onto component k); returns the terms (k, basis map) and
    the canonical kernel basis of the coefficients.  The equations are
    the coordinates of g . f in a basis of Hom(x, y), one row per basis
    map, read from ``composites(i)`` = ``composite_coordinates`` of
    Hom(x, pool_i), Hom(pool_i, y) and Hom(x, y) (computed here when not
    given).  As that coordinate map is injective, the system has the
    row space, hence the kernel basis, of g . f = 0 taken entrywise.
    """
    if composites is None:
        hom_xy = hom_basis(x, y)

        def composites(i: int) -> tuple[tuple[tuple[Rat, ...], ...], ...]:
            return composite_coordinates(x, hom_x[i], hom_y[i], hom_xy)
    terms: list[tuple[int, SlotMap]] = []
    equations: dict[int, dict[int, Rat]] = {}
    for k, (i, h) in enumerate(comps):
        position = next((p for p, b in enumerate(hom_x[i]) if b is h), None)
        if position is None:
            raise RuntimeError("an approximation component is not a cached Hom basis map")
        for g, coords in zip(hom_y[i], composites(i)[position]):
            col = len(terms)
            terms.append((k, g))
            for entry, v in enumerate(coords):
                if v:
                    equations.setdefault(entry, {})[col] = v
    echelon, pivots = rref_rows(equations.values(), len(terms))
    return terms, kernel_from_rref(echelon, pivots, len(terms))


def certify_exchange(
    x: SlotModule,
    pool: Sequence[SlotModule],
    y: SlotModule,
    hom_x: Sequence[list[SlotMap]] | None = None,
    pool_hom: Callable[[int, int], list[SlotMap]] | None = None,
    hom_y: Sequence[list[SlotMap]] | None = None,
    *,
    radical: Callable[[int, int], Sequence[Sequence[Rat]]] | None = None,
    composites: Callable[[int], Sequence[Sequence[Sequence[Rat]]]] | None = None,
) -> tuple[int, ...] | None:
    """Certify 0 -> x -> E -> y -> 0 for a given brick y (End y = k),
    building neither E nor the cokernel of the approximation f: x -> E.

    f is the minimal left approximation of x into add(pool), as in
    ``exchange_sequence``, and ``hom_y[i]`` is a basis of Hom(pool_i,
    y).  The certificate:

    1. f is nonzero and injective at every slot (else
       ``NoExchangeSequence``);
    2. dim E = dim x + dim y at every slot;
    3. the maps g: E -> y with g . f = 0, that is Hom(coker f, y), form
       a line (``exchange_line``: one linear system in coordinates of a
       basis of Hom(x, y));
    4. its generator g is onto at every slot.

    Then im f lies in ker g, whose dimension is dim E - dim y = dim im f
    at every slot, so the sequence is exact and coker f is isomorphic to
    y.  Returns the slot dimensions of E (in ``dims_key`` order), or
    None when y is not the cokernel of f.  The optional caches
    ``radical`` (of ``minimal_left_approximation``) and ``composites``
    (of ``exchange_line``) hold coordinates that depend only on the
    modules, so a caller certifying many arcs over one pool computes
    them once per (x, pool_j, pool_i) and (x, pool_i, y).
    """
    if hom_x is None:
        hom_x = [hom_basis(x, P) for P in pool]
    comps = _approximation(x, pool, hom_x, pool_hom, radical)
    slots = x.slot_keys
    e_dims = tuple(sum(pool[i].dims[s] for i, _ in comps) for s in slots)
    if e_dims != tuple(x.dims[s] + y.dims[s] for s in slots):
        return None
    if hom_y is None:
        hom_y = [hom_basis(P, y) for P in pool]
    terms, solutions = exchange_line(x, y, comps, hom_x, hom_y, composites)
    if len(solutions) != 1:
        return None
    # g's block at slot s is the row of its components sum c . g: onto
    # iff its sparse rows, component k shifted by offs[k], have rank dim y_s
    coeffs = [(as_int_if_integral(c), k, _block_nonzeros(g))
              for (k, g), c in zip(terms, solutions[0]) if c]
    for t, s in enumerate(slots):
        if not y.dims[s]:
            continue
        offs = [0]
        for i, _ in comps:
            offs.append(offs[-1] + pool[i].dims[s])
        rows: list[dict[int, Rat]] = [{} for _ in range(y.dims[s])]
        for c, k, g_nonzeros in coeffs:
            for row, g_row in zip(rows, g_nonzeros[t]):
                for col, v in g_row:
                    col += offs[k]
                    row[col] = row.get(col, 0) + c * v
        echelon = SparseEchelon(offs[-1])
        for row in rows:
            echelon.add(row)
        if echelon.rank != y.dims[s]:
            return None
    return e_dims
