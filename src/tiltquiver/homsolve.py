"""Generic homological machinery for slot-graded linear modules.

Several module categories in this package have the same shape: a module
is a family of finite dimensional rational vector spaces indexed by
*slots*, together with *labeled* structure maps between slots.  Quiver
representations (slots = vertices, labels = arrows) and the triples over
the duplicated algebra both fit.  Everything that only depends on that
shape lives here, written once:

* morphism spaces (``hom_basis``, or ``checked_hom`` against a dimension
  known without it) and their dimensions (``hom_dim``, and ``end_dim``
  once per module) from the intertwining equations, assembled
  as sparse rows, and coordinates of maps and composites in a cached Hom
  basis, kept by object index in ``IndexCache``, which the pools of both
  exchange engines subclass (``tilt_a.Pool``, ``dup.DupContext``),
* cokernels that stay inside the category,
* minimal left approximations into an additive subcategory spanned by
  indecomposables with one-dimensional endomorphism rings, the short
  exact exchange sequence an approximation generates (into add of the
  injectives, the approximation is the injective envelope), and the
  certificate of such a sequence that builds neither its middle term
  nor its cokernel.

Covers, kernels and module resolutions are not needed: every object
whose Ext^1 the package reads comes with a projective presentation of
length one (``dup.DupContext.ext1_idx``), and ``endo`` resolves the
simples of End T in free coordinates.  The concrete classes subclass
:class:`SlotModule` and provide the structure maps; no linear algebra
happens outside ``exactlin``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .exactlin import (
    Rat,
    RatMatrix,
    SparseEchelon,
    as_int_if_integral,
    kernel_from_rref,
    rref_rows,
)

Label = Hashable
Slot = Hashable


class SlotModule:
    """Base class: dims per slot + labeled structure maps.

    Subclasses must set ``slot_keys`` (shared, ordered) and ``dims``
    (dict slot -> dimension) and implement:

    ``struct()``
        dict label -> RatMatrix in an order the constructor fixes, one
        structure map per generator of the algebra (an arrow, or a basis
        element), so their intertwining equations cut out Hom;
    ``label_ends(label)``
        (source slot, destination slot) of a label;
    ``_rebuild(dims, struct)``
        a new instance of the same kind from transported data.
    """

    slot_keys: tuple[Slot, ...]
    dims: dict[Slot, int]
    _nonzeros = None  # memo of _label_nonzeros
    _end_dim = None  # memo of end_dim

    # -- required interface ------------------------------------------------

    def struct(self) -> dict[Label, RatMatrix]:
        raise NotImplementedError

    def label_ends(self, label: Label) -> tuple[Slot, Slot]:
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

    def vec(self) -> tuple[Fraction, ...]:
        """Flatten all blocks (slot order, row-major) for rank arguments."""
        out: list[Fraction] = []
        for s in self.src.slot_keys:
            for row in self.blocks[s].data:
                out.extend(row)
        return tuple(out)

# ---------------------------------------------------------------------------
# morphism spaces


def _label_nonzeros(
    M: SlotModule,
) -> tuple[tuple[Slot, Slot, list[list[tuple[int, Rat]]], list[list[tuple[int, Rat]]]], ...]:
    """Per label, in ``struct()`` order: its ends (a, b) and
    the nonzero (index, entry)s of each column and of each row of its
    structure matrix, integral entries as ``int`` (``as_int_if_integral``,
    inlined).  Computed once per module, as ``_hom_system`` reads them
    for every partner (modules are not mutated once built); the lists
    are shared, so callers only read them."""
    got = M._nonzeros
    if got is None:
        out = []
        for lab, mat in M.struct().items():
            rows = [[(k, x.numerator if x.denominator == 1 else x)
                     for k, x in enumerate(row) if x] for row in mat.data]
            cols: list[list[tuple[int, Rat]]] = [[] for _ in range(mat.cols)]
            for i, row in enumerate(rows):
                for k, x in row:
                    cols[k].append((i, x))
            out.append((*M.label_ends(lab), cols, rows))
        got = M._nonzeros = tuple(out)
    return got


def _hom_system(
    M: SlotModule, N: SlotModule
) -> tuple[list[dict[int, Rat]], dict[Slot, int], int]:
    """Intertwining equations of Hom(M, N) as sparse rows.

    Unknowns are the entries of one matrix f_s: M_s -> N_s per slot,
    row-major, slot blocks in slot order (``offs[s]`` is where slot s
    starts; ``total`` unknowns in all).  Each label l: a -> b of
    ``struct()`` contributes the equations f_b @ S^M_l - S^N_l @ f_a = 0,
    one row per entry, holding at most dim M_b + dim N_a nonzeros.
    """
    if M.slot_keys != N.slot_keys:
        raise ValueError("modules live on different slot sets")
    if list(M.struct()) != list(N.struct()):
        raise ValueError("modules carry different label sets")
    offs: dict[Slot, int] = {}
    total = 0
    for s in M.slot_keys:
        offs[s] = total
        total += N.dims[s] * M.dims[s]
    if total == 0:
        return [], offs, 0
    rows: list[dict[int, Rat]] = []
    # the columns of S^M_l: M_a -> M_b and the rows of S^N_l: N_a -> N_b
    for (a, b, p_cols, _), (_, _, _, q_rows) in zip(_label_nonzeros(M), _label_nonzeros(N)):
        mb, ma, off_a = M.dims[b], len(p_cols), offs[a]
        for i, q_row in enumerate(q_rows):
            base_b = offs[b] + i * mb
            for j, p_col in enumerate(p_cols):
                row: dict[int, Rat] = {base_b + k: c for k, c in p_col}
                for k, c in q_row:
                    col = off_a + k * ma + j
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
            base = offs[s]
            # slices of a fresh kernel vector of Fractions
            blocks[s] = RatMatrix._trusted(
                [v[base + i * c: base + (i + 1) * c] for i in range(r)], c)
        out.append(SlotMap(M, N, blocks))
    return out


def checked_hom(M: SlotModule, N: SlotModule, dim: int, pair: tuple) -> list[SlotMap]:
    """``hom_basis(M, N)`` for a pair whose Hom dimension ``dim`` is known
    without it: no solve when dim is 0, and ``RuntimeError``, naming M and
    N by ``pair``, unless the solved basis has exactly dim maps."""
    if not dim:
        return []
    got = hom_basis(M, N)
    if len(got) != dim:
        raise RuntimeError(f"the Hom basis of ({pair[0]}, {pair[1]}) has {len(got)} maps, "
                           f"not {dim}")
    return got


def hom_dim(M: SlotModule, N: SlotModule) -> int:
    """dim Hom(M, N) from the rank of the intertwining system alone."""
    rows, _, total = _hom_system(M, N)
    echelon = SparseEchelon(total)
    for row in rows:
        echelon.add(row)
    return total - echelon.rank


def end_dim(M: SlotModule) -> int:
    """dim End(M), solved once per module and kept on it (modules are not
    mutated once built), so every End check of a module shares one solve."""
    got = M._end_dim
    if got is None:
        got = M._end_dim = hom_dim(M, M)
    return got


# ---------------------------------------------------------------------------
# kernels, cokernels, sums


def cokernel_projection(mat: RatMatrix) -> tuple[list[int], RatMatrix]:
    """Projection of the target of ``mat`` onto the greedy standard-basis
    complement of its image, along the image.

    The image is brought to echelon form with the columns reversed: each
    reduced row r_p is 1 at its pivot p, its largest column, and holds no
    other pivot column.  The columns that are not pivots form the greedy
    complement: scanning c = 0, 1, ..., e_c is taken iff it lies outside
    the image plus the e_c' taken before it.  (A pivot p has its row, e_p
    plus columns below p, in the image; a non-pivot c cannot be reached,
    since a combination of rows is nonzero at its largest pivot.)
    Returns the complement columns and the projection, one row per
    complement column c: e_c - sum_p r_p[c] e_p.  The projection onto a
    fixed complement along a fixed subspace is unique.
    """
    d = mat.rows
    top = d - 1
    echelon = SparseEchelon(d)
    for v in zip(*mat.data):  # the columns
        echelon.add({top - j: x for j, x in enumerate(v) if x})
    rows, pivots = echelon.result()
    pivot_set = {top - p for p in pivots}
    comp = [c for c in range(d) if c not in pivot_set]
    zero, one = Fraction(0), Fraction(1)
    proj = [[zero] * d for _ in comp]
    at = {}
    for k, c in enumerate(comp):
        proj[k][c] = one
        at[c] = k
    for row, p in zip(rows, pivots):
        for j, x in row.items():
            if j != p:
                proj[at[top - j]][top - p] = -x
    return comp, RatMatrix(proj, cols=d)


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
    """The direct sum of modules: block-diagonal structure maps."""
    proto = mods[0]
    dims = {s: sum(m.dims[s] for m in mods) for s in proto.slot_keys}
    structs = [m.struct() for m in mods]
    struct = {lab: RatMatrix.block_diagonal([st[lab] for st in structs])
              for lab in structs[0]}
    return proto._rebuild(dims, struct)


# ---------------------------------------------------------------------------
# approximations and exchange sequences


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


class IndexCache:
    """Hom data between a fixed list of objects, keyed by object index: a
    subclass supplies object i as ``module(i)`` and a basis of Hom(object
    i, object j), kept in ``_hom``, as ``hom_idx(i, j)``; the coordinates
    read over those bases are cached here, one copy of each value."""

    def __init__(self) -> None:
        self._hom: dict[tuple[int, int], list[SlotMap]] = {}
        self._radical: dict[tuple[int, int, int], tuple] = {}
        self._composites: dict[tuple[int, int, int], tuple] = {}
        self._shared: dict[tuple, tuple] = {}

    def radical_idx(self, x: int, j: int, i: int) -> tuple:
        """``radical_coordinates`` of the composites x -> j -> i, in the
        basis ``hom_idx(x, i)`` (cached)."""
        got = self._radical.get((x, j, i))
        if got is None:
            got = radical_coordinates(self.module(x), self.hom_idx(x, j), self.hom_idx(j, i),
                                      self.hom_idx(x, i))
            got = self._radical[(x, j, i)] = self._shared.setdefault(got, got)
        return got

    def composite_idx(self, x: int, i: int, y: int) -> tuple:
        """``composite_coordinates`` of the composites x -> i -> y, in the
        basis ``hom_idx(x, y)`` (cached)."""
        got = self._composites.get((x, i, y))
        if got is None:
            got = composite_coordinates(self.module(x), self.hom_idx(x, i), self.hom_idx(i, y),
                                        self.hom_idx(x, y))
            got = self._composites[(x, i, y)] = self._shared.setdefault(got, got)
        return got


def minimal_left_approximation(
    hom_x: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
) -> list[tuple[int, SlotMap]]:
    """Components of the minimal left approximation of x into add(pool),
    given the bases ``hom_x[i]`` of Hom(x, pool_i).

    Pool members must be pairwise non-isomorphic indecomposables with
    one-dimensional endomorphism rings (the caller's responsibility —
    every pool in this package satisfies it).  For each pool index i the
    chosen maps x -> pool_i descend to a basis of

        Hom(x, pool_i) / sum_{j != i} Hom(pool_j, pool_i) . Hom(x, pool_j)

    which pins the multiplicities of the minimal approximation; the
    selected components together form one.  The radical span is taken
    in coordinates of the basis of Hom(x, pool_i): ``radical(j, i)`` is
    the ``radical_coordinates`` of the pair, asked for only when
    Hom(x, pool_i) and Hom(x, pool_j) are both nonzero, and each basis
    map joins iff its unit vector enlarges the span.
    """
    r = len(hom_x)
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


def approximation_map(
    x: SlotModule, pool: Sequence[SlotModule], comps: Sequence[tuple[int, SlotMap]]
) -> tuple[SlotModule, SlotMap]:
    """The map x -> E into the sum of the chosen components, at least one
    (``injective_approximation`` returns them)."""
    # the sum of inclusion . component: the component blocks, stacked
    E = _sum_module([pool[i] for i, _ in comps])
    blocks = {s: RatMatrix.vstack([h.blocks[s] for _, h in comps]) for s in x.slot_keys}
    return E, SlotMap(x, E, blocks)


class NoExchangeSequence(RuntimeError):
    """The minimal left approximation is zero or fails to be injective.

    Callers that expect one (every exchange this package certifies) let
    it through as an engine error; a caller asking whether a module lies
    in add of a pool catches it."""


class ExchangeDims(tuple):
    """The slot dimensions of a certified middle term E (``dims_key``
    order), equal to the plain tuple, carrying the components (pool
    index, basis map x -> pool_i) of the approximation x -> E that the
    certificate built, so E's summands are read off without a second
    approximation."""

    components: list[tuple[int, SlotMap]]

    def __new__(cls, dims: Iterable[int], components: list[tuple[int, SlotMap]]):
        got = super().__new__(cls, dims)
        got.components = components
        return got


def injective_approximation(
    x: SlotModule,
    hom_x: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
) -> list[tuple[int, SlotMap]]:
    """The components of a nonzero, injective minimal left approximation
    of x into add(pool) (arguments as in ``minimal_left_approximation``);
    raises ``NoExchangeSequence`` otherwise."""
    comps = minimal_left_approximation(hom_x, radical)
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
    hom_x: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
) -> tuple[SlotModule, SlotModule]:
    """Short exact sequence 0 -> x -> E -> y -> 0 from the minimal left
    approximation of x into add(pool) (``hom_x`` and ``radical`` as in
    ``minimal_left_approximation``).

    Returns (E, y).  Raises ``NoExchangeSequence`` if the approximation
    is zero or fails to be injective, which in the tilting-exchange
    situations this package certifies cannot happen.
    """
    E, f = approximation_map(x, pool, injective_approximation(x, hom_x, radical))
    y, _ = cokernel(f)
    return E, y


def basis_position(basis: Sequence[SlotMap], h: SlotMap) -> int:
    """The position of the approximation component h in its cached Hom
    basis (``RuntimeError`` if it is not one of the basis maps)."""
    for position, b in enumerate(basis):
        if b is h:
            return position
    raise RuntimeError("an approximation component is not a cached Hom basis map")


def exchange_line(
    comps: Sequence[tuple[int, SlotMap]],
    hom_x: Sequence[list[SlotMap]],
    hom_y: Sequence[list[SlotMap]],
    composites: Callable[[int], Sequence[Sequence[Sequence[Rat]]]],
) -> tuple[list[tuple[int, SlotMap]], list[list[Fraction]]]:
    """The maps g: E -> y with g . f = 0, f: x -> E the approximation
    with components ``comps`` (each a basis map of ``hom_x[i]``).

    g is a combination of the terms (basis map of Hom(pool_i, y)) .
    (projection onto component k); returns the terms (k, basis map) and
    the canonical kernel basis of the coefficients.  The equations are
    the coordinates of g . f in a basis of Hom(x, y), one row per basis
    map, read from ``composites(i)`` = ``composite_coordinates`` of
    Hom(x, pool_i), Hom(pool_i, y) and Hom(x, y).  As that coordinate
    map is injective, the system has the row space, hence the kernel
    basis, of g . f = 0 taken entrywise.
    """
    terms: list[tuple[int, SlotMap]] = []
    equations: dict[int, dict[int, Rat]] = {}
    for k, (i, h) in enumerate(comps):
        for g, coords in zip(hom_y[i], composites(i)[basis_position(hom_x[i], h)]):
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
    hom_x: Sequence[list[SlotMap]],
    hom_y: Sequence[list[SlotMap]],
    radical: Callable[[int, int], Sequence[Sequence[Rat]]],
    composites: Callable[[int], Sequence[Sequence[Sequence[Rat]]]],
) -> ExchangeDims | None:
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
    y.  Returns the slot dimensions of E (in ``dims_key`` order) with
    the components of f (``ExchangeDims``), or None when y is not the
    cokernel of f.  ``radical`` (of ``minimal_left_approximation``) and
    ``composites`` (of ``exchange_line``) hold coordinates that depend
    only on the modules, so a caller certifying many arcs over one pool
    computes them once per (x, pool_j, pool_i) and (x, pool_i, y).
    """
    comps = injective_approximation(x, hom_x, radical)
    slots = x.slot_keys
    e_dims = tuple(sum(pool[i].dims[s] for i, _ in comps) for s in slots)
    if e_dims != tuple(x.dims[s] + y.dims[s] for s in slots):
        return None
    terms, solutions = exchange_line(comps, hom_x, hom_y, composites)
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
    return ExchangeDims(e_dims, comps)
